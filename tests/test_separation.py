import pytest

from localekit import corpus, separation
from localekit.common import CheckReport, TheoremViolation
from localekit.separation import (SeparationReport, is_subfit, is_symmetric, is_weakly_subfit,
                                  pseudocomplement_formula_check,
                                  subfit_correspondence_check)
from localekit.sublocales import all_sublocales, closed_join_frame, dual_booleanization


def complemented(frame):
    """Which elements of the closed-join frame of frame have a complement."""
    sc = closed_join_frame(frame).frame
    return ((sc.join == sc.top) & (sc.meet == sc.bottom)).any(axis=1)


class TestSubfit:
    def test_boolean_square_holds(self, b2):
        assert is_subfit(b2).holds

    def test_chain3_fails_with_minimal_witness(self, c3):
        report = is_subfit(c3)
        assert not report.holds
        assert report.witness == (1, 0)

    def test_degenerate_holds_vacuously(self, c1):
        assert is_subfit(c1).holds

    def test_witness_rechecks(self, small_corpus):
        for frame in small_corpus:
            report = is_subfit(frame)
            if report.holds:
                continue
            a, b = report.witness
            assert not frame.leq[a, b]
            top = frame.top
            assert all(not (frame.join[a, c] == top and frame.join[b, c] != top)
                       for c in range(frame.n))


class TestWeaklySubfit:
    def test_boolean_square_holds(self, b2):
        assert is_weakly_subfit(b2).holds

    def test_chain3_fails_at_middle(self, c3):
        report = is_weakly_subfit(c3)
        assert not report.holds
        assert report.witness == (1,)

    def test_closed_join_frame_of_chain3_fails(self, c3):
        report = is_weakly_subfit(closed_join_frame(c3).frame)
        assert not report.holds
        assert report.witness_labels == ("c(1)",)

    def test_witness_rechecks(self, small_corpus):
        for frame in small_corpus:
            report = is_weakly_subfit(frame)
            if report.holds:
                continue
            (a,) = report.witness
            assert a != 0
            assert all(frame.join[a, c] != frame.top for c in range(frame.n - 1))


class TestSymmetric:
    def test_chain3_fails_on_open_middle(self, c3):
        report = is_symmetric(c3)
        assert not report.holds
        assert report.witness_labels == ("1",)
        assert [c.holds for c in report.conditions] == [False, False, False]

    def test_boolean_square_holds(self, b2):
        report = is_symmetric(b2)
        assert report.holds
        assert len(report.conditions) == 3

    def test_degenerate_holds(self, c1):
        assert is_symmetric(c1).holds

    def test_grid_fails(self, grid):
        assert not is_symmetric(grid).holds

    def test_conditions_agree_on_corpus(self, small_corpus):
        for frame in small_corpus:
            is_symmetric(frame)  # EquivalenceViolation would propagate


class TestCorrespondence:
    def test_boolean_square(self, b2):
        assert subfit_correspondence_check(b2) == CheckReport.passed("ppt")
        assert is_subfit(b2).holds and complemented(b2).all()
        assert {s.mask for s in dual_booleanization(b2)} == set(closed_join_frame(b2).masks)

    def test_chain3_consistent(self, c3):
        assert subfit_correspondence_check(c3) == CheckReport.passed("ppt")
        assert not is_subfit(c3).holds
        cjf = closed_join_frame(c3)
        assert cjf.elements[int(complemented(c3).argmin())].label() == "{1,2}"
        assert len(cjf) == 3
        assert len(dual_booleanization(c3)) == 4

    def test_regular_pairs_of_chain3(self, c3):
        frame = corpus.named_frames()["pairs(chain3)"]
        assert subfit_correspondence_check(frame).ok
        assert not is_subfit(frame).holds and not complemented(frame).all()

    def test_disagreement_raises(self, c3, monkeypatch):
        monkeypatch.setattr(separation, "is_subfit",
                            lambda frame: SeparationReport("subfit", True))
        with pytest.raises(TheoremViolation, match="^subfit=True but closed-join "
                                                   r"complementation=False; witness=\{1,2\}"):
            subfit_correspondence_check(c3)

    def test_corpus_never_violates(self, small_corpus):
        for frame in small_corpus:
            lattice = all_sublocales(frame)
            subfit_correspondence_check(frame, lattice)


class TestPseudocomplementFormula:
    def test_boolean_square(self, b2):
        assert pseudocomplement_formula_check(b2) == CheckReport.passed("pcformula")

    def test_chain3_not_applicable(self, c3):
        # N/A counts as passing the guard
        assert pseudocomplement_formula_check(c3) == CheckReport.passed("pcformula",
                                                                        "not-applicable")

    def test_degenerate(self, c1):
        assert pseudocomplement_formula_check(c1).ok

    def test_weakly_subfit_corpus_members_pass(self, small_corpus):
        applicable = 0
        for frame in small_corpus:
            report = pseudocomplement_formula_check(frame)
            assert report.ok
            applicable += report.witness != "not-applicable"
        assert applicable  # the Boolean members are in the corpus


class TestImplications:
    def test_subfit_implies_weaker_axioms(self, small_corpus):
        for frame in small_corpus:
            if is_subfit(frame).holds:
                assert is_weakly_subfit(frame).holds
                assert is_symmetric(frame).holds

    def test_finite_subfit_means_boolean(self, small_corpus):
        # On finite carriers the correspondence collapses subfitness to
        # complementedness; spot-check the equivalence both ways.
        for frame in small_corpus:
            assert subfit_correspondence_check(frame).ok
            assert is_subfit(frame).holds == complemented(frame).all()
