from random import Random

import numpy as np
import pytest

from localekit import checks, corpus, sublocales
from localekit.common import CheckReport, TheoremViolation, settled
from localekit.lattice import FiniteFrame, validate_frame
from localekit.separation import SeparationBattery, SeparationReport
from localekit.sublocales import SublocaleLattice, closed_join_frames

from conftest import alone
from oracles import per_item_separation, tampered

PARTS = ("subfit", "weakly_subfit", "symmetric", "ppt", "pcformula")
PPT = checks.LATTICE_CHECKS["ppt"]


def complemented(frame):
    """Which elements of the closed-join frame of frame have a complement."""
    sc = alone(frame).closed_joins.frame
    return ((sc.join == sc.top) & (sc.meet == sc.bottom)).any(axis=1)


class TestSubfit:
    def test_boolean_square_holds(self, b2):
        assert alone(b2).separation("subfit").holds

    def test_chain3_fails_with_minimal_witness(self, c3):
        report = alone(c3).separation("subfit")
        assert not report.holds
        assert report.witness == (1, 0)

    def test_degenerate_holds_vacuously(self, c1):
        assert alone(c1).separation("subfit").holds

    def test_witness_rechecks(self, small_corpus):
        for frame in small_corpus:
            report = alone(frame).separation("subfit")
            if report.holds:
                continue
            a, b = report.witness
            assert not frame.leq[a, b]
            top = frame.top
            assert all(not (frame.join[a, c] == top and frame.join[b, c] != top)
                       for c in range(frame.n))


class TestWeaklySubfit:
    def test_boolean_square_holds(self, b2):
        assert alone(b2).separation("weakly_subfit").holds

    def test_chain3_fails_at_middle(self, c3):
        report = alone(c3).separation("weakly_subfit")
        assert not report.holds
        assert report.witness == (1,)

    def test_closed_join_frame_of_chain3_fails(self, c3):
        report = alone(alone(c3).closed_joins.frame).separation("weakly_subfit")
        assert not report.holds
        assert report.witness_labels == ("c(1)",)

    def test_witness_rechecks(self, small_corpus):
        for frame in small_corpus:
            report = alone(frame).separation("weakly_subfit")
            if report.holds:
                continue
            (a,) = report.witness
            assert a != 0
            assert all(frame.join[a, c] != frame.top for c in range(frame.n - 1))


class TestSymmetric:
    def test_chain3_fails_on_open_middle(self, c3):
        report = alone(c3).separation("symmetric")
        assert not report.holds
        assert report.witness_labels == ("1",)
        assert [c.holds for c in report.conditions] == [False, False, False]

    def test_boolean_square_holds(self, b2):
        report = alone(b2).separation("symmetric")
        assert report.holds
        assert len(report.conditions) == 3

    def test_degenerate_holds(self, c1):
        assert alone(c1).separation("symmetric").holds

    def test_grid_fails(self, grid):
        assert not alone(grid).separation("symmetric").holds

    def test_conditions_agree_on_corpus(self, small_corpus):
        for frame in small_corpus:
            alone(frame).separation("symmetric")  # EquivalenceViolation would propagate


class TestCorrespondence:
    def test_boolean_square(self, b2):
        assert PPT(alone(b2)) == CheckReport.passed("ppt")
        assert alone(b2).separation("subfit").holds and complemented(b2).all()
        assert set(alone(b2).lattice.masks) == set(alone(b2).closed_joins.masks)

    def test_chain3_consistent(self, c3):
        assert PPT(alone(c3)) == CheckReport.passed("ppt")
        assert not alone(c3).separation("subfit").holds
        cjf = alone(c3).closed_joins
        assert cjf.elements[int(complemented(c3).argmin())].label() == "{1,2}"
        assert len(cjf) == 3

    def test_regular_pairs_of_chain3(self, c3):
        frame = corpus.named_frames()["pairs(chain3)"]
        assert PPT(alone(frame)).ok
        assert not alone(frame).separation("subfit").holds and not complemented(frame).all()

    def test_disagreement_raises(self, c3, monkeypatch):
        monkeypatch.setattr(SeparationBattery, "subfit", property(  # every frame subfit
            lambda battery: [SeparationReport("subfit", True)] * len(battery.frames)))
        with pytest.raises(TheoremViolation, match="^subfit=True but closed-join "
                                                   r"complementation=False; witness=\{1,2\}"):
            PPT(alone(c3))

    def test_corpus_never_violates(self, small_corpus):
        for item in checks.frame_structures(small_corpus):  # one batch, as in a campaign
            PPT(item)


class TestPseudocomplementFormula:
    def test_boolean_square(self, b2):
        assert alone(b2).separation("pcformula") == CheckReport.passed("pcformula")

    def test_chain3_not_applicable(self, c3):
        # N/A counts as passing the guard
        assert alone(c3).separation("pcformula") == CheckReport.passed("pcformula",
                                                                        "not-applicable")

    def test_degenerate(self, c1):
        assert alone(c1).separation("pcformula").ok

    def test_weakly_subfit_corpus_members_pass(self, small_corpus):
        applicable = 0
        for frame in small_corpus:
            report = alone(frame).separation("pcformula")
            assert report.ok
            applicable += report.witness != "not-applicable"
        assert applicable  # the Boolean members are in the corpus


class TestImplications:
    def test_subfit_implies_weaker_axioms(self, small_corpus):
        for frame in small_corpus:
            if alone(frame).separation("subfit").holds:
                assert alone(frame).separation("weakly_subfit").holds
                assert alone(frame).separation("symmetric").holds

    def test_finite_subfit_means_boolean(self, small_corpus):
        # On finite carriers the correspondence collapses subfitness to
        # complementedness; spot-check the equivalence both ways.
        for frame in small_corpus:
            assert PPT(alone(frame)).ok
            assert alone(frame).separation("subfit").holds == complemented(frame).all()


def outcome(read):
    """read(), or the type and text of what it raises."""
    try:
        return read()
    except Exception as exc:  # noqa: BLE001 - the outcome under comparison
        return type(exc).__name__, str(exc)


def stacked_route(frames):
    """Each frame's battery outcomes as a campaign reads them, from one batch
    of FrameStructures; ppt through its check, which adds the S(L) half."""
    ppt = checks.LATTICE_CHECKS["ppt"]
    return [{part: outcome(lambda: ppt(item) if part == "ppt" else item.separation(part))
             for part in PARTS} for item in checks.frame_structures(frames)]


def per_item_route(frames):
    return [{part: outcome(lambda: settled(value))
             for part, value in per_item_separation(frame).items()} for frame in frames]


def boolean_algebra(k):
    """The 2^k-element Boolean algebra read off its closed forms (i & j, i | j,
    ~i | j), without validate_frame, whose (n, n, n) Heyting search would
    take gigabytes at 512 elements."""
    i = np.arange(1 << k)
    return FiniteFrame((i[:, None] & ~i) == 0, i[:, None] & i, i[:, None] | i,
                       (~i[:, None] | i) & ((1 << k) - 1), tuple(map(str, i)))


# one changed join entry: (frame, entry, value, outcome of ppt, weaksub-equiv, pcformula)
FAULTS = [
    ("chain3", (1, 1), 2,
     ("TheoremViolation", "subfit=True but closed-join complementation=False; witness={1,2}, "
                          "frame labels=('0', '1', '2')"),
     None, ("AssertionError", "a=1: meet of covers is 1, a*=0")),
    ("bool2", (0, 1), 3, ("AssertionError", "closed-join Heyting adjunction breaks at "
                                            "(c(0), c(2), c(2))"),
     ("AssertionError", "closed-join Heyting adjunction breaks at (c(0), c(2), c(2))"),
     ("AssertionError", "a=1: meet of covers is 0, a*=2")),
    ("bool3", (0, 7), 0, ("AssertionError", "closed-join meet is not below both at (c(0), c(7))"),
     ("AssertionError", "closed-join meet is not below both at (c(0), c(7))"),
     ("AssertionError", "a ∨ a* ≠ 1 at 0")),
]


class TestStackedBattery:
    def test_matches_per_item_oracle_in_one_mixed_batch(self, tiny_corpus):
        frames = [frame for _, frame in corpus.iter_distributive_frames(6)]
        frames += list(tiny_corpus.values())
        Random(0).shuffle(frames)  # every carrier size in one batch
        got = stacked_route(frames)
        assert got == per_item_route(frames)
        assert {report["pcformula"].witness for report in got} == {"", "not-applicable"}
        assert {report["symmetric"].holds for report in got} == {True, False}
        for frame in list(tiny_corpus.values()) + frames[:200]:
            assert stacked_route([frame]) == per_item_route([frame])  # a batch of one

    def test_symmetry_reports_match_per_condition(self, tiny_corpus):
        for frame in tiny_corpus.values():
            got = alone(frame).separation("symmetric")
            want = per_item_separation(frame)["symmetric"]
            assert got == want and [c.witness for c in got.conditions] == [
                c.witness for c in want.conditions]

    def test_boolean_cube_of_256_elements(self):
        i = np.arange(256)
        cube = validate_frame((i[:, None] & ~i) == 0, max_size=256)
        got = stacked_route([cube])
        assert got == per_item_route([cube])
        assert got[0]["subfit"].holds and got[0]["symmetric"].holds
        assert got[0]["pcformula"] == CheckReport.passed("pcformula")

    def test_products_count_past_255(self):
        # On 256 elements every product counts at most 255 true terms; at 512
        # (a, b) = (top, a coatom) has 256 separating c, and the covers of the
        # top miss 256 elements above each atom, so a product that counted in
        # uint8 would wrap to 0 and read subfit and pcformula as failing.
        frame = boolean_algebra(9)
        hits = (frame.join == frame.top).astype(np.int64)
        assert (hits @ (1 - hits).T).max() >= 256
        battery = SeparationBattery([frame])
        assert battery.subfit == [SeparationReport("subfit", True)]
        assert battery.weakly_subfit == [SeparationReport("weakly-subfit", True)]
        assert battery.pcformula == [CheckReport.passed("pcformula")]

    @pytest.mark.parametrize("position", [0, 2])
    @pytest.mark.parametrize("name,entry,value,ppt,weaksub,pcformula", FAULTS, ids=[
        f"{name}-join{entry}={value}" for name, entry, value, *_ in FAULTS])
    def test_injected_fault_on_both_routes(self, tiny_corpus, position, name, entry, value, ppt,
                                           weaksub, pcformula):
        broken = tampered(tiny_corpus[name], "join", {entry: value})
        good = [tiny_corpus[other] for other in ("chain3", "bool2", "bool2xchain3")]
        batch = good[:position] + [broken] + good[position:]
        got = stacked_route(batch)
        assert got == per_item_route(batch)
        assert got[position]["ppt"] == ppt
        assert (got[position]["symmetric"] if weaksub else None) == weaksub
        assert got[position]["pcformula"] == pcformula
        assert all(report["ppt"] == CheckReport.passed("ppt")
                   for k, report in enumerate(got) if k != position)
        items = list(checks.frame_structures(batch))  # the campaign's weaksub-equiv record
        assert outcome(lambda: checks.LATTICE_CHECKS["weaksub-equiv"](items[position])) == (
            weaksub or CheckReport.passed("weaksub-equiv"))

    def test_each_pcformula_law_keeps_its_witness_in_one_stack(self, b2):
        """Three 4-element frames in one stack: a join entry that breaks the
        cover formula, a meet entry a ∧ a* ≠ 0 that breaks only the third law
        (the cover formula and a ∨ a* = 1 read no meet), and a clean one."""
        batch = [tampered(b2, "join", {(0, 1): 3}), tampered(b2, "meet", {(1, 2): 1}), b2]
        got = [outcome(lambda: settled(report)) for report in SeparationBattery(batch).pcformula]
        assert got == [outcome(lambda: settled(per_item_separation(frame)["pcformula"]))
                       for frame in batch]
        assert got == [("AssertionError", "a=1: meet of covers is 0, a*=2"),
                       ("AssertionError", "1 has no complement"), CheckReport.passed("pcformula")]

    # Symmetry reads the join table only through the closed-join frame, which
    # a changed join entry breaks (above). A changed Heyting entry changes an
    # open sublocale o(a) and leaves the closed-join frame whole.
    @pytest.mark.parametrize("name,entry,value,expected", [
        ("bool2", (1, 0), 1, ("EquivalenceViolation", "symmetry conditions disagree on a frame "
                              "with 4 elements: [('closed-join-weakly-subfit', True, None), "
                              "('proper-opens-covered', False, 'o(1)'), "
                              "('dense-proper-opens-covered', True, None)]")),
        ("grid2x3", (1, 0), 1, ["c((1,1))", "o((0,1))", "o((1,1))"]),
    ])
    def test_injected_symmetry_fault_on_both_routes(self, tiny_corpus, name, entry, value,
                                                    expected):
        broken = tampered(tiny_corpus[name], "imp", {entry: value})
        batch = [tiny_corpus["bool2xchain3"], broken, tiny_corpus["chain3"]]
        got = stacked_route(batch)
        assert got == per_item_route(batch)
        symmetric = got[1]["symmetric"]
        if isinstance(expected, list):  # a report whose conditions name different witnesses
            symmetric = [condition.witness for condition in symmetric.conditions]
        assert symmetric == expected

    def test_injected_complementation_fault(self, c3, monkeypatch):
        # meet[1, 2] = 0 makes c(1) ∨ c(2) = L one way round in the closed-join
        # frame, so c(1) gains a complement there while c3 stays not subfit
        broken = tampered(c3, "meet", {(1, 2): 0})
        expected = ("TheoremViolation", "subfit=False but closed-join complementation=True; "
                                         "witness=None, frame labels=('0', '1', '2')")
        battery = SeparationBattery([broken], lambda: closed_join_frames([broken]))
        assert outcome(lambda: settled(battery.ppt[0])) == expected
        lattice = alone(c3).lattice  # the broken meet makes no S(L)
        monkeypatch.setattr(sublocales, "sublocale_lattices", lambda frames, budget: [lattice])
        assert outcome(lambda: PPT(alone(broken))) == expected
        assert outcome(lambda: settled(per_item_separation(broken, lattice)["ppt"])) == expected

    def test_injected_sublocale_fault(self, b2, monkeypatch):
        # an S(L) whose second member row is {0, 3}, not the closed {1, 3}
        lattice = alone(b2).lattice
        rows = lattice.rows.copy()
        rows[1] = [True, False, False, True]
        broken = SublocaleLattice(b2, lattice.ys, rows)
        expected = ("TheoremViolation", "subfit frame where closed joins differ from the dual "
                                         "Booleanization: closed joins ['O', '{1,3}', '{2,3}', "
                                         "'L'] vs fixed points ['O', '{0,3}', '{2,3}', 'L']")
        monkeypatch.setattr(sublocales, "sublocale_lattices", lambda frames, budget: [broken])
        assert outcome(lambda: PPT(alone(b2))) == expected
        assert outcome(lambda: settled(per_item_separation(b2, broken)["ppt"])) == expected
