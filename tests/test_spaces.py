from itertools import product

import numpy as np
import pytest

from localekit import spaces
from localekit.common import BudgetExceeded, CheckReport, TheoremViolation
from localekit.separation import is_symmetric
from localekit.spaces import (FiniteSpace, InvalidTopology, UnionsOfClosed,
                              bitstring, discrete, enumerate_topologies,
                              indiscrete, is_symmetric_space, is_t0, omega,
                              sierpinski, space_from_preorder,
                              space_proposition_check, td_remark_check, uc_lattice)

from oracles import brute_topologies, find_order_isomorphism, generic_set_frame, saturated_sets


class TestFiniteSpace:
    def test_rejects_missing_full_set(self):
        with pytest.raises(InvalidTopology):
            FiniteSpace(2, (0, 1))

    def test_rejects_union_gap(self):
        with pytest.raises(InvalidTopology):
            FiniteSpace(2, (0, 1, 2))  # {p0} ∪ {p1} missing

    def test_closed_sets_are_complements(self):
        s = sierpinski()
        assert s.closed_sets == tuple(sorted(s.full ^ o for o in s.opens))

    def test_closure_operator_laws(self):
        for space in (sierpinski(), discrete(2), indiscrete(3)):
            masks = range(1 << space.points)
            for m in masks:
                cl = space.closure_of(m)
                assert m & ~cl == 0                       # extensive
                assert space.closure_of(cl) == cl          # idempotent
                for other in masks:
                    if m & ~other == 0:
                        assert cl & ~space.closure_of(other) == 0  # monotone


class TestSpecialization:
    def test_sierpinski_is_strict(self):
        rel = sierpinski().specialization
        assert rel.tolist() == [[True, True], [False, True]]

    def test_discrete_is_identity(self):
        assert np.array_equal(discrete(2).specialization, np.eye(2, dtype=bool))

    def test_indiscrete_is_total(self):
        assert indiscrete(2).specialization.all()

    def test_computed_once_per_space(self):
        space = sierpinski()
        assert is_t0(space) and not is_symmetric_space(space)
        assert space.specialization is space.specialization
        assert not space.specialization.flags.writeable

    def test_symmetry_verdicts(self):
        assert not is_symmetric_space(sierpinski()).ok
        assert is_symmetric_space(sierpinski()).witness == (0, 1)
        assert is_symmetric_space(discrete(2)).ok
        assert is_symmetric_space(indiscrete(2)).ok

    def test_symmetric_iff_equivalence_relation(self):
        for space in enumerate_topologies(3):
            rel = space.specialization
            assert is_symmetric_space(space).ok == np.array_equal(rel, rel.T)

    def test_preorder_roundtrip(self):
        # every reflexive transitive relation on 3 points, rows[x] = {y : x <= y}
        preorders = []
        for rows in product(range(8), repeat=3):
            reflexive = all(rows[x] >> x & 1 for x in range(3))
            transitive = all(rows[y] & ~rows[x] == 0
                             for x in range(3) for y in range(3) if rows[x] >> y & 1)
            if reflexive and transitive:
                preorders.append(rows)
        assert len(preorders) == 29
        for rows in preorders:
            rel = space_from_preorder(rows).specialization
            for x in range(3):
                for y in range(3):
                    assert bool(rel[x, y]) == bool(rows[x] >> y & 1)


class TestUnionsOfClosed:
    def test_sierpinski_is_a_chain(self):
        uc = uc_lattice(sierpinski())
        assert [bitstring(e, 2) for e in uc.elements] == ["00", "10", "11"]
        assert not uc.is_boolean().ok

    def test_discrete_is_full_powerset(self):
        uc = uc_lattice(discrete(2))
        assert len(uc) == 4
        assert uc.is_boolean().ok

    def test_indiscrete_is_two_element(self):
        uc = uc_lattice(indiscrete(2))
        assert len(uc) == 2

    def test_both_distributive_laws(self):
        for space in (sierpinski(), discrete(2), indiscrete(3)):
            uc = uc_lattice(space)
            idx = uc.index
            for a in uc.elements:
                for b in uc.elements:
                    for c in uc.elements:
                        assert a & (b | c) == (a & b) | (a & c)
                        assert a | (b & c) == (a | b) & (a | c)
                        assert a | b in idx and a & b in idx

    def test_anti_isomorphism_with_saturated_sets(self):
        for n in range(5):
            for space in enumerate_topologies(n):
                assert UnionsOfClosed(space).saturated_anti_isomorphism_ok()
                assert saturated_sets(space) == set(space.opens)

    # the discrete order makes ↓1 = {1}, which is not closed; the full one
    # puts 1 below 0, so the closed set {0} is no down-set
    @pytest.mark.parametrize("corrupted", [np.eye(2, dtype=bool), np.ones((2, 2), dtype=bool)],
                             ids=["discrete", "full"])
    def test_corrupted_specialization_is_caught(self, corrupted):
        space = sierpinski()
        space.__dict__["specialization"] = corrupted
        with pytest.raises(AssertionError,
                           match="^complementation fails to reach the saturated sets$"):
            uc_lattice(space)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            uc_lattice(discrete(3), budget=2)


def ring_frames(space):
    """(masks, frame) for the open-set frame and the unions-of-closed frame."""
    uc = UnionsOfClosed(space)
    return [(sorted(space.opens, key=lambda m: (m.bit_count(), m)), omega(space)),
            (uc.elements, uc.as_frame)]


class TestRingOfSetsFrames:
    @pytest.mark.parametrize("spaces", [[s for n in range(5) for s in enumerate_topologies(n)],
                                        [discrete(6), discrete(7)]], ids=["n<=4", "discrete"])
    def test_equal_to_the_generic_frame(self, spaces):
        for space in spaces:
            for masks, frame in ring_frames(space):
                generic = generic_set_frame(masks, [bitstring(m, space.points) for m in masks])
                assert frame.labels == generic.labels
                for name in ("leq", "meet", "join", "imp"):
                    assert np.array_equal(getattr(frame, name), getattr(generic, name)), name

    def test_meet_and_join_are_intersection_and_union(self):
        for space in enumerate_topologies(3):
            for masks, frame in ring_frames(space):
                for i, a in enumerate(masks):
                    for j, b in enumerate(masks):
                        assert masks[frame.meet[i, j]] == a & b
                        assert masks[frame.join[i, j]] == a | b


class TestSpaceProposition:
    def test_sierpinski_all_false(self):
        report = space_proposition_check(sierpinski())
        assert not report.holds
        by_name = {c.name: c for c in report.conditions}
        assert by_name["proper-opens-covered"].witness == "01"
        assert all(not c.holds for c in report.conditions)

    def test_discrete_all_true(self):
        for n in range(3):
            assert space_proposition_check(discrete(n)).holds

    def test_indiscrete_is_symmetric(self):
        assert space_proposition_check(indiscrete(2)).holds

    def test_empty_space_vacuous(self):
        assert space_proposition_check(FiniteSpace(0, (0,))).holds

    def test_agreement_up_to_three_points(self):
        for n in range(4):
            for space in enumerate_topologies(n):
                space_proposition_check(space)  # EquivalenceViolation would raise

    def test_agreement_on_sampled_five_point_spaces(self):
        from random import Random
        rng = Random(17)
        n = 5
        for _ in range(60):
            rows = [1 << i for i in range(n)]
            for i in range(n):
                for j in range(n):
                    if i != j and rng.random() < 0.25:
                        rows[i] |= 1 << j
            while True:  # transitive closure
                grown = list(rows)
                for i in range(n):
                    for j in range(n):
                        if rows[i] >> j & 1:
                            grown[i] |= rows[j]
                if grown == rows:
                    break
                rows = grown
            space_proposition_check(space_from_preorder(tuple(rows)))


class TestOmega:
    def test_sierpinski_gives_three_chain(self, c3):
        assert find_order_isomorphism(omega(sierpinski()), c3) is not None

    def test_sierpinski_booleanization_collapses(self):
        from localekit.lattice import booleanization
        frame = omega(sierpinski())
        view = booleanization(frame)
        assert [frame.labels[a] for a in view.carrier] == ["00", "11"]

    def test_discrete_two_gives_square(self, b2):
        assert find_order_isomorphism(omega(discrete(2)), b2) is not None

    def test_indiscrete_three_gives_two_chain(self, c2):
        assert find_order_isomorphism(omega(indiscrete(3)), c2) is not None


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 4), (3, 29)])
    def test_counts(self, n, count):
        assert sum(1 for _ in enumerate_topologies(n)) == count

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_matches_family_scan_oracle(self, n):
        ours = sorted(space.opens for space in enumerate_topologies(n))
        assert ours == brute_topologies(n)

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (3, 19)])
    def test_t0_counts(self, n, count):
        spaces = list(enumerate_topologies(n, t0_only=True))
        assert len(spaces) == count
        assert all(is_t0(space) for space in spaces)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            list(enumerate_topologies(5))

    def test_budget_override(self):
        stream = enumerate_topologies(5, budget=5)
        assert next(stream).points == 5


class TestTdRemark:
    def test_sierpinski_agrees_on_false(self):
        assert td_remark_check(sierpinski()) == CheckReport.passed("td-remark")
        assert not is_symmetric_space(sierpinski()).ok
        assert not is_symmetric(omega(sierpinski())).holds

    def test_discrete_agrees_on_true(self):
        assert td_remark_check(discrete(2)) == CheckReport.passed("td-remark")
        assert is_symmetric_space(discrete(2)).ok and is_symmetric(omega(discrete(2))).holds

    def test_skips_non_t0(self):
        assert td_remark_check(indiscrete(2)) == CheckReport.passed("td-remark", "skipped-not-t0")

    def test_disagreement_raises(self, monkeypatch):
        monkeypatch.setattr(spaces, "is_symmetric_space", lambda space: spaces.SpaceVerdict(True))
        with pytest.raises(TheoremViolation,
                           match=r"^space symmetry True but locale symmetry False on "):
            td_remark_check(sierpinski())

    def test_all_t0_spaces_up_to_three_points(self):
        for n in range(4):
            for space in enumerate_topologies(n, t0_only=True):
                assert td_remark_check(space) == CheckReport.passed("td-remark")
