import itertools
from itertools import product

import numpy as np
import pytest

from localekit import checks, common, spaces
from localekit.common import BudgetExceeded, CheckReport, TheoremViolation, settled, unpack_rows
from localekit.lattice import set_frames
from localekit.spaces import (FiniteSpace, InvalidTopology, bitstring, enumerate_topologies,
                              space_from_preorder, space_structures)

from conftest import discrete, indiscrete, sierpinski
from oracles import (_raised, brute_topologies, closed_sets, closure_of, find_order_isomorphism,
                     first_uncomplemented, generic_set_frame, is_symmetric_space, is_t0,
                     per_space_proposition, per_space_td_remark, saturated_sets)


def alone(space):
    """space as a chunk of one: the SpaceStructure `spaces check` reads."""
    return next(space_structures([space]))


def ring_frames(space):
    """(masks, frame) for the open-set frame Ω(X) and the unions-of-closed
    frame, each a ring of sets in (size, mask) order, by one `set_frames` call."""
    rings = [sorted(space.opens, key=lambda m: (m.bit_count(), m)), closed_sets(space)]
    frames = set_frames([unpack_rows(masks, space.points) for masks in rings],
                        [[bitstring(m, space.points) for m in masks] for masks in rings])
    return list(zip(rings, map(settled, frames)))


def omega(space):
    return ring_frames(space)[0][1]


def uc_lattice(space):
    return ring_frames(space)[1][1]


def frame_symmetry(frame):
    """The symmetry report of frame as a batch of one."""
    return next(checks.frame_structures([frame])).separation("symmetric")


class TestFiniteSpace:
    def test_rejects_missing_full_set(self):
        with pytest.raises(InvalidTopology):
            FiniteSpace(2, (0, 1))

    def test_rejects_union_gap(self):
        with pytest.raises(InvalidTopology):
            FiniteSpace(2, (0, 1, 2))  # {p0} ∪ {p1} missing

    def test_closed_sets_are_complements(self):
        s = sierpinski()
        assert set(uc_lattice(s).labels) == {bitstring(s.full ^ o, 2) for o in s.opens}

    def test_closure_operator_laws(self):
        for space in (sierpinski(), discrete(2), indiscrete(3)):
            masks = range(1 << space.points)
            for m in masks:
                cl = closure_of(space, m)
                assert m & ~cl == 0                       # extensive
                assert closure_of(space, cl) == cl         # idempotent
                for other in masks:
                    if m & ~other == 0:
                        assert cl & ~closure_of(space, other) == 0  # monotone


class TestSpecialization:
    def test_sierpinski_is_strict(self):
        rel = sierpinski().specialization
        assert rel.tolist() == [[True, True], [False, True]]

    def test_discrete_is_identity(self):
        assert np.array_equal(discrete(2).specialization, np.eye(2, dtype=bool))

    def test_indiscrete_is_total(self):
        assert indiscrete(2).specialization.all()

    @pytest.mark.parametrize("relation, law", [
        ([[0, 0], [0, 1]], "reflexivity"),
        ([[1, 1, 0], [0, 1, 1], [0, 0, 1]], "transitivity")], ids=["reflexivity", "transitivity"])
    def test_broken_preorder_is_caught(self, monkeypatch, relation, law):
        space = discrete(len(relation))
        monkeypatch.setattr(spaces, "containment_order", lambda rows: np.array(relation, dtype=bool))
        with pytest.raises(AssertionError, match=f"^specialization lost {law}$"):
            space.specialization

    def test_computed_once_per_space(self):
        space = sierpinski()
        assert is_t0(space) and not is_symmetric_space(space)[0]
        assert space.specialization is space.specialization
        assert not space.specialization.flags.writeable

    def test_symmetry_verdicts(self):
        assert is_symmetric_space(sierpinski()) == (False, (0, 1))
        assert is_symmetric_space(discrete(2)) == (True, None)
        assert is_symmetric_space(indiscrete(2)) == (True, None)

    def test_symmetric_iff_equivalence_relation(self):
        for space in enumerate_topologies(3):
            rel = space.specialization
            assert is_symmetric_space(space)[0] == np.array_equal(rel, rel.T)

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
        assert uc_lattice(sierpinski()).labels == ("00", "10", "11")
        assert first_uncomplemented(sierpinski()) == 0b01  # "10", whose complement is not closed

    def test_discrete_is_full_powerset(self):
        assert uc_lattice(discrete(2)).n == 4
        assert first_uncomplemented(discrete(2)) is None

    def test_indiscrete_is_two_element(self):
        assert uc_lattice(indiscrete(2)).n == 2

    def test_both_distributive_laws(self):
        for space in (sierpinski(), discrete(2), indiscrete(3)):
            closed = closed_sets(space)
            for a in closed:
                for b in closed:
                    for c in closed:
                        assert a & (b | c) == (a & b) | (a & c)
                        assert a | (b & c) == (a | b) & (a | c)
                        assert a | b in closed and a & b in closed

    def test_anti_isomorphism_with_saturated_sets(self):
        # the complements of the closed sets are the saturated sets, the up-sets
        # of specialization: each closed set is a down-set, and each ↓y is closed
        for n in range(5):
            for space in enumerate_topologies(n):
                closed, spec = set(closed_sets(space)), space.specialization
                downs = {sum(1 << x for x in range(n) if spec[x, y]) for y in range(n)}
                assert downs <= closed
                assert all(not spec[x, y] or c >> x & 1
                           for c in closed for y in range(n) if c >> y & 1 for x in range(n))
                assert saturated_sets(space) == set(space.opens)

    # the discrete order makes ↓1 = {1}, which is not closed; the full one
    # puts 1 below 0, so the closed set {0} is no down-set: one disjunct of
    # `_unsaturated` each
    @pytest.mark.parametrize("corrupted", [np.eye(2, dtype=bool), np.ones((2, 2), dtype=bool)],
                             ids=["discrete", "full"])
    def test_unsaturated_space_in_a_chunk_is_charged_alone(self, monkeypatch, corrupted):
        # the stacked route's check, handed the corrupted order for the first of
        # the two Sierpiński spaces on 2 points (one stack), fails on it alone
        real = spaces._unsaturated
        monkeypatch.setattr(spaces, "_unsaturated", lambda closed, specs: real(closed, np.concatenate(
            [corrupted[None], specs[1:]]) if specs.shape[:2] == (2, 2) else specs))
        items = list(space_structures(enumerate_topologies(2)))
        assert len({id(item._chunk) for item in items}) == 1
        for item in items:
            got, want = _raised(item.proposition), _raised(lambda: per_space_proposition(item.space))
            if item is items[1]:
                assert item.space.opens == (0b00, 0b10, 0b11)
                want = AssertionError("complementation fails to reach the saturated sets")
            assert got == want or (type(got), str(got)) == (type(want), str(want))

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            next(space_structures([discrete(3)], budget=2)).proposition()


def sampled_five_point_spaces():
    """60 seeded 5-point spaces: random relations, each closed to a preorder."""
    from random import Random
    rng = Random(17)
    n, spaces = 5, []
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
        spaces.append(space_from_preorder(tuple(rows)))
    return spaces


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
        report = alone(sierpinski()).proposition()
        assert not report.holds
        by_name = {c.name: c for c in report.conditions}
        assert by_name["proper-opens-covered"].witness == "01"
        assert all(not c.holds for c in report.conditions)

    def test_discrete_all_true(self):
        for n in range(3):
            assert alone(discrete(n)).proposition().holds

    def test_indiscrete_is_symmetric(self):
        assert alone(indiscrete(2)).proposition().holds

    def test_empty_space_vacuous(self):
        assert alone(FiniteSpace(0, (0,))).proposition().holds

    def test_agreement_up_to_three_points(self):
        for n in range(4):
            for space in enumerate_topologies(n):
                alone(space).proposition()  # EquivalenceViolation would raise

    def test_agreement_on_sampled_five_point_spaces(self):
        for space in sampled_five_point_spaces():
            alone(space).proposition()


class TestStackedStructures:
    """space_structures against the per-space oracles, outcome by outcome."""

    @pytest.mark.parametrize("cells", [None, 4800], ids=["default-chunks", "small-chunks"])
    @pytest.mark.parametrize("spaces", [
        [s for n in range(5) for s in enumerate_topologies(n)], sampled_five_point_spaces()],
        ids=["n<=4", "sampled-5"])
    def test_matches_the_per_space_oracle(self, monkeypatch, spaces, cells):
        if cells:
            monkeypatch.setattr(common, "STACK_CELLS", cells)
        items = list(space_structures(spaces))
        assert [item.space for item in items] == spaces
        for item in items:
            for got, want in ((item.proposition, lambda: per_space_proposition(item.space)),
                              (item.td_remark, lambda: per_space_td_remark(item.space))):
                got, want = _raised(got), _raised(want)
                assert got == want or (type(got), str(got)) == (type(want), str(want))

    def test_chunks_hold_at_most_stack_cells(self):
        spaces = list(enumerate_topologies(4))
        chunks = [chunk for chunk, _ in itertools.groupby(
            space_structures(spaces), key=lambda item: item._chunk)]
        sizes = [[len(space.opens) ** 3 for space in chunk.spaces] for chunk in chunks]
        assert [space for chunk in chunks for space in chunk.spaces] == spaces
        bound = common.STACK_CELLS // 8  # an intp index of a cell each in STACK_CELLS bytes
        assert 1 < len(chunks) < 40
        assert all(sum(size) <= bound for size in sizes)
        assert all(sum(size) + after[0] > bound for size, after in zip(sizes, sizes[1:]))
        big = [discrete(7), sierpinski(), discrete(7)]  # 128^3 cells each: one a chunk
        assert [len(chunk.spaces) for chunk, _ in itertools.groupby(
            space_structures(big), key=lambda item: item._chunk)] == [1, 1, 1]

    def test_one_specialization_per_stack(self, monkeypatch):
        """Both checks read one specialization per (points, opens) stack: the
        symmetry and the saturated-set cross-check share it."""
        order, stacks = spaces.containment_order, []
        monkeypatch.setattr(spaces, "containment_order",
                            lambda rows: stacks.append(len(rows)) or order(rows))
        items = list(space_structures(enumerate_topologies(3)))
        for item in items:
            item.proposition(), item.td_remark()
        chunks = {id(item._chunk): item._chunk for item in items}.values()
        assert stacks == [len(ks) for chunk in chunks for ks, *_ in chunk.stacks]

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
        assert alone(sierpinski()).td_remark() == CheckReport.passed("td-remark")
        assert not is_symmetric_space(sierpinski())[0]
        assert not frame_symmetry(omega(sierpinski())).holds

    def test_discrete_agrees_on_true(self):
        assert alone(discrete(2)).td_remark() == CheckReport.passed("td-remark")
        assert is_symmetric_space(discrete(2))[0] and frame_symmetry(omega(discrete(2))).holds

    def test_skips_non_t0(self):
        assert alone(indiscrete(2)).td_remark() == CheckReport.passed("td-remark",
                                                                      "skipped-not-t0")

    def test_disagreement_raises(self, monkeypatch):
        # the space read as discrete, so T_0 and symmetric, while Ω is the 3-chain
        monkeypatch.setattr(spaces, "containment_order",
                            lambda rows: np.broadcast_to(np.eye(rows.shape[-2], dtype=bool),
                                                         rows.shape[:-1] + rows.shape[-2:-1]))
        with pytest.raises(TheoremViolation,
                           match=r"^space symmetry True but locale symmetry False on "):
            alone(sierpinski()).td_remark()

    def test_all_t0_spaces_up_to_three_points(self):
        for n in range(4):
            for space in enumerate_topologies(n, t0_only=True):
                assert alone(space).td_remark() == CheckReport.passed("td-remark")
