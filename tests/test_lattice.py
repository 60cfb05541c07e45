import re
from collections import defaultdict
from functools import reduce
from random import Random

import numpy as np
import pytest

from localekit import corpus, io, lattice
from localekit.common import BudgetExceeded, pack_rows, settled
from localekit.lattice import (BooleanizationView, ClosureViolation, FiniteFrame, InvalidPoset,
                               NotALattice, NotDistributive, RegularPairFrame, containment_order,
                               cover_pairs, distributivity_witness, element_dtype, gather,
                               heyting_tables, lattice_tables, order_closure, product_frame,
                               set_frames, stacked, table_frames, validate_frame,
                               validate_frames)

from oracles import (broken_copies, brute_heyting, brute_heyting_break, brute_is_distributive,
                     brute_is_lattice, brute_join, brute_meet, closed_form, diamond_leq,
                     find_order_isomorphism, generic_distributivity_witness,
                     generic_lattice_tables, generic_set_frame, hexagon_leq, pentagon_leq)


def as_rows(frame):
    return [[bool(frame.leq[i, j]) for j in range(frame.n)] for i in range(frame.n)]


# Relations that are no bounded orders, and the InvalidPoset message of each.
BAD_ORDERS = {
    "not reflexive": ([[False, True], [False, True]], "^not reflexive at 0$"),
    "cycle": (order_closure(3, [(0, 1), (1, 2), (2, 0)]), r"^antisymmetry fails on \(0, 1\)$"),
    "not transitive": ([[True, True, False], [False, True, True], [False, False, True]],
                       r"^transitivity fails on \(0, 2\)$"),
    # every element below every other: 64 candidates for each meet, which the
    # lookup must read as one of them, not as a rounded float of all 64 bits
    "all equivalent": (np.ones((64, 64), dtype=bool), r"^antisymmetry fails on \(0, 1\)$"),
    "two minimal elements": ([[True, False], [False, True]],
                             r"^need exactly one bottom, found \[\]$"),
    "two maximal elements": (order_closure(3, [(0, 1), (0, 2)]),
                             r"^need exactly one top, found \[\]$"),
    "empty": (np.zeros((0, 0), dtype=bool), "^empty carrier has no bottom or top$"),
    "non-square": (np.ones((2, 3), dtype=bool), "^leq must be a square boolean matrix$"),
    "scalar": (True, "^leq must be a square boolean matrix$"),
}


class TestOrderChecks:
    @pytest.mark.parametrize("case", BAD_ORDERS)
    def test_validate_frame_names_the_broken_order_law(self, case):
        leq, message = BAD_ORDERS[case]
        with pytest.raises(InvalidPoset, match=message):
            validate_frame(leq)

    def test_closure_rejects_a_pair_out_of_range(self):
        with pytest.raises(InvalidPoset, match=r"^pair \(0, 3\) out of range for carrier 3$"):
            order_closure(3, [(0, 1), (0, 3)])

    def test_covers_and_closure_agree(self):
        covers = order_closure(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        explicit = order_closure(4, [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)])
        assert np.array_equal(covers, explicit)
        assert [tuple(side.tolist()) for side in cover_pairs(covers)] == [(0, 0, 1, 2),
                                                                           (1, 2, 3, 3)]

    @pytest.mark.parametrize("build", ["load_lattice_text", "named_frames"])
    def test_each_order_is_checked_once(self, monkeypatch, build):
        calls = {"validate_frames": 0, "_order_checks": 0}

        def counted(name):
            original = getattr(lattice, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(lattice, name, wrapper)
        for name in calls:
            counted(name)
        if build == "load_lattice_text":
            io.load_lattice_text("lattice 3\n0 < 1\n1 < 2\n")
            assert calls["validate_frames"] == 1
        else:
            corpus.named_frames()
            assert calls["validate_frames"] == 18
        assert calls["_order_checks"] == calls["validate_frames"]


class TestValidateFrame:
    def test_chain_heyting_matches_brute_force(self, c3):
        rows = as_rows(c3)
        for a in range(3):
            for b in range(3):
                assert c3.imp[a, b] == brute_heyting(rows, a, b)
        assert c3.imp[1, 0] == 0  # m -> 0 in the 3-chain

    def test_boolean_square_tables(self, b2):
        # atoms are 1 and 2, bottom 0, top 3
        assert int(b2.meet[1, 2]) == 0
        assert int(b2.join[1, 2]) == 3

    def test_diamond_is_not_distributive(self):
        with pytest.raises(NotDistributive) as err:
            validate_frame(diamond_leq())
        a, b, c = (int(v) for v in err.value.triple)
        rows = [[bool(v) for v in row] for row in diamond_leq()]
        lhs = brute_meet(rows, a, brute_join(rows, b, c))
        rhs = brute_join(rows, brute_meet(rows, a, b), brute_meet(rows, a, c))
        assert lhs != rhs

    def test_pentagon_is_not_distributive(self):
        with pytest.raises(NotDistributive):
            validate_frame(pentagon_leq())

    def test_hexagon_is_not_a_lattice(self):
        with pytest.raises(NotALattice) as err:
            validate_frame(hexagon_leq())
        # pairs are scanned (i, j >= i), infimum first: the atoms lack a join
        assert err.value.pair == ("1", "2")
        assert err.value.kind == "supremum"

    def test_canonicalization_moves_bounds(self):
        # 3-chain entered upside down: 2 < 1 < 0
        frame = validate_frame(order_closure(3, [(2, 1), (1, 0)]))
        assert frame.labels == ("2", "1", "0")
        assert frame.bottom == 0 and frame.top == 2

    def test_budget(self, c3):
        with pytest.raises(BudgetExceeded):
            validate_frame(c3.leq, max_size=2)

    def test_rejects_a_wrong_label_count(self, c3):
        with pytest.raises(ValueError, match="^labels length must match carrier size$"):
            validate_frame(c3.leq, ["a", "b"])

    def test_tables_match_brute_force_on_corpus(self, small_corpus, tiny_corpus):
        # the named frames add carriers up to 12 elements (products, pairs)
        for frame in small_corpus + list(tiny_corpus.values()):
            rows = as_rows(frame)
            for a in range(frame.n):
                for b in range(frame.n):
                    assert int(frame.meet[a, b]) == brute_meet(rows, a, b)
                    assert int(frame.join[a, b]) == brute_join(rows, a, b)
                    assert int(frame.imp[a, b]) == brute_heyting(rows, a, b)

    def test_up_masks_exact_on_64_elements(self, chain65):
        for frame in (corpus.boolean_cube(6), chain65):
            expected = tuple(sum(1 << k for k in range(frame.n) if frame.leq[i, k])
                             for i in range(frame.n))
            assert frame.up_masks == expected
            assert frame.up_masks[frame.bottom] == 2**frame.n - 1

    def test_corpus_is_distributive_by_oracle(self, small_corpus):
        for frame in small_corpus[:50]:
            assert brute_is_distributive(as_rows(frame))


def shuffled(frame, rng):
    """The frame's order on a random relabeling, with labels that follow it."""
    perm = list(range(frame.n))
    rng.shuffle(perm)
    return frame.leq[np.ix_(perm, perm)], [f"x{frame.labels[i]}" for i in perm]


def raised(action):
    """(exception class, message, witness) of what action raises."""
    with pytest.raises(Exception) as err:
        action()
    exc = err.value
    return type(exc), str(exc), getattr(exc, "pair", None), getattr(exc, "triple", None)


def bounded_posets(n):
    """Every bounded naturally labeled poset on n elements, lattice or not, as (K, n, n)."""
    return np.concatenate(list(corpus._chunks(list(corpus._bounded_rows(n)), n)))


def wide_orders(n):
    """Three bounded orders on n elements, each relabeled at random: a chain, a
    lattice (a 7 x 9 grid, or the 6-cube under a chain of the rest) and a
    random bounded poset, which is almost never a lattice."""
    rng = np.random.default_rng(n)
    idx = np.arange(n)
    if n == 63:
        grid = (idx[:, None] // 9 <= idx // 9) & (idx[:, None] % 9 <= idx % 9)
    else:
        cube = (idx[:, None] & ~idx) == 0
        grid = np.where((idx[:, None] < 64) & (idx < 64), cube, idx[:, None] <= idx)
    random = np.triu(rng.random((n, n)) < 3 / n)
    random[0] = random[:, -1] = True
    orders = np.stack([idx[:, None] <= idx, grid,
                       order_closure(n, zip(*np.nonzero(random)))])
    perms = [rng.permutation(n) for _ in orders]
    return np.stack([order[np.ix_(p, p)] for order, p in zip(orders, perms)])


class TestLatticeTables:
    def same_as_search(self, orders):
        got = lattice_tables(orders)
        want = [np.concatenate(parts) for parts in
                zip(*(generic_lattice_tables(order[None]) for order in orders))]
        for table, expected in zip(got, want):
            assert table.dtype == expected.dtype
            assert np.array_equal(table, expected)
        return got

    @pytest.mark.parametrize("n", range(1, 8))
    def test_lookup_matches_search_on_every_bounded_poset(self, n):
        orders = bounded_posets(n)
        meet, join, missing = self.same_as_search(orders)
        if n == 7:
            assert len(orders) == 357 and 0 < (missing >= 0).sum() < 357  # both kinds
        # a frame misses a pair exactly where one of its tables holds -1
        lacking = (missing >= 0) == ((meet < 0) | (join < 0)).any(axis=(1, 2))
        assert lacking.all()

    @pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 130])
    def test_lookup_matches_search_across_word_boundaries(self, n):
        _, _, missing = self.same_as_search(wide_orders(n))
        assert (missing[:2] < 0).all() and missing[2] >= 0

    def test_a_broken_order_gets_no_unproved_entry(self):
        # not transitive: 2 <= 0 <= 3, 4 without 2 <= 3, 4. ↓3 ∩ ↓4 = {0, 1}, and 0
        # is the one element of that rank in it, but ↓0 = {0, 2}: no meet
        leq = order_closure(5, [(2, 0), (0, 3), (1, 3), (0, 4), (1, 4)])
        leq[2, 3:] = False
        meet, join, missing = lattice_tables(leq[None])
        assert meet[0, 3, 4] == -1 and missing[0] >= 0
        for table, rows in ((meet[0], leq.T), (join[0], leq)):
            for i, j in zip(*np.nonzero(table >= 0)):
                assert np.array_equal(rows[table[i, j]], rows[i] & rows[j])
        meet, join, missing = lattice_tables(np.ones((1, 64, 64), dtype=bool))
        assert (meet == 0).all() and (join == 0).all() and missing[0] == -1  # the lowest


class TestFlatGather:
    """`gather` reads one flat take, and the frame core's laws through it
    match their broadcast fancy-index oracles."""

    @pytest.mark.parametrize("n, dtype", [(1, np.int16), (127, np.int16), (128, np.int16),
                                          ((1 << 15) - 1, np.int16), (1 << 15, np.intp),
                                          (1 << 31, np.intp)])
    def test_element_dtype_at_the_int16_boundary(self, n, dtype):
        # the carrier size alone: nothing of that size is allocated
        assert element_dtype(n) == dtype
        assert np.iinfo(dtype).min <= -1 and n - 1 <= np.iinfo(dtype).max

    def test_gather_is_the_fancy_index(self):
        # int16 coordinates of two 130-element frames reach flat indices past 2^15
        rng = np.random.default_rng(0)
        for count, n in [(1, 1), (1, 4), (5, 7), (2, 130)]:
            values = element_dtype(n)
            table = rng.integers(0, n, (count, n, n)).astype(values)
            rows, cols = (rng.integers(0, n, (count, 3, n, n)) for _ in range(2))
            f = np.arange(count)[:, None, None, None]
            for at in [(rows, cols), (rows.astype(values), cols[:, :1]),
                       (np.arange(n)[:, None], cols)]:
                assert np.array_equal(gather(table, *at), table[(f,) + at])
            assert np.array_equal(gather(table[:, 0], cols), table[:, 0][f, cols])
            above = table > n // 2
            assert np.array_equal(gather(above, rows, cols), above[f, rows, cols])
            assert np.array_equal(gather(above, rows), above[f, rows])       # whole rows

    @pytest.mark.parametrize("n", range(1, 8))
    def test_distributivity_matches_broadcast_on_every_bounded_lattice(self, n, bounded_lattices):
        failing = 0
        for _, meet, join, _ in bounded_lattices[n]:     # natural labels, then relabeled
            for down, up in ((meet, join), (join, meet)):
                got = distributivity_witness(down, up)
                assert np.array_equal(got, generic_distributivity_witness(down, up))
                failing += (got >= 0).sum()
        assert (failing > 0) == (n >= 5)                 # M3 and N5 have 5 elements

    @pytest.mark.parametrize("kind, n", [("chain", 127), ("chain", 128), ("chain", 129),
                                         ("cube", 128), ("chain", 256), ("cube", 256)])
    def test_distributivity_matches_broadcast_where_the_dtype_matters(self, kind, n):
        if n < 256:   # four frames of up to 129 elements take the flat index past 2^15
            _, meet, join, _ = broken_copies(closed_form(kind, n))
        else:         # one frame of 256 elements does alone
            _, meet, join, _ = (table[None].copy() for table in closed_form(kind, n))
            meet[0, -1, -2] = 0
        got = distributivity_witness(meet, join)
        assert np.array_equal(got, generic_distributivity_witness(meet, join))
        broken = 0 if n == 256 else 1
        assert (got[:broken] < 0).all() and got[broken] >= n ** 3 - n * n  # a triple (top, b, c)


class TestValidateFrames:
    def test_stacks_match_single_frames(self, small_corpus, tiny_corpus):
        rng = Random(0)
        by_size = defaultdict(list)
        for frame in small_corpus + list(tiny_corpus.values()):
            by_size[frame.n].append(shuffled(frame, rng))
        for n, items in by_size.items():
            leqs = np.stack([leq for leq, _ in items])
            stacked = validate_frames(leqs, [labels for _, labels in items])
            assert len(stacked) == len(items)
            for got, (leq, labels) in zip(stacked, items):
                want = validate_frame(leq, labels)
                assert got.labels == want.labels
                assert (got.bottom, got.top) == (0, n - 1)
                for name in ("leq", "meet", "join", "imp"):
                    table, expected = getattr(got, name), getattr(want, name)
                    assert table.dtype == expected.dtype
                    assert np.array_equal(table, expected)
                    assert not table.flags.writeable
                assert got.up_masks == want.up_masks

    def test_stacked_reads_the_canonical_orders_of_a_size_as_views(self):
        items = [frame for _, frame in corpus.iter_distributive_frames(6) if frame.n == 6]
        tables = items[0].stack[0]
        assert all(item.stack[0] is tables for item in items)  # each item a row of them
        assert all(np.shares_memory(item.meet, tables["meet"]) for item in items)
        frames = table_frames(tables, [items[0].labels] * len(tables["leq"]))
        assert len(frames) == 84
        names = ("leq", "meet", "join", "imp")
        for name, table in zip(names, stacked(frames)):
            assert np.shares_memory(table, getattr(frames[0], name))
            assert np.array_equal(table, np.stack([getattr(f, name) for f in frames]))
        for others in (frames[::-1], frames[:1] + frames[2:], frames[:1] * 2):
            (copied,) = stacked(others, ("meet",))
            assert not np.shares_memory(copied, frames[0].meet)
            assert np.array_equal(copied, np.stack([f.meet for f in others]))

    def test_default_labels_are_input_indices(self):
        upside_down = order_closure(3, [(2, 1), (1, 0)])
        frames = validate_frames(np.stack([upside_down, upside_down[::-1, ::-1]]))
        assert [frame.labels for frame in frames] == [("2", "1", "0"), ("0", "1", "2")]

    @pytest.mark.parametrize("bad", ["pentagon", "diamond", "hexagon", "cycle", "no-top"])
    @pytest.mark.parametrize("position", [1, 3])
    def test_failing_frame_raises_its_own_witness(self, bad, position):
        rng = Random(position)
        if bad in ("pentagon", "diamond", "hexagon"):
            leq = {"pentagon": pentagon_leq, "diamond": diamond_leq, "hexagon": hexagon_leq}[bad]()
            labels = [f"e{i}" for i in range(len(leq))]
        else:
            leq = np.eye(5, dtype=bool)
            if bad == "cycle":
                leq[0, :] = leq[:, 4] = leq[1, 2] = leq[2, 1] = True
            else:
                leq[0, :] = True
            labels = [f"e{i}" for i in range(5)]
        alone = raised(lambda: validate_frame(leq, labels))
        good = [shuffled(corpus.chain(len(leq)), rng) for _ in range(4)]
        items = good[:position] + [(leq, labels)] + good[position:]
        if bad != "hexagon":  # a later failing frame must not mask the first one
            items.append((pentagon_leq(), list("abcde")))
        leqs = np.stack([item for item, _ in items])
        batch = raised(lambda: validate_frames(leqs, [item for _, item in items]))
        assert batch == alone
        assert alone[0].__name__ == {"pentagon": "NotDistributive", "diamond": "NotDistributive",
                                     "hexagon": "NotALattice"}.get(bad, "InvalidPoset")

    def test_rejects_malformed_stacks(self):
        with pytest.raises(InvalidPoset, match="square"):
            validate_frames(np.ones((2, 3), dtype=bool))
        with pytest.raises(InvalidPoset, match="empty"):
            validate_frames(np.ones((1, 0, 0), dtype=bool))
        with pytest.raises(ValueError, match="labels"):
            validate_frames(np.ones((1, 1, 1), dtype=bool), [("a", "b")])


class TestContainmentOrder:
    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 130])
    def test_matches_brute_force_subsets(self, n):
        rng = np.random.default_rng(n)
        rows = rng.random((12, n)) < 0.5
        # unions and intersections of pairs make strict subsets at any width
        rows = np.concatenate([rows, rows[:6] | rows[6:], rows[:6] & rows[6:],
                               np.zeros((1, n), dtype=bool), np.ones((1, n), dtype=bool)])
        got = containment_order(rows)
        assert got.shape == (len(rows), len(rows)) and got.dtype == bool
        for i, a in enumerate(rows.tolist()):
            for j, b in enumerate(rows.tolist()):
                assert got[i, j] == all(y or not x for x, y in zip(a, b))


def sets(*members):
    """Boolean rows of the given 4-point sets, and their labels."""
    rows = np.array([[p in m for p in range(4)] for m in members])
    return rows, ["".join(str(p) for p in m) or "-" for m in members]


def set_frame(rows, labels):
    """The frame of one ring of sets by `set_frames`, raising what it raises."""
    return settled(set_frames([np.asarray(rows, dtype=bool)], [labels])[0])


class TestSetFrame:
    def test_tables_are_intersection_and_union(self):
        members = [(), (0,), (1,), (0, 1), (0, 1, 2)]
        rows, labels = sets(*members)
        frame = set_frame(rows, labels)
        assert frame.labels == tuple(labels)
        assert np.array_equal(frame.leq, containment_order(rows))
        for i, a in enumerate(members):
            for j, b in enumerate(members):
                assert set(members[frame.meet[i, j]]) == set(a) & set(b)
                assert set(members[frame.join[i, j]]) == set(a) | set(b)
                assert frame.imp[i, j] == validate_frame(frame.leq).imp[i, j]

    # rows missing one union or intersection, and the first pair (row-major,
    # union before intersection) whose result is not a row
    @pytest.mark.parametrize("members, message", [
        ([(), (0,), (1,), (0, 1, 2)], "0 ∪ 1 is not a member"),
        ([(), (0, 1), (1, 2), (0, 1, 2)], "01 ∩ 12 is not a member"),
        ([(), (0,), (1,), (2, 3), (0, 1, 2, 3)], "0 ∪ 1 is not a member"),
        ([(), (0, 1), (1, 2), (0, 1, 2, 3)], "01 ∪ 12 is not a member"),  # both miss
    ])
    def test_closure_violation_names_the_first_pair(self, members, message):
        with pytest.raises(ClosureViolation) as err:
            set_frame(*sets(*members))
        assert str(err.value) == message

    @pytest.mark.parametrize("members", [
        [(0,), (), (0, 1)],          # the first row is not the least set
        [(), (0, 1), (0,)],          # the last row is not the greatest set
        [(), (0,), (0,), (0, 1)],    # a set repeats
    ])
    def test_rows_must_run_from_least_to_greatest(self, members):
        with pytest.raises(InvalidPoset) as err:
            set_frame(*sets(*members))
        assert str(err.value) == "rows must be distinct sets from the least to the greatest"


    def test_mixed_batch_matches_the_generic_frame(self):
        """One set_frames call over rings of several sizes and widths, clean and
        broken, interleaved: each frame equals generic_set_frame's, its tables
        views of its stack's, and each broken ring raises what it raises alone."""
        rng, batch = Random(5), []
        for points in (0, 3, 4, 9):
            for _ in range(6):  # the opens of a random preorder: its up-sets
                up = [1 << i | rng.getrandbits(points) & rng.getrandbits(points)
                      & rng.getrandbits(points) for i in range(points)]  # sparse
                for _ in range(points):
                    up = [u | reduce(int.__or__, (up[j] for j in range(points) if u >> j & 1), 0)
                          for u in up]
                opens = sorted((m for m in range(1 << points)
                                if all(up[i] & ~m == 0 for i in range(points) if m >> i & 1)),
                               key=lambda m: (m.bit_count(), m))
                batch.append(([[m >> i & 1 for i in range(points)] for m in opens],
                              [format(m, "b") for m in opens]))
        batch[3:3] = [sets((), (0,), (1,), (0, 1, 2)), sets((), (0,), (0,), (0, 1))]
        batch.append(sets((), (0, 1), (1, 2), (0, 1, 2)))
        chain = [[p < k for p in range(70)] for k in range(0, 71, 10)]  # two words a row
        batch += [(chain, [f"s{k}" for k in range(8)]),  # and one with 0..9 ∪ 60..69 no member
                  (chain[:1] + [[p >= 60 for p in range(70)]] + chain[1:], [f"s{k}" for k in range(9)])]
        built = set_frames([np.array(rows, dtype=bool).reshape(len(rows), -1) for rows, _ in batch],
                           [labels for _, labels in batch])
        assert sum(isinstance(frame, Exception) for frame in built) == 4
        for (rows, labels), frame in zip(batch, built):
            rows = np.array(rows, dtype=bool).reshape(len(rows), -1)
            if isinstance(frame, Exception):
                with pytest.raises(type(frame), match=f"^{re.escape(str(frame))}$"):
                    set_frame(rows, labels)
                continue
            generic = generic_set_frame(list(pack_rows(rows)), labels)
            assert frame.labels == generic.labels == tuple(labels)
            for name in ("leq", "meet", "join", "imp"):
                assert np.array_equal(getattr(frame, name), getattr(generic, name)), name
            tables, k = frame.stack
            assert all(np.shares_memory(tables[name], getattr(frame, name)) for name in tables)

class TestHeytingOps:
    @pytest.mark.parametrize("n", [127, 128])
    def test_rank_holds_the_carrier_size(self, n):
        # the top of an n-chain has rank n, which an int8 rank cannot hold at 128
        leq = np.triu(np.ones((n, n), dtype=bool))
        meet = np.minimum.outer(np.arange(n), np.arange(n))
        imp, broken = heyting_tables(leq[None], meet[None])
        assert broken[0] == -1
        assert np.array_equal(imp[0], np.where(leq, n - 1, np.arange(n)))

    def test_first_broken_triple_matches_search(self):
        """On M3, N5 and every non-distributive bounded lattice up to 6 elements
        (which has no implication, so the adjunction breaks), stacked per
        size: the candidate table and the first (a, x, b) row-major."""
        lattices = defaultdict(list, {5: [diamond_leq(), pentagon_leq()]})
        for n in range(1, 7):
            for leq in bounded_posets(n):
                rows = leq.tolist()
                if brute_is_lattice(rows) and not brute_is_distributive(rows):
                    lattices[n].append(leq)
        assert sorted(lattices) == [5, 6] and len(lattices[6]) > 1
        for n, orders in lattices.items():
            leqs = np.stack(orders)
            imp, broken = heyting_tables(leqs, lattice_tables(leqs)[0])
            for leq, got_imp, got in zip(leqs, imp, broken):
                want_imp, want = brute_heyting_break(leq.tolist())
                assert np.array_equal(got_imp, want_imp)
                assert tuple(int(v) for v in np.unravel_index(got, (n, n, n))) == want

    def test_top_implies_is_identity(self, c4):
        for b in range(c4.n):
            assert c4.imp[c4.top, b] == b

    def test_below_gives_top(self, c4):
        for a in range(c4.n):
            for b in range(c4.n):
                if c4.leq[a, b]:
                    assert c4.imp[a, b] == c4.top

    def test_pseudocomplement_examples(self, c3, b2):
        assert c3.star[1] == 0 and b2.star[1] == 2  # the middle of the chain is dense
        for frame in (c3, b2):
            assert frame.star[0] == frame.top

    def test_double_negation_laws(self, small_corpus):
        for frame in small_corpus:
            star = frame.star
            for a in range(frame.n):
                assert frame.leq[a, star[star[a]]]
                assert star[star[star[a]]] == star[a]


class TestBooleanization:
    def test_chain_collapses(self, c3):
        assert BooleanizationView(c3).carrier == (0, 2)

    def test_boolean_square_is_fixed(self, b2):
        assert BooleanizationView(b2).carrier == (0, 1, 2, 3)

    def test_join_is_regularized(self, small_corpus):
        for frame in small_corpus:
            view = BooleanizationView(frame)
            star = frame.star
            for a in view.carrier:
                for b in view.carrier:
                    expected = int(star[star[frame.join[a, b]]])
                    i, j = view.carrier.index(a), view.carrier.index(b)
                    assert view.join_table[i, j] == expected

    def test_view_is_a_boolean_frame(self, c3, grid):
        """The regular elements under the parent order validate as a frame
        whose join is the view's and where every element has a complement."""
        for frame in (c3, grid):
            view = BooleanizationView(frame)
            boolean = validate_frame(frame.leq[np.ix_(view.carrier, view.carrier)])
            # the carrier ascends from the bottom to the top: the canonical order is the identity
            assert np.array_equal(boolean.join, np.searchsorted(view.carrier, view.join_table))
            for a in range(boolean.n):
                complements = [c for c in range(boolean.n)
                               if int(boolean.meet[a, c]) == 0
                               and int(boolean.join[a, c]) == boolean.top]
                assert complements


class TestProducts:
    def test_square_is_product_of_chains(self, c2, b2):
        assert find_order_isomorphism(product_frame(c2, c2), b2) is not None

    def test_product_heyting_is_componentwise(self, c2, c3):
        prod = product_frame(c3, c2)
        assert prod.n == 6
        for i in range(prod.n):
            for j in range(prod.n):
                a1, a2 = divmod(i, c2.n)
                b1, b2x = divmod(j, c2.n)
                expected = (int(c3.imp[a1, b1]), int(c2.imp[a2, b2x]))
                assert divmod(int(prod.imp[i, j]), c2.n) == expected

    def test_unit_law(self, c1, b2):
        assert find_order_isomorphism(product_frame(b2, c1), b2) is not None


class TestRegularPairs:
    def test_boolean_square_has_nine_pairs(self, b2):
        assert RegularPairFrame(b2).frame.n == 9

    def test_chain3_carrier(self, c3):
        pairs = RegularPairFrame(c3)
        assert pairs.pairs == ((0, 0), (0, 2), (1, 2), (2, 2))
        assert pairs.frame.labels == ("(0,0)", "(0,2)", "(1,2)", "(2,2)")

    def test_degenerate(self, c1):
        assert RegularPairFrame(c1).frame.n == 1

    def test_budget_counts_the_pairs_before_validating(self, monkeypatch):
        base = corpus.chain(64)  # 65 pairs: (0, 0) and every a below the top
        monkeypatch.setattr(lattice, "validate_frame", lambda *args: pytest.fail("validated"))
        with pytest.raises(BudgetExceeded, match="^carrier size 65 exceeds the frame budget 64 "):
            RegularPairFrame(base)

    def test_carrier_closure_on_corpus(self, small_corpus):
        # construction re-verifies closure internally; run it broadly
        for frame in small_corpus[:80]:
            RegularPairFrame(frame)

    def test_tables_are_componentwise(self, small_corpus):
        for frame in small_corpus:
            pf = RegularPairFrame(frame)
            star = frame.star
            regular = [b for b in range(frame.n) if star[star[b]] == b]
            assert pf.pairs == tuple((a, b) for a in range(frame.n) for b in regular
                                     if frame.leq[a, b])
            for i, (a1, b1) in enumerate(pf.pairs):
                for j, (a2, b2) in enumerate(pf.pairs):
                    assert pf.pairs[pf.frame.meet[i, j]] == (frame.meet[a1, a2],
                                                             frame.meet[b1, b2])
                    assert pf.pairs[pf.frame.join[i, j]] == (frame.join[a1, a2],
                                                             star[star[frame.join[b1, b2]]])

    # tampered base-table entries, and the first pair (row-major, meet before
    # join) whose componentwise result leaves the carrier or misses the pair frame
    @pytest.mark.parametrize("name, edits, message", [
        ("chain3", [("meet", 0, 1, 1)], "meet of (0,0), (1,2) -> (1, 0)"),
        ("chain3", [("join", 0, 1, 0)], "join of (0,0), (1,2) -> (0, 2)"),
        ("grid2x3", [("join", 5, 0, 2)], "join of ((0,0),(1,2)), ((0,0),(0,0)) -> (0, 2)"),
        ("grid2x3", [("meet", 1, 2, 0), ("meet", 2, 1, 5)],  # row-major, not column-major
         "meet of ((0,1),(0,2)), ((0,2),(0,2)) -> (0, 2)"),
        ("grid2x3", [("meet", 1, 1, 0), ("join", 1, 1, 5)],  # both fail on the first pair
         "meet of ((0,1),(0,2)), ((0,1),(0,2)) -> (0, 2)"),
    ])
    def test_closure_violation_names_the_first_pair(self, tiny_corpus, name, edits, message):
        frame = tiny_corpus[name]
        tables = {t: getattr(frame, t).copy() for t in ("meet", "join", "imp")}
        for table, a, b, value in edits:
            tables[table][a, b] = value
        broken = FiniteFrame(frame.leq, tables["meet"], tables["join"], tables["imp"],
                             frame.labels)
        with pytest.raises(ClosureViolation) as err:
            RegularPairFrame(broken)
        assert str(err.value) == message
