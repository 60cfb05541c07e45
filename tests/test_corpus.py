from fractions import Fraction
from itertools import permutations
from random import Random

import numpy as np
import pytest

from localekit import common, corpus, realline as rl
from localekit.lattice import NotDistributive, validate_frame

from oracles import (_key_rows, _permuted_rows, brute_is_distributive, brute_labeled_lattices,
                     labeled_distributive_count, labeled_lattice_rows, natural_labeled_lattices,
                     per_item_corpus, rows_to_leq)


def rows_to_rel(rows):
    n = len(rows)
    return tuple(tuple(bool(rows[i] >> j & 1) for j in range(n)) for i in range(n))


class TestLatticeEnumeration:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_relation_scan_oracle(self, n):
        ours = sorted(rows_to_rel(rows) for rows in labeled_lattice_rows(n))
        assert ours == sorted(brute_labeled_lattices(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_distributive_filter_matches_oracle(self, n):
        ours = {rows_to_rel(r) for r in labeled_lattice_rows(n, distributive_only=True)}
        expected = {rel for rel in brute_labeled_lattices(n)
                    if brute_is_distributive([list(row) for row in rel])}
        assert ours == expected

    @pytest.mark.parametrize("n,total,distributive",
                             [(5, 380, 240), (6, 6390, 2520), (7, 157962, 26460)])
    def test_larger_sizes_are_permutation_closed(self, n, total, distributive):
        # Completeness argument: the set contains every naturally labeled
        # lattice by construction and is closed under relabeling, hence it is
        # all labeled lattices; the counts are then frozen as regressions
        # (the lattice counts are OEIS A055512).
        rows = labeled_lattice_rows(n, distributive_only=(n == 6))
        as_set = set(rows)
        assert len(as_set) == (distributive if n == 6 else total)
        sample = Random(0).sample(list(as_set), 40)
        for up in sample:
            for perm in permutations(range(n)):
                assert _permuted_rows(up, perm) in as_set

    @pytest.mark.parametrize("n,distributive", [(n, d) for n in range(1, 7) for d in (False, True)]
                             + [(7, True)])
    def test_matches_natural_poset_oracle(self, n, distributive):
        # The oracle walks every naturally labeled poset on n elements and
        # relabels one permutation and one bit at a time; the corpus grows
        # only the n - 2 inner elements and relabels as arrays. Same rows,
        # same order, so the distN:kkkk names agree too.
        rows = labeled_lattice_rows(n, distributive_only=distributive)
        assert rows == natural_labeled_lattices(n, distributive_only=distributive)
        if n == 7:
            assert len(rows) == 26460

    def test_distributive_counts_match_the_extension_count_oracle(self):
        # n!·Σ 1/e(N) over natural posets N with n down-sets counts the labeled
        # distributive lattices without relabeling any order; n = 8 is the
        # labeled corpus past the campaign budget, which nothing else covers.
        counts = [len(labeled_lattice_rows(n, distributive_only=True))
                  for n in range(1, 9)]
        assert counts == [labeled_distributive_count(n) for n in range(1, 9)]
        assert counts == [1, 2, 6, 36, 240, 2520, 26460, 379680]

    @pytest.mark.parametrize("n", [3, 8, 9, 12, 17])
    def test_keys_sort_and_decode_as_row_tuples(self, n):
        # Up to 8 elements a row is one byte; past it the key bytes of a row
        # must still order and decode as the integer mask does.
        rng = Random(n)
        rows = [tuple(rng.randrange(1 << n) for _ in range(n)) for _ in range(300)]
        rows += rows[:50]
        orders = np.array([[[bool(m >> j & 1) for j in range(n)] for m in row] for row in rows])
        keys = corpus._distinct(corpus._keys(orders))
        assert _key_rows(keys, n) == sorted(set(rows))

    def test_every_corpus_frame_validates(self):
        count = 0
        for name, frame in corpus.iter_distributive_frames(4):
            assert frame.n <= 4
            count += 1
        assert count == 1 + 2 + 6 + 36

    def test_chunking_does_not_change_the_corpus(self, monkeypatch):
        def snapshot():
            return [(name, frame.labels, frame.leq.tobytes(), frame.imp.tobytes())
                    for name, frame in corpus.iter_distributive_frames(5)]
        whole, lattices = snapshot(), labeled_lattice_rows(5)
        monkeypatch.setattr(common, "STACK_CELLS", 200)  # 1 to 25 frames a chunk
        assert snapshot() == whole
        assert labeled_lattice_rows(5) == lattices

    def test_matches_one_validation_per_item(self):
        # Each distinct canonical order is validated once and its tables are
        # shared; the oracle validates every labeled row on its own order.
        def tables(items):
            return [(name, frame.labels, *(getattr(frame, table).tobytes()
                                           for table in ("leq", "meet", "join", "imp")))
                    for name, frame in items]
        assert tables(corpus.iter_distributive_frames(6)) == tables(per_item_corpus(6))

    def test_validates_each_distinct_canonical_order_once(self, monkeypatch):
        # 1, 2, 6, 36, 240, 2520 labeled frames over n(n - 1) placements of
        # the bottom and top labels (one for n = 1).
        validated, real = [], corpus.validate_frames

        def counted(leqs, labels=None):
            validated.append(len(leqs))
            return real(leqs, labels)
        monkeypatch.setattr(corpus, "validate_frames", counted)
        assert sum(1 for _ in corpus.iter_distributive_frames(6)) == 2805
        assert sum(validated) == 1 + 1 + 1 + 3 + 12 + 84

    @pytest.mark.parametrize("cells", [common.STACK_CELLS, 200])
    def test_the_first_failing_canonical_order_raises_what_it_raises_alone(self, monkeypatch,
                                                                           cells):
        # With the distributivity filter lifted at n = 6, the 213 canonical
        # orders (0 the bottom, 5 the top) of all 6-element lattices reach
        # validate_frames in key order, which is the order of their rows.
        canonical = [row for row in labeled_lattice_rows(6)
                     if row[0] == 0b111111 and all(mask & 0b100000 for mask in row)]
        assert len(canonical) == 6390 // 30
        alone = []
        for row in canonical:
            try:
                validate_frame(rows_to_leq(row))
            except NotDistributive as exc:
                alone.append(str(exc))
        assert len(set(alone)) > 1  # the message tells which order raised
        real = corpus.distributivity_witness
        monkeypatch.setattr(corpus, "distributivity_witness", lambda meet, join: (
            np.full(len(meet), -1) if meet.shape[1] == 6 else real(meet, join)))
        monkeypatch.setattr(common, "STACK_CELLS", cells)
        with pytest.raises(NotDistributive) as raised:
            list(corpus.iter_distributive_frames(6))
        assert str(raised.value) == alone[0]

    def test_rows_unpack_to_their_order(self):
        for rows in labeled_lattice_rows(4):
            assert rows_to_rel(rows) == tuple(tuple(bool(v) for v in row)
                                              for row in rows_to_leq(rows))

    def test_names_are_stable(self):
        first = [name for name, _ in corpus.iter_distributive_frames(3)]
        second = [name for name, _ in corpus.iter_distributive_frames(3)]
        assert first == second == ["dist1:0000", "dist2:0000", "dist2:0001",
                                   "dist3:0000", "dist3:0001", "dist3:0002",
                                   "dist3:0003", "dist3:0004", "dist3:0005"]


class TestNamedFrames:
    def test_named_set_validates(self):
        frames = corpus.named_frames()
        assert frames["pairs(chain3)"].n == 4
        assert frames["bool3"].n == 8
        assert frames["grid2x3"].n == 6

    @pytest.mark.parametrize("k", range(7))
    def test_boolean_cube_is_the_subset_order(self, k):
        n = 1 << k
        looped = validate_frame([[i & ~j == 0 for j in range(n)] for i in range(n)])
        cube = corpus.boolean_cube(k)
        for name in ("leq", "meet", "join", "imp"):
            ours, theirs = getattr(cube, name), getattr(looped, name)
            assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()
        assert cube.labels == looped.labels

    def test_chain_builder(self):
        for k in (1, 2, 5):
            frame = corpus.chain(k)
            assert frame.n == k
            assert all(frame.leq[i, j] == (i <= j)
                       for i in range(k) for j in range(k))


class TestFuzzGenerators:
    def test_regular_opens_are_regular(self):
        rng = Random(7)
        for _ in range(50):
            u = corpus.random_regular_open(rng)
            assert rl.is_regular(u)
            assert len(u.components) <= 6

    def test_pairs_are_valid(self):
        rng = Random(11)
        for _ in range(50):
            pair = corpus.random_pair(rng)
            assert rl.is_subset(pair.first, pair.second)
            assert rl.is_regular(pair.second)

    def test_outside_points_are_outside(self):
        rng = Random(3)
        u = corpus.random_regular_open(rng)
        for x in corpus.sample_points_outside(rng, u, 20):
            assert x != 0 and not rl.contains_point(u, x)

    def test_seeded_generation_is_reproducible(self):
        a = [corpus.random_open(Random(5)) for _ in range(10)]
        b = [corpus.random_open(Random(5)) for _ in range(10)]
        assert a == b

    def test_endpoint_denominators_bounded(self):
        rng = Random(13)
        for _ in range(30):
            u = corpus.random_open(rng)
            for lo, hi in u.components:
                for end in (lo, hi):
                    if isinstance(end, Fraction):
                        assert end.denominator <= corpus.MAX_DEN
