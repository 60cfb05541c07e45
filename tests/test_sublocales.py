import os
import subprocess
import sys
from pathlib import Path
from random import Random

import numpy as np
import pytest

from localekit import checks, cli, common, corpus, io, lattice, sublocales
from localekit.common import BudgetExceeded, pack_rows, settled, unpack_rows
from localekit.lattice import FiniteFrame, cover_pairs, cover_relation, validate_frame
from localekit.sublocales import (ClosedJoinFrame, Sublocale, closed_join_frames,
                                  closed_open_outcomes, meet_closure, open_rows,
                                  sublocale_lattices)

from conftest import alone
from oracles import (MixedParents, brute_closed_join_elements, brute_primes, brute_sublocales,
                     closed_join_meet, closure_verdict, containment, find_order_isomorphism,
                     generic_closed_join_frame, generic_closed_open_identities,
                     generic_sublocale_laws, least_upper_bounds, meet_close, per_item_complements,
                     per_item_identities, per_item_sublocales, prime_closures, sublocale_join,
                     sublocale_witness, tampered)


def closed_open(frame, part):
    """The identities (0) or complements (1) report of frame as a batch of one."""
    return alone(frame).closed_open(part)


def closed_sublocale(frame, a):
    """c(a): the up-set of a."""
    return Sublocale(frame, frame.up_masks[a])


def open_sublocale(frame, a):
    """o(a): the image of a -> (-), as `closed_open_outcomes` reads it."""
    return Sublocale(frame, pack_rows(open_rows(frame.imp[None])[0, a:a + 1])[0])


def primes(frame):
    """The meet-irreducibles as `sublocale_lattices` finds them: one upper cover each."""
    return tuple(np.flatnonzero(cover_relation(frame.leq).sum(axis=1) == 1).tolist())


def supplements(lattice):
    """supplements[i]: the index in S(L) of M(P ∖ Y) for its i-th member M(Y)."""
    return np.argsort(lattice.ys)[lattice.ys ^ (len(lattice) - 1)]


def raised(action):
    """(exception class, message, args) of what action raises."""
    with pytest.raises(Exception) as err:
        action()
    return type(err.value), str(err.value), err.value.args


def flipped(*entries):
    """meet_closure with the entries (f, y, x) of its (F, R, n) closures negated."""
    def closure(leqs, rows):
        out = meet_closure(leqs, rows)
        for entry in entries:
            out[entry] = ~out[entry]
        return out
    return closure


def decomposition_error(sublocale, element):
    return f"meet-closure of primes differs from its prime decomposition at ({sublocale}, {element})"


def tamperings(frame, draws):
    """Every frame that differs from frame in one entry of its meet or
    Heyting table, then `draws` seeded ones with two or three entries of
    one table set at random."""
    for table in ("meet", "imp"):
        for (i, j), was in np.ndenumerate(getattr(frame, table)):
            yield from (tampered(frame, table, {(i, j): value})
                        for value in range(frame.n) if value != was)
    rng, n = Random(frame.n), frame.n
    for _ in range(draws):
        table = rng.choice(("meet", "imp"))
        yield tampered(frame, table, {(rng.randrange(n), rng.randrange(n)): rng.randrange(n)
                                      for _ in range(rng.randint(2, 3))})


def mirrored(frame):
    """frame with its inner elements in reverse index order: another order
    of the same carrier size and number of primes."""
    inner = list(range(frame.n - 2, 0, -1))
    order = [0, *inner, frame.n - 1] if frame.n > 1 else [0]
    return validate_frame(frame.leq[np.ix_(order, order)])


def outcome(built):
    """S(L)'s outcome, comparable across routes: masks and prime sets, or
    what it raises as (type, args)."""
    if isinstance(built, Exception):
        return type(built), built.args
    return tuple(built.masks), tuple(built.prime_sets)


def oracle_outcome(frame):
    """`per_item_sublocales`' outcome on frame, as `outcome` reads S(L)'s."""
    try:
        return per_item_sublocales(frame)[:2]
    except AssertionError as exc:
        return AssertionError, exc.args


class TestTamperedTables:
    """S(L) decides its sublocale test on the prime sets of the table
    entries; the oracle tests every closure, member by member. They must
    agree on every table entry set to every other value, and on some
    entries set together."""

    @pytest.mark.parametrize("name", ["chain3", "bool2", "chain4", "bool3", "grid2x3"])
    @pytest.mark.parametrize("cells", [None, 9])
    def test_every_tampering_keeps_the_oracles_outcome(self, tiny_corpus, monkeypatch, cells,
                                                       name):
        if cells is not None:
            monkeypatch.setattr(common, "STACK_CELLS", cells)
        frames = list(tamperings(tiny_corpus[name], draws=100))
        expected = [oracle_outcome(frame) for frame in frames]
        assert [outcome(sublocale_lattices([frame])[0]) for frame in frames] == expected
        # between clean frames of the same stack, in another order
        clean = mirrored(tiny_corpus[name])
        outcomes = [outcome(built) for built in sublocale_lattices(
            [item for frame in frames for item in (clean, frame)])]
        assert outcomes[1::2] == expected
        assert outcomes[::2] == [oracle_outcome(clean)] * len(frames)
        # the tamperings reach both laws, and some reach neither
        closures = prime_closures(tiny_corpus[name])
        assert {closure_verdict(frame, closures).condition for frame in frames} == {
            None, "meet", "heyting"}

    def test_a_mid_size_irregular_frame(self, endpoint_pairs):
        """The pair frame of O_E: 116 elements, so a row spans two 64-bit
        words, 11 primes and 2,048 sublocales. Its S(L) is the oracle's, and
        a Heyting entry set to the bottom at a prime column, and at one that
        is no prime, raises the oracle's message, alone and in a stack."""
        base, frame = endpoint_pairs
        assert (base.n, frame.n, len(primes(base)), len(primes(frame))) == (34, 116, 7, 11)
        lattice = sublocale_lattices([frame], budget=11)[0]
        assert len(lattice) == 2048 and outcome(lattice) == oracle_outcome(frame)
        columns = primes(frame)[0], 1
        assert columns[1] not in primes(frame)
        broken = [tampered(frame, "imp", {(frame.top, column): 0}) for column in columns]
        expected = [oracle_outcome(item) for item in broken]
        assert [kind for kind, _ in expected] == [AssertionError] * 2
        assert all(args[0].startswith("meet-closure of primes is not a sublocale")
                   for _, args in expected)
        assert [outcome(sublocale_lattices([item], budget=11)[0]) for item in broken] == expected
        batch = sublocale_lattices([broken[0], frame, broken[1]], budget=11)
        assert [outcome(built) for built in batch] == [expected[0], outcome(lattice), expected[1]]


class TestClosedAndOpen:
    def test_chain_middle(self, c3):
        assert closed_sublocale(c3, 1).members == (1, 2)
        assert open_sublocale(c3, 1).members == (0, 2)

    def test_bottom_and_top(self, small_corpus):
        for frame in small_corpus[:60]:
            full = (1 << frame.n) - 1
            assert closed_sublocale(frame, 0).mask == full
            assert open_sublocale(frame, 0).mask == 1 << frame.top
            assert closed_sublocale(frame, frame.top).mask == 1 << frame.top
            assert open_sublocale(frame, frame.top).mask == full

    def test_both_pass_is_sublocale(self, small_corpus):
        for frame in small_corpus[:60]:
            for a in range(frame.n):
                assert sublocale_witness(frame, closed_sublocale(frame, a).members)[0]
                assert sublocale_witness(frame, open_sublocale(frame, a).members)[0]

    def test_complements(self, small_corpus):
        for frame in small_corpus:
            assert closed_open(frame, 1).ok


class TestMeetClosure:
    def test_matches_fixpoint_oracle(self, small_corpus, tiny_corpus):
        for frame in [*small_corpus, *tiny_corpus.values()]:
            masks = range(1 << frame.n)
            got = pack_rows(meet_closure(frame.leq[None], unpack_rows(masks, frame.n)[None])[0])
            assert got == tuple(meet_close(frame, m | 1 << frame.top) for m in masks)


class TestJoin:
    def test_closed_joins_to_whole_square(self, b2):
        joined = sublocale_join([closed_sublocale(b2, 1), closed_sublocale(b2, 2)])
        assert joined.mask == (1 << b2.n) - 1

    def test_least_element_is_neutral(self, c3):
        s = closed_sublocale(c3, 1)
        bottom = Sublocale(c3, 1 << c3.top)
        assert sublocale_join([s, bottom]).mask == s.mask

    def test_complement_pair_joins_to_top(self, c3):
        joined = sublocale_join([closed_sublocale(c3, 1), open_sublocale(c3, 1)])
        assert joined.mask == (1 << c3.n) - 1

    def test_empty_family_is_least(self, c3):
        assert sublocale_join([], parent=c3).mask == 1 << c3.top

    def test_mixed_parents_rejected(self, c3, b2):
        with pytest.raises(MixedParents):
            sublocale_join([closed_sublocale(c3, 0), closed_sublocale(b2, 0)])


class TestPrimes:
    def test_chain3(self, c3):
        assert primes(c3) == (0, 1)

    def test_square_atoms(self, b2):
        atoms = {int(j) for i, j in zip(*cover_pairs(b2.leq)) if i == b2.bottom}
        assert set(primes(b2)) == atoms == {1, 2}

    def test_grid(self, grid):
        assert primes(grid) == brute_primes(grid)
        assert len(primes(grid)) == 3

    def test_count_is_power_of_two(self, small_corpus):
        for frame in small_corpus:
            assert len(alone(frame).lattice) == 2 ** len(brute_primes(frame))

    def test_prime_sets_are_the_members(self, small_corpus):
        for frame in small_corpus:
            ps = primes(frame)
            lattice = alone(frame).lattice
            for mask, y in zip(lattice.masks, lattice.prime_sets):
                assert y == sum(1 << k for k, p in enumerate(ps) if mask >> p & 1)

    def test_supplement_complements_the_primes(self, small_corpus):
        for frame in small_corpus:
            ps = primes(frame)
            lattice = alone(frame).lattice
            for mask, t in zip(lattice.masks, supplements(lattice)):
                rest = sum(1 << p for p in ps if not mask >> p & 1)
                assert lattice.masks[t] == meet_close(frame, rest | 1 << frame.top)


class TestSublocaleLattice:
    def test_chain3_has_four(self, c3):
        lattice = alone(c3).lattice
        assert [s.label() for s in lattice.sublocales] == ["O", "{0,2}", "{1,2}", "L"]

    def test_chain3_is_boolean_square(self, c3, b2):
        lattice = alone(c3).lattice
        frame = validate_frame(containment(lattice.rows))
        assert find_order_isomorphism(frame, b2) is not None

    def test_chain2_trivial(self, c2):
        assert len(alone(c2).lattice) == 2

    def test_square_contains_closed_and_open(self, b2):
        masks = set(alone(b2).lattice.masks)
        for a in range(b2.n):
            assert closed_sublocale(b2, a).mask in masks
            assert open_sublocale(b2, a).mask in masks

    def test_matches_naive_scan(self, small_corpus):
        for frame in small_corpus:
            assert list(alone(frame).lattice.masks) == \
                sorted(brute_sublocales(frame), key=lambda m: (bin(m).count("1"), m))

    def test_budget(self, c3):
        with pytest.raises(BudgetExceeded):
            alone(c3, 1).lattice

    def test_default_budget_refuses_before_any_closure(self, monkeypatch):
        def unbuilt(frame, rows):
            raise AssertionError("a closure was built")
        monkeypatch.setattr(sublocales, "meet_closure", unbuilt)
        with pytest.raises(BudgetExceeded) as err:
            alone(corpus.chain(12)).lattice
        assert str(err.value) == "11 primes exceed the sublocale budget 10 (override with --budget)"

    def test_budget_reaches_2048_sublocales(self):
        lattice = alone(corpus.chain(12), 11).lattice
        assert len(lattice) == 2048 and lattice.rows.shape == (2048, 12)
        ys = np.array(lattice.prime_sets)
        assert (ys[supplements(lattice)] == ys ^ 2047).all()
        assert lattice.laws.ok

    def test_meets_are_intersections(self, small_corpus):
        for frame in small_corpus[:40]:
            lattice = alone(frame).lattice
            ys = lattice.prime_sets
            for i, a in enumerate(lattice.masks):
                for j, b in enumerate(lattice.masks):  # M(Y) ∩ M(Z) = M(Y ∩ Z)
                    assert ys[lattice.masks.index(a & b)] == ys[i] & ys[j]

    def test_coframe_law_and_lub(self, small_corpus):
        for frame in small_corpus:
            assert alone(frame).lattice.laws.ok

    def test_generic_laws_oracle(self, tiny_corpus):
        frames = [frame for _, frame in corpus.iter_distributive_frames(6)]
        for frame in frames + list(tiny_corpus.values()):
            lattice = alone(frame).lattice
            assert generic_sublocale_laws(lattice) is None
            assert lattice.laws.ok

    @pytest.mark.parametrize("name", ["chain3", "bool2", "chain4", "bool3"])
    def test_every_single_closure_flip_fails(self, tiny_corpus, monkeypatch, name):
        frame = tiny_corpus[name]

        def caught(y, x):
            monkeypatch.setattr(sublocales, "meet_closure", flipped((0, y, x)))
            return isinstance(sublocale_lattices([frame])[0], AssertionError)

        flips = [(y, x) for y in range(len(alone(frame).lattice)) for x in range(frame.n)]
        assert [flip for flip in flips if not caught(*flip)] == []

    # (frame, table, a, b, value) tampered, and the message that a test of
    # every closure, member by member, gives; "" where S(L) builds (a tampered
    # meet entry below the diagonal is one that neither route reads)
    @pytest.mark.parametrize("name, table, a, b, value, message", [
        ("chain3", "imp", 0, 1, 0, "SubsetVerdict(ok=False, condition='heyting', witness=(0, 1))"),
        ("chain3", "imp", 2, 0, 1, "SubsetVerdict(ok=False, condition='heyting', witness=(2, 0))"),
        ("bool2", "imp", 1, 0, 1, ""),
        ("bool3", "imp", 3, 4, 0, "SubsetVerdict(ok=False, condition='heyting', witness=(3, 4))"),
        ("chain4", "imp", 3, 1, 0, "SubsetVerdict(ok=False, condition='heyting', witness=(3, 1))"),
        ("grid2x3", "imp", 5, 2, 0, "SubsetVerdict(ok=False, condition='heyting', witness=(5, 2))"),
        ("bool3", "meet", 5, 6, 1, "SubsetVerdict(ok=False, condition='meet', witness=(5, 6))"),
        ("bool3", "meet", 6, 5, 7, ""),
    ])
    @pytest.mark.parametrize("cells", [None, 9])
    def test_tampered_tables_keep_the_scalar_message(self, tiny_corpus, monkeypatch, cells,
                                                     name, table, a, b, value, message):
        if cells is not None:  # one closure a slice
            monkeypatch.setattr(common, "STACK_CELLS", cells)
        frame = tampered(tiny_corpus[name], table, {(a, b): value})
        if not message:
            alone(frame).lattice
            return
        assert raised(lambda: alone(frame).lattice) == (
            AssertionError, f"meet-closure of primes is not a sublocale: {message}",
            (f"meet-closure of primes is not a sublocale: {message}",))

    # flipped closure entries (y, x), and the error that names the first:
    # the decomposition, first (y, x) row-major (on bool3, M({p_2}) = {6,7}
    # loses 6 and becomes O, a second M(∅)); the sublocale test reads the
    # tables on the prime sets, not the closures, so no flip reaches it
    @pytest.mark.parametrize("name, flips, message", [
        ("chain4", [(0, 0)], decomposition_error("{0,3}", 0)),
        ("chain4", [(5, 2), (1, 1)], decomposition_error("{0,1,3}", 1)),
        ("chain4", [(3, 2), (3, 0)], decomposition_error("{1,2,3}", 0)),
        ("bool3", [(4, 6)], decomposition_error("O", 6)),
        ("bool3", [(4, 6), (0, 0)], decomposition_error("{0,7}", 0)),
    ])
    def test_closure_flip_names_the_first_witness(self, tiny_corpus, monkeypatch, name, flips,
                                                  message):
        monkeypatch.setattr(sublocales, "meet_closure", flipped(*((0, y, x) for y, x in flips)))
        assert raised(lambda: alone(tiny_corpus[name]).lattice) == (
            AssertionError, message, (message,))

    def test_cube7_past_64_elements(self, cube7):
        lattice = alone(cube7).lattice
        assert len(lattice) == 128
        # in a Boolean frame every sublocale is closed: S(L) is the up-sets ↑a
        assert sorted(lattice.masks) == sorted(cube7.up_masks)
        ys = lattice.prime_sets
        for i, a in enumerate(lattice.masks):
            for j, b in enumerate(lattice.masks):
                assert ys[lattice.masks.index(a & b)] == ys[i] & ys[j]
        ys = np.array(ys)
        assert (containment(lattice.rows) == ((ys[:, None] & ~ys[None, :]) == 0)).all()
        assert lattice.laws.ok

    # 512 sublocales: (m, m, m) arrays of the laws would take 1 GB each; 16,384
    # sublocales: an (m, m) order alone would take 256 MB
    @pytest.mark.parametrize("n, budget, size, megabytes", [(10, None, 512, 400),
                                                            (15, 14, 16384, 150)])
    def test_chain10_laws_stay_in_bounded_memory(self, n, budget, size, megabytes):
        # VmHWM is the peak of this interpreter's own address space: Linux
        # carries the peak of the process that starts it over exec into ru_maxrss
        script = ("from localekit import corpus, sublocales\n"
                  f"lattice = sublocales.sublocale_lattices([corpus.chain({n})], {budget})[0]\n"
                  f"assert len(lattice) == {size}\n"
                  "assert lattice.laws.ok\n"
                  "print(next(line.split()[1] for line in open('/proc/self/status')\n"
                  "           if line.startswith('VmHWM:')))\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300, check=True)
        assert int(done.stdout) < megabytes * 1024  # VmHWM is in KiB

    def test_dot_edges_are_the_covers_of_the_containment_order(self, tiny_corpus):
        frames = [frame for _, frame in corpus.iter_distributive_frames(5)]
        for frame in frames + list(tiny_corpus.values()):
            lattice = alone(frame).lattice
            nodes = [(str(i), s.label()) for i, s in enumerate(lattice.sublocales)]
            edges = [(str(i), str(j)) for i, j in zip(*cover_pairs(containment(lattice.rows)))]
            assert io.dot_sublocales(lattice) == io._digraph("sublocales", nodes, edges)

    def test_join_monotone(self, small_corpus):
        for frame in small_corpus[:30]:
            lattice = alone(frame).lattice
            ys, leq = np.array(lattice.prime_sets), containment(lattice.rows)
            join = np.argsort(ys)[ys[:, None] | ys[None, :]]  # M(Y ∪ Z)
            for i in range(len(lattice)):
                for j in range(len(lattice)):
                    for k in range(len(lattice)):
                        if leq[j, k]:
                            assert leq[join[i, j], join[i, k]]


class TestAntitoneEmbedding:
    def test_order_reverses_through_closed_sublocales(self, small_corpus):
        for frame in small_corpus[:60]:
            for a in range(frame.n):
                for b in range(frame.n):
                    contained = closed_sublocale(frame, b).mask & \
                        ~closed_sublocale(frame, a).mask == 0
                    assert bool(frame.leq[a, b]) == contained

    def test_bundled_check(self, small_corpus):
        from localekit.checks import sublocale_laws
        for item in checks.frame_structures(small_corpus[:40]):
            assert sublocale_laws(item).ok

    def test_bundled_check_names_the_first_broken_pair(self, c3, monkeypatch):
        """One tampered order entry of chain3, with S(L) and the complements
        report of the clean frame, so the antitone embedding is what breaks."""
        from localekit.checks import sublocale_laws
        leq = c3.leq.copy()
        leq[2, 0] = True
        frame = FiniteFrame(leq, c3.meet, c3.join, c3.imp, c3.labels)
        # c(b) ⊆ c(a) iff everything above b is above a; a <= b must say the same
        expected = next((a, b) for a in range(3) for b in range(3)
                        if leq[a, b] != all(leq[a, k] for k in range(3) if leq[b, k]))
        lattice, reports = alone(c3).lattice, closed_open_outcomes([c3])
        monkeypatch.setattr(sublocales, "sublocale_lattices", lambda frames, budget: [lattice])
        monkeypatch.setattr(sublocales, "closed_open_outcomes", lambda frames: reports)
        report = sublocale_laws(alone(frame))
        assert (report.name, report.ok) == ("sublocale-laws", False)
        a, b = (c3.labels[v] for v in expected)
        assert report.witness == f"antitone embedding breaks at ({a},{b})"


class TestSupplement:
    def test_chain3_supplements(self, c3):
        lattice = alone(c3).lattice
        partner = dict(zip(lattice.masks, (lattice.masks[t] for t in supplements(lattice))))
        assert partner[closed_sublocale(c3, 1).mask] == open_sublocale(c3, 1).mask
        whole, least = (1 << c3.n) - 1, 1 << c3.top
        assert partner[whole] == least and partner[least] == whole

    def test_supplement_is_the_least_t_joining_to_the_top(self, small_corpus):
        """With joins read off the containment order alone, supplements[i] is
        the one T that joins S_i to L and lies inside every such T. Applied
        twice it gives S_i back, so the dual Booleanization is all of S(L)."""
        for frame in small_corpus:
            lattice = alone(frame).lattice
            leq = containment(lattice.rows)
            partners = least_upper_bounds(leq) == len(lattice) - 1  # [i, t]
            least = [np.flatnonzero(row & leq[:, row].all(axis=1)).tolist() for row in partners]
            partner = supplements(lattice)
            assert least == [[t] for t in partner.tolist()]
            assert (partner[partner] == np.arange(len(lattice))).all()


def hand_frame(leq):
    """A FiniteFrame on a bare relation whose meet and Heyting tables are
    all the top, so that every member row holding the top is a sublocale."""
    leq = np.array(leq, dtype=bool)
    top = np.full(leq.shape, len(leq) - 1)
    return FiniteFrame(leq, top, top, top, tuple(map(str, range(len(leq)))))


# Frames whose S(L) fails, and how: a tampered Heyting entry fails the
# sublocale test (two of them fail it on two closures, with different
# witnesses, so only the first failing closure names the right one), a
# non-transitive relation gives two prime sets one closure, the diamond's
# meets are no intersections of closures, and the 12-chain's 11 primes
# exceed the budget. The library decides the relations by the prime
# decomposition, and the per-item route by its own comparisons, so each
# names them in its own words (below).
FAULTS = {
    "heyting": lambda named: tampered(named["bool3"], "imp", {(3, 4): 0}),
    "heyting-twice": lambda named: tampered(named["chain3"], "imp", {(0, 0): 1, (0, 2): 1}),
    "repeated": lambda named: hand_frame([[1, 1, 1, 1, 1], [0, 1, 1, 0, 1], [0, 0, 1, 1, 1],
                                          [0, 0, 0, 1, 1], [0, 0, 0, 0, 1]]),
    "meets": lambda named: hand_frame([[1, 1, 1, 1, 1], [0, 1, 0, 0, 1], [0, 0, 1, 0, 1],
                                       [0, 0, 0, 1, 1], [0, 0, 0, 0, 1]]),
    "budget": lambda named: corpus.chain(12),
}
WORDED = {
    "repeated": (decomposition_error("{0,3,4}", 0),
                 "two sets of primes have the same meet-closure"),
    "meets": (decomposition_error("{0,1,2,4}", 0),
              "meet of prime sets differs from the intersection"),
}


class TestSublocaleLattices:
    def test_batch_matches_per_item_oracle(self, tiny_corpus):
        frames = [frame for _, frame in corpus.iter_distributive_frames(6)]
        frames += list(tiny_corpus.values())
        Random(0).shuffle(frames)  # carrier sizes and prime counts mixed in one batch
        for lattice, frame in zip(sublocale_lattices(frames), frames):
            masks, prime_sets, laws = per_item_sublocales(frame)
            assert lattice.parent is frame
            assert (lattice.masks, lattice.prime_sets) == (masks, prime_sets)
            assert pack_rows(lattice.rows) == masks and not lattice.rows.flags.writeable
            assert lattice.laws == laws
        assert closed_open_outcomes(frames) == [(per_item_identities(frame),
                                                 per_item_complements(frame))
                                                for frame in frames]

    def test_empty_batch(self):
        assert sublocale_lattices([]) == [] == closed_open_outcomes([])

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    @pytest.mark.parametrize("position", [0, 3])
    def test_faulty_frame_keeps_its_own_outcome(self, tiny_corpus, fault, position):
        broken = FAULTS[fault](tiny_corpus)
        single = raised(lambda: alone(broken).lattice.laws)
        if fault == "budget":
            assert single[:2] == (BudgetExceeded, "11 primes exceed the sublocale budget 10 "
                                                 "(override with --budget)")
        elif fault in WORDED:
            library, per_item = WORDED[fault]
            assert single == (AssertionError, library, (library,))
            assert raised(lambda: per_item_sublocales(broken)) == (
                AssertionError, per_item, (per_item,))
        else:  # the per-item route raises the same
            assert raised(lambda: per_item_sublocales(broken)) == single
        good = [tiny_corpus[name] for name in ("chain3", "bool3", "grid2x3", "chain5", "bool2")]
        good += [frame for _, frame in corpus.iter_distributive_frames(5)  # stacks with the
                 if frame.n == 5 and len(primes(frame)) == 3][:2]          # 5-element faults
        batch = good[:position] + [broken] + good[position:]
        outcomes = sublocale_lattices(batch)
        assert raised(lambda: settled(outcomes[position]).laws) == single
        structures = list(checks.frame_structures(batch))
        for name in ("coframe-law", "ppt"):  # every check of the item that reads S(L) raises
            assert raised(lambda: checks.LATTICE_CHECKS[name](structures[position])) == single
        for k, (outcome, frame) in enumerate(zip(outcomes, batch)):
            if k != position:
                assert outcome.masks == per_item_sublocales(frame)[0]
                assert outcome.laws.ok and structures[k].lattice.laws.ok

    def test_flipped_closure_fails_only_its_own_frame(self, tiny_corpus, monkeypatch):
        masks = alone(tiny_corpus["bool3"]).lattice.masks
        monkeypatch.setattr(sublocales, "meet_closure", flipped((1, 4, 6)))
        batch = sublocale_lattices([tiny_corpus["bool3"]] * 3)
        assert isinstance(batch[1], AssertionError)
        assert str(batch[1]) == decomposition_error("O", 6)
        assert batch[0].laws.ok and batch[2].laws.ok
        assert batch[0].masks == batch[2].masks == masks

    def test_a_passing_campaign_packs_no_masks(self, monkeypatch, capsys):
        """S(L)'s masks and Sublocales, closed-join masks and up-set
        masks are built only when read, and a campaign that passes reads none."""
        packed = []
        for module in (common, sublocales, lattice):
            monkeypatch.setattr(module, "pack_rows", lambda rows: packed.append(len(rows)))
        argv = ["--machine", "campaign", "lattices", "--max-size", "5",
                "--checks", ",".join(checks.LATTICE_CHECKS)]
        assert cli.main(argv) == 0 and packed == []
        assert capsys.readouterr().out.endswith("violation=0\n")

    def test_laws_are_decided_once_per_stack(self, tiny_corpus, monkeypatch):
        stacks = []
        decomposition = sublocales._decomposition
        monkeypatch.setattr(sublocales, "_decomposition", lambda leq, at, chosen: stacks.append(
            len(leq)) or decomposition(leq, at, chosen))
        # chain4 and bool2 have 3 and 2 primes, chain3 and bool2 both have 2
        names = ["chain4", "chain3", "bool2", "chain4", "bool2"]
        batch = sublocale_lattices([tiny_corpus[name] for name in names])
        assert sorted(stacks) == [1, 2, 2]
        assert all(lattice.laws.ok for lattice in batch + batch)
        assert sorted(stacks) == [1, 2, 2]  # reading the verdicts decides nothing again

    # tampered frames with an identities failure, among frames without one
    @pytest.mark.parametrize("position", [0, 2])
    def test_identities_keep_each_frames_witness(self, tiny_corpus, position):
        broken = [tampered(tiny_corpus[name], table, {(a, b): value})
                  for name, table, a, b, value in (
                      ("chain3", "imp", 2, 0, 1), ("bool2", "join", 0, 0, 1),
                      ("bool2xchain3", "join", 1, 2, 0), ("bool2", "meet", 1, 2, 3))]
        good = [tiny_corpus[name] for name in ("chain3", "bool2", "bool2xchain3")]
        batch = good[:position] + broken + good[position:]
        expected = [per_item_identities(frame) for frame in batch]
        assert [identities for identities, _ in closed_open_outcomes(batch)] == expected
        assert [closed_open(frame, 0) for frame in batch] == expected
        assert [report.ok for report in expected] == [True] * position + [False] * 4 + [
            True] * (3 - position)

    # tampered Heyting entries that break c(a) ∩ o(a) = O or c(a) ∨ o(a) = L
    @pytest.mark.parametrize("position", [0, 2])
    def test_complements_keep_each_frames_witness(self, tiny_corpus, position):
        broken = [tampered(tiny_corpus[name], "imp", {(a, b): value})
                  for name, a, b, value in (("chain3", 1, 0, 2), ("bool2", 0, 0, 0),
                                            ("bool2xchain3", 10, 9, 0), ("bool2", 3, 1, 0))]
        good = [tiny_corpus[name] for name in ("chain3", "bool2", "bool2xchain3")]
        batch = good[:position] + broken + good[position:]
        expected = [per_item_complements(frame) for frame in batch]
        assert [complements for _, complements in closed_open_outcomes(batch)] == expected
        assert [closed_open(frame, 1) for frame in batch] == expected
        assert [report.witness for report in expected if not report.ok] == [
            "c∨o ≠ L at 1", "c∩o ≠ O at 0", "c∨o ≠ L at (3,1)", "c∨o ≠ L at 3"]


class TestClosedJoinFrame:
    def test_chain3_is_three_chain(self, c3):
        cjf = alone(c3).closed_joins
        assert len(cjf) == 3
        assert all(cjf.frame.leq[i, j] for i in range(3) for j in range(i, 3))

    def test_square_is_isomorphic_to_itself(self, b2):
        cjf = alone(b2).closed_joins
        assert len(cjf) == 4
        assert find_order_isomorphism(cjf.frame, b2) is not None

    def test_degenerate(self, c1):
        assert len(alone(c1).closed_joins) == 1

    def test_elements_match_join_formula_oracle(self, small_corpus):
        for frame in small_corpus:
            cjf = alone(frame).closed_joins
            assert sorted(cjf.masks) == brute_closed_join_elements(frame)

    def test_frame_law(self, small_corpus):
        for frame in small_corpus:
            assert alone(frame).closed_joins.frame_law_report().ok

    def test_past_64_elements(self, chain65, cube7):
        for frame in (chain65, cube7):
            cjf = alone(frame).closed_joins
            assert sorted(cjf.masks) == sorted(frame.up_masks)
            for i, a in enumerate(cjf.masks):
                for j, b in enumerate(cjf.masks):
                    assert cjf.frame.leq[i, j] == (a & ~b == 0)
            assert cjf.frame_law_report().ok

    @pytest.mark.parametrize("source", ["small_corpus", "tiny_corpus", "chain65", "cube7"])
    def test_matches_generic_route(self, request, source):
        frames = request.getfixturevalue(source)
        if isinstance(frames, dict):
            frames = list(frames.values())
        elif not isinstance(frames, list):
            frames = [frames]
        for frame in frames:
            cjf = alone(frame).closed_joins
            masks, generic = generic_closed_join_frame(frame)
            assert cjf.masks == masks
            assert cjf.frame.labels == generic.labels
            for name in ("leq", "meet", "join", "imp"):
                assert np.array_equal(getattr(cjf.frame, name), getattr(generic, name))

    def test_joins_embed_into_sublocale_lattice(self, small_corpus):
        for frame in small_corpus[:40]:
            cjf = alone(frame).closed_joins
            for i, a in enumerate(cjf.masks):
                for j, b in enumerate(cjf.masks):
                    joined = sublocale_join([Sublocale(frame, a), Sublocale(frame, b)])
                    assert cjf.masks[int(cjf.frame.join[i, j])] == joined.mask


def first_undistributed(meet, join):
    """The first triple (s, t, u) in row-major order where meet fails to
    distribute over join, or None."""
    n = len(meet)
    return next(((s, t, u) for s in range(n) for t in range(n) for u in range(n)
                 if meet[s, join[t, u]] != join[meet[s, t], meet[s, u]]), None)


class TestClosedJoinFrameLaw:
    def test_every_single_entry_change_matches_the_triple_loop(self, b2):
        cjf = alone(b2).closed_joins
        levels = set()
        for table in ("meet", "join"):
            for a in range(4):
                for b in range(4):
                    for value in range(4):
                        frame = tampered(cjf.frame, table, {(a, b): value})
                        tampered_cjf = ClosedJoinFrame(b2, cjf.generators, frame, lambda: (
                            sublocales._distributivity(frame.meet[None], frame.join[None])[0]))
                        down = first_undistributed(frame.meet, frame.join)
                        up = first_undistributed(frame.join, frame.meet)
                        if (down is None) != (up is None):  # a breach raises
                            with pytest.raises(AssertionError) as err:
                                tampered_cjf.frame_law_report()
                            assert str(err.value) == (f"distributive={down is None} but "
                                                      f"dually distributive={up is None}")
                            levels.add("breach")
                            continue
                        report = tampered_cjf.frame_law_report()
                        levels.add(report.level)
                        if down is None:
                            assert report.ok
                        else:
                            names = [cjf.elements[k].label() for k in down]
                            assert report.witness == f"triple {names}"
        assert levels == {"pass", "fail", "breach"}


class TestClosedJoinFrames:
    def test_batch_matches_single_frames(self, small_corpus, tiny_corpus):
        frames = small_corpus + list(tiny_corpus.values())
        Random(0).shuffle(frames)  # carrier sizes mixed in one batch
        for batch, frame in zip(closed_join_frames(frames), frames):
            single = alone(frame).closed_joins
            assert batch.parent is frame
            assert batch.masks == single.masks
            assert batch.generators == single.generators
            assert batch.frame.labels == single.frame.labels
            for name in ("leq", "meet", "join", "imp"):
                assert np.array_equal(getattr(batch.frame, name), getattr(single.frame, name))

    def test_empty_batch(self):
        assert closed_join_frames([]) == []

    def test_frame_law_is_decided_once_per_stack(self, small_corpus, tiny_corpus, monkeypatch):
        calls = []
        witness = sublocales.distributivity_witness
        monkeypatch.setattr(sublocales, "distributivity_witness",
                            lambda meet, join: calls.append(len(meet)) or witness(meet, join))
        frames = small_corpus + list(tiny_corpus.values())
        batch = closed_join_frames(frames)
        assert calls == []
        reports = [cjf.frame_law_report() for cjf in batch]
        sizes = {frame.n for frame in frames}
        assert sorted(calls) == sorted(2 * [sum(f.n == n for f in frames) for n in sizes])
        assert reports == [alone(frame).closed_joins.frame_law_report() for frame in frames]
        assert all(report.ok for report in reports)

    @pytest.mark.parametrize("position", [0, 2])
    @pytest.mark.parametrize("bad", ["meet", "join"])
    def test_failing_frame_gets_its_own_error(self, tiny_corpus, bad, position):
        # the parent order is intact; one entry of the table carried over is not
        broken = tampered(tiny_corpus["bool2"], bad, {(1, 2): {"meet": 3, "join": 1}[bad]})
        message = {"meet": "closed-join join is not above both at (c(1), c(2))",
                   "join": "closed-join meet is not below both at (c(1), c(2))"}[bad]
        single = raised(lambda: alone(broken).closed_joins)
        assert single == (AssertionError, message, (message,))
        good = [tiny_corpus[name] for name in ("chain3", "bool3", "chain4", "grid2x3")]
        # each failing frame gets its own error, even when its carrier size is built first,
        # and the frames around them are built as if alone
        later = tampered(tiny_corpus["chain3"], "meet", {(0, 1): 2})
        batch = good[:position] + [broken] + good[position:] + [later]
        outcomes = closed_join_frames(batch)
        failed = {k for k, outcome in enumerate(outcomes) if isinstance(outcome, AssertionError)}
        assert failed == {position, len(batch) - 1}
        assert (type(outcomes[position]), str(outcomes[position])) == single[:2]
        assert str(outcomes[-1]) == raised(lambda: alone(later).closed_joins)[1]
        for outcome, frame in zip(outcomes, batch):
            if not isinstance(outcome, AssertionError):
                assert outcome.masks == alone(frame).closed_joins.masks


class TestClosedJoinMeet:
    def test_square_atoms_meet_to_least(self, b2):
        cjf = alone(b2).closed_joins
        meet = closed_join_meet(cjf, closed_sublocale(b2, 1), closed_sublocale(b2, 2))
        assert meet.mask == 1 << b2.top

    def test_top_is_neutral(self, small_corpus):
        for frame in small_corpus[:30]:
            cjf = alone(frame).closed_joins
            whole = Sublocale(frame, (1 << frame.n) - 1)
            for s in cjf.elements:
                assert closed_join_meet(cjf, s, whole).mask == s.mask
                assert closed_join_meet(cjf, s, s).mask == s.mask

    def test_meet_is_largest_below_intersection(self, small_corpus):
        for frame in small_corpus[:30]:
            cjf = alone(frame).closed_joins
            for s in cjf.elements:
                for t in cjf.elements:
                    value = closed_join_meet(cjf, s, t).mask
                    below = s.mask & t.mask
                    assert value & ~below == 0
                    for other in cjf.masks:
                        if other & ~below == 0:
                            assert other & ~value == 0


class TestIdentitiesAndDualBooleanization:
    def test_identities_hold_on_corpus(self, tiny_corpus):
        frames = [frame for _, frame in corpus.iter_distributive_frames(6)]
        for frame in frames + list(tiny_corpus.values()):
            assert closed_open(frame, 0).ok
            assert generic_closed_open_identities(frame).ok

    def test_twelve_elements_agree_with_the_family_oracle(self, tiny_corpus):
        frame = tiny_corpus["bool2xchain3"]  # 4,096 families
        assert frame.n == 12
        assert closed_open(frame, 0) == generic_closed_open_identities(frame)

    def test_every_single_entry_change_the_families_catch_fails(self, tiny_corpus):
        frames = [frame for _, frame in corpus.iter_distributive_frames(4)]
        frames += [tiny_corpus["bool3"], tiny_corpus["grid2x3"]]
        missed, caught = [], 0
        for k, frame in enumerate(frames):
            n = frame.n
            for table in ("meet", "join", "imp"):
                for a in range(n):
                    for b in range(n):
                        for value in set(range(n)) - {int(getattr(frame, table)[a, b])}:
                            broken = tampered(frame, table, {(a, b): value})
                            if generic_closed_open_identities(broken).ok:
                                continue
                            caught += 1
                            if closed_open(broken, 0).ok:
                                missed.append((k, table, a, b, value))
        assert missed == []
        assert caught > 0

    @pytest.mark.parametrize("name, table, a, b, value, identities, complements", [
        ("chain3", "imp", 0, 0, 0, "o(0) ≠ O", "c∩o ≠ O at 0"),
        ("chain3", "imp", 2, 0, 1, "o(1)∨o(2) ≠ o(join)", "c∨o ≠ L at 2"),
        ("chain3", "imp", 1, 0, 1, "", "c∩o ≠ O at 1"),
        ("chain3", "imp", 1, 0, 2, "", "c∨o ≠ L at 1"),
        ("bool2", "imp", 3, 0, 1, "o(0)∨o(3) ≠ o(join)", ""),
        ("bool2", "join", 0, 0, 1, "c(0)∩c(0) ≠ c(join)", ""),
        ("bool2xchain3", "join", 1, 2, 0, "c((0,1))∩c((0,2)) ≠ c(join)", ""),
        ("bool2", "meet", 1, 2, 3, "c(1)∨c(2) ≠ c(meet)", ""),
    ])
    def test_tampered_tables_name_the_first_witness(self, tiny_corpus, name, table, a, b,
                                                    value, identities, complements):
        frame = tampered(tiny_corpus[name], table, {(a, b): value})
        assert closed_open(frame, 0).witness == identities
        assert closed_open(frame, 1).witness == complements

    def test_an_order_with_no_bottom_names_the_nullary_law(self, c3):
        leq = c3.leq.copy()
        leq[0, 1] = False  # c(0) is no longer L
        frame = FiniteFrame(leq, c3.meet, c3.join, c3.imp, c3.labels)
        assert closed_open(frame, 0).witness == "c(0) ≠ L"
        assert generic_closed_open_identities(frame).witness == "⋂c over ()"

    def test_square_coincides_with_closed_joins(self, b2):
        assert set(alone(b2).lattice.masks) == set(alone(b2).closed_joins.masks)

    def test_distributive_iff_dually_distributive(self, small_corpus):
        # the report never raises a one-sided verdict on finite carriers
        for frame in small_corpus:
            alone(frame).closed_joins.frame_law_report()
