import pytest

from localekit.common import BudgetExceeded, IDENTITY_EXHAUSTIVE_LIMIT, pack_rows, unpack_rows
from localekit.lattice import FiniteFrame, find_order_isomorphism
from localekit.sublocales import (MixedParents, Sublocale, all_sublocales,
                                  closed_join_frame, closed_join_meet,
                                  closed_open_complements_report,
                                  closed_open_identities_check,
                                  closed_sublocale, dual_booleanization,
                                  is_sublocale, mask_of, meet_closure,
                                  open_sublocale, primes, sublocale_join,
                                  supplement)

from oracles import (brute_closed_join_elements, brute_primes, brute_sublocales,
                     meet_close)


def tampered(frame, table, a, b, value):
    """A FiniteFrame sharing frame's tables except for one entry of `table`."""
    tables = {name: getattr(frame, name).copy() for name in ("meet", "join", "imp")}
    tables[table][a, b] = value
    return FiniteFrame(frame.poset, tables["meet"], tables["join"], tables["imp"],
                       frame.labels)


class TestIsSublocale:
    def test_singleton_top_is_least(self, c3):
        assert is_sublocale(c3, [2])

    def test_bottom_top_pair(self, c3):
        assert is_sublocale(c3, [0, 2])

    def test_missing_top_reported(self, c3):
        verdict = is_sublocale(c3, [0, 1])
        assert not verdict
        assert verdict.condition == "missing-top"

    def test_meet_witness(self, b2):
        verdict = is_sublocale(b2, [1, 2, 3])
        assert not verdict
        assert verdict.condition == "meet"
        assert verdict.witness == (1, 2)

    def test_heyting_witness(self, b2):
        verdict = is_sublocale(b2, [0, 1, 3])  # 1 -> 0 = 2 missing
        assert not verdict
        assert verdict.condition == "heyting"
        a, s = verdict.witness
        assert int(b2.imp[a, s]) not in (0, 1, 3)


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
                assert is_sublocale(frame, closed_sublocale(frame, a).members)
                assert is_sublocale(frame, open_sublocale(frame, a).members)

    def test_complements(self, small_corpus):
        for frame in small_corpus:
            assert closed_open_complements_report(frame).ok


class TestMeetClosure:
    def test_matches_fixpoint_oracle(self, small_corpus, tiny_corpus):
        for frame in [*small_corpus, *tiny_corpus.values()]:
            masks = range(1 << frame.n)
            got = pack_rows(meet_closure(frame, unpack_rows(masks, frame.n)))
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
        atoms = {j for i, j in b2.poset.covers() if i == b2.bottom}
        assert set(primes(b2)) == atoms == {1, 2}

    def test_grid(self, grid):
        assert primes(grid) == brute_primes(grid)
        assert len(primes(grid)) == 3

    def test_count_is_power_of_two(self, small_corpus):
        for frame in small_corpus:
            assert len(all_sublocales(frame)) == 2 ** len(brute_primes(frame))

    def test_prime_sets_are_the_members(self, small_corpus):
        for frame in small_corpus:
            ps = primes(frame)
            lattice = all_sublocales(frame)
            for mask, y in zip(lattice.masks, lattice.prime_sets):
                assert y == mask_of(k for k, p in enumerate(ps) if mask >> p & 1)

    def test_supplement_complements_the_primes(self, small_corpus):
        for frame in small_corpus:
            ps = primes(frame)
            lattice = all_sublocales(frame)
            for s in lattice.sublocales:
                rest = mask_of(p for p in ps if not s.mask >> p & 1)
                expected = meet_close(frame, rest | 1 << frame.top)
                assert supplement(s, lattice).mask == expected


class TestSublocaleLattice:
    def test_chain3_has_four(self, c3):
        lattice = all_sublocales(c3)
        assert [s.label() for s in lattice.sublocales] == ["O", "{0,2}", "{1,2}", "L"]

    def test_chain3_is_boolean_square(self, c3, b2):
        lattice = all_sublocales(c3)
        from localekit.lattice import FinitePoset, validate_frame
        frame = validate_frame(FinitePoset(lattice.leq))
        assert find_order_isomorphism(frame, b2) is not None

    def test_chain2_trivial(self, c2):
        assert len(all_sublocales(c2)) == 2

    def test_square_contains_closed_and_open(self, b2):
        masks = set(all_sublocales(b2).masks)
        for a in range(b2.n):
            assert closed_sublocale(b2, a).mask in masks
            assert open_sublocale(b2, a).mask in masks

    def test_matches_naive_scan(self, small_corpus):
        for frame in small_corpus:
            assert list(all_sublocales(frame).masks) == \
                sorted(brute_sublocales(frame), key=lambda m: (bin(m).count("1"), m))

    def test_budget(self, c3):
        with pytest.raises(BudgetExceeded):
            all_sublocales(c3, budget=1)

    def test_meets_are_intersections(self, small_corpus):
        for frame in small_corpus[:40]:
            lattice = all_sublocales(frame)
            meet = lattice.meet_table
            for i, a in enumerate(lattice.masks):
                for j, b in enumerate(lattice.masks):
                    assert lattice.masks[int(meet[i, j])] == a & b

    def test_coframe_law_and_lub(self, small_corpus):
        for frame in small_corpus:
            lattice = all_sublocales(frame)
            assert lattice.coframe_law_report().ok
            assert lattice.join_is_lub_report().ok

    def test_join_monotone(self, small_corpus):
        for frame in small_corpus[:30]:
            lattice = all_sublocales(frame)
            join, leq = lattice.join_table, lattice.leq
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
        for frame in small_corpus[:40]:
            assert sublocale_laws(frame).ok


class TestSupplement:
    def test_chain3_supplements(self, c3):
        lattice = all_sublocales(c3)
        c_m = closed_sublocale(c3, 1)
        o_m = open_sublocale(c3, 1)
        assert supplement(c_m, lattice).mask == o_m.mask
        whole = Sublocale(c3, (1 << c3.n) - 1)
        least = Sublocale(c3, 1 << c3.top)
        assert supplement(whole, lattice).mask == least.mask
        assert supplement(least, lattice).mask == whole.mask

    def test_supplement_joins_to_top(self, small_corpus):
        for frame in small_corpus[:40]:
            lattice = all_sublocales(frame)
            join = lattice.join_table
            supp = lattice.supplements
            for i in range(len(lattice)):
                assert int(join[i, supp[i]]) == lattice.top_index


class TestClosedJoinFrame:
    def test_chain3_is_three_chain(self, c3):
        cjf = closed_join_frame(c3)
        assert len(cjf) == 3
        assert all(cjf.frame.leq[i, j] for i in range(3) for j in range(i, 3))

    def test_square_is_isomorphic_to_itself(self, b2):
        cjf = closed_join_frame(b2)
        assert len(cjf) == 4
        assert find_order_isomorphism(cjf.frame, b2) is not None

    def test_degenerate(self, c1):
        assert len(closed_join_frame(c1)) == 1

    def test_elements_match_join_formula_oracle(self, small_corpus):
        for frame in small_corpus:
            cjf = closed_join_frame(frame)
            assert sorted(cjf.masks) == brute_closed_join_elements(frame)

    def test_frame_law(self, small_corpus):
        for frame in small_corpus:
            assert closed_join_frame(frame).frame_law_report().ok

    def test_joins_embed_into_sublocale_lattice(self, small_corpus):
        for frame in small_corpus[:40]:
            cjf = closed_join_frame(frame)
            for i, a in enumerate(cjf.masks):
                for j, b in enumerate(cjf.masks):
                    joined = sublocale_join([Sublocale(frame, a), Sublocale(frame, b)])
                    assert cjf.masks[int(cjf.join_table[i, j])] == joined.mask


class TestClosedJoinMeet:
    def test_square_atoms_meet_to_least(self, b2):
        cjf = closed_join_frame(b2)
        meet = closed_join_meet(cjf, closed_sublocale(b2, 1), closed_sublocale(b2, 2))
        assert meet.mask == 1 << b2.top

    def test_top_is_neutral(self, small_corpus):
        for frame in small_corpus[:30]:
            cjf = closed_join_frame(frame)
            whole = Sublocale(frame, (1 << frame.n) - 1)
            for s in cjf.elements:
                assert closed_join_meet(cjf, s, whole).mask == s.mask
                assert closed_join_meet(cjf, s, s).mask == s.mask

    def test_meet_is_largest_below_intersection(self, small_corpus):
        for frame in small_corpus[:30]:
            cjf = closed_join_frame(frame)
            for s in cjf.elements:
                for t in cjf.elements:
                    value = closed_join_meet(cjf, s, t).mask
                    below = s.mask & t.mask
                    assert value & ~below == 0
                    for other in cjf.masks:
                        if other & ~below == 0:
                            assert other & ~value == 0


class TestIdentitiesAndDualBooleanization:
    def test_identities_hold_on_corpus(self, small_corpus):
        for frame in small_corpus:
            assert closed_open_identities_check(frame).ok

    def test_sampled_mode_agrees(self, tiny_corpus):
        frame = tiny_corpus["bool2xchain3"]
        assert frame.n > IDENTITY_EXHAUSTIVE_LIMIT
        assert closed_open_identities_check(frame).ok

    @pytest.mark.parametrize("name, table, a, b, value, identities, complements", [
        ("chain3", "imp", 0, 0, 0, "⋁o over ()", "c∩o ≠ O at 0"),
        ("chain3", "imp", 2, 0, 1, "⋁o over (1, 2)", "c∨o ≠ L at 2"),
        ("chain3", "imp", 1, 0, 1, "", "c∩o ≠ O at 1"),
        ("chain3", "imp", 1, 0, 2, "", "c∨o ≠ L at 1"),
        ("bool2", "imp", 3, 0, 1, "⋁o over (1, 2)", ""),
        ("bool2", "join", 0, 0, 1, "⋂c over (0,)", ""),
        ("bool2xchain3", "join", 1, 2, 0, "⋂c over (0, 1, 2, 6, 9)", ""),
    ])
    def test_tampered_tables_name_the_first_witness(self, tiny_corpus, name, table, a, b,
                                                    value, identities, complements):
        frame = tampered(tiny_corpus[name], table, a, b, value)
        assert closed_open_identities_check(frame).witness == identities
        assert closed_open_complements_report(frame).witness == complements

    def test_chain3_every_sublocale_is_fixed(self, c3):
        fixed = dual_booleanization(c3)
        assert len(fixed) == 4

    def test_square_coincides_with_closed_joins(self, b2):
        fixed = {s.mask for s in dual_booleanization(b2)}
        assert fixed == set(closed_join_frame(b2).masks)

    def test_degenerate(self, c1):
        fixed = dual_booleanization(c1)
        assert [s.mask for s in fixed] == [1]

    def test_distributive_iff_dually_distributive(self, small_corpus):
        # the report never returns a one-sided verdict on finite carriers
        for frame in small_corpus:
            report = closed_join_frame(frame).frame_law_report()
            assert report.level != "violation"
