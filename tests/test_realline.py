import contextlib
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localekit import checks
from localekit import realline as rl
from localekit.realline import (NEG_INF, POS_INF, EmptyInterval, InvalidPair, KRealPair,
                                NotDescending, NotRegular, PaddedTerms, PointInU, RationalClosed,
                                RationalOpen, ZeroPoint, closed_interval, closure,
                                complement_closed, contains_point, descending_pair,
                                exclusion_certificate, forcing_check, format_open_set, interior,
                                intersect, is_subset, normalize, open_interval, parse_open_set,
                                pseudocomplement, punctured_reals, recovery_report, regularize,
                                union, union_closed, zero_padded_term)

import oracles

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=40)


@st.composite
def open_sets(draw, max_cuts=6):
    """A union of some of the gaps that sorted cuts leave in the line.

    The outer gaps are rays, and two chosen neighbours share their cut as an
    endpoint, as in (0,1);(1,2); no cuts give the empty set or the reals.
    """
    cuts = sorted(draw(st.lists(rationals, max_size=max_cuts, unique=True)))
    gaps = list(zip([NEG_INF] + cuts, cuts + [POS_INF]))
    keep = draw(st.lists(st.booleans(), min_size=len(gaps), max_size=len(gaps)))
    return normalize([gap for gap, kept in zip(gaps, keep) if kept])


@st.composite
def regular_sets(draw):
    return regularize(draw(open_sets()))


class TestExtRat:
    """The extended rationals Q ∪ {±inf}: Fractions and the floats NEG_INF, POS_INF."""

    def test_total_order(self):
        values = [NEG_INF, Fraction(-5), Fraction(-1, 3), Fraction(0),
                  Fraction(1, 3), Fraction(7), POS_INF]
        for i, a in enumerate(values):
            for j, b in enumerate(values):
                assert (a < b) == (i < j)
                assert (a == b) == (i == j)
        assert sorted(reversed(values)) == values

    def test_negation(self):
        assert -POS_INF == NEG_INF
        assert -Fraction(2, 3) == Fraction(-2, 3)

    @pytest.mark.parametrize("text", ["inf", "-inf", "3/4", "-11", "0"])
    def test_parse_format_roundtrip(self, text):
        assert rl.format_endpoint(rl.parse_endpoint(text)) == text

    def test_infinite_has_no_fraction(self):
        for end in (NEG_INF, POS_INF):
            assert not isinstance(end, Fraction)
            with pytest.raises(OverflowError):
                Fraction(end)

    @pytest.mark.parametrize("text,value", [("+inf", POS_INF), (" -3/6 ", Fraction(-1, 2)),
                                            ("+7", Fraction(7)), ("007/2", Fraction(7, 2))])
    def test_parse_accepts_the_grammar(self, text, value):
        assert rl.parse_endpoint(text) == value

    @pytest.mark.parametrize("text", ["nan", "1/0", "-0/0", "1e3", "1.5", "1_0", "1 /2",
                                      "--1", "1/-2", "infinity", "", "/2"])
    def test_parse_rejects_outside_the_grammar(self, text):
        with pytest.raises(ValueError):
            rl.parse_endpoint(text)

    def test_nan_is_not_an_endpoint(self):
        with pytest.raises(ValueError):
            normalize([(float("nan"), 1)])
        with pytest.raises(ValueError):
            open_interval(0, float("nan"))


WIDE = 10 ** 12
wide_rationals = st.builds(Fraction, st.integers(-WIDE, WIDE), st.integers(1, WIDE))
extended = st.one_of(st.just(Fraction(0)), rationals, st.integers(-WIDE, WIDE).map(Fraction),
                     wide_rationals, st.sampled_from([NEG_INF, POS_INF]))
COMPARISONS = (operator.lt, operator.le, operator.eq, operator.ne, operator.gt, operator.ge)


@st.composite
def endpoint_pairs(draw):
    """Two extended rationals, equal about as often as not; a finite one is
    sometimes paired with a neighbour within 1/d, whose continued fraction
    shares a long prefix with its own."""
    a = draw(extended)
    others = [st.just(a), extended]
    if isinstance(a, Fraction):
        others.append(st.builds(lambda d, up: a + Fraction(1 if up else -1, d),
                                st.integers(1, WIDE), st.booleans()))
    return a, draw(st.one_of(others))


def _native(value):
    return rl.Rat(value) if isinstance(value, Fraction) else value


def _endpoints(a):
    return [end for component in a.components for end in component]


@contextlib.contextmanager
def _fraction_comparisons():
    """Yields a list that gets one entry per call of a comparison dunder
    of Fraction, which a Rat inherits, while the block runs."""
    calls = []
    originals = {name: getattr(Fraction, name)
                 for name in ("__lt__", "__le__", "__eq__", "__gt__", "__ge__")}

    def counted(name, original):
        def compare(a, b):
            calls.append(name)
            return original(a, b)
        return compare
    try:
        for name, original in originals.items():
            setattr(Fraction, name, counted(name, original))
        yield calls
    finally:
        for name, original in originals.items():
            setattr(Fraction, name, original)


class TestNativeComparison:
    """rl.Rat and its order key against plain Fraction comparison, their oracle."""

    @given(endpoint_pairs(), st.booleans(), st.booleans())
    def test_operators_agree_with_fraction(self, pair, native_a, native_b):
        a, b = pair
        left = _native(a) if native_a else a
        right = _native(b) if native_b else b
        for op in COMPARISONS:
            assert op(left, right) is op(a, b), (op.__name__, left, right)
            assert op(_native(a).key, _native(b).key) is op(a, b), (op.__name__, a, b)

    @given(rationals)
    def test_hash_and_value_match_fraction(self, x):
        native = rl.Rat(x)
        assert hash(native) == hash(x) and native == x
        assert {native: 1}[x] == 1 and x in {native}
        assert type(-native) is Fraction and -native == -x

    @given(open_sets(), open_sets())
    def test_built_endpoints_are_native(self, a, b):
        built = (a, intersect(a, b), union(a, b), closure(a),
                 union_closed(closure(a), complement_closed(b)))
        for end in (end for c in built for end in _endpoints(c)):
            assert type(end) is rl.Rat or end is NEG_INF or end is POS_INF
            if type(end) is rl.Rat:
                assert end.key == rl.Rat(end.numerator, end.denominator).key
        assert NEG_INF.key == (float("-inf"),) and POS_INF.key == (float("inf"),)

    @given(open_sets(), open_sets(), rationals)
    def test_set_operations_compare_keys_only(self, a, b, x):
        closed, x = (closure(a), complement_closed(b)), rl.Rat(x)
        with _fraction_comparisons() as calls:
            union(a, b), union_closed(*closed), intersect(a, b), closure(a)
            interior(closed[1]), complement_closed(a), is_subset(a, b), contains_point(a, x)
        assert calls == []
        with _fraction_comparisons() as calls:  # the counter sees the inherited route
            assert rl.Rat(1, 3) < x + 31 and rl.Rat(1, 3) != x + 31
        assert calls == ["__lt__", "__eq__"]

    def test_any_infinity_becomes_its_sentinel(self):
        (lo, hi), = normalize([(float("-inf"), Fraction(1, 2))]).components
        assert lo is NEG_INF and type(hi) is rl.Rat
        assert normalize([(0, -NEG_INF)]).components[0][1] is POS_INF


class TestFractionRoute:
    """The interval-set primitives against their plain-Fraction routes; the
    unions and closure against re-sorting every component, as they once did."""

    @given(open_sets(), open_sets())
    def test_normalize(self, a, b):
        intervals = list(reversed(a.components + b.components))
        assert normalize(intervals).components == oracles.fraction_normalize(intervals)

    @given(open_sets(), open_sets())
    def test_intersect(self, a, b):
        assert intersect(a, b).components == oracles.fraction_intersect(a, b)

    @given(open_sets(), open_sets())
    def test_is_subset(self, a, b):
        both = intersect(a, b)  # a subset of each, so both verdicts are drawn
        for smaller, larger in ((a, b), (both, a), (both, b)):
            assert is_subset(smaller, larger) == oracles.fraction_is_subset(smaller, larger)

    @given(open_sets(), open_sets())
    def test_union(self, a, b):
        for left, right in ((a, b), (b, a), (a, intersect(a, b)), (a, a)):
            assert union(left, right).components == oracles.fraction_union(left, right)

    @given(open_sets(), open_sets())
    def test_union_closed(self, a, b):
        # complements hold points, as the complement of (0,1);(1,2) holds [1,1]
        closed = (closure(a), closure(b), complement_closed(a), complement_closed(b))
        for c in closed:
            for d in closed:
                assert union_closed(c, d).components == oracles.fraction_union_closed(c, d)

    @given(open_sets())
    def test_closure(self, a):
        assert closure(a).components == oracles.fraction_closure(a.components)


def _closed(*pairs):
    return RationalClosed(tuple((rl.Rat(lo), rl.Rat(hi)) for lo, hi in pairs))


class TestMerges:
    """Named cases of the merges, in both argument orders and against the oracles."""

    @pytest.mark.parametrize("a,b,expected", [
        ("(0,1)", "(1,2)", "(0,1);(1,2)"),  # touching opens stay apart
        ("(0,3)", "(1,2)", "(0,3)"),  # nested
        ("(0,1);(2,3)", "(0,1);(2,3)", "(0,1);(2,3)"),  # identical
        ("(0,1);(4,5)", "(2,3)", "(0,1);(2,3);(4,5)"),  # disjoint, interleaved
        ("(0,2);(3,5)", "(1,4)", "(0,5)"),  # one bridges two
        ("(-inf,inf)", "(0,1);(2,3)", "(-inf,inf)"),
        ("(-inf,inf)", "empty", "(-inf,inf)"),
    ])
    def test_union(self, a, b, expected):
        a, b = parse_open_set(a), parse_open_set(b)
        for left, right in ((a, b), (b, a)):
            got = union(left, right)
            assert got == parse_open_set(expected)
            assert got.components == oracles.fraction_union(left, right)

    def test_touching_opens_close_to_one_interval(self):
        assert closure(union(open_interval(0, 1), open_interval(1, 2))) == closed_interval(0, 2)
        assert closure(RationalOpen.reals()) == RationalClosed.reals()
        assert closure(RationalOpen.empty()) == RationalClosed(())

    @pytest.mark.parametrize("c,d,expected", [
        (((1, 1),), ((1, 3),), ((1, 3),)),  # a point fuses with an interval it ends
        (((3, 3),), ((1, 3),), ((1, 3),)),
        (((1, 1),), ((1, 1),), ((1, 1),)),  # identical
        (((0, 4),), ((1, 2),), ((0, 4),)),  # nested
        (((0, 1),), ((1, 2),), ((0, 2),)),  # touching closed intervals join
        (((0, 1), (4, 5)), ((2, 3),), ((0, 1), (2, 3), (4, 5))),  # disjoint
        (((0, 1), (2, 3)), ((1, 2),), ((0, 3),)),  # one bridges two
        (((0, 0), (2, 2)), ((0, 2),), ((0, 2),)),
    ])
    def test_union_closed(self, c, d, expected):
        c, d = _closed(*c), _closed(*d)
        for left, right in ((c, d), (d, c)):
            got = union_closed(left, right)
            assert got == _closed(*expected)
            assert got.components == oracles.fraction_union_closed(left, right)

    @pytest.mark.parametrize("c", [RationalClosed(()), closed_interval(1, 1),
                                   closed_interval(NEG_INF, 0), closed_interval(0, POS_INF)])
    def test_union_closed_with_the_line(self, c):
        line = RationalClosed.reals()
        assert union_closed(line, c) == line and union_closed(c, line) == line


class TestNormalize:
    def test_overlapping_merge(self):
        got = normalize([(0, 1), (Fraction(1, 2), 2)])
        assert got == open_interval(0, 2)

    def test_adjacent_stay_separate(self):
        got = normalize([(0, 1), (1, 2)])
        assert got.components == ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(2)))

    def test_empty(self):
        assert normalize([]) == RationalOpen.empty()

    def test_rejects_degenerate(self):
        with pytest.raises(EmptyInterval):
            normalize([(1, 1)])

    @given(open_sets())
    def test_idempotent(self, a):
        assert normalize(a.components) == a


class TestSetOps:
    def test_union_example(self):
        got = union(open_interval(0, 1), open_interval(Fraction(-1, 4), Fraction(1, 4)))
        assert got == open_interval(Fraction(-1, 4), 1)

    def test_disjoint_intersection(self):
        assert intersect(open_interval(0, 1), open_interval(1, 2)).is_empty

    def test_reals_is_unit(self):
        a = parse_open_set("(0,1);(3,7)")
        assert intersect(a, RationalOpen.reals()) == a

    @given(open_sets(), open_sets())
    def test_union_membership(self, a, b):
        u = union(a, b)
        for x in oracles.probe_points(a, b, u):
            assert contains_point(u, x) == (contains_point(a, x) or contains_point(b, x))

    @given(open_sets(), open_sets())
    def test_intersection_membership(self, a, b):
        v = intersect(a, b)
        for x in oracles.probe_points(a, b, v):
            assert contains_point(v, x) == (contains_point(a, x) and contains_point(b, x))


class TestIsSubset:
    @pytest.mark.parametrize("a,b,expected", [
        ("(0,2)", "(0,1);(1,2)", False),
        ("(0,1);(1,2)", "(0,2)", True),
        ("(0,1);(1,2)", "(0,1);(1,2)", True),
        ("(-inf,0)", "(-inf,1)", True),
        ("(-inf,1)", "(-inf,0)", False),
        ("(0,inf)", "(-1,inf)", True),
        ("(-1,inf)", "(0,inf)", False),
        ("(-inf,0);(0,inf)", "(-inf,inf)", True),
        ("(-inf,inf)", "(-inf,0);(0,inf)", False),
        ("(-inf,inf)", "(-inf,inf)", True),
        ("(0,1)", "(-inf,inf)", True),
        ("(-inf,inf)", "(-inf,0);(1,inf)", False),
        ("empty", "(0,1)", True),
        ("empty", "empty", True),
        ("(0,1)", "empty", False),
        ("(-inf,inf)", "empty", False),
    ])
    def test_named_cases(self, a, b, expected):
        a, b = parse_open_set(a), parse_open_set(b)
        assert is_subset(a, b) == expected
        assert oracles.generic_is_subset(a, b) == expected

    @given(open_sets(), open_sets())
    def test_against_both_oracles(self, a, b):
        got = is_subset(a, b)
        assert got == oracles.generic_is_subset(a, b)
        assert got == all(contains_point(b, x) for x in oracles.probe_points(a, b)
                          if contains_point(a, x))


class TestClosureInterior:
    def test_closure_fuses_touching(self):
        got = closure(parse_open_set("(0,1);(1,2)"))
        assert got == closed_interval(0, 2)

    def test_interior_merges_then_opens(self):
        got = interior(rl.union_closed(closed_interval(0, 1), closed_interval(1, 2)))
        assert got == open_interval(0, 2)

    def test_point_has_empty_interior(self):
        assert interior(closed_interval(3, 3)).is_empty

    @given(open_sets())
    def test_closure_membership(self, a):
        c = closure(a)
        for x in oracles.probe_points(a):
            assert oracles.closed_member(c, x) == oracles.oracle_closure_member(a, x)

    @given(open_sets())
    def test_interior_of_closure_membership(self, a):
        c = closure(a)
        inner = interior(c)
        for x in oracles.probe_points(a, inner):
            assert contains_point(inner, x) == oracles.oracle_interior_member(c, x)


class TestPseudocomplement:
    def test_unit_interval(self):
        assert format_open_set(pseudocomplement(open_interval(0, 1))) == "(-inf,0);(1,inf)"

    def test_regularization_example(self):
        assert regularize(parse_open_set("(0,1);(1,2)")) == open_interval(0, 2)

    def test_empty(self):
        assert pseudocomplement(RationalOpen.empty()) == RationalOpen.reals()
        assert regularize(RationalOpen.empty()).is_empty

    @given(open_sets())
    def test_membership_against_oracle(self, a):
        star = pseudocomplement(a)
        for x in oracles.probe_points(a, star):
            assert contains_point(star, x) == oracles.oracle_pseudocomplement_member(a, x)

    @given(open_sets())
    def test_double_negation_laws(self, a):
        reg = regularize(a)
        assert is_subset(a, reg)
        assert pseudocomplement(reg) == pseudocomplement(a)  # a* = a***
        assert pseudocomplement(pseudocomplement(a)) == reg

    @given(regular_sets())
    def test_boolean_laws(self, a):
        assert regularize(a) == a
        star = pseudocomplement(a)
        assert intersect(a, star).is_empty
        assert regularize(union(a, star)) == RationalOpen.reals()


class TestZeroPaddedTerm:
    def test_stage_one_swallows_the_gap(self):
        assert zero_padded_term(open_interval(1, 2), 1) == open_interval(-1, 2)

    def test_stage_four_keeps_components_apart(self):
        got = zero_padded_term(open_interval(1, 2), 4)
        assert format_open_set(got) == "(-1/4,1/4);(1,2)"

    def test_empty_base(self):
        got = zero_padded_term(RationalOpen.empty(), 3)
        assert format_open_set(got) == "(-1/3,1/3)"

    def test_rejects_non_regular(self):
        with pytest.raises(NotRegular) as err:
            zero_padded_term(parse_open_set("(0,1);(1,2)"), 2)
        assert err.value.regularization == open_interval(0, 2)

    @given(regular_sets(), st.integers(min_value=1, max_value=12))
    @settings(max_examples=60)
    def test_term_contains_base_and_zero_and_descends(self, u, n):
        term = zero_padded_term(u, n)
        assert is_subset(u, term)
        assert contains_point(term, 0)
        assert is_subset(zero_padded_term(u, n + 1), term)


class TestExclusionCertificate:
    def test_half_needs_stage_three(self):
        cert = exclusion_certificate(open_interval(1, 2), Fraction(1, 2))
        assert cert.stage == 3
        assert format_open_set(cert.term) == "(-1/3,1/3);(1,2)"

    def test_far_point_needs_stage_one(self):
        cert = exclusion_certificate(open_interval(1, 2), Fraction(5))
        assert cert.stage == 1
        assert not contains_point(cert.term, 5)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPoint):
            exclusion_certificate(open_interval(1, 2), Fraction(0))

    def test_inner_point_rejected(self):
        with pytest.raises(PointInU):
            exclusion_certificate(open_interval(1, 2), Fraction(3, 2))

    def test_point_errors_come_before_regularity(self):
        u = parse_open_set("(0,1);(1,2)")
        with pytest.raises(ZeroPoint):
            exclusion_certificate(u, Fraction(0))
        with pytest.raises(PointInU):
            exclusion_certificate(u, Fraction(1, 2))
        with pytest.raises(NotRegular):
            exclusion_certificate(u, Fraction(1))

    @given(regular_sets(), rationals)
    @settings(max_examples=80)
    def test_total_on_outside_points(self, u, x):
        if x == 0 or contains_point(u, x):
            return
        cert = exclusion_certificate(u, x)
        assert not contains_point(cert.term, x)
        assert Fraction(1, cert.stage) < abs(x)
        assert cert.stage == 1 or Fraction(1, cert.stage - 1) >= abs(x)


class TestPaddedTerms:
    """One family of terms per set: each stage is built once, by _padded_term."""

    U = open_interval(1, 2)

    @staticmethod
    def _count_stages(monkeypatch):
        built = []
        original = rl._padded_term

        def counted(u, n):
            built.append(n)
            return original(u, n)
        monkeypatch.setattr(rl, "_padded_term", counted)
        return built

    def test_grows_one_stage_at_a_time(self, monkeypatch):
        built = self._count_stages(monkeypatch)
        family = PaddedTerms(self.U)
        assert built == []
        assert family.upto(3) == [zero_padded_term(self.U, n) for n in (1, 2, 3)]
        built.clear()
        assert len(family.upto(2)) == 2 and built == []
        family.upto(5)
        assert built == [4, 5]

    def test_ascent_raises_and_is_not_kept(self, monkeypatch):
        _swap_stage(monkeypatch, 4, 1)
        family = PaddedTerms(self.U)
        for _ in range(2):
            with pytest.raises(NotDescending, match="^terms are not descending at stage 4$"):
                family.upto(6)
        assert len(family.upto(3)) == 3

    def test_rejects_non_regular(self):
        with pytest.raises(NotRegular) as err:
            PaddedTerms(parse_open_set("(0,1);(1,2)"))
        assert err.value.regularization == open_interval(0, 2)

    def test_decides_regularity_once(self, monkeypatch):
        decided = []
        original = rl.is_regular
        monkeypatch.setattr(rl, "is_regular", lambda a: decided.append(a) or original(a))
        PaddedTerms(self.U).upto(6)
        assert decided == [self.U]

    def test_lemma_invariants_decides_containment_once_per_stage(self, monkeypatch):
        pairs = []
        original = rl.is_subset
        monkeypatch.setattr(rl, "is_subset", lambda a, b: pairs.append((a, b)) or original(a, b))
        assert checks.lemma_invariants(self.U, [Fraction(1, 2)]).ok
        assert sum(a == self.U for a, _ in pairs) == rl.STAGES

    @pytest.mark.parametrize("points,stages", [([Fraction(5)], 20),
                                               ([Fraction(1, 2), Fraction(-1, 30)], 31),
                                               ([Fraction(1, 45), Fraction(1, 3)], 46)])
    def test_lemma_invariants_builds_each_stage_once(self, monkeypatch, points, stages):
        built = self._count_stages(monkeypatch)
        assert checks.lemma_invariants(self.U, points).ok
        assert built == list(range(1, stages + 1))

    def test_standalone_certificate_builds_every_stage(self, monkeypatch):
        built = self._count_stages(monkeypatch)
        cert = exclusion_certificate(self.U, Fraction(1, 30))
        assert cert.stage == 31
        assert built == list(range(1, 32))

    @given(regular_sets(), st.lists(rationals, max_size=4))
    @settings(max_examples=25)
    def test_shared_family_gives_the_standalone_results(self, u, points):
        family = PaddedTerms(u)
        for x in points:
            if x != 0 and not contains_point(u, x):
                assert family.certificate(x) == exclusion_certificate(u, x)
        assert recovery_report(u, containment=True) == recovery(u, 8)


def recovery(u, stages):
    """The interior-recovery report of u, with u ⊆ term_n decided for every
    stage up to the bound on one family, as lemma1-invariants decides it."""
    return recovery_report(u, all(is_subset(u, term) for term in PaddedTerms(u).upto(stages)))


class TestInteriorRecovery:
    def test_gap_at_zero(self):
        assert recovery(open_interval(1, 2), 10).passed

    def test_zero_inside_is_trivial(self):
        report = recovery(open_interval(-1, 1), 5)
        assert report.passed and report.zero_in_set

    def test_empty_set(self):
        assert recovery(RationalOpen.empty(), 5).passed

    @given(regular_sets())
    @settings(max_examples=60)
    def test_always_passes_on_regular(self, u):
        assert recovery(u, 8).passed


def _swap_stage(monkeypatch, bad_stage, replacement_stage):
    """Make _padded_term return another stage's term at bad_stage."""
    original = rl._padded_term
    monkeypatch.setattr(rl, "_padded_term",
                        lambda u, n: original(u, replacement_stage if n == bad_stage else n))


class TestLemmaInvariantFaults:
    """Each fault injected into the lemma1 machinery gives its own verdict."""

    U = open_interval(1, 2)

    def test_disagreeing_forms_are_a_violation(self, monkeypatch):
        original = rl.open_interval

        def widened(lo, hi):  # the second form's interval at stage 5 only
            return original(2 * lo, 2 * hi) if hi == Fraction(1, 5) else original(lo, hi)
        monkeypatch.setattr(rl, "open_interval", widened)
        # a breach: the campaign loop records it as this sample's violation
        with pytest.raises(AssertionError,
                           match=r"^term forms disagree at stage 5 for \(1,2\)$"):
            checks.lemma_invariants(self.U, [Fraction(5)])

    def test_ascent_within_the_stages_raises(self, monkeypatch):
        _swap_stage(monkeypatch, 7, 3)
        with pytest.raises(AssertionError, match="^terms are not descending at stage 7$"):
            checks.lemma_invariants(self.U, [Fraction(5)])

    def test_ascent_beyond_the_stages_raises_from_the_certificate(self, monkeypatch):
        _swap_stage(monkeypatch, 25, 3)
        assert checks.lemma_invariants(self.U, [Fraction(5)]).ok
        with pytest.raises(AssertionError, match="^terms are not descending at stage 25$"):
            checks.lemma_invariants(self.U, [Fraction(5), Fraction(1, 30)])

    def test_certificate_term_containing_the_point_raises(self, monkeypatch):
        def lying(family, x):
            return rl.ObstructionCertificate(stage=3, term=RationalOpen.reals())
        monkeypatch.setattr(rl.PaddedTerms, "certificate", lying)
        with pytest.raises(AssertionError, match="^certificate term contains 1/2$"):
            checks.lemma_invariants(self.U, [Fraction(1, 2)])


class TestDescendingPairs:
    def test_interval_pair_stage_two(self):
        pair = KRealPair(open_interval(1, 2), open_interval(1, 2))
        stage = descending_pair(pair, 2)
        assert format_open_set(stage.first) == "(-1/2,0);(0,1/2);(1,2)"
        assert format_open_set(stage.second) == "(-1/2,1/2);(1,2)"

    def test_empty_pair_stage_three(self):
        pair = KRealPair(RationalOpen.empty(), RationalOpen.empty())
        stage = descending_pair(pair, 3)
        assert format_open_set(stage.first) == "(-1/3,0);(0,1/3)"
        assert format_open_set(stage.second) == "(-1/3,1/3)"

    def test_line_is_absorbing(self):
        pair = KRealPair(RationalOpen.reals(), RationalOpen.reals())
        stage = descending_pair(pair, 7)
        assert stage.first == RationalOpen.reals()
        assert stage.second == RationalOpen.reals()

    def test_broken_containment_chain_raises(self, monkeypatch):
        pair = KRealPair(open_interval(1, 2), open_interval(1, 2))
        monkeypatch.setattr(rl, "regularize", lambda a: RationalOpen.empty())
        with pytest.raises(AssertionError, match="^containment chain broke at stage 2$"):
            descending_pair(pair, 2)

    def test_stage_below_its_generator_raises(self, monkeypatch):
        pair = KRealPair(RationalOpen.empty(), RationalOpen.empty())
        monkeypatch.setattr(rl, "union", lambda a, b: b)  # the window joins neither coordinate
        with pytest.raises(AssertionError, match="^stage 3 pair is not above its generator$"):
            descending_pair(pair, 3)

    def test_invalid_pair_rejected(self):
        with pytest.raises(InvalidPair):
            KRealPair(RationalOpen.reals(), open_interval(0, 1))
        with pytest.raises(InvalidPair):
            KRealPair(open_interval(0, 1), parse_open_set("(0,1);(1,2)"))


class TestForcing:
    def test_covered_candidate_is_forced(self):
        w = Fraction(1, 5)
        candidate = KRealPair(union(punctured_reals(), open_interval(-w, w)),
                              RationalOpen.reals())
        verdict = forcing_check(candidate, 5)
        assert verdict.forced and verdict.first_is_line and verdict.second_is_line

    def test_punctured_line_is_not_forced(self):
        candidate = KRealPair(punctured_reals(), RationalOpen.reals())
        verdict = forcing_check(candidate, 5)
        assert not verdict.forced
        assert verdict.has_punctured_line and not verdict.has_zero_interval

    def test_line_is_already_top(self):
        candidate = KRealPair(RationalOpen.reals(), RationalOpen.reals())
        assert forcing_check(candidate, 3).forced

    def test_forced_candidate_off_the_line_raises(self, monkeypatch):
        candidate = KRealPair(RationalOpen.empty(), RationalOpen.empty())
        monkeypatch.setattr(rl, "is_subset", lambda a, b: True)
        with pytest.raises(AssertionError, match="^forcing hypotheses hold but a coordinate "
                                                 "is not the line$"):
            forcing_check(candidate, 4)


class TestTextFormat:
    @pytest.mark.parametrize("text", ["empty", "(0,1)", "(-inf,0);(1,inf)",
                                      "(-1/4,1/4);(1,2)", "(-inf,inf)"])
    def test_roundtrip(self, text):
        assert format_open_set(parse_open_set(text)) == text

    def test_parse_normalizes(self):
        assert format_open_set(parse_open_set("(1/2,2);(0,1)")) == "(0,2)"

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_open_set("[0,1]")
