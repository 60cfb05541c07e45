"""Exact calculus on finite unions of rational intervals of the real line.

This is the representable fragment of the open-set lattice of the reals:
finite unions of open intervals with endpoints in Q ∪ {-inf, +inf}: a
`Rat` (a `Fraction` compared by integer cross-multiplication), or the float
NEG_INF or POS_INF (±math.inf), which a Rat treats as sentinels below and
above it. All arithmetic is exact, so interior/closure/pseudocomplement and
the certificates below decide membership with no rounding.

Infinite meets never materialize; the operations that would need them
return certificates instead: an exclusion stage for a point outside the
limit, and an interior-recovery report for the origin, which belongs to
every stage: the interior of the limit must still be the set.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

Endpoint = Union[Fraction, float]
RatLike = Union[int, Fraction, float]


class EmptyInterval(ValueError):
    """An interval literal with lower endpoint >= upper endpoint."""


class NotRegular(Exception):
    """Input open set is not regular; carries the regularization as witness."""

    def __init__(self, regularization):
        self.regularization = regularization
        super().__init__(f"set is not regular open; its regularization is {regularization}")


class PointInU(ValueError):
    """No exclusion certificate exists: the point belongs to the set."""


class ZeroPoint(ValueError):
    """Zero belongs to every stage; no exclusion certificate exists for it."""


class InvalidPair(ValueError):
    """Pair violates its contract (second not regular, or first not below it)."""


class NotDescending(AssertionError):
    """A zero-padded term is not contained in the term of the stage before."""

    def __init__(self, stage: int):
        self.stage = stage
        super().__init__(f"terms are not descending at stage {stage}")


NEG_INF = -math.inf
POS_INF = math.inf
STAGES = 20  # stages replayed by the stagewise checks


def _exact(op):
    """op on a Rat and b: numerators cross-multiplied by the (positive)
    denominators when b is a Rat; against NEG_INF or POS_INF the Rat counts
    as 0 and the infinity as -1 or 1; any other b takes Fraction's route."""
    fallback = getattr(Fraction, f"__{op.__name__}__")

    def compare(a, b):
        if type(b) is Rat:
            return op(a._numerator * b._denominator, b._numerator * a._denominator)
        if b is POS_INF or b is NEG_INF:
            return op(0, 1 if b is POS_INF else -1)
        return fallback(a, b)
    return compare


class Rat(Fraction):
    """A finite endpoint: a Fraction with the exact integer comparisons of
    `_exact`, equal and hash-equal to the plain Fraction of its value. Python
    tries a subclass's reflected operator first, so a plain Fraction or a
    float on the left reaches them too. Arithmetic gives plain Fractions."""

    __slots__ = ()
    __lt__, __le__, __eq__, __gt__, __ge__ = map(_exact, (
        operator.lt, operator.le, operator.eq, operator.gt, operator.ge))
    __hash__ = Fraction.__hash__


_FINITE_ENDPOINT = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_endpoint(text: str) -> Endpoint:
    """An optional sign, then `p` or `p/q` with q != 0; or `-inf`, `inf`, `+inf`."""
    text = text.strip()
    if text in ("inf", "+inf"):
        return POS_INF
    if text == "-inf":
        return NEG_INF
    match = _FINITE_ENDPOINT.fullmatch(text)
    den = int(match.group(2) or 1) if match else 0
    if den == 0:
        raise ValueError(f"invalid endpoint {text!r}: expected p, p/q, -inf or inf")
    return Rat(int(match.group(1)), den)


def format_endpoint(value: Endpoint) -> str:
    """`p/q` or `p` for a Fraction; the infinite floats print as `inf`/`-inf`."""
    return str(value)


def _as_endpoint(value: RatLike) -> Endpoint:
    if type(value) is Rat:
        return value
    if value in (NEG_INF, POS_INF):
        return NEG_INF if value < 0 else POS_INF
    return Rat(value)


Component = tuple[Endpoint, Endpoint]


@dataclass(frozen=True)
class RationalOpen:
    """Finite union of open intervals in canonical form.

    Components are sorted, pairwise disjoint, and merged only when they
    genuinely overlap as point sets: (0,1) and (1,2) stay distinct because
    their union is not an interval.
    """

    components: tuple[Component, ...]

    @classmethod
    def empty(cls) -> "RationalOpen":
        return cls(())

    @classmethod
    def reals(cls) -> "RationalOpen":
        return cls(((NEG_INF, POS_INF),))

    @property
    def is_empty(self) -> bool:
        return not self.components

    def __str__(self):
        return format_open_set(self)


@dataclass(frozen=True)
class RationalClosed:
    """Finite union of closed intervals (points allowed) in canonical form.

    Touching components are merged, so the component list is pairwise
    separated. Infinite endpoints mean an unbounded side, never a point.
    """

    components: tuple[Component, ...]

    @classmethod
    def reals(cls) -> "RationalClosed":
        return cls(((NEG_INF, POS_INF),))

    def __str__(self):
        if not self.components:
            return "empty"
        return ";".join(f"[{format_endpoint(lo)},{format_endpoint(hi)}]"
                        for lo, hi in self.components)


def normalize(intervals: Iterable[tuple[RatLike, RatLike]]) -> RationalOpen:
    """Canonical form of a union of open intervals; the point set is unchanged."""
    comps: list[Component] = []
    for lo, hi in intervals:
        lo, hi = _as_endpoint(lo), _as_endpoint(hi)
        if not lo < hi:
            raise EmptyInterval(f"({format_endpoint(lo)},{format_endpoint(hi)}) is empty")
        comps.append((lo, hi))
    comps.sort()
    merged: list[Component] = []
    for lo, hi in comps:
        if merged and lo < merged[-1][1]:
            last_lo, last_hi = merged[-1]
            merged[-1] = (last_lo, hi if last_hi < hi else last_hi)
        else:
            merged.append((lo, hi))
    return RationalOpen(tuple(merged))


def _normalize_closed(intervals: Iterable[Component]) -> RationalClosed:
    comps = [(lo, hi) for lo, hi in intervals if lo <= hi]
    comps.sort()
    merged: list[Component] = []
    for lo, hi in comps:
        if merged and lo <= merged[-1][1]:
            last_lo, last_hi = merged[-1]
            merged[-1] = (last_lo, hi if last_hi < hi else last_hi)
        else:
            merged.append((lo, hi))
    return RationalClosed(tuple(merged))


def open_interval(lo: RatLike, hi: RatLike) -> RationalOpen:
    return normalize([(lo, hi)])


def closed_interval(lo: RatLike, hi: RatLike) -> RationalClosed:
    lo, hi = _as_endpoint(lo), _as_endpoint(hi)
    if hi < lo:
        raise EmptyInterval("closed interval needs lo <= hi")
    return _normalize_closed([(lo, hi)])


def union(a: RationalOpen, b: RationalOpen) -> RationalOpen:
    if a.is_empty:
        return b
    if b.is_empty:
        return a
    return normalize(a.components + b.components)


def intersect(a: RationalOpen, b: RationalOpen) -> RationalOpen:
    out: list[Component] = []
    i = j = 0
    ca, cb = a.components, b.components
    while i < len(ca) and j < len(cb):
        lo = ca[i][0] if cb[j][0] < ca[i][0] else cb[j][0]
        hi = ca[i][1] if ca[i][1] < cb[j][1] else cb[j][1]
        if lo < hi:
            out.append((lo, hi))
        if ca[i][1] < cb[j][1]:
            i += 1
        else:
            j += 1
    return RationalOpen(tuple(out))


def union_closed(a: RationalClosed, b: RationalClosed) -> RationalClosed:
    return _normalize_closed(a.components + b.components)


def closure(a: RationalOpen) -> RationalClosed:
    """Topological closure; touching components fuse ((0,1) ∪ (1,2) -> [0,2])."""
    return _normalize_closed(a.components)


def interior(c: RationalClosed) -> RationalOpen:
    """Topological interior; endpoints open up and isolated points vanish."""
    return RationalOpen(tuple((lo, hi) for lo, hi in c.components if lo < hi))


def complement_closed(a: RationalOpen) -> RationalClosed:
    """The set complement of an open set, as a closed set (gap walk)."""
    if a.is_empty:
        return RationalClosed.reals()
    out: list[Component] = []
    comps = a.components
    if NEG_INF < comps[0][0]:
        out.append((NEG_INF, comps[0][0]))
    for (_, hi), (lo, _) in zip(comps, comps[1:]):
        out.append((hi, lo))
    if comps[-1][1] < POS_INF:
        out.append((comps[-1][1], POS_INF))
    return RationalClosed(tuple(out))


def pseudocomplement(a: RationalOpen) -> RationalOpen:
    """Largest open set disjoint from a: the interior of its complement."""
    return interior(complement_closed(a))


def regularize(a: RationalOpen) -> RationalOpen:
    """Double pseudocomplement, computed as interior of closure."""
    return interior(closure(a))


def is_regular(a: RationalOpen) -> bool:
    return regularize(a) == a


def contains_point(a: RationalOpen, x: RatLike) -> bool:
    x = _as_endpoint(x)
    return any(lo < x < hi for lo, hi in a.components)


def is_subset(a: RationalOpen, b: RationalOpen) -> bool:
    """Whether a ⊆ b, by one merge walk over the sorted, disjoint components.

    A component of a is an interval, so it lies in b iff it lies inside the
    first component of b that ends at or after it; nothing is allocated.
    Its test oracle, `tests/oracles.py::generic_is_subset`, decides
    intersect(a, b) == a.
    """
    cb = b.components
    j, nb = 0, len(cb)
    for lo, hi in a.components:
        while j < nb and cb[j][1] < hi:
            j += 1
        if j == nb or lo < cb[j][0]:
            return False
    return True


def punctured_reals() -> RationalOpen:
    """The line without the origin."""
    return RationalOpen(((NEG_INF, Rat(0)), (Rat(0), POS_INF)))


def punctured_interval(n: int) -> RationalOpen:
    """(-1/n, 1/n) with the origin removed."""
    return RationalOpen(((Rat(-1, n), Rat(0)), (Rat(0), Rat(1, n))))


# ---------------------------------------------------------------------------
# Pairs (open set below a regular one)


@dataclass(frozen=True)
class KRealPair:
    """A pair (first, second): first open, second regular, first ⊆ second."""

    first: RationalOpen
    second: RationalOpen

    def __post_init__(self):
        if not is_regular(self.second):
            raise InvalidPair(f"second coordinate {self.second} is not regular")
        if not is_subset(self.first, self.second):
            raise InvalidPair("first coordinate must be contained in the second")


# ---------------------------------------------------------------------------
# Certificate operations


@dataclass(frozen=True)
class ObstructionCertificate:
    """Stage N excluding a point from the shrinking term family.

    term is the stage-N set, verified not to contain the point; the family
    is verified to be descending up to that stage, so exclusion persists.
    """

    stage: int
    term: RationalOpen


@dataclass(frozen=True)
class InteriorRecoveryReport:
    """Verdict that the interior of the term intersection recovers the set."""

    containment_ok: bool
    zero_in_set: bool
    zero_interior_excluded: Optional[bool]

    @property
    def passed(self) -> bool:
        return self.containment_ok and (self.zero_in_set or bool(self.zero_interior_excluded))


@dataclass(frozen=True)
class ForcingVerdict:
    """Whether covering the punctured line plus a zero interval forces the top."""

    stage: int
    has_punctured_line: bool
    has_zero_interval: bool
    forced: bool
    first_is_line: bool
    second_is_line: bool


def _exclusion_stage(x: Fraction) -> int:
    """The least N with 1/N < |x|, that is floor(1/|x|) + 1 (x != 0)."""
    return 1 // abs(x) + 1


def _zero_touched_twice(u: RationalOpen) -> bool:
    """Whether components of u end at 0 from both sides (0 is interior to u ∪ {0})."""
    return (any(hi == 0 for _, hi in u.components)
            and any(lo == 0 for lo, _ in u.components))


def zero_padded_term(u: RationalOpen, n: int) -> RationalOpen:
    """Stage n of the family squeezing down to u ∪ {0}, for regular u."""
    if n < 1:
        raise ValueError("stage must be a positive integer")
    if not is_regular(u):
        raise NotRegular(regularize(u))
    return _padded_term(u, n)


def _padded_term(u: RationalOpen, n: int) -> RationalOpen:
    """Stage n >= 1 of the family of u, which the caller knows to be regular.

    Computed as interior(closure(u) ∪ [-1/n, 1/n]) and cross-checked against
    the equal form (u ∪ (-1/n, 1/n))**.
    """
    lo, hi = Rat(-1, n), Rat(1, n)
    first_form = interior(union_closed(closure(u), closed_interval(lo, hi)))
    second_form = regularize(union(u, open_interval(lo, hi)))
    if first_form != second_form:
        raise AssertionError(f"term forms disagree at stage {n} for {u}")
    return first_form


class PaddedTerms:
    """The zero-padded terms of one regular u, built stage by stage on demand.

    u is decided regular once, here; every stage is then built by
    `_padded_term` (both forms, cross-checked) and checked to lie inside the
    stage before it as it joins the family. Callers that share a family
    share that work: each stage is built and checked once however many
    certificates read it.
    """

    def __init__(self, u: RationalOpen):
        if not is_regular(u):
            raise NotRegular(regularize(u))
        self.u = u
        self._terms: list[RationalOpen] = []

    def upto(self, n: int) -> list[RationalOpen]:
        """Stages 1..n; raises NotDescending at the first stage not inside its predecessor."""
        terms = self._terms
        while len(terms) < n:
            stage = len(terms) + 1
            term = _padded_term(self.u, stage)
            if terms and not is_subset(term, terms[-1]):
                raise NotDescending(stage)
            terms.append(term)
        return terms[:n]

    def certificate(self, x: Fraction) -> ObstructionCertificate:
        """Stage N = floor(1/|x|) + 1, the least with 1/N < |x|, read off this family.

        Certifies x is excluded from the intersection of all stages: x lies
        outside the stage-N term (checked exactly; for regular u and x outside
        u it always does) and the terms are verified to be descending up to N.
        """
        x = _excluded_point(self.u, x)
        n = _exclusion_stage(x)
        term = self.upto(n)[-1]
        if contains_point(term, x):
            raise AssertionError(f"{x} survives stage {n} in {self.u}")
        return ObstructionCertificate(stage=n, term=term)


def _excluded_point(u: RationalOpen, x: Fraction) -> Fraction:
    """x as a Fraction, once it is known to be neither the origin nor in u."""
    x = Rat(x)
    if x == 0:
        raise ZeroPoint("the origin belongs to every stage")
    if contains_point(u, x):
        raise PointInU(f"{x} belongs to the set; no exclusion stage exists")
    return x


def exclusion_certificate(u: RationalOpen, x: Fraction) -> ObstructionCertificate:
    """`PaddedTerms.certificate` on a family of u's own; the point is
    rejected (ZeroPoint, PointInU) before u's regularity is decided."""
    x = _excluded_point(u, x)
    return PaddedTerms(u).certificate(x)


def recovery_report(u: RationalOpen, containment: bool) -> InteriorRecoveryReport:
    """The interior-recovery verdict, given whether u ⊆ term_n for every stage checked.

    When the origin is outside u, the exact endpoint check confirms the
    origin is not interior to u ∪ {0} (no components of u touch 0 from both
    sides), so no open interval around the origin survives into every stage.
    """
    if contains_point(u, 0):
        return InteriorRecoveryReport(containment, True, None)
    return InteriorRecoveryReport(containment, False, not _zero_touched_twice(u))


def descending_pair(pair: KRealPair, n: int) -> KRealPair:
    """Stage n of the descending family of pairs converging to the given pair.

    First coordinate: the punctured interval around 0 joined in as a plain
    union. Second: the full interval joined in with the regularized join.
    The containment chain between the two and above the stage generators is
    verified exactly.
    """
    if n < 1:
        raise ValueError("stage must be a positive integer")
    punct = punctured_interval(n)
    full = open_interval(Rat(-1, n), Rat(1, n))
    first_n = union(punct, pair.first)
    mid_u = union(full, pair.first)
    mid_v = union(full, pair.second)
    second_n = regularize(mid_v)
    for smaller, larger in ((first_n, mid_u), (mid_u, mid_v), (mid_v, second_n)):
        if not is_subset(smaller, larger):
            raise AssertionError(f"containment chain broke at stage {n}")
    if not (is_subset(punct, first_n) and is_subset(full, second_n)):
        raise AssertionError(f"stage {n} pair is not above its generator")
    return KRealPair(first_n, second_n)


def forcing_check(candidate: KRealPair, n: int) -> ForcingVerdict:
    """Replay the forcing step at stage n.

    If the candidate's first coordinate contains both the punctured line and
    the stage-n interval around the origin, the union argument forces both
    coordinates to be the whole line; the equalities are verified exactly.
    """
    if n < 1:
        raise ValueError("stage must be a positive integer")
    has_line = is_subset(punctured_reals(), candidate.first)
    has_interval = is_subset(open_interval(Rat(-1, n), Rat(1, n)), candidate.first)
    forced = has_line and has_interval
    first_line = candidate.first == RationalOpen.reals()
    second_line = candidate.second == RationalOpen.reals()
    if forced and not (first_line and second_line):
        raise AssertionError("forcing hypotheses hold but a coordinate is not the line")
    return ForcingVerdict(stage=n, has_punctured_line=has_line,
                          has_zero_interval=has_interval, forced=forced,
                          first_is_line=first_line, second_is_line=second_line)


# ---------------------------------------------------------------------------
# Textual format: semicolon-separated open intervals with rational endpoints


def parse_open_set(text: str) -> RationalOpen:
    text = text.strip()
    if text in ("", "empty"):
        return RationalOpen.empty()
    intervals = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise ValueError(f"expected (lo,hi), got {chunk!r}")
        lo, sep, hi = chunk[1:-1].partition(",")
        if not sep:
            raise ValueError(f"expected (lo,hi), got {chunk!r}")
        intervals.append((parse_endpoint(lo), parse_endpoint(hi)))
    return normalize(intervals)


def format_open_set(a: RationalOpen) -> str:
    if a.is_empty:
        return "empty"
    return ";".join(f"({format_endpoint(lo)},{format_endpoint(hi)})" for lo, hi in a.components)
