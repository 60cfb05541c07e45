"""Sublocales of a finite frame.

A sublocale is a subset of the carrier containing the top, closed under
meets, and closed under a -> (-) for every a. Sublocales are stored as
element bitmasks over the parent frame. Every sublocale of a finite frame
is spatial, so S(L) is exactly the family of meet-closures M(Y) of the sets
Y of primes (meet-irreducibles) of L: meets in S(L) are intersections and
M(Y) ∨ M(Z) = M(Y ∪ Z). Closed sublocales are up-sets and join by
c(a) ∨ c(b) = c(a ∧ b), so their joins are the up-sets themselves. The
sublocale budget counts primes, since |S(L)| = 2^|primes|.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from random import Random
from typing import Iterable, Optional

import numpy as np

from .common import (IDENTITY_EXHAUSTIVE_LIMIT, SUBLOCALE_SCAN_LIMIT,
                     SUBLOCALE_TABLE_LIMIT, BudgetExceeded, CheckReport, bits)
from .lattice import FiniteFrame, FinitePoset, containment_order, validate_frame


class MixedParents(ValueError):
    """Operands live over different parent frames."""


@dataclass(frozen=True)
class Sublocale:
    """An element of S(L): the parent frame plus a member bitmask."""

    parent: FiniteFrame
    mask: int

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(bits(self.mask))

    @property
    def is_proper(self) -> bool:
        return self.mask != (1 << self.parent.n) - 1

    @property
    def is_dense(self) -> bool:
        # Meet-closed and finite, so dense (closure is everything) iff the
        # bottom element is a member.
        return bool(self.mask & 1)

    def label(self) -> str:
        frame = self.parent
        if self.mask == (1 << frame.n) - 1:
            return "L"
        if self.mask == 1 << frame.top:
            return "O"
        return "{" + ",".join(frame.labels[i] for i in self.members) + "}"

    def __repr__(self):
        return f"Sublocale({self.label()})"


@dataclass(frozen=True)
class SubsetVerdict:
    """is_sublocale outcome: ok, or the violated condition plus a witness."""

    ok: bool
    condition: Optional[str] = None
    witness: Optional[tuple[int, ...]] = None

    def __bool__(self) -> bool:
        return self.ok


def mask_of(members: Iterable[int]) -> int:
    return reduce(lambda acc, i: acc | (1 << i), members, 0)


def is_sublocale(frame: FiniteFrame, members: Iterable[int]) -> SubsetVerdict:
    """Check the three closure conditions, reporting the first failure."""
    mask = mask_of(members)
    if not mask & (1 << frame.top):
        return SubsetVerdict(False, "missing-top", (frame.top,))
    elems = tuple(bits(mask))
    meet = frame.meet
    for i, s in enumerate(elems):
        row = meet[s]
        for t in elems[i:]:
            if not mask >> int(row[t]) & 1:
                return SubsetVerdict(False, "meet", (s, t))
    preimages = frame.imp_preimage_masks
    for s in elems:
        stray = preimages[s] & ~mask
        if stray:
            col = frame.imp[:, s]
            a = next(a for a in range(frame.n) if not mask >> int(col[a]) & 1)
            return SubsetVerdict(False, "heyting", (a, s))
    return SubsetVerdict(True)


def closed_sublocale(frame: FiniteFrame, a: int) -> Sublocale:
    """c(a): the up-set of a."""
    return Sublocale(frame, frame.up_masks[a])


def open_sublocale(frame: FiniteFrame, a: int) -> Sublocale:
    """o(a): the image of a -> (-)."""
    return Sublocale(frame, frame.imp_image_masks[a])


def meet_close(frame: FiniteFrame, mask: int) -> int:
    """Smallest superset of mask closed under binary meets."""
    meet = frame.meet
    cur = mask
    while True:
        add = 0
        elems = tuple(bits(cur))
        for i, s in enumerate(elems):
            row = meet[s]
            for t in elems[i:]:
                add |= 1 << int(row[t])
        if add & ~cur == 0:
            return cur
        cur |= add


def sublocale_join(family: Iterable[Sublocale],
                   parent: Optional[FiniteFrame] = None) -> Sublocale:
    """Join in S(L): all meets of subsets of the union of the members.

    The empty subset contributes the top, so the empty join is O. An empty
    family needs an explicit parent.
    """
    family = tuple(family)
    if parent is None:
        if not family:
            raise ValueError("empty family needs an explicit parent frame")
        parent = family[0].parent
    for s in family:
        if s.parent is not parent:
            raise MixedParents("sublocales must share one parent frame")
    mask = reduce(lambda acc, s: acc | s.mask, family, 1 << parent.top)
    closed = meet_close(parent, mask)
    verdict = is_sublocale(parent, bits(closed))
    if not verdict:
        raise AssertionError(f"join formula produced a non-sublocale: {verdict}")
    return Sublocale(parent, closed)


class SublocaleLattice:
    """All sublocales of a frame, ordered by inclusion (a coframe).

    Element order is by (size, mask), so index 0 is O and the last index is
    the whole frame. prime_sets[i] is the set Y of primes with masks[i] =
    M(Y), as a bitmask over the positions in primes(parent). Join/meet/
    supplement tables are built lazily and cached; building them is guarded
    by a table budget.
    """

    def __init__(self, parent: FiniteFrame, masks: tuple[int, ...],
                 prime_sets: tuple[int, ...]):
        self.parent = parent
        self.masks = masks
        self.prime_sets = prime_sets
        self.index = {m: i for i, m in enumerate(masks)}
        self.sublocales = tuple(Sublocale(parent, m) for m in masks)
        self.bottom_index = self.index[1 << parent.top]
        self.top_index = self.index[(1 << parent.n) - 1]

    def __len__(self):
        return len(self.masks)

    @cached_property
    def leq(self):
        rel = containment_order(self.masks)
        rel.flags.writeable = False
        return rel

    @cached_property
    def join_table(self):
        """M(Y) ∨ M(Z) = M(Y ∪ Z): a lookup of the union of the prime sets."""
        if len(self.masks) > SUBLOCALE_TABLE_LIMIT:
            raise BudgetExceeded(f"{len(self.masks)} sublocales exceed the table budget")
        ys = np.array(self.prime_sets, dtype=np.intp)
        by_primes = np.empty_like(ys)
        by_primes[ys] = np.arange(len(ys))
        table = by_primes[ys[:, None] | ys[None, :]]
        table.flags.writeable = False
        return table

    @cached_property
    def meet_table(self):
        if len(self.masks) > SUBLOCALE_TABLE_LIMIT:
            raise BudgetExceeded(f"{len(self.masks)} sublocales exceed the table budget")
        table = np.zeros((len(self.masks),) * 2, dtype=np.intp)
        for i, a in enumerate(self.masks):
            for j, b in enumerate(self.masks[i:], start=i):
                v = self.index[a & b]  # intersections of sublocales are sublocales
                table[i, j] = table[j, i] = v
        table.flags.writeable = False
        return table

    @cached_property
    def supplements(self):
        """supplements[i]: index of the least T with S_i ∨ T = L."""
        join = self.join_table
        out = np.zeros(len(self.masks), dtype=np.intp)
        for i in range(len(self.masks)):
            partners = np.nonzero(join[i] == self.top_index)[0]
            mask = reduce(lambda acc, t: acc & self.masks[int(t)], partners,
                          (1 << self.parent.n) - 1)
            j = self.index[mask]
            if int(join[i, j]) != self.top_index:
                raise AssertionError(f"supplement of index {i} fails to join to the top")
            out[i] = j
        out.flags.writeable = False
        return out

    def supplement_of(self, i: int) -> int:
        return int(self.supplements[i])

    def covers(self) -> list[tuple[int, int]]:
        rel = self.leq & ~np.eye(len(self.masks), dtype=bool)
        cov = rel & ~(rel @ rel)
        return [(int(i), int(j)) for i, j in np.argwhere(cov)]

    def coframe_law_report(self) -> CheckReport:
        """S ∨ (T ∩ U) = (S ∨ T) ∩ (S ∨ U) over every triple."""
        join, meet = self.join_table, self.meet_table
        lhs = join[:, meet]
        rhs = meet[join[:, :, None], join[:, None, :]]
        if np.array_equal(lhs, rhs):
            return CheckReport.passed("coframe-law")
        s, t, u = (int(v) for v in np.argwhere(lhs != rhs)[0])
        names = [self.sublocales[k].label() for k in (s, t, u)]
        return CheckReport.failed("coframe-law", f"triple {names}")

    def join_is_lub_report(self) -> CheckReport:
        """The join formula lands on the least upper bound in containment order."""
        join = self.join_table
        leq = self.leq
        upper = leq[:, None, :] & leq[None, :, :]
        bound = np.take_along_axis(upper, join[:, :, None], axis=2).all()
        minimal = (~upper | leq[join]).all()
        if bound and minimal:
            return CheckReport.passed("join-is-lub")
        for i in range(len(self.masks)):
            for j in range(len(self.masks)):
                v = int(join[i, j])
                if not (upper[i, j, v] and (~upper[i, j] | leq[v]).all()):
                    return CheckReport.failed(
                        "join-is-lub",
                        f"pair ({self.sublocales[i].label()}, {self.sublocales[j].label()})")
        return CheckReport.failed("join-is-lub", "vectorized/scalar disagreement")


def supplement(s: Sublocale, lattice: Optional[SublocaleLattice] = None) -> Sublocale:
    """S^#: the least sublocale joining S to the whole frame.

    Computed as the intersection of every T with S ∨ T = L; the coframe law
    makes the intersection itself such a T (verified during table build).
    """
    lat = lattice if lattice is not None else all_sublocales(s.parent)
    if lat.parent is not s.parent:
        raise MixedParents("lattice belongs to a different frame")
    i = lat.index[s.mask]
    return lat.sublocales[lat.supplement_of(i)]


def primes(frame: FiniteFrame) -> tuple[int, ...]:
    """The meet-irreducibles: the elements with exactly one upper cover (the top has none)."""
    upper = [0] * frame.n
    for i, _ in frame.poset.covers():
        upper[i] += 1
    return tuple(i for i, k in enumerate(upper) if k == 1)


def all_sublocales(frame: FiniteFrame, budget: Optional[int] = None) -> SublocaleLattice:
    """Enumerate S(L) as the meet-closures M(Y) of the sets Y of primes.

    M(Y ∪ {p}) = M(Y) ∪ p ∧ M(Y) builds all 2^|primes| of them, which must be
    distinct and each pass is_sublocale. The budget bounds the number of
    primes, since the count of sublocales is exponential in it.
    """
    limit = SUBLOCALE_SCAN_LIMIT if budget is None else budget
    ps = primes(frame)
    if len(ps) > limit:
        raise BudgetExceeded(f"{len(ps)} primes exceed the sublocale budget {limit} "
                             "(override with --budget)")
    closures = [1 << frame.top]  # closures[y]: M(Y), bit k of y standing for ps[k]
    for p in ps:
        row = frame.meet[p].tolist()
        closures += [reduce(lambda acc, i: acc | 1 << row[i], bits(m), m) for m in closures]
    if len(set(closures)) != len(closures):
        raise AssertionError("two sets of primes have the same meet-closure")
    for m in closures:
        verdict = is_sublocale(frame, bits(m))
        if not verdict:
            raise AssertionError(f"meet-closure of primes is not a sublocale: {verdict}")
    order = sorted(range(len(closures)), key=lambda y: (closures[y].bit_count(), closures[y]))
    return SublocaleLattice(frame, tuple(closures[y] for y in order), tuple(order))


class ClosedJoinFrame:
    """Joins of closed sublocales with their induced frame structure.

    Since c(a) ∨ c(b) = c(a ∧ b), the joins of closed sublocales are the
    closed sublocales themselves: element i is the up-set of generators[i].
    Joins are c(a ∧ b) and induced meets c(a ∨ b); the constructor checks
    both against the order-theoretic ones of containment. `frame` exposes
    the same data as an abstract frame whose element i is masks[i].
    """

    def __init__(self, parent: FiniteFrame):
        up = parent.up_masks
        self.generators = tuple(sorted(range(parent.n),
                                       key=lambda a: (up[a].bit_count(), up[a])))
        masks = tuple(up[a] for a in self.generators)
        self.parent = parent
        self.masks = masks
        self.index = {m: i for i, m in enumerate(masks)}
        self.elements = tuple(Sublocale(parent, m) for m in masks)
        self.bottom_index = self.index[1 << parent.top]
        self.top_index = self.index[(1 << parent.n) - 1]
        labels = tuple(f"c({parent.labels[g]})" for g in self.generators)

        self.frame = validate_frame(FinitePoset(containment_order(masks)), labels)
        if self.frame.labels != labels:
            raise AssertionError("closed-join carrier left canonical order")

        gen = np.array(self.generators, dtype=np.intp)
        position = np.empty_like(gen)
        position[gen] = np.arange(len(gen))
        join = position[parent.meet[np.ix_(gen, gen)]]
        meet = position[parent.join[np.ix_(gen, gen)]]
        if not np.array_equal(join, self.frame.join):
            raise AssertionError("closed-join joins disagree with the inclusion order")
        if not np.array_equal(meet, self.frame.meet):
            raise AssertionError("induced meet disagrees with the inclusion order")
        join.flags.writeable = False
        meet.flags.writeable = False
        self.join_table = join
        self.meet_table = meet

    def __len__(self):
        return len(self.masks)

    def element_index(self, s: Sublocale) -> int:
        if s.parent is not self.parent:
            raise MixedParents("sublocale belongs to a different frame")
        got = self.index.get(s.mask)
        if got is None:
            raise ValueError(f"{s.label()} is not a join of closed sublocales")
        return got

    def frame_law_report(self) -> CheckReport:
        """Meet distributes over binary joins on every triple (plus the dual).

        Finite lattices are distributive iff dually distributive, so the two
        verdicts must agree; pass means both hold.
        """
        join, meet = self.join_table, self.meet_table
        frame_lhs = meet[:, join]
        frame_rhs = join[meet[:, :, None], meet[:, None, :]]
        frame_ok = np.array_equal(frame_lhs, frame_rhs)
        co_lhs = join[:, meet]
        co_rhs = meet[join[:, :, None], join[:, None, :]]
        co_ok = np.array_equal(co_lhs, co_rhs)
        if frame_ok and co_ok:
            return CheckReport.passed("closed-join-frame-law")
        if frame_ok != co_ok:
            return CheckReport.violated(
                "closed-join-frame-law",
                f"distributive={frame_ok} but dually distributive={co_ok}")
        s, t, u = (int(v) for v in np.argwhere(frame_lhs != frame_rhs)[0])
        names = [self.elements[k].label() for k in (s, t, u)]
        return CheckReport.failed("closed-join-frame-law", f"triple {names}")


def closed_join_frame(parent: FiniteFrame) -> ClosedJoinFrame:
    """The joins of closed sublocales (the up-sets), validated as a frame."""
    return ClosedJoinFrame(parent)


def closed_join_meet(cjf: ClosedJoinFrame, s: Sublocale, t: Sublocale) -> Sublocale:
    """Induced meet: the join of every element below both arguments."""
    i, j = cjf.element_index(s), cjf.element_index(t)
    return cjf.elements[int(cjf.meet_table[i, j])]


def dual_booleanization(frame: FiniteFrame,
                        lattice: Optional[SublocaleLattice] = None) -> tuple[Sublocale, ...]:
    """Fixed points of the double supplement inside S(L).

    This is the Booleanization of the order-dual of S(L): the supplement is
    the pseudocomplement over there, so the regular elements are exactly the
    S with S^## = S.
    """
    lat = lattice if lattice is not None else all_sublocales(frame)
    supp = lat.supplements
    return tuple(lat.sublocales[i] for i in range(len(lat))
                 if int(supp[supp[i]]) == i)


def closed_open_complements_report(frame: FiniteFrame) -> CheckReport:
    """c(a) and o(a) are complements in S(L) for every a."""
    full = (1 << frame.n) - 1
    top_bit = 1 << frame.top
    for a in range(frame.n):
        c, o = frame.up_masks[a], frame.imp_image_masks[a]
        if c & o != top_bit:
            return CheckReport.failed(
                "closed-open-complements", f"c∩o ≠ O at {frame.labels[a]}")
        if meet_close(frame, c | o) != full:
            return CheckReport.failed(
                "closed-open-complements", f"c∨o ≠ L at {frame.labels[a]}")
    return CheckReport.passed("closed-open-complements")


def closed_open_identities_check(frame: FiniteFrame, *, samples: int = 512,
                                 seed: int = 0,
                                 exhaustive_limit: Optional[int] = None) -> CheckReport:
    """The four interaction identities between closed and open sublocales.

    Families are exhaustive (all subsets of the carrier) for small frames and
    seeded random samples otherwise. Binary versions are always exhaustive.
    Returns the first counterexample, which for a correct frame is none.
    """
    limit = IDENTITY_EXHAUSTIVE_LIMIT if exhaustive_limit is None else exhaustive_limit
    n = frame.n
    up = frame.up_masks
    opens = frame.imp_image_masks
    full = (1 << n) - 1
    top_bit = 1 << frame.top

    def family_holds(fam: int) -> Optional[str]:
        elems = tuple(bits(fam))
        joined = reduce(lambda a, b: int(frame.join[a, b]), elems, 0)
        inter = reduce(lambda acc, a: acc & up[a], elems, full)
        if inter != up[joined]:
            return f"⋂c over {elems}"
        o_join = meet_close(frame, reduce(lambda acc, a: acc | opens[a], elems, top_bit))
        if o_join != opens[joined]:
            return f"⋁o over {elems}"
        return None

    if n <= limit:
        families = range(1 << n)
    else:
        rng = Random(seed)
        families = (rng.getrandbits(n) for _ in range(samples))
    for fam in families:
        bad = family_holds(fam)
        if bad is not None:
            return CheckReport.failed("closed-open-identities", bad)
    for a in range(n):
        for b in range(n):
            w = int(frame.meet[a, b])
            if meet_close(frame, up[a] | up[b]) != up[w]:
                return CheckReport.failed(
                    "closed-open-identities",
                    f"c({frame.labels[a]})∨c({frame.labels[b]}) ≠ c(meet)")
            if opens[a] & opens[b] != opens[w]:
                return CheckReport.failed(
                    "closed-open-identities",
                    f"o({frame.labels[a]})∩o({frame.labels[b]}) ≠ o(meet)")
    return CheckReport.passed("closed-open-identities")
