"""Finite topological spaces, their specialization preorder, and symmetry.

Point sets are bitmasks; a space is the family of its open masks. Finite
topologies correspond exactly to preorders (opens are the up-sets of
specialization), which both the enumerator and the checks below exploit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterator, Optional

import numpy as np

from .common import (CheckReport, EquivalenceViolation, TheoremViolation, bits, pack_rows,
                     unpack_rows, within_budget)
from .lattice import FiniteFrame, containment_order, set_frame
from .separation import ConditionVerdict, is_symmetric, is_weakly_subfit


class InvalidTopology(ValueError):
    """The open-set family violates the topology axioms."""


def bitstring(mask: int, points: int) -> str:
    return "".join("1" if mask >> p & 1 else "0" for p in range(points))


class FiniteSpace:
    """A finite topological space: point count plus the family of open masks."""

    def __init__(self, points: int, opens):
        full = (1 << points) - 1
        family = tuple(sorted(set(int(o) for o in opens)))
        if any(o < 0 or o > full for o in family):
            raise InvalidTopology("open set out of range")
        if 0 not in family or full not in family:
            raise InvalidTopology("topology must contain the empty and full sets")
        members = set(family)
        for a in family:
            for b in family:
                if a | b not in members:
                    raise InvalidTopology(
                        f"not closed under union: {bitstring(a, points)} ∪ {bitstring(b, points)}")
                if a & b not in members:
                    raise InvalidTopology(
                        f"not closed under intersection: {bitstring(a, points)} ∩ {bitstring(b, points)}")
        self.points = points
        self.opens = family
        self.full = full

    @cached_property
    def specialization(self):
        """x <= y iff x lies in the closure of {y}; reflexive and transitive.

        Equivalently every open containing x contains y: the containment
        order of the open-membership columns, then re-checked for
        reflexivity and transitivity."""
        rel = containment_order(unpack_rows(self.opens, self.points).T)
        if not rel.diagonal().all():
            raise AssertionError("specialization lost reflexivity")
        if ((rel @ rel) & ~rel).any():
            raise AssertionError("specialization lost transitivity")
        rel.flags.writeable = False
        return rel

    @cached_property
    def closed_sets(self) -> tuple[int, ...]:
        return tuple(sorted(self.full ^ o for o in self.opens))

    def closure_of(self, mask: int) -> int:
        return reduce(lambda acc, c: acc & c,
                      (c for c in self.closed_sets if mask & ~c == 0), self.full)

    def __repr__(self):
        return (f"FiniteSpace({self.points}, "
                f"[{','.join(bitstring(o, self.points) for o in self.opens)}])")


def sierpinski() -> FiniteSpace:
    """Two points with exactly one of the singletons open."""
    return FiniteSpace(2, (0, 2, 3))


def discrete(points: int) -> FiniteSpace:
    return FiniteSpace(points, range(1 << points))


def indiscrete(points: int) -> FiniteSpace:
    return FiniteSpace(points, (0, (1 << points) - 1))


@dataclass(frozen=True)
class SpaceVerdict:
    ok: bool
    witness: Optional[tuple[int, int]] = None

    def __bool__(self) -> bool:
        return self.ok


def is_symmetric_space(space: FiniteSpace) -> SpaceVerdict:
    """Specialization is symmetric (an equivalence relation)."""
    rel = space.specialization
    bad = rel & ~rel.T
    if bad.any():
        x, y = (int(v) for v in np.argwhere(bad)[0])
        return SpaceVerdict(False, (x, y))
    return SpaceVerdict(True)


def is_t0(space: FiniteSpace) -> bool:
    rel = space.specialization
    return not (rel & rel.T & ~np.eye(space.points, dtype=bool)).any()


class UnionsOfClosed:
    """All unions of closed subsets, a frame and a coframe under inclusion.

    In a finite space this is exactly the closed-set lattice: the complements
    of the opens in (size, mask) order, closed under ∪ and ∩ because the opens
    are. `set_frame` re-proves that closure when it builds `as_frame`, and the
    anti-isomorphism with the saturated sets via complement is checked too.
    """

    def __init__(self, space: FiniteSpace):
        self.space = space
        self.elements = tuple(sorted(space.closed_sets, key=lambda m: (m.bit_count(), m)))
        self.index = {m: i for i, m in enumerate(self.elements)}

    def __len__(self):
        return len(self.elements)

    @cached_property
    def as_frame(self) -> FiniteFrame:
        return set_frame(unpack_rows(self.elements, self.space.points),
                         [bitstring(m, self.space.points) for m in self.elements])

    def is_boolean(self) -> SpaceVerdict:
        """Every element complemented; witnesses the first that is not."""
        for i, a in enumerate(self.elements):
            if self.space.full ^ a not in self.index:
                return SpaceVerdict(False, (i, i))
        return SpaceVerdict(True)

    def saturated_anti_isomorphism_ok(self) -> bool:
        """Complements of the carrier are the saturated sets, the up-sets of
        specialization: each member is a down-set, and each principal down-set
        ↓y, the closure of {y}, is a member, so by ∪ every down-set is one."""
        spec = self.space.specialization
        rows = unpack_rows(self.elements, self.space.points)
        return (not ((rows @ spec.T) & ~rows).any()
                and set(pack_rows(spec.T)) <= set(self.index))


def uc_lattice(space: FiniteSpace, budget: Optional[int] = None) -> UnionsOfClosed:
    within_budget("space", space.points, budget)
    uc = UnionsOfClosed(space)
    if not uc.saturated_anti_isomorphism_ok():
        raise AssertionError("complementation fails to reach the saturated sets")
    return uc


def omega(space: FiniteSpace) -> FiniteFrame:
    """The open-set frame: the opens as a ring of sets in (size, mask) order,
    built by `set_frame` and labeled by membership bitstrings; the point
    budget that admitted the space bounds it, not the frame budget."""
    opens = sorted(space.opens, key=lambda m: (m.bit_count(), m))
    return set_frame(unpack_rows(opens, space.points),
                     [bitstring(o, space.points) for o in opens])


@dataclass(frozen=True)
class SpacePropositionReport:
    """Five equivalent conditions on a space, evaluated independently."""

    holds: bool
    conditions: tuple[ConditionVerdict, ...]


def space_proposition_check(space: FiniteSpace,
                            budget: Optional[int] = None) -> SpacePropositionReport:
    """Symmetry of the space against four lattice-side readings.

    (1) the specialization preorder is symmetric; (2) the unions of closed
    sets form a Boolean algebra; (3) that lattice is weakly subfit, checked
    through the same abstract-frame code path the locale side uses; (4)
    every proper open subspace sits inside a proper union of closed sets;
    (5) the same for dense proper opens. All five verdicts must agree.
    """
    sym = is_symmetric_space(space)
    c1 = ConditionVerdict("specialization-symmetric", sym.ok,
                          None if sym.ok else f"pair {sym.witness}")
    uc = uc_lattice(space, budget)
    boolean = uc.is_boolean()
    c2 = ConditionVerdict(
        "unions-of-closed-boolean", boolean.ok,
        None if boolean.ok else bitstring(uc.elements[boolean.witness[0]], space.points))
    weak = is_weakly_subfit(uc.as_frame)
    c3 = ConditionVerdict("unions-of-closed-weakly-subfit", weak.holds,
                          weak.witness_labels[0] if weak.witness_labels else None)

    proper = [e for e in uc.elements if e != space.full]

    def covered(o: int) -> bool:
        return any(o & ~t == 0 for t in proper)

    w4 = next((o for o in space.opens if o != space.full and not covered(o)), None)
    c4 = ConditionVerdict("proper-opens-covered", w4 is None,
                          None if w4 is None else bitstring(w4, space.points))
    w5 = next((o for o in space.opens
               if o != space.full and space.closure_of(o) == space.full
               and not covered(o)), None)
    c5 = ConditionVerdict("dense-proper-opens-covered", w5 is None,
                          None if w5 is None else bitstring(w5, space.points))

    conditions = (c1, c2, c3, c4, c5)
    verdicts = {c.holds for c in conditions}
    if len(verdicts) != 1:
        raise EquivalenceViolation(
            f"space conditions disagree on {space!r}: "
            f"{[(c.name, c.holds, c.witness) for c in conditions]}")
    return SpacePropositionReport(c1.holds, conditions)


def td_remark_check(space: FiniteSpace) -> CheckReport:
    """For T_0 spaces, the space is symmetric iff its open-set frame is.

    A non-T_0 space passes as skipped-not-t0: the subspace/sublocale
    correspondence behind the statement needs the T_D property, which finite
    T_0 spaces satisfy. Disagreement raises TheoremViolation.
    """
    if not is_t0(space):
        return CheckReport.passed("td-remark", "skipped-not-t0")
    sym = is_symmetric_space(space)
    loc = is_symmetric(omega(space))
    if sym.ok != loc.holds:
        raise TheoremViolation(
            f"space symmetry {sym.ok} but locale symmetry {loc.holds} on {space!r}")
    return CheckReport.passed("td-remark")


def space_from_preorder(rows: tuple[int, ...]) -> FiniteSpace:
    """The Alexandrov topology of a preorder: opens are the up-sets."""
    n = len(rows)
    opens = [m for m in range(1 << n)
             if all(rows[i] & ~m == 0 for i in range(n) if m >> i & 1)]
    return FiniteSpace(n, opens)


def enumerate_topologies(points: int, t0_only: bool = False,
                         budget: Optional[int] = None) -> Iterator[FiniteSpace]:
    """Every topology on labeled points, via the preorder correspondence.

    Iterates all reflexive transitive relations (ascending bit patterns, so
    the stream is deterministic) and emits their up-set topologies; the
    t0_only flag keeps antisymmetric relations only.
    """
    within_budget("topology", points, budget)
    if points == 0:
        yield FiniteSpace(0, (0,))
        return
    slots = [(i, j) for i in range(points) for j in range(points) if i != j]
    for pattern in range(1 << len(slots)):
        rows = [1 << i for i in range(points)]
        for k, (i, j) in enumerate(slots):
            if pattern >> k & 1:
                rows[i] |= 1 << j
        if any(rows[j] & ~rows[i] for i in range(points) for j in bits(rows[i])):
            continue  # not transitive
        if t0_only and any(rows[i] >> j & 1 and rows[j] >> i & 1
                           for i in range(points) for j in range(points) if i != j):
            continue
        yield space_from_preorder(tuple(rows))
