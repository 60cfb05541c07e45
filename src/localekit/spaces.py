"""Finite topological spaces, their specialization preorder, and symmetry.

Point sets are bitmasks; a space is the family of its open masks. Finite
topologies correspond exactly to preorders (opens are the up-sets of
specialization), which both the enumerator and the checks below exploit.
The space checks decide a chunk of spaces at a time (`space_structures`),
a single space being a chunk of one; the open-set frames and the frames of
unions of closed sets are rings of sets, one `lattice.set_frames` call each
per chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, Optional

import numpy as np

from . import common
from .common import (CheckReport, EquivalenceViolation, TheoremViolation, bits, first_failures,
                     grouped, settled, unpack_rows, within_budget)
from .lattice import FiniteFrame, containment_order, set_frames
from .separation import ConditionVerdict, SeparationBattery
from .sublocales import closed_join_frames


class InvalidTopology(ValueError):
    """The open-set family violates the topology axioms."""


def bitstring(mask: int, points: int) -> str:
    return f"{mask:0{points}b}"[::-1] if points else ""


def _by_size(masks: Iterable[int]) -> list[int]:
    """(size, mask) order: the least set first and the greatest last."""
    return sorted(masks, key=lambda m: (m.bit_count(), m))


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

    def __repr__(self):
        return (f"FiniteSpace({self.points}, "
                f"[{','.join(bitstring(o, self.points) for o in self.opens)}])")


def _unsaturated(closed, specs):
    """Per space of a stack, whether its closed rows (F, m, p) are not the
    complements of the saturated sets, the up-sets of its specialization
    (F, p, p): some member is no down-set, or some ↓y, the closure of {y},
    is no member (when each is, every down-set is, as a union of them)."""
    downs = specs.transpose(0, 2, 1)                                     # ↓y, row y
    return (((closed @ downs) & ~closed).any(axis=(1, 2))
            | ~(downs[:, :, None] == closed[:, None]).all(axis=3).any(axis=2).all(axis=1))


@dataclass(frozen=True)
class SpacePropositionReport:
    """Five equivalent conditions on a space, evaluated independently."""

    holds: bool
    conditions: tuple[ConditionVerdict, ...]


class _Chunk:
    """The batches of a chunk of spaces, each built for the whole chunk when
    first read, one stack per (points, opens) count: a list in space order
    of results, or of what that space's result raises."""

    def __init__(self, spaces: list[FiniteSpace], budget: Optional[int]):
        self.spaces, self.budget = spaces, budget

    @cached_property
    def stacks(self) -> list[tuple[list[int], np.ndarray, np.ndarray]]:
        """(positions, opens (F, m, p) in each space's order, specializations
        (F, p, p)) per (points, opens) count: x <= y iff every open holding x holds y."""
        out = []
        for (p, m), ks in grouped((s.points, len(s.opens)) for s in self.spaces).items():
            opens = unpack_rows(chain.from_iterable(self.spaces[k].opens for k in ks), p)
            opens = opens.reshape(len(ks), m, p)
            out.append((ks, opens, containment_order(opens.transpose(0, 2, 1))))
        return out

    @cached_property
    def symmetry(self) -> list[tuple[bool, Optional[tuple[int, int]]]]:
        """Per space: T_0, and the first pair (x, y), row-major, with x <= y
        but not y <= x, or None where specialization is symmetric."""
        out: list = [None] * len(self.spaces)
        for ks, _, spec in self.stacks:
            apart, p = spec & ~spec.transpose(0, 2, 1), spec.shape[1]
            t0, pairs = ((spec & ~apart).sum(axis=(1, 2)) == p).tolist(), first_failures([apart])
            for g, k in enumerate(ks):
                out[k] = t0[g], pairs[g][1] if g in pairs else None
        return out

    def _battery(self, rings: dict, part: str, closed_joins=None) -> dict:
        """{position: the separation battery's `part` of its ring of sets
        (masks, rows), or what building that frame raises}: one set_frames
        call, then one SeparationBattery over the frames it built."""
        labels = [[bitstring(m, self.spaces[k].points) for m in masks]
                  for k, (masks, _) in rings.items()]
        frames = dict(zip(rings, set_frames([rows for _, rows in rings.values()], labels)))
        built = [k for k, frame in frames.items() if isinstance(frame, FiniteFrame)]
        parents = [frames[k] for k in built]
        battery = SeparationBattery(parents, closed_joins and (lambda: closed_joins(parents)))
        return {**frames, **dict(zip(built, getattr(battery, part)))}

    @cached_property
    def proposition(self) -> list:
        """Each space's SpacePropositionReport, five conditions that must agree
        or raise EquivalenceViolation: (1) the specialization is symmetric;
        (2) the unions of closed sets, a frame in (size, mask) order, are
        Boolean; (3) that frame is weakly subfit, by the separation battery;
        (4) every proper open lies inside a proper closed set; (5) so does
        every dense one, meeting every nonempty open. (5) holds with (4) by
        construction, so it is no second route: an open inside no proper
        closed set has closure X, so it is dense. It stays: the records are fixed."""
        rings, found, out = {}, {}, [None] * len(self.spaces)
        for ks, opens, spec in self.stacks:
            _, m, p = opens.shape
            within_budget("space", p, self.budget)
            masks = [_by_size(self.spaces[k].full ^ o for o in self.spaces[k].opens) for k in ks]
            closed = unpack_rows(chain.from_iterable(masks), p).reshape(len(ks), m, p)
            unsaturated = _unsaturated(closed, spec)
            # lonely: no closed set is the complement; inside: o within a proper closed set
            lonely = ~(closed[:, :, None] != closed[:, None]).all(axis=3).any(axis=2)
            inside = ~(opens @ ~closed.transpose(0, 2, 1)) & ~closed.all(axis=2)[:, None]
            uncovered = ~opens.all(axis=2) & ~inside.any(axis=2)
            apart = ~(opens @ opens.transpose(0, 2, 1)) & opens.any(axis=2)[:, None]
            dense = ~apart.any(axis=2)                        # meeting every nonempty open
            firsts = [first_failures([mask]) for mask in (lonely, uncovered, uncovered & dense)]
            for g, k in enumerate(ks):  # each first failure as the closed set or open it names
                if unsaturated[g]:
                    out[k] = AssertionError("complementation fails to reach the saturated sets")
                    continue
                rings[k], opens_k = (masks[g], closed[g]), self.spaces[k].opens
                found[k] = [bitstring(family[at[g][1][0]], p) if g in at else None
                            for at, family in zip(firsts, (masks[g], opens_k, opens_k))]
        for k, weak in self._battery(rings, "weakly_subfit").items():
            if isinstance(weak, Exception):
                out[k] = weak
                continue
            space, pair, (w2, w4, w5) = self.spaces[k], self.symmetry[k][1], found[k]
            conditions = tuple(ConditionVerdict(name, w is None, w) for name, w in (
                ("specialization-symmetric", None if pair is None else f"pair {pair}"),
                ("unions-of-closed-boolean", w2),
                ("unions-of-closed-weakly-subfit", weak.witness_labels and weak.witness_labels[0]),
                ("proper-opens-covered", w4), ("dense-proper-opens-covered", w5)))
            out[k] = SpacePropositionReport(pair is None, conditions)
            if len({c.holds for c in conditions}) != 1:
                out[k] = EquivalenceViolation(
                    f"space conditions disagree on {space!r}: "
                    f"{[(c.name, c.holds, c.witness) for c in conditions]}")
        return out

    @cached_property
    def td_remark(self) -> list:
        """Each space's td-remark report: a T_0 space is symmetric iff Ω(X),
        its opens in (size, mask) order, is, by its closed-join frame, or
        TheoremViolation. A non-T_0 space passes as skipped-not-t0: the
        subspace/sublocale correspondence behind the remark needs the T_D
        property, which finite T_0 spaces have."""
        rings = {k: (masks, unpack_rows(masks, space.points))
                 for k, space in enumerate(self.spaces) if self.symmetry[k][0]
                 for masks in [_by_size(space.opens)]}
        out = [CheckReport.passed("td-remark", "skipped-not-t0")] * len(self.spaces)
        for k, loc in self._battery(rings, "symmetric", closed_join_frames).items():
            space, pair = self.spaces[k], self.symmetry[k][1]
            out[k] = loc if isinstance(loc, Exception) else CheckReport.passed("td-remark")
            if not isinstance(loc, Exception) and (pair is None) != loc.holds:
                out[k] = TheoremViolation(f"space symmetry {pair is None} but locale "
                                          f"symmetry {loc.holds} on {space!r}")
        return out


class SpaceStructure:
    """One campaign item: its space, and its two outcomes read off the
    batches of its chunk; each raises what it raises alone."""

    def __init__(self, space: FiniteSpace, k: int, chunk: _Chunk):
        self.space, self._k, self._chunk = space, k, chunk

    def proposition(self) -> SpacePropositionReport:
        return settled(self._chunk.proposition[self._k])

    def td_remark(self) -> CheckReport:
        return settled(self._chunk.td_remark[self._k])


def space_structures(spaces: Iterable[FiniteSpace],
                     budget: Optional[int] = None) -> Iterator[SpaceStructure]:
    """A SpaceStructure per space, in order. The spaces are cut into chunks
    whose open-set frames hold at most STACK_CELLS / 8 cells of (n, n, n)
    together, at least one space each, so that a stacked gather's intp index
    of a cell each stays within STACK_CELLS bytes. A chunk's structures share
    its batches; the budget bounds the points of the unions-of-closed frames."""
    chunk, cells, bound = [], 0, common.STACK_CELLS // np.dtype(np.intp).itemsize
    for space in chain(spaces, [None]):  # None closes the last chunk
        size = 0 if space is None else len(space.opens) ** 3
        if chunk and (space is None or cells + size > bound):
            batches, chunk, cells = _Chunk(chunk, budget), [], 0
            yield from (SpaceStructure(s, k, batches) for k, s in enumerate(batches.spaces))
        chunk.append(space)
        cells += size


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
