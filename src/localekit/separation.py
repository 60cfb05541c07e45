"""Separation axioms for finite frames and their verified correspondences.

Every decision procedure returns a report whose failure witness can be
re-checked independently against the axiom's defining condition. Witnesses
are minimal in lexicographic element order, so reports are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np

from .common import CheckReport, EquivalenceViolation, TheoremViolation
from .lattice import FiniteFrame
from .sublocales import (ClosedJoinFrame, SublocaleLattice, all_sublocales,
                         closed_join_frame, dual_booleanization)


@dataclass(frozen=True)
class ConditionVerdict:
    """One independently evaluated condition of a multi-way equivalence."""

    name: str
    holds: bool
    witness: Optional[str] = None


@dataclass(frozen=True)
class SeparationReport:
    """Verdict for one separation axiom on one frame.

    witness names the offending element(s) when the axiom fails and is
    absent when it holds; conditions carries the per-condition breakdown
    for axioms defined by an equivalence.
    """

    axiom: str
    holds: bool
    witness: Optional[tuple[int, ...]] = None
    witness_labels: Optional[tuple[str, ...]] = None
    conditions: tuple[ConditionVerdict, ...] = ()


def is_subfit(frame: FiniteFrame) -> SeparationReport:
    """a ≰ b demands some c with a ∨ c = 1 ≠ b ∨ c."""
    n, top = frame.n, frame.top
    leq, join = frame.leq, frame.join
    for a in range(n):
        a_hits = join[a] == top
        for b in range(n):
            if leq[a, b]:
                continue
            if not (a_hits & (join[b] != top)).any():
                return SeparationReport("subfit", False, (a, b),
                                        (frame.labels[a], frame.labels[b]))
    return SeparationReport("subfit", True)


def is_weakly_subfit(frame: FiniteFrame) -> SeparationReport:
    """Every a ≠ 0 has a c ≠ 1 with a ∨ c = 1."""
    n, top = frame.n, frame.top
    join = frame.join
    for a in range(1, n):
        if not (join[a, :top] == top).any():
            return SeparationReport("weakly-subfit", False, (a,), (frame.labels[a],))
    return SeparationReport("weakly-subfit", True)


def is_symmetric(frame: FiniteFrame,
                 cjf: Optional[ClosedJoinFrame] = None) -> SeparationReport:
    """Three equivalent readings of symmetry, evaluated independently.

    (1) the closed-join frame is weakly subfit, as an abstract frame whose
    bottom is O and top is the whole frame; (2) every proper open sublocale
    sits inside a proper join of closed sublocales; (3) the same restricted
    to dense proper opens. The three verdicts must agree; disagreement is an
    implementation bug and raises EquivalenceViolation.
    """
    if cjf is None:
        cjf = closed_join_frame(frame)
    inner = is_weakly_subfit(cjf.frame)
    cond1 = ConditionVerdict("closed-join-weakly-subfit", inner.holds,
                             inner.witness_labels[0] if inner.witness_labels else None)

    full = (1 << frame.n) - 1
    proper = [m for m in cjf.masks if m != full]

    def covered(o_mask: int) -> bool:
        return any(o_mask & ~t == 0 for t in proper)

    w2 = next((a for a in range(frame.n)
               if frame.imp_image_masks[a] != full
               and not covered(frame.imp_image_masks[a])), None)
    cond2 = ConditionVerdict("proper-opens-covered", w2 is None,
                             None if w2 is None else f"o({frame.labels[w2]})")

    w3 = next((a for a in range(frame.n)
               if frame.imp_image_masks[a] != full
               and frame.imp_image_masks[a] & 1
               and not covered(frame.imp_image_masks[a])), None)
    cond3 = ConditionVerdict("dense-proper-opens-covered", w3 is None,
                             None if w3 is None else f"o({frame.labels[w3]})")

    verdicts = (cond1.holds, cond2.holds, cond3.holds)
    if len(set(verdicts)) != 1:
        raise EquivalenceViolation(
            f"symmetry conditions disagree on a frame with {frame.n} elements: "
            f"{[(c.name, c.holds, c.witness) for c in (cond1, cond2, cond3)]}")
    witness = None if w2 is None else (w2,)
    witness_labels = None if w2 is None else (frame.labels[w2],)
    return SeparationReport("symmetric", cond2.holds, witness, witness_labels,
                            conditions=(cond1, cond2, cond3))


def subfit_correspondence_check(frame: FiniteFrame,
                                lattice: Optional[SublocaleLattice] = None,
                                budget: Optional[int] = None,
                                cjf: Optional[ClosedJoinFrame] = None,
                                subfit: Optional[SeparationReport] = None) -> CheckReport:
    """Verify the subfit/Boolean correspondence on one frame.

    Three facts are computed independently: the subfitness verdict, whether
    every closed-join element is complemented, and whether the closed-join
    elements coincide with the double-supplement fixed points of S(L). The
    first two must match, and subfitness forces the coincidence; a breach
    raises TheoremViolation, and otherwise "ppt" passes. `subfit`, when
    given, is the caller's is_subfit(frame).
    """
    sub = subfit if subfit is not None else is_subfit(frame)
    if cjf is None:
        cjf = closed_join_frame(frame)
    sc = cjf.frame
    complemented = ((sc.join == sc.top) & (sc.meet == sc.bottom)).any(axis=1)
    boolean = bool(complemented.all())
    lat = lattice if lattice is not None else all_sublocales(frame, budget)
    dual = dual_booleanization(frame, lat)
    if sub.holds != boolean:
        witness = None if boolean else cjf.elements[int(np.argmin(complemented))].label()
        raise TheoremViolation(
            f"subfit={sub.holds} but closed-join complementation={boolean}; "
            f"witness={witness}, frame labels={frame.labels}")
    if sub.holds and {s.mask for s in dual} != set(cjf.masks):
        raise TheoremViolation(
            "subfit frame where closed joins differ from the dual Booleanization: "
            f"closed joins {[s.label() for s in cjf.elements]} vs "
            f"fixed points {[s.label() for s in dual]}")
    return CheckReport.passed("ppt")


def pseudocomplement_formula_check(frame: FiniteFrame) -> CheckReport:
    """The pseudocomplement-via-covers formula under weak subfitness.

    "pcformula" passes as not-applicable when the frame is not weakly
    subfit. When it is, a* must equal the meet of {x : x ∨ a = 1}; finite
    frames are also coframes, so a ∨ a* = 1 must follow and the frame must
    be Boolean. The first of these to break raises AssertionError with a
    witness.
    """
    name = "pcformula"
    if not is_weakly_subfit(frame).holds:
        return CheckReport.passed(name, "not-applicable")
    n, top = frame.n, frame.top
    join, meet, star = frame.join, frame.meet, frame.star
    for a in range(n):
        covers = [x for x in range(n) if join[x, a] == top]
        bound = reduce(lambda u, v: int(meet[u, v]), covers)
        if bound != int(star[a]):
            labels = frame.labels
            raise AssertionError(f"a={labels[a]}: meet of covers is "
                                 f"{labels[bound]}, a*={labels[int(star[a])]}")
    for a in range(n):
        if int(join[a, star[a]]) != top:
            raise AssertionError(f"a ∨ a* ≠ 1 at {frame.labels[a]}")
    for a in range(n):
        if not any(int(meet[a, c]) == 0 and int(join[a, c]) == top for c in range(n)):
            raise AssertionError(f"{frame.labels[a]} has no complement")
    return CheckReport.passed(name)
