"""The law-check battery behind campaigns and the acceptance suite.

Each function verifies one bundle of laws on one instance and returns a
CheckReport; campaign drivers map them over corpora. Failures carry a
witness, violations mean an internal correspondence broke (exit code 2
territory), and passes are silent.

Every LATTICE_CHECKS entry takes a FrameStructure: one campaign item's
frame, with its S(L) and closed-join frame built at most once, on first
use, and shared by every check of the item. `frame_structures` makes them
for a batch of frames, whose closed-join frames are then built in one
`closed_join_frames` call. Sharing an object does not merge routes: each
law keeps its own two computations.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .common import (CheckReport, EquivalenceViolation, TheoremViolation)
from .lattice import FiniteFrame, booleanization, containment_order
from . import realline as rl
from . import separation
from . import spaces as sp
from . import sublocales as sub


# ---------------------------------------------------------------------------
# Per-item structure shared by the lattice checks


class FrameStructure:
    """One campaign item: its frame, S(L) and closed-join frame, each built
    at most once, on first use; closed_joins supplies the closed-join frame."""

    def __init__(self, frame: FiniteFrame, closed_joins: Callable[[], sub.ClosedJoinFrame]):
        self.frame = frame
        self._closed_joins = closed_joins

    @cached_property
    def lattice(self) -> sub.SublocaleLattice:
        return sub.all_sublocales(self.frame)

    @cached_property
    def closed_joins(self) -> sub.ClosedJoinFrame:
        return self._closed_joins()


def frame_structures(frames: Sequence[FiniteFrame]) -> Iterator[FrameStructure]:
    """A FrameStructure per frame, in order; the first closed-join frame asked
    for builds all of theirs in one closed_join_frames batch."""
    batch = cache(lambda: sub.closed_join_frames(frames))
    for k, frame in enumerate(frames):
        yield FrameStructure(frame, lambda k=k: batch()[k])


# ---------------------------------------------------------------------------
# Frame-level laws (lattice core)


def frame_laws(frame: FiniteFrame) -> CheckReport:
    """Double-negation laws and the Booleanization laws.

    The Heyting adjunction is checked in `validate_frame`, which builds
    every FiniteFrame.
    """
    leq = frame.leq
    star = frame.star
    dstar = star[star]
    if not leq[np.arange(frame.n), dstar].all():
        a = int(np.nonzero(~leq[np.arange(frame.n), dstar])[0][0])
        return CheckReport.failed("frame-laws", f"a ≤ a** fails at {frame.labels[a]}")
    if not (star[dstar] == star).all():
        a = int(np.nonzero(star[dstar] != star)[0][0])
        return CheckReport.failed("frame-laws", f"a* = a*** fails at {frame.labels[a]}")

    # BooleanizationView checks that both characterizations of the regular
    # elements agree and that 0 and 1 are regular.
    view = booleanization(frame)
    carrier = np.array(view.carrier, dtype=np.intp)
    jt = view.join_table
    k = len(carrier)
    if not (jt == jt.T).all():
        return CheckReport.failed("frame-laws", "view join not commutative")
    if not (jt.diagonal() == carrier).all():
        return CheckReport.failed("frame-laws", "view join not idempotent")
    pos = np.zeros(frame.n, dtype=np.intp)
    pos[carrier] = np.arange(k)
    inner = pos[jt]                                     # view index of i ∨ j
    left = jt[inner[:, :, None], np.arange(k)]          # (i ∨ j) ∨ m
    right = jt[np.arange(k)[:, None, None], inner]      # i ∨ (j ∨ m)
    if not (left == right).all():
        return CheckReport.failed("frame-laws", "view join not associative")
    return CheckReport.passed("frame-laws")


def sublocale_laws(frame: FiniteFrame,
                   lattice: Optional[sub.SublocaleLattice] = None) -> CheckReport:
    """S(L): coframe law, join-is-lub, complements, antitone embedding."""
    lat = lattice if lattice is not None else sub.all_sublocales(frame)
    for report in (lat.coframe_law_report(), lat.join_is_lub_report(),
                   sub.closed_open_complements_report(frame)):
        if not report.ok:
            return report
    broken = frame.leq != containment_order(frame.leq).T   # a <= b iff c(b) ⊆ c(a)
    if broken.any():
        a, b = (frame.labels[v] for v in divmod(int(broken.argmax()), frame.n))
        return CheckReport.failed("sublocale-laws", f"antitone embedding breaks at ({a},{b})")
    return CheckReport.passed("sublocale-laws")


def subfit_correspondence(frame: FiniteFrame,
                          lattice: Optional[sub.SublocaleLattice] = None,
                          budget: Optional[int] = None,
                          cjf: Optional[sub.ClosedJoinFrame] = None) -> CheckReport:
    try:
        separation.subfit_correspondence_check(frame, lattice, budget, cjf)
    except TheoremViolation as exc:
        return CheckReport.violated("ppt", str(exc))
    return CheckReport.passed("ppt")


def symmetry_equivalence(frame: FiniteFrame,
                         cjf: Optional[sub.ClosedJoinFrame] = None) -> CheckReport:
    try:
        separation.is_symmetric(frame, cjf)
    except EquivalenceViolation as exc:
        return CheckReport.violated("weaksub-equiv", str(exc))
    return CheckReport.passed("weaksub-equiv")


def pc_formula(frame: FiniteFrame) -> CheckReport:
    report = separation.pseudocomplement_formula_check(frame)
    if not report.applicable:
        return CheckReport.passed("pcformula", "not-applicable")
    if report.passed:
        return CheckReport.passed("pcformula")
    return CheckReport.violated("pcformula", report.witness or "unknown")


def axiom_monotonicity(frame: FiniteFrame,
                       cjf: Optional[sub.ClosedJoinFrame] = None) -> CheckReport:
    """subfit implies weakly subfit and symmetric."""
    sub_rep = separation.is_subfit(frame)
    if not sub_rep.holds:
        return CheckReport.passed("axiom-monotonicity", "not-subfit")
    if not separation.is_weakly_subfit(frame).holds:
        return CheckReport.violated("axiom-monotonicity", "subfit but not weakly subfit")
    if not separation.is_symmetric(frame, cjf).holds:
        return CheckReport.violated("axiom-monotonicity", "subfit but not symmetric")
    return CheckReport.passed("axiom-monotonicity")


LATTICE_CHECKS: dict[str, Callable[[FrameStructure], CheckReport]] = {
    "frame-laws": lambda item: frame_laws(item.frame),
    "identities": lambda item: sub.closed_open_identities_check(item.frame),
    "coframe-law": lambda item: item.lattice.coframe_law_report(),
    "sublocale-laws": lambda item: sublocale_laws(item.frame, item.lattice),
    "sc-frame-law": lambda item: item.closed_joins.frame_law_report(),
    "ppt": lambda item: subfit_correspondence(item.frame, item.lattice, cjf=item.closed_joins),
    "weaksub-equiv": lambda item: symmetry_equivalence(item.frame, item.closed_joins),
    "pcformula": lambda item: pc_formula(item.frame),
    "axiom-monotonicity": lambda item: axiom_monotonicity(item.frame, item.closed_joins),
}


# ---------------------------------------------------------------------------
# Space-level checks


def space_proposition(space: sp.FiniteSpace) -> CheckReport:
    try:
        sp.space_proposition_check(space)
    except EquivalenceViolation as exc:
        return CheckReport.violated("space-proposition", str(exc))
    return CheckReport.passed("space-proposition")


def td_remark(space: sp.FiniteSpace) -> CheckReport:
    if not sp.is_t0(space):
        return CheckReport.passed("td-remark", "skipped-not-t0")
    try:
        sp.td_remark_check(space)
    except TheoremViolation as exc:
        return CheckReport.violated("td-remark", str(exc))
    return CheckReport.passed("td-remark")


SPACE_CHECKS = {
    "space-proposition": space_proposition,
    "td-remark": td_remark,
}


# ---------------------------------------------------------------------------
# Real-line checks (per fuzzed sample)


def boolean_laws(a: rl.RationalOpen, b: rl.RationalOpen) -> CheckReport:
    """Regular-open Boolean algebra laws on a sample pair (both regular)."""
    name = "boolean-laws"
    for v, tag in ((a, "a"), (b, "b")):
        if rl.regularize(v) != v:
            return CheckReport.failed(name, f"{tag} not fixed by regularization")
        star = rl.pseudocomplement(v)
        if rl.pseudocomplement(rl.pseudocomplement(star)) != star:
            return CheckReport.failed(name, f"{tag}* ≠ {tag}***")
        if not rl.intersect(v, star).is_empty:
            return CheckReport.failed(name, f"{tag} ∩ {tag}* nonempty")
        if rl.regularize(rl.union(v, star)) != rl.RationalOpen.reals():
            return CheckReport.failed(name, f"({tag} ∪ {tag}*)** is not the line")
    both = rl.intersect(a, b)
    if rl.regularize(both) != both:
        return CheckReport.failed(name, "meet of regulars not regular")
    if rl.regularize(rl.union(a, b)) != rl.regularize(
            rl.union(rl.regularize(a), rl.regularize(b))):
        return CheckReport.failed(name, "join normalization disagrees")
    return CheckReport.passed(name)


def raw_open_laws(raw: rl.RationalOpen) -> CheckReport:
    """a ⊆ a**, a* = a***, and normalize idempotence for arbitrary opens."""
    name = "raw-open-laws"
    if rl.normalize(raw.components) != raw:
        return CheckReport.failed(name, "normalize not idempotent")
    if not rl.is_subset(raw, rl.regularize(raw)):
        return CheckReport.failed(name, "a ⊆ a** fails")
    star = rl.pseudocomplement(raw)
    if rl.pseudocomplement(rl.regularize(raw)) != star:
        return CheckReport.failed(name, "a* ≠ a***")
    if rl.regularize(raw) != rl.pseudocomplement(star):
        return CheckReport.failed(name, "a** computed two ways disagrees")
    return CheckReport.passed(name)


def lemma_invariants(u: rl.RationalOpen, points: list[Fraction],
                     stages: int = 20) -> CheckReport:
    """Term-form agreement, monotonicity, containment, and point exclusion."""
    name = "lemma1-invariants"
    try:
        terms = [rl.zero_padded_term(u, n) for n in range(1, stages + 1)]
    except AssertionError as exc:
        return CheckReport.violated(name, str(exc))
    for n, term in enumerate(terms, start=1):
        if not rl.is_subset(u, term):
            return CheckReport.failed(name, f"u ⊄ term at stage {n}")
        if not rl.contains_point(term, 0):
            return CheckReport.failed(name, f"0 outside term at stage {n}")
    for n in range(1, stages):
        if not rl.is_subset(terms[n], terms[n - 1]):
            return CheckReport.failed(name, f"terms not descending at stage {n + 1}")
    for x in points:
        try:
            cert = rl.exclusion_certificate(u, x)
        except (rl.PointInU, rl.ZeroPoint):
            return CheckReport.failed(name, f"sampler offered an in-set point {x}")
        if rl.contains_point(cert.term, x):
            return CheckReport.violated(name, f"certificate term contains {x}")
        if Fraction(1, cert.stage) >= abs(x):
            return CheckReport.failed(name, f"stage {cert.stage} too coarse for {x}")
    recovery = rl.interior_recovery_check(u, stages)
    if not recovery.passed:
        return CheckReport.failed(name, "interior recovery failed")
    return CheckReport.passed(name)


def descent_invariants(pair: rl.KRealPair, stages: int = 20) -> CheckReport:
    """Stagewise pair chain: containments, antitone coordinates, generators."""
    name = "prop2-invariants"
    previous = None
    for n in range(1, stages + 1):
        try:
            stage = rl.descending_pair(pair, n)
        except AssertionError as exc:
            return CheckReport.violated(name, str(exc))
        if not (rl.is_subset(pair.first, stage.first)
                and rl.is_subset(pair.second, stage.second)):
            return CheckReport.failed(name, f"stage {n} lost the base pair")
        if previous is not None:
            if not (rl.is_subset(stage.first, previous.first)
                    and rl.is_subset(stage.second, previous.second)):
                return CheckReport.failed(name, f"stages not descending at {n}")
        previous = stage
    return CheckReport.passed(name)


def forcing_cases(stages: int = 20) -> CheckReport:
    """The forcing step fires exactly when both hypotheses hold."""
    name = "prop1-forcing"
    for n in range(1, stages + 1):
        w = Fraction(1, n)
        covered = rl.KRealPair(
            rl.union(rl.punctured_reals(), rl.open_interval(-w, w)),
            rl.RationalOpen.reals())
        verdict = rl.forcing_check(covered, n)
        if not (verdict.forced and verdict.first_is_line and verdict.second_is_line):
            return CheckReport.failed(name, f"covering candidate not forced at {n}")
        bare = rl.KRealPair(rl.punctured_reals(), rl.RationalOpen.reals())
        verdict = rl.forcing_check(bare, n)
        if verdict.forced or verdict.has_zero_interval:
            return CheckReport.failed(name, f"punctured line forced at {n}")
    return CheckReport.passed(name)
