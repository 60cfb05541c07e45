"""The law-check battery behind campaigns and the acceptance suite.

Each function verifies one bundle of laws on one instance and returns a
CheckReport; campaign drivers map them over corpora. Failures carry a
witness and passes are silent. An internal cross-check that breaks raises
(AssertionError, TheoremViolation or EquivalenceViolation), and the
campaign loop records it as that item's violation of that check.

Every LATTICE_CHECKS entry takes a FrameStructure: one campaign item's
frame and its slot in a batch. The batch's S(L), closed-join frames, frame
laws, closed/open identities and complements, antitone embeddings and
separation battery are each built in one stacked call (`sublocale_lattices`,
`closed_join_frames`, `frame_law_outcomes`, `closed_open_outcomes`,
`antitone_outcomes`, `SeparationBattery`) when the first item asks. A
frame's outcomes depend only on its tables, so a campaign builds its batches
once per distinct canonical order of the labeled corpus, not per item: the
30 (n = 6) to 56 (n = 8) items of an order read the same slot, and each reads
its outcome in its own labels (`common.settled`), raising what it raises
alone. Sharing does not merge routes: each law keeps its own two
computations.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property, partial
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .common import (CheckReport, TheoremViolation, first_failures, grouped, named, settled,
                     slice_len)
from .lattice import FiniteFrame, by_size, containment_order, element_dtype, gather, stacked
from . import corpus
from . import realline as rl
from . import separation
from . import spaces as sp
from . import sublocales as sub


# ---------------------------------------------------------------------------
# Per-item structure shared by the lattice checks


class FrameStructure:
    """One campaign item, or one command's input: its frame and its slot k
    in batches decided on frames with the same tables, from frame_batches.
    Each outcome is read for this frame, in its labels. Its subfitness,
    decided once in the separation battery, serves ppt and
    axiom-monotonicity alike."""

    def __init__(self, frame: FiniteFrame, k: int, batches: dict[str, Callable[[], list]]):
        self.frame, self._k, self._batches = frame, k, batches

    def _outcome(self, name: str, part=None):
        outcome = self._batches[name]()[self._k]
        return settled(outcome if part is None else outcome[part], self.frame)

    @cached_property
    def lattice(self) -> sub.SublocaleLattice:
        """The item's S(L), on its own frame; the batch keeps the shared one."""
        return self._outcome("lattice")

    @cached_property
    def closed_joins(self) -> sub.ClosedJoinFrame:
        """The closed-join frame, on its own frame; the separation battery reads the batch's."""
        return self._outcome("closed_joins")

    def separation(self, part: str):
        """The item's outcome `part` of the separation battery (see SeparationBattery)."""
        return settled(getattr(self._batches["separation"](), part)[self._k], self.frame)

    def holds(self, axiom: str) -> bool:
        """Whether the battery's `axiom` holds, which its labels do not change:
        its report is read only if it is a breach, which raises."""
        outcome = getattr(self._batches["separation"](), axiom)[self._k]
        if isinstance(outcome, Exception):
            settled(outcome, self.frame)  # raises, in the item's labels
        return outcome.holds

    def frame_laws(self) -> CheckReport:
        return self._outcome("frame_laws")

    def closed_open(self, part: int) -> CheckReport:
        """The closed/open identities (0) or complements (1) report."""
        return self._outcome("closed_open", part)

    def antitone(self) -> CheckReport:
        """The antitone embedding a ↦ c(a) report (see antitone_outcomes)."""
        return self._outcome("antitone")


def frame_batches(frames: Sequence[FiniteFrame],
                  budget: Optional[int] = None) -> dict[str, Callable[[], list]]:
    """The six batches of frames, by name, each built when first asked; the
    separation battery reads the closed-join frames' batch. The budget
    bounds the primes of S(L)."""
    batches = {name: cache(lambda build=build: build(frames)) for name, build in (
        ("lattice", lambda frames: sub.sublocale_lattices(frames, budget)),
        ("closed_joins", sub.closed_join_frames), ("frame_laws", frame_law_outcomes),
        ("closed_open", sub.closed_open_outcomes), ("antitone", antitone_outcomes))}
    closed_joins = batches["closed_joins"]  # not `batches`: a cycle would outlive the batch
    batches["separation"] = cache(lambda: separation.SeparationBattery(frames, closed_joins))
    return batches


def frame_structures(frames: Sequence[FiniteFrame],
                     budget: Optional[int] = None) -> Iterator[FrameStructure]:
    """A FrameStructure per frame, in order, sharing one frame_batches. A
    single input is a batch of one."""
    batches = frame_batches(frames, budget)
    for k, frame in enumerate(frames):
        yield FrameStructure(frame, k, batches)


# ---------------------------------------------------------------------------
# Frame-level laws (lattice core)

# The frame laws in the order they are decided; the two on * name the
# first element that breaks them, and the three of the Booleanization
# (its carrier, meets and bounds) are internal violations.
_FRAME_LAWS = ("a ≤ a** fails at {}", "a* = a*** fails at {}",
               "regular-element characterizations disagree",
               "regular elements not closed under meet",
               "regular elements must contain 0 and 1",
               "view join not commutative", "view join not idempotent",
               "view join not associative")


def _frame_law_masks(leq, meet, join, imp):
    """Every frame law on a stack of tables (F, n, n): failed[law, f] in
    _FRAME_LAWS order, and below[f, a] and triple[f, a], where a ≤ a** and
    a* = a*** fail.

    The Booleanization is the regular elements {a : a** = a}, which must be
    exactly {a* : a in L}, closed under meet and contain 0 and 1; its join
    is the parent join followed by **, decided on every pair and triple of
    regular elements. Each lookup is one `lattice.gather` over element
    tables in `element_dtype(n)`; the two sides of associativity gather
    whole rows, of the view table for (i ∨ j) ∨ m and of its transpose for
    i ∨ (j ∨ m).
    """
    n = leq.shape[1]
    star, meet, join = (table.astype(element_dtype(n)) for table in (imp[:, :, 0], meet, join))
    idx = np.arange(n, dtype=star.dtype)
    dstar = gather(star, star)
    below = ~gather(leq, idx, dstar)                                 # not a <= a**
    triple = gather(star, dstar) != star                             # a*** != a*
    regular = dstar == idx
    image = np.zeros_like(regular)
    image[np.arange(len(leq))[:, None], star] = True
    pairs = regular[:, :, None] & regular[:, None, :]
    view = gather(dstar, join)                                       # (i ∨ j)** on all pairs
    left = gather(view, view)                                        # (i ∨ j) ∨ m
    right = gather(view.transpose(0, 2, 1), view).transpose(0, 3, 1, 2)  # i ∨ (j ∨ m)
    failed = np.array([
        below.any(axis=1), triple.any(axis=1), (regular != image).any(axis=1),
        (pairs & ~gather(regular, meet)).any(axis=(1, 2)),
        ~(regular[:, 0] & regular[:, n - 1]),
        (pairs & (view != view.transpose(0, 2, 1))).any(axis=(1, 2)),
        (regular & (view.diagonal(axis1=1, axis2=2) != idx)).any(axis=1),
        (pairs[:, :, :, None] & regular[:, None, None, :] & (left != right)).any(axis=(1, 2, 3))])
    return failed, below, triple


def _frame_law_stack(frames: Sequence[FiniteFrame]) -> list[CheckReport | AssertionError]:
    """Every frame law on a stack of frames of one carrier size, each
    frame's outcome named by the first law that `_frame_law_masks` fails."""
    failed, below, triple = _frame_law_masks(*stacked(frames))
    outcomes: list = [CheckReport.passed("frame-laws")] * len(frames)
    for k, (law, at) in first_failures([below, triple, *failed[2:]]).items():
        outcomes[k] = (AssertionError(_FRAME_LAWS[law]) if 2 <= law < 5 else named(
            partial(CheckReport.failed_at, "frame-laws", _FRAME_LAWS[law], at), frames[k]))
    return outcomes


def frame_law_outcomes(frames: Sequence[FiniteFrame]) -> list[CheckReport | AssertionError]:
    """The frame-laws outcome of every frame, in order: its report, or the
    AssertionError its Booleanization breaks with, which the caller raises
    when it reaches that frame. Frames are decided one stack per carrier
    size, in slices of at most STACK_CELLS cells of (F, n, n, n) or one frame.
    `heyting_tables`, which every FiniteFrame builder runs, checks the Heyting adjunction."""
    outcomes: list = [None] * len(frames)
    for ks in grouped(frame.n for frame in frames).values():
        step = slice_len(frames[ks[0]].n ** 3)
        for start in range(0, len(ks), step):
            part = ks[start:start + step]
            for k, outcome in zip(part, _frame_law_stack([frames[k] for k in part])):
                outcomes[k] = outcome
    return outcomes


def antitone_outcomes(frames: Sequence[FiniteFrame]) -> list[CheckReport]:
    """The antitone embedding a ↦ c(a) = ↑a of every frame, in order: a <= b
    iff c(b) ⊆ c(a), one containment order per carrier size, the first
    failure named at its first pair, row-major."""
    outcomes = [CheckReport.passed("sublocale-laws")] * len(frames)
    for ks, (leq,) in by_size(frames, ("leq",)):
        broken = leq != containment_order(leq).transpose(0, 2, 1)
        for g, (_, at) in first_failures([broken]).items():
            outcomes[ks[g]] = named(partial(CheckReport.failed_at, "sublocale-laws",
                                            "antitone embedding breaks at ({},{})", at),
                                    frames[ks[g]])
    return outcomes


def sublocale_laws(item: FrameStructure) -> CheckReport:
    """S(L): coframe law, join-is-lub, the closed/open complements, antitone embedding."""
    for report in (item.lattice.laws, item.closed_open(1)):
        if not report.ok:
            return report
    return item.antitone()


def subfit_correspondence(item: FrameStructure) -> CheckReport:
    """The subfit/Boolean correspondence: the battery's ppt, and on a subfit
    frame, that the closed-join rows are the fixed points of the double
    supplement of S(L). That is Y ↦ P ∖ Y twice on its prime sets, the
    identity, so they are the rows of S(L). A breach raises
    TheoremViolation, and otherwise "ppt" passes."""
    lattice, cjf, subfit = item.lattice, item.closed_joins, item.holds("subfit")
    outcome = item.separation("ppt")
    if subfit and not np.array_equal(lattice.rows, item.frame.leq[list(cjf.generators)]):
        raise TheoremViolation(
            "subfit frame where closed joins differ from the dual Booleanization: "
            f"closed joins {[s.label() for s in cjf.elements]} vs "
            f"fixed points {[s.label() for s in lattice.sublocales]}")
    return outcome


# The fixed passes, built once and shared by every item that passes.
_MONOTONE = CheckReport.passed("axiom-monotonicity")
_NOT_SUBFIT = CheckReport.passed("axiom-monotonicity", "not-subfit")
_CONSISTENT = {name: CheckReport.passed(name) for name in ("weaksub-equiv", "space-proposition")}


def axiom_monotonicity(item: FrameStructure) -> CheckReport:
    """subfit implies weakly subfit and symmetric; a breach raises AssertionError."""
    item.closed_joins  # read first: a breach of the closed-join frame is this check's too
    if not item.holds("subfit"):
        return _NOT_SUBFIT
    if not item.holds("weakly_subfit"):
        raise AssertionError("subfit but not weakly subfit")
    if not item.holds("symmetric"):
        raise AssertionError("subfit but not symmetric")
    return _MONOTONE


def _consistent(name: str, _verdict) -> CheckReport:
    """A pass for `name` once a verdict was reached: reaching it ran the
    equivalence's cross-checks, which raise on a breach. Whether the axiom
    holds is a property of the input, so either verdict passes."""
    return _CONSISTENT[name]


LATTICE_CHECKS: dict[str, Callable[[FrameStructure], CheckReport]] = {
    "frame-laws": lambda item: item.frame_laws(),
    "identities": lambda item: item.closed_open(0),
    "coframe-law": lambda item: item.lattice.laws,
    "sublocale-laws": sublocale_laws,
    "sc-frame-law": lambda item: item.closed_joins.frame_law_report(),
    "ppt": subfit_correspondence,
    "weaksub-equiv": lambda item: _consistent("weaksub-equiv", item.holds("symmetric")),
    "pcformula": lambda item: item.separation("pcformula"),
    "axiom-monotonicity": axiom_monotonicity,
}


# ---------------------------------------------------------------------------
# Space-level checks


SPACE_CHECKS: dict[str, Callable[[sp.SpaceStructure], CheckReport]] = {
    "space-proposition": lambda item: _consistent("space-proposition", item.proposition()),
    "td-remark": lambda item: item.td_remark(),
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


def lemma_invariants(u: rl.RationalOpen, points: list[Fraction]) -> CheckReport:
    """Term-form agreement, monotonicity, containment, and point exclusion.

    One family of terms is built per call: stages 1..max(STAGES, N) are each
    built and checked for descent once, and shared by the certificates; u ⊆
    term is decided once per stage, and the recovery check reads that. The
    terms are antitone for every regular u, so a stage outside its
    predecessor (NotDescending) or a certificate term holding its point is
    a breach and raises, whichever stage it is found at."""
    name = "lemma1-invariants"
    family = rl.PaddedTerms(u)
    for n, term in enumerate(family.upto(rl.STAGES), start=1):
        if not rl.is_subset(u, term):
            return CheckReport.failed(name, f"u ⊄ term at stage {n}")
        if not rl.contains_point(term, 0):
            return CheckReport.failed(name, f"0 outside term at stage {n}")
    for x in points:
        try:
            cert = family.certificate(x)
        except (rl.PointInU, rl.ZeroPoint):
            return CheckReport.failed(name, f"sampler offered an in-set point {x}")
        if rl.contains_point(cert.term, x):
            raise AssertionError(f"certificate term contains {x}")
        if Fraction(1, cert.stage) >= abs(x):
            return CheckReport.failed(name, f"stage {cert.stage} too coarse for {x}")
    if not rl.recovery_report(u, containment=True).passed:
        return CheckReport.failed(name, "interior recovery failed")
    return CheckReport.passed(name)


def descent_invariants(pair: rl.KRealPair) -> CheckReport:
    """Stagewise pair chain: containments, antitone coordinates, generators."""
    name = "prop2-invariants"
    previous = None
    for n in range(1, rl.STAGES + 1):
        stage = rl.descending_pair(pair, n)
        if not (rl.is_subset(pair.first, stage.first)
                and rl.is_subset(pair.second, stage.second)):
            return CheckReport.failed(name, f"stage {n} lost the base pair")
        if previous is not None:
            if not (rl.is_subset(stage.first, previous.first)
                    and rl.is_subset(stage.second, previous.second)):
                return CheckReport.failed(name, f"stages not descending at {n}")
        previous = stage
    return CheckReport.passed(name)


def forcing_cases() -> CheckReport:
    """The forcing step fires exactly when both hypotheses hold."""
    name = "prop1-forcing"
    for n in range(1, rl.STAGES + 1):
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


# One entry per real-line check of a campaign sample (corpus.RealSample);
# prop1-forcing takes no sample and runs once per campaign.
REALLINE_CHECKS: dict[str, Callable[[corpus.RealSample], CheckReport]] = {
    "boolean-laws": lambda sample: boolean_laws(sample.regular, sample.other),
    "raw-open-laws": lambda sample: raw_open_laws(sample.raw),
    "lemma1-invariants": lambda sample: lemma_invariants(sample.regular, sample.points),
    "prop2-invariants": lambda sample: descent_invariants(sample.pair),
}
