"""Separation axioms for finite frames and their verified correspondences.

`SeparationBattery` decides subfitness, weak subfitness, symmetry, the
subfit/Boolean correspondence ("ppt") and the pseudocomplement formula
("pcformula") for a batch of frames, one stack per carrier size, each list
when first read. It is the fifth batch of `checks.frame_structures`, which
every command reads, a single frame being a batch of one. Products are
bool `@`, exact at any width. A frame whose cross-check breaks gets the
exception it raises alone. Witnesses are minimal in lexicographic element
order, the witness order of `common.first_failures`, so reports are
reproducible and can be re-checked independently. A witness is decided as
element indices and named in a frame's labels by `common.named`, so that
every frame with the same tables reads the report in its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial, reduce
from typing import Callable, Optional, Sequence

import numpy as np

from .common import (CheckReport, EquivalenceViolation, TheoremViolation, first_failures,
                     named)
from .lattice import FiniteFrame, by_size
from .sublocales import Sublocale, open_rows


@dataclass(frozen=True)
class ConditionVerdict:
    """One independently evaluated condition of a multi-way equivalence."""

    name: str
    holds: bool
    witness: Optional[str] = None


@dataclass(frozen=True)
class SeparationReport:
    """Verdict for one separation axiom on one frame: the offending
    element(s) when it fails, and the per-condition breakdown of an axiom
    defined by an equivalence."""

    axiom: str
    holds: bool
    witness: Optional[tuple[int, ...]] = None
    witness_labels: Optional[tuple[str, ...]] = None
    conditions: tuple[ConditionVerdict, ...] = ()


def _failures(frames, names, laws, count=1) -> list[dict[int, tuple[int, ...]]]:
    """Per failure mask (F, ...) of the `count` that laws(*tables) returns,
    one call per carrier size: {position: coordinates of its first failure}."""
    found: list[dict] = [{} for _ in range(count)]
    for ks, tables in by_size(frames, names):
        for into, bad in zip(found, laws(*tables)):
            into.update((ks[g], at) for g, (_, at) in first_failures([bad]).items())
    return found


def _report(axiom: str, frame: FiniteFrame, witness: Optional[tuple[int, ...]]):
    """The axiom's report on frame: a pass, or a failure at witness."""
    if witness is None:
        return SeparationReport(axiom, True)
    return named(lambda frame: SeparationReport(
        axiom, False, witness, tuple(frame.labels[v] for v in witness)), frame)


def _weakly_subfit(frames) -> list[SeparationReport]:
    """Every a ≠ 0 has a c ≠ 1 with a ∨ c = 1."""
    found = _failures(frames, ("join",), lambda join: (  # rows a ≠ 0, columns c ≠ 1
        ~(join[:, 1:, :-1] == join.shape[1] - 1).any(axis=2),))[0]
    return [_report("weakly-subfit", frame, (found[k][0] + 1,) if k in found else None)
            for k, frame in enumerate(frames)]


def _symmetric(weak: Optional[int], proper: Optional[int], dense: Optional[int],
               frame: FiniteFrame) -> SeparationReport | EquivalenceViolation:
    """symmetric's report on frame from its three conditions, or an
    EquivalenceViolation where they disagree: each fails at an element a,
    or holds (None), weak at c(a), the closed-join frame's witness, and
    proper and dense at o(a), an open inside no proper ↑g."""
    conditions = tuple(ConditionVerdict(name, a is None,
                                        None if a is None else f"{kind}({frame.labels[a]})")
                       for name, kind, a in (("closed-join-weakly-subfit", "c", weak),
                                             ("proper-opens-covered", "o", proper),
                                             ("dense-proper-opens-covered", "o", dense)))
    if len({c.holds for c in conditions}) != 1:
        return EquivalenceViolation(
            f"symmetry conditions disagree on a frame with {frame.n} elements: "
            f"{[(c.name, c.holds, c.witness) for c in conditions]}")
    witness = None if proper is None else (proper,)
    return SeparationReport("symmetric", proper is None, witness,
                            witness and (frame.labels[proper],), conditions)


def _pcformula_breach(law: int, a: int, bound: int, frame: FiniteFrame) -> AssertionError:
    labels = frame.labels
    return AssertionError((f"a={labels[a]}: meet of covers is {labels[bound]}, "
                           f"a*={labels[frame.star[a]]}", f"a ∨ a* ≠ 1 at {labels[a]}",
                           f"{labels[a]} has no complement")[law])


def _ppt_breach(subfit: bool, mask: Optional[int], frame: FiniteFrame) -> TheoremViolation:
    """subfit disagrees with closed-join complementation, which fails at the
    closed sublocale `mask` (None where it holds)."""
    witness = None if mask is None else Sublocale(frame, mask).label()
    return TheoremViolation(f"subfit={subfit} but closed-join complementation={mask is None}; "
                            f"witness={witness}, frame labels={frame.labels}")


def _uncovered(leq, imp):
    """Proper opens o(a) inside no proper ↑g, ~(opens @ ~ups.T), and the dense ones."""
    opens = open_rows(imp)
    inside = ~(opens @ ~leq.transpose(0, 2, 1)) & ~leq.all(axis=2)[:, None, :]
    bad = ~opens.all(axis=2) & ~inside.any(axis=2)
    return bad, bad & opens[:, :, 0]


def _pcformula_laws(leq, meet, join, imp):
    """(F, law, a): a* is not the meet of the covers {x : x ∨ a = 1} (their
    lower bounds, one bool product against the order, are not ↓a*); a ∨ a* ≠ 1;
    a has no complement. Its first failure is the first law to fail, at its first a."""
    top, f, star = leq.shape[1] - 1, np.arange(len(leq))[:, None], imp[:, :, 0]
    lower = ~((join == top).transpose(0, 2, 1) @ ~leq.transpose(0, 2, 1))
    return (np.stack([(lower != leq.transpose(0, 2, 1)[f, star]).any(axis=2),
                      join[f, np.arange(top + 1), star] != top,
                      ~((meet == 0) & (join == top)).any(axis=2)], axis=1),)


class SeparationBattery:
    """The separation battery of a batch of frames: one list per outcome, in
    frame order, each entry a report or the breach it raises. symmetric and
    ppt read the closed-join frames that `closed_joins()` returns, and a
    frame whose closed-join frame failed gets that exception as both. The
    half of ppt that reads S(L) is `checks.subfit_correspondence`'s."""

    def __init__(self, frames: Sequence[FiniteFrame],
                 closed_joins: Optional[Callable[[], Sequence]] = None):
        self.frames, self._closed_joins = frames, closed_joins

    @cached_property
    def subfit(self) -> list[SeparationReport]:
        """a ≰ b needs some c with a ∨ c = 1 ≠ b ∨ c: one bool product over
        the join == top stack; the witness is the first (a, b), row-major."""
        def law(leq, join):
            hits = join == leq.shape[1] - 1
            return (~leq & ~(hits @ ~hits.transpose(0, 2, 1)),)
        found = _failures(self.frames, ("leq", "join"), law)[0]
        return [_report("subfit", frame, found.get(k)) for k, frame in enumerate(self.frames)]

    @cached_property
    def weakly_subfit(self) -> list[SeparationReport]:
        return _weakly_subfit(self.frames)

    @cached_property
    def pcformula(self) -> list[CheckReport | AssertionError]:
        """Not applicable unless weakly subfit; then a* is the meet of the
        covers of a and, finite frames being coframes, a ∨ a* = 1 and every
        element has a complement. The first law to break, at its first
        element, is the AssertionError."""
        weak = [k for k, report in enumerate(self.weakly_subfit) if report.holds]
        broken = _failures([self.frames[k] for k in weak], ("leq", "meet", "join", "imp"),
                           _pcformula_laws)[0]
        outcomes: list = [CheckReport.passed("pcformula", "not-applicable")] * len(self.frames)
        for g, k in enumerate(weak):
            frame = self.frames[k]
            outcomes[k] = CheckReport.passed("pcformula")
            if g in broken:
                law, a = broken[g]
                covers = np.flatnonzero(frame.join[:, a] == frame.top).tolist()
                bound = reduce(lambda u, v: int(frame.meet[u, v]), covers, frame.top)
                outcomes[k] = named(partial(_pcformula_breach, law, a, bound), frame)
        return outcomes

    @cached_property
    def _built(self) -> tuple[list, list[int]]:
        """The closed-join frames, and the positions of those that were built."""
        cjfs = self._closed_joins()
        return cjfs, [k for k, cjf in enumerate(cjfs) if not isinstance(cjf, Exception)]

    @cached_property
    def symmetric(self) -> list[SeparationReport | Exception]:
        """Three readings of symmetry, evaluated independently: (1) the
        closed-join frame is weakly subfit; (2) every proper open o(a) sits
        inside a proper join of closed sublocales ↑g; (3) so does every dense
        one. Disagreeing verdicts are an EquivalenceViolation. (3) holds
        with (2) by construction, so it is no second route: a*, the least
        member of o(a), is 0 exactly when 0 ∈ o(a) (o(a) dense), and o(a)
        lies inside a proper ↑g iff a* ≠ 0, so every uncovered open is dense.
        It stays: the records are fixed."""
        (cjfs, built), frames = self._built, self.frames
        inner = _weakly_subfit([cjfs[k].frame for k in built])
        opens = _failures([frames[k] for k in built], ("leq", "imp"), _uncovered, 2)
        reports = list(cjfs)
        for g, k in enumerate(built):
            weak = None if inner[g].holds else cjfs[k].generators[inner[g].witness[0]]
            proper, dense = (None if g not in found else found[g][0] for found in opens)
            build = partial(_symmetric, weak, proper, dense)
            reports[k] = (build(frames[k]) if weak is proper is dense is None  # names nothing
                          else named(build, frames[k]))
        return reports

    @cached_property
    def ppt(self) -> list[CheckReport | Exception]:
        """Subfit iff every element of the closed-join frame has a complement
        in its own tables; where the two differ, a TheoremViolation names the
        first uncomplemented element."""
        cjfs, built = self._built
        missing = _failures([cjfs[k].frame for k in built], ("meet", "join"), lambda meet, join: (
            ~((join == join.shape[1] - 1) & (meet == 0)).any(axis=2),))[0]
        outcomes = list(cjfs)
        for g, k in enumerate(built):
            subfit, boolean = self.subfit[k].holds, g not in missing
            outcomes[k] = CheckReport.passed("ppt")
            if subfit != boolean:
                mask = None if boolean else cjfs[k].masks[missing[g][0]]
                outcomes[k] = named(partial(_ppt_breach, subfit, mask), self.frames[k])
        return outcomes
