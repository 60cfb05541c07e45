"""Command-line front door: single checks, corpus campaigns, DOT export.

Each subcommand names its handler (`set_defaults(run=...)`), which `main`
runs on a fresh Report; the three campaigns run their check registries
(checks.LATTICE_CHECKS, SPACE_CHECKS, REALLINE_CHECKS) through one loop.

Each record is written as it is decided, in one of two flavors: a
human-readable line (default) or a machine-readable `key=value` record
(--machine); a summary line comes last. A check's record is its item's head,
rendered once per item, then its tail, rendered once and kept in Report.tails
if it passes. Machine output is deterministic for fixed campaign parameters
and seed: no timing, no environment, generation order only.

Exit codes: 0 all checks hold/consistent, 1 some axiom failed (reported as
data with a witness), 2 internal violation or unusable input. An internal
cross-check that breaks raises one of BREACHES. A campaign records it as a
`verdict=violation` record of that item and check and goes on to the next;
anywhere else `main` reports it on stderr. A budget hit, MemoryError or
unusable input mid-campaign ends it on stderr, with the records written
before it left on stdout and no summary line. A reader that closes stdout
early (`| head`) stops the output, not the checks: every check still runs,
and the exit code is the verdict's, with no traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Optional

from . import checks, corpus, io, realline as rl, spaces as sp
from .common import (PASS, FAIL, VIOLATION, BudgetExceeded, CheckReport, EquivalenceViolation,
                     TheoremViolation, slice_len, within_budget)
from .lattice import NotALattice, NotDistributive, cover_pairs, table_frames
from .spaces import FiniteSpace


# A broken internal cross-check: a bug, never a property of the input.
BREACHES = (AssertionError, TheoremViolation, EquivalenceViolation)
MARKERS = {PASS: "ok", FAIL: "FAIL", VIOLATION: "VIOLATION"}  # the verdicts in human output


class UnknownCheck(ValueError):
    """--checks named something no campaign implements."""


def _sanitize(value: str) -> str:
    return "_".join(str(value).split()) or "-"


def _write(text: str, flush: bool = False) -> None:
    """Write text to sys.stdout as it is now; once its reader has closed it,
    to /dev/null, so that every check still runs for the exit code."""
    try:
        sys.stdout.write(text)
        if flush:
            sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


class Report:
    """Writes each record as it is added, in the form --machine selects, and
    keeps only the verdict counts, for the summary line and the exit code."""

    def __init__(self, machine: bool):
        self.machine, self.started, self.item, self.head = machine, time.monotonic(), None, ""
        self.counts, self.tails = dict.fromkeys((PASS, FAIL, VIOLATION), 0), {}

    def add(self, human: str, **fields) -> None:
        """One record, its fields naming its verdict; with no fields, a line
        that only human output shows."""
        if fields:
            self.counts[fields["verdict"]] += 1
        if not self.machine:
            _write(human + "\n")
        elif fields:
            _write(" ".join(f"{k}={_sanitize(v)}" for k, v in fields.items()) + "\n")

    def tail(self, check: CheckReport) -> str:
        """check's record after its item's head, newline included."""
        if self.machine:
            return f"{_sanitize(check.name)} verdict={check.level}" + (
                f" witness={_sanitize(check.witness)}\n" if check.witness else "\n")
        return f"{check.name} {MARKERS[check.level]}" + (
            f" [{check.witness}]\n" if check.witness else "\n")

    def finish(self) -> int:
        """Write the summary line; returns the exit code: 2 on a violation,
        1 on a failure, else 0."""
        passed, failed, violated = self.counts.values()
        total = passed + failed + violated
        _write(f"summary records={total} pass={passed} fail={failed} violation={violated}\n"
               if self.machine else f"summary: {total} records, {passed} pass, {failed} fail, "
               f"{violated} violation ({time.monotonic() - self.started:.2f}s)\n")
        return 2 if violated else 1 if failed else 0


def _record_conditions(report: Report, item: str, conditions) -> None:
    """One indented record per condition of an equivalence, with its witness."""
    for condition in conditions:
        fields = {"witness": condition.witness} if condition.witness else {}
        human = "" if report.machine else f"  {condition.name}: {condition.holds}" + (
            f" [{condition.witness}]" if fields else "")
        report.add(human=human, item=item, check=condition.name,
                   verdict=PASS if condition.holds else FAIL, **fields)


def _record_from(report: Report, item: str, check: CheckReport) -> None:
    """Write check's record on item: the item's head, then check's tail."""
    report.counts[check.level] += 1
    if item != report.item:
        report.item = item
        report.head = f"item={_sanitize(item)} check=" if report.machine else f"{item}: "
    if check.level != PASS:
        tail = report.tail(check)
    elif (tail := report.tails.get((check.name, check.witness))) is None:
        tail = report.tails[check.name, check.witness] = report.tail(check)
    _write(report.head + tail)


# ---------------------------------------------------------------------------
# Single-input checks: one handler per subcommand


def _check_frame(args, report: Report) -> None:
    try:
        frame = io.load_lattice_text(Path(args.file).read_text(), args.budget)
    except (NotALattice, NotDistributive) as exc:
        report.add(human=f"invalid frame: {exc}", item=args.file, check="frame",
                   verdict=FAIL, witness=str(exc))
        return
    verdict = next(checks.frame_structures([frame])).frame_laws().level
    fields = {"item": args.file, "check": "frame", "verdict": verdict, "elements": str(frame.n),
              "covers": ";".join(f"{i}<{j}" for i, j in zip(*cover_pairs(frame.leq)))}
    report.add(human=f"valid frame with {frame.n} elements", **fields)
    report.add(io.format_lattice(frame).rstrip("\n"))


def _sublocales(args, report: Report) -> None:
    frame = io.load_lattice_text(Path(args.file).read_text())
    lattice = next(checks.frame_structures([frame], args.budget)).lattice
    report.add(f"{len(lattice)} sublocales")
    for i, s in enumerate(lattice.sublocales):
        report.add(human=f"  {s.label()}", item=f"sublocale:{i}", label=s.label(), verdict=PASS)
    _record_from(report, args.file, lattice.laws)


def _closed_joins(args, report: Report) -> None:
    frame = io.load_lattice_text(Path(args.file).read_text(), args.budget)
    cjf = next(checks.frame_structures([frame])).closed_joins
    laws = cjf.frame_law_report()  # decided before any line: a breach exits 2 with none
    report.add(f"{len(cjf)} joins of closed sublocales")
    for i in range(len(cjf)):
        report.add(human=f"  {cjf.frame.labels[i]} = {cjf.elements[i].label()}",
                   item=f"element:{i}", label=cjf.frame.labels[i], verdict=PASS)
    _record_from(report, args.file, laws)


def _separation(args, report: Report) -> None:
    frame = io.load_lattice_text(Path(args.file).read_text())
    item = next(checks.frame_structures([frame], args.budget))
    if args.axiom in ("ppt", "pcformula"):
        _record_from(report, args.file, checks.LATTICE_CHECKS[args.axiom](item))
        return
    verdict = item.separation({"weak": "weakly_subfit"}.get(args.axiom, args.axiom))
    fields = {"item": args.file, "check": args.axiom,
              "verdict": PASS if verdict.holds else FAIL}
    human = f"{args.axiom}: {'holds' if verdict.holds else 'fails'}"
    if verdict.witness_labels:
        fields["witness"] = ",".join(verdict.witness_labels)
        human += f" [witness {fields['witness']}]"
    report.add(human=human, **fields)
    _record_conditions(report, args.file, verdict.conditions)


def _spaces_check(args, report: Report) -> None:
    space = io.load_space_text(Path(args.file).read_text(), args.budget)
    item = next(sp.space_structures([space], args.budget))
    proposition, remark = item.proposition(), item.td_remark()  # decided before any line
    report.add(human=f"symmetric: {proposition.holds}", item=args.file,
               check="space-proposition", verdict=PASS if proposition.holds else FAIL)
    _record_conditions(report, args.file, proposition.conditions)
    _record_from(report, args.file, remark)


def _spaces_enumerate(args, report: Report) -> None:
    def listed():
        """Each topology after its record, added only now although its chunk
        was enumerated before, so --report checks it next."""
        spaces = sp.enumerate_topologies(args.points, t0_only=args.t0, budget=args.budget)
        for i, structure in enumerate(sp.space_structures(spaces)):
            item, space = f"topo{args.points}:{i:04d}", structure.space
            opens = ",".join(sp.bitstring(o, space.points) for o in space.opens)
            report.add(human=f"{item} opens={opens}", item=item, check="topology",
                       verdict=PASS, opens=opens)
            yield item, structure

    names = list(checks.SPACE_CHECKS) if args.report else []
    count = _campaign(report, listed(), checks.SPACE_CHECKS, names)
    report.add(human=f"count: {count}", item="enumerator", check="count",
               verdict=PASS, count=str(count))


def _export_dot(args, report: Report) -> int:
    loaded = io.load_any(Path(args.file).read_text(),
                         None if args.target == "sublocales" else args.budget)
    if args.target == "specialization":
        if not isinstance(loaded, FiniteSpace):
            print("specialization export needs a space file", file=sys.stderr)
            return 2
        _write(io.dot_specialization(loaded))
        return 0
    if isinstance(loaded, FiniteSpace):
        print(f"{args.target} export needs a lattice file", file=sys.stderr)
        return 2
    if args.target == "hasse":
        _write(io.dot_hasse(loaded))
        return 0
    item = next(checks.frame_structures([loaded], args.budget))
    _write(io.dot_sublocales(item.lattice) if args.target == "sublocales"
           else io.dot_closed_joins(item.closed_joins))
    return 0


# ---------------------------------------------------------------------------
# Campaigns: every kind runs its check registry through one loop


def _check_names(text: str, registry, default: str) -> list[str]:
    """The comma-separated --checks value, or the default when it is empty;
    a name outside the registry raises UnknownCheck."""
    names = text.split(",") if text else [default]
    for name in names:
        if name not in registry:
            raise UnknownCheck(f"unknown check {name!r}; known: {', '.join(registry)}")
    return names


def _campaign(report: Report, items, registry, names) -> int:
    """Record each named check of the registry on every (item, subject) pair,
    an item at a time; returns the number of items. A check that breaches
    is recorded as that item's violation of that check, with the breach as
    its witness, and the campaign goes on."""
    count = 0
    for count, (item, subject) in enumerate(items, start=1):
        for name in names:
            try:
                check = registry[name](subject)
            except BREACHES as exc:
                check = CheckReport(name, VIOLATION, str(exc))
            _record_from(report, item, check)
    return count


def _lattice_items(max_size: int):
    """(item, FrameStructure) for the labeled corpus, then the named frames.
    A corpus item's frame is row j of its carrier size's validated tables, j
    its canonical order (its `stack`). The canonical orders of a size share
    one batch of structures per slice of slice_len(n**3) of them, the bound
    of a corpus chunk, and each item reads slot j in its own labels. The
    named frames share one batch."""
    tables = None
    for item, frame in corpus.iter_distributive_frames(max_size):
        if frame.stack[0] is not tables:
            tables, step = frame.stack[0], slice_len(frame.n ** 3)
            orders = table_frames(tables, [tuple(map(str, range(frame.n)))] * len(tables["leq"]))
            batches = [checks.frame_batches(orders[start:start + step])
                       for start in range(0, len(orders), step)]
        j = frame.stack[1]
        yield item, checks.FrameStructure(frame, j % step, batches[j // step])
    named = sorted(corpus.named_frames().items())
    yield from zip([item for item, _ in named],
                   checks.frame_structures([frame for _, frame in named]))


def _campaign_lattices(args, report: Report) -> None:
    names = _check_names(args.checks, checks.LATTICE_CHECKS, "frame-laws")
    within_budget("corpus", args.max_size, args.budget)
    _campaign(report, _lattice_items(args.max_size), checks.LATTICE_CHECKS, names)


def _campaign_spaces(args, report: Report) -> None:
    names = _check_names(args.checks, checks.SPACE_CHECKS, "space-proposition")
    spaces = sp.space_structures(sp.enumerate_topologies(args.points, budget=args.budget))
    count = _campaign(report, ((f"topo{args.points}:{i:04d}", structure)
                               for i, structure in enumerate(spaces)), checks.SPACE_CHECKS, names)
    report.add(human=f"{count} topologies on {args.points} points",
               item="enumerator", check="count", verdict=PASS, count=str(count))


def _campaign_realline(args, report: Report) -> None:
    names = _check_names(args.checks, [*checks.REALLINE_CHECKS, "prop1-forcing"], "boolean-laws")
    per_sample = [name for name in names if name != "prop1-forcing"]
    if per_sample:  # no sample is drawn when no check reads one
        rng = Random(args.seed)
        samples = ((f"sample:{i:04d}", corpus.real_sample(rng)) for i in range(args.count))
        _campaign(report, samples, checks.REALLINE_CHECKS, per_sample)
    if "prop1-forcing" in names:
        _campaign(report, [("forcing-cases", None)],
                  {"prop1-forcing": lambda _: checks.forcing_cases()}, ["prop1-forcing"])


# ---------------------------------------------------------------------------
# Real-line one-shots


def _parse_point(text: str) -> Fraction:
    x = rl.parse_endpoint(text)
    if not isinstance(x, Fraction):
        raise ValueError(f"--x needs a finite point, got {text.strip()!r}")
    return x


def _lemma1(args, report: Report) -> None:
    try:
        term = rl.zero_padded_term(rl.parse_open_set(args.set), args.n)
    except rl.NotRegular as exc:
        report.add(human=f"not regular; regularization {exc.regularization}",
                   item="lemma1", check="term", verdict=FAIL,
                   witness=rl.format_open_set(exc.regularization))
        return
    report.add(human=rl.format_open_set(term), item="lemma1", check="term",
               verdict=PASS, n=str(args.n), result=rl.format_open_set(term))


def _obstruct(args, report: Report) -> None:
    try:
        cert = rl.exclusion_certificate(rl.parse_open_set(args.set), _parse_point(args.x))
    except (rl.ZeroPoint, rl.PointInU, rl.NotRegular) as exc:
        report.add(human=f"no certificate: {exc}", item="obstruct",
                   check="certificate", verdict=FAIL, witness=str(exc))
        return
    report.add(human=f"N={cert.stage} term={rl.format_open_set(cert.term)}",
               item="obstruct", check="certificate", verdict=PASS,
               stage=str(cert.stage), term=rl.format_open_set(cert.term))


def _pair(args, report: Report) -> Optional[rl.KRealPair]:
    """The --u/--v pair, or None after recording why it is invalid."""
    try:
        return rl.KRealPair(rl.parse_open_set(args.u), rl.parse_open_set(args.v))
    except rl.InvalidPair as exc:
        report.add(human=f"invalid pair: {exc}", item=args.realline_op,
                   check="pair", verdict=FAIL, witness=str(exc))
        return None


def _prop2(args, report: Report) -> None:
    pair = _pair(args, report)
    if pair is not None:
        stage = rl.descending_pair(pair, args.n)
        report.add(human=f"U_{args.n}={rl.format_open_set(stage.first)} "
                         f"V_{args.n}={rl.format_open_set(stage.second)}",
                   item="prop2", check="witness-pair", verdict=PASS,
                   n=str(args.n), first=rl.format_open_set(stage.first),
                   second=rl.format_open_set(stage.second))


def _prop1(args, report: Report) -> None:
    pair = _pair(args, report)
    if pair is not None:
        verdict = rl.forcing_check(pair, args.n)
        report.add(human=f"forced={verdict.forced} punctured-line={verdict.has_punctured_line} "
                         f"zero-interval={verdict.has_zero_interval}",
                   item="prop1", check="forcing", verdict=PASS,
                   forced=str(verdict.forced).lower(),
                   punctured_line=str(verdict.has_punctured_line).lower(),
                   zero_interval=str(verdict.has_zero_interval).lower())


# ---------------------------------------------------------------------------
# Entry point


def _size(text: str) -> int:
    """The value of a size or count flag: an integer, 0 or more."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"need an integer >= 0, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    """The argument parser; every leaf subcommand sets `run`, its handler."""
    parser = argparse.ArgumentParser(prog="localekit")
    parser.add_argument("--machine", action="store_true",
                        help="emit line-oriented key=value records")
    parser.add_argument("--budget", type=int, default=None,
                        help="override the enumeration budget of the subcommand")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized corpora")
    commands = parser.add_subparsers(dest="command", required=True)

    for name, run in (("check-frame", _check_frame), ("sublocales", _sublocales),
                      ("sc", _closed_joins)):
        cmd = commands.add_parser(name)
        cmd.add_argument("file")
        cmd.set_defaults(run=run)

    cmd = commands.add_parser("separation")
    cmd.add_argument("file")
    cmd.add_argument("--axiom", default="subfit",
                     choices=["subfit", "weak", "symmetric", "ppt", "pcformula"])
    cmd.set_defaults(run=_separation)

    cmd = commands.add_parser("realline")
    ops = cmd.add_subparsers(dest="realline_op", required=True)
    lemma = ops.add_parser("lemma1")
    lemma.add_argument("--set", required=True)
    lemma.add_argument("--n", type=int, required=True)
    lemma.set_defaults(run=_lemma1)
    obstruct = ops.add_parser("obstruct")
    obstruct.add_argument("--set", required=True)
    obstruct.add_argument("--x", required=True)
    obstruct.set_defaults(run=_obstruct)
    for name, run in (("prop2", _prop2), ("prop1", _prop1)):
        op = ops.add_parser(name)
        op.add_argument("--u", required=True)
        op.add_argument("--v", required=True)
        op.add_argument("--n", type=int, required=True)
        op.set_defaults(run=run)

    cmd = commands.add_parser("spaces")
    ops = cmd.add_subparsers(dest="spaces_op", required=True)
    check = ops.add_parser("check")
    check.add_argument("file")
    check.set_defaults(run=_spaces_check)
    enum = ops.add_parser("enumerate")
    enum.add_argument("--n", type=_size, required=True, dest="points")
    enum.add_argument("--t0", action="store_true")
    enum.add_argument("--report", action="store_true")
    enum.set_defaults(run=_spaces_enumerate)

    cmd = commands.add_parser("campaign")
    kinds = cmd.add_subparsers(dest="campaign_kind", required=True)
    lat = kinds.add_parser("lattices")
    lat.add_argument("--max-size", type=_size, default=6)
    lat.set_defaults(run=_campaign_lattices)
    spc = kinds.add_parser("spaces")
    spc.add_argument("--points", type=_size, default=4)
    spc.set_defaults(run=_campaign_spaces)
    line = kinds.add_parser("realline")
    line.add_argument("--count", type=_size, default=200)
    line.set_defaults(run=_campaign_realline)
    for kind in (lat, spc, line):
        kind.add_argument("--checks", default="")

    cmd = commands.add_parser("export-dot")
    cmd.add_argument("file")
    cmd.add_argument("--target", required=True,
                     choices=["hasse", "sublocales", "sc", "specialization"])
    cmd.set_defaults(run=_export_dot)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if [] in vars(args).values():
        # some argparse versions turn the option value "--" (as in --set=--) into []
        print("error: '--' is not a value", file=sys.stderr)
        return 2
    report = Report(args.machine)
    try:
        code = args.run(args, report)
        if code is None:  # export-dot writes its own output and returns its code
            code = report.finish()
    except (io.ParseError, BudgetExceeded, UnknownCheck, OSError, ValueError,
            NotALattice, NotDistributive, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except BREACHES as exc:
        print(f"violation: {exc}", file=sys.stderr)
        code = 2
    _write("", flush=True)  # records written before an error stay on stdout
    return code


if __name__ == "__main__":
    sys.exit(main())
