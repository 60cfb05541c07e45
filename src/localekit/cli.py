"""Command-line front door: single checks, corpus campaigns, DOT export.

Output comes in two flavors: human-readable lines (default) and a
machine-readable `key=value` record per check item (--machine). Machine
output is deterministic for fixed campaign parameters and seed: no
timing, no environment, generation order only.

Exit codes: 0 all checks hold/consistent, 1 some axiom failed (reported as
data with a witness), 2 internal violation (including a failed internal
cross-check, raised as AssertionError) or unusable input.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from pathlib import Path
from random import Random
from typing import Optional

from . import checks, corpus, io, realline as rl, separation, spaces as sp, sublocales as sub
from .common import (PASS, FAIL, VIOLATION, BudgetExceeded, CheckReport, EquivalenceViolation,
                     TheoremViolation, within_budget)
from .lattice import FiniteFrame, NotALattice, NotDistributive
from .spaces import FiniteSpace


class UnknownCheck(ValueError):
    """--checks named something no campaign implements."""


def _sanitize(value: str) -> str:
    return "_".join(str(value).split()) or "-"


@dataclass
class Report:
    """Accumulated check records plus the exit-code contract."""

    records: list[dict] = field(default_factory=list)
    human_lines: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    def add(self, human: Optional[str] = None, **fields) -> None:
        self.records.append(fields)
        if human is not None:
            self.human_lines.append(human)

    @property
    def counts(self) -> dict:
        out = {PASS: 0, FAIL: 0, VIOLATION: 0}
        for record in self.records:
            verdict = record.get("verdict")
            if verdict in out:
                out[verdict] += 1
        return out

    @property
    def exit_code(self) -> int:
        counts = self.counts
        if counts[VIOLATION]:
            return 2
        if counts[FAIL]:
            return 1
        return 0

    def emit(self, machine: bool, out=None) -> None:
        out = out if out is not None else sys.stdout
        if machine:
            for record in self.records:
                print(" ".join(f"{k}={_sanitize(v)}" for k, v in record.items()), file=out)
            counts = self.counts
            print(f"summary records={len(self.records)} pass={counts[PASS]} "
                  f"fail={counts[FAIL]} violation={counts[VIOLATION]}", file=out)
        else:
            for line in self.human_lines:
                print(line, file=out)
            counts = self.counts
            print(f"summary: {len(self.records)} records, {counts[PASS]} pass, "
                  f"{counts[FAIL]} fail, {counts[VIOLATION]} violation "
                  f"({self.elapsed:.2f}s)", file=out)


def _record_conditions(report: Report, item: str, conditions) -> None:
    """One indented record per condition of an equivalence, with its witness."""
    for condition in conditions:
        fields = {"witness": condition.witness} if condition.witness else {}
        suffix = f" [{condition.witness}]" if condition.witness else ""
        report.add(human=f"  {condition.name}: {condition.holds}{suffix}", item=item,
                   check=condition.name, verdict=PASS if condition.holds else FAIL, **fields)


def _record_from(report: Report, item: str, check: CheckReport) -> None:
    fields = {"item": item, "check": check.name, "verdict": check.level}
    if check.witness:
        fields["witness"] = check.witness
    marker = {PASS: "ok", FAIL: "FAIL", VIOLATION: "VIOLATION"}[check.level]
    suffix = f" [{check.witness}]" if check.witness else ""
    report.add(human=f"{item}: {check.name} {marker}{suffix}", **fields)


# ---------------------------------------------------------------------------
# Single-input checks


def run_check(path: str, check_name: str, *, axiom: Optional[str] = None,
              budget: Optional[int] = None) -> Report:
    """Load one input file and run one named check over it."""
    text = Path(path).read_text()
    report = Report()
    if check_name == "check-frame":
        try:
            frame = io.load_lattice_text(text, budget)
        except (NotALattice, NotDistributive) as exc:
            report.add(human=f"invalid frame: {exc}", item=path, check="frame",
                       verdict=FAIL, witness=str(exc))
            return report
        laws = checks.frame_laws(frame)
        fields = {"item": path, "check": "frame", "verdict": laws.level,
                  "elements": str(frame.n),
                  "covers": ";".join(f"{i}<{j}" for i, j in frame.poset.covers())}
        report.add(human=f"valid frame with {frame.n} elements", **fields)
        report.human_lines.append(io.format_lattice(frame).rstrip("\n"))
        return report
    if check_name == "sublocales":
        frame = io.load_lattice_text(text)
        lattice = sub.all_sublocales(frame, budget)
        for i, s in enumerate(lattice.sublocales):
            report.add(human=f"  {s.label()}", item=f"sublocale:{i}",
                       label=s.label(), verdict=PASS)
        _record_from(report, path, lattice.laws)
        report.human_lines.insert(0, f"{len(lattice)} sublocales")
        return report
    if check_name == "sc":
        frame = io.load_lattice_text(text, budget)
        cjf = sub.closed_join_frame(frame)
        for i in range(len(cjf)):
            report.add(human=f"  {cjf.frame.labels[i]} = {cjf.elements[i].label()}",
                       item=f"element:{i}", label=cjf.frame.labels[i], verdict=PASS)
        _record_from(report, path, cjf.frame_law_report())
        report.human_lines.insert(0, f"{len(cjf)} joins of closed sublocales")
        return report
    if check_name == "separation":
        frame = io.load_lattice_text(text)
        return _separation_report(path, frame, axiom or "subfit", budget)
    if check_name == "spaces":
        space = io.load_space_text(text, budget)
        return _space_report(path, space, budget)
    raise UnknownCheck(check_name)


def _separation_report(item: str, frame: FiniteFrame, axiom: str, budget: Optional[int]) -> Report:
    report = Report()
    if axiom == "subfit":
        verdict = separation.is_subfit(frame)
    elif axiom == "weak":
        verdict = separation.is_weakly_subfit(frame)
    elif axiom == "symmetric":
        verdict = separation.is_symmetric(frame)
    elif axiom == "ppt":
        _record_from(report, item, checks.subfit_correspondence(frame, budget=budget))
        return report
    elif axiom == "pcformula":
        _record_from(report, item, checks.pc_formula(frame))
        return report
    else:
        raise UnknownCheck(axiom)
    fields = {"item": item, "check": axiom,
              "verdict": PASS if verdict.holds else FAIL}
    human = f"{axiom}: {'holds' if verdict.holds else 'fails'}"
    if verdict.witness_labels:
        fields["witness"] = ",".join(verdict.witness_labels)
        human += f" [witness {fields['witness']}]"
    report.add(human=human, **fields)
    _record_conditions(report, item, verdict.conditions)
    return report


def _space_report(item: str, space: FiniteSpace, budget: Optional[int]) -> Report:
    report = Report()
    proposition = sp.space_proposition_check(space, budget)
    fields = {"item": item, "check": "space-proposition",
              "verdict": PASS if proposition.holds else FAIL}
    report.add(human=f"symmetric: {proposition.holds}", **fields)
    _record_conditions(report, item, proposition.conditions)
    if sp.is_t0(space):
        _record_from(report, item, checks.td_remark(space))
    else:
        report.add(human="td-remark: skipped (not T_0)", item=item,
                   check="td-remark", verdict=PASS, witness="skipped-not-t0")
    return report


# ---------------------------------------------------------------------------
# Campaigns


def _check_names(text: str, registry, default: str) -> list[str]:
    """The comma-separated --checks value, or the default when it is empty;
    a name outside the registry raises UnknownCheck."""
    names = text.split(",") if text else [default]
    for name in names:
        if name not in registry:
            raise UnknownCheck(name)
    return names


def _campaign_lattices(args) -> Report:
    report = Report()
    names = _check_names(args.checks, checks.LATTICE_CHECKS, "frame-laws")
    within_budget("corpus", args.max_size, args.budget)
    batches = chain(corpus.chunked(corpus.iter_distributive_frames(args.max_size)),
                    [sorted(corpus.named_frames().items())])
    for batch in batches:
        shared = checks.frame_structures([frame for _, frame in batch])
        for (item, _), structure in zip(batch, shared):
            for name in names:
                _record_from(report, item, checks.LATTICE_CHECKS[name](structure))
    return report


def _campaign_spaces(args) -> Report:
    report = Report()
    names = _check_names(args.checks, checks.SPACE_CHECKS, "space-proposition")
    count = 0
    for i, space in enumerate(sp.enumerate_topologies(args.points, budget=args.budget)):
        count += 1
        for name in names:
            _record_from(report, f"topo{args.points}:{i:04d}", checks.SPACE_CHECKS[name](space))
    report.add(human=f"{count} topologies on {args.points} points",
               item="enumerator", check="count", verdict=PASS, count=str(count))
    return report


REALLINE_CAMPAIGN_CHECKS = ("boolean-laws", "raw-open-laws", "lemma1-invariants",
                            "prop2-invariants", "prop1-forcing")


def _campaign_realline(args) -> Report:
    report = Report()
    names = _check_names(args.checks, REALLINE_CAMPAIGN_CHECKS, "boolean-laws")
    rng = Random(args.seed)
    for i in range(args.count):
        item = f"sample:{i:04d}"
        regular = corpus.random_regular_open(rng)
        other = corpus.random_regular_open(rng)
        raw = corpus.random_open(rng)
        pair = corpus.random_pair(rng)
        points = corpus.sample_points_outside(rng, regular, 20)
        for name in names:
            if name == "boolean-laws":
                _record_from(report, item, checks.boolean_laws(regular, other))
            elif name == "raw-open-laws":
                _record_from(report, item, checks.raw_open_laws(raw))
            elif name == "lemma1-invariants":
                _record_from(report, item, checks.lemma_invariants(regular, points))
            elif name == "prop2-invariants":
                _record_from(report, item, checks.descent_invariants(pair))
    if "prop1-forcing" in names:
        _record_from(report, "forcing-cases", checks.forcing_cases())
    return report


# ---------------------------------------------------------------------------
# Real-line one-shots


def _parse_point(text: str) -> Fraction:
    x = rl.parse_endpoint(text)
    if not isinstance(x, Fraction):
        raise ValueError(f"--x needs a finite point, got {text.strip()!r}")
    return x


def _realline_report(args) -> Report:
    report = Report()
    if args.realline_op == "lemma1":
        u = rl.parse_open_set(args.set)
        try:
            term = rl.zero_padded_term(u, args.n)
        except rl.NotRegular as exc:
            report.add(human=f"not regular; regularization {exc.regularization}",
                       item="lemma1", check="term", verdict=FAIL,
                       witness=rl.format_open_set(exc.regularization))
            return report
        report.add(human=rl.format_open_set(term), item="lemma1", check="term",
                   verdict=PASS, n=str(args.n), result=rl.format_open_set(term))
        return report
    if args.realline_op == "obstruct":
        u = rl.parse_open_set(args.set)
        try:
            cert = rl.exclusion_certificate(u, _parse_point(args.x))
        except (rl.ZeroPoint, rl.PointInU, rl.NotRegular) as exc:
            report.add(human=f"no certificate: {exc}", item="obstruct",
                       check="certificate", verdict=FAIL, witness=str(exc))
            return report
        report.add(human=f"N={cert.stage} term={rl.format_open_set(cert.term)}",
                   item="obstruct", check="certificate", verdict=PASS,
                   stage=str(cert.stage), term=rl.format_open_set(cert.term))
        return report
    pair_error: Optional[str] = None
    try:
        pair = rl.KRealPair(rl.parse_open_set(args.u), rl.parse_open_set(args.v))
    except rl.InvalidPair as exc:
        pair_error = str(exc)
    if pair_error is not None:
        report.add(human=f"invalid pair: {pair_error}", item=args.realline_op,
                   check="pair", verdict=FAIL, witness=pair_error)
        return report
    if args.realline_op == "prop2":
        stage = rl.descending_pair(pair, args.n)
        report.add(human=f"U_{args.n}={rl.format_open_set(stage.first)} "
                         f"V_{args.n}={rl.format_open_set(stage.second)}",
                   item="prop2", check="witness-pair", verdict=PASS,
                   n=str(args.n), first=rl.format_open_set(stage.first),
                   second=rl.format_open_set(stage.second))
        return report
    verdict = rl.forcing_check(pair, args.n)
    report.add(human=f"forced={verdict.forced} punctured-line={verdict.has_punctured_line} "
                     f"zero-interval={verdict.has_zero_interval}",
               item="prop1", check="forcing", verdict=PASS,
               forced=str(verdict.forced).lower(),
               punctured_line=str(verdict.has_punctured_line).lower(),
               zero_interval=str(verdict.has_zero_interval).lower())
    return report


# ---------------------------------------------------------------------------
# Entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="localekit")
    parser.add_argument("--machine", action="store_true",
                        help="emit line-oriented key=value records")
    parser.add_argument("--budget", type=int, default=None,
                        help="override the enumeration budget of the subcommand")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized corpora")
    commands = parser.add_subparsers(dest="command", required=True)

    for name in ("check-frame", "sublocales", "sc"):
        cmd = commands.add_parser(name)
        cmd.add_argument("file")

    cmd = commands.add_parser("separation")
    cmd.add_argument("file")
    cmd.add_argument("--axiom", default="subfit",
                     choices=["subfit", "weak", "symmetric", "ppt", "pcformula"])

    cmd = commands.add_parser("realline")
    ops = cmd.add_subparsers(dest="realline_op", required=True)
    lemma = ops.add_parser("lemma1")
    lemma.add_argument("--set", required=True)
    lemma.add_argument("--n", type=int, required=True)
    obstruct = ops.add_parser("obstruct")
    obstruct.add_argument("--set", required=True)
    obstruct.add_argument("--x", required=True)
    for name in ("prop2", "prop1"):
        op = ops.add_parser(name)
        op.add_argument("--u", required=True)
        op.add_argument("--v", required=True)
        op.add_argument("--n", type=int, required=True)

    cmd = commands.add_parser("spaces")
    ops = cmd.add_subparsers(dest="spaces_op", required=True)
    check = ops.add_parser("check")
    check.add_argument("file")
    enum = ops.add_parser("enumerate")
    enum.add_argument("--n", type=int, required=True, dest="points")
    enum.add_argument("--t0", action="store_true")
    enum.add_argument("--report", action="store_true")

    cmd = commands.add_parser("campaign")
    kinds = cmd.add_subparsers(dest="campaign_kind", required=True)
    lat = kinds.add_parser("lattices")
    lat.add_argument("--max-size", type=int, default=6)
    lat.add_argument("--checks", default="")
    spc = kinds.add_parser("spaces")
    spc.add_argument("--points", type=int, default=4)
    spc.add_argument("--checks", default="")
    line = kinds.add_parser("realline")
    line.add_argument("--count", type=int, default=200)
    line.add_argument("--checks", default="")

    cmd = commands.add_parser("export-dot")
    cmd.add_argument("file")
    cmd.add_argument("--target", required=True,
                     choices=["hasse", "sublocales", "sc", "specialization"])
    return parser


def _export_dot(args) -> int:
    loaded = io.load_any(Path(args.file).read_text(),
                         None if args.target == "sublocales" else args.budget)
    if args.target == "specialization":
        if not isinstance(loaded, FiniteSpace):
            print("specialization export needs a space file", file=sys.stderr)
            return 2
        sys.stdout.write(io.dot_specialization(loaded))
        return 0
    if isinstance(loaded, FiniteSpace):
        print(f"{args.target} export needs a lattice file", file=sys.stderr)
        return 2
    if args.target == "hasse":
        sys.stdout.write(io.dot_hasse(loaded))
    elif args.target == "sublocales":
        sys.stdout.write(io.dot_sublocales(sub.all_sublocales(loaded, args.budget)))
    else:
        sys.stdout.write(io.dot_closed_joins(sub.closed_join_frame(loaded)))
    return 0


def _spaces_enumerate(args) -> Report:
    report = Report()
    count = 0
    for i, space in enumerate(sp.enumerate_topologies(args.points, t0_only=args.t0,
                                                      budget=args.budget)):
        count += 1
        item = f"topo{args.points}:{i:04d}"
        opens = ",".join(sp.bitstring(o, space.points) for o in space.opens)
        report.add(human=f"{item} opens={opens}", item=item, check="topology",
                   verdict=PASS, opens=opens)
        if args.report:
            _record_from(report, item, checks.space_proposition(space))
            _record_from(report, item, checks.td_remark(space))
    report.add(human=f"count: {count}", item="enumerator", check="count",
               verdict=PASS, count=str(count))
    return report


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if [] in vars(args).values():
        # some argparse versions turn the option value "--" (as in --set=--) into []
        print("error: '--' is not a value", file=sys.stderr)
        return 2
    started = time.monotonic()
    try:
        if args.command in ("check-frame", "sublocales", "sc", "separation"):
            report = run_check(args.file, args.command, axiom=getattr(args, "axiom", None),
                               budget=args.budget)
        elif args.command == "realline":
            report = _realline_report(args)
        elif args.command == "spaces":
            if args.spaces_op == "check":
                report = run_check(args.file, "spaces", budget=args.budget)
            else:
                report = _spaces_enumerate(args)
        elif args.command == "campaign":
            if args.campaign_kind == "lattices":
                report = _campaign_lattices(args)
            elif args.campaign_kind == "spaces":
                report = _campaign_spaces(args)
            else:
                report = _campaign_realline(args)
        elif args.command == "export-dot":
            return _export_dot(args)
        else:  # pragma: no cover - argparse enforces the choices
            return 2
    except (io.ParseError, BudgetExceeded, UnknownCheck, OSError, ValueError,
            NotALattice, NotDistributive, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EquivalenceViolation, TheoremViolation, AssertionError) as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return 2
    report.elapsed = time.monotonic() - started
    report.emit(machine=args.machine)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
