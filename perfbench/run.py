"""Campaign benchmark for localekit: time to a verdict over whole corpora.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-spec

Each run measures one workload for S seconds, closed loop with one client:
every set-up measurement and every campaign runs in a fresh interpreter,
strictly one process at a time, with OMP_NUM_THREADS=1,
OPENBLAS_NUM_THREADS=1 and PYTHONHASHSEED=0 (so set orders, and with them
the work done, repeat). A run keeps starting campaigns while the previous
one would still fit in the S seconds, and always runs at least one. Only
the realline workload takes the seed, as the campaign's --seed; the other
corpora are exhaustive.

--trace 0 reports the end-to-end metrics (medians over the run):
  setup_s      import localekit.cli and build its parser, fresh interpreter
  campaign_s   localekit.cli.main(...) with --machine and stdout captured
  peak_rss_mb  ru_maxrss of the campaign process
The two times are speed-adjusted wall times (see child.py): the wall time
rescaled by a probe loop timed during the region, so that other tenants'
load on a shared core does not read as a change of the program. The raw
wall-time medians are printed beside them and kept in the result file.
--trace 1 alternates untraced and traced campaigns and reports the
per-layer metrics of the traced ones (see tracer.py), plus
trace_overhead_frac, traced over untraced campaign time minus one.

Every campaign passes a correctness gate: exit code 0, the known record
count, and, when the workload's inputs are the default ones, the SHA-256 of
the --machine output stored in digests.json. The last stdout line is one
JSON object with keys correct, attempted, failed and metrics; attempted
counts the records of every campaign, failed those whose verdict is not
pass, or all of a campaign that fails the gate. The full result, with
samples and the run environment, goes to .bench_out/ at the checkout root.

--write-spec regenerates BENCHMARK.json from the tables below and records
the digest of any workload that has none yet; it never replaces one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import per_layer_spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
OUT = ROOT / ".bench_out"

RUN_SECONDS = 25
DEFAULT_SEED = 42
SETUP_PROBES = 15
CHILD_LIMIT_S = 170  # every run must end within 180 s
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

LATTICE_CHECKS = "frame-laws,identities,coframe-law,sc-frame-law,ppt,weaksub-equiv,pcformula"
SPACE_CHECKS = "space-proposition,td-remark"
REALLINE_CHECKS = "boolean-laws,lemma1-invariants,prop2-invariants,prop1-forcing"
REALLINE_COUNT = 200


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]
    records: int
    why: str
    seeded: bool = False

    def argv(self, seed: int) -> list[str]:
        head = ["--machine"] + (["--seed", str(seed)] if self.seeded else [])
        return head + list(self.args)

    def checks(self) -> list[str]:
        return self.args[self.args.index("--checks") + 1].split(",")


WORKLOADS = {w.name: w for w in (
    Workload("lattices6",
             ("campaign", "lattices", "--max-size", "6", "--checks", LATTICE_CHECKS),
             19719,
             "The documented campaign: every check on all 2,817 frames; sublocales and "
             "separation do most of the work, so closed-form sublocales act here."),
    Workload("lattices7-frame",
             ("campaign", "lattices", "--max-size", "7", "--checks", "frame-laws"),
             29277,
             "validate_frame and corpus generation on 7-element carriers with no sublocale "
             "code: the frame core acts here, and sublocale changes must leave it unchanged."),
    Workload("spaces4",
             ("campaign", "spaces", "--points", "4", "--checks", SPACE_CHECKS),
             711,
             "The only spaces workload: all 355 topologies on 4 points, td-remark builds "
             "closed-join frames of up to 16 elements, larger than any on lattices6."),
    Workload("realline",
             ("campaign", "realline", "--count", str(REALLINE_COUNT),
              "--checks", REALLINE_CHECKS),
             3 * REALLINE_COUNT + 1,  # three checks per sample, prop1-forcing once
             "Seeded exact rational arithmetic, mostly lemma1 terms; touches no finite "
             "carrier, so it is the bypass for frame and sublocale changes.",
             seeded=True),
)}

END_TO_END = (
    ("campaign_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
)


def check_names() -> list[str]:
    names: list[str] = []
    for workload in WORKLOADS.values():
        names += [n for n in workload.checks() if n not in names]
    return names


def spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in per_layer_spec(check_names())],
    }


# ---------------------------------------------------------------------------
# Child processes


def run_child(args: list[str], limit_s: float) -> tuple[dict | None, float]:
    """Run child.py; return its JSON result (None on failure) and its peak RSS in MB."""
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(ROOT)] + args,
                            stdout=subprocess.PIPE, env=dict(os.environ, **CHILD_ENV), cwd=ROOT)
    killer = threading.Timer(max(limit_s, 1.0), proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
    rss_mb = usage.ru_maxrss / 1024
    if proc.returncode != 0:
        return None, rss_mb
    try:
        return json.loads(out.decode().strip().splitlines()[-1]), rss_mb
    except (ValueError, IndexError):
        return None, rss_mb


def gate(result: dict | None, workload: Workload, seed: int, digests: dict) -> list[str]:
    """Reasons this campaign fails the correctness gate (empty if it passes)."""
    if result is None:
        return ["campaign process failed"]
    problems = []
    if result["exit_code"] != 0:
        problems.append(f"exit code {result['exit_code']}")
    if result["records"] != workload.records:
        problems.append(f"{result['records']} records, expected {workload.records}")
    if (not workload.seeded or seed == DEFAULT_SEED) and result["sha256"] != digests.get(workload.name):
        problems.append(f"output digest {result['sha256']} differs from the stored one")
    return problems


# ---------------------------------------------------------------------------
# One run


def measure(workload: Workload, seed: int, seconds: int, trace: bool) -> dict:
    digests = json.loads(DIGESTS.read_text())
    OUT.mkdir(exist_ok=True)
    started = time.monotonic()
    deadline = started + seconds
    hard_stop = started + CHILD_LIMIT_S

    def remaining() -> float:
        return hard_stop - time.monotonic()

    samples: dict[str, list[float]] = {
        "setup_s": [], "setup_wall_s": [], "campaign_s": [], "campaign_wall_s": [],
        "peak_rss_mb": [], "traced_campaign_s": []}
    layers: list[dict] = []
    problems: list[str] = []
    attempted = failed = 0
    untraced: list[str] = []

    warm, _ = run_child(["--setup-only"], remaining())  # compiles bytecode; not timed
    if warm is None:
        raise SystemExit("set-up probe failed: localekit.cli does not import")
    numpy_version = warm["numpy"]
    if not trace:
        for _ in range(SETUP_PROBES):
            probe, _ = run_child(["--setup-only"], remaining())
            if probe is None:
                raise SystemExit("set-up probe failed")
            samples["setup_s"].append(probe["setup_s"])
            samples["setup_wall_s"].append(probe["setup_wall_s"])

    def campaign(traced: bool) -> None:
        nonlocal attempted, failed
        args = (["--trace", str(OUT / f"{workload.name}-seed{seed}-spans.jsonl")]
                if traced else [])
        result, rss_mb = run_child(args + ["--"] + workload.argv(seed), remaining())
        reasons = gate(result, workload, seed, digests)
        if reasons:
            problems.extend(f"{'traced' if traced else 'untraced'} campaign: {r}"
                            for r in reasons)
            attempted += result["records"] if result else workload.records
            failed += result["records"] if result else workload.records
            return
        attempted += result["records"]
        failed += result["failed"]
        if traced:
            samples["traced_campaign_s"].append(result["campaign_s"])
            layers.append(result["layers"])
            untraced.extend(m for m in result["untraced"] if m not in untraced)
        else:
            samples["campaign_s"].append(result["campaign_s"])
            samples["campaign_wall_s"].append(result["campaign_wall_s"])
            samples["peak_rss_mb"].append(rss_mb)

    while True:
        cycle_start = time.monotonic()
        campaign(traced=False)
        if trace:
            campaign(traced=True)
        now = time.monotonic()
        if problems or now + (now - cycle_start) > min(deadline, hard_stop):
            break

    return {"samples": samples, "layers": layers, "problems": problems,
            "attempted": attempted, "failed": failed, "numpy": numpy_version,
            "untraced": untraced}


def metrics_of(run: dict, trace: bool) -> dict:
    samples = run["samples"]
    if not trace:
        return {name: {"value": statistics.median(samples[name]), "unit": unit}
                for name, unit, _, _ in END_TO_END if samples[name]}
    out = {}
    for name, unit, _ in per_layer_spec(check_names()):
        values = [layer.get(name, 0) for layer in run["layers"]]
        if name == "trace_overhead_frac" and samples["campaign_s"] and samples["traced_campaign_s"]:
            values = [statistics.median(samples["traced_campaign_s"])
                      / statistics.median(samples["campaign_s"]) - 1]
        if values:
            out[name] = {"value": statistics.median(values), "unit": unit}
    return out


def environment(workload: Workload, seed: int, numpy_version: str | None) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "child_env": CHILD_ENV,
        "workload": workload.name,
        "why": workload.why,
        "command": ["localekit"] + workload.argv(seed),
    }


def report(workload: Workload, seed: int, seconds: int, trace: bool) -> int:
    run = measure(workload, seed, seconds, trace)
    metrics = metrics_of(run, trace)
    env = environment(workload, seed, run["numpy"])
    correct = not run["problems"]
    attempted = max(run["attempted"], 1)
    counts = {k: len(v) for k, v in run["samples"].items()}

    print(f"workload {workload.name}: {workload.why}")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"commit {env['commit']}, seed {seed}, {' '.join(f'{k}={v}' for k, v in CHILD_ENV.items())}")
    for problem in run["problems"]:
        print(f"GATE FAILED: {problem}")
    if run["untraced"]:
        print(f"not found, so not traced: {', '.join(run['untraced'])}")
    print(f"fail_frac = {run['failed'] / attempted} (failed {run['failed']} of {attempted} records)")
    for name, metric in metrics.items():
        n = counts.get(name, counts["traced_campaign_s"] if trace else 0)
        print(f"{name} = {metric['value']} {metric['unit']} (median of {n})")
    for name in ("setup_wall_s", "campaign_wall_s"):
        if run["samples"][name]:
            print(f"{name} = {statistics.median(run['samples'][name])} s, raw wall time "
                  f"(median of {counts[name]})")

    detail = {"environment": env, "trace": trace, "seconds": seconds, "correct": correct,
              "problems": run["problems"], "attempted": attempted, "failed": run["failed"],
              "samples": run["samples"], "layers": run["layers"], "metrics": metrics}
    (OUT / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": run["failed"],
                      "metrics": metrics}))
    return 0


def write_spec() -> int:
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for workload in WORKLOADS.values():
        if workload.name in digests:
            continue
        result, _ = run_child(["--"] + workload.argv(DEFAULT_SEED), 900)
        if result is None or result["exit_code"] != 0 or result["records"] != workload.records:
            print(f"{workload.name}: not recording a digest, campaign gave {result}",
                  file=sys.stderr)
            return 1
        digests[workload.name] = result["sha256"]
        DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"{workload.name}: recorded digest {result['sha256']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json and record missing digests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "localekit" / "cli.py").is_file():
        print(f"no localekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.write_spec:
        return write_spec()
    if args.workload is None:
        parser.error("--workload is required")
    if not DIGESTS.is_file():
        print(f"{DIGESTS} is missing; run --write-spec", file=sys.stderr)
        return 2
    return report(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
