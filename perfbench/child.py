"""One fresh interpreter of the benchmark: set-up, then optionally a campaign.

    python3 child.py ROOT --setup-only
    python3 child.py ROOT [--trace SPANS_PATH] -- CLI_ARGS...

Times the import of `localekit.cli` plus building its parser (set-up),
then `localekit.cli.main(CLI_ARGS)` with stdout captured (campaign). Prints
one JSON line: the timings, the exit code, the SHA-256 of the captured
output, its record count and the records whose verdict is not `pass`.
With --trace the per-layer tracer is installed after set-up and its spans
are written to SPANS_PATH at the end.

Each timed region is also given a speed-adjusted time. On shared machines
the same code can run twice as slowly for minutes at a time when other
tenants load the core, which no number of repetitions averages away. A
fixed pure-Python probe loop is therefore timed BRACKET times just before
and just after the region and, from SIGALRM, every PROBE_INTERVAL_S inside
it. The region's wall time, less the probes' own time, divided by the mean
probe time over REFERENCE_PROBE_S, is the time the region would have taken
at reference speed. Both the raw and the adjusted times are reported.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import os
import signal
import sys
import time
from contextlib import redirect_stdout

PROBE_INTERVAL_S = 0.05
BRACKET = 40
# Mean probe time on an idle core of a 2-vCPU x86-64 virtual machine, Python 3.11;
# only fixes the unit of adjusted times.
REFERENCE_PROBE_S = 0.0002


def _probe_work() -> None:
    table: dict[int, int] = {}
    for i in range(2000):
        table[i & 255] = table.get(i & 255, 0) + i * 3 % 7


def timed(fn):
    """Run fn(); return its result, its wall time and its speed-adjusted time."""
    perf = time.perf_counter
    probes: list[float] = []

    def probe(*_):
        start = perf()
        _probe_work()
        probes.append(perf() - start)

    for _ in range(BRACKET):
        probe()
    previous = signal.signal(signal.SIGALRM, probe)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    start = perf()
    try:
        result = fn()
    finally:
        wall = perf() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall -= sum(probes[BRACKET:])
    for _ in range(BRACKET):
        probe()
    slowdown = sum(probes) / len(probes) / REFERENCE_PROBE_S
    return result, wall, wall / slowdown


def main(argv: list[str]) -> int:
    root = argv[0]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)

    def set_up():
        module = importlib.import_module("localekit.cli")
        module._build_parser()
        return module

    cli, setup_wall_s, setup_s = timed(set_up)
    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"localekit was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    import numpy
    result = {"setup_s": setup_s, "setup_wall_s": setup_wall_s, "numpy": numpy.__version__}
    if argv[1] == "--setup-only":
        print(json.dumps(result))
        return 0

    spans_path = None
    rest = argv[1:]
    if rest[0] == "--trace":
        spans_path, rest = rest[1], rest[2:]
    cli_args = rest[1:]  # drop "--"
    tracer = None
    if spans_path is not None:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    captured = io.StringIO()
    with redirect_stdout(captured):
        code, result["campaign_wall_s"], result["campaign_s"] = timed(
            lambda: cli.main(cli_args))

    text = captured.getvalue()
    lines = text.splitlines()
    records = lines[:-1] if lines and lines[-1].startswith("summary ") else lines
    result.update(
        exit_code=code,
        sha256=hashlib.sha256(text.encode("utf-8")).hexdigest(),
        records=len(records),
        failed=sum(1 for line in records if "verdict=pass" not in line.split()),
    )
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["untraced"] = tracer.missing
        tracer.write_spans(spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
