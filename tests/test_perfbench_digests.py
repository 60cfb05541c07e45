"""The --machine output of three benchmark workloads against the digests
stored in perfbench/digests.json, so a change to a report's bytes fails
here and not only in the benchmark's gate. lattices6 runs every lattice
check, so it covers the checks that no other workload runs, at a few
seconds; lattices7-frame runs only frame-laws, which lattices6 runs too,
and stays with that gate."""

import hashlib
import importlib
import json
import sys
from pathlib import Path

import pytest

from localekit import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))  # run.py imports tracer from beside it
        patch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as checked in
        return importlib.import_module("run")


@pytest.mark.parametrize("name", ["lattices6", "spaces4", "realline"])
def test_machine_output_matches_the_stored_digest(bench, capsys, name):
    assert cli.main(bench.WORKLOADS[name].argv(bench.DEFAULT_SEED)) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == json.loads(bench.DIGESTS.read_text())[name]
