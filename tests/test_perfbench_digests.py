"""The --machine output of three benchmark workloads against the digests
stored in perfbench/digests.json, so a change to a report's bytes fails
here and not only in the benchmark's gate. lattices6 runs every lattice
check, so it covers the checks that no other workload runs, at a few
seconds; lattices7-frame runs only frame-laws, which lattices6 runs too,
and stays with that gate.

realline_digests.json adds the realline workload at a second seed, 7. A
passing realline campaign's records name only the sample, the check and
the verdict, so its --machine digest is the same at every seed where all
pass; the digests of the drawn samples' own text pin the sets and points
that the campaign checks, at both seeds."""

import hashlib
import importlib
import json
import sys
from pathlib import Path
from random import Random

import pytest

from localekit import cli, corpus

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REALLINE_DIGESTS = Path(__file__).resolve().parent / "realline_digests.json"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sample_text(sample: corpus.RealSample) -> str:
    pair = sample.pair
    return " ".join([str(sample.regular), str(sample.other), str(sample.raw),
                     str(pair.first), str(pair.second), ",".join(map(str, sample.points))])


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


def test_realline_output_at_the_second_seed(bench, capsys):
    assert cli.main(bench.WORKLOADS["realline"].argv(7)) == 0
    digest = sha256(capsys.readouterr().out)
    assert digest == json.loads(REALLINE_DIGESTS.read_text())["machine"]["7"]


@pytest.mark.parametrize("seed", [42, 7])
def test_realline_samples_match_the_stored_digest(bench, seed):
    rng = Random(seed)
    text = "\n".join(sample_text(corpus.real_sample(rng)) for _ in range(bench.REALLINE_COUNT))
    assert sha256(text) == json.loads(REALLINE_DIGESTS.read_text())["samples"][str(seed)]
