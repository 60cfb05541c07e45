import ast
import itertools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from localekit import (checks, cli, common, corpus, io, realline, separation, spaces,
                       sublocales as sub)
from localekit.lattice import ClosureViolation, NotALattice
from localekit.separation import SeparationReport

from conftest import discrete, indiscrete, sierpinski
from oracles import format_space, is_t0, tampered


@pytest.fixture
def c3_file(tmp_path):
    path = tmp_path / "c3.lat"
    path.write_text("lattice 3\n0 < 1\n1 < 2\n")
    return str(path)


@pytest.fixture
def b2_file(tmp_path):
    path = tmp_path / "b2.lat"
    path.write_text("lattice 4\n0 < 1\n0 < 2\n1 < 3\n2 < 3\n")
    return str(path)


@pytest.fixture
def sier_file(tmp_path):
    path = tmp_path / "sier.space"
    path.write_text("space 2\n00\n01\n11\n")
    return str(path)


class TestIO:
    def test_cover_and_full_relation_forms_agree(self):
        covers = io.load_lattice_text("lattice 3\n0 < 1\n1 < 2\n")
        full = io.load_lattice_text("lattice 3\n0 <= 1\n1 <= 2\n0 <= 2\n0 <= 0\n")
        assert (covers.leq == full.leq).all()

    def test_canonical_echo(self):
        frame = io.load_lattice_text("lattice 3\n2 < 1\n1 < 0\n")  # upside down
        assert io.format_lattice(frame) == "lattice 3\n0 < 1\n1 < 2\n"

    def test_comments_and_blanks(self):
        frame = io.load_lattice_text("# chain\nlattice 2\n\n0 < 1  # cover\n")
        assert frame.n == 2

    def test_parse_error_carries_line(self):
        with pytest.raises(io.ParseError) as err:
            io.load_lattice_text("lattice 2\n0 ! 1\n")
        assert err.value.line == 2

    def test_lattice_error_propagates(self):
        with pytest.raises(NotALattice):
            io.load_lattice_text(
                "lattice 6\n0 < 1\n0 < 2\n1 < 3\n1 < 4\n2 < 3\n2 < 4\n3 < 5\n4 < 5\n")

    def test_space_roundtrip(self):
        space = io.load_space_text("space 2\n01\n")  # empty/full implied
        assert space.opens == (0, 2, 3)
        assert format_space(space) == "space 2\n00\n01\n11\n"

    def test_space_bad_width(self):
        with pytest.raises(io.ParseError):
            io.load_space_text("space 2\n010\n")

    def test_sniffing_loader(self):
        assert io.load_any("lattice 1\n").n == 1
        assert io.load_any("space 1\n0\n1\n").points == 1
        with pytest.raises(io.ParseError):
            io.load_any("graph 1\n")

    def test_dot_hasse(self, c3):
        dot = io.dot_hasse(c3)
        assert dot.count("->") == 2 and "digraph" in dot

    def test_dot_specialization(self):
        dot = io.dot_specialization(sierpinski())
        assert '"p0" -> "p1";' in dot and '"p1" -> "p0";' not in dot


class TestCliCommands:
    def test_check_frame(self, c3_file, capsys):
        assert cli.main(["check-frame", c3_file]) == 0
        out = capsys.readouterr().out
        assert "valid frame with 3 elements" in out
        assert "lattice 3" in out

    def test_separation_exit_codes(self, c3_file, b2_file, capsys):
        assert cli.main(["separation", c3_file, "--axiom", "subfit"]) == 1
        assert "witness 1,0" in capsys.readouterr().out
        assert cli.main(["separation", b2_file, "--axiom", "subfit"]) == 0
        assert cli.main(["separation", c3_file, "--axiom", "ppt"]) == 0
        assert cli.main(["separation", c3_file, "--axiom", "symmetric"]) == 1
        assert cli.main(["separation", c3_file, "--axiom", "pcformula"]) == 0

    def test_single_input_is_a_batch_of_one(self, c3_file, sier_file, monkeypatch, capsys):
        """A single-input command builds the batches a campaign chunk does, once."""
        built = []

        def counted(name, build):
            return lambda *args: built.append(name) or build(*args)
        for module, name in ((spaces, "_Chunk"), (sub, "closed_join_frames"),
                             (separation, "SeparationBattery"), (checks, "frame_structures")):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        assert cli.main(["spaces", "check", sier_file]) == 1
        assert built == ["_Chunk"]
        built.clear()
        assert cli.main(["separation", c3_file, "--axiom", "symmetric"]) == 1
        assert sorted(built) == ["SeparationBattery", "closed_join_frames", "frame_structures"]
        for argv, batch in ((["sublocales"], []), (["sc"], ["closed_join_frames"]),
                            (["export-dot", "--target", "sublocales"], []),
                            (["export-dot", "--target", "sc"], ["closed_join_frames"])):
            built.clear()
            assert cli.main([argv[0], c3_file, *argv[1:]]) == 0
            assert built == ["frame_structures", *batch]

    def test_sublocales_listing(self, c3_file, capsys):
        assert cli.main(["sublocales", c3_file]) == 0
        out = capsys.readouterr().out
        assert "4 sublocales" in out

    # stdout of the S(L) and spaces commands, human and --machine, by "<input> [--machine]
    # <command>": argv with {file} for the lattice or space file, exit code, and stdout split
    # at "\n", with {file} for its path and (…s) for the summary's wall time
    PINS = json.loads((Path(__file__).parent / "cli_stdout_pins.json").read_text())
    SPACE_PINS = {key: pin for key, pin in PINS.items() if "spaces" in pin["argv"]}
    SPACES = {"sierpinski": sierpinski(), "discrete2": discrete(2), "indiscrete3": indiscrete(3)}

    @staticmethod
    def pinned(pin, path, capsys):
        assert cli.main([arg.replace("{file}", str(path)) for arg in pin["argv"]]) == pin["exit"]
        out = capsys.readouterr().out.replace(str(path), "{file}")
        assert re.sub(r"\(\d+\.\d+s\)", "(…s)", out).split("\n") == pin["stdout"]

    @pytest.mark.parametrize("key", sorted(set(PINS) - set(SPACE_PINS)))
    def test_sublocale_commands_stdout_is_pinned(self, tmp_path, tiny_corpus, capsys, key):
        path = tmp_path / f"{key.split()[0]}.lat"
        path.write_text(io.format_lattice(tiny_corpus[key.split()[0]]))
        self.pinned(self.PINS[key], path, capsys)

    # `spaces enumerate --n 3 --report` keeps each topology's record before its checks
    @pytest.mark.parametrize("key", sorted(SPACE_PINS))
    def test_space_commands_stdout_is_pinned(self, tmp_path, capsys, key):
        path = tmp_path / f"{key.split()[0]}.space"
        if key.split()[0] in self.SPACES:
            path.write_text(format_space(self.SPACES[key.split()[0]]))
        self.pinned(self.PINS[key], path, capsys)

    def test_sc_listing(self, c3_file, capsys):
        assert cli.main(["--machine", "sc", c3_file]) == 0
        out = capsys.readouterr().out
        assert "label=c(1)" in out

    def test_realline_lemma1(self, capsys):
        assert cli.main(["realline", "lemma1", "--set", "(1,2)", "--n", "4"]) == 0
        assert "(-1/4,1/4);(1,2)" in capsys.readouterr().out

    def test_realline_obstruct(self, capsys):
        assert cli.main(["realline", "obstruct", "--set", "(1,2)", "--x", "1/2"]) == 0
        assert "N=3" in capsys.readouterr().out

    def test_realline_obstruct_zero_fails(self, capsys):
        assert cli.main(["realline", "obstruct", "--set", "(1,2)", "--x", "0"]) == 1

    def test_realline_prop2(self, capsys):
        code = cli.main(["realline", "prop2", "--u", "(1,2)", "--v", "(1,2)", "--n", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "U_2=(-1/2,0);(0,1/2);(1,2)" in out
        assert "V_2=(-1/2,1/2);(1,2)" in out

    def test_realline_prop1(self, capsys):
        code = cli.main(["realline", "prop1", "--u", "(-inf,0);(0,inf)",
                         "--v", "(-inf,inf)", "--n", "5"])
        assert code == 0
        assert "forced=False" in capsys.readouterr().out

    def test_spaces_check(self, sier_file, capsys):
        assert cli.main(["spaces", "check", sier_file]) == 1
        assert "symmetric: False" in capsys.readouterr().out

    @pytest.mark.parametrize("points", [7, 8])
    def test_spaces_check_past_64_opens(self, tmp_path, capsys, points):
        # 128 and 256 opens: the space budget admits up to 8 points, so the
        # frame budget does not apply
        path = tmp_path / f"disc{points}.space"
        path.write_text(format_space(discrete(points)))
        assert cli.main(["--machine", "spaces", "check", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "summary records=7 pass=7 fail=0 violation=0")

    def test_spaces_enumerate(self, capsys):
        assert cli.main(["--machine", "spaces", "enumerate", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "count=4" in out

    def test_export_dot_targets(self, c3_file, sier_file, capsys):
        for target in ("hasse", "sublocales", "sc"):
            assert cli.main(["export-dot", c3_file, "--target", target]) == 0
            assert "digraph" in capsys.readouterr().out
        assert cli.main(["export-dot", sier_file, "--target", "specialization"]) == 0
        capsys.readouterr()
        assert cli.main(["export-dot", sier_file, "--target", "hasse"]) == 2

    @pytest.mark.parametrize("target", ["hasse", "sc"])
    def test_export_dot_budget_past_64_elements(self, tmp_path, capsys, cube7, target):
        path = tmp_path / "cube7.lat"
        path.write_text(io.format_lattice(cube7))
        assert cli.main(["export-dot", str(path), "--target", target]) == 2
        assert capsys.readouterr().err == (
            "error: carrier size 128 exceeds the frame budget 64 "
            "(override with --budget on check-frame, sc or export-dot)\n")
        assert cli.main(["--budget", "200", "export-dot", str(path), "--target", target]) == 0
        assert capsys.readouterr().out.count(" -> ") == 7 * 64  # the covers of the 7-cube

    def test_export_dot_budget_sets_the_space_limit(self, tmp_path, capsys):
        path = tmp_path / "nine.space"
        path.write_text("space 9\n")
        assert cli.main(["export-dot", str(path), "--target", "specialization"]) == 2
        assert "9 points exceed the space budget 8" in capsys.readouterr().err
        assert cli.main(["--budget", "9", "export-dot", str(path), "--target",
                         "specialization"]) == 0

    def test_parse_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.lat"
        bad.write_text("lattice x\n")
        assert cli.main(["check-frame", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert cli.main(["check-frame", "/nonexistent.lat"]) == 2

    def test_64_element_lattice(self, tmp_path, capsys):
        path = tmp_path / "b6.lat"
        path.write_text(io.format_lattice(corpus.boolean_cube(6)))
        assert cli.main(["sc", str(path)]) == 0
        assert "64 joins of closed sublocales" in capsys.readouterr().out
        for target in ("sublocales", "sc"):
            assert cli.main(["export-dot", str(path), "--target", target]) == 0
            assert "digraph" in capsys.readouterr().out
        assert cli.main(["separation", str(path), "--axiom", "ppt"]) == 0

    @pytest.mark.parametrize("frame", ["chain65", "cube7"])
    def test_sc_budget_past_64_elements(self, tmp_path, capsys, request, frame):
        frame = request.getfixturevalue(frame)
        path = tmp_path / "big.lat"
        path.write_text(io.format_lattice(frame))
        assert cli.main(["sc", str(path)]) == 2
        assert "exceeds the frame budget 64" in capsys.readouterr().err
        assert cli.main(["--budget", "200", "sc", str(path)]) == 0
        assert f"{frame.n} joins of closed sublocales" in capsys.readouterr().out
        assert cli.main(["--budget", "200", "--machine", "sc", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"summary records={frame.n + 1} pass={frame.n + 1} fail=0 violation=0")

    def test_internal_error_exits_2(self, monkeypatch, capsys):
        def broken(u, n):
            raise AssertionError("injected cross-check failure")
        monkeypatch.setattr(realline, "zero_padded_term", broken)
        assert cli.main(["realline", "lemma1", "--set", "(1,2)", "--n", "4"]) == 2
        assert "violation: injected" in capsys.readouterr().err

    def test_closure_violation_exits_2(self, monkeypatch, sier_file, capsys):
        def broken(rows, labels):
            raise ClosureViolation("injected closure failure")
        monkeypatch.setattr(spaces, "set_frames", broken)
        assert cli.main(["spaces", "check", sier_file]) == 2
        assert capsys.readouterr().err == "violation: injected closure failure\n"

    def test_obstruct_stage_check_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(realline, "_padded_term",
                            lambda u, n: realline.RationalOpen.reals())
        assert cli.main(["realline", "obstruct", "--set", "(1,2)", "--x", "1/2"]) == 2
        assert "violation: 1/2 survives stage 3" in capsys.readouterr().err

    def test_budget_flag(self, b2_file, capsys):
        assert cli.main(["--budget", "1", "sublocales", b2_file]) == 2
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["sublocales"], ["export-dot", "--target", "sublocales"]])
    def test_sublocale_budget_names_the_flag(self, tmp_path, capsys, argv):
        path = tmp_path / "chain12.lat"
        path.write_text(io.format_lattice(corpus.chain(12)))
        started = time.monotonic()
        assert cli.main(argv[:1] + [str(path)] + argv[1:]) == 2
        assert time.monotonic() - started < 2.0
        assert capsys.readouterr().err == (
            "error: 11 primes exceed the sublocale budget 10 (override with --budget)\n")

    def test_sublocale_budget_reaches_2048_sublocales(self, tmp_path, capsys):
        path = tmp_path / "chain12.lat"
        path.write_text(io.format_lattice(corpus.chain(12)))
        started = time.monotonic()
        assert cli.main(["--budget", "11", "--machine", "sublocales", str(path)]) == 0
        assert time.monotonic() - started < 30.0
        lines = capsys.readouterr().out.splitlines()
        assert sum(line.startswith("item=sublocale:") for line in lines) == 2048
        assert lines[-2] == f"item={path} check=coframe-law verdict=pass"

    def test_budget_reaches_separation_ppt(self, b2_file, capsys):
        assert cli.main(["--budget", "1", "separation", b2_file, "--axiom", "ppt"]) == 2
        err = capsys.readouterr().err
        assert "2 primes exceed the sublocale budget 1" in err and "--budget" in err
        assert cli.main(["--budget", "2", "separation", b2_file, "--axiom", "ppt"]) == 0

    @pytest.mark.parametrize("text,argv", [
        ("lattice 3000\n0 < 1\n", ["check-frame"]),
        ("lattice 3000\n0 < 1\n", ["sublocales"]),
        ("lattice 65\n", ["sc"]),
        ("space 200000\n", ["spaces", "check"]),
        ("space 9\n", ["spaces", "check"]),
    ])
    def test_oversized_header_exits_2_at_once(self, tmp_path, capsys, text, argv):
        path = tmp_path / "big.txt"
        path.write_text(text)
        started = time.monotonic()
        assert cli.main(argv + [str(path)]) == 2
        assert time.monotonic() - started < 2.0
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "budget" in err and "--budget" in err

    def test_budget_sets_frame_and_space_limits(self, c3_file, sier_file, capsys):
        assert cli.main(["--budget", "2", "check-frame", c3_file]) == 2
        assert "frame budget 2" in capsys.readouterr().err
        assert cli.main(["--budget", "3", "check-frame", c3_file]) == 0
        assert cli.main(["--budget", "1", "spaces", "check", sier_file]) == 2
        assert "space budget 1" in capsys.readouterr().err
        assert cli.main(["--budget", "2", "spaces", "check", sier_file]) == 1

    def test_negative_sizes_are_input_errors(self, tmp_path, capsys):
        for text, argv in (("lattice -3\n", ["check-frame"]), ("space -1\n", ["spaces", "check"])):
            path = tmp_path / "neg.txt"
            path.write_text(text)
            assert cli.main(argv + [str(path)]) == 2
            assert "negative" in capsys.readouterr().err


REGISTRIES = {"lattices": checks.LATTICE_CHECKS, "spaces": checks.SPACE_CHECKS,
              "realline": checks.REALLINE_CHECKS}
# Every check a campaign runs on each of its items, with the kind that runs it.
ITEM_CHECKS = [(kind, name) for kind, registry in REGISTRIES.items() for name in registry]
# Every name a campaign's --checks accepts.
REGISTERED_CHECKS = ITEM_CHECKS + [("realline", "prop1-forcing")]
# The two registry names whose records carry the name of the report behind them.
RECORD_NAMES = {"identities": "closed-open-identities", "sc-frame-law": "closed-join-frame-law"}
SMALL_INPUT = {"lattices": ["--max-size", "3"], "spaces": ["--points", "2"],
               "realline": ["--count", "3"]}


class TestCampaigns:
    def test_lattice_campaign_passes(self, capsys):
        code = cli.main(["--machine", "campaign", "lattices", "--max-size", "4",
                         "--checks", "frame-laws,identities,coframe-law,ppt"])
        assert code == 0
        out = capsys.readouterr().out
        assert "violation=0" in out and "fail=0" in out

    def test_space_campaign_counts(self, capsys):
        code = cli.main(["--machine", "campaign", "spaces", "--points", "3",
                         "--checks", "space-proposition,td-remark"])
        assert code == 0
        assert "count=29" in capsys.readouterr().out

    @pytest.mark.parametrize("points", [5, 30])
    def test_space_campaign_honours_the_topology_budget(self, capsys, points):
        started = time.monotonic()
        assert cli.main(["campaign", "spaces", "--points", str(points)]) == 2
        assert time.monotonic() - started < 2.0
        assert capsys.readouterr().err == (
            f"error: {points} points exceed the topology budget 4 (override with --budget)\n")

    def test_realline_campaign(self, capsys):
        code = cli.main(["--machine", "--seed", "42", "campaign", "realline",
                         "--count", "20",
                         "--checks", "boolean-laws,raw-open-laws,prop1-forcing"])
        assert code == 0
        assert "violation=0" in capsys.readouterr().out

    def test_corpus_size_budget(self, capsys):
        started = time.monotonic()
        assert cli.main(["campaign", "lattices", "--max-size", "8"]) == 2
        assert time.monotonic() - started < 2.0
        assert "corpus budget 7 (override with --budget)" in capsys.readouterr().err
        assert cli.main(["--budget", "2", "campaign", "lattices", "--max-size", "3"]) == 2
        assert cli.main(["--machine", "--budget", "3", "campaign", "lattices",
                         "--max-size", "3"]) == 0
        assert "summary records=21 pass=21" in capsys.readouterr().out

    def test_budget_hit_mid_campaign_keeps_the_earlier_records(self, monkeypatch, capsys):
        # the 4-chains are the first frames with 3 primes; B2, dist4:0000, has 2
        monkeypatch.setitem(common.BUDGETS, "primes", (2, common.BUDGETS["primes"][1]))
        argv = ["--machine", "campaign", "lattices", "--max-size", "4", "--checks", "coframe-law"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        items = ["dist1:0000", *(f"dist2:{k:04d}" for k in range(2)),
                 *(f"dist3:{k:04d}" for k in range(6)), "dist4:0000"]
        assert out.splitlines() == [f"item={item} check=coframe-law verdict=pass" for item in items]
        assert err == "error: 3 primes exceed the sublocale budget 2 (override with --budget)\n"

    @staticmethod
    def counted_batches(monkeypatch):
        """{builder: the carrier sizes of each batch it builds}, for the six
        batches of checks.frame_batches, once this patches them."""
        builders = ((sub, "sublocale_lattices"), (sub, "closed_join_frames"),
                    (sub, "closed_open_outcomes"), (separation, "SeparationBattery"),
                    (checks, "frame_law_outcomes"), (checks, "antitone_outcomes"))
        batches = {name: [] for _, name in builders}

        def counted(name, build):
            def batch(frames, *rest):
                frames = list(frames)
                batches[name].append(tuple(frame.n for frame in frames))
                return build(frames, *rest)
            return batch

        for module, name in builders:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        return batches

    def test_campaign_builds_shared_structure_once(self, monkeypatch, capsys):
        argv = ["--machine", "campaign", "lattices", "--max-size", "4", "--checks",
                ",".join(checks.LATTICE_CHECKS)]
        assert cli.main(argv) == 0
        whole = capsys.readouterr().out
        batches = self.counted_batches(monkeypatch)
        # 1, 1, 1 and 3 canonical orders of 1 to 4 elements, at n = 4 in slices of 2
        monkeypatch.setattr(common, "STACK_CELLS", 128)
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == whole
        named = corpus.named_frames()
        expected = [(1,), (2,), (3,), (4, 4), (4,)]
        expected.append(tuple(frame.n for _, frame in sorted(named.items())))
        assert batches == {name: expected for name in batches}

    def test_campaign_decides_each_canonical_order_once(self, monkeypatch, capsys):
        # 2,805 labeled frames of 1 to 6 elements hold 1 + 1 + 1 + 3 + 12 + 84
        # canonical orders; the 12 named frames are one batch of their own
        batches = self.counted_batches(monkeypatch)
        argv = ["--machine", "campaign", "lattices", "--max-size", "6", "--checks",
                ",".join(checks.LATTICE_CHECKS)]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.endswith(" pass=25353 fail=0 violation=0\n")
        assert {name: sum(map(len, sizes)) for name, sizes in batches.items()} == {
            name: 102 + 12 for name in batches}

    # Runs the CLI on the arguments after its first, which is the number of
    # items: pcformula then fails on the last item, decided after the reader
    # below has closed the pipe.
    LAST_ITEM_FAILS = (
        "import sys\n"
        "from localekit import checks, cli, common\n"
        "calls, last, pcformula = [], int(sys.argv.pop(1)), checks.LATTICE_CHECKS['pcformula']\n"
        "def check(item):\n"
        "    calls.append(item)\n"
        "    if len(calls) == last:\n"
        "        return common.CheckReport.failed('pcformula', 'late')\n"
        "    return pcformula(item)\n"
        "checks.LATTICE_CHECKS['pcformula'] = check\n"
        "sys.exit(cli.main())\n")

    # At --max-size 6 the report (about 150 kB) is more than a pipe buffers,
    # so writing it meets the pipe closed after one line; at 3 the report
    # fits, and with buffered stdout only the last flush meets the pipe,
    # closed before any read. Every check still runs, so a failure on the
    # last item still makes the exit code 1.
    @pytest.mark.parametrize("last_fails", [False, True])
    @pytest.mark.parametrize("buffered", [True, False])
    @pytest.mark.parametrize("max_size, lines, items", [(6, 1, 2817), (3, 0, 21)])
    def test_closed_pipe_keeps_the_verdict_without_a_traceback(self, max_size, lines, items,
                                                               buffered, last_fails):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        run = ["-c", self.LAST_ITEM_FAILS, str(items)] if last_fails else ["-m", "localekit.cli"]
        argv = [sys.executable, *run, "campaign", "lattices",
                "--max-size", str(max_size), "--checks", "frame-laws,pcformula"]
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as child:
            read = [child.stdout.readline() for _ in range(lines)]
            child.stdout.close()
            err = child.stderr.read()
            code = child.wait(timeout=120)
        assert read == [b"dist1:0000: frame-laws ok\n"][:lines]
        assert (code, err) == (int(last_fails), b"")

    @pytest.mark.parametrize("kind", ["lattices", "spaces", "realline"])
    def test_unknown_check_rejected(self, capsys, kind):
        assert cli.main(["campaign", kind, "--checks", "nope"]) == 2
        assert "nope" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,name", REGISTERED_CHECKS)
    def test_every_registered_check_runs_alone(self, capsys, kind, name):
        argv = ["--machine", "campaign", kind, "--checks", name] + SMALL_INPUT[kind]
        assert cli.main(argv) == 0
        records = [dict(field.split("=", 1) for field in line.split())
                   for line in capsys.readouterr().out.splitlines()[:-1]]
        checked = [record for record in records if record["item"] != "enumerator"]
        expected = RECORD_NAMES.get(name, name)
        assert checked and all(record["check"] == expected for record in checked)

    def test_forcing_alone_draws_no_sample(self, monkeypatch, capsys):
        drawn = []
        real_sample = corpus.real_sample
        monkeypatch.setattr(corpus, "real_sample", lambda rng: drawn.append(1) or real_sample(rng))
        assert cli.main(["--machine", "campaign", "realline", "--checks", "prop1-forcing"]) == 0
        assert capsys.readouterr().out == ("item=forcing-cases check=prop1-forcing verdict=pass\n"
                                           "summary records=1 pass=1 fail=0 violation=0\n")
        assert not drawn
        assert cli.main(["campaign", "realline", "--count", "3",
                         "--checks", "prop1-forcing,boolean-laws"]) == 0
        assert len(drawn) == 3

    def test_machine_reports_are_deterministic(self, capsys):
        argv = ["--machine", "--seed", "42", "campaign", "realline", "--count", "15",
                "--checks", "boolean-laws,lemma1-invariants"]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        second = capsys.readouterr().out
        assert first == second


INTERVAL_ALPHABET = "()-+/;,.e0123456789inf "


class TestRealLineInput:
    @pytest.mark.parametrize("argv", [
        ["realline", "lemma1", "--set", "(1/0,2)", "--n", "1"],
        ["realline", "lemma1", "--set", "(1e10000000,2)", "--n", "1"],
        ["realline", "lemma1", "--set", "(1/2,2.5)", "--n", "1"],
        ["realline", "prop2", "--u", "(0,1)", "--v", "(0,-1/0)", "--n", "1"],
        ["realline", "obstruct", "--set", "(1,2)", "--x", "1/0"],
        ["realline", "obstruct", "--set", "(1,2)", "--x", "inf"],
        ["realline", "obstruct", "--set", "(1,2)", "--x=-inf"],
        ["realline", "obstruct", "--set", "(1,2)", "--x", "1e-9"],
        ["realline", "lemma1", "--set=--", "--n", "1"],
    ])
    def test_malformed_endpoint_is_an_input_error(self, argv, capsys):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @given(st.text(alphabet=INTERVAL_ALPHABET, max_size=40))
    @example("(1/0,2)")
    @settings(max_examples=300, deadline=None)
    def test_set_text_never_escapes(self, text):
        assert cli.main(["realline", "lemma1", f"--set={text}", "--n", "1"]) in (0, 1, 2)

    # exclusion_certificate builds every term up to floor(1/|x|) + 1, so the
    # point text is kept short enough that |x| >= 1/9999.
    @given(st.text(alphabet=INTERVAL_ALPHABET, max_size=6))
    @example("1/0")
    @settings(max_examples=300, deadline=None)
    def test_point_text_never_escapes(self, text):
        assert cli.main(["realline", "obstruct", "--set", "(1,2)", f"--x={text}"]) in (0, 1, 2)


# Header sizes around every budget edge, plus text that is not a number.
SIZE_TEXT = st.one_of(st.integers(-3, 9).map(str),
                      st.sampled_from(["64", "65", "3000", "200000", "-1000000", "10" * 20]),
                      st.text(alphabet="0123456789-+_ x", max_size=5))


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.txt"


class TestFileInput:
    @given(SIZE_TEXT, st.lists(st.text(alphabet="0123456789<=-# ", max_size=7), max_size=8))
    @example("3", ["0 < 1", "1 < 2"])
    @example("3000", ["0 < 1"])
    @settings(max_examples=150, deadline=None)
    def test_lattice_text_never_escapes(self, fuzz_file, size, lines):
        fuzz_file.write_text("\n".join([f"lattice {size}"] + lines) + "\n")
        for argv in (["check-frame"], ["sc"], ["sublocales"], ["separation", "--axiom", "ppt"]):
            assert cli.main(argv[:1] + [str(fuzz_file)] + argv[1:]) in (0, 1, 2)

    @given(SIZE_TEXT, st.lists(st.text(alphabet="01x ", max_size=5), max_size=8))
    @example("2", ["01"])
    @example("200000", [])
    @settings(max_examples=150, deadline=None)
    def test_space_text_never_escapes(self, fuzz_file, size, lines):
        fuzz_file.write_text("\n".join([f"space {size}"] + lines) + "\n")
        assert cli.main(["spaces", "check", str(fuzz_file)]) in (0, 1, 2)
        assert cli.main(["export-dot", str(fuzz_file), "--target", "specialization"]) in (0, 1, 2)


# ---------------------------------------------------------------------------
# A broken internal cross-check is charged to its own item and check


def _run(argv, capsys):
    """(exit code, stdout lines) of one CLI run."""
    code = cli.main(argv)
    return code, capsys.readouterr().out.splitlines()


def _fields(line):
    return dict(field.split("=", 1) for field in line.split())


def _summary(lines):
    """The summary line that a --machine run prints after these records."""
    verdicts = [_fields(line)["verdict"] for line in lines]
    return (f"summary records={len(verdicts)} pass={verdicts.count('pass')} "
            f"fail={verdicts.count('fail')} violation={verdicts.count('violation')}")


class TestIsolation:
    @pytest.mark.parametrize("breach", list(cli.BREACHES))
    @pytest.mark.parametrize("kind,name", ITEM_CHECKS)
    def test_breach_is_charged_to_its_item(self, monkeypatch, capsys, kind, name, breach):
        argv = ["--machine", "campaign", kind, "--checks", name] + SMALL_INPUT[kind]
        code, clean = _run(argv, capsys)
        assert code == 0
        check, seen = REGISTRIES[kind][name], []

        def breaking(subject):  # the second item breaks
            seen.append(subject)
            if len(seen) == 2:
                raise breach("injected breach")
            return check(subject)
        monkeypatch.setitem(REGISTRIES[kind], name, breaking)
        code, broken = _run(argv, capsys)
        assert code == 2
        item = _fields(clean[1])["item"]
        expected = clean[:-1]
        expected[1] = f"item={item} check={name} verdict=violation witness=injected_breach"
        assert broken[:-1] == expected
        assert broken[-1] == _summary(expected)
        assert [line for line in broken if "verdict=violation" in line] == [expected[1]]

    def test_breach_in_forcing_is_charged_to_it(self, monkeypatch, capsys):
        argv = ["--machine", "campaign", "realline", "--count", "2",
                "--checks", "boolean-laws,prop1-forcing"]
        code, clean = _run(argv, capsys)
        assert code == 0

        def broken():
            raise common.TheoremViolation("injected breach")
        monkeypatch.setattr(checks, "forcing_cases", broken)
        code, broken_run = _run(argv, capsys)
        assert code == 2
        expected = clean[:2] + [
            "item=forcing-cases check=prop1-forcing verdict=violation witness=injected_breach"]
        assert broken_run == expected + [_summary(expected)]

    @staticmethod
    def one_sided(monkeypatch, breaking_call):
        """Make the dual distributivity verdict of the closed-join frame law
        fail, for the first frame of its stack, on its given call (1-based,
        counting both directions; a stack is decided by one call each way)."""
        calls, witness = [], sub.distributivity_witness

        def counted(meet, join):
            calls.append(1)
            got = witness(meet, join)
            if len(calls) == breaking_call:
                got[0] = 0
            return got
        monkeypatch.setattr(sub, "distributivity_witness", counted)

    def test_one_sided_closed_join_law_is_an_sc_frame_law_violation(self, monkeypatch, capsys):
        argv = ["--machine", "campaign", "lattices", "--max-size", "2", "--checks", "sc-frame-law"]
        code, clean = _run(argv, capsys)
        assert code == 0
        self.one_sided(monkeypatch, 4)  # the dual verdict of the one 2-element order
        code, broken = _run(argv, capsys)
        assert code == 2
        expected = clean[:-1]
        for k, item in ((1, "dist2:0000"), (2, "dist2:0001")):  # both items of that order
            expected[k] = (f"item={item} check=sc-frame-law verdict=violation "
                           "witness=distributive=True_but_dually_distributive=False")
        assert broken == expected + [_summary(expected)]

    def test_one_sided_closed_join_law_in_sc_exits_2(self, monkeypatch, c3_file, capsys):
        self.one_sided(monkeypatch, 2)
        assert cli.main(["--machine", "sc", c3_file]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "violation: distributive=True but dually distributive=False\n")

    def test_cover_formula_breach_in_separation_exits_2(self, monkeypatch, c3_file, capsys):
        # the 3-chain taken for weakly subfit: the covers of 1 meet in 2, but 1* = 0
        monkeypatch.setattr(separation.SeparationBattery, "weakly_subfit", property(
            lambda battery: [SeparationReport("weakly-subfit", True)] * len(battery.frames)))
        assert cli.main(["--machine", "separation", c3_file, "--axiom", "pcformula"]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "violation: a=1: meet of covers is 2, a*=0\n")

    def test_broken_closed_join_parent_is_charged_to_its_items(self, monkeypatch, capsys):
        argv = ["--machine", "campaign", "lattices", "--max-size", "4",
                "--checks", ",".join(checks.LATTICE_CHECKS)]
        batches, closed_join_frames = [], sub.closed_join_frames

        def counted(parents):
            parents = list(parents)
            batches.append(tuple(frame.n for frame in parents))
            return closed_join_frames(parents)
        monkeypatch.setattr(sub, "closed_join_frames", counted)
        code, clean = _run(argv, capsys)
        assert code == 0
        clean_batches, batches[:] = batches[:], []

        def broken(frame):  # a canonical order, or an item of it, that loses a meet
            middle = next(a for a in range(4) if a not in (frame.bottom, frame.top))
            return tampered(frame, "meet", {(frame.bottom, middle): middle})

        def tampering(parents):  # the third of the three 4-element canonical orders
            parents = list(parents)
            if {frame.n for frame in parents} == {4}:
                parents[2] = broken(parents[2])
                assert isinstance(closed_join_frames(parents[2:3])[0], AssertionError)
            return counted(parents)
        monkeypatch.setattr(sub, "closed_join_frames", tampering)
        code, got = _run(argv, capsys)
        assert code == 2
        assert batches == clean_batches  # every batch built once
        # the order's 12 items, each with the error it raises alone, in its own labels
        errors = {item: str(closed_join_frames([broken(frame)])[0])
                  for item, frame in corpus.iter_distributive_frames(4)
                  if frame.n == 4 and frame.stack[1] == 2}
        assert len(errors) == 12 and len(set(errors.values())) > 1
        breached = {"sc-frame-law", "ppt", "weaksub-equiv", "axiom-monotonicity"}
        names = list(checks.LATTICE_CHECKS) * ((len(clean) - 1) // len(checks.LATTICE_CHECKS))
        assert len(names) == len(clean) - 1  # one record per check of every item
        expected = [f"item={item} check={name} verdict=violation "
                    f"witness={cli._sanitize(errors[item])}"
                    if item in errors and name in breached else line
                    for line, name in zip(clean[:-1], names)
                    for item in [_fields(line)["item"]]]
        assert got[:-1] == expected
        assert got[-1] == _summary(expected)
        assert sum("verdict=violation" in line for line in got) == len(breached) * len(errors)


    @pytest.mark.parametrize("check", ["space-proposition", "td-remark"])
    def test_broken_ring_of_sets_is_charged_to_its_item(self, monkeypatch, capsys, check):
        # unions-of-closed frames for space-proposition, Ω(X) for td-remark
        argv = ["--machine", "campaign", "spaces", "--points", "3", "--checks", check]
        monkeypatch.setattr(common, "STACK_CELLS", 12000)  # chunks from topo3:0000, 0006, ...
        chunks = [chunk.spaces for chunk, _ in itertools.groupby(
            spaces.space_structures(spaces.enumerate_topologies(3)), key=lambda item: item._chunk)]
        target = chunks[0][4]  # topo3:0004, inside the first chunk
        family = target.opens if check == "td-remark" else [target.full ^ o for o in target.opens]
        ring = [spaces.bitstring(m, 3) for m in spaces._by_size(family)]
        builders = {name: getattr(spaces, name)
                    for name in ("set_frames", "SeparationBattery", "closed_join_frames")}
        batches = {name: [] for name in builders}

        def counted(name):
            def batch(frames, *rest):
                frames = list(frames)
                batches[name].append(len(frames))
                return builders[name](frames, *rest)
            return batch
        for name in builders:
            monkeypatch.setattr(spaces, name, counted(name))
        code, clean = _run(argv, capsys)
        assert code == 0
        t0 = [sum(is_t0(space) for space in chunk) for chunk in chunks]
        assert batches == ({"set_frames": t0, "SeparationBattery": t0, "closed_join_frames": t0}
                           if check == "td-remark" else  # one batch each per chunk
                           {"set_frames": [len(chunk) for chunk in chunks],
                            "SeparationBattery": [len(chunk) for chunk in chunks],
                            "closed_join_frames": []})
        clean_batches, errors = {name: sizes[:] for name, sizes in batches.items()}, []
        for sizes in batches.values():
            sizes.clear()

        def tampering(rows, labels):  # the target's ring loses its second member
            rows, labels = list(rows), [list(row) for row in labels]
            if ring in labels:
                at = labels.index(ring)
                rows[at], labels[at] = np.delete(rows[at], 1, axis=0), ring[:1] + ring[2:]
                alone = builders["set_frames"](rows[at:at + 1], labels[at:at + 1])[0]
                assert isinstance(alone, ClosureViolation)
                errors.append(str(alone))
            return counted("set_frames")(rows, labels)
        monkeypatch.setattr(spaces, "set_frames", tampering)
        code, broken = _run(argv, capsys)
        assert code == 2
        # every batch built once per chunk, the broken frame left out of the battery
        assert {name: len(sizes) for name, sizes in batches.items()} == {
            name: len(sizes) for name, sizes in clean_batches.items()}
        assert batches["set_frames"] == clean_batches["set_frames"]
        assert len(errors) == 1
        expected = [f"item=topo3:0004 check={check} verdict=violation "
                    f"witness={cli._sanitize(errors[0])}"
                    if _fields(line)["item"] == "topo3:0004" else line for line in clean[:-1]]
        assert broken[:-1] == expected
        assert broken[-1] == _summary(expected)
        assert sum("verdict=violation" in line for line in broken) == 1


# Names that make an except clause catch a breach: the three types, the
# tuple cli.BREACHES that holds them, and their bases.
BREACH_NAMES = {"AssertionError", "TheoremViolation", "EquivalenceViolation", "BREACHES",
                "Exception", "BaseException"}
# The one function that records a breach as a violation, and the one that reports it.
BREACH_CATCHERS = {("cli.py", "main"), ("cli.py", "_campaign")}


def breach_handlers(source):
    """(enclosing function, line) of every except clause in source that would
    catch a breach: a bare except, or one naming a breach type by name or
    attribute. A subclass such as realline.NotDescending is not one."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.ExceptHandler):
            named = {sub.id if isinstance(sub, ast.Name) else sub.attr
                     for sub in ast.walk(node.type) if isinstance(sub, (ast.Name, ast.Attribute))
                     } if node.type is not None else BREACH_NAMES
            if named & BREACH_NAMES:
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)
    visit(ast.parse(source), None)
    return found


class TestBreachPolicy:
    def test_scanner_sees_every_form(self):
        source = ("def f():\n"
                  "    try: pass\n    except AssertionError: pass\n"
                  "    try: pass\n    except (ValueError, common.TheoremViolation): pass\n"
                  "    try: pass\n    except: pass\n"
                  "    try: pass\n    except rl.NotDescending: pass\n")
        assert breach_handlers(source) == [("f", 3), ("f", 5), ("f", 7)]

    def test_only_the_cli_catches_breaches(self):
        found = {(path.name, function, line)
                 for path in sorted(Path(cli.__file__).parent.glob("*.py"))
                 for function, line in breach_handlers(path.read_text())}
        assert {(name, function) for name, function, _ in found} == BREACH_CATCHERS


# The names that turn a breach into data: a check raises instead, and only
# common (which defines the level) and cli (whose campaign loop records a
# breach) may name them.
VIOLATION_NAMES = {"VIOLATION", "violated"}
VIOLATION_MODULES = {"common.py", "cli.py"}


def violation_names(source):
    """The lines of source that use a name of VIOLATION_NAMES: as a name, an
    attribute, an import, a definition or a keyword."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   for attr in ("id", "attr", "name", "arg")
                   if getattr(node, attr, None) in VIOLATION_NAMES})


class TestViolationPolicy:
    def test_scanner_sees_every_form(self):
        source = ("from .common import VIOLATION\n"
                  "level = common.VIOLATION\n"
                  "report = CheckReport.violated('name', 'witness')\n"
                  "def violated(): pass\n"
                  "record(violated=True)\n"
                  "violation = 'violation'\n")
        assert violation_names(source) == [1, 2, 3, 4, 5]

    def test_only_common_and_cli_name_a_violation(self):
        found = {path.name for path in Path(cli.__file__).parent.glob("*.py")
                 if violation_names(path.read_text())}
        assert found <= VIOLATION_MODULES
