"""The frame-laws check decided as stacks: one frame, or a campaign batch.

Each tampered frame changes single entries of the Heyting table (through
a* = a -> 0) or of the join table of a named frame, so that one frame law
breaks first. A batch must give each frame exactly the report, or raise
exactly the AssertionError, that it gets alone. The law that the two
characterizations of the regular elements agree has no entry here: once
a <= a** and a* = a*** hold, {a : a** = a} and {a* : a in L} coincide, so
no table reaches it.
"""

from functools import cached_property

import numpy as np
import pytest

from localekit import checks, cli, corpus, separation
from localekit.lattice import stacked

from oracles import broken_copies, closed_form, generic_frame_law_masks, tampered

TAMPERS = [
    # (frame, table, entries set, expected outcome)
    ("chain3", "imp", {(0, 0): 0}, ("fail", "a ≤ a** fails at 1")),
    ("bool2xchain3", "imp", {(1, 0): 2}, ("fail", "a ≤ a** fails at (0,1)")),
    ("chain3", "imp", {(2, 0): 2}, ("fail", "a* = a*** fails at 1")),
    ("bool2xchain3", "imp", {(11, 0): 11}, ("fail", "a* = a*** fails at (3,1)")),
    ("bool2", "imp", {(3, 0): 3},
     ("AssertionError", "regular elements not closed under meet")),
    ("bool2xchain3", "imp", {(4, 0): 4},
     ("AssertionError", "regular elements not closed under meet")),
    ("chain3", "imp", {(1, 0): 1, (2, 0): 2},
     ("AssertionError", "regular elements must contain 0 and 1")),
    ("bool2", "imp", {(1, 0): 3, (3, 0): 1},
     ("AssertionError", "regular elements must contain 0 and 1")),
    ("chain3", "join", {(0, 2): 0}, ("fail", "view join not commutative")),
    ("bool2xchain3", "join", {(0, 11): 0}, ("fail", "view join not commutative")),
    ("chain3", "join", {(0, 0): 1}, ("fail", "view join not idempotent")),
    ("bool2xchain3", "join", {(11, 11): 0}, ("fail", "view join not idempotent")),
    ("bool2", "join", {(0, 1): 0, (1, 0): 0}, ("fail", "view join not associative")),
    ("bool2xchain3", "join", {(3, 6): 3, (6, 3): 3}, ("fail", "view join not associative")),
]
IDS = [f"{name}-{table}-{expected[1]}" for name, table, _, expected in TAMPERS]
PASSED = ("pass", "")


@pytest.fixture(scope="module")
def named():
    return corpus.named_frames()


def outcome(run):
    try:
        report = run()
    except AssertionError as exc:
        return "AssertionError", str(exc)
    assert report.name == "frame-laws"
    return report.level, report.witness


def later_frames(named):
    """Frames after the one under test, one per carrier size, each failing
    or raising at its own item only."""
    frames = [tampered(named[name], table, entries)
              for name, table, entries, _ in (TAMPERS[6], TAMPERS[4], TAMPERS[3])]
    return frames, [TAMPERS[6][3], TAMPERS[4][3], TAMPERS[3][3]]


def campaign_outcomes(frames):
    """The frame-laws outcome of every item, in campaign order."""
    check = checks.LATTICE_CHECKS["frame-laws"]
    return [outcome(lambda: check(item)) for item in checks.frame_structures(frames)]


class TestStackedFrameLaws:
    @pytest.mark.parametrize("name,table,entries,expected", TAMPERS, ids=IDS)
    def test_single_frame(self, named, name, table, entries, expected):
        frame = tampered(named[name], table, entries)
        assert campaign_outcomes([frame])[0] == expected

    @pytest.mark.parametrize("position", [0, 2])
    @pytest.mark.parametrize("name,table,entries,expected", TAMPERS, ids=IDS)
    def test_batch_position(self, named, position, name, table, entries, expected):
        frame = tampered(named[name], table, entries)
        before = [named["bool2"], named["chain3"]][:position]
        later, later_expected = later_frames(named)
        got = campaign_outcomes(before + [frame] + later)
        assert got == [PASSED] * position + [expected] + later_expected
        assert got[position] == campaign_outcomes([frame])[0]

    def test_good_frames_pass_in_one_batch(self, named):
        frames = list(named.values()) + [frame for _, frame in corpus.iter_distributive_frames(4)]
        assert campaign_outcomes(frames) == [PASSED] * len(frames)

    def test_outcome_is_decided_once_per_batch(self, named, monkeypatch):
        stacks = []
        stack = checks._frame_law_stack
        monkeypatch.setattr(checks, "_frame_law_stack",
                            lambda frames: stacks.append(len(frames)) or stack(frames))
        frames = [named["chain3"], named["bool2"], named["chain3"], named["bool2"]]
        structures = list(checks.frame_structures(frames))
        assert stacks == []
        for item in structures:
            item.frame_laws()
        assert sorted(stacks) == [2, 2]


class TestFrameLawMasks:
    """`_frame_law_masks` reads every table with one flat take; the masks of
    the broadcast fancy-index oracle must come out of it law for law."""

    def same_as_broadcast(self, tables):
        got = checks._frame_law_masks(*tables)
        for mask, expected in zip(got, generic_frame_law_masks(*tables)):
            assert np.array_equal(mask, expected)
        return got[0]

    def test_every_tamper_alone_and_stacked_per_size(self, named):
        frames = [tampered(named[name], table, entries) for name, table, entries, _ in TAMPERS]
        for frame in frames:
            assert self.same_as_broadcast(stacked([frame])).any()
        for name in {name for name, *_ in TAMPERS}:   # with the untampered frame last
            same = [frame for frame in frames if frame.n == named[name].n] + [named[name]]
            failed = self.same_as_broadcast(stacked(same))
            assert failed[:, :-1].any(axis=0).all() and not failed[:, -1].any()

    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_bounded_lattice(self, n, bounded_lattices):
        # non-distributive lattices have no implication, so their candidate
        # tables break laws; relabeled ones also move the bounds off 0 and n - 1
        natural, relabeled = bounded_lattices[n]
        assert self.same_as_broadcast(natural).any() == (n >= 5)
        self.same_as_broadcast(relabeled)

    @pytest.mark.parametrize("kind, n", [("chain", 127), ("chain", 128), ("chain", 129),
                                         ("cube", 128)])
    def test_where_the_dtype_matters(self, kind, n):
        # four frames of up to 129 elements take the flat index past 2^15
        failed = self.same_as_broadcast(broken_copies(closed_form(kind, n)))
        assert not failed[:, 0].any() and failed[:, 2:].any(axis=0).all()


def test_subfit_is_decided_once_per_item(monkeypatch, capsys):
    """ppt and axiom-monotonicity read one subfitness verdict per item: the
    item's separation battery decides it, and every frame of the campaign is
    in exactly one battery whose subfit list is built, once."""
    decided = []
    subfit = separation.SeparationBattery.subfit

    def counted(battery):
        decided.extend(battery.frames)
        return subfit.func(battery)
    counting = cached_property(counted)
    counting.__set_name__(separation.SeparationBattery, "subfit")
    monkeypatch.setattr(separation.SeparationBattery, "subfit", counting)
    argv = ["--machine", "campaign", "lattices", "--max-size", "4",
            "--checks", "ppt,axiom-monotonicity"]
    assert cli.main(argv) == 0
    items = {line.split()[0] for line in capsys.readouterr().out.splitlines()[:-1]}
    assert len(decided) == len(items) == len({id(frame) for frame in decided})
