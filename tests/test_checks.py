"""The frame-laws check decided as stacks: one frame, or a campaign batch.

Each tampered frame changes single entries of the Heyting table (through
a* = a -> 0) or of the join table of a named frame, so that one frame law
breaks first. A batch must give each frame exactly the report, or raise
exactly the AssertionError, that it gets alone. The law that the two
characterizations of the regular elements agree has no entry here: once
a <= a** and a* = a*** hold, {a : a** = a} and {a* : a in L} coincide, so
no table reaches it.
"""

import io
import re
from contextlib import redirect_stdout
from functools import cached_property

import numpy as np
import pytest

from localekit import checks, cli, corpus, separation, sublocales
from localekit.lattice import stacked

from oracles import (broken_copies, closed_form, generic_frame_law_masks, per_chunk_items,
                     tampered)

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


def test_subfit_is_decided_once_per_canonical_order(monkeypatch, capsys):
    """ppt and axiom-monotonicity read one subfitness verdict per canonical
    order: the order's separation battery decides it, and every canonical
    order of the corpus, and every named frame, is in exactly one battery
    whose subfit list is built, once."""
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
    orders = {frame.leq.tobytes() for _, frame in corpus.iter_distributive_frames(4)}
    assert len(items) == 45 + 12 and len(orders) == 1 + 1 + 1 + 3
    assert len(decided) == len({id(frame) for frame in decided}) == len(orders) + 12


def lattice_campaign(machine, route=None, monkeypatch=None):
    """stdout of every lattice check on the corpus of at most 6 elements and
    the named frames, by the campaign's batches or by `route`, with the
    human summary's timing cut, and its exit code."""
    if route is not None:
        monkeypatch.setattr(cli, "_lattice_items", route)
    argv = ["campaign", "lattices", "--max-size", "6", "--checks", ",".join(checks.LATTICE_CHECKS)]
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["--machine"] * machine + argv)
    return code, re.sub(r" \(\d+\.\d+s\)\n$", "\n", out.getvalue())


@pytest.mark.parametrize("machine", [False, True])
def test_canonical_order_batches_match_each_items_own_route(monkeypatch, machine):
    """Each canonical order decided once, every item reading it in its own
    labels, gives every record that each chunk of items decided on its own
    frames gives."""
    code, shared = lattice_campaign(machine)
    assert code == 0 and shared.count("\n") == 9 * 2817 + 1
    assert lattice_campaign(machine, per_chunk_items, monkeypatch) == (code, shared)


def frames_of(order):
    """For a stack of orders (F, n, n), the positions of those that are `order`."""
    return lambda leq: np.flatnonzero((leq == order).all(axis=(1, 2))
                                      if leq.shape[1:] == order.shape else [])


def break_lattice(monkeypatch, hit):
    """The prime decomposition of the order differs from its meet-closure at
    M({first prime}) and the bottom."""
    decomposition = sublocales._decomposition

    def broken(leq, at, chosen):
        got = decomposition(leq, at, chosen)
        for f in hit(leq):
            got[f, 1, 0] ^= True
        return got
    monkeypatch.setattr(sublocales, "_decomposition", broken)


def break_separation(monkeypatch, hit):
    """The order is subfit, but its closed-join frame is no Boolean algebra."""
    failures = separation._failures

    def broken(frames, names, laws, count=1):
        found = failures(frames, names, laws, count)
        if names == ("leq", "join"):  # subfitness
            for k, frame in enumerate(frames):
                if len(hit(frame.leq[None])):
                    found[0].pop(k, None)
        return found
    monkeypatch.setattr(separation, "_failures", broken)


def break_frame_laws(monkeypatch, hit):
    """a ≤ a** fails at element 1 of the order."""
    masks = checks._frame_law_masks

    def broken(leq, meet, join, imp):
        failed, below, triple = masks(leq, meet, join, imp)
        for f in hit(leq):
            below[f, 1] = True
        return failed, below, triple
    monkeypatch.setattr(checks, "_frame_law_masks", broken)


@pytest.mark.parametrize("fault, checks_hit", [
    (break_lattice, {"coframe-law", "sublocale-laws", "ppt"}),
    (break_separation, {"ppt", "axiom-monotonicity"}),
    (break_frame_laws, {"frame-laws"})])
def test_a_broken_canonical_order_is_charged_to_its_items(monkeypatch, fault, checks_hit):
    """A fault in one 6-element canonical order's batch reaches exactly its 30
    items, each with the witness it gets on its own frame, in its labels."""
    items = list(corpus.iter_distributive_frames(6))
    order = next(frame for _, frame in items if frame.n == 6 and frame.stack[1] == 5)
    own = {item for item, frame in items if frame.n == 6 and frame.stack[1] == 5}
    fault(monkeypatch, frames_of(order.leq))
    code, shared = lattice_campaign(True)
    assert code in (1, 2) and lattice_campaign(True, per_chunk_items, monkeypatch) == (code, shared)
    records = [dict(field.split("=", 1) for field in line.split())
               for line in shared.splitlines()[:-1]]
    faulty = [record for record in records if record["verdict"] != "pass"]
    assert {record["item"] for record in faulty} == own and len(own) == 30
    assert {record["check"] for record in faulty} == checks_hit
    for check in checks_hit:
        witnesses = {record["witness"] for record in faulty if record["check"] == check}
        assert len(witnesses) > 1 or witnesses == {"subfit_but_not_weakly_subfit"}
