"""Shared exceptions, the size budgets, the generic check verdict, and the
two encodings of a set of elements: a Python-int bitmask (bit k for element
k), which serves as a set's identity, and a boolean row, which every array
computation uses. `pack_rows` and `unpack_rows` convert between them at any
width; no set test depends on a machine word.

Every bound on an exhaustive scan is one entry of BUDGETS: its default and
the text of the BudgetExceeded that names it and the flag that raises it.
`within_budget` is the only check against them.

`first_failures` holds the one witness order of every stacked check: the
first law that fails, then its first entry in row-major order."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

# Size bounds for exhaustive scans: exhaustive law checking is exponential in
# carrier size, and these keep it at desk scale. name: (default, message),
# the message formatted with the size asked for and the limit in force.
BUDGETS = {
    "frame": (64, "carrier size {size} exceeds the frame budget {limit} "
                  "(override with --budget on check-frame, sc or export-dot)"),
    # campaign lattices --max-size: 26,460 labeled frames at 7
    "corpus": (7, "--max-size {size} exceeds the corpus budget {limit} (override with --budget)"),
    # bounds S(L): 2^primes sublocales of n cells each
    "primes": (10, "{size} primes exceed the sublocale budget {limit} (override with --budget)"),
    "topology": (4, "{size} points exceed the topology budget {limit} (override with --budget)"),
    # a space's closed-set frame has up to 2^points elements
    "space": (8, "{size} points exceed the space budget {limit} (override with --budget)"),
}
STACK_CELLS = 1 << 16  # cells per slice of the stacked tests and frame laws, and per corpus chunk


def within_budget(name: str, size: int, budget: Optional[int] = None) -> None:
    """Raise the named bound's BudgetExceeded if size is over budget, or over
    the bound's default when budget is None."""
    default, message = BUDGETS[name]
    limit = default if budget is None else budget
    if size > limit:
        raise BudgetExceeded(message.format(size=size, limit=limit))


def slice_len(cells: int) -> int:
    """Items of `cells` cells each per slice: STACK_CELLS cells, at least one item."""
    return max(1, STACK_CELLS // cells)


def first_failures(masks) -> dict[int, tuple[int, tuple[int, ...]]]:
    """{k: (law, coords)} for every item k of a stack where some law fails,
    in ascending k, from one failure mask (F, ...) per law, in the order the
    laws are decided: the first law that fails on item k, and the coordinates
    of its first true entry in row-major order, () for an (F,) mask. A law
    that fails nowhere costs one `any`, and only failing items are decoded."""
    found: dict = {}
    for law, mask in enumerate(masks):
        if not mask.any():
            continue
        flat = mask.reshape(len(mask), -1)
        ks = flat.any(axis=1).nonzero()[0]
        firsts = (flat if len(ks) == len(flat) else flat[ks]).argmax(axis=1)
        at = np.unravel_index(firsts, mask.shape[1:]) if mask.ndim > 1 else ()
        for k, *coords in zip(ks.tolist(), *(c.tolist() for c in at)):
            found.setdefault(k, (law, tuple(coords)))
    return dict(sorted(found.items()))


def named(build: Callable, frame):
    """build(frame): a batch outcome, a report or an exception, whose text
    names elements in the frame's labels. It keeps build as its `on`, so
    that a frame with the same tables under other labels reads the same
    outcome in its own (see `settled`). The attribute is set past the
    frozen reports' __setattr__; it is no field, so equality ignores it."""
    outcome = build(frame)
    object.__setattr__(outcome, "on", build)
    return outcome


def settled(outcome, frame=None):
    """A batch's outcome for one member: its result, or the exception stored
    in its place, raised now so it is charged to that member alone. Given
    the member's frame, an outcome decided on another frame with the same
    tables that names elements or holds its frame (one with `on`) is first
    read for this one, in its labels. Each raise starts a fresh traceback,
    so asking again does not grow it."""
    on = None if frame is None else getattr(outcome, "on", None)
    if on is not None:
        outcome = on(frame)
    if isinstance(outcome, Exception):
        raise outcome.with_traceback(None)
    return outcome


def grouped(keys: Iterable) -> dict[object, list[int]]:
    """{key: the positions holding it}: how a batch splits into stacks."""
    groups: dict = {}
    for k, key in enumerate(keys):
        groups.setdefault(key, []).append(k)
    return groups


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def pack_rows(rows) -> tuple[int, ...]:
    """Rows of a boolean array (m, n) as Python-int bitmasks, bit k for column k."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def unpack_rows(masks: Iterable[int], n: int):
    """The inverse of pack_rows: bitmasks of n bits as a boolean array (m, n)."""
    masks = tuple(masks)
    width = (n + 7) // 8
    data = b"".join(map(int.to_bytes, masks, repeat(width), repeat("little")))
    packed = np.frombuffer(data, dtype=np.uint8).reshape(len(masks), width)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little").astype(bool)


class BudgetExceeded(Exception):
    """An enumeration or table would exceed the configured size bound."""


class EquivalenceViolation(Exception):
    """Independently evaluated equivalent conditions disagreed.

    The conditions in question are provably equivalent, so this always
    signals an implementation bug, never a property of the input.
    """


class TheoremViolation(Exception):
    """A verified correspondence failed on a concrete instance.

    Like EquivalenceViolation this signals an implementation bug; the
    offending instance and per-condition verdicts ride along in args.
    """


PASS = "pass"
FAIL = "fail"
VIOLATION = "violation"


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named law check.

    level is "pass" or "fail" (counterexample found, witness says where). A
    check whose own cross-check breaks raises instead, and only the campaign
    loop records that breach, under level "violation".
    """

    name: str
    level: str
    witness: str = ""

    @property
    def ok(self) -> bool:
        return self.level == PASS

    def __bool__(self) -> bool:
        return self.ok

    @classmethod
    def passed(cls, name: str, witness: str = "") -> "CheckReport":
        return cls(name, PASS, witness)

    @classmethod
    def failed(cls, name: str, witness: str) -> "CheckReport":
        return cls(name, FAIL, witness)

    @classmethod
    def failed_at(cls, name: str, text: str, at: tuple, frame) -> "CheckReport":
        """A failure whose witness is text with its {} fields the labels of
        the elements at `at` in frame: a build for `named`."""
        return cls(name, FAIL, text.format(*(frame.labels[v] for v in at)))
