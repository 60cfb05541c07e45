"""Shared exceptions, enumeration budgets, the generic check verdict, and
the two encodings of a set of elements: a Python-int bitmask (bit k for
element k), which serves as a set's identity, and a boolean row, which
every array computation uses. `pack_rows` and `unpack_rows` convert
between them at any width; no set test depends on a machine word."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator

import numpy as np

# Size bounds for exhaustive scans and precomputed tables. Exhaustive law
# checking is exponential in carrier size; these keep it at desk scale.
# Callers may override per call where a `budget` parameter is exposed.
MAX_FRAME_CARRIER = 64  # a default only: --budget raises it on check-frame and sc
CORPUS_SIZE_LIMIT = 7  # campaign lattices --max-size: 26,460 labeled frames at 7
SUBLOCALE_SCAN_LIMIT = 10  # primes: bounds S(L), 2^primes elements, and its tables, 4^primes cells
TOPOLOGY_POINT_LIMIT = 4  # --budget raises it on spaces enumerate and campaign spaces
IDENTITY_EXHAUSTIVE_LIMIT = 8  # above this, the identities take seeded samples
IDENTITY_SAMPLES = 512
STACK_CELLS = 1 << 16  # cells per slice of the stacked sublocale test and frame laws


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

    level is "pass", "fail" (counterexample found, witness says where) or
    "violation" (internal consistency broken, see TheoremViolation).
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
    def violated(cls, name: str, witness: str) -> "CheckReport":
        return cls(name, VIOLATION, witness)
