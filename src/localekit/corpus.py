"""Corpus generators: labeled lattice enumeration, named frames, fuzz inputs.

The lattice corpus is every labeled (distributive) lattice up to a size
bound. A naturally labeled poset adds each new element as a maximal one,
so index order is a linear extension; a bounded one on n elements then
has 0 at the bottom and n-1 at the top, and is a natural poset on the
n - 2 inner elements with both bounds added, so only those are grown. The
frame core's batched table builder and distributivity check (the ones
validate_frames uses) keep the (distributive) lattices, and all n!
relabelings of them are taken as array gathers, a slice of permutations
at a time, packed to byte keys, sorted and deduplicated. Every labeled
lattice relabels to a naturally labeled one along a linear extension, so
the permutation closure of the natural ones is the full labeled count.
Bit rows become order matrices in one vectorised unpack, a chunk at a time.
A frame's tables depend only on its canonical order (`lattice.canonical`),
so each carrier size is decided once per distinct canonical order: the
labeled orders are canonicalized a chunk at a time and packed to byte keys,
the distinct keys are validated as stacks, and each item's frame is views of
its order's rows of the validated tables, under the item's own labels. At
n = 7 that is 630 validated orders for 26,460 frames (42 each, the 7 × 6
places of the bottom and top labels), at n = 6 84 for 2,520 (30 each). An
item's `stack` names its size's validated tables and its order's row, so
a campaign decides every check once per canonical order too.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import permutations
from random import Random
from typing import Iterator

import numpy as np

from .common import bits, slice_len, unpack_rows
from .lattice import (FiniteFrame, InvalidPoset, NotALattice, NotDistributive, canonical,
                      distributivity_witness, lattice_tables, order_closure, stacked,
                      table_frames, validate_frame, validate_frames)
from . import realline


def iter_natural_posets(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All posets on 0..n-1 whose index order is a linear extension.

    Yields (up, down) bitmask rows: up[i] = {j : i <= j}, down[i] = {j : j <= i}.
    Element k is added as a maximal element above an arbitrary down-set of the
    poset built so far, which produces each naturally labeled poset exactly once.
    """
    def grow(up: list[int], down: list[int], k: int):
        if k == n:
            yield tuple(up), tuple(down)
            return
        size_mask = (1 << k) - 1
        for candidate in range(size_mask + 1):
            ok = True
            for i in bits(candidate):
                if down[i] & ~candidate:
                    ok = False
                    break
            if not ok:
                continue
            bit = 1 << k
            new_up = [up[i] | bit if (candidate >> i) & 1 else up[i] for i in range(k)]
            new_up.append(bit)
            new_down = down + [candidate | bit]
            yield from grow(new_up, new_down, k + 1)

    yield from grow([], [], 0)


def _chunks(rows: list, n: int):
    """(start, chunk, orders) in order, chunk = rows[start:start + step] of step
    frames of size n, and orders its up-mask rows as (F, n, n) order matrices.
    step * n**3 stays under STACK_CELLS, which bounds the (F, n, n, n)
    temporaries of the frame core (0.5 MB each at 8 bytes a cell)."""
    step = slice_len(n**3)
    for start in range(0, len(rows), step):
        chunk = rows[start:start + step]
        yield start, chunk, unpack_rows((m for up in chunk for m in up), n).reshape(-1, n, n)


def _bounded_rows(n: int) -> Iterator[tuple[int, ...]]:
    """Up-mask rows of every bounded naturally labeled poset on 0..n-1: a
    natural poset on the n - 2 inner elements 1..n-2, 0 below it, n-1 above."""
    if n == 1:
        yield (1,)
        return
    top = 1 << (n - 1)
    for up, _ in iter_natural_posets(n - 2):
        yield ((1 << n) - 1, *(row << 1 | top for row in up), top)


def _keys(orders):
    """Orders (..., n, n) as flat byte keys: row i of a key is up-mask i in
    big-endian bytes, so the byte order of keys is the order of the tuples."""
    n = orders.shape[-1]
    packed = np.packbits(orders, axis=-1, bitorder="little")[..., ::-1]
    width = n * packed.shape[-1]
    return packed.reshape(-1, width).view((np.void, width)).ravel()


def _distinct(keys):
    """keys sorted with repeats dropped: np.unique, which would import numpy.ma."""
    keys = np.sort(keys)
    return keys[np.concatenate([[True], keys[1:] != keys[:-1]])]


def _key_rows(keys, n: int) -> list[tuple[int, ...]]:
    """The inverse of _keys: each key as its tuple of n up-masks."""
    masks = np.zeros((len(keys), n), dtype=np.min_scalar_type((1 << n) - 1))
    for byte in keys.view(np.uint8).reshape(len(keys), n, -1).transpose(2, 0, 1):
        masks = masks << 8 | byte
    rows, step = [], slice_len(n)
    for start in range(0, len(masks), step):
        rows += zip(*masks[start:start + step].T.tolist())
    return rows


def _relabeled_keys(orders):
    """The distinct relabelings of a stack of orders (K, n, n) under all n!
    index permutations, as sorted keys.

    A relabeling moves element i to p[i], so its order is the input read
    through p's inverse. Each slice of permutations, of at most STACK_CELLS
    order cells unless one permutation alone needs more, is one gather,
    packed and deduplicated before the slices are merged.
    """
    count, n = orders.shape[:2]
    inv = np.argsort(np.array(list(permutations(range(n))), dtype=np.intp), axis=1)
    step = slice_len(count * n * n)
    keys = []
    for start in range(0, len(inv), step):
        part = inv[start:start + step]
        keys.append(_distinct(_keys(orders[:, part[:, :, None], part[:, None, :]])))
    return _distinct(np.concatenate(keys))


def labeled_lattice_rows(n: int, distributive_only: bool = False) -> list[tuple[int, ...]]:
    """Every labeled (optionally distributive) lattice on 0..n-1, as up-mask
    rows, in the sorted order of the row tuples."""
    if n < 1:
        return []
    natural = []
    for _, _, orders in _chunks(list(_bounded_rows(n)), n):
        meet, join, missing = lattice_tables(orders)
        keep = missing < 0
        if distributive_only:
            keep &= distributivity_witness(meet, join) < 0
        natural.append(orders[keep])
    return _key_rows(_relabeled_keys(np.concatenate(natural)), n)


def _first_seen(keys):
    """(firsts, index): the position of each distinct key's first occurrence,
    in order of first occurrence, and each key's index into firsts."""
    _, firsts, index = np.unique(keys, return_index=True, return_inverse=True)
    rank = np.argsort(firsts)
    return firsts[rank], np.argsort(rank)[index]


def _key_orders(keys, n: int):
    """The inverse of _keys: keys as order matrices (K, n, n)."""
    packed = keys.view(np.uint8).reshape(len(keys), n, -1)[..., ::-1]
    return np.unpackbits(packed, axis=-1, count=n, bitorder="little").astype(bool)


def _decided(n: int):
    """The labeled distributive lattices on n elements, decided once per
    distinct canonical order: (tables, index, orders), the validated tables
    of those orders in order of first occurrence, each item's index into
    them, and each item's canonical ordering. If an order fails, its first
    item's own order is validated alone and raises what it raises; a broken
    adjunction, a breach, names canonical indices and passes as is. The
    labeled rows are dropped once canonicalized."""
    keys, orders = [], []
    for _, _, leqs in _chunks(labeled_lattice_rows(n, distributive_only=True), n):
        order, canon = canonical(leqs)
        orders.append(order.astype(np.min_scalar_type(n)))
        keys.append(_keys(canon))
    keys, orders = np.concatenate(keys), np.concatenate(orders)
    firsts, index = _first_seen(keys)
    canon, step, parts = _key_orders(keys[firsts], n), slice_len(n**3), []
    for start in range(0, len(firsts), step):
        try:
            parts.append(stacked(validate_frames(canon[start:start + step])))
        except (InvalidPoset, NotALattice, NotDistributive):  # witnesses in the item's labels
            for j, i in enumerate(firsts[start:start + step].tolist(), start):
                inv = np.argsort(orders[i])
                validate_frames(canon[j][np.ix_(inv, inv)][None])
            raise
    tables = map(np.concatenate, zip(*parts))
    return dict(zip(("leq", "meet", "join", "imp"), tables)), index, orders


def iter_distributive_frames(max_size: int) -> Iterator[tuple[str, FiniteFrame]]:
    """The labeled corpus: every labeled distributive lattice with <= max_size
    elements, validated as a frame, with a stable per-item name. An item's
    frame is row j of the tables `_decided` validated for its carrier size,
    j the index of its canonical order, as views with (tables, j) as its
    stack, labeled as validate_frame labels them: by their input indices."""
    for n in range(1, max_size + 1):
        tables, index, orders = _decided(n)
        labels, step = np.array([str(i) for i in range(n)], dtype=object), slice_len(n**3)
        for start in range(0, len(index), step):
            names = map(tuple, labels[orders[start:start + step]].tolist())
            rows = index[start:start + step].tolist()
            for k, frame in enumerate(table_frames(tables, names, rows), start):
                yield f"dist{n}:{k:04d}", frame


# ---------------------------------------------------------------------------
# Named instances


def chain(n: int) -> FiniteFrame:
    """The n-element chain 0 < 1 < ... < n-1."""
    return validate_frame(order_closure(n, [(i, i + 1) for i in range(n - 1)]))


def boolean_cube(k: int) -> FiniteFrame:
    """Powerset of k atoms: the 2^k-element Boolean frame."""
    i = np.arange(1 << k)
    return validate_frame((i[:, None] & ~i) == 0)


def named_frames() -> dict[str, FiniteFrame]:
    """The curated corpus used alongside the exhaustive one."""
    from .lattice import product_frame, regular_pair_frame

    frames = {
        "chain1": chain(1),
        "chain2": chain(2),
        "chain3": chain(3),
        "chain4": chain(4),
        "chain5": chain(5),
        "bool1": boolean_cube(1),
        "bool2": boolean_cube(2),
        "bool3": boolean_cube(3),
        "grid2x3": product_frame(chain(2), chain(3)),
        "pairs(chain3)": regular_pair_frame(chain(3)).frame,
        "pairs(bool2)": regular_pair_frame(boolean_cube(2)).frame,
        "bool2xchain3": product_frame(boolean_cube(2), chain(3)),
    }
    return frames


# ---------------------------------------------------------------------------
# Real-line fuzz corpus


MAX_DEN = 100       # largest denominator of a fuzzed endpoint
RAY_CHANCE = 0.15   # chance that a fuzzed open's first (or last) interval becomes a ray

RealSample = namedtuple("RealSample", "regular other raw pair points")


def random_rational(rng: Random, span: int = 12) -> Fraction:
    den = rng.randint(1, MAX_DEN)
    num = rng.randint(-span * den, span * den)
    return realline.Rat(num, den)


def random_open(rng: Random, max_components: int = 6) -> realline.RationalOpen:
    """A random finite union of open intervals with rational endpoints."""
    k = rng.randint(0, max_components)
    if k == 0:
        return realline.RationalOpen.empty()
    cuts = sorted({random_rational(rng) for _ in range(2 * k)})
    intervals = []
    for lo, hi in zip(cuts[::2], cuts[1::2]):
        if lo < hi:
            intervals.append((lo, hi))
    if intervals and rng.random() < RAY_CHANCE:
        intervals[0] = (realline.NEG_INF, intervals[0][1])
    if intervals and rng.random() < RAY_CHANCE:
        intervals[-1] = (intervals[-1][0], realline.POS_INF)
    if not intervals:
        return realline.RationalOpen.empty()
    return realline.normalize(intervals)


def random_regular_open(rng: Random) -> realline.RationalOpen:
    return realline.regularize(random_open(rng, 6))


def random_pair(rng: Random) -> realline.KRealPair:
    """A random valid pair: an open set under a regular superset."""
    first = random_open(rng, 4)
    second = realline.regularize(realline.union(first, random_open(rng, 4)))
    return realline.KRealPair(first, second)


def sample_points_outside(rng: Random, u: realline.RationalOpen, count: int) -> list[Fraction]:
    """Rational points x with x not in u and x != 0 (empty when u is the line)."""
    if u == realline.RationalOpen.reals():
        return []
    points: list[Fraction] = []
    attempts = 0
    while len(points) < count and attempts < 200 * count:
        attempts += 1
        x = random_rational(rng, span=15)
        if x == 0 or realline.contains_point(u, x):
            continue
        points.append(x)
    return points


def real_sample(rng: Random) -> RealSample:
    """A campaign sample, its fields drawn in order; the 20 points lie outside regular."""
    regular = random_regular_open(rng)
    other = random_regular_open(rng)
    raw = random_open(rng)
    pair = random_pair(rng)
    return RealSample(regular, other, raw, pair, sample_points_outside(rng, regular, 20))
