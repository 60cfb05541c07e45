"""Corpus generators: labeled lattice enumeration, named frames, fuzz inputs.

The lattice corpus is every labeled (distributive) lattice up to a size
bound, built as canonical orders times placements. A canonical order has 0
at the bottom and n-1 at the top (`lattice.canonical`). A placement is a
permutation p whose inner part p[1:-1] ascends, n(n - 1) of them (one at
n = 1): it relabels a canonical order c as the item with
item[p[i], p[j]] = c[i, j] and labels str(p[i]), and `lattice.canonical`
of that item gives back c with order p, so every labeled lattice is
exactly one pair. A naturally labeled poset adds each new element as a
maximal one, so index order is a linear extension; a bounded one on n
elements is a natural poset on the n - 2 inner elements with 0 below and
n-1 above, so only those are grown. The frame core's batched table builder
and distributivity check (the ones validate_frames uses) keep the
(distributive) lattices, and their relabelings by the (n - 2)! permutations
that fix 0 and n-1 are the canonical orders: every canonical order relabels
to a natural one along a linear extension. Relabelings are array gathers,
a slice of permutations at a time, packed to byte keys whose byte order is
the order of the up-mask row tuples. `_labeled` keys every (order,
placement) pair and sorts the keys, and `iter_distributive_frames`
validates each canonical order once and gives each item its order's rows
of the validated tables, as views, under its placement's labels. At n = 7
that is 630 validated orders for 26,460 frames (42 placements each), at
n = 6 84 for 2,520 (30 each). An item's `stack` names its size's
validated tables and its order's row, so a campaign decides every check
once per canonical order too.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import permutations
from operator import attrgetter
from random import Random
from typing import Iterator

import numpy as np

from .common import bits, slice_len, unpack_rows
from .lattice import (FiniteFrame, RegularPairFrame, distributivity_witness, lattice_tables,
                      order_closure, product_frame, stacked, table_frames, validate_frame,
                      validate_frames)
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
    """rows of frames of size n as (F, n, n) order matrices, step of them at
    a time. step * n**3 stays under STACK_CELLS, which bounds the (F, n, n, n)
    temporaries of the frame core (0.5 MB each at 8 bytes a cell)."""
    step = slice_len(n**3)
    for start in range(0, len(rows), step):
        yield unpack_rows((m for up in rows[start:start + step] for m in up), n).reshape(-1, n, n)


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


def _key_orders(keys, n: int):
    """The inverse of _keys: keys as order matrices (K, n, n)."""
    packed = keys.view(np.uint8).reshape(len(keys), n, -1)[..., ::-1]
    return np.unpackbits(packed, axis=-1, count=n, bitorder="little").astype(bool)


def _relabeled(orders, perms):
    """The keys (K, S) of a stack of orders (K, n, n) relabeled by each
    permutation p of a slice of perms (P, n), a slice at a time: element i
    goes to p[i], so the order is the input read through p's inverse. A
    slice is one gather of at most STACK_CELLS order cells unless one
    permutation alone needs more."""
    count, n = orders.shape[:2]
    inv, step = np.argsort(perms, axis=1), slice_len(count * n * n)
    for start in range(0, len(inv), step):
        part = inv[start:start + step]
        yield _keys(orders[:, part[:, :, None], part[:, None, :]]).reshape(count, -1)


def _labeled(n: int, distributive_only: bool):
    """(canon, keys, index, at, placements): the canonical orders (C, n, n) of
    the labeled (distributive) lattices on 0..n-1 in key order, the sorted
    keys of every (order, placement) pair, item k's canonical order
    canon[index[k]] and its placement placements[at[k]], and the placements."""
    natural = []
    for orders in _chunks(list(_bounded_rows(n)), n):
        meet, join, missing = lattice_tables(orders)
        keep = missing < 0
        if distributive_only:
            keep &= distributivity_witness(meet, join) < 0
        natural.append(orders[keep])
    fixed = [(0,)] if n == 1 else [(0, *p, n - 1) for p in permutations(range(1, n - 1))]
    canon = _key_orders(_distinct(np.concatenate(
        [_distinct(keys.ravel()) for keys in _relabeled(np.concatenate(natural), fixed)])), n)
    placements = np.array([(0,)] if n == 1 else [
        (b, *(i for i in range(n) if i not in (b, t)), t) for b, t in permutations(range(n), 2)])
    keys = np.concatenate(list(_relabeled(canon, placements)), axis=1).ravel()
    by_key = np.argsort(keys)
    return canon, keys[by_key], *np.divmod(by_key, len(placements)), placements


def iter_distributive_frames(max_size: int) -> Iterator[tuple[str, FiniteFrame]]:
    """The labeled corpus: every labeled distributive lattice with <= max_size
    elements, validated as a frame, with a stable per-item name. Each
    canonical order is validated once, a slice of slice_len(n**3) at a
    time; an item's frame is row j of those tables, j the index of its
    canonical order, as views with (tables, j) as its stack, labeled by its
    placement p as validate_frame labels the item's order: str(p[i])."""
    for n in range(1, max_size + 1):
        canon, _, index, at, placements = _labeled(n, True)
        step = slice_len(n**3)
        tables = map(np.concatenate, zip(*(stacked(validate_frames(canon[start:start + step]))
                                           for start in range(0, len(canon), step))))
        tables = dict(zip(("leq", "meet", "join", "imp"), tables))
        names = [tuple(map(str, p)) for p in placements.tolist()]
        for start in range(0, len(index), step):
            labels = [names[q] for q in at[start:start + step].tolist()]
            frames = table_frames(tables, labels, index[start:start + step].tolist())
            for k, frame in enumerate(frames, start):
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
        "pairs(chain3)": RegularPairFrame(chain(3)).frame,
        "pairs(bool2)": RegularPairFrame(boolean_cube(2)).frame,
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
    # distinct cuts in increasing order, so each pair is a nonempty interval
    cuts = sorted({random_rational(rng) for _ in range(2 * k)}, key=attrgetter("key"))
    intervals = list(zip(cuts[::2], cuts[1::2]))
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
