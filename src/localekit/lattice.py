"""Finite frames: bounded distributive lattices with Heyting structure.

Elements are dense integer indices, and an order is an (n, n) boolean
relation; `order_closure` builds one from order pairs. A frame holds its
order itself, and `validate_frames` is the one place an order is checked.
After validation the carrier is in canonical order: 0 is the bottom, n-1
the top, everything else keeps its relative input order (`canonical`).
All derived tables (meet, join, Heyting implication) are precomputed
eagerly, so quantified law checks reduce to table lookups. They depend
only on the canonical order, so the labeled corpus validates each distinct
canonical order once (one per 42 labeled frames at n = 7, per 30 at n = 6)
and `table_frames` gives each item the rows of those tables under its own
labels. Frames are immutable after construction and safe to share.

This module is the one frame core, and it works on stacks: every check
takes F orders of one carrier size as an (F, n, n) array and decides all
of them with a fixed number of numpy calls. `validate_frames` validates a
bare order: the order checks, canonical order, meet/join tables from
`lattice_tables`, `distributivity_witness` on every triple, and the Heyting
table a -> b, read off the adjunction a ∧ x <= b iff x <= a -> b as the
greatest x on the left and proved by the adjunction check that follows.
Those two and the frame laws look up through `gather`, one take from the
flattened stack at (f * n + row) * n + col (or of rows at f * n + row), not
a fancy index with a broadcast array per axis; element tables are read in
`element_dtype(n)`, int16 while n < 2^15, so a gathered cell takes 2 bytes.
`lattice_tables` looks i ∧ j up as the element whose down-set is ↓i ∩ ↓j
among those of its size, unique when the order is antisymmetric and proved
by comparing packed uint64 down-set words, exact at any width. A stack of
one is `validate_frame`; `stacked` reads a run of one call's frames back as
views, and `by_size` gives the stacks of a batch of mixed carrier sizes.
`set_frames` reads the tables of rings of sets off ∩ and ∪ instead. Every
failure is named in the one witness order of `common.first_failures`: the
first law that fails, at its first entry in row-major order.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .common import first_failures, grouped, pack_rows, within_budget


class InvalidPoset(ValueError):
    """The supplied relation is not a bounded partial order."""


class NotALattice(Exception):
    """Some pair of elements lacks an infimum or a supremum."""

    def __init__(self, pair, kind):
        self.pair = pair
        self.kind = kind
        super().__init__(f"pair {pair} has no {kind}")


class NotDistributive(Exception):
    """Witness triple (a, b, c) with a ∧ (b ∨ c) ≠ (a ∧ b) ∨ (a ∧ c)."""

    def __init__(self, triple):
        self.triple = triple
        super().__init__(f"distributivity fails on {triple}")


class ClosureViolation(AssertionError):
    """A derived carrier was not closed under its defining operations: an
    internal breach, like every AssertionError."""


def order_closure(n: int, pairs: Iterable[tuple[int, int]]):
    """The reflexive-transitive closure of asserted order pairs on 0..n-1
    (covers or full leq, mixed is fine), as an (n, n) boolean relation: a
    Hasse diagram and its full order give the same relation."""
    rel = np.eye(n, dtype=bool)
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise InvalidPoset(f"pair ({i}, {j}) out of range for carrier {n}")
        rel[i, j] = True
    while True:
        closed = rel | (rel @ rel)
        if np.array_equal(closed, rel):
            return rel
        rel = closed


class FiniteFrame:
    """A validated frame: its canonical order plus meet/join/Heyting tables.

    leq is a read-only boolean matrix, leq[i, j] iff i <= j, with the bottom
    at 0 and the top at n-1. Not constructed directly; use validate_frame or
    validate_frames, table_frames for rows of tables they validated,
    set_frames for rings of sets, or sublocales.closed_join_frames, which
    reads a validated frame upside down.
    Instances are immutable (tables carry read-only numpy flags) and safe to
    share between workers. `stack` is (tables by name, k) when they are row k of a batch.
    """

    bottom = 0

    def __init__(self, leq, meet, join, imp, labels, stack=None):
        self.leq, self.meet, self.join, self.imp, self.labels = leq, meet, join, imp, labels
        self.n, self.stack = len(leq), stack
        self.top = self.n - 1

    @cached_property
    def star(self):
        """Pseudocomplement column: star[a] = a -> 0."""
        col = self.imp[:, 0].copy()
        col.flags.writeable = False
        return col

    @cached_property
    def up_masks(self) -> tuple[int, ...]:
        """up_masks[i]: bitmask of {k : i <= k}."""
        return pack_rows(self.leq)

    def __repr__(self):
        return f"FiniteFrame(n={self.n})"


def containment_order(rows):
    """leq[..., i, j] iff row i is a subset of row j, for (..., m, n) boolean
    member rows (any n): no k has rows[..., i, k] without rows[..., j, k]."""
    return ~(rows @ ~np.swapaxes(rows, -1, -2))


def cover_relation(leqs):
    """covers[..., x, y]: y covers x (x < y, nothing between) in (..., n, n) preorders."""
    lt = leqs & ~np.eye(leqs.shape[-1], dtype=bool)
    return lt & ~(lt @ lt)


def cover_pairs(leq):
    """The cover relation of an (n, n) preorder as index arrays (xs, ys), row-major."""
    return np.nonzero(cover_relation(leq))


def stacked(frames: Sequence[FiniteFrame], names=("leq", "meet", "join", "imp")):
    """Each named table of the frames as one stack (F, ...), by default all four:
    a view when the frames are a run of rows of one batch, such as a corpus chunk."""
    tables, start = frames[0].stack or (None, 0)
    if all(f.stack and f.stack[0] is tables and f.stack[1] == start + k
           for k, f in enumerate(frames)):
        return tuple(tables[name][start:start + len(frames)] for name in names)
    if len(frames) == 1:
        return tuple(getattr(frames[0], name)[None] for name in names)
    return tuple(np.stack([getattr(frame, name) for frame in frames]) for name in names)


def by_size(frames: Sequence[FiniteFrame], names=("leq", "meet", "join", "imp")):
    """(positions, tables) per carrier size of frames: the positions of the
    frames of that size and their named tables, `stacked`."""
    for ks in grouped(frame.n for frame in frames).values():
        yield ks, stacked([frames[k] for k in ks], names)


def _words(rows):
    """Boolean rows (..., n) as uint64 words (..., ⌈n / 64⌉): column k
    is bit k % 64 of word k // 64, so rows are equal iff their words are."""
    packed = np.packbits(rows, axis=-1, bitorder="little")
    words = np.zeros(packed.shape[:-1] + (-(-packed.shape[-1] // 8) * 8,), np.uint8)
    words[..., :packed.shape[-1]] = packed
    return words.view("<u8")


def _first(mask):
    """Per frame of a stack of masks (F, ...): the flat index of the first
    true entry in row-major order, or -1 where there is none."""
    flat = mask.reshape(len(mask), -1)
    return np.where(flat.any(axis=1), flat.argmax(axis=1), -1)


def _order_checks(leqs, bottoms, tops) -> list:
    """The bounded-partial-order laws of a stack of relations (F, n, n), whose
    bottoms[f, i] and tops[f, i] say i is below or above everything, as
    failure masks in the order they are decided: i with not i <= i; (i, j),
    i != j, with i <= j <= i; (i, j) with i <= k <= j but not i <= j; not
    exactly one bottom; not exactly one top."""
    return [~leqs.diagonal(axis1=1, axis2=2),
            leqs & leqs.transpose(0, 2, 1) & ~np.eye(leqs.shape[1], dtype=bool),
            (leqs @ leqs) & ~leqs, bottoms.sum(axis=1) != 1, tops.sum(axis=1) != 1]


def lattice_tables(leqs):
    """Meet and join tables of a stack of orders (F, n, n), with witnesses.

    i ∧ j is the x with ↓x = ↓i ∩ ↓j: as every x in ↓i ∩ ↓j has ↓x ⊆ ↓i ∩ ↓j,
    the candidates are the x there with |↓x| = |↓i ∩ ↓j|, at most one when
    the order is antisymmetric. The lowest is kept where its down-set's uint64
    words equal the query's, so every entry is proved, and on a partial order
    so is a miss (-1): a meet would be that candidate. Joins are the meets of
    the opposite order; no (n, n, n) table is built. missing[f] is -1 for a
    lattice, else its first pair (i, j >= i), row-major, without an infimum
    or, checked second, a supremum, as 2 * (i * n + j) + kind, kind 0 for
    infimum, 1 for supremum.
    """
    count, n = leqs.shape[:2]
    downs = _words(np.concatenate([leqs.transpose(0, 2, 1), leqs]))  # ↓x, then ↑x
    base, width = np.arange(2 * count)[:, None, None], downs.shape[2]
    rank = np.bitwise_count(downs).sum(axis=2, dtype=np.intp)
    by_rank = _words(rank[:, None, :] == np.arange(n + 1)[:, None]).reshape(-1, width)
    lows = downs[:, :, None] & downs[:, None, :]                        # ↓i ∩ ↓j
    found = by_rank[base * (n + 1) + np.bitwise_count(lows).sum(axis=3, dtype=np.intp)] & lows
    found &= ~found + 1                      # the lowest candidate bit of each word
    bit = np.frexp(found.astype(float))[1]   # exact on a power of two: its bit plus one
    x = np.where(found != 0, bit + np.arange(-1, 64 * width - 1, 64), -1).max(axis=3)
    proved = (x >= 0) & (downs.reshape(-1, width)[base * n + x] == lows).all(axis=3)
    table, upper = np.where(proved, x, -1), np.triu(np.ones((n, n), dtype=bool))[..., None]
    failed = ~proved.reshape(2, count, n, n).transpose(1, 2, 3, 0) & upper
    return table[:count], table[count:], _first(failed)


def element_dtype(n: int):
    """The dtype of gathered n-element tables: int16 while -1..n-1 fit, else intp."""
    return np.int16 if n < 1 << 15 else np.intp


def gather(table, *at):
    """table[f, *at] for every frame f of a stack of (F, n, n) or (F, n) tables,
    the coordinates broadcasting to (F, ...): one take from the flattened stack
    at (f * n + row) * n + col, or of its rows at f * n + row when only the row
    is given. The index is intp, as the frame offsets are: np.take copies a
    narrower one to intp first. A stack of one has no offsets, and indexing its
    frame directly builds no flat index: on small tables that costs less than
    the index arithmetic, and on one 256-element frame it spares the 128 MiB
    intp index of an (n, n, n) law."""
    count, n = table.shape[:2]
    if count == 1:
        return table[0][at]
    ndim = max(c.ndim for c in at)
    flat = at[0] + np.arange(0, count * n, n).reshape((count,) + (1,) * (ndim - 1))
    for col in at[1:]:
        flat = flat * n + col
    return table.reshape((-1,) + table.shape[1 + len(at):]).take(flat, axis=0)


def distributivity_witness(meet, join):
    """Per frame of a stack of tables (F, n, n): the first triple (a, b, c)
    with a ∧ (b ∨ c) != (a ∧ b) ∨ (a ∧ c), flattened as (a * n + b) * n + c,
    or -1 where distributivity holds."""
    n = meet.shape[1]
    meet, join = meet.astype(element_dtype(n)), join.astype(element_dtype(n))
    idx = np.arange(n, dtype=meet.dtype)
    lhs = gather(meet, idx[:, None, None], join[:, None])               # a ∧ (b ∨ c)
    rhs = gather(join, meet[:, :, :, None], meet[:, :, None, :])        # (a ∧ b) ∨ (a ∧ c)
    return _first(lhs != rhs)


def heyting_tables(leqs, meet):
    """a -> b on a stack of lattices, and per frame the first triple
    (a, x, b), flattened, where a ∧ x <= b iff x <= a -> b fails (or -1)."""
    # a -> b is the greatest x with a ∧ x <= b; among those x it has the most
    # elements below it, and the adjunction check below proves it is greatest.
    adj_lhs = gather(leqs, meet)                                 # [f, a, x, b] : a ∧ x <= b
    # ranks (<= n) fit the element dtype: int16 to n = 32,767, a quarter of int64's memory
    rank = leqs.sum(axis=1, dtype=element_dtype(leqs.shape[1]))
    imp = np.argmax(np.where(adj_lhs, rank[:, None, :, None], -1), axis=2)
    adj_rhs = gather(leqs.transpose(0, 2, 1), imp).transpose(0, 1, 3, 2)  # x <= a -> b
    return imp, _first(adj_lhs != adj_rhs)


def canonical(leqs):
    """(order, canon) of a stack of relations (F, n, n): order[f] lists the
    elements of frame f bottom first, top last and the rest in input order,
    a stable argsort, and canon[f] is leqs[f] read through it, one gather.
    The tables of a frame depend only on its canonical order."""
    n = leqs.shape[1]
    key = np.where(leqs.all(axis=2), -1, np.where(leqs.all(axis=1), n, np.arange(n)))
    order = np.argsort(key, axis=1, kind="stable")
    return order, gather(leqs, order[:, :, None], order[:, None, :])


def validate_frames(leqs, labels: Optional[Sequence[Sequence[str]]] = None) -> list[FiniteFrame]:
    """Check a stack of orders (F, n, n) are frames and precompute their tables.

    Each frame goes through the poset checks, is canonicalized (bottom to
    0, top to n-1, the rest in input order), gets its meet/join tables,
    distributivity on every triple, and the Heyting table proved by the
    adjunction on every triple. labels holds one label sequence per frame
    (default: the input indices). If any frame fails, the first failing
    frame raises what it raises on its own: InvalidPoset, NotALattice or
    NotDistributive with a witness in its labels, or AssertionError for a
    broken adjunction.
    """
    leqs = np.asarray(leqs, dtype=bool)
    if leqs.ndim != 3 or leqs.shape[1] != leqs.shape[2]:
        raise InvalidPoset("leq must be a square boolean matrix")
    count, n = leqs.shape[:2]
    if n == 0:
        raise InvalidPoset("empty carrier has no bottom or top")
    if labels is None:
        labels = [[str(i) for i in range(n)]]  # one row for every frame
    elif len(labels) != count or any(len(row) != n for row in labels):
        raise ValueError("labels length must match carrier size")
    label_rows = np.broadcast_to(np.array(list(map(tuple, labels)), dtype=object), (count, n))

    bottoms, tops = leqs.all(axis=2), leqs.all(axis=1)
    laws = _order_checks(leqs, bottoms, tops)
    # The order checks are invariant under relabelling, so they hold on the
    # canonical stack too.
    order, canon = canonical(leqs)
    labels = list(map(tuple, np.take_along_axis(label_rows, order, axis=1).tolist()))
    meet, join, missing = lattice_tables(canon)
    triples = distributivity_witness(meet, join)
    imp, broken = heyting_tables(canon, meet)

    for k, (law, at) in first_failures(laws + [missing >= 0, triples >= 0, broken >= 0]).items():
        if law < 3:
            raise InvalidPoset(("not reflexive at {}", "antisymmetry fails on ({}, {})",
                                "transitivity fails on ({}, {})")[law].format(*at))
        if law < 5:
            found = np.flatnonzero((bottoms, tops)[law - 3][k]).tolist()
            raise InvalidPoset(f"need exactly one {('bottom', 'top')[law - 3]}, found {found}")
        if law == 5:
            pair, kind = divmod(int(missing[k]), 2)
            raise NotALattice(tuple(labels[k][v] for v in divmod(pair, n)),
                              ("infimum", "supremum")[kind])
        triple = tuple(int(v) for v in np.unravel_index((triples, broken)[law - 6][k], (n, n, n)))
        if law == 6:
            raise NotDistributive(tuple(labels[k][v] for v in triple))
        raise AssertionError("heyting adjunction broke at ({}, {}, {})".format(*triple))

    return table_frames({"leq": canon, "meet": meet, "join": join, "imp": imp}, labels)


def table_frames(tables, labels: Iterable[tuple[str, ...]],
                 rows: Optional[Sequence[int]] = None) -> list[FiniteFrame]:
    """The frames of validated tables (F, ...) by name, leq, meet, join and
    imp, one per label row: row rows[k] (by default k) of every table, frozen,
    with (tables, row) as its stack, so that `stacked` reads a run of them
    back as views."""
    for table in tables.values():
        table.flags.writeable = False
    leq, meet, join, imp = (tables[name] for name in ("leq", "meet", "join", "imp"))
    return [FiniteFrame(leq[j], meet[j], join[j], imp[j], names, (tables, j))
            for j, names in zip(range(len(leq)) if rows is None else rows, labels)]


def _lookups(stack):
    """∪ and ∩ of every pair of a stack of member rows (F, m, p), as the index
    of the equal member or -1, (2, F, m, m), ∪ first: one np.searchsorted
    among the members' keys, compared as raw bytes, each the 4 bytes of its
    frame's index and then its packed row, held after its row's ∪ keys."""
    (count, m), packed = stack.shape[:2], np.packbits(stack, axis=2, bitorder="little")
    keys = np.zeros((2, count, m, m + 1, 4 + packed.shape[2]), np.uint8)   # [op, f, i, j]
    keys[..., :4] = np.arange(count, dtype=np.uint32).view(np.uint8).reshape(count, 1, 1, 4)
    np.bitwise_or(packed[:, :, None], packed[:, None], out=keys[0, :, :, :m, 4:])
    np.bitwise_and(packed[:, :, None], packed[:, None], out=keys[1, :, :, :m, 4:])
    keys[0, :, :, m, 4:] = packed
    keys = keys.view(f"V{keys.shape[-1]}")[..., 0]
    members, pairs = keys[0, :, :, m].reshape(-1), keys[..., :m]
    order = np.argsort(members)
    at = order[np.minimum(np.searchsorted(members, pairs, sorter=order), len(order) - 1)]
    return np.where(members[at] == pairs, at % m, -1).astype(element_dtype(m))


def set_frames(rows: Sequence[np.ndarray], labels: Sequence[Sequence[str]]) -> list:
    """The frames of rings of sets, in order: each rows[k] distinct boolean
    member rows (m, p) closed under ∪ and ∩, from the least set to the
    greatest, so (size, mask) order will do; one stack per (m, p). Meet and
    join are ∩ and ∪ by `_lookups`, and `heyting_tables` proves the Heyting
    table. A ring that fails gets what it raises alone: InvalidPoset for rows
    out of order, ClosureViolation at the first pair, row-major, ∪ before ∩,
    whose result is no member, or a broken adjunction's AssertionError."""
    built: list = [None] * len(rows)
    for ks in grouped(r.shape for r in rows).values():
        stack = np.array([rows[k] for k in ks], dtype=bool)               # (F, m, p)
        leq, (join, meet), m = containment_order(stack), _lookups(stack), stack.shape[1]
        imp, broken = heyting_tables(leq, meet)
        unordered = ((leq & leq.transpose(0, 2, 1)).sum(axis=(1, 2)) > m) | ~(
            leq[:, 0].all(axis=1) & leq[:, :, -1].all(axis=1))
        failures = first_failures([unordered, np.stack([join < 0, meet < 0], axis=3), broken >= 0])
        tables = {"leq": leq, "meet": meet, "join": join, "imp": imp}
        for table in tables.values():
            table.flags.writeable = False
        for g, k in enumerate(ks):
            names, (law, at) = tuple(labels[k]), failures.get(g, (-1, ()))
            built[k] = FiniteFrame(leq[g], meet[g], join[g], imp[g], names, (tables, g))
            if law == 0:
                built[k] = InvalidPoset("rows must be distinct sets from the least to the greatest")
            elif law == 1:
                i, j, op = at
                built[k] = ClosureViolation(f"{names[i]} {'∪∩'[op]} {names[j]} is not a member")
            elif law == 2:
                built[k] = AssertionError("heyting adjunction broke at ({}, {}, {})".format(
                    *np.unravel_index(broken[g], (m, m, m))))
    return built


def validate_frame(leq, labels: Optional[Sequence[str]] = None,
                   max_size: Optional[int] = None) -> FiniteFrame:
    """Check an order relation (n, n) is a frame and precompute its tables.

    The frame budget check, then validate_frames on a stack of one: the
    order checks, canonical carrier (bottom to 0, top to n-1), meet/join
    tables, distributivity on every triple, and the Heyting table with the
    adjunction x ∧ a <= b iff x <= a -> b checked on every triple. Raises
    InvalidPoset, NotALattice or NotDistributive with a witness.
    """
    leq = np.asarray(leq, dtype=bool)
    within_budget("frame", len(leq) if leq.ndim else 0, max_size)
    return validate_frames(leq[None], None if labels is None else [labels])[0]


class BooleanizationView:
    """The Booleanization of a frame: its regular elements, with their own
    regularized joins.

    The carrier is {a : a** = a} = {a* : a in L}; both characterizations are
    computed and must agree. Meets are the parent's; join_table[i, j], the
    join of carrier[i] and carrier[j], is their parent join followed by
    double pseudocomplementation.
    """

    def __init__(self, parent: FiniteFrame):
        star = parent.star
        regular = star[star] == np.arange(parent.n)
        if not (regular == (np.bincount(star, minlength=parent.n) > 0)).all():
            raise AssertionError("regular-element characterizations disagree")
        fixed = np.flatnonzero(regular)
        if not regular[parent.meet[fixed[:, None], fixed]].all():
            raise AssertionError("regular elements not closed under meet")
        table = star[star[parent.join[fixed[:, None], fixed]]]
        table.flags.writeable = False
        self.carrier, self.join_table = tuple(fixed.tolist()), table
        if not (regular[parent.bottom] and regular[parent.top]):
            raise AssertionError("regular elements must contain 0 and 1")


def product_frame(left: FiniteFrame, right: FiniteFrame) -> FiniteFrame:
    """Componentwise product, validated as a frame.

    Pairs are in lexicographic order, so for canonical inputs the product is
    already canonical and element i*|right|+j is the pair (i, j).
    """
    leq = np.kron(left.leq.astype(np.uint8), right.leq.astype(np.uint8)).astype(bool)
    labels = tuple(f"({a},{b})" for a in left.labels for b in right.labels)
    frame = validate_frame(leq, labels)
    if frame.labels != labels:
        raise AssertionError("product carrier left canonical order")
    return frame


class RegularPairFrame:
    """Subframe of L × B_L on pairs (a, b) with a <= b.

    `frame` is the validated frame on the filtered carrier; `pairs[i]` gives
    the (parent element, regular element) behind carrier index i. Closure
    under componentwise meets, and under joins whose second coordinate join
    is the regularized one, is verified as two table lookups over all pairs.
    The frame budget (max_size, default the bound's) counts the pairs.
    """

    def __init__(self, base: FiniteFrame, max_size: Optional[int] = None):
        view = BooleanizationView(base)
        a, k = np.nonzero(base.leq[:, list(view.carrier)])  # a <= b = carrier[k], a then b
        within_budget("frame", len(a), max_size)
        b = np.array(view.carrier, dtype=np.intp)[k]
        pairs = tuple(zip(a.tolist(), b.tolist()))
        labels = tuple(f"({base.labels[x]},{base.labels[y]})" for x, y in pairs)
        frame = validate_frame(base.leq[np.ix_(a, a)] & base.leq[np.ix_(b, b)], labels, max_size)
        if frame.labels != labels:
            raise AssertionError("pair carrier left canonical order")
        position = np.full((base.n, base.n), -1, dtype=np.intp)
        position[a, b] = np.arange(len(pairs))
        # [op, i, j]: the coordinates of pair i op pair j, meet (op 0) then join
        firsts = np.stack([base.meet[np.ix_(a, a)], base.join[np.ix_(a, a)]])
        seconds = np.stack([base.meet[np.ix_(b, b)], view.join_table[np.ix_(k, k)]])
        bad = position[firsts, seconds] != np.stack([frame.meet, frame.join])
        for _, (i, j, op) in first_failures([bad.transpose(1, 2, 0)[None]]).values():
            got = (int(firsts[op, i, j]), int(seconds[op, i, j]))
            raise ClosureViolation(f"{('meet', 'join')[op]} of {labels[i]}, {labels[j]} -> {got}")
        self.pairs, self.frame = pairs, frame
