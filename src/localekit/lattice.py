"""Finite frames: bounded distributive lattices with Heyting structure.

Elements are dense integer indices. After validation the carrier is in
canonical order: 0 is the bottom, n-1 the top, everything else keeps its
relative input order. All derived tables (meet, join, Heyting implication)
are precomputed eagerly, so quantified law checks reduce to table lookups.
Frames are immutable after construction and safe to share.

This module is the one frame core. `bit_rows` turns an order into down/up
bitmask rows, `lattice_tables` builds meet/join tables from those rows (or
names the first pair without an infimum or supremum), and
`distributivity_witness` checks every triple at once; `validate_frame` and
the corpus filter both use them. The Heyting table a -> b is read off the
adjunction a ∧ x <= b iff x <= a -> b: it is the greatest x on the left,
and the adjunction check that follows proves it.
"""

from __future__ import annotations

from functools import cached_property
from itertools import permutations
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .common import MAX_FRAME_CARRIER, BudgetExceeded, bits


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


class ClosureViolation(Exception):
    """A derived carrier was not closed under its defining operations."""


class FinitePoset:
    """An immutable bounded partial order on indices 0..n-1.

    leq is a read-only boolean matrix; leq[i, j] holds iff i <= j. The
    constructor verifies reflexivity, antisymmetry, transitivity, and the
    existence of a unique bottom and a unique top.
    """

    def __init__(self, leq):
        leq = np.array(leq, dtype=bool)
        if leq.ndim != 2 or leq.shape[0] != leq.shape[1]:
            raise InvalidPoset("leq must be a square boolean matrix")
        n = int(leq.shape[0])
        if n == 0:
            raise InvalidPoset("empty carrier has no bottom or top")
        if not leq.diagonal().all():
            i = int(np.nonzero(~leq.diagonal())[0][0])
            raise InvalidPoset(f"not reflexive at {i}")
        sym = leq & leq.T & ~np.eye(n, dtype=bool)
        if sym.any():
            i, j = (int(v) for v in np.argwhere(sym)[0])
            raise InvalidPoset(f"antisymmetry fails on ({i}, {j})")
        broken = (leq @ leq) & ~leq
        if broken.any():
            i, j = (int(v) for v in np.argwhere(broken)[0])
            raise InvalidPoset(f"transitivity fails on ({i}, {j})")
        bottoms = np.nonzero(leq.all(axis=1))[0]
        if len(bottoms) != 1:
            raise InvalidPoset(f"need exactly one bottom, found {list(map(int, bottoms))}")
        tops = np.nonzero(leq.all(axis=0))[0]
        if len(tops) != 1:
            raise InvalidPoset(f"need exactly one top, found {list(map(int, tops))}")
        leq.flags.writeable = False
        self.n = n
        self.leq = leq
        self.bottom = int(bottoms[0])
        self.top = int(tops[0])

    @classmethod
    def from_relation(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "FinitePoset":
        """Build from asserted order pairs (covers or full leq, mixed is fine).

        The reflexive-transitive closure is taken, so a Hasse diagram and a
        full relation produce the same poset.
        """
        rel = np.eye(n, dtype=bool)
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise InvalidPoset(f"pair ({i}, {j}) out of range for carrier {n}")
            rel[i, j] = True
        while True:
            closed = rel | (rel @ rel)
            if np.array_equal(closed, rel):
                break
            rel = closed
        return cls(rel)

    def covers(self) -> list[tuple[int, int]]:
        """Pairs (i, j) where j covers i: i < j with nothing in between."""
        lt = self.leq & ~np.eye(self.n, dtype=bool)
        cov = lt & ~(lt @ lt)
        return [(int(i), int(j)) for i, j in np.argwhere(cov)]

    def __repr__(self):
        return f"FinitePoset(n={self.n}, covers={self.covers()})"


class FiniteFrame:
    """A validated frame: canonical poset plus meet/join/Heyting tables.

    Not constructed directly; use validate_frame. Instances are immutable
    (tables carry read-only numpy flags) and safe to share between workers.
    """

    def __init__(self, poset: FinitePoset, meet, join, imp, labels):
        self.poset = poset
        self.meet = meet
        self.join = join
        self.imp = imp
        self.labels = labels

    @property
    def n(self) -> int:
        return self.poset.n

    @property
    def leq(self):
        return self.poset.leq

    @property
    def bottom(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return self.poset.n - 1

    @cached_property
    def star(self):
        """Pseudocomplement column: star[a] = a -> 0."""
        col = self.imp[:, 0].copy()
        col.flags.writeable = False
        return col

    @cached_property
    def up_masks(self) -> tuple[int, ...]:
        """up_masks[i]: bitmask of {k : i <= k}."""
        return bit_rows(self.leq)[1]

    @cached_property
    def imp_image_masks(self) -> tuple[int, ...]:
        """imp_image_masks[a]: bitmask of {a -> b : b in L} (the open sublocale)."""
        return tuple(int(sum(1 << int(v) for v in set(self.imp[a, :]))) for a in range(self.n))

    @cached_property
    def imp_preimage_masks(self) -> tuple[int, ...]:
        """imp_preimage_masks[s]: bitmask of {a -> s : a in L}."""
        return tuple(int(sum(1 << int(v) for v in set(self.imp[:, s]))) for s in range(self.n))

    def label(self, i: int) -> str:
        return self.labels[i]

    def __repr__(self):
        return f"FiniteFrame(n={self.n})"


class PseudocomplementResult(NamedTuple):
    value: int
    is_dense: bool


def bit_rows(leq) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(down, up) bitmask rows of an order: down[i] = {k : k <= i},
    up[i] = {k : i <= k}, as Python ints.

    The rows are packed through a uint64 product, which is exact up to the
    64-element frame budget.
    """
    n = leq.shape[0]
    if n > MAX_FRAME_CARRIER:
        raise BudgetExceeded(f"carrier size {n} exceeds the {MAX_FRAME_CARRIER}-bit mask width")
    weights = np.left_shift(np.uint64(1), np.arange(n, dtype=np.uint64))
    rows = leq.astype(np.uint64)
    down = tuple(int(v) for v in weights @ rows)
    up = tuple(int(v) for v in rows @ weights)
    return down, up


def containment_order(masks: Sequence[int]):
    """leq[i, j] iff masks[i] is a subset of masks[j] (masks of up to 64 bits)."""
    arr = np.array(masks, dtype=np.uint64)
    return (arr[:, None] & ~arr[None, :]) == 0


def lattice_tables(down: Sequence[int], up: Sequence[int]):
    """Meet and join tables of the order given by its bitmask rows.

    Scans pairs (i, j >= i) in order, infimum before supremum, and raises
    NotALattice((i, j), kind) for the first pair that lacks one.
    """
    n = len(down)
    meet = np.empty((n, n), dtype=np.intp)
    join = np.empty((n, n), dtype=np.intp)
    for i in range(n):
        for j in range(i, n):
            lows = down[i] & down[j]
            m = next((x for x in bits(lows) if down[x] & lows == lows), None)
            if m is None:
                raise NotALattice((i, j), "infimum")
            ups = up[i] & up[j]
            v = next((x for x in bits(ups) if up[x] & ups == ups), None)
            if v is None:
                raise NotALattice((i, j), "supremum")
            meet[i, j] = meet[j, i] = m
            join[i, j] = join[j, i] = v
    return meet, join


def distributivity_witness(meet, join) -> Optional[tuple[int, int, int]]:
    """The first triple (a, b, c) with a ∧ (b ∨ c) != (a ∧ b) ∨ (a ∧ c), or None."""
    idx = np.arange(len(meet))
    lhs = meet[idx[:, None, None], join[None, :, :]]
    rhs = join[meet[:, :, None], meet[:, None, :]]
    if np.array_equal(lhs, rhs):
        return None
    a, b, c = (int(v) for v in np.argwhere(lhs != rhs)[0])
    return a, b, c


def validate_frame(poset: FinitePoset, labels: Optional[Sequence[str]] = None,
                   max_size: Optional[int] = None) -> FiniteFrame:
    """Check a bounded poset is a frame and precompute its tables.

    Canonicalizes the carrier (bottom to 0, top to n-1), derives meet/join
    tables, checks distributivity on every triple, then reads the Heyting
    table off the adjunction and verifies x ∧ a <= b iff x <= a -> b on
    every triple. Raises NotALattice or NotDistributive with a witness.
    """
    limit = MAX_FRAME_CARRIER if max_size is None else max_size
    n = poset.n
    if n > limit:
        raise BudgetExceeded(f"carrier size {n} exceeds frame budget {limit}")
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    elif len(labels) != n:
        raise ValueError("labels length must match carrier size")

    order = [poset.bottom]
    order += [i for i in range(n) if i != poset.bottom and i != poset.top]
    if n > 1:
        order.append(poset.top)
    canon = FinitePoset(poset.leq[np.ix_(order, order)])
    labels = tuple(labels[i] for i in order)

    leq = canon.leq
    try:
        meet, join = lattice_tables(*bit_rows(leq))
    except NotALattice as exc:
        i, j = exc.pair
        raise NotALattice((labels[i], labels[j]), exc.kind) from None
    triple = distributivity_witness(meet, join)
    if triple is not None:
        raise NotDistributive(tuple(labels[v] for v in triple))

    # a -> b is the greatest x with a ∧ x <= b; among those x it has the most
    # elements below it, and the adjunction check below proves it is greatest.
    adj_lhs = leq[meet, :]                      # [a, x, b] : a ∧ x <= b
    rank = leq.sum(axis=0)
    imp = np.argmax(np.where(adj_lhs, rank[None, :, None], -1), axis=1)
    adj_rhs = leq[:, imp].transpose(1, 0, 2)    # [a, x, b] : x <= a -> b
    if not np.array_equal(adj_lhs, adj_rhs):
        a, x, b = (int(v) for v in np.argwhere(adj_lhs != adj_rhs)[0])
        raise AssertionError(f"heyting adjunction broke at ({a}, {x}, {b})")

    for table in (meet, join, imp):
        table.flags.writeable = False
    return FiniteFrame(canon, meet, join, imp, labels)


def heyting(frame: FiniteFrame, a: int, b: int) -> int:
    """Largest x with a ∧ x <= b (table lookup on a validated frame)."""
    n = frame.n
    if not (0 <= a < n and 0 <= b < n):
        raise IndexError(f"element out of range for carrier {n}")
    return int(frame.imp[a, b])


def pseudocomplement(frame: FiniteFrame, a: int) -> PseudocomplementResult:
    """a* = a -> 0, together with the density flag (a is dense iff a* = 0)."""
    value = heyting(frame, a, frame.bottom)
    return PseudocomplementResult(value, value == frame.bottom)


class BooleanizationView:
    """The regular elements of a frame, with their own regularized joins.

    The carrier is {a : a** = a} = {a* : a in L}; both characterizations are
    computed and must agree. Meets are the parent's, the join of a family is
    the parent join followed by double pseudocomplementation.
    """

    def __init__(self, parent: FiniteFrame):
        star = parent.star
        fixed = tuple(a for a in range(parent.n) if int(star[star[a]]) == a)
        images = tuple(sorted({int(star[a]) for a in range(parent.n)}))
        if fixed != images:
            raise AssertionError("regular-element characterizations disagree")
        self.parent = parent
        self.carrier = fixed
        self.position = {a: i for i, a in enumerate(fixed)}
        k = len(fixed)
        table = np.zeros((k, k), dtype=np.intp)
        for i, a in enumerate(fixed):
            for j, b in enumerate(fixed):
                v = int(parent.join[a, b])
                table[i, j] = int(star[star[v]])
                if int(parent.meet[a, b]) not in self.position:
                    raise AssertionError("regular elements not closed under meet")
        table.flags.writeable = False
        self.join_table = table
        if parent.bottom not in self.position or parent.top not in self.position:
            raise AssertionError("regular elements must contain 0 and 1")

    def join(self, *elements: int) -> int:
        """Join in the view (parent elements in, parent element out)."""
        return self.join_family(elements)

    def join_family(self, elements: Iterable[int]) -> int:
        acc = self.parent.bottom
        for a in elements:
            if a not in self.position:
                raise ValueError(f"{a} is not a regular element")
            acc = int(self.parent.join[acc, a])
        star = self.parent.star
        return int(star[star[acc]])

    @cached_property
    def as_frame(self) -> FiniteFrame:
        """The view as a standalone frame (a Boolean algebra)."""
        sub = self.parent.leq[np.ix_(self.carrier, self.carrier)]
        frame = validate_frame(FinitePoset(sub),
                               labels=[self.parent.labels[a] for a in self.carrier])
        # Carrier is ascending with parent bottom/top at the ends, so the
        # canonical order is the identity and tables line up positionally.
        expected = np.array([[self.position[int(self.join_table[i, j])]
                              for j in range(len(self.carrier))]
                             for i in range(len(self.carrier))])
        if not np.array_equal(frame.join, expected):
            raise AssertionError("view join disagrees with order-theoretic join")
        return frame


def booleanization(frame: FiniteFrame) -> BooleanizationView:
    """The Booleanization of a frame: its subset of regular elements."""
    return BooleanizationView(frame)


def product_frame(left: FiniteFrame, right: FiniteFrame) -> FiniteFrame:
    """Componentwise product, validated as a frame.

    Pairs are in lexicographic order, so for canonical inputs the product is
    already canonical and element i*|right|+j is the pair (i, j).
    """
    leq = np.kron(left.leq.astype(np.uint8), right.leq.astype(np.uint8)).astype(bool)
    labels = tuple(f"({a},{b})" for a in left.labels for b in right.labels)
    frame = validate_frame(FinitePoset(leq), labels)
    if frame.labels != labels:
        raise AssertionError("product carrier left canonical order")
    return frame


class RegularPairFrame:
    """Subframe of L × B_L on pairs (a, b) with a <= b.

    `frame` is the validated frame on the filtered carrier; `pairs[i]` gives
    the (parent element, regular element) behind carrier index i. Closure
    under componentwise meets, and under joins whose second coordinate join
    is the regularized one, is verified element by element.
    """

    def __init__(self, base: FiniteFrame):
        view = booleanization(base)
        pairs = tuple((a, b) for a in range(base.n) for b in view.carrier
                      if base.leq[a, b])
        m = len(pairs)
        leq = np.zeros((m, m), dtype=bool)
        for i, (a1, b1) in enumerate(pairs):
            for j, (a2, b2) in enumerate(pairs):
                leq[i, j] = bool(base.leq[a1, a2]) and bool(base.leq[b1, b2])
        labels = tuple(f"({base.labels[a]},{base.labels[b]})" for a, b in pairs)
        frame = validate_frame(FinitePoset(leq), labels)
        if frame.labels != labels:
            raise AssertionError("pair carrier left canonical order")
        index = {pair: i for i, pair in enumerate(pairs)}
        for i, (a1, b1) in enumerate(pairs):
            for j, (a2, b2) in enumerate(pairs):
                wedge = (int(base.meet[a1, a2]), int(base.meet[b1, b2]))
                if index.get(wedge) != int(frame.meet[i, j]):
                    raise ClosureViolation(f"meet of {labels[i]}, {labels[j]} -> {wedge}")
                vee = (int(base.join[a1, a2]), view.join(b1, b2))
                if index.get(vee) != int(frame.join[i, j]):
                    raise ClosureViolation(f"join of {labels[i]}, {labels[j]} -> {vee}")
        self.base = base
        self.view = view
        self.pairs = pairs
        self.index = index
        self.frame = frame

    @property
    def n(self) -> int:
        return self.frame.n


def regular_pair_frame(base: FiniteFrame) -> RegularPairFrame:
    """Pair every element with the regular elements above it: {(a,b) : a <= b}."""
    return RegularPairFrame(base)


def find_order_isomorphism(left: FiniteFrame, right: FiniteFrame) -> Optional[tuple[int, ...]]:
    """A permutation p with left.leq[i, j] == right.leq[p[i], p[j]], if any.

    Brute force with a degree-signature filter; intended for small carriers
    (regression tests), guarded at 8 elements.
    """
    if left.n != right.n:
        return None
    n = left.n
    if n > 8:
        raise BudgetExceeded("isomorphism search is intended for carriers <= 8")

    def signature(frame):
        return [(int(frame.leq[:, i].sum()), int(frame.leq[i, :].sum())) for i in range(frame.n)]

    sig_l, sig_r = signature(left), signature(right)
    if sorted(sig_l) != sorted(sig_r):
        return None
    a = left.leq
    b = right.leq
    for perm in permutations(range(n)):
        if any(sig_l[i] != sig_r[perm[i]] for i in range(n)):
            continue
        if np.array_equal(a, b[np.ix_(perm, perm)]):
            return tuple(perm)
    return None
