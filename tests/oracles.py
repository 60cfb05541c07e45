"""Independent brute-force oracles the tests check the library against.

Everything here works from first principles (raw order relations, raw
point membership) and deliberately avoids the code paths under test.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations, permutations
from math import factorial

import numpy as np

from localekit import checks, corpus, realline as rl
from localekit.common import (CheckReport, EquivalenceViolation, TheoremViolation, bits,
                             pack_rows, settled, slice_len, unpack_rows, within_budget)
from localekit.corpus import iter_natural_posets
from localekit.lattice import (FiniteFrame, cover_relation, order_closure, validate_frame,
                               validate_frames)
from localekit.spaces import SpacePropositionReport, bitstring
from localekit.separation import ConditionVerdict, SeparationReport
from localekit.sublocales import (Sublocale, SubsetVerdict, closed_join_frames, meet_closure,
                                  sublocale_lattices)


class MixedParents(ValueError):
    """Operands live over different parent frames."""


def image_masks(frame: FiniteFrame) -> tuple[int, ...]:
    """The open sublocales o(a) = {a -> b : b in L} as bitmasks, one Python set each."""
    return tuple(sum(1 << v for v in set(frame.imp[a].tolist())) for a in range(frame.n))


def tampered(frame: FiniteFrame, table: str, entries) -> FiniteFrame:
    """A FiniteFrame sharing frame's order and tables except for the entries
    {(i, j): value} of `table`, one of "meet", "join" and "imp"."""
    tables = {name: getattr(frame, name).copy() for name in ("meet", "join", "imp")}
    for (i, j), value in entries.items():
        tables[table][i, j] = value
    return FiniteFrame(frame.leq, tables["meet"], tables["join"], tables["imp"], frame.labels)


def relabeled(tables, rng):
    """Stacked tables (leq, then element tables, each (F, n, n)) with every
    frame read through its own random relabeling: element i becomes p[i]."""
    leq, *elements = tables
    count, n = leq.shape[:2]
    perm = np.argsort(rng.random((count, n)), axis=1)
    inv = np.argsort(perm, axis=1)
    at = np.arange(count)[:, None, None], inv[:, :, None], inv[:, None, :]
    return (leq[at],) + tuple(np.take_along_axis(perm[:, None, :], table[at], axis=2)
                              for table in elements)


def closed_form(kind, n):
    """Tables (leq, meet, join, imp) of the n-chain or of the Boolean cube on
    n = 2^k elements, read off their closed forms with no frame built."""
    i = np.arange(n)
    if kind == "chain":
        leq = i[:, None] <= i
        return leq, np.minimum.outer(i, i), np.maximum.outer(i, i), np.where(leq, n - 1, i)
    return (i[:, None] & ~i) == 0, i[:, None] & i, i[:, None] | i, (~i[:, None] | i) & (n - 1)


def broken_copies(tables):
    """The tables as a stack of four: as given, then with the top's meet with
    the element below it, the top's join with the bottom, and the top's
    pseudocomplement each set wrong, so laws fail at the largest elements."""
    stack = tuple(np.stack([table] * 4) for table in tables)
    _, meet, join, imp = stack
    top = len(tables[0]) - 1
    meet[1, top, top - 1] = 0
    join[2, top, 0] = 0
    imp[3, top, 0] = top
    return stack


# ---------------------------------------------------------------------------
# Named orders that are no frames, as (n, n) relations


def rows_to_leq(rows: tuple[int, ...]):
    return unpack_rows(rows, len(rows))


def diamond_leq():
    """M3: three incomparable atoms under a common top (not distributive)."""
    return order_closure(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


def pentagon_leq():
    """N5 (a lattice, not distributive)."""
    return order_closure(5, [(0, 1), (1, 2), (0, 3), (2, 4), (3, 4)])


def hexagon_leq():
    """Bounded poset where the two atoms have no supremum (not a lattice)."""
    return order_closure(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)])


# ---------------------------------------------------------------------------
# Order-theoretic oracles on a plain leq matrix (list of rows of bools)


def brute_meet(leq, a, b):
    n = len(leq)
    lows = [k for k in range(n) if leq[k][a] and leq[k][b]]
    tops = [x for x in lows if all(leq[y][x] for y in lows)]
    return tops[0] if len(tops) == 1 else None


def brute_join(leq, a, b):
    n = len(leq)
    ups = [k for k in range(n) if leq[a][k] and leq[b][k]]
    bottoms = [x for x in ups if all(leq[x][y] for y in ups)]
    return bottoms[0] if len(bottoms) == 1 else None


def brute_heyting(leq, a, b):
    n = len(leq)
    solutions = [x for x in range(n) if leq[brute_meet(leq, a, x)][b]]
    best = [x for x in solutions if all(leq[y][x] for y in solutions)]
    return best[0] if len(best) == 1 else None


def brute_heyting_break(leq):
    """`lattice.heyting_tables` on one lattice by search: a -> b is the x with
    a ∧ x <= b that has the most elements below it, the least such x on a
    tie, and the break is the first (a, x, b), row-major, where a ∧ x <= b
    and x <= a -> b disagree. Returns (imp rows, break or None)."""
    n = len(leq)
    meet = [[brute_meet(leq, a, b) for b in range(n)] for a in range(n)]
    size = [sum(leq[y][x] for y in range(n)) for x in range(n)]
    imp = [[max((x for x in range(n) if leq[meet[a][x]][b]), key=lambda x: (size[x], -x))
            for b in range(n)] for a in range(n)]
    for a in range(n):
        for x in range(n):
            for b in range(n):
                if leq[meet[a][x]][b] != leq[x][imp[a][b]]:
                    return imp, (a, x, b)
    return imp, None


def brute_is_lattice(leq):
    n = len(leq)
    return all(brute_meet(leq, a, b) is not None and brute_join(leq, a, b) is not None
               for a in range(n) for b in range(n))


def brute_is_distributive(leq):
    n = len(leq)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                lhs = brute_meet(leq, a, brute_join(leq, b, c))
                rhs = brute_join(leq, brute_meet(leq, a, b), brute_meet(leq, a, c))
                if lhs != rhs:
                    return False
    return True


def brute_is_partial_order(rel):
    n = len(rel)
    if not all(rel[i][i] for i in range(n)):
        return False
    if any(rel[i][j] and rel[j][i] for i in range(n) for j in range(n) if i != j):
        return False
    return not any(rel[i][j] and rel[j][k] and not rel[i][k]
                   for i in range(n) for j in range(n) for k in range(n))


def find_order_isomorphism(left: FiniteFrame, right: FiniteFrame):
    """A permutation p with left.leq[i, j] == right.leq[p[i], p[j]], if any.

    Brute force with a degree-signature filter, guarded at 8 elements.
    """
    if left.n != right.n:
        return None
    n = left.n
    if n > 8:
        raise ValueError("isomorphism search is intended for carriers <= 8")

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


def brute_labeled_lattices(n):
    """Every labeled lattice on 0..n-1 by scanning all relation matrices."""
    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    found = []
    for pattern in range(1 << len(slots)):
        rel = [[i == j for j in range(n)] for i in range(n)]
        for k, (i, j) in enumerate(slots):
            if pattern >> k & 1:
                rel[i][j] = True
        if brute_is_partial_order(rel) and brute_is_lattice(rel):
            found.append(tuple(tuple(row) for row in rel))
    return found


def _permuted_rows(up: tuple[int, ...], perm) -> tuple[int, ...]:
    """The up-mask rows of an order relabeled by perm (element i to perm[i])."""
    n = len(up)
    rows = [0] * n
    for i in range(n):
        acc = 0
        for j in bits(up[i]):
            acc |= 1 << perm[j]
        rows[perm[i]] = acc
    return tuple(rows)


def _labeled_closure(natural_rows: list[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    """Every relabeling of every given order, deduplicated and sorted."""
    seen = set()
    for rows in natural_rows:
        for perm in permutations(range(n)):
            seen.add(_permuted_rows(rows, perm))
    return sorted(seen)


def natural_labeled_lattices(n, distributive_only=False):
    """Every labeled (optionally distributive) lattice on 0..n-1 as sorted
    up-mask rows: walk every naturally labeled poset on n elements, keep the
    bounded ones that brute force finds to be (distributive) lattices, and
    relabel them through every permutation one bit at a time."""
    full = (1 << n) - 1
    natural = []
    for up, down in iter_natural_posets(n):
        if full not in up or full not in down:
            continue
        leq = [[bool(row >> j & 1) for j in range(n)] for row in up]
        if brute_is_lattice(leq) and (not distributive_only or brute_is_distributive(leq)):
            natural.append(up)
    return _labeled_closure(natural, n)


def _key_rows(keys, n: int) -> list[tuple[int, ...]]:
    """The inverse of `corpus._keys`: each key as its tuple of n up-masks."""
    masks = np.zeros((len(keys), n), dtype=np.min_scalar_type((1 << n) - 1))
    for byte in keys.view(np.uint8).reshape(len(keys), n, -1).transpose(2, 0, 1):
        masks = masks << 8 | byte
    rows, step = [], slice_len(n)
    for start in range(0, len(masks), step):
        rows += zip(*masks[start:start + step].T.tolist())
    return rows


def labeled_lattice_rows(n: int, distributive_only: bool = False) -> list[tuple[int, ...]]:
    """Every labeled (optionally distributive) lattice on 0..n-1, as up-mask
    rows, in the sorted order of the row tuples: the keys of the corpus's
    (canonical order, placement) pairs, decoded."""
    return _key_rows(corpus._labeled(n, distributive_only)[1], n) if n >= 1 else []


def per_item_corpus(max_size: int):
    """The labeled corpus as (name, frame), one validate_frame per labeled
    row on that row's own order: no canonical order is shared between items."""
    for n in range(1, max_size + 1):
        for k, rows in enumerate(labeled_lattice_rows(n, distributive_only=True)):
            yield f"dist{n}:{k:04d}", validate_frame(rows_to_leq(rows))


def chunked(items):
    """(name, frame) items regrouped into lists of one carrier size, at most
    slice_len(n**3) long, in order: the corpus chunks of the labeled corpus."""
    batch: list = []
    for item in items:
        n = item[1].n
        if batch and (batch[0][1].n != n or len(batch) == slice_len(n**3)):
            yield batch
            batch = []
        batch.append(item)
    if batch:
        yield batch


def per_chunk_items(max_size: int):
    """The lattice campaign's (item, FrameStructure) pairs by each item's own
    route: one frame_structures batch per corpus chunk, decided on the
    labeled items' frames themselves, so that no item reads an outcome
    decided on another frame; then the named frames, one batch."""
    batches = chain(chunked(corpus.iter_distributive_frames(max_size)),
                    [sorted(corpus.named_frames().items())])
    for batch in batches:
        yield from zip([item for item, _ in batch],
                       checks.frame_structures([frame for _, frame in batch]))


def _linear_extensions(up: tuple[int, ...], downsets: list[int]) -> int:
    """Linear extensions of a poset, counted over its down-sets (ascending):
    each extension of a down-set ends in one of its maximal elements."""
    count = {0: 1}
    for s in downsets[1:]:
        count[s] = sum(count[s & ~(1 << i)] for i in bits(s) if up[i] & s == 1 << i)
    return count[downsets[-1]]


def labeled_distributive_count(n: int) -> int:
    """The number of labeled distributive lattices on n >= 1 elements, as
    n!·Σ 1/e(N) over the naturally labeled posets N with n down-sets.

    Such a lattice is the down-set lattice of a poset, unique up to
    isomorphism (Birkhoff), so there are Σ n!/|Aut P| of them over the
    unlabeled posets P with n down-sets. P has e(P)/|Aut P| naturally
    labeled copies, e(P) its number of linear extensions, so their terms
    1/e(N) add up to 1/|Aut P|. A poset on k elements has at least k + 1
    down-sets, with equality only for the chain, so the posets on at most
    n - 2 elements and the (n - 1)-chain, whose term is 1, are all of them.
    """
    total = Fraction(1)
    for k in range(n - 1):
        for up, down in iter_natural_posets(k):
            downsets = [s for s in range(1 << k) if all(down[i] & ~s == 0 for i in bits(s))]
            if len(downsets) == n:
                total += Fraction(1, _linear_extensions(up, downsets))
    return int(factorial(n) * total)


def brute_primes(frame):
    """Meet-irreducibles: non-top elements that are no meet of two strictly larger ones."""
    n = frame.n
    leq = [[bool(frame.leq[i, j]) for j in range(n)] for i in range(n)]
    return tuple(x for x in range(n) if x != frame.top and not any(
        brute_meet(leq, a, b) == x
        for a in range(n) for b in range(n)
        if a != x and b != x and leq[x][a] and leq[x][b]))


def brute_sublocales(frame):
    """Direct-definition scan of S(L) using only leq-level oracles."""
    n = frame.n
    leq = [[bool(frame.leq[i, j]) for j in range(n)] for i in range(n)]
    top = frame.top
    out = []
    for mask in range(1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        if top not in members:
            continue
        if any(brute_meet(leq, s, t) not in members for s in members for t in members):
            continue
        if any(brute_heyting(leq, a, s) not in members
               for a in range(n) for s in members):
            continue
        out.append(mask)
    return sorted(out)


def sublocale_witness(frame: FiniteFrame, members) -> tuple:
    """The sublocale conditions one pair at a time, as (ok, condition, witness):
    the top, then meet[s, t] for members s <= t (by index) in row-major order,
    then imp[a, s] for members s, then every a, ascending."""
    mask = sum(1 << i for i in set(members))
    if not mask >> frame.top & 1:
        return False, "missing-top", (frame.top,)
    elems = tuple(bits(mask))
    for i, s in enumerate(elems):
        for t in elems[i:]:
            if not mask >> int(frame.meet[s, t]) & 1:
                return False, "meet", (s, t)
    for s in elems:
        for a in range(frame.n):
            if not mask >> int(frame.imp[a, s]) & 1:
                return False, "heyting", (a, s)
    return True, None, None


def meet_close(frame: FiniteFrame, mask: int) -> int:
    """Smallest superset of mask closed under binary meets."""
    meet = frame.meet
    cur = mask
    while True:
        add = 0
        elems = tuple(bits(cur))
        for i, s in enumerate(elems):
            row = meet[s]
            for t in elems[i:]:
                add |= 1 << int(row[t])
        if add & ~cur == 0:
            return cur
        cur |= add


def brute_closed_join_elements(frame):
    """All joins of closed sublocales by evaluating the join formula per subset."""
    n = frame.n
    leq = [[bool(frame.leq[i, j]) for j in range(n)] for i in range(n)]
    ups = [sum(1 << k for k in range(n) if leq[a][k]) for a in range(n)]
    out = set()
    for choice in range(1 << n):
        union_mask = 1 << frame.top
        for a in range(n):
            if choice >> a & 1:
                union_mask |= ups[a]
        members = [i for i in range(n) if union_mask >> i & 1]
        closure = set()
        for size in range(1, len(members) + 1):
            for subset in combinations(members, size):
                m = subset[0]
                for other in subset[1:]:
                    m = brute_meet(leq, m, other)
                closure.add(m)
        closure.add(frame.top)
        out.add(sum(1 << i for i in closure))
    return sorted(out)


def generic_lattice_tables(leqs):
    """`lattice.lattice_tables` by search: the meet of i and j is the common
    lower bound with the most elements below it, proved by the common lower
    bounds being exactly the elements below it; joins are the meets of the
    opposite order. Same (meet, join, missing) contract: -1 where a pair has
    no infimum or supremum, and missing names each frame's first such pair
    (i, j >= i), row-major, infimum first, as 2 * (i * n + j) + kind."""
    count, n = leqs.shape[:2]
    orders = np.concatenate([leqs, leqs.transpose(0, 2, 1)])   # each order, then its opposite
    below = orders.transpose(0, 2, 1)                           # [g, i, x] : x <= i
    lows = below[:, :, None, :] & below[:, None, :, :]          # [g, i, j, x] : x <= i, j
    best = np.argmax(np.where(lows, orders.sum(axis=1)[:, None, None, :], -1), axis=3)
    proved = (lows == below[np.arange(2 * count)[:, None, None], best]).all(axis=3)
    best = np.where(proved, best, -1)
    idx = np.arange(n)
    failed = ~np.stack([proved[:count], proved[count:]], axis=3) & (idx[:, None] <= idx)[..., None]
    flat = failed.reshape(count, -1)
    return best[:count], best[count:], np.where(flat.any(axis=1), flat.argmax(axis=1), -1)


def generic_distributivity_witness(meet, join):
    """`lattice.distributivity_witness` by broadcast fancy indexing: a ∧ (b ∨ c)
    and (a ∧ b) ∨ (a ∧ c) gathered from the (F, n, n) tables with one index
    array per axis, and per frame the first triple where they differ,
    flattened as (a * n + b) * n + c, or -1."""
    count, n = meet.shape[:2]
    stack = np.arange(count)[:, None, None, None]
    lhs = meet[stack, np.arange(n)[:, None, None], join[:, None, :, :]]
    rhs = join[stack, meet[:, :, :, None], meet[:, :, None, :]]
    flat = (lhs != rhs).reshape(count, -1)
    return np.where(flat.any(axis=1), flat.argmax(axis=1), -1)


def generic_frame_law_masks(leq, meet, join, imp):
    """`checks._frame_law_masks` by broadcast fancy indexing over the tables
    (F, n, n) as given: failed[law, f] in `checks._FRAME_LAWS` order, and
    below[f, a] and triple[f, a], where a ≤ a** and a* = a*** fail."""
    n = leq.shape[1]
    star = imp[:, :, 0]
    stack = np.arange(len(leq))[:, None]
    idx = np.arange(n)
    dstar = star[stack, star]
    below = ~leq[stack, idx, dstar]                                  # not a <= a**
    triple = star[stack, dstar] != star                              # a*** != a*
    regular = dstar == idx
    image = np.zeros_like(regular)
    image[stack, star] = True
    pairs = regular[:, :, None] & regular[:, None, :]
    view = dstar[stack[:, :, None], join]                            # (i ∨ j)** on all pairs
    grid = stack[:, :, None, None]
    left = view[grid, view[:, :, :, None], idx]                      # (i ∨ j) ∨ m
    right = view[grid, idx[:, None, None], view[:, None, :, :]]      # i ∨ (j ∨ m)
    failed = np.stack([
        below.any(axis=1), triple.any(axis=1), (regular != image).any(axis=1),
        (pairs & ~regular[stack[:, :, None], meet]).any(axis=(1, 2)),
        ~(regular[:, 0] & regular[:, n - 1]),
        (pairs & (view != view.transpose(0, 2, 1))).any(axis=(1, 2)),
        (regular & (view.diagonal(axis1=1, axis2=2) != idx)).any(axis=1),
        (pairs[:, :, :, None] & regular[:, None, None, :] & (left != right)).any(axis=(1, 2, 3))])
    return failed, below, triple


def generic_closed_join_frame(frame: FiniteFrame):
    """The closed-join frame derived from its order alone: the up-sets of
    `frame` in (size, mask) order, validated by `validate_frames` as the
    frame of their containment order. Returns (masks, validated frame)."""
    up = frame.up_masks
    masks = sorted(up, key=lambda m: (m.bit_count(), m))
    leq = np.array([[a & ~b == 0 for b in masks] for a in masks])
    labels = tuple(f"c({frame.labels[up.index(m)]})" for m in masks)
    return tuple(masks), validate_frames(leq[None], [labels])[0]


def generic_set_frame(masks, labels):
    """The frame of a ring of sets derived from its order alone: the member
    masks, in the given order, validated by `validate_frames` as the frame
    of their containment order."""
    leq = np.array([[a & ~b == 0 for b in masks] for a in masks])
    return validate_frames(leq[None], [tuple(labels)])[0]


def least_upper_bounds(leq):
    """The join table of a finite order read off its relation alone, or None
    where some pair has no least upper bound: w is the least upper bound of
    i and j iff its up-set is the set of all their upper bounds."""
    leq = np.asarray(leq)
    upper = leq[:, None, :] & leq[None, :, :]  # upper[i, j, w]: w above i and j
    least = upper & (leq.sum(axis=1) == upper.sum(axis=2)[:, :, None])
    return least.argmax(axis=2) if least.any(axis=2).all() else None


def containment(rows, columns=None):
    """The containment order of (m, n) boolean member rows: row i is below
    row j iff no member of row i is missing from row j, with j a row of
    columns where given."""
    rows = np.asarray(rows)
    columns = rows if columns is None else columns
    return ~(rows[:, None, :] & ~columns[None, :, :]).any(axis=2)


def generic_sublocale_laws(lattice):
    """The coframe law and join-is-lub of S(L) on tables built without prime
    sets: the first law that fails, or None.

    Joins are least upper bounds read off the containment order of
    `lattice.rows`, and meets are intersections of member masks. The coframe law is checked on every
    triple, and join-is-lub compares the least upper bounds with M(Y ∪ Z),
    the sublocale whose prime set is the union of its arguments' prime sets.
    """
    join = least_upper_bounds(containment(lattice.rows))
    if join is None:
        return "no least upper bound"
    index = {m: i for i, m in enumerate(lattice.masks)}
    try:
        meet = np.array([[index[a & b] for b in lattice.masks] for a in lattice.masks])
    except KeyError:
        return "an intersection is no sublocale"
    if not np.array_equal(join[:, meet], meet[join[:, :, None], join[:, None, :]]):
        return "coframe-law"
    by_primes = {y: i for i, y in enumerate(lattice.prime_sets)}
    if not np.array_equal(join, [[by_primes[y | z] for z in lattice.prime_sets]
                                 for y in lattice.prime_sets]):
        return "join-is-lub"
    return None


def generic_closed_open_identities(frame: FiniteFrame) -> CheckReport:
    """The closed/open identities on every one of the 2^n families of the
    carrier: ⋂c(a) = c(⋁a) and ⋁o(a) = o(⋁a), the join of a family folded
    from 0 through the join table, then c(a) ∨ c(b) = c(a ∧ b) and
    o(a) ∩ o(b) = o(a ∧ b) on every pair. The first failure names its family
    in ascending mask order, or its pair in row-major order. Joins in S(L)
    go through the library's `meet_closure`, which `meet_close` checks
    elsewhere: what this route checks independently is families against pairs.

    The library decides only the nullary and binary cases, and these imply
    every family by induction:
    - The binary ⋂c case alone pins the join table to the true join: c(a) ∩
      c(b) is the up-set of the least upper bound, and up-sets identify
      elements. Then ⋂c over a family is c of its join, one pair at a time.
    - M(M(X) ∪ Y) = M(X ∪ Y) for the meet-closure M, so M(o(a) ∪ o(b) ∪ …)
      = M(o(a ∨ b) ∪ …), which carries ⋁o from pairs to families.
    """
    n = frame.n
    up, opens, labels = frame.leq, unpack_rows(image_masks(frame), n), frame.labels
    members = unpack_rows(range(1 << n), n)
    joined = np.zeros(len(members), dtype=np.intp)  # the join of each family, 0 ∨ a ∨ b ...
    for a in range(n):
        joined = np.where(members[:, a], frame.join[joined, a], joined)
    inter_bad = (~(members @ ~up) != up[joined]).any(axis=1)  # z in every c(a)

    pair_meets = frame.meet.reshape(-1)
    pair_ups = (up[:, None, :] | up[None, :, :]).reshape(n * n, n)
    closures = meet_closure(frame.leq[None], np.concatenate([members @ opens, pair_ups])[None])[0]
    o_join_bad = (closures[:len(members)] != opens[joined]).any(axis=1)
    c_join_bad = (closures[len(members):] != up[pair_meets]).any(axis=1)
    o_meet_bad = ((opens[:, None, :] & opens[None, :, :]).reshape(n * n, n)
                  != opens[pair_meets]).any(axis=1)

    bad = inter_bad | o_join_bad
    if bad.any():
        k = int(bad.argmax())
        elems = tuple(np.flatnonzero(members[k]).tolist())
        law = "⋂c" if inter_bad[k] else "⋁o"
        return CheckReport.failed("closed-open-identities", f"{law} over {elems}")
    bad = c_join_bad | o_meet_bad
    if bad.any():
        k = int(bad.argmax())
        a, b = (labels[v] for v in divmod(k, n))
        law = f"c({a})∨c({b}) ≠ c(meet)" if c_join_bad[k] else f"o({a})∩o({b}) ≠ o(meet)"
        return CheckReport.failed("closed-open-identities", law)
    return CheckReport.passed("closed-open-identities")


def prime_closures(frame: FiniteFrame) -> tuple[int, ...]:
    """M(Y ∪ {1}) for every set Y of primes of frame, bit j of Y for its
    j-th prime by index, as bitmasks in the order of Y."""
    ps = tuple(np.flatnonzero(cover_relation(frame.leq).sum(axis=1) == 1).tolist())
    members = np.zeros((1 << len(ps), frame.n), dtype=bool)
    members[:, list(ps)] = np.arange(1 << len(ps))[:, None] >> np.arange(len(ps)) & 1
    return pack_rows(meet_closure(frame.leq[None], members[None])[0])


def row_blocks(count: int, cells: int) -> list[slice]:
    """Slices of range(count) of at most 2**22 cells, at `cells` cells a row."""
    step = max(1, (1 << 22) // max(1, cells))
    return [slice(start, start + step) for start in range(0, count, step)]


def closure_verdict(frame: FiniteFrame, closures) -> SubsetVerdict:
    """The library's verdict on the closures (bitmasks): `sublocale_witness`
    on the first that is no sublocale, or a passing verdict. Every closure
    is tested at once, a block of rows at a time: it must hold the top,
    s ∧ t for members s <= t by index (the pairs the library reads), and
    a -> s for members s."""
    rows, n = unpack_rows(closures, frame.n), frame.n
    upper = np.triu(np.ones((n, n), dtype=bool))

    def broken(block):
        part = rows[block]
        meets = part[:, :, None] & part[:, None, :] & upper & ~part[:, frame.meet]
        return ~part[:, frame.top] | meets.any(axis=(1, 2)) | (
            part[:, None, :] & ~part[:, frame.imp]).any(axis=(1, 2))
    broken = np.concatenate([broken(block) for block in row_blocks(len(rows), n * n)])
    if not broken.any():
        return SubsetVerdict(True)
    return SubsetVerdict(*sublocale_witness(frame, bits(closures[int(broken.argmax())])))


def per_item_sublocales(frame: FiniteFrame):
    """S(L) of one frame by the per-item route: the meet-closures of the sets
    of primes, checked distinct and each a sublocale, in (size, mask) order;
    their containment order, checked against the subset order of the prime
    sets; and the meets as lookups of the intersection of the prime sets,
    checked against the intersection of the members. Returns (masks, prime
    sets, laws report), or raises AssertionError: with the library's text
    where a closure is no sublocale, `closure_verdict`, and with its own
    text otherwise. The (m, m, n) comparisons go a block of rows at a time."""
    closures = prime_closures(frame)
    if len(set(closures)) != len(closures):
        raise AssertionError("two sets of primes have the same meet-closure")
    verdict = closure_verdict(frame, closures)
    if not verdict:
        raise AssertionError(f"meet-closure of primes is not a sublocale: {verdict}")
    order = sorted(range(len(closures)), key=lambda y: (closures[y].bit_count(), closures[y]))
    masks = tuple(closures[y] for y in order)
    ys, rows = np.array(order), unpack_rows(masks, frame.n)
    blocks = row_blocks(len(rows), len(rows) * frame.n)
    subset = (ys[:, None] & ~ys[None, :]) == 0
    if any((containment(rows[block], rows) != subset[block]).any() for block in blocks):
        raise AssertionError("containment of the closures differs from the subset order")
    meet = np.argsort(ys)[ys[:, None] & ys[None, :]]
    if any((rows[meet[block]] != rows[block, None, :] & rows[None, :, :]).any()
           for block in blocks):
        raise AssertionError("meet of prime sets differs from the intersection")
    return masks, tuple(order), CheckReport.passed("coframe-law")


def per_item_identities(frame: FiniteFrame) -> CheckReport:
    """The closed/open identities of one frame by the per-item route: the six
    nullary and binary laws in order, each on every pair at once, the first
    failing law named at its first pair in row-major order."""
    n, labels = frame.n, frame.labels
    up, opens = frame.leq, unpack_rows(image_masks(frame), n)
    a, b = np.divmod(np.arange(n * n), n)
    joins, meets = frame.join[a, b], frame.meet[a, b]
    unions = meet_closure(up[None], np.concatenate([up[a] | up[b], opens[a] | opens[b]])[None])[0]
    for law, got, want in (("c({}) ≠ L", up[:1], True),
                           ("o({}) ≠ O", opens[:1], np.arange(n) == frame.top),
                           ("c({})∩c({}) ≠ c(join)", up[a] & up[b], up[joins]),
                           ("o({})∨o({}) ≠ o(join)", unions[n * n:], opens[joins]),
                           ("c({})∨c({}) ≠ c(meet)", unions[:n * n], up[meets]),
                           ("o({})∩o({}) ≠ o(meet)", opens[a] & opens[b], opens[meets])):
        bad = (got != want).any(axis=1)
        if bad.any():
            k = int(bad.argmax())
            return CheckReport.failed("closed-open-identities",
                                      law.format(labels[a[k]], labels[b[k]]))
    return CheckReport.passed("closed-open-identities")


def per_item_complements(frame: FiniteFrame) -> CheckReport:
    """c(a) and o(a) are complements in S(L) for every a, by the per-item
    route: the open sublocales unpacked from their masks and one meet_closure
    per frame; the first failing element is named."""
    up, opens = frame.leq, unpack_rows(image_masks(frame), frame.n)
    apart = ((up & opens) != (np.arange(frame.n) == frame.top)).any(axis=1)
    bad = apart | ~meet_closure(frame.leq[None], (up | opens)[None])[0].all(axis=1)
    if not bad.any():
        return CheckReport.passed("closed-open-complements")
    a = int(bad.argmax())
    law = "c∩o ≠ O" if apart[a] else "c∨o ≠ L"
    return CheckReport.failed("closed-open-complements", f"{law} at {frame.labels[a]}")


def _raised(decide):
    """decide()'s result, or the exception it raises."""
    try:
        return decide()
    except Exception as exc:  # noqa: BLE001 - the outcome under comparison
        return exc


def per_item_weakly_subfit(frame: FiniteFrame) -> SeparationReport:
    """Every a ≠ 0 has a c ≠ 1 with a ∨ c = 1, by a loop over a."""
    for a in range(1, frame.n):
        if not (frame.join[a, :frame.top] == frame.top).any():
            return SeparationReport("weakly-subfit", False, (a,), (frame.labels[a],))
    return SeparationReport("weakly-subfit", True)


def per_item_symmetric(frame: FiniteFrame, cjf) -> SeparationReport:
    """The three readings of symmetry by loops over bitmasks: the closed-join
    frame `cjf` weakly subfit, and every proper (dense) open o(a) inside a
    proper closed join; disagreement raises EquivalenceViolation."""
    n, labels = frame.n, frame.labels
    inner = per_item_weakly_subfit(cjf.frame)
    cond1 = ConditionVerdict("closed-join-weakly-subfit", inner.holds,
                             inner.witness_labels[0] if inner.witness_labels else None)
    full = (1 << n) - 1
    proper = [m for m in cjf.masks if m != full]
    opens = image_masks(frame)
    uncovered = [a for a in range(n)
                 if opens[a] != full and not any(opens[a] & ~t == 0 for t in proper)]
    w2 = next(iter(uncovered), None)
    w3 = next((a for a in uncovered if opens[a] & 1), None)
    cond2 = ConditionVerdict("proper-opens-covered", w2 is None,
                             None if w2 is None else f"o({labels[w2]})")
    cond3 = ConditionVerdict("dense-proper-opens-covered", w3 is None,
                             None if w3 is None else f"o({labels[w3]})")
    if len({cond1.holds, cond2.holds, cond3.holds}) != 1:
        raise EquivalenceViolation(
            f"symmetry conditions disagree on a frame with {n} elements: "
            f"{[(c.name, c.holds, c.witness) for c in (cond1, cond2, cond3)]}")
    return SeparationReport("symmetric", cond2.holds, None if w2 is None else (w2,),
                            None if w2 is None else (labels[w2],), (cond1, cond2, cond3))


def per_item_separation(frame: FiniteFrame, lattice=None, cjf=None) -> dict:
    """The separation battery of one frame by the per-item route: Python
    loops over elements and bitmasks, read off the frame's tables, its
    closed-join frame's masks and tables, and the supplements of its S(L).
    Each outcome, by SeparationBattery's name for it, is a report or the
    exception its cross-check raises; symmetric and ppt raise what building
    the closed-join frame raises, and ppt first what building S(L) raises."""
    n, top, labels = frame.n, frame.top, frame.labels
    built = _raised(lambda: settled(closed_join_frames([frame])[0])) if cjf is None else cjf

    def closed_joins():
        if isinstance(built, Exception):
            raise built
        return built

    def subfit():
        for a in range(n):
            a_hits = frame.join[a] == top
            for b in range(n):
                if not frame.leq[a, b] and not (a_hits & (frame.join[b] != top)).any():
                    return SeparationReport("subfit", False, (a, b), (labels[a], labels[b]))
        return SeparationReport("subfit", True)

    def symmetric():
        return per_item_symmetric(frame, closed_joins())

    def ppt(sub):
        lat = lattice if lattice is not None else settled(sublocale_lattices([frame])[0])
        cjf = closed_joins()
        sc = cjf.frame
        complemented = ((sc.join == sc.top) & (sc.meet == sc.bottom)).any(axis=1)
        boolean = bool(complemented.all())
        dual = lat.sublocales  # S(L) ≅ 2^P is Boolean: the double supplement fixes all of it
        if sub.holds != boolean:
            witness = None if boolean else cjf.elements[int(np.argmin(complemented))].label()
            raise TheoremViolation(
                f"subfit={sub.holds} but closed-join complementation={boolean}; "
                f"witness={witness}, frame labels={labels}")
        if sub.holds and {s.mask for s in dual} != set(cjf.masks):
            raise TheoremViolation(
                "subfit frame where closed joins differ from the dual Booleanization: "
                f"closed joins {[s.label() for s in cjf.elements]} vs "
                f"fixed points {[s.label() for s in dual]}")
        return CheckReport.passed("ppt")

    def pcformula(weak):
        if not weak.holds:
            return CheckReport.passed("pcformula", "not-applicable")
        join, meet, star = frame.join, frame.meet, frame.star
        for a in range(n):
            covers = [x for x in range(n) if join[x, a] == top]
            bound = reduce(lambda u, v: int(meet[u, v]), covers)
            if bound != int(star[a]):
                raise AssertionError(f"a={labels[a]}: meet of covers is "
                                     f"{labels[bound]}, a*={labels[int(star[a])]}")
        for a in range(n):
            if int(join[a, star[a]]) != top:
                raise AssertionError(f"a ∨ a* ≠ 1 at {labels[a]}")
        for a in range(n):
            if not any(int(meet[a, c]) == 0 and int(join[a, c]) == top for c in range(n)):
                raise AssertionError(f"{labels[a]} has no complement")
        return CheckReport.passed("pcformula")

    sub, weak = subfit(), per_item_weakly_subfit(frame)
    return {"subfit": sub, "weakly_subfit": weak, "symmetric": _raised(symmetric),
            "ppt": _raised(lambda: ppt(sub)), "pcformula": _raised(lambda: pcformula(weak))}


def sublocale_join(family, parent=None) -> Sublocale:
    """Join in S(L): the meet-closure of the union of the members, checked to
    be a sublocale. The empty family joins to O and needs an explicit parent."""
    family = tuple(family)
    if parent is None:
        if not family:
            raise ValueError("empty family needs an explicit parent frame")
        parent = family[0].parent
    if any(s.parent is not parent for s in family):
        raise MixedParents("sublocales must share one parent frame")
    union = unpack_rows((s.mask for s in family), parent.n).any(axis=0)
    joined = pack_rows(meet_closure(parent.leq[None], union[None, None])[0])[0]
    assert sublocale_witness(parent, bits(joined))[0], "join formula produced a non-sublocale"
    return Sublocale(parent, joined)


def closed_join_meet(cjf, s: Sublocale, t: Sublocale) -> Sublocale:
    """Induced meet in the closed-join frame: the join of every element below both."""
    assert s.parent is t.parent is cjf.parent
    i, j = cjf.masks.index(s.mask), cjf.masks.index(t.mask)
    return cjf.elements[int(cjf.frame.meet[i, j])]


def brute_topologies(n):
    """All topologies on n labeled points by scanning subset families."""
    full = (1 << n) - 1
    others = [s for s in range(1 << n) if s not in (0, full)]
    found = []
    for pattern in range(1 << len(others)):
        family = {0, full}
        for k, s in enumerate(others):
            if pattern >> k & 1:
                family.add(s)
        if all(a | b in family and a & b in family for a in family for b in family):
            found.append(tuple(sorted(family)))
    return sorted(set(found))


def format_space(space) -> str:
    """A space file of the space: its header, then one membership string per open."""
    lines = [f"space {space.points}"]
    lines += [bitstring(o, space.points) for o in space.opens]
    return "\n".join(lines) + "\n"


def saturated_sets(space):
    """The saturated sets of a space, the intersections of opens (the whole
    space for the empty one), by closing the opens under pairwise ∩."""
    saturated = {space.full}
    frontier = set(space.opens)
    while frontier:
        saturated |= frontier
        frontier = {a & b for a in saturated for b in space.opens} - saturated
    return saturated


# ---------------------------------------------------------------------------
# Point-level oracles for interval sets



def is_symmetric_space(space):
    """(symmetric, witness) of the specialization preorder: the first pair
    (x, y) from np.argwhere with x <= y but not y <= x, or None."""
    rel = space.specialization
    bad = np.argwhere(rel & ~rel.T)
    return (True, None) if not len(bad) else (False, tuple(int(v) for v in bad[0]))


def is_t0(space) -> bool:
    """No two points are below each other: specialization is antisymmetric."""
    rel = space.specialization
    return not (rel & rel.T & ~np.eye(space.points, dtype=bool)).any()


def closed_sets(space) -> list[int]:
    """The complements of the opens, in (size, mask) order."""
    return sorted((space.full ^ o for o in space.opens), key=lambda m: (m.bit_count(), m))


def closure_of(space, mask: int) -> int:
    """The least closed set containing mask: the intersection of those that do."""
    return reduce(lambda acc, c: acc & c,
                  (c for c in closed_sets(space) if mask & ~c == 0), space.full)


def first_uncomplemented(space):
    """The first closed set, in (size, mask) order, whose complement is not closed, or None."""
    closed = closed_sets(space)
    return next((a for a in closed if space.full ^ a not in closed), None)


def per_space_proposition(space, budget=None) -> SpacePropositionReport:
    """The space-proposition report by the per-space route: the specialization's
    own symmetry, complements looked up among the closed sets, which must be
    the complements of the saturated sets, weak subfitness by a loop over
    `generic_set_frame`, covering by loops over the masks, and density through
    `closure_of`. Disagreeing conditions raise EquivalenceViolation."""
    sym, pair = is_symmetric_space(space)
    c1 = ConditionVerdict("specialization-symmetric", sym, None if sym else f"pair {pair}")
    within_budget("space", space.points, budget)
    closed = closed_sets(space)
    if saturated_sets(space) != {space.full ^ c for c in closed}:
        raise AssertionError("complementation fails to reach the saturated sets")
    lonely = first_uncomplemented(space)
    c2 = ConditionVerdict("unions-of-closed-boolean", lonely is None,
                          None if lonely is None else bitstring(lonely, space.points))
    frame = generic_set_frame(closed, [bitstring(m, space.points) for m in closed])
    weak = per_item_weakly_subfit(frame)
    c3 = ConditionVerdict("unions-of-closed-weakly-subfit", weak.holds,
                          weak.witness_labels[0] if weak.witness_labels else None)
    proper = [e for e in closed if e != space.full]

    def covered(o: int) -> bool:
        return any(o & ~t == 0 for t in proper)

    w4 = next((o for o in space.opens if o != space.full and not covered(o)), None)
    c4 = ConditionVerdict("proper-opens-covered", w4 is None,
                          None if w4 is None else bitstring(w4, space.points))
    w5 = next((o for o in space.opens
               if o != space.full and closure_of(space, o) == space.full
               and not covered(o)), None)
    c5 = ConditionVerdict("dense-proper-opens-covered", w5 is None,
                          None if w5 is None else bitstring(w5, space.points))
    conditions = (c1, c2, c3, c4, c5)
    if len({c.holds for c in conditions}) != 1:
        raise EquivalenceViolation(
            f"space conditions disagree on {space!r}: "
            f"{[(c.name, c.holds, c.witness) for c in conditions]}")
    return SpacePropositionReport(c1.holds, conditions)


def per_space_td_remark(space) -> CheckReport:
    """The td-remark report by the per-space route: a T_0 space's own symmetry
    against that of Ω(X), built by `generic_set_frame` and read by
    `per_item_symmetric`; disagreement raises TheoremViolation."""
    if not is_t0(space):
        return CheckReport.passed("td-remark", "skipped-not-t0")
    sym, _ = is_symmetric_space(space)
    opens = sorted(space.opens, key=lambda m: (m.bit_count(), m))
    frame = generic_set_frame(opens, [bitstring(o, space.points) for o in opens])
    loc = per_item_symmetric(frame, settled(closed_join_frames([frame])[0]))
    if sym != loc.holds:
        raise TheoremViolation(
            f"space symmetry {sym} but locale symmetry {loc.holds} on {space!r}")
    return CheckReport.passed("td-remark")

def open_member(a: rl.RationalOpen, x: Fraction) -> bool:
    return rl.contains_point(a, x)


def closed_member(c: rl.RationalClosed, x: Fraction) -> bool:
    return any(lo <= x <= hi for lo, hi in c.components)


def finite_endpoints(*sets) -> list[Fraction]:
    points = set()
    for s in sets:
        for lo, hi in s.components:
            for end in (lo, hi):
                if isinstance(end, Fraction):
                    points.add(end)
    return sorted(points)


def probe_points(*sets) -> list[Fraction]:
    """Endpoints, midpoints of consecutive endpoints, and outer points.

    Membership of a finite interval union is constant between consecutive
    endpoints, so agreement on these probes proves set equality.
    """
    ends = finite_endpoints(*sets)
    if not ends:
        return [Fraction(0)]
    probes = set(ends)
    probes.add(ends[0] - 1)
    probes.add(ends[-1] + 1)
    for a, b in zip(ends, ends[1:]):
        probes.add((a + b) / 2)
    return sorted(probes)


def generic_is_subset(a: rl.RationalOpen, b: rl.RationalOpen) -> bool:
    """a ⊆ b the way `is_subset` once decided it: a ∩ b, built whole, equals a."""
    return rl.intersect(a, b) == a


def _gap(x: Fraction, ends: list[Fraction]) -> Fraction:
    distances = [abs(e - x) for e in ends if e != x]
    return min(distances) / 2 if distances else Fraction(1)


def oracle_interior_member(c: rl.RationalClosed, x: Fraction) -> bool:
    """x is interior to the closed set iff a whole neighborhood sits inside."""
    if not closed_member(c, x):
        return False
    d = _gap(x, finite_endpoints(c))
    return closed_member(c, x - d) and closed_member(c, x + d)


def oracle_closure_member(a: rl.RationalOpen, x: Fraction) -> bool:
    """x is in the closure iff it, or points arbitrarily close, lie in the set."""
    if open_member(a, x):
        return True
    d = _gap(x, finite_endpoints(a))
    return open_member(a, x - d) or open_member(a, x + d)


def oracle_pseudocomplement_member(a: rl.RationalOpen, x: Fraction) -> bool:
    """x is in a* iff a whole neighborhood of x misses a."""
    if open_member(a, x):
        return False
    d = _gap(x, finite_endpoints(a))
    return not (open_member(a, x - d) or open_member(a, x + d))


# ---------------------------------------------------------------------------
# The plain-Fraction route of the interval-set primitives: every comparison
# goes through Fraction's own, none through realline.Rat's integer one.


def _plain(end):
    """A finite endpoint as a plain Fraction; an infinite one as is."""
    return end if isinstance(end, float) else Fraction(end)


def _plain_components(a: rl.RationalOpen) -> list[tuple]:
    return [(_plain(lo), _plain(hi)) for lo, hi in a.components]


def _sorted_merge(intervals, touch) -> tuple:
    """Sort the intervals, then fuse each into the last one kept where
    touch(lo, last_hi) holds: operator.lt for open intervals, operator.le for
    closed ones, which join where they touch."""
    merged: list[tuple] = []
    for lo, hi in sorted((_plain(lo), _plain(hi)) for lo, hi in intervals):
        if merged and touch(lo, merged[-1][1]):
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


def fraction_normalize(intervals) -> tuple:
    """The components of normalize(intervals): sort, then merge overlaps."""
    return _sorted_merge(intervals, operator.lt)


def fraction_closure(intervals) -> tuple:
    """The components of the union of the closed intervals [lo, hi], lo <= hi,
    in any order: sort, then fuse those that touch. On the components of an
    open set, the components of its closure."""
    return _sorted_merge(intervals, operator.le)


def fraction_union(a: rl.RationalOpen, b: rl.RationalOpen) -> tuple:
    """The components of a ∪ b, from both component lists re-sorted."""
    return fraction_normalize(a.components + b.components)


def fraction_union_closed(c: rl.RationalClosed, d: rl.RationalClosed) -> tuple:
    """The components of c ∪ d, from both component lists re-sorted."""
    return fraction_closure(c.components + d.components)


def fraction_intersect(a: rl.RationalOpen, b: rl.RationalOpen) -> tuple:
    """The components of a ∩ b: every nonempty meet of a component of a with
    one of b, which are pairwise disjoint as the components are."""
    return tuple(sorted((max(alo, blo), min(ahi, bhi))
                        for alo, ahi in _plain_components(a)
                        for blo, bhi in _plain_components(b)
                        if max(alo, blo) < min(ahi, bhi)))


def fraction_is_subset(a: rl.RationalOpen, b: rl.RationalOpen) -> bool:
    """a ⊆ b: every component of a lies inside one component of b."""
    return all(any(blo <= lo and hi <= bhi for blo, bhi in _plain_components(b))
               for lo, hi in _plain_components(a))


_MARKERS = {"pass": "ok", "fail": "FAIL", "violation": "VIOLATION"}


def record_line(item: str, check: CheckReport, machine: bool) -> str:
    """One check's record field by field, with no newline: each field's
    whitespace runs joined by "_" (an empty field as "-") under --machine,
    else one human line."""
    if not machine:
        return f"{item}: {check.name} {_MARKERS[check.level]}" + (
            f" [{check.witness}]" if check.witness else "")
    fields = {"item": item, "check": check.name, "verdict": check.level}
    if check.witness:
        fields["witness"] = check.witness
    return " ".join(f"{k}={'_'.join(str(v).split()) or '-'}" for k, v in fields.items())
