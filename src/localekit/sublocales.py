"""Sublocales of a finite frame.

A sublocale is a subset of the carrier containing the top, closed under
meets, and closed under a -> (-) for every a, identified by its element
bitmask. Every sublocale of a finite frame is spatial, so S(L) is exactly
the meet-closures M(Y) of the sets Y of primes (meet-irreducibles) of L,
with M(Y) ∩ M(Z) = M(Y ∩ Z) and M(Y) ∨ M(Z) = M(Y ∪ Z), so the prime sets
carry its algebra. `meet_closure` is the one closed form of M(A ∪ {1}): x
is in it iff, for every upper cover y of x, A meets ↑x ∖ ↑y. Closed
sublocales join by c(a) ∨ c(b) = c(a ∧ b), so their joins are the up-sets:
L turned upside down.

Everything works on stacks, and a frame that fails in a batch gets the
outcome it gets alone; a single input is a batch of one, which the commands
read through `checks.frame_structures` as a campaign reads a batch of
canonical orders. An outcome depends only on its frame's tables: a witness
is kept as element indices and named in a frame's labels by
`common.named`, and S(L) and the closed-join frame are read on another
frame with the same tables by their `on`.
`sublocale_lattices` works one stack per (carrier size, number of primes),
`closed_join_frames` and `closed_open_outcomes` one per carrier size. The
sublocale budget counts primes, since |S(L)| = 2^|primes|. S(L) is decided
by its prime decomposition: by Birkhoff's representation, M(Y) = {x : E(x)
⊆ Y} for E(x) the minimal primes above x, and each closure must agree with
it. Then every M(Y) is a sublocale iff the tables keep the prime sets,
E(s ∧ t) ⊆ E(s) ∪ E(t) and E(a → s) ⊆ E(s), one n² test per frame in
place of one per closure: a prime is meet-prime in a distributive lattice,
and a → ∧T = ∧(a → t) with a → p ∈ {p, 1} for a prime p. The closed/open
identities are decided by their nullary and binary cases. Each failure is
named in the witness order of `common.first_failures`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, partial
from typing import Iterable, Optional

import numpy as np

from .common import (BudgetExceeded, CheckReport, bits, first_failures, grouped, named,
                     pack_rows, within_budget)
from .lattice import (FiniteFrame, by_size, containment_order, cover_relation,
                      distributivity_witness, gather, heyting_tables)


@dataclass(frozen=True, slots=True)
class Sublocale:
    """An element of S(L): the parent frame plus a member bitmask."""

    parent: FiniteFrame
    mask: int

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(bits(self.mask))

    def label(self) -> str:
        frame = self.parent
        if self.mask == (1 << frame.n) - 1:
            return "L"
        if self.mask == 1 << frame.top:
            return "O"
        return "{" + ",".join(frame.labels[i] for i in self.members) + "}"

    def __repr__(self):
        return f"Sublocale({self.label()})"


@dataclass(frozen=True)
class SubsetVerdict:
    """The sublocale test's outcome: ok, or the violated condition plus a witness."""

    ok: bool
    condition: Optional[str] = None
    witness: Optional[tuple[int, ...]] = None

    def __bool__(self) -> bool:
        return self.ok


def _table_verdicts(meet, imp, minimal) -> dict[int, SubsetVerdict]:
    """The sublocale test of every M(Y) = {x : E(x) ⊆ Y} over the (F, n, n)
    meet and Heyting tables, with minimal[f, x] the k-bit mask of E(x):
    {f: verdict} for each frame with a failing row Y. Row Y fails where
    meet[s, t] for s <= t (by index), or imp[a, s], leaves Y while E(s) ∪
    E(t), or E(s), lies in Y, so the first is the least E(s) ∪ E(t), or
    E(s), that such an entry leaves. It is named by its first failing law
    and witness: (s, t) in row-major order, or (a, s) by ascending s, then a.
    """
    count, n = minimal.shape
    f, upper = np.arange(count)[:, None, None], np.triu(np.ones((n, n), dtype=bool))
    pairs, single = minimal[:, :, None] | minimal[:, None, :], minimal[:, None, :]
    every = np.iinfo(np.int64).max  # the row of every prime, which no entry leaves
    # per entry, the least row where it fails: E(s) ∪ E(t) at [f, s, t], E(s) at [f, a, s]
    meet_rows = np.where(upper & (minimal[f, meet] & ~pairs != 0), pairs, every)
    imp_rows = np.where(minimal[f, imp] & ~single != 0, single, every)
    outside = ~np.minimum(meet_rows.min(axis=(1, 2)), imp_rows.min(axis=(1, 2)))[:, None, None]
    meets = upper & (pairs & outside == 0) & (minimal[f, meet] & outside != 0)
    heyting = ((single & outside == 0) & (minimal[f, imp] & outside != 0)).transpose(0, 2, 1)
    return {g: SubsetVerdict(False, ("meet", "heyting")[law], (at, at[::-1])[law])
            for g, (law, at) in first_failures([meets, heyting]).items()}  # heyting at [f, s, a]


def open_rows(imp):
    """o(a), the image of a -> (-), for every a of an (F, n, n) Heyting stack, as member rows."""
    count, n = imp.shape[:2]
    opens = np.zeros(imp.shape, dtype=bool)
    opens[np.arange(count)[:, None, None], np.arange(n)[:, None], imp] = True
    return opens


def size_mask_order(rows):
    """The (size, mask) order of (F, m, n) member rows as (F, m) indices: by
    size, then by the members from the top index down."""
    return np.lexsort(np.concatenate([rows.transpose(2, 0, 1), rows.sum(axis=2)[None]]))


def meet_closure(leqs, rows):
    """M(A ∪ {1}) for every row A of an (F, R, n) member stack over the
    (F, n, n) orders, as (F, R, n) bools: x is in it iff the meet of the
    members above x is x, which fails exactly when A misses ↑x ∖ ↑y for an
    upper cover y of x. Two batched boolean products over one slot per
    cover of each frame, padded to the most covers in the stack.
    """
    count, n = leqs.shape[:2]
    f, xs, ys = np.nonzero(cover_relation(leqs))                   # ys[c] covers xs[c]
    slot = np.arange(len(f)) - np.searchsorted(f, f)               # c's place in its frame
    gaps = np.zeros((count, int(slot.max(initial=-1)) + 1, n), dtype=bool)
    below = np.zeros_like(gaps)                                    # empty in padding slots
    gaps[f, slot] = leqs[f, xs] & ~leqs[f, ys]
    below[f, slot, xs] = True
    return ~(~(rows @ gaps.transpose(0, 2, 1)) @ below)           # no cover's gap missed


class SublocaleLattice:
    """All sublocales of a frame, ordered by inclusion (a coframe).

    Element order is by (size, mask), so index 0 is O and the last index is
    the whole frame. rows[i] holds the members of sublocale i as a boolean
    row, and ys[i] is the set Y of primes with rows[i] = M(Y), as a bitmask
    over the parent's primes in index order. Y ↦ M(Y) is an order isomorphism
    (see `laws`), so meets and joins of S(L) are Y ∩ Z and Y ∪ Z, and its
    covers add one prime. Its masks, prime_sets and sublocales are built
    from these when first read.
    """

    def __init__(self, parent: FiniteFrame, ys: np.ndarray, rows: np.ndarray):
        self.parent, self.ys, self.rows = parent, ys, rows

    def __len__(self):
        return len(self.ys)

    def on(self, parent: FiniteFrame) -> "SublocaleLattice":
        """The same S(L) on a frame with the same tables: its sublocales in that frame's labels."""
        return SublocaleLattice(parent, self.ys, self.rows)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        return pack_rows(self.rows)

    @cached_property
    def prime_sets(self) -> tuple[int, ...]:
        return tuple(self.ys.tolist())

    @cached_property
    def sublocales(self) -> tuple[Sublocale, ...]:
        return tuple(Sublocale(self.parent, m) for m in self.masks)

    # The coframe law and join-is-lub, which hold once the stack is built:
    # each M(Y) is then a sublocale equal to {x : E(x) ⊆ Y}, and E(p) = {p}
    # for each prime p. So Y ↦ M(Y) is injective, monotone, order-reflecting
    # and ∩-preserving: an order isomorphism from 2^P onto S(L), which
    # carries joins to least upper bounds and 2^P's coframe law to S(L).
    laws = CheckReport.passed("coframe-law")


def sublocale_lattices(frames: Iterable[FiniteFrame], budget: Optional[int] = None
                       ) -> list[SublocaleLattice | AssertionError | BudgetExceeded]:
    """S(L) of every frame, in order: one meet_closure call per (carrier
    size, number of primes) stack builds the closures M(Y) of all sets Y of
    primes. They must agree with the prime decomposition {x : E(x) ⊆ Y},
    and then the tables must keep the prime sets (the sublocale test); the
    first failing closure is named. The budget bounds the number of primes.
    """
    frames = list(frames)
    built: list = [None] * len(frames)
    for ks, tables in by_size(frames, ("leq", "meet", "imp")):
        prime = cover_relation(tables[0]).sum(axis=2) == 1  # exactly one upper cover
        for k, part in grouped(prime.sum(axis=1).tolist()).items():
            group = [frames[ks[g]] for g in part]
            outcomes = _sublocale_stack(group, *(t[part] for t in tables), prime[part], k, budget)
            for g, outcome in zip(part, outcomes):
                built[ks[g]] = outcome
    return built


def _sublocale_stack(frames, leq, meet, imp, prime, k, budget) -> list:
    """sublocale_lattices on frames of one carrier size with k primes each.

    Each closure M(Y) must equal {x : E(x) ⊆ Y}; the first (Y, x) where one
    differs is named. Then M(Y) holds the top and is a sublocale for every
    Y iff no table entry leaves its prime sets, E(s ∧ t) ⊆ E(s) ∪ E(t) and
    E(a → s) ⊆ E(s) (`_table_verdicts`). Both hold in a frame: a prime is
    meet-prime in a distributive lattice, so a prime minimal above s ∧ t is
    minimal above s or t; and s = ∧E(s), so a → s = ∧(a → p) over p in
    E(s), with a → p ∈ {p, 1} as (a → p) ∧ a <= p. A failure is a table at
    fault, named as a test of every closure names it.
    """
    count, n = prime.shape
    try:
        within_budget("primes", k, budget)
    except BudgetExceeded as exc:
        return [exc] * count
    m, f = 1 << k, np.arange(count)[:, None]
    at = np.nonzero(prime)[1].reshape(count, k)                        # at[f, j]: the j-th prime
    chosen = (np.arange(m)[:, None] >> np.arange(k) & 1).astype(bool)  # [y, j]: j in Y
    members = np.zeros((count, m, n), dtype=bool)
    members[f[:, :, None], np.arange(m)[:, None], at[:, None, :]] = chosen
    closures = meet_closure(leq, members)  # closures[f, y]: M(Y), bit j of y for the j-th prime
    apart = first_failures([closures != _decomposition(leq, at, chosen)])
    # E(x) as a k-bit mask, which holds since the (F, 2^k, n) closures fit: k < 63
    verdicts = _table_verdicts(meet, imp, _minimal_primes(leq, at) @ (1 << np.arange(k)))
    # the prime sets in (size, mask) order of their closures, in the least dtype that holds m
    ys = size_mask_order(closures).astype(np.min_scalar_type(m - 1))
    rows = closures[f, ys]
    rows.flags.writeable = False
    outcomes: list = []
    for g, frame in enumerate(frames):
        if g in apart:
            y, x = apart[g][1]
            mask = pack_rows(closures[g, y:y + 1])[0]
            outcomes.append(named(partial(_decomposition_breach, mask, x), frame))
        elif g in verdicts:
            outcomes.append(AssertionError(
                f"meet-closure of primes is not a sublocale: {verdicts[g]}"))
        else:
            outcomes.append(SublocaleLattice(frame, ys[g], rows[g]))
    return outcomes


def _decomposition_breach(mask: int, x: int, frame: FiniteFrame) -> AssertionError:
    return AssertionError(f"meet-closure of primes differs from its prime decomposition at "
                          f"({Sublocale(frame, mask).label()}, {frame.labels[x]})")


def _decomposition(leq, at, chosen):
    """{x : E(x) ⊆ Y} for every row Y of the (m, k) prime-set bits, over the
    (F, n, n) orders whose j-th prime is at[f, j], as (F, m, n) bools."""
    return ~(~chosen @ _minimal_primes(leq, at).transpose(0, 2, 1))  # no prime of E(x) outside Y


def _minimal_primes(leq, at):
    """E(x), the minimal primes above x, as (F, n, k) bools [f, x, j] over
    the (F, n, n) orders whose j-th prime is at[f, j]: the primes p >= x
    with no prime q such that x <= q < p, one (F, n, k) @ (F, k, k) product."""
    f = np.arange(len(at))[:, None]
    above = np.take_along_axis(leq, at[:, None, :], axis=2)  # [f, x, j]: x <= p_j
    under = above[f, at] & ~np.eye(at.shape[1], dtype=bool)  # [f, i, j]: p_i < p_j
    return above & ~(above @ under)


class ClosedJoinFrame:
    """Joins of closed sublocales with their induced frame structure.

    Since c(a) ∨ c(b) = c(a ∧ b), the joins of closed sublocales are the
    closed sublocales themselves: element i is the up-set of generators[i],
    and the frame is L turned upside down. `frame` is that frame, built by
    `closed_join_frames`: element i is masks[i], labeled c(a) in the
    parent's labels, joins are c(a ∧ b) and meets c(a ∨ b). `law` reads its
    frame law off the stack it was built in.
    """

    _LAW_HOLDS = CheckReport.passed("closed-join-frame-law")  # one pass, shared by all

    def __init__(self, parent: FiniteFrame, generators: tuple[int, ...], frame: FiniteFrame, law):
        self.parent, self.generators, self._frame, self._law = parent, generators, frame, law

    def __len__(self):
        return len(self.generators)

    def on(self, parent: FiniteFrame) -> "ClosedJoinFrame":
        """The same closed-join frame on a parent with the same tables, in its labels."""
        return ClosedJoinFrame(parent, self.generators, self._frame, self._law)

    @cached_property
    def frame(self) -> FiniteFrame:
        built = self._frame
        labels = tuple(f"c({self.parent.labels[a]})" for a in self.generators)
        return built if labels == built.labels else FiniteFrame(
            built.leq, built.meet, built.join, built.imp, labels, built.stack)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        return tuple(self.parent.up_masks[a] for a in self.generators)

    @cached_property
    def elements(self) -> tuple[Sublocale, ...]:
        return tuple(Sublocale(self.parent, m) for m in self.masks)

    def frame_law_report(self) -> CheckReport:
        """Meet distributes over binary joins on every triple, and so must join
        over meet: a finite lattice is distributive iff dually distributive,
        so differing verdicts raise AssertionError."""
        down, up = self._law()
        if (down < 0) != (up < 0):
            raise AssertionError(f"distributive={down < 0} but dually distributive={up < 0}")
        if down < 0:
            return self._LAW_HOLDS
        names = [self.elements[int(k)].label()
                 for k in np.unravel_index(down, (len(self),) * 3)]
        return CheckReport.failed("closed-join-frame-law", f"triple {names}")


def _distributivity(meet, join) -> list[tuple[int, int]]:
    """Per frame of an (F, n, n) stack: the first triple, flat and row-major,
    where meet fails to distribute over join, then join over meet, or -1."""
    return list(zip(distributivity_witness(meet, join).tolist(),
                    distributivity_witness(join, meet).tolist()))


def closed_join_frames(parents: Iterable[FiniteFrame]) -> list[ClosedJoinFrame | AssertionError]:
    """The joins of closed sublocales (the up-sets, in (size, mask) order) of
    every parent, built from its tables, one stack per carrier size.

    The containment order must be the parent order reversed, each join
    c(a ∧ b) must contain both arguments and each meet c(a ∨ b) lie inside
    both, and `heyting_tables` proves the Heyting table. A parent that fails
    gets the AssertionError it raises alone. A stack's frame law is decided
    when the first of its frames asks.
    """
    parents = list(parents)
    built: list = [None] * len(parents)
    for ks, (leqs, meets, joins) in by_size(parents, ("leq", "meet", "join")):
        n, gens = leqs.shape[1], size_mask_order(leqs)
        idx, rows, cols = np.arange(n), gens[:, :, None], gens[:, None, :]
        position = np.argsort(gens, axis=1)            # position[f, gens[f, i]] = i
        leq = gather(leqs, cols, rows)                 # c(a) ⊆ c(b) iff b <= a
        join = gather(position, gather(meets, rows, cols))  # c(a) ∨ c(b) = c(a ∧ b)
        meet = gather(position, gather(joins, rows, cols))  # c(a) ∧ c(b) = c(a ∨ b)
        imp, broken = heyting_tables(leq, meet)
        failures = first_failures([containment_order(gather(leqs, gens)) != leq,
                                   ~(gather(leq, idx[:, None], join) & gather(leq, idx, join)),
                                   ~(gather(leq, meet, idx[:, None]) & gather(leq, meet, idx)),
                                   broken >= 0])
        for table in (leq, meet, join, imp):
            table.flags.writeable = False
        laws = cache(lambda meet=meet, join=join: _distributivity(meet, join))
        tables = {"leq": leq, "meet": meet, "join": join, "imp": imp}
        for g, k in enumerate(ks):
            gens_g = tuple(gens[g].tolist())
            if g in failures:
                law, at = failures[g]
                at = at if law < 3 else tuple(np.unravel_index(broken[g], (n, n, n)))
                built[k] = named(partial(_closed_join_breach, law, [gens_g[v] for v in at]),
                                 parents[k])
                continue
            labels = tuple(f"c({parents[k].labels[a]})" for a in gens_g)
            frame = FiniteFrame(leq[g], meet[g], join[g], imp[g], labels, (tables, g))
            built[k] = ClosedJoinFrame(parents[k], gens_g, frame, lambda g=g, laws=laws: laws()[g])
    return built


def _closed_join_breach(law: int, at: list[int], parent: FiniteFrame) -> AssertionError:
    """The first law a closed-join frame breaks, at the closed sublocales c(a), a in at."""
    law = ("order is not the parent's reversed", "join is not above both",
           "meet is not below both", "Heyting adjunction breaks")[law]
    where = ", ".join(f"c({parent.labels[a]})" for a in at)
    return AssertionError(f"closed-join {law} at ({where})")


def closed_open_outcomes(frames: Iterable[FiniteFrame]) -> list[tuple[CheckReport, CheckReport]]:
    """The (identities, complements) reports of every frame, in order, the
    joins in S(L) one meet_closure per carrier size. The identities by their
    nullary and binary cases (the family laws follow by induction): c(0) = L,
    o(0) = O and, on every pair, c(a) ∩ c(b) = c(a ∨ b), o(a) ∨ o(b) =
    o(a ∨ b), c(a) ∨ c(b) = c(a ∧ b), o(a) ∩ o(b) = o(a ∧ b), the first
    failure named at its first pair, row-major. The complements: c(a) ∩ o(a)
    = O and c(a) ∨ o(a) = L, the first failure named at its first a."""
    frames = list(frames)
    identities = [CheckReport.passed("closed-open-identities")] * len(frames)
    complements = [CheckReport.passed("closed-open-complements")] * len(frames)
    for ks, (up, meet, join, imp) in by_size(frames):
        n, f, opens = up.shape[1], np.arange(len(ks))[:, None], open_rows(imp)
        a, b = np.divmod(np.arange(n * n), n)  # every pair; a nullary law reads its row as (0, 0)
        joins, meets, pairs = join[:, a, b], meet[:, a, b], slice(n * n, 2 * n * n)
        unions = meet_closure(up, np.concatenate([up[:, a] | up[:, b], opens[:, a] | opens[:, b],
                                                  up | opens], axis=1))
        bad = [(got != want).any(axis=2) for got, want in (
            (up[:, :1], True), (opens[:, :1], np.arange(n) == n - 1),
            (up[:, a] & up[:, b], up[f, joins]), (unions[:, pairs], opens[f, joins]),
            (unions[:, :n * n], up[f, meets]), (opens[:, a] & opens[:, b], opens[f, meets]))]
        for g, (law, (pair,)) in first_failures(bad).items():
            identities[ks[g]] = named(partial(CheckReport.failed_at, "closed-open-identities",
                                              _IDENTITIES[law], (a[pair], b[pair])),
                                      frames[ks[g]])
        apart = ((up & opens) != (np.arange(n) == n - 1)).any(axis=2)
        unequal = np.stack([apart, ~unions[:, 2 * n * n:].all(axis=2)], axis=2)  # a, then law
        for g, (_, (at, law)) in first_failures([unequal]).items():
            complements[ks[g]] = named(partial(CheckReport.failed_at, "closed-open-complements",
                                               ("c∩o ≠ O at {}", "c∨o ≠ L at {}")[law], (at,)),
                                       frames[ks[g]])
    return list(zip(identities, complements))


_IDENTITIES = ("c({}) ≠ L", "o({}) ≠ O", "c({})∩c({}) ≠ c(join)", "o({})∨o({}) ≠ o(join)",
               "c({})∨c({}) ≠ c(meet)", "o({})∩o({}) ≠ o(meet)")
