"""Sublocales of a finite frame.

A sublocale is a subset of the carrier containing the top, closed under
meets, and closed under a -> (-) for every a. A sublocale is identified by
its element bitmask over the parent frame; S(L) also keeps its members as
boolean rows, on which its order and the meet cross-check are computed at
any carrier size. Every sublocale of a finite frame
is spatial, so S(L) is exactly the family of meet-closures M(Y) of the sets
Y of primes (meet-irreducibles) of L: M(Y) ∩ M(Z) = M(Y ∩ Z) and
M(Y) ∨ M(Z) = M(Y ∪ Z). A join in S(L) is the meet-closure M(A ∪ {1}) of
the union A, and `meet_closure` is its one closed form: x ∈ M(A ∪ {1}) iff,
for every upper cover y of x, A meets ↑x ∖ ↑y. Closed sublocales are
up-sets and join by c(a) ∨ c(b) = c(a ∧ b), so their joins are the up-sets
themselves: L turned upside down. `closed_join_frames` reads that frame
off the parents' tables, one stack per carrier size, so a campaign
builds them a corpus chunk at a time. The one sublocale budget counts
primes, since |S(L)| = 2^|primes|; it bounds the enumeration and the
(|S(L)|, |S(L)|) tables alike. The sublocale test of every closure runs
in slices of at most STACK_CELLS cells. The laws of S(L), the coframe law
and join-is-lub, are decided by comparing two orders: the containment of
the closures and the subset order of their prime sets. Equal orders make
S(L) isomorphic to a Boolean algebra, which is a coframe, so no law is
checked triple by triple. The closed/open identities are decided by their
nullary and binary cases on every pair, at every carrier size; the
families follow by induction.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable, Optional

import numpy as np

from .common import (CheckReport, bits, pack_rows, settled, slice_len, unpack_rows,
                     within_budget)
from .lattice import (FiniteFrame, containment_order, cover_pairs, distributivity_witness,
                      heyting_tables)


class MixedParents(ValueError):
    """Operands live over different parent frames."""


@dataclass(frozen=True)
class Sublocale:
    """An element of S(L): the parent frame plus a member bitmask."""

    parent: FiniteFrame
    mask: int

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(bits(self.mask))

    @property
    def is_dense(self) -> bool:
        # Meet-closed and finite, so dense (closure is everything) iff the
        # bottom element is a member.
        return bool(self.mask & 1)

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
    """is_sublocale outcome: ok, or the violated condition plus a witness."""

    ok: bool
    condition: Optional[str] = None
    witness: Optional[tuple[int, ...]] = None

    def __bool__(self) -> bool:
        return self.ok


def mask_of(members: Iterable[int]) -> int:
    return reduce(lambda acc, i: acc | (1 << i), members, 0)


def is_sublocale(frame: FiniteFrame, members: Iterable[int]) -> SubsetVerdict:
    """Check the three closure conditions, reporting the first failure."""
    return _sublocale_rows(frame, unpack_rows([mask_of(members)], frame.n))


def _sublocale_rows(frame: FiniteFrame, rows) -> SubsetVerdict:
    """The sublocale test on every row of an (R, n) member array: the
    verdict on the first failing row, or a passing verdict.

    Checked a slice of at most STACK_CELLS cells at a time: the top is a
    member, meet[s, t] is a member for members s <= t (by index), and
    imp[a, s] is a member for every a and every member s. The verdict names
    the first of these that fails, with its first witness: (s, t) in
    row-major order, or (a, s) by ascending s, then a.
    """
    n = frame.n
    upper = np.triu(np.ones((n, n), dtype=bool))
    step = slice_len(n * n)
    for start in range(0, len(rows), step):
        members = rows[start:start + step]
        meets = members[:, :, None] & members[:, None, :] & upper & ~members[:, frame.meet]
        heyting = members[:, :, None] & ~members[:, frame.imp.T]  # [r, s, a]: imp[a, s] missing
        bad = ~members[:, frame.top] | meets.any(axis=(1, 2)) | heyting.any(axis=(1, 2))
        if bad.any():
            r = int(bad.argmax())
            if not members[r, frame.top]:
                return SubsetVerdict(False, "missing-top", (frame.top,))
            if meets[r].any():
                return SubsetVerdict(False, "meet", divmod(int(meets[r].argmax()), n))
            s, a = divmod(int(heyting[r].argmax()), n)
            return SubsetVerdict(False, "heyting", (a, s))
    return SubsetVerdict(True)


def closed_sublocale(frame: FiniteFrame, a: int) -> Sublocale:
    """c(a): the up-set of a."""
    return Sublocale(frame, frame.up_masks[a])


def open_sublocale(frame: FiniteFrame, a: int) -> Sublocale:
    """o(a): the image of a -> (-)."""
    return Sublocale(frame, frame.imp_image_masks[a])


def meet_closure(frame: FiniteFrame, rows):
    """M(A ∪ {1}) for every row A of an (F, n) member array, as (F, n) bools.

    x is the meet of A ∪ {1} above it iff, for every upper cover y of x, A
    meets ↑x ∖ ↑y: that meet is at least x, and it is above x exactly when
    it lies above some cover of x. The test is two boolean matrix products.
    """
    leq = frame.leq
    xs, ys = cover_pairs(leq)                                          # y covers x
    missed = ~(np.asarray(rows, dtype=bool) @ (leq[xs] & ~leq[ys]).T)  # A misses ↑x ∖ ↑y
    return ~(missed @ (xs[:, None] == np.arange(frame.n)))


def sublocale_join(family: Iterable[Sublocale],
                   parent: Optional[FiniteFrame] = None) -> Sublocale:
    """Join in S(L): all meets of subsets of the union of the members.

    The empty subset contributes the top, so the empty join is O. An empty
    family needs an explicit parent.
    """
    family = tuple(family)
    if parent is None:
        if not family:
            raise ValueError("empty family needs an explicit parent frame")
        parent = family[0].parent
    for s in family:
        if s.parent is not parent:
            raise MixedParents("sublocales must share one parent frame")
    union = unpack_rows((s.mask for s in family), parent.n).any(axis=0, keepdims=True)
    closed = meet_closure(parent, union)
    verdict = _sublocale_rows(parent, closed)
    if not verdict:
        raise AssertionError(f"join formula produced a non-sublocale: {verdict}")
    return Sublocale(parent, pack_rows(closed)[0])


class SublocaleLattice:
    """All sublocales of a frame, ordered by inclusion (a coframe).

    Element order is by (size, mask), so index 0 is O and the last index is
    the whole frame. rows[i] holds the members of masks[i] as a boolean row
    over the carrier, and prime_sets[i] is the set Y of primes with masks[i]
    = M(Y), as a bitmask over the positions in primes(parent). Join/meet/
    supplement tables and the `laws` report are built lazily and cached; the
    sublocale budget of all_sublocales bounds them too. `laws` decides the
    coframe law and join-is-lub by comparing `leq` with the subset order of
    the prime sets.
    """

    def __init__(self, parent: FiniteFrame, masks: tuple[int, ...],
                 prime_sets: tuple[int, ...], rows: np.ndarray):
        self.parent = parent
        self.masks = masks
        self.prime_sets = prime_sets
        self.rows = rows
        self.index = {m: i for i, m in enumerate(masks)}
        self.sublocales = tuple(Sublocale(parent, m) for m in masks)
        self.bottom_index = self.index[1 << parent.top]
        self.top_index = self.index[(1 << parent.n) - 1]
        self._ys = np.array(prime_sets, dtype=np.intp)
        self._by_primes = np.argsort(self._ys)  # _by_primes[Y]: the index of M(Y)

    def __len__(self):
        return len(self.masks)

    @cached_property
    def leq(self):
        rel = containment_order(self.rows)
        rel.flags.writeable = False
        return rel

    @cached_property
    def join_table(self):
        """M(Y) ∨ M(Z) = M(Y ∪ Z): a lookup of the union of the prime sets."""
        ys = self._ys
        table = self._by_primes[ys[:, None] | ys[None, :]]
        table.flags.writeable = False
        return table

    @cached_property
    def meet_table(self):
        """M(Y) ∩ M(Z) = M(Y ∩ Z), checked against the intersection of the masks."""
        ys = self._ys
        table = self._by_primes[ys[:, None] & ys[None, :]]
        packed = np.packbits(self.rows, axis=1)
        if not np.array_equal(packed[table], packed[:, None] & packed[None, :]):
            raise AssertionError("meet of prime sets differs from the intersection")
        table.flags.writeable = False
        return table

    @cached_property
    def supplements(self):
        """supplements[i]: index of the least T with S_i ∨ T = L, M of the primes
        outside S_i; checked to join S_i to L and to lie inside every such T."""
        out = self._by_primes[self._ys ^ (len(self.masks) - 1)]
        partners = self.join_table == self.top_index
        if not (partners[np.arange(len(out)), out].all()
                and (self.leq[out] | ~partners).all()):
            raise AssertionError("a supplement is not the least T joining to the top")
        out.flags.writeable = False
        return out

    def supplement_of(self, i: int) -> int:
        return int(self.supplements[i])

    @cached_property
    def laws(self) -> CheckReport:
        """The coframe law and join-is-lub, decided through S(L) ≅ 2^P.

        `leq`, the containment of the member rows, must equal the subset
        order of the prime sets. all_sublocales checked that the closures
        M(Y) are distinct sublocales, so equal orders make Y ↦ M(Y) a lattice
        isomorphism from the Boolean algebra of prime sets onto S(L), and a
        Boolean algebra is a coframe. The tables must then land on Y ∪ Z
        and Y ∩ Z, which for joins is join-is-lub. A failure names the first
        pair in row-major order of the first comparison that fails.
        """
        ys = self._ys
        for law, got, want in (
                ("order at ", self.leq, (ys[:, None] & ~ys[None, :]) == 0),
                ("", ys[self.join_table], ys[:, None] | ys[None, :]),
                ("meet at ", ys[self.meet_table], ys[:, None] & ys[None, :])):
            bad = got != want
            if bad.any():
                a, b = (self.sublocales[k].label() for k in divmod(int(bad.argmax()), len(ys)))
                return CheckReport.failed("coframe-law", f"{law}pair ({a}, {b})")
        return CheckReport.passed("coframe-law")


def supplement(s: Sublocale, lattice: Optional[SublocaleLattice] = None) -> Sublocale:
    """S^#: the least sublocale joining S to the whole frame.

    Computed as the intersection of every T with S ∨ T = L; the coframe law
    makes the intersection itself such a T (verified during table build).
    """
    lat = lattice if lattice is not None else all_sublocales(s.parent)
    if lat.parent is not s.parent:
        raise MixedParents("lattice belongs to a different frame")
    i = lat.index[s.mask]
    return lat.sublocales[lat.supplement_of(i)]


def primes(frame: FiniteFrame) -> tuple[int, ...]:
    """The meet-irreducibles: the elements with exactly one upper cover (the top has none)."""
    upper = np.bincount(cover_pairs(frame.leq)[0], minlength=frame.n)
    return tuple(np.flatnonzero(upper == 1).tolist())


def all_sublocales(frame: FiniteFrame, budget: Optional[int] = None) -> SublocaleLattice:
    """Enumerate S(L) as the meet-closures M(Y) of the sets Y of primes.

    One meet_closure call builds all 2^|primes| of them, which must be
    distinct and must all pass the stacked sublocale test (a failure reports
    the verdict on the first failing one). The budget bounds the number of
    primes, since the count of sublocales, and of table cells, is
    exponential in it.
    """
    ps = primes(frame)
    within_budget("primes", len(ps), budget)
    members = np.zeros((1 << len(ps), frame.n), dtype=bool)
    members[:, list(ps)] = np.arange(1 << len(ps))[:, None] >> np.arange(len(ps)) & 1
    rows = meet_closure(frame, members)  # rows[y]: M(Y), bit k of y for ps[k]
    closures = pack_rows(rows)
    if len(set(closures)) != len(closures):
        raise AssertionError("two sets of primes have the same meet-closure")
    verdict = _sublocale_rows(frame, rows)
    if not verdict:
        raise AssertionError(f"meet-closure of primes is not a sublocale: {verdict}")
    order = sorted(range(len(closures)), key=lambda y: (closures[y].bit_count(), closures[y]))
    rows = rows[order]
    rows.flags.writeable = False
    return SublocaleLattice(frame, tuple(closures[y] for y in order), tuple(order), rows)


class ClosedJoinFrame:
    """Joins of closed sublocales with their induced frame structure.

    Since c(a) ∨ c(b) = c(a ∧ b), the joins of closed sublocales are the
    closed sublocales themselves: element i is the up-set of generators[i],
    and the frame is L turned upside down. `frame` is that frame, built by
    `closed_join_frames` from the parent's tables: its element i is
    masks[i], its joins are c(a ∧ b) and its induced meets c(a ∨ b).
    """

    def __init__(self, parent: FiniteFrame, generators: tuple[int, ...], frame: FiniteFrame):
        self.parent, self.generators, self.frame = parent, generators, frame
        self.masks = tuple(parent.up_masks[a] for a in generators)
        self.index = {m: i for i, m in enumerate(self.masks)}

    def __len__(self):
        return len(self.masks)

    @cached_property
    def elements(self) -> tuple[Sublocale, ...]:
        return tuple(Sublocale(self.parent, m) for m in self.masks)

    def element_index(self, s: Sublocale) -> int:
        if s.parent is not self.parent:
            raise MixedParents("sublocale belongs to a different frame")
        got = self.index.get(s.mask)
        if got is None:
            raise ValueError(f"{s.label()} is not a join of closed sublocales")
        return got

    def frame_law_report(self) -> CheckReport:
        """Meet distributes over binary joins on every triple (plus the dual).

        Finite lattices are distributive iff dually distributive, so the two
        verdicts must agree (AssertionError if not); pass means both hold.
        """
        meet, join = self.frame.meet[None], self.frame.join[None]
        down, up = distributivity_witness(meet, join)[0], distributivity_witness(join, meet)[0]
        frame_ok, co_ok = bool(down < 0), bool(up < 0)
        if frame_ok and co_ok:
            return CheckReport.passed("closed-join-frame-law")
        if frame_ok != co_ok:
            raise AssertionError(f"distributive={frame_ok} but dually distributive={co_ok}")
        names = [self.elements[int(k)].label()
                 for k in np.unravel_index(down, (len(self),) * 3)]
        return CheckReport.failed("closed-join-frame-law", f"triple {names}")


def closed_join_frames(parents: Iterable[FiniteFrame]) -> list[ClosedJoinFrame | AssertionError]:
    """The joins of closed sublocales (the up-sets, in (size, mask) order) of
    every parent, built from its tables, one stack per carrier size.

    The containment order must be the parent order reversed, each join
    c(a ∧ b) must contain both arguments and each meet c(a ∨ b) lie inside
    both, and `heyting_tables` proves the Heyting table. The outcome of a
    parent that fails is the AssertionError it raises alone, so the rest of
    the batch is built all the same.
    """
    parents = list(parents)
    by_size = defaultdict(list)
    for k, parent in enumerate(parents):
        by_size[parent.n].append(k)
    built = [None] * len(parents)
    for n, ks in by_size.items():
        group = [parents[k] for k in ks]
        gens = np.array([sorted(range(n), key=lambda a, up=p.up_masks: (up[a].bit_count(), up[a]))
                         for p in group], dtype=np.intp)
        leqs, meets, joins = (np.stack([getattr(p, name) for p in group])
                              for name in ("leq", "meet", "join"))
        f, idx = np.arange(len(group))[:, None, None], np.arange(n)
        rows, cols = gens[:, :, None], gens[:, None, :]
        position = np.argsort(gens, axis=1)           # position[f, gens[f, i]] = i
        leq = leqs[f, cols, rows]                     # c(a) ⊆ c(b) iff b <= a
        join = position[f, meets[f, rows, cols]]      # c(a) ∨ c(b) = c(a ∧ b)
        meet = position[f, joins[f, rows, cols]]      # c(a) ∧ c(b) = c(a ∨ b)
        imp, broken = heyting_tables(leq, meet)
        bad = np.stack([containment_order(leqs[f[:, :, 0], gens]) != leq,
                        ~(leq[f, idx[:, None], join] & leq[f, idx, join]),
                        ~(leq[f, meet, idx[:, None]] & leq[f, meet, idx])], axis=1)
        failed = np.concatenate([bad.any(axis=(2, 3)), broken[:, None] >= 0], axis=1)
        for table in (leq, meet, join, imp):
            table.flags.writeable = False
        for g, (k, parent) in enumerate(zip(ks, group)):
            labels = tuple(f"c({parent.labels[a]})" for a in gens[g].tolist())
            if failed[g].any():
                stage = int(failed[g].argmax())
                at = int(bad[g, stage].argmax()) if stage < 3 else int(broken[g])
                where = ", ".join(labels[v] for v in np.unravel_index(at, (n,) * (2 + stage // 3)))
                law = ("order is not the parent's reversed", "join is not above both",
                       "meet is not below both", "Heyting adjunction breaks")[stage]
                built[k] = AssertionError(f"closed-join {law} at ({where})")
                continue
            frame = FiniteFrame(leq[g], meet[g], join[g], imp[g], labels)
            built[k] = ClosedJoinFrame(parent, tuple(gens[g].tolist()), frame)
    return built


def closed_join_frame(parent: FiniteFrame) -> ClosedJoinFrame:
    """The joins of closed sublocales (the up-sets), built as a frame."""
    return settled(closed_join_frames([parent])[0])


def closed_join_meet(cjf: ClosedJoinFrame, s: Sublocale, t: Sublocale) -> Sublocale:
    """Induced meet: the join of every element below both arguments."""
    i, j = cjf.element_index(s), cjf.element_index(t)
    return cjf.elements[int(cjf.frame.meet[i, j])]


def dual_booleanization(frame: FiniteFrame,
                        lattice: Optional[SublocaleLattice] = None) -> tuple[Sublocale, ...]:
    """Fixed points of the double supplement inside S(L).

    This is the Booleanization of the order-dual of S(L): the supplement is
    the pseudocomplement over there, so the regular elements are exactly the
    S with S^## = S.
    """
    lat = lattice if lattice is not None else all_sublocales(frame)
    supp = lat.supplements
    return tuple(lat.sublocales[i] for i in range(len(lat))
                 if int(supp[supp[i]]) == i)


def closed_open_complements_report(frame: FiniteFrame) -> CheckReport:
    """c(a) and o(a) are complements in S(L) for every a."""
    up, opens = frame.leq, unpack_rows(frame.imp_image_masks, frame.n)
    apart = ((up & opens) != (np.arange(frame.n) == frame.top)).any(axis=1)
    bad = apart | ~meet_closure(frame, up | opens).all(axis=1)
    if not bad.any():
        return CheckReport.passed("closed-open-complements")
    a = int(bad.argmax())
    law = "c∩o ≠ O" if apart[a] else "c∨o ≠ L"
    return CheckReport.failed("closed-open-complements", f"{law} at {frame.labels[a]}")


def closed_open_identities_check(frame: FiniteFrame) -> CheckReport:
    """The closed/open interaction identities by their nullary and binary
    cases: c(0) = L, o(0) = O and, on every pair, c(a) ∩ c(b) = c(a ∨ b),
    o(a) ∨ o(b) = o(a ∨ b), c(a) ∨ c(b) = c(a ∧ b), o(a) ∩ o(b) = o(a ∧ b),
    the joins one meet_closure of the 2n² pair unions. ⋂c(a) = c(⋁a) and
    ⋁o(a) = o(⋁a) on families follow by induction (the test oracle
    `generic_closed_open_identities` walks the 2^n families). A failure
    names the first law that fails at its first pair, row-major.
    """
    n, labels = frame.n, frame.labels
    up, opens = frame.leq, unpack_rows(frame.imp_image_masks, n)
    a, b = np.divmod(np.arange(n * n), n)  # every pair; a nullary law's one row reads as (0, 0)
    joins, meets = frame.join[a, b], frame.meet[a, b]
    unions = meet_closure(frame, np.concatenate([up[a] | up[b], opens[a] | opens[b]]))
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
