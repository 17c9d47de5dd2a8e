"""Concrete finite groups as multiplication tables, plus the primitive predicates.

Elements are indices 0..N-1 with the identity fixed at index 0.  Subgroups are
immutable member tuples backed by a bit mask.  Everything here is a pure
function of its inputs; tables are never mutated after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import config
from .errors import CapacityError, DomainError

# Below this order we run python loops over list-of-list rows; above it we stay
# in numpy (materializing 3600x3600 python ints would cost hundreds of MB).
_SMALL_N = 1024


class GroupTable:
    """A finite group of order N given by its full N x N multiplication table.

    ``mult[a][b]`` is the index of a*b, ``inv[a]`` the index of a^-1, and the
    identity is always index 0.  Identity, inverse, Latin-square and
    associativity laws are checked on construction (associativity fully up to
    ``ASSOC_FULL_CHECK_CAP``, by random triples above that).
    """

    def __init__(self, mult, labels=None, check=True):
        mult = np.asarray(mult)
        if mult.ndim != 2 or mult.shape[0] != mult.shape[1]:
            raise DomainError("multiplication table must be square")
        n = mult.shape[0]
        if n < 1:
            raise DomainError("group order must be positive")
        dtype = np.int16 if n <= 2**15 - 1 else np.int32
        mult = np.ascontiguousarray(mult.astype(dtype))
        self.order = n
        self.mult = mult
        self.mult.setflags(write=False)
        self.identity = 0
        self.labels = labels
        # exactly one zero per row once the Latin property holds
        self.inv = np.argmax(mult == 0, axis=1).astype(dtype)
        self.inv.setflags(write=False)
        self._rows = None
        self._inv_list = None
        self._normal_cache = None
        self._series_count = None
        self._bits = None
        if check:
            self._validate()

    def _validate(self):
        n = self.order
        mult, inv = self.mult, self.inv
        ar = np.arange(n, dtype=mult.dtype)
        if mult.min() < 0 or mult.max() >= n:
            raise DomainError("table entries out of range")
        if not (np.array_equal(mult[0], ar) and np.array_equal(mult[:, 0], ar)):
            raise DomainError("identity law violated at index 0")
        if not np.array_equal(np.sort(mult, axis=1), np.broadcast_to(ar, (n, n))):
            raise DomainError("some row is not a permutation (Latin square violated)")
        if not np.array_equal(np.sort(mult, axis=0), np.broadcast_to(ar[:, None], (n, n))):
            raise DomainError("some column is not a permutation (Latin square violated)")
        if not np.all(mult[ar, inv] == 0):
            raise DomainError("inverse law violated")
        if n <= config.ASSOC_FULL_CHECK_CAP:
            for a in range(n):
                # (a*b)*c vs a*(b*c) for all b, c
                if not np.array_equal(mult[mult[a]], mult[a][mult]):
                    raise DomainError(f"associativity fails with left factor {a}")
        else:
            rng = np.random.default_rng(0)
            trip = rng.integers(0, n, size=(10 * n, 3))
            a, b, c = trip[:, 0], trip[:, 1], trip[:, 2]
            if not np.array_equal(mult[mult[a, b], c], mult[a, mult[b, c]]):
                raise DomainError("associativity fails on sampled triples")

    def rows(self):
        """Table as list-of-lists for fast scalar loops (small orders only)."""
        if self._rows is None:
            if self.order > _SMALL_N:
                raise CapacityError(
                    f"python row materialization refused for order {self.order} > {_SMALL_N}"
                )
            self._rows = self.mult.tolist()
        return self._rows

    def inv_list(self):
        if self._inv_list is None:
            self._inv_list = self.inv.tolist()
        return self._inv_list

    @cached_property
    def is_abelian(self):
        return bool(np.array_equal(self.mult, self.mult.T))

    def __repr__(self):
        return f"GroupTable(order={self.order})"


@dataclass(frozen=True, eq=False)
class Subgroup:
    """A subgroup of ``parent`` stored as a sorted member tuple.

    Construction verifies the identity bit, closure under multiplication
    (inverse closure follows in a finite group) and Lagrange's theorem.
    """

    parent: GroupTable
    members: tuple

    def __post_init__(self):
        mem = tuple(sorted(set(int(x) for x in self.members)))
        object.__setattr__(self, "members", mem)
        n = self.parent.order
        if not mem or mem[0] != 0:
            raise DomainError("subgroup must contain the identity (index 0)")
        if mem[-1] >= n:
            raise DomainError("member index out of range")
        if n % len(mem) != 0:
            raise DomainError("subgroup order does not divide group order (Lagrange)")
        self._check_closed()

    def _check_closed(self):
        mem = self.members
        m = len(mem)
        if m == self.parent.order:
            return
        if self.parent.order <= _SMALL_N and m * m <= 1 << 16:
            rows = self.parent.rows()
            mask = self.mask
            for a in mem:
                ra = rows[a]
                for b in mem:
                    if not (mask >> ra[b]) & 1:
                        raise DomainError(f"subgroup not closed: {a}*{b} escapes")
        else:
            arr = np.fromiter(mem, dtype=self.parent.mult.dtype)
            prods = self.parent.mult[np.ix_(arr, arr)]
            if not np.isin(prods, arr).all():
                raise DomainError("subgroup not closed under multiplication")

    @cached_property
    def mask(self):
        return mask_of(self.members)

    @property
    def order(self):
        return len(self.members)

    def contains(self, x):
        return (self.mask >> x) & 1 == 1

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.members == other.members
        )

    def __hash__(self):
        return hash((id(self.parent), self.members))

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent.order})"


# ---------------------------------------------------------------------------
# closure machinery on raw member tuples


def mask_of(members):
    """Bit mask with bit x set for each member x."""
    m = 0
    for x in members:
        m |= 1 << x
    return m


def close_members(G, seed):
    """Smallest subgroup of G containing ``seed``, as a sorted member tuple."""
    return tuple(sorted(_dimino_close(G, seed)[0]))


def _dimino_close(G, seed):
    """Closure of ``seed`` as (members in discovery order, generators).

    Each seed element not yet in the closure extends it (``dimino_extend``)
    and becomes a generator, so the generators are a greedy generating set.
    """
    seed = [int(x) for x in seed]
    for x in seed:
        if not 0 <= x < G.order:
            raise DomainError(f"seed index {x} out of range")
    members = [0]
    flags = bytearray(G.order)
    flags[0] = 1
    gens = []
    for g in seed:
        if not flags[g]:
            dimino_extend(G, members, flags, gens, g)
            gens.append(g)
    return members, gens


def dimino_extend(G, members, flags, gens, g):
    """Dimino step: extend the subgroup S = ``members``, generated by ``gens``, to <S, g>.

    Appends the elements of <S, g> outside S to ``members`` and marks them in
    ``flags`` (one byte per element of G), by whole right cosets S*t with
    t = r*h for a coset representative r and a generator h: |<S, g>| products
    plus index * #gens lookups, not |<S, g>|^2 (Holt, Eick & O'Brien, Handbook
    of Computational Group Theory, 2005).  Up to ``_SMALL_N`` the cosets are
    read from ``G.rows()``, faster there than numpy; above it, one gather each.
    """
    allgens = (*gens, g)
    reps = [0]
    if G.order <= _SMALL_N:
        rows = G.rows()
        sub_rows = [rows[s] for s in members]
        for r in reps:  # reps grows while it is walked
            row = rows[r]
            for h in allgens:
                t = row[h]
                if not flags[t]:
                    coset = [sr[t] for sr in sub_rows]
                    for e in coset:
                        flags[e] = 1
                    members += coset
                    reps.append(t)
        return
    mult = G.mult
    sub = np.array(members, dtype=np.intp)
    marks = np.frombuffer(flags, dtype=np.uint8)  # a view: writes land in flags
    for r in reps:
        for h in allgens:
            t = int(mult[r, h])
            if not flags[t]:
                coset = mult[sub, t]
                marks[coset] = 1
                members += coset.tolist()
                reps.append(t)


def generated_subgroup(G, seed):
    """Subgroup generated by ``seed`` (closure under products; inverses follow)."""
    return Subgroup(G, close_members(G, seed))


def build_from_generators(n_points, generators, cap=None, labels=False):
    """Permutation group closure: BFS from the identity, identity index 0.

    Each generator lists the images of 0..n_points-1.  Element indices follow
    BFS discovery order, so the result is deterministic for a fixed generator
    list.  Raises CapacityError when the group outgrows the element cap.
    """
    if cap is None:
        cap = config.element_cap()
    if n_points < 1:
        raise DomainError("n_points must be positive")
    gens = []
    for g in generators:
        g = tuple(int(x) for x in g)
        if sorted(g) != list(range(n_points)):
            raise DomainError(f"generator {g} is not a permutation of 0..{n_points - 1}")
        gens.append(g)
    ident = tuple(range(n_points))
    elems = [ident]
    index = {ident: 0}
    head = 0
    while head < len(elems):
        e = elems[head]
        head += 1
        for g in gens:
            # product e*g acting as (e*g)(x) = e[g[x]]
            p = tuple(e[g[x]] for x in range(n_points))
            if p not in index:
                if len(elems) >= cap:
                    raise CapacityError(
                        f"generated group exceeds the element cap of {cap}"
                    )
                index[p] = len(elems)
                elems.append(p)
    n = len(elems)
    mult = np.empty((n, n), dtype=np.int16 if n <= 2**15 - 1 else np.int32)
    for a, ea in enumerate(elems):
        row = mult[a]
        for b, eb in enumerate(elems):
            row[b] = index[tuple(ea[eb[x]] for x in range(n_points))]
    lab = [str(e) for e in elems] if labels else None
    return GroupTable(mult, labels=lab)


# ---------------------------------------------------------------------------
# predicates


def is_normal(G, H):
    """True iff g h g^-1 lies in H for all g in G, h in H.

    Conjugating a generating set of H by every g suffices.
    """
    if H.parent is not G:
        raise DomainError("subgroup does not belong to this group")
    if H.order in (1, G.order):
        return True
    if G.is_abelian:
        return True
    _, gens = _dimino_close(G, H.members)
    mult, inv = G.mult, G.inv
    member_flags = np.zeros(G.order, dtype=bool)
    member_flags[list(H.members)] = True
    for h in gens:
        conj = mult[mult[:, h], inv]
        if not member_flags[conj].all():
            return False
    return True


def _members_normal_in(G, inner, outer):
    """Is the subgroup ``inner`` normal inside the subgroup ``outer`` (raw tuples)?"""
    inner_set = set(inner)
    if len(inner) in (1, len(outer)):
        return True
    _, gens = _dimino_close(G, inner)
    if G.order <= _SMALL_N:
        rows, inv = G.rows(), G.inv_list()
        for g in outer:
            rg = rows[g]
            ig = inv[g]
            for h in gens:
                if rows[rg[h]][ig] not in inner_set:
                    return False
        return True
    mult, inv = G.mult, G.inv
    out = np.fromiter(outer, dtype=mult.dtype)
    inn = np.fromiter(inner, dtype=mult.dtype)
    for h in gens:
        conj = mult[mult[out, h], inv[out]]
        if not np.isin(conj, inn).all():
            return False
    return True


def conjugacy_classes(G):
    """Partition of 0..N-1 into conjugacy classes, ordered by smallest member."""
    return classes_of_members(G, tuple(range(G.order)))


def classes_of_members(G, members):
    """Conjugacy classes of the subgroup ``members`` under its own conjugation."""
    n = G.order
    m = len(members)
    if m == n and n > _SMALL_N:
        mult, inv = G.mult, G.inv
        seen = np.zeros(n, dtype=bool)
        out = []
        for x in range(n):
            if seen[x]:
                continue
            cls = np.unique(mult[mult[:, x], inv])
            seen[cls] = True
            out.append(tuple(int(v) for v in cls))
        return out
    rows = G.rows() if n <= _SMALL_N else None
    if rows is not None:
        inv = G.inv_list()
        seen = set()
        out = []
        for x in members:
            if x in seen:
                continue
            cls = {rows[rows[g][x]][inv[g]] for g in members}
            seen |= cls
            out.append(tuple(sorted(cls)))
        return out
    mult, inv = G.mult, G.inv
    arr = np.fromiter(members, dtype=mult.dtype)
    seen = set()
    out = []
    for x in members:
        if x in seen:
            continue
        cls = np.unique(mult[mult[arr, x], inv[arr]])
        cls = tuple(int(v) for v in cls)
        seen.update(cls)
        out.append(cls)
    return out


def derived_members(G, members):
    """Commutator subgroup of the subgroup ``members``, as a member tuple."""
    m = len(members)
    if m <= 2:
        return (0,)
    if G.order <= _SMALL_N and m * m <= 1 << 18:
        rows, inv = G.rows(), G.inv_list()
        comms = set()
        for a in members:
            ra = rows[a]
            ia = inv[a]
            for b in members:
                comms.add(rows[rows[ra[b]][ia]][inv[b]])
    else:
        mult, inv = G.mult, G.inv
        arr = np.fromiter(members, dtype=mult.dtype)
        ab = mult[np.ix_(arr, arr)]
        c = mult[mult[ab, inv[arr][:, None]], inv[arr][None, :]]
        comms = set(int(v) for v in np.unique(c))
    return close_members(G, comms)


def is_abelian_members(G, members):
    if G.is_abelian:
        return True
    m = len(members)
    if G.order <= _SMALL_N and m * m <= 1 << 18:
        rows = G.rows()
        for i, a in enumerate(members):
            ra = rows[a]
            for b in members[i + 1:]:
                if ra[b] != rows[b][a]:
                    return False
        return True
    arr = np.fromiter(members, dtype=G.mult.dtype)
    sub = G.mult[np.ix_(arr, arr)]
    return bool(np.array_equal(sub, sub.T))


def is_solvable_members(G, members):
    cur = members
    while True:
        nxt = derived_members(G, cur)
        if len(nxt) == 1:
            return True
        if len(nxt) == len(cur):
            return False
        cur = nxt


# ---------------------------------------------------------------------------
# quotients


def coset_quotient(G, n_members, h_members, check=True):
    """Coset space H / N realized as a GroupTable.

    Returns (table, coset_index, coset_members) where ``coset_index`` maps a
    parent element of H to its coset's index and ``coset_members[i]`` lists the
    parent elements of coset i.  Cosets are ordered by smallest member, which
    puts the identity coset at index 0.
    """
    n_set = frozenset(n_members)
    m = len(h_members)
    k = len(n_members)
    if G.order <= _SMALL_N:
        rows = G.rows()
        key = {}
        for x in h_members:
            rx = rows[x]
            key[x] = min(rx[t] for t in n_members)
    else:
        mult = G.mult
        harr = np.fromiter(h_members, dtype=mult.dtype)
        narr = np.fromiter(n_members, dtype=mult.dtype)
        mins = mult[np.ix_(harr, narr)].min(axis=1)
        key = {int(x): int(v) for x, v in zip(h_members, mins)}
    reps = sorted(set(key.values()))
    rep_index = {r: i for i, r in enumerate(reps)}
    coset_index = {x: rep_index[key[x]] for x in h_members}
    coset_members = [[] for _ in reps]
    for x in h_members:
        coset_members[coset_index[x]].append(x)
    q = len(reps)
    if q * k != m:
        raise DomainError("coset space has inconsistent size; is N normal in H?")
    qmult = np.empty((q, q), dtype=np.int32)
    if G.order <= _SMALL_N:
        rows = G.rows()
        for i, a in enumerate(reps):
            ra = rows[a]
            qmult[i] = [coset_index[ra[b]] for b in reps]
    else:
        mult = G.mult
        rarr = np.fromiter(reps, dtype=mult.dtype)
        prods = mult[np.ix_(rarr, rarr)]
        lut = np.full(G.order, -1, dtype=np.int32)
        for x, ci in coset_index.items():
            lut[x] = ci
        qmult = lut[prods]
    table = GroupTable(qmult, check=check)
    return table, coset_index, [tuple(c) for c in coset_members]


def quotient(G_amb, N_sub, H):
    """GroupTable of H / N_sub for subgroups of G_amb with N_sub normal in H."""
    for s, name in ((N_sub, "N"), (H, "H")):
        if s.parent is not G_amb:
            raise DomainError(f"subgroup {name} does not belong to the ambient group")
    if N_sub.mask & ~H.mask:
        raise DomainError("containment violated: N is not a subset of H")
    if not _members_normal_in(G_amb, N_sub.members, H.members):
        raise DomainError("normality violated: N is not normal in H")
    table, _, labels = coset_quotient(G_amb, N_sub.members, H.members)
    table.labels = [str(list(c)) for c in labels]
    return table


def is_simple(G):
    """True iff G has no normal subgroup besides the trivial one and itself."""
    if G.order < 2:
        raise DomainError("simplicity is undefined for the trivial group")
    from .lattice import normal_subgroups  # local import, avoids module cycle

    n = G.order
    # prime order: only trivial subgroups exist at all
    if n in (2, 3) or (n > 3 and all(n % d for d in range(2, int(n**0.5) + 1))):
        return True
    return len(normal_subgroups(G).items) == 2


def element_power(G, x, e):
    """x**e by repeated squaring on the table."""
    if G.order <= _SMALL_N:
        rows = G.rows()
        acc = 0
        base = x
        while e:
            if e & 1:
                acc = rows[acc][base]
            base = rows[base][base]
            e >>= 1
        return acc
    acc = 0
    base = x
    mult = G.mult
    while e:
        if e & 1:
            acc = int(mult[acc, base])
        base = int(mult[base, base])
        e >>= 1
    return acc
