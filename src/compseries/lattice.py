"""Exhaustive subgroup / normal-subgroup enumeration: the brute-force side.

Every function here takes and returns subgroups as bit masks; member tuples
are built only where the public queries make their ``Subgroup``s, sorted
there by (order, members).  Three algorithms live here:

* ``all_subgroups``, and ``normal_subgroups`` of a non-abelian group — one
  join closure over two atom sets.  Every subgroup is the join of the cyclic
  subgroups it contains, and every normal subgroup is the join of the normal
  closures of its conjugacy classes, so closing the trivial subgroup under
  joins with the atoms <g>, or with the class closures, gives the whole
  lattice or the normal lattice.  The atoms are taken in turn, so after
  atom i every join of atoms 1..i is known.  A join J is extended by atom i
  only when J*g, for i's first seed element g, meets no earlier atom's
  seeds; each new subgroup then costs about one Dimino step, exactly one on
  an elementary abelian 2-group.
* ``maximal_normal_member_sets`` — the routine the series counter leans on.
  For a solvable subgroup H every maximal normal subgroup has prime index, so
  they are exactly the kernels of maps onto Z_p: the hyperplanes of the
  elementary abelian quotient H / (H' * H^p), whose cosets are read off the
  parent's own table (H' is trivial when H is abelian).  H is closed once,
  for generators; H' comes back with its own, which carry the derived series.
  Non-solvable subgroups fall back to the class-join lattice, which is tiny
  for groups with no abelian bulk.  One loop serves every prime: each coset
  of H' * H^p is gathered from one table row in a C-level call and gets a
  bit mask and a coordinate vector; the cosets' masks are ORed into one
  level mask per (coordinate, value), and the hyperplanes are built from
  level masks alone, a few mask operations per hyperplane.  An abelian
  parent of squarefree exponent, a sum of spaces F_p^k, answers without
  H's members.  On F_2^n the n coordinate slices are built once per table,
  and the odd sets of the maps H -> Z_2 are the span under XOR of the
  slices cut down to H's mask: each hyperplane is H's mask minus one
  non-zero member of that span.  On any other such parent the maximal
  subgroups are built once per table, and H's are their proper cuts by H's
  mask, as each map H -> Z_p extends to the whole group.
* ``normal_member_sets`` of an abelian subgroup H — a descent, breadth
  first from H through ``maximal_normal_member_sets``: every subgroup of H
  lies on a chain of prime-index steps down from H.  So the normal lattice
  of an abelian group is found by another algorithm than ``all_subgroups``,
  and ``verification.check_lattices`` compares the two.

One gate, ``check_walk_size``, refuses before it starts each walk of the
whole group, lattice or series, that its centre shows to be past the cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import prod
from operator import and_, or_

from . import config
from .errors import CapacityError, DomainError
from .group_core import (
    GroupTable,
    Subgroup,
    _dimino_close,
    classes_of_members,
    derived_members,
    extend_members,
    is_abelian_members,
    is_solvable_members,
    element_power,
    left_cosets,
    mask_of,
    mask_of_flags,
    members_of,
    prime_exponents,
)


@dataclass
class SubgroupSet:
    """Deduplicated collection of subgroups of one parent."""

    parent: GroupTable
    items: list

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def orders(self):
        return sorted(s.order for s in self.items)

    def masks(self):
        return {s.mask for s in self.items}


def sorted_subgroups(G, masks, interned):
    """The validated subgroups of the bit mask list ``masks``, sorted by (order, members).

    ``interned`` maps each mask made so far to its one Subgroup; it gains the new ones.
    """
    for m in masks:
        if m not in interned:
            interned[m] = Subgroup.from_mask(G, m)
    return sorted(map(interned.get, masks), key=lambda s: (s.order, s.members))


def _subgroup_set(G, masks):
    """The subgroups of bit masks ``masks`` as a SubgroupSet sorted by (order, members)."""
    return SubgroupSet(G, sorted_subgroups(G, masks, {}))


def all_subgroups(G):
    """Every subgroup of G exactly once: the joins of its cyclic subgroups."""
    config.check_subgroup_enum(G.order)
    check_walk_size(G, config.check_join_count)
    return _subgroup_set(G, _join_closure(G, [(g,) for g in range(1, G.order)]))


def normal_member_sets(G, mask, gens):
    """Bit masks of all normal subgroups of the subgroup H of bit mask ``mask``.

    ``gens`` generate H.  An abelian H, all of whose subgroups are normal,
    gets them by ``_descent``; any other H the joins of the normal closures
    of its conjugacy classes, found by conjugating with ``gens``.  The
    lattice of the whole group is kept in ``G._normal_cache``.
    """
    whole = mask == (1 << G.order) - 1
    if whole:
        if G._normal_cache is not None:
            return G._normal_cache
        check_walk_size(G, config.check_join_count)
    if is_abelian_members(G, gens):
        out = _descent(G, mask)
    else:
        classes = [c for c in classes_of_members(G, members_of(mask), gens) if c != (0,)]
        out = _join_closure(G, classes)
    if whole:
        G._normal_cache = out
    return out


def _descent(G, mask):
    """Bit masks of every subgroup of the abelian subgroup H of bit mask ``mask``, H first.

    Breadth first from H through ``maximal_normal_member_sets``.  No subgroup
    is missed: for K < H the abelian group H/K has a subgroup of prime index,
    whose preimage is a maximal subgroup of H above K, so every K lies on a
    chain of prime-index steps down from H.  config caps the masks found.
    """
    found, seen = [mask], {mask}
    for m in found:  # found grows while it is walked
        if m == 1:
            continue
        for child in maximal_normal_member_sets(G, m):
            if child not in seen:
                seen.add(child)
                found.append(child)
                config.check_join_count(len(found))
    return found


def _subspace_count(p, r):
    """Subspaces of F_p^r: the sum over j of the Gaussian binomials [r j]_p."""
    total, term = 0, 1
    for j in range(r + 1):
        total += term  # term = [r j]_p
        term = term * (p ** (r - j) - 1) // (p ** (j + 1) - 1)
    return total


def socle_subgroup_count(pairs):
    """Subgroups of the product of the spaces F_p^r, for the (p, r) in ``pairs``.

    The primes are distinct, so each subgroup is a product of one subspace
    of each F_p^r, and they number the product of ``_subspace_count(p, r)``.
    """
    return prod(_subspace_count(p, r) for p, r in pairs)


def _central(G, elements):
    """The members of Z(G) among ``elements``: those that commute with ``G._gens``."""
    rows = G.rows()
    return [z for z in elements if all(rows[g][z] == rows[z][g] for g in G._gens)]


def central_socle_exponents(G):
    """[(p, r), ...] for each prime p of |Z(G)|: the central x with x^p = 1 form F_p^r."""
    centre = _central(G, range(G.order))
    pairs = []
    for p, _ in prime_exponents(len(centre)):
        ((_, r),) = prime_exponents(sum(element_power(G, z, p) == 0 for z in centre))
        pairs.append((p, r))
    return pairs


def socle_bound(G):
    """Normal subgroups of G counted from its centre: a lower bound on their number.

    Let S be the socle of Z(G): the product over the primes p of the central
    x with x^p = 1, each an F_p^r.  Each subgroup W of S is central, so
    normal.  When G' is non-trivial and meets S trivially (iff it meets Z(G)
    trivially), the products W * N, N in {1, G'}, are normal and distinct:
    Dedekind's law gives (W * N) & S = W * (N & S) = W, and |G'| > 1 tells
    the two N apart.  So the count of S's subgroups doubles.
    """
    count = socle_subgroup_count(central_socle_exponents(G))
    if not G.is_abelian and _central(G, derived_members(G, G._gens)[0]) == [0]:
        count *= 2
    return count


def check_walk_size(G, check):
    """Refuse, before it starts, a walk of G that ``check`` would stop on the way.

    ``check`` is ``config.check_join_count`` for a lattice and
    ``config.check_series_nodes`` for a series walk.  Each walk finds every
    normal subgroup, as a subgroup, a member of the normal lattice, or a term
    of some composition series (G > N > 1 refines to one); ``socle_bound(G)``
    counts some of them, and on an elementary abelian G all its subgroups.
    The centre is read only when the same count for the prime powers of |G|
    passes the cap.  That count bounds ``socle_bound(G)``: S's rank r at each
    p is at most p's exponent in |G|, and when the bound is doubled S < G,
    so some r falls short; F_p^(r+1) has at least twice the subspaces of
    F_p^r, W and W + <e> for each W.  At the real caps no order up to 256
    reads its centre for a series walk, nor below 256 for a lattice.
    """
    try:
        check(socle_subgroup_count(prime_exponents(G.order)))
    except CapacityError:
        check(socle_bound(G))


def _join_closure(G, seeds):
    """Bit masks of every join of the subgroups <seed>, the trivial one included.

    The seeds are grouped by the atom <seed> they generate, and the atoms are
    taken one at a time; after atom i, ``masks`` holds every join of atoms
    1..i.  A seed is a single element, or a class of a subgroup H in which
    every join is normal, so a join that holds a seed holds its atom.  A join
    J is extended by atom i, whose first seed element is g, unless J*g meets
    an earlier atom's seeds: one AND of J's mask with ``behind``, the mask of
    (earlier seeds) * g^-1.  No join is lost.  Let i be the first of K's
    atoms whose join with K's earlier atoms is K, and J that earlier join.  J
    misses atom i, so J*g lies in K outside J, while every earlier seed in K
    lies in J; so J passes and K = <J, atom i> is built.  A non-trivial J
    holding g is skipped too, as J*g = J holds an earlier seed.  So the joins
    that pass are picked from the masks alone before any is copied.  Each
    mask, an atom's or a join's, is read off its flag bytes in one C-level
    conversion, and joins are keyed by their masks; config caps their number.
    """
    atoms = {}
    for seed in seeds:
        atoms.setdefault(mask_of_flags(_dimino_close(G, seed)[1]), []).extend(seed)
    rows, inv = G.rows(), G.inv_list()
    trivial = bytearray(G.order)
    trivial[0] = 1
    # bit mask -> (members, flag bytes, generators) of each join, in the order found
    joins = {1: ([0], trivial, [])}
    taken = []
    for seed in atoms.values():
        g_inv = inv[seed[0]]
        behind = mask_of(rows[e][g_inv] for e in taken)
        for m in [m for m in joins if not m & behind]:
            members, flags, gens = joins[m]
            join, flags, jgens = list(members), bytearray(flags), list(gens)
            extend_members(G, join, flags, jgens, seed)
            mask = mask_of_flags(flags)
            if mask not in joins:
                joins[mask] = (join, flags, jgens)
                config.check_join_count(len(joins))
        taken += seed
    return list(joins)


def normal_subgroups(G):
    """All normal subgroups via conjugacy-class atoms closed under join."""
    config.check_order(G.order)
    if G.is_abelian:  # then the normal lattice is the whole subgroup lattice
        config.check_subgroup_enum(G.order)
    return _subgroup_set(G, normal_member_sets(G, (1 << G.order) - 1, G._gens))


def is_simple(G):
    """True iff G has no normal subgroup besides the trivial one and itself."""
    if G.order < 2:
        raise DomainError("simplicity is undefined for the trivial group")
    # prime order: only trivial subgroups exist at all
    if prime_exponents(G.order) == [(G.order, 1)]:
        return True
    # an abelian group of composite order has a proper non-trivial subgroup
    return not G.is_abelian and len(normal_subgroups(G)) == 2


def _maximal_among(masks, order):
    """The maximal ones among the distinct subgroup ``masks`` of fewer than ``order`` members.

    Largest first, each mask is tested only against the maximal masks kept so
    far: a mask under any larger proper one is under a maximal one, kept earlier.
    """
    proper = sorted((m for m in masks if m.bit_count() < order), key=int.bit_count, reverse=True)
    kept = []
    for mask in proper:
        if not any(mask | k == k for k in kept):
            kept.append(mask)
    return kept


def maximal_normal_subgroups(G):
    """Proper normal subgroups maximal under inclusion among proper normals."""
    if G.order < 2:
        raise DomainError("the trivial group has no maximal normal subgroup")
    return _subgroup_set(G, maximal_normal_member_sets(G, (1 << G.order) - 1))


def maximal_subgroups_count(G):
    """Number of maximal elements among all proper subgroups (brute force)."""
    return len(_maximal_among(all_subgroups(G).masks(), G.order))


# ---------------------------------------------------------------------------
# maximal normal subgroups of a subgroup, the series recursion workhorse


def maximal_normal_member_sets(G, mask):
    """Maximal normal subgroups of the subgroup H of bit mask ``mask``.

    Returns one bit mask per subgroup, distinct and in no particular order;
    ``members_of`` turns a mask back into its member tuple.  The series
    recursion looks its children up by mask and builds members only for the
    subgroups it has not seen.  On an abelian table of squarefree exponent
    H's members are never built: the hyperplanes come from the table's
    coordinate slices, or from its maximal subgroups, cut down to H.
    """
    slices = _coordinate_slices(G)
    maximals = _table_maximals(G)
    members = None if slices or maximals else members_of(mask)
    # H is closed once, here, for the generators that is_abelian_members,
    # derived_members and normal_member_sets read; in an abelian G no
    # generators are needed, and the empty set commutes
    gens = [] if G.is_abelian else _dimino_close(G, members)[2]
    if is_abelian_members(G, gens):
        if slices:
            # H is a subspace of F_2^n, so each map H -> Z_2 is a coordinate map
            # cut down to H; odd sets add by XOR and differ for distinct maps,
            # so the span, doubled by each new cut slice, holds each of the |H|
            # maps' odd sets once; kept as mask ^ odd, the map 0 first
            hyperplanes = [mask]
            for s in slices:
                odd = s & mask
                if mask ^ odd not in hyperplanes:
                    hyperplanes += [x ^ odd for x in hyperplanes]
                    if len(hyperplanes) == mask.bit_count():
                        break
            return hyperplanes[1:]
        if maximals:
            # each map H -> Z_p extends to G, so its kernel is H cut by the
            # kernel K of a map G -> Z_p; K holds H for the maps zero on H
            cuts = set(map(mask.__and__, maximals))
            cuts.discard(mask)
            return list(cuts)
        return _prime_index_masks(G, members, (0,))
    d, d_gens = derived_members(G, gens)
    # H is solvable iff H' is
    if is_solvable_members(G, d, d_gens):
        return _prime_index_masks(G, members, d)
    return _maximal_among(normal_member_sets(G, mask, gens), len(members))


def _coordinate_slices(G):
    """G's coordinate slices when G is an elementary abelian 2-group, else [].

    G is then F_2^n, and slice j is the bit mask of the elements whose
    coordinate j is 1.  Cached on the table as ``G._slices``.
    """
    if G._slices is None:
        n = G.order
        if n > 1 and G.is_abelian and all(x == i for x, i in enumerate(G.inv_list())):
            # every element is its own coset of the trivial subgroup
            G._slices = [lv[1] for lv in _level_masks(G, *left_cosets(G, (0,), range(n)), 2)]
        else:
            G._slices = []
    return G._slices


def _squarefree_exponent(G):
    """True iff G is abelian and x^r = 1 for each x in G, r the product of the primes of |G|.

    Then each Sylow subgroup of G is elementary abelian, F_p^k, and it is
    enough to test the generators ``G._gens``.
    """
    if not G.is_abelian:
        return False
    r = 1
    for p, _ in prime_exponents(G.order):
        r *= p
    return all(element_power(G, x, r) == 0 for x in G._gens)


def _table_maximals(G):
    """G's maximal subgroups when G is abelian of squarefree exponent but not F_2^n, else [].

    G is then a sum of spaces F_p^k, each map H -> Z_p of a subgroup H
    extends to G as a linear functional does from a subspace, and so H's
    maximal subgroups are its proper cuts by G's.  The slices of F_2^n find
    them faster: 0.12-0.18 s against 0.46-0.50 s for all 29,211 non-trivial
    subgroups of E(2,7) (2-CPU host, in-process).  Cached on the table as
    ``G._maximals``.
    """
    if G._maximals is None:
        cut = not _coordinate_slices(G) and _squarefree_exponent(G)
        G._maximals = _prime_index_masks(G, range(G.order), (0,)) if cut else []
    return G._maximals


def _prime_index_masks(G, members, d):
    """Bit masks of the normal subgroups of prime index in H = ``members``.

    ``d`` is a normal subgroup of H with H/d abelian: H', or the trivial
    subgroup when H is abelian.  For each prime p of |H/d| the normal
    subgroups of index p are the kernels of the maps onto Z_p, i.e. the
    hyperplanes of the elementary abelian quotient H / K with K = d * H^p.
    For solvable H these are all the maximal normal subgroups.  The cosets
    x*K come from ``left_cosets``, as ``members`` is ascending, and
    ``_hyperplane_masks`` builds the kernels from their level masks.
    """
    out = []
    for p, _ in prime_exponents(len(members) // len(d)):
        powers = {element_power(G, x, p) for x in members}
        # K = d when every p-th power is trivial, as in an elementary abelian H
        kernel = d if len(powers) == 1 else _dimino_close(G, (*d, *powers))[0]
        out += _hyperplane_masks(p, _level_masks(G, *left_cosets(G, kernel, members), p))
    return out


def _hyperplane_masks(p, level):
    """Kernels of the (p^rank - 1)/(p - 1) maps onto Z_p, from level masks.

    ``level`` holds the level masks of an elementary abelian quotient of
    rank ``len(level)``: ``level[j][v]`` is the OR of the masks of the
    cosets whose coordinate j is v.  A map is normalized so that its first
    non-zero coordinate, the lead, is 1, and a map f on the coordinates
    after the lead is held as its p level masks L, L[w] the OR of the masks
    of the cosets that f sends to w.  All indices mod p, the kernel of
    e_lead + f is the OR over v of ``level[lead][v] & L[-v]``, and f + a*e_j
    has the level masks L'[w] = OR over u of ``level[j][u] & L[w - a*u]``.
    So with the lead walked from the last coordinate down, each map costs
    p^2 mask operations.
    """
    out = []
    # the maps on no coordinate: only the zero map, which sends all of H to 0
    maps = [[reduce(or_, level[0])] + [0] * (p - 1)]
    for j in reversed(range(len(level))):
        lv = level[j]
        for L in maps:
            # L[:1] + L[:0:-1] is L[-v] for v = 0..p-1
            out.append(reduce(or_, map(and_, lv, L[:1] + L[:0:-1])))
        if j:  # the maps with lead j - 1 read the maps on coordinates j and after
            maps += [
                [reduce(or_, [lv[u] & L[(w - a * u) % p] for u in range(p)]) for w in range(p)]
                for a in range(1, p)
                for L in maps
            ]
    return out


def _level_masks(G, coset_of, cosets, p):
    """Level masks of the elementary abelian p-group quotient with cosets ``cosets``.

    ``coset_of`` and ``cosets`` are as ``left_cosets`` returns them, the
    identity's coset first.  Basis vectors are picked greedily in key order,
    so the coordinates are deterministic, and ``level[j][v]`` is the bit
    mask of the union of the cosets whose coordinate j is v, mod p.
    """
    rows = G.rows()
    coords = {0: ()}
    d = 0
    for g in cosets:
        if g in coords:
            continue
        for r, c in list(coords.items()):
            c = c + (0,) * (d - len(c))
            cur = r
            for j in range(1, p):
                cur = coset_of[rows[cur][g]]
                coords[cur] = c + (j,)
        d += 1
        if len(coords) == len(cosets):
            break
    level = [[0] * p for _ in range(d)]
    for x, coset in cosets.items():
        m = mask_of(coset)
        for lv, v in zip(level, coords[x] + (0,) * d):  # the coordinates past the tuple are 0
            lv[v] |= m
    return level
