"""Subgroup lattice enumeration: all / normal / maximal(-normal) subgroups."""

import functools
import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compseries import (
    CapacityError,
    DomainError,
    all_subgroups,
    config,
    count_series,
    is_normal,
    lattice,
    maximal_normal_subgroups,
    maximal_subgroups_count,
    normal_subgroups,
)
from compseries import group_core, series
from compseries.catalog import realize, realize_text, standard_roster
from compseries.group_core import (
    _dimino_close,
    _members_normal_in,
    classes_of_members,
    close_members,
    mask_of,
    members_of,
    prime_exponents,
)
from compseries.verification import _LATTICE_HEAVY
from compseries.lattice import (
    _maximal_among,
    maximal_normal_member_sets,
    normal_member_sets,
)


# ---------------------------------------------------------------------------
# all_subgroups


def test_prime_cyclic_has_two_subgroups():
    for p in (2, 3, 5, 7):
        assert len(all_subgroups(realize_text(f"Z{p}"))) == 2


def test_elementary_abelian_64_has_2825_subgroups():
    # sum of Gaussian binomials C(6,k)_2 = 1+63+651+1395+651+63+1 = 2825
    assert len(all_subgroups(realize_text("E(2,6)"))) == 2825


def test_s3_has_six_subgroups():
    subs = all_subgroups(realize_text("S3"))
    assert len(subs) == 6
    assert subs.orders() == [1, 2, 2, 2, 3, 6]


def test_all_subgroups_no_duplicate_masks():
    subs = all_subgroups(realize_text("S4"))
    assert len(subs.masks()) == len(subs)  # dedup by bit set
    assert len(subs) == 30  # known subgroup count of S4


def test_all_subgroups_equal_closed_subsets_of_small_roster():
    """Independent of the join closure: every subset that contains 0 and is
    closed under the table is a subgroup (the group is finite)."""
    for name, spec in standard_roster(12):
        G = realize(spec)
        n = G.order
        closed = set()
        for bits in range(1 << (n - 1)):
            mem = np.array([0] + [x for x in range(1, n) if bits >> (x - 1) & 1])
            if np.isin(G.mult[np.ix_(mem, mem)], mem).all():
                closed.add(mask_of(mem.tolist()))
        assert all_subgroups(G).masks() == closed, name


@pytest.mark.parametrize("text", ["S4", "Z2xZ4"])
def test_public_queries_sort_by_order_then_members(text):
    G = realize_text(text)
    for query in (all_subgroups, normal_subgroups, maximal_normal_subgroups):
        keys = [(s.order, s.members) for s in query(G)]
        assert keys == sorted(keys), (text, query.__name__)


def test_a5_and_s5_subgroup_counts():
    assert len(all_subgroups(realize_text("A5"))) == 59
    assert len(all_subgroups(realize_text("S5"))) == 156


@pytest.mark.parametrize(
    "text, joins, subgroups",
    [("E(2,1)", 1, 2), ("E(2,2)", 4, 5), ("E(2,3)", 15, 16), ("E(2,4)", 66, 67),
     ("E(2,5)", 373, 374), ("E(2,6)", 2824, 2825), ("S4", 37, 30)],
)
def test_join_closure_extends_each_join_by_later_atoms_only(monkeypatch, text, joins, subgroups):
    # a join J is extended by atom <g> only when the coset J*g meets no seed of
    # an earlier atom; in F_2^k that coset is all of <J, g> outside J, so each
    # subgroup but the trivial one is built exactly once, while S4 still makes
    # 8 steps that land on a subgroup already found
    calls = []
    real = lattice.extend_members

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(lattice, "extend_members", counting)
    assert len(all_subgroups(realize_text(text))) == subgroups
    assert len(calls) == joins


def _join_closure_by_member_masks(G, seeds):
    """``lattice._join_closure`` with each mask an OR over the members and
    each join keyed by its flag bytes: the reference for its masks' order."""
    atoms = {}
    for seed in seeds:
        atoms.setdefault(mask_of(close_members(G, seed)), []).extend(seed)
    rows, inv = G.rows(), G.inv_list()
    trivial = bytearray(G.order)
    trivial[0] = 1
    joins, masks, keys = [([0], bytes(trivial), [])], [1], {bytes(trivial)}
    taken = []
    for seed in atoms.values():
        behind = mask_of(rows[e][inv[seed[0]]] for e in taken)
        for i in [i for i, m in enumerate(masks) if not m & behind]:
            members, key, gens = joins[i]
            join, flags, jgens = list(members), bytearray(key), list(gens)
            group_core.extend_members(G, join, flags, jgens, seed)
            if bytes(flags) not in keys:
                keys.add(bytes(flags))
                joins.append((join, bytes(flags), jgens))
                masks.append(mask_of(join))
        taken += seed
    return masks


@pytest.mark.parametrize("text, kind", [("S4", "all"), ("E(2,6)", "all"), ("A5xS4", "normal")])
def test_join_closure_masks_are_the_members_masks_in_order(realized, text, kind):
    G = realized(text)
    if kind == "all":
        seeds = [(g,) for g in range(1, G.order)]
    else:
        seeds = [c for c in group_core.conjugacy_classes(G) if c != (0,)]
    got = lattice._join_closure(G, seeds)
    assert got == _join_closure_by_member_masks(G, seeds)
    assert len(got) == {"S4": 30, "E(2,6)": 2825, "A5xS4": 8}[text]


# subspaces of F_2^k, k = 1..8: the sums of the Gaussian binomials [k j]_2
SUBSPACE_COUNTS = [2, 5, 16, 67, 374, 2825, 29212, 417199]


@pytest.mark.parametrize("k", range(1, 9))
def test_subspace_count_refuses_an_elementary_abelian_lattice_before_any_join(
    monkeypatch, realized, k
):
    G = realized(f"E(2,{k})")
    count, whole = SUBSPACE_COUNTS[k - 1], (1 << G.order) - 1
    if k <= 5:
        assert len(all_subgroups(G)) == count
    monkeypatch.setattr(config, "SUBGROUP_JOIN_CAP", count)
    lattice.check_walk_size(G, config.check_join_count)  # exactly at the cap: allowed
    monkeypatch.setattr(config, "SUBGROUP_JOIN_CAP", count - 1)

    def no_join(*args):
        raise AssertionError("a join closure ran")

    monkeypatch.setattr(lattice, "_join_closure", no_join)
    for build in (all_subgroups, lambda G: normal_member_sets(G, whole, G._gens)):
        with pytest.raises(CapacityError, match=f"^{count} subgroups exceed"):
            build(G)
    if k >= 3:
        # a subgroup of order 4 is F_2^2, with 5 subgroups
        plane = mask_of(close_members(G, [1, 2]))
        monkeypatch.setattr(config, "SUBGROUP_JOIN_CAP", 4)
        with pytest.raises(CapacityError, match="^5 subgroups exceed"):
            normal_member_sets(G, plane, [1, 2])


@pytest.mark.parametrize(
    "text, pairs",
    [
        ("Z12", [(2, 1), (3, 1)]),
        ("Z4xZ2", [(2, 2)]),
        ("Q8", [(2, 1)]),
        ("A4", []),
        ("Z6xS3", [(2, 1), (3, 1)]),
        ("E(3,2)xZ4", [(2, 1), (3, 2)]),
        ("E(2,3)xS3", [(2, 3)]),
    ],
)
def test_the_central_socle_count_is_the_number_of_its_subgroups(realized, text, pairs):
    # the subgroups of G inside its centre whose elements all have squarefree
    # order, found by the whole lattice and a brute-force centre
    G = realized(text)
    rows, n = G.rows(), G.order
    centre = {z for z in range(n) if all(rows[g][z] == rows[z][g] for g in range(n))}

    def squarefree_order(x):
        k, y = 1, x
        while y:
            k, y = k + 1, rows[y][x]
        return all(k % (p * p) for p in range(2, k + 1))

    socle = [
        H for H in all_subgroups(G) if all(x in centre and squarefree_order(x) for x in H.members)
    ]
    assert lattice.central_socle_exponents(G) == pairs
    assert lattice.socle_subgroup_count(pairs) == len(socle)


@pytest.mark.parametrize(
    "text, bound",
    [
        ("S3", 2),
        ("A4", 2),
        ("Z4xS3", 4),
        ("E(2,3)xS3", 32),
        ("D8", 2),
        ("Q8", 2),
        ("D8xS3", 2),
        ("Z3xQ8", 4),
    ],
)
def test_the_socle_bound_doubles_when_the_derived_subgroup_misses_the_centre(
    realized, text, bound
):
    # G' meets Z(G) trivially in the first four; in the rest it holds the
    # centre of the D8 or Q8 factor
    assert lattice.socle_bound(realized(text)) == bound


def test_the_centre_is_not_read_for_a_lattice_when_the_orders_own_count_fits(monkeypatch):
    # at the real join cap, no order below 256 reads its centre
    counts = [lattice.socle_subgroup_count(prime_exponents(n)) for n in range(1, 256)]
    assert max(counts) == 29212 <= config.SUBGROUP_JOIN_CAP

    def no_centre(G):
        raise AssertionError("the centre was read")

    # |S4| = 24 = 2^3 * 3, and F_2^3 x F_3 has 16 * 2 = 32 subgroups; S4 has
    # 30, 4 of them normal.  One below that, the gate reads the centre
    # through the patched function.
    monkeypatch.setattr(lattice, "socle_bound", no_centre)
    monkeypatch.setattr(config, "SUBGROUP_JOIN_CAP", 32)
    assert len(all_subgroups(realize_text("S4"))) == 30
    assert len(normal_subgroups(realize_text("S4"))) == 4
    monkeypatch.setattr(config, "SUBGROUP_JOIN_CAP", 31)
    for build in (all_subgroups, normal_subgroups):
        with pytest.raises(AssertionError, match="the centre was read"):
            build(realize_text("S4"))


def _assert_the_gate_fits_the_walks(G):
    """socle_bound(G) <= G's normal subgroups <= the count walk's memo, and
    the bound from |G|'s prime powers is at least socle_bound(G)."""
    full = (1 << G.order) - 1
    memo = {1: 1}
    if G.order > 1:
        series._count(G, full, memo)
    bound = lattice.socle_bound(G)
    normals = len(normal_member_sets(G, full, G._gens))
    assert bound <= normals <= len(memo)
    assert lattice.socle_subgroup_count(prime_exponents(G.order)) >= bound
    return bound, normals


@pytest.mark.parametrize("text", [name for name, _ in standard_roster(128)])
def test_the_gate_never_refuses_a_roster_walk_that_fits(realized, text):
    bound, normals = _assert_the_gate_fits_the_walks(realized(text))
    if text.startswith("E(") and "x" not in text:  # F_p^k is its own socle
        assert bound == normals


_GATE_ATOMS = {
    "Z2": 2, "Z3": 3, "Z4": 4, "S3": 6, "D8": 8, "Q8": 8, "A4": 12, "E(2,2)": 4, "E(3,2)": 9,
    "D10": 10,
}


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.sampled_from(sorted(_GATE_ATOMS)), min_size=2, max_size=3).filter(
        lambda atoms: math.prod(map(_GATE_ATOMS.get, atoms)) <= 256
    )
)
def test_the_gate_never_refuses_a_product_walk_that_fits(atoms):
    _assert_the_gate_fits_the_walks(realize_text("x".join(atoms)))


@pytest.mark.parametrize("text", ["S4", "D8xZ3", "A4xZ2", "S3xS3", "Q8xS4", "A5"])
def test_normal_member_sets_of_every_subgroup_filter_its_lattice(text):
    # the class-seed closure on proper subgroups H: the joins of the normal
    # closures in H of H's classes are the subgroups of H normal in H
    G = realize_text(text)
    subs = all_subgroups(G)
    for H in subs:
        gens = _dimino_close(G, H.members)[2]
        want = [
            K.mask for K in subs
            if K.mask | H.mask == H.mask and _members_normal_in(G, K.members, gens)
        ]
        assert sorted(normal_member_sets(G, H.mask, gens)) == sorted(want), H.members


def test_all_subgroups_cap():
    # past the cap, the normal lattice of an abelian group is its whole lattice
    G = realize_text("Z257")
    with pytest.raises(CapacityError, match="subgroup-enumeration cap"):
        all_subgroups(G)
    with pytest.raises(CapacityError, match="subgroup-enumeration cap"):
        normal_subgroups(G)


# ---------------------------------------------------------------------------
# normal_subgroups


def test_a5_normals_are_trivial_and_full():
    subs = normal_subgroups(realize_text("A5"))
    assert subs.orders() == [1, 60]


def test_s4_normal_orders():
    assert normal_subgroups(realize_text("S4")).orders() == [1, 4, 12, 24]


def test_abelian_normals_equal_all_subgroups():
    for text in ["Z12", "E(3,2)", "Z8xZ2", "Ab(2^2+1)"]:
        G = realize_text(text)
        assert normal_subgroups(G).masks() == all_subgroups(G).masks()


def test_normal_equals_filtered_all_subgroups():
    """The class-join algorithm agrees with filtering the full lattice."""
    for text in ["S3", "D8", "Q8", "D12", "A4", "S4", "Z36", "S3xZ4", "A5"]:
        G = realize_text(text)
        filtered = {H.mask for H in all_subgroups(G) if is_normal(G, H)}
        assert normal_subgroups(G).masks() == filtered, text


def test_normal_subgroups_respects_element_cap(monkeypatch):
    G = realize_text("Z16")
    monkeypatch.setenv("COMPSERIES_ELEMENT_CAP", "8")
    with pytest.raises(CapacityError, match="cap"):
        normal_subgroups(G)


# ---------------------------------------------------------------------------
# maximal_normal_subgroups


def test_maximal_normals_reuse_the_normal_lattice(monkeypatch):
    G = realize_text("A5xA5")  # a fresh table: nothing cached on it yet
    full_lattices = []
    real = lattice.classes_of_members

    def counting(H, members, gens):  # the first step of building a normal lattice
        if len(members) == H.order:
            full_lattices.append(H)
        return real(H, members, gens)

    monkeypatch.setattr(lattice, "classes_of_members", counting)
    assert len(normal_subgroups(G)) == 4
    assert maximal_normal_subgroups(G).orders() == [60, 60]
    assert full_lattices == [G]


def test_maximal_normals_close_each_subgroup_once(monkeypatch):
    """On a non-abelian G each maximal-normal call closes H's members once,
    for the generators that every predicate it calls is given."""
    G = realize_text("A5xS4")  # a fresh table: nothing cached on it yet
    real_close, real_route = group_core._dimino_close, lattice.maximal_normal_member_sets
    running = []  # H's mask while a maximal-normal call runs
    closures = []  # per call: closures whose seed is H's members

    def counting_close(H, seed):
        seed = list(seed)
        if running and len(seed) == running[0].bit_count() and mask_of(seed) == running[0]:
            closures[-1] += 1
        return real_close(H, seed)

    def route(H, mask):
        running.append(mask)
        closures.append(0)
        try:
            return real_route(H, mask)
        finally:
            running.pop()

    monkeypatch.setattr(group_core, "_dimino_close", counting_close)
    monkeypatch.setattr(lattice, "_dimino_close", counting_close)
    monkeypatch.setattr(lattice, "maximal_normal_member_sets", route)
    assert count_series(G).value == 15
    # 13 subgroups H: 4 abelian, 2 solvable non-abelian and 7 non-solvable,
    # among them A5, whose derived series starts at A5 itself
    assert closures == [1] * 13


@pytest.mark.parametrize("text, count, closures", [("S4", 3, 13), ("S4xS4", 5346, 258)])
def test_count_series_closure_calls_are_pinned(monkeypatch, text, count, closures):
    """Dimino closures in one series count on a fresh table.  Each predicate
    reads the generators it is passed and H' comes back with its own, so no
    member tuple is closed again for its generators (the counts were 16 and
    323 when the predicates closed their members themselves)."""
    G = realize_text(text)
    real_close = group_core._dimino_close
    calls = []

    def counting_close(H, seed):
        calls.append(H)
        return real_close(H, seed)

    monkeypatch.setattr(group_core, "_dimino_close", counting_close)
    monkeypatch.setattr(lattice, "_dimino_close", counting_close)
    assert count_series(G).value == count
    assert len(calls) == closures


def test_z12_maximal_normals():
    subs = maximal_normal_subgroups(realize_text("Z12"))
    assert subs.orders() == [4, 6]


def test_e23_has_seven_hyperplanes():
    subs = maximal_normal_subgroups(realize_text("E(2,3)"))
    assert len(subs) == 7  # (2^3 - 1)/(2 - 1)
    assert all(s.order == 4 for s in subs)


def test_trivial_group_has_no_maximal_normal():
    with pytest.raises(DomainError):
        maximal_normal_subgroups(realize_text("Z1"))


def test_maximal_normals_are_maximal_proper_normals():
    for text in ["S4", "D12", "Q8", "Z36", "A4xZ2"]:
        G = realize_text(text)
        normals = normal_subgroups(G)
        maximal = maximal_normal_subgroups(G)
        for M in maximal:
            assert is_normal(G, M)
            assert M.order < G.order
            # contained in no other proper normal subgroup
            for H in normals:
                if H.order < G.order and H.mask != M.mask:
                    assert not (M.mask & ~H.mask == 0), (text, M, H)


def _class_join_normals(G, mask):
    """The normal subgroups of the subgroup H of bit mask ``mask`` by the
    class-seed join closure, whether or not H is abelian: for an abelian H
    ``normal_member_sets`` descends through ``maximal_normal_member_sets``,
    so it is no check on that route."""
    members = members_of(mask)
    gens = _dimino_close(G, members)[2]
    classes = [c for c in classes_of_members(G, members, gens) if c != (0,)]
    return lattice._join_closure(G, classes)


def test_fast_maximal_path_matches_lattice_filter():
    """Prime-index kernel route vs filtering the normal lattice directly."""
    for text in ["Z24", "E(2,4)", "Ab(2^2+1;3^1)", "S4", "D16", "Q8xZ3", "A4", "A5", "S3xS3"]:
        G = realize_text(text)
        full = (1 << G.order) - 1
        fast = set(maximal_normal_member_sets(G, full))
        slow = set(_maximal_among(_class_join_normals(G, full), G.order))
        assert fast == slow, text


def test_maximal_member_sets_of_proper_subgroups():
    """The recursion's subgroup-level calls agree with quotient-free filtering."""
    G = realize_text("S4")
    for H in all_subgroups(G):
        if H.order == 1:
            continue
        fast = set(maximal_normal_member_sets(G, H.mask))
        slow = set(_maximal_among(_class_join_normals(G, H.mask), H.order))
        assert fast == slow, H.members


def _assert_route_matches_lattice(G, mask, label):
    """maximal_normal_member_sets vs the maximal proper normal subgroups."""
    masks = maximal_normal_member_sets(G, mask)
    assert len(set(masks)) == len(masks), label
    normals = _class_join_normals(G, mask)
    assert set(masks) == set(_maximal_among(normals, mask.bit_count())), label


def test_prime_index_route_on_every_subgroup_of_non_abelian_roster(roster_tables):
    """Every non-trivial subgroup of each non-abelian roster group of order <= 128."""
    checked = 0
    for name, _, G in roster_tables:
        if G.order > 128 or G.is_abelian:
            continue
        for H in all_subgroups(G):
            if H.order > 1:
                _assert_route_matches_lattice(G, H.mask, (name, H.members))
                checked += 1
    assert checked == 1614


def test_prime_index_route_on_every_subgroup_of_abelian_roster(roster_tables):
    """Every non-trivial subgroup of each abelian roster group of order <= 64,
    81 or 125.

    Covers K = H^p > 1 (Z4xZ4, Ab(2^3+2), Z2xZ8, Z9xZ9, Ab(5^2+1)) and odd p
    up to rank 4 (E(3,4), E(5,3)); E(2,6) alone would add 2,824 subgroups of
    one shape, and its slice route is checked against the coset route in
    ``test_slice_route_on_every_subgroup_of_e26``.
    """
    checked = 0
    for name, _, G in roster_tables:
        if not G.is_abelian or name == "E(2,6)" or G.order > 64 and G.order not in (81, 125):
            continue
        for H in all_subgroups(G):
            if H.order > 1:
                _assert_route_matches_lattice(G, H.mask, (name, H.members))
                checked += 1
    assert checked == 773 + 322


def test_slice_route_on_every_subgroup_of_e26(realized):
    """The coordinate-slice route vs the coset route on all 2,824 non-trivial
    subgroups of E(2,6)."""
    G = realized("E(2,6)")
    assert len(lattice._coordinate_slices(G)) == 6
    checked = 0
    for H in all_subgroups(G):
        if H.order > 1:
            got = maximal_normal_member_sets(G, H.mask)
            assert len(set(got)) == len(got) == H.order - 1, H.members
            assert set(got) == set(lattice._prime_index_masks(G, H.members, (0,))), H.members
            checked += 1
    assert checked == 2824


@pytest.mark.parametrize("k", range(1, 7))
def test_elementary_abelian_table_has_k_coordinate_slices(k):
    G = realize_text(f"E(2,{k})")
    slices = lattice._coordinate_slices(G)
    assert len(slices) == k
    # x -> its coordinate vector is an isomorphism onto F_2^k
    coord = [sum((s >> x & 1) << j for j, s in enumerate(slices)) for x in range(G.order)]
    assert sorted(coord) == list(range(G.order))
    rows = G.rows()
    assert all(
        coord[rows[x][y]] == coord[x] ^ coord[y] for x in range(G.order) for y in range(G.order)
    )


@pytest.mark.parametrize("text", ["Z1", "Z4", "Z2xZ4", "E(3,3)", "S3", "D8"])
def test_other_tables_have_no_coordinate_slices(text):
    assert lattice._coordinate_slices(realize_text(text)) == []


@pytest.mark.parametrize(
    "text, maximals", [("E(3,3)", 13), ("E(5,2)", 6), ("Z30", 3), ("E(2,2)xE(3,2)", 7)]
)
def test_table_maximal_route_on_every_subgroup(text, maximals):
    """The cuts of the table's maximal subgroups vs the coset route on every
    non-trivial subgroup of an abelian table of squarefree exponent."""
    G = realize_text(text)
    assert lattice._coordinate_slices(G) == []
    assert len(lattice._table_maximals(G)) == maximals
    for H in all_subgroups(G):
        if H.order > 1:
            got = maximal_normal_member_sets(G, H.mask)
            assert len(set(got)) == len(got), H.members
            assert set(got) == set(lattice._prime_index_masks(G, H.members, (0,))), H.members


@pytest.mark.parametrize("text", ["Z4xZ2", "Z9xZ3", "S4", "E(2,4)"])
def test_other_tables_have_no_table_maximals(text):
    # a p-th power that is not trivial, a non-abelian table, and F_2^4,
    # which keeps its coordinate slices
    G = realize_text(text)
    assert lattice._table_maximals(G) == []
    assert len(lattice._coordinate_slices(G)) == (4 if text == "E(2,4)" else 0)


def test_descent_is_the_whole_lattice_of_every_abelian_roster_group():
    """The descent through maximal subgroups vs the join closure of the
    cyclic subgroups, on fresh tables of every abelian roster group of order
    <= 128 whose lattice the verify check walks."""
    checked = 0
    for name, spec in standard_roster(128):
        if name in _LATTICE_HEAVY:
            continue
        G = realize(spec)
        if not G.is_abelian:
            continue
        full = (1 << G.order) - 1
        descent = normal_member_sets(G, full, G._gens)
        assert len(set(descent)) == len(descent), name
        assert set(descent) == all_subgroups(G).masks(), name
        checked += 1
    assert checked == 48


def test_descent_is_held_to_the_join_cap(monkeypatch):
    # E(3,3) has 28 subgroups; no join closure runs, and the subspace count
    # of F_2^r does not apply to it
    G = realize_text("E(3,3)")
    full = (1 << G.order) - 1

    def no_join(*args):
        raise AssertionError("a join closure ran")

    monkeypatch.setattr(lattice, "_join_closure", no_join)
    monkeypatch.setattr(config, "SUBGROUP_JOIN_CAP", 28)
    assert len(normal_member_sets(G, full, G._gens)) == 28
    G = realize_text("E(3,3)")
    monkeypatch.setattr(config, "SUBGROUP_JOIN_CAP", 27)
    with pytest.raises(CapacityError, match="^28 subgroups exceed"):
        normal_member_sets(G, full, G._gens)


@pytest.mark.parametrize(
    "text",
    [
        "A5xS4", "S4xA5", "A5xA4", "E(2,2)xA5", "Z6xA5",
        "D8xA5", "S4xS4", "Q8xS4", "A4xA4", "S5xZ3",
    ],
)
def test_prime_index_route_on_whole_products(text):
    G = realize_text(text)
    _assert_route_matches_lattice(G, (1 << G.order) - 1, text)


def test_prime_index_route_needs_the_derived_subgroup(heisenberg3):
    """The Heisenberg group mod 3 has exponent 3, so H^3 is trivial and only
    H' * H^3 = H' gives the elementary abelian quotient Z3^2."""
    G = heisenberg3
    assert G.order == 27
    full = (1 << 27) - 1
    _assert_route_matches_lattice(G, full, "Heisenberg(3)")
    assert len(maximal_normal_member_sets(G, full)) == 4


def _ref_prime_index_masks(G, members, d):
    """``lattice._prime_index_masks`` with one dot product per (coset, map)
    pair: each kernel is the OR of the masks of the cosets it sends to 0."""
    rows = G.rows()
    out = []
    for p, _ in group_core.prime_exponents(len(members) // len(d)):
        powers = {group_core.element_power(G, x, p) for x in members}
        kernel = d if len(powers) == 1 else close_members(G, (*d, *powers))
        coset_of = {}
        masks = {}
        for x in members:
            if x not in coset_of:
                coset = [rows[x][t] for t in kernel]
                coset_of.update(dict.fromkeys(coset, x))
                masks[x] = mask_of(coset)
        rank, coords = _ref_elem_abelian_coords(G, list(masks), coset_of, p)
        cosets = [(coords[x], m) for x, m in masks.items()]
        for lead in range(rank):
            for rest in itertools.product(range(p), repeat=rank - lead - 1):
                phi = (0,) * lead + (1,) + rest
                msk = 0
                for c, m in cosets:
                    if not sum(a * b for a, b in zip(c, phi)) % p:
                        msk |= m
                out.append(msk)
    return out


def _ref_elem_abelian_coords(G, reps, coset_of, p):
    """Coordinates of the elementary abelian p-group quotient spanned by ``reps``.

    ``coset_of`` maps each element to the rep of its coset, and ``reps``
    holds one rep per coset, the identity's first.  Returns (rank, coords)
    where coords maps each rep to the tuple of its residues mod p, basis
    vectors picked greedily in rep order.  Kept apart from the package's
    level-mask routine, so that the dot-product reference shares no code
    with the route it checks.
    """
    q = len(reps)
    rows = G.rows()
    coords = {0: ()}
    d = 0
    for g in reps:
        if g in coords:
            continue
        for r, c in list(coords.items()):
            c = c + (0,) * (d - len(c))
            cur = r
            for j in range(1, p):
                cur = coset_of[rows[cur][g]]
                coords[cur] = c + (j,)
        d += 1
        if len(coords) == q:
            break
    coords = {k: v + (0,) * (d - len(v)) for k, v in coords.items()}
    return d, coords


def _assert_hyperplanes_match_dot_products(G, H, label):
    d = group_core.derived_members(G, _dimino_close(G, H)[2])[0]
    got = lattice._prime_index_masks(G, H, d)
    assert set(got) == set(_ref_prime_index_masks(G, H, d)), label
    # in a p-group the hyperplanes meet in K, and H / K has order p^r
    [(p, _)] = group_core.prime_exponents(len(H))
    k = functools.reduce(operator.and_, got).bit_count()
    assert len(got) == len(set(got)) == (len(H) // k - 1) // (p - 1), label
    assert all(m.bit_count() * p == len(H) for m in got), label


@pytest.mark.parametrize("text", ["E(3,4)", "E(5,3)", "Z9xZ9", "Heisenberg(3)"])
def test_hyperplane_walk_matches_dot_products_on_every_subgroup(realized, heisenberg3, text):
    G = heisenberg3 if text == "Heisenberg(3)" else realized(text)
    for H in all_subgroups(G):
        if H.order > 1:
            _assert_hyperplanes_match_dot_products(G, H.members, (text, H.members))


@pytest.mark.parametrize("text, hyperplanes", [("E(3,5)", 121), ("E(7,3)", 57)])
def test_hyperplane_walk_matches_dot_products_on_whole_groups(realized, text, hyperplanes):
    G = realized(text)
    _assert_hyperplanes_match_dot_products(G, tuple(range(G.order)), text)
    assert len(lattice._prime_index_masks(G, tuple(range(G.order)), (0,))) == hyperplanes


# ---------------------------------------------------------------------------
# maximal_subgroups_count


def test_maximal_count_z2z2z3():
    assert maximal_subgroups_count(realize_text("Z2xZ2xZ3")) == 4  # 3 + 1


def test_maximal_count_cyclic_prime_square():
    assert maximal_subgroups_count(realize_text("Z9")) == 1
    assert maximal_subgroups_count(realize_text("Z25")) == 1


def test_maximal_count_s3():
    assert maximal_subgroups_count(realize_text("S3")) == 4


def test_coprime_additivity():
    """m(P1 x P2) = m(P1) + m(P2) for coprime orders."""
    for t1, t2 in [("Z4", "Z3"), ("E(2,2)", "Z3"), ("S3", "Z5"), ("Q8", "Z3")]:
        lhs = maximal_subgroups_count(realize_text(f"{t1}x{t2}"))
        rhs = maximal_subgroups_count(realize_text(t1)) + maximal_subgroups_count(
            realize_text(t2)
        )
        assert lhs == rhs, (t1, t2)
