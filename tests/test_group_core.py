"""Group table construction, closure, normality, quotients, conjugacy."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compseries import (
    CapacityError,
    DomainError,
    GroupTable,
    Subgroup,
    build_from_generators,
    conjugacy_classes,
    generated_subgroup,
    is_normal,
    is_simple,
    quotient,
)
from compseries import group_core
from compseries.catalog import realize_text
from compseries.config import SUBGROUP_ENUM_CAP, element_cap_in_force
from compseries.group_core import (
    _dimino_close,
    _members_normal_in,
    classes_of_members,
    close_members,
    coset_quotient,
    derived_members,
    element_power,
    is_abelian_members,
    mask_of,
    mask_of_flags,
    members_of,
)
from compseries.lattice import all_subgroups


def s4_table():
    # index 1 = the 4-cycle generator, index 2 = the transposition generator
    return build_from_generators(4, [(1, 2, 3, 0), (1, 0, 2, 3)])


# ---------------------------------------------------------------------------
# build_from_generators


def test_build_single_transposition():
    G = build_from_generators(2, [(1, 0)])
    assert G.order == 2


def test_build_a5_from_standard_generators():
    G = build_from_generators(5, [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)])
    assert G.order == 60  # |A5| = 5!/2


def test_build_empty_generators_is_trivial():
    G = build_from_generators(1, [])
    assert G.order == 1


def test_build_identity_is_index_zero():
    G = s4_table()
    assert G.identity == 0
    assert list(G.mult[0]) == list(range(24))


def test_build_cap_exceeded():
    with element_cap_in_force(10), pytest.raises(CapacityError, match="cap"):
        build_from_generators(4, [(1, 2, 3, 0), (1, 0, 2, 3)])


def test_build_rejects_non_permutation():
    with pytest.raises(DomainError):
        build_from_generators(3, [(0, 0, 1)])


# ---------------------------------------------------------------------------
# GroupTable validation


def test_table_rejects_bad_identity():
    with pytest.raises(DomainError, match="identity"):
        GroupTable([[1, 0], [0, 1]])


def test_table_rejects_non_latin():
    with pytest.raises(DomainError, match="row"):
        GroupTable([[0, 1, 2], [1, 1, 0], [2, 0, 1]])
    # every row a permutation, column 1 not
    with pytest.raises(DomainError, match="column"):
        GroupTable([[0, 1, 2], [1, 2, 0], [2, 1, 0]])


@pytest.mark.parametrize(
    "mult, match",
    [
        # the int16 cast would wrap 65537 to 1, and truncate 1.7 to 1: Z2 either way
        (np.array([[0, 65537], [65537, 0]]), "out of range"),
        ([[0, 1.7], [1.7, 0]], "integers"),
    ],
)
def test_table_rejects_entries_the_cast_would_change(mult, match):
    with pytest.raises(DomainError, match=match):
        GroupTable(mult)


def test_table_rejects_nonassociative_loop():
    # A Latin square with two-sided identity that is not a group (index 1
    # would have order 2, impossible at order 5).
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(DomainError, match="associativity"):
        GroupTable(loop)


@pytest.mark.parametrize("cyc", [300, 600], ids=["Z300xZ2", "Z600xZ2"])
def test_table_rejects_nonassociative_latin_square_past_the_old_exact_cap(cyc):
    # Z300xZ2 (order 600) and Z600xZ2 (order 1200) with the intercalate at
    # rows 14, 15 and columns 22, 23 swapped: still Latin with identity 0, but
    # (x*2)*y != x*(2*y) for some x, y.  10*N random triples missed both.
    mult = group_core._product_mult(group_core.cyclic_mult(cyc), group_core.cyclic_mult(2))
    rows, cols = [14, 14, 15, 15], [22, 23, 22, 23]
    assert mult[rows, cols].tolist() == [36, 37, 37, 36]
    mult[rows, cols] = [37, 36, 36, 37]
    with pytest.raises(DomainError, match="associativity"):
        GroupTable(mult)


def test_table_rejects_a_swapped_intercalate_in_any_row_block():
    # In Z300xZ2, rows 2k, 2k+1 and columns 2j, 2j+1 hold an intercalate
    # [[v, v+1], [v+1, v]].  Swapped, the table stays Latin with identity 0 but
    # is no group.  Light's test reads its 600 rows in blocks of 218, 218 and
    # 164; the swapped rows lie in the first block, at both sides of the first
    # boundary, and at the end of the last block.
    base = group_core._product_mult(group_core.cyclic_mult(300), group_core.cyclic_mult(2))
    assert group_core._BLOCK_ENTRIES // 600 == 218
    for k in (1, 108, 109, 110, 299):
        mult = base.copy()
        rows, cols = [2 * k, 2 * k, 2 * k + 1, 2 * k + 1], [22, 23, 22, 23]
        mult[rows, cols] = mult[rows, cols][[1, 0, 3, 2]]
        with pytest.raises(DomainError, match="associativity"):
            GroupTable(mult)


def test_table_rejects_a_swapped_intercalate_failing_only_in_last_rows_of_blocks():
    # Z360xZ2, numbered 2i + b, is relabeled so that its rows 98-101 become
    # 181, 363, 545 and 719, the last rows of Light's blocks of 182.  Light's
    # generators are 1 = (0, 1) and 2 = (1, 0).  With the intercalate at rows
    # (50, 0), (50, 1), now 545 and 719, and columns 22, 23 swapped, the
    # generator 1 passes and the generator 2 fails at those two rows and at
    # (49, 0), (49, 1), now 181 and 363: no row but the last of a block fails
    n = 720
    step = group_core._BLOCK_ENTRIES // n
    last_rows = [181, 363, 545, 719]
    assert step == 182 and last_rows == list(range(step - 1, n, step)) + [n - 1]
    base = group_core._product_mult(group_core.cyclic_mult(360), group_core.cyclic_mult(2))
    label = np.arange(n)
    label[[98, 99, 100, 101] + last_rows] = last_rows + [98, 99, 100, 101]
    mult = np.empty_like(base)
    mult[np.ix_(label, label)] = label[base]
    assert GroupTable(mult.copy())._gens == [1, 2]  # the table keeps its array
    rows, cols = [545, 545, 719, 719], [22, 23, 22, 23]
    mult[rows, cols] = mult[rows, cols][[1, 0, 3, 2]]
    failing = set()
    for a in (1, 2):  # (x*a)*y != x*(a*y) for some y
        failing.update(np.flatnonzero((mult[mult[:, a]] != mult[:, mult[a]]).any(axis=1)))
    assert failing == set(last_rows)
    with pytest.raises(DomainError, match="associativity fails with middle factor 2"):
        GroupTable(mult)


def _right_product_reach(mult, gens):
    """How many indices right products with ``gens`` reach from 0 in ``mult``."""
    reached, frontier = {0}, [0]
    for x in frontier:  # frontier grows while it is walked
        for a in gens:
            y = int(mult[x, a])
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    return len(reached)


def test_product_validation_picks_the_paired_generators():
    # A5 and S4 are each generated by their indices 1 and 2, so A5xS4 by the
    # pairs (1, 1) = 25 and (2, 2) = 50
    G = realize_text("A5xS4")
    assert G._gens == [25, 50]
    assert _right_product_reach(G.mult, G._gens) == 1440


def test_product_validation_falls_back_when_the_pairs_generate_too_little(realized):
    # in A5xA5 the pairs (1, 1) and (2, 2) generate the diagonal, of order 60;
    # the least index they miss, 1 = (0, 1), completes a generating set
    G = realized("A5xA5")
    assert len(close_members(G, [61, 122])) == 60
    assert G._gens == [61, 122, 1]
    assert _right_product_reach(G.mult, [61, 122]) == 60
    assert _right_product_reach(G.mult, G._gens) == 3600


def test_product_table_with_a_swapped_intercalate_fails_with_the_paired_candidates():
    # rows a, a*u and columns c, u*c of a group table, u an involution, hold an
    # intercalate [[x, y], [y, x]]; swapped, the table stays Latin with
    # identity 0 and right inverses, but is no group
    G = realize_text("A5xS4")
    assert G._gens == [25, 50]
    rows = G.rows()
    u = next(e for e in range(1, G.order) if rows[e][e] == 0)
    a, c = 3, 5
    au, uc = rows[a][u], rows[u][c]
    x, y = rows[a][c], rows[a][uc]
    assert 0 not in (au, uc, x, y) and rows[au][c] == y and rows[au][uc] == x
    mult = G.mult.copy()
    mult[[a, a, au, au], [c, uc, c, uc]] = [y, x, x, y]
    with pytest.raises(DomainError, match="associativity"):
        GroupTable(mult, G._gens)


def test_table_rejects_an_out_of_range_generator_candidate():
    with pytest.raises(DomainError, match="candidate out of range"):
        GroupTable(group_core.cyclic_mult(4), [4])


def test_table_validation_allocates_no_square_temporary():
    # the A5xS4 product array is 1440 x 1440 int16, 3.96 MiB; the Latin sorts
    # and the whole-table gathers of Light's test peaked at 5.95 MiB
    a5, s4 = realize_text("A5"), realize_text("S4")
    mult = group_core._product_mult(a5.mult, s4.mult)
    tracemalloc.start()
    try:
        G = GroupTable(mult)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.order == 1440 and G.mult is mult
    assert peak < 2**20, peak


def test_table_rejects_non_square():
    with pytest.raises(DomainError):
        GroupTable([[0, 1]])


def test_inverse_table():
    G = realize_text("Z12")
    for x in range(12):
        assert G.mult[x, G.inv[x]] == 0


def test_is_abelian_is_whether_the_generators_commute(roster_tables, realized):
    tables = [G for _, _, G in roster_tables if G.order <= 128]
    tables += [realized("A5xS4"), realized("Z600xZ2")]
    # validated without candidates: generators (1, 2, 4, 8), of which only
    # the last pair fails to commute
    tables.append(GroupTable(realize_text("S3xZ2xZ2").mult))
    assert {G.is_abelian for G in tables} == {True, False}
    for G in tables:
        assert G.is_abelian == bool((G.mult == G.mult.T).all()), G


# ---------------------------------------------------------------------------
# generated_subgroup / close_members


def test_generated_empty_seed_is_trivial():
    G = realize_text("Z12")
    H = generated_subgroup(G, set())
    assert H.order == 1 and H.members == (0,)


def test_generated_z12_seed_4():
    G = realize_text("Z12")  # element i is the residue i
    H = generated_subgroup(G, {4})
    assert H.members == (0, 4, 8)


def test_generated_s4_cycle_and_transposition():
    G = s4_table()
    H = generated_subgroup(G, {1, 2})
    assert H.order == 24


def test_generated_is_idempotent():
    G = s4_table()
    for H in all_subgroups(G):
        assert close_members(G, H.members) == H.members


def _pairwise_closure(G, seed):
    """Reference closure: multiply all pairs until the member set is stable."""
    cur = np.unique(np.array([0, *seed], dtype=np.intp))
    while True:
        new = np.unique(G.mult[np.ix_(cur, cur)])
        if new.size == cur.size:
            return tuple(int(x) for x in new)
        cur = new


# S4 and D12xQ8 are small tables, A5xS4 one of order 1440
@pytest.mark.parametrize("text", ["S4", "D12xQ8", "A5xS4"])
def test_close_members_matches_pairwise_closure(text, realized):
    G = realized(text)
    rng = random.Random(G.order)
    seeds = [[rng.randrange(G.order) for _ in range(k)] for k in (1, 1, 2, 2, 3, 3)]
    # larger random sets, which are not subgroups, with repeats and the identity
    seeds += [rng.choices(range(G.order), k=G.order // 8) + [0] for _ in range(3)]
    for seed in seeds:
        assert close_members(G, seed) == _pairwise_closure(G, seed), seed
    assert close_members(G, []) == (0,)


def _ref_extend(G, members, flags, gens, seed):
    """``group_core.extend_members`` by whole right cosets S*t, t = r*h, each
    read one member row at a time."""
    rows = G.rows()
    for g in seed:
        if flags[g]:
            continue
        gens.append(g)
        reps = [0]
        sub_rows = [rows[s] for s in members]
        for r in reps:
            row = rows[r]
            for h in gens:
                t = row[h]
                if not flags[t]:
                    coset = [sr[t] for sr in sub_rows]
                    for e in coset:
                        flags[e] = 1
                    members += coset
                    reps.append(t)


def test_extend_members_matches_right_coset_step(roster_tables, realized, heisenberg3):
    """The left-coset step builds the members, flags and generators that the
    right-coset step builds, from the trivial subgroup, on every roster table
    of order <= 128, A5xS4 and the Heisenberg group mod 3."""
    tables = [G for _, _, G in roster_tables if G.order <= 128]
    tables += [realized("A5xS4"), heisenberg3]
    rng = random.Random(27)
    for G in tables:
        seeds = [G._gens, rng.sample(range(G.order), G.order), [rng.randrange(G.order)]]
        for seed in seeds:
            got, ref = ([0], bytearray(G.order), []), ([0], bytearray(G.order), [])
            got[1][0] = ref[1][0] = 1
            group_core.extend_members(G, *got, seed)
            _ref_extend(G, *ref, seed)
            members, flags, gens = got
            assert sorted(members) == sorted(ref[0]), (G, seed)
            assert len(set(members)) == len(members), (G, seed)
            assert flags == ref[1] and mask_of_flags(flags) == mask_of(members), (G, seed)
            assert gens == ref[2], (G, seed)


def test_members_of_inverts_mask_of():
    rng = random.Random(11)
    assert members_of(0) == () and mask_of(()) == 0
    # bits above 3,000 are those of A5xA5, the largest table the catalog builds
    assert members_of(mask_of((0, 3001, 3599))) == (0, 3001, 3599)
    for n in (1, 2, 64, 128, 1440, 3600):
        for _ in range(10):
            mem = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
            assert members_of(mask_of(mem)) == mem
            mask = rng.getrandbits(n)
            assert mask_of(members_of(mask)) == mask


def test_mask_of_flags_matches_mask_of():
    rng = random.Random(13)
    for n in (1, 64, 1440, 3600):
        for _ in range(10):
            mem = rng.sample(range(n), rng.randint(1, n))
            flags = bytearray(n)
            for x in mem:
                flags[x] = 1
            assert mask_of_flags(flags) == mask_of_flags(bytes(flags)) == mask_of(mem)
    assert mask_of_flags(bytearray(1)) == 0


@pytest.mark.parametrize("text", ["D12xQ8", "A5xS4"])
def test_close_members_rejects_out_of_range_seed(text, realized):
    G = realized(text)
    for bad in (G.order, -1):
        with pytest.raises(DomainError, match="out of range"):
            close_members(G, [1, bad])


# ---------------------------------------------------------------------------
# the generator-based primitives against O(m^2) definitions, on tables of
# order 24 (S4), 96 (D12xQ8) and 1440 (A5xS4)


def _ref_derived(G, mem):
    """Closure of all m^2 commutators a b a^-1 b^-1."""
    a = np.array(mem)
    ab = G.mult[np.ix_(a, a)]
    comms = G.mult[G.mult[ab, G.inv[a][:, None]], G.inv[a][None, :]]
    return _pairwise_closure(G, np.unique(comms))


def _ref_classes(G, mem):
    """Classes by conjugating each element by every member."""
    a = np.array(mem)
    seen, out = set(), []
    for x in mem:
        if x not in seen:
            cls = tuple(int(v) for v in np.unique(G.mult[G.mult[a, x], G.inv[a]]))
            seen.update(cls)
            out.append(cls)
    return out


def _ref_is_abelian(G, mem):
    """All pairs commute."""
    a = np.array(mem)
    sub = G.mult[np.ix_(a, a)]
    return bool(np.array_equal(sub, sub.T))


def _ref_normal_in(G, inner, outer):
    """Every g h g^-1, g in outer and h in inner, lies in inner."""
    o, i = np.array(outer), np.array(inner)
    conj = G.mult[G.mult[np.ix_(o, i)], G.inv[o][:, None]]
    return bool(np.isin(conj, i).all())


def _ref_coset_quotient(G, n_mem, h_mem):
    """Cosets keyed on the least element x*t, t in N, of each left coset xN."""
    h = np.array(h_mem)
    key = G.mult[np.ix_(h, np.array(n_mem))].min(axis=1)
    reps = np.unique(key)
    index = np.full(G.order, -1)
    index[h] = np.searchsorted(reps, key)
    return index[G.mult[np.ix_(reps, reps)]].tolist()


def _sample_subgroups(G):
    """The subgroup lattice where it is small enough, closures of random seeds
    and the derived subgroups of those closures."""
    rng = random.Random(G.order)
    seeds = [rng.sample(range(G.order), k) for k in (1,) * 8 + (2,) * 8 + (3,) * 2]
    subs = {close_members(G, seed) for seed in seeds}
    subs.update([_ref_derived(G, H) for H in subs])
    if G.order <= SUBGROUP_ENUM_CAP:
        subs.update(H.members for H in all_subgroups(G))
    subs.add(tuple(range(G.order)))
    return sorted(subs, key=lambda t: (len(t), t))


@pytest.mark.parametrize("text", ["S4", "D12xQ8", "A5xS4"])
def test_primitives_match_quadratic_definitions(text, realized):
    G = realized(text)
    subs = _sample_subgroups(G)
    for H in subs:
        gens = _dimino_close(G, H)[2]
        assert derived_members(G, gens)[0] == _ref_derived(G, H), H
        assert classes_of_members(G, H, gens) == _ref_classes(G, H), H
        assert is_abelian_members(G, gens) == _ref_is_abelian(G, H), H
    rng = random.Random(1)
    outers = rng.sample(subs, min(len(subs), 12)) + [subs[-1]]
    for outer in outers:
        outer_set, outer_gens = set(outer), _dimino_close(G, outer)[2]
        for inner in subs:
            if not outer_set.issuperset(inner):
                continue
            normal = _ref_normal_in(G, inner, outer)
            assert _members_normal_in(G, inner, outer_gens) == normal, (inner, outer)
            if len(outer) == G.order:
                assert is_normal(G, Subgroup(G, inner)) == normal, inner
            if normal:
                table = coset_quotient(G, inner, outer)
                assert table.mult.tolist() == _ref_coset_quotient(G, inner, outer)


def test_primitives_given_generators_match_quadratic_definitions(roster_tables):
    """On every non-abelian subgroup H of the roster groups of order <= 128,
    any generating set of H gives the quadratic definitions' answers, and
    H' comes back with generators of H'."""
    rng = random.Random(128)
    checked = 0
    for _, _, G in roster_tables:
        if G.order > 128 or G.is_abelian:
            continue
        for H in all_subgroups(G):
            H = H.members
            if _ref_is_abelian(G, H):
                continue
            # the greedy generators of H's members taken in a shuffled order
            gens = _dimino_close(G, rng.sample(H, len(H)))[2]
            derived, derived_gens = derived_members(G, gens)
            assert derived == _ref_derived(G, H)
            assert close_members(G, derived_gens) == derived
            assert classes_of_members(G, H, gens) == _ref_classes(G, H)
            assert is_abelian_members(G, gens) is False
            checked += 1
    assert checked == 548  # in 29 non-abelian groups


def test_rows_beyond_small_order_match_the_table(realized):
    G = realized("A5xA5")  # order 3600: memoryview rows
    rows = G.rows()
    rng = random.Random(3600)
    for _ in range(2000):
        a, b = rng.randrange(3600), rng.randrange(3600)
        assert rows[a][b] == int(G.mult[a, b])


def test_large_order_rejects_unclosed_set_and_non_normal_quotient(realized):
    G = realized("A5xS4")  # order 1440
    rng = random.Random(0)
    while True:
        x = rng.randrange(G.order)
        H = close_members(G, [x])
        if len(H) > 2 and not _ref_normal_in(G, H, range(G.order)):
            break
    outside = next(y for y in range(G.order) if y not in H)
    with pytest.raises(DomainError, match="closed"):
        Subgroup(G, H[:-1] + (outside,))  # same order, still holds the identity
    with pytest.raises(DomainError, match="[Nn]ormal"):
        quotient(G, Subgroup(G, H), Subgroup(G, tuple(range(G.order))))


def test_subgroup_rejects_unclosed_set():
    G = realize_text("Z12")
    with pytest.raises(DomainError, match="Lagrange"):
        Subgroup(G, (0, 1, 2, 3, 4))  # 5 does not divide 12
    with pytest.raises(DomainError, match="closed"):
        Subgroup(G, (0, 1, 4, 5))  # size divides 12 but not closed
    with pytest.raises(DomainError, match="closed"):
        Subgroup(G, (0, 1, 3, 4, 6, 7))


def test_subgroup_from_mask_keeps_the_mask_and_validates(monkeypatch):
    G = realize_text("Z12")
    with pytest.raises(DomainError, match="closed"):
        Subgroup.from_mask(G, mask_of((0, 1, 4, 5)))
    want = {mask_of(s.members) for s in all_subgroups(G)}
    monkeypatch.setattr(group_core, "mask_of", None)
    H = Subgroup.from_mask(G, 0b1000001)
    assert H.members == (0, 6) and H.mask == 0b1000001
    assert all_subgroups(G).masks() == want


def test_subgroup_requires_identity():
    G = realize_text("Z12")
    with pytest.raises(DomainError, match="identity"):
        Subgroup(G, (1, 2))


def test_subgroup_rejects_out_of_range_member():
    with pytest.raises(DomainError, match="out of range"):
        Subgroup(realize_text("Z12"), (0, 12))
    # a negative member is out of range, not a missing identity
    with pytest.raises(DomainError, match="^member index out of range$"):
        Subgroup(realize_text("Z12"), (0, -6))


@pytest.mark.parametrize("bad", [6.7, 6.0, "6", True, None])
def test_non_integer_members_and_seeds_are_refused_not_truncated(bad):
    G = realize_text("Z12")
    with pytest.raises(DomainError, match="is not an integer index"):
        Subgroup(G, (0, bad))
    for seed in ([bad], [4, bad]):
        with pytest.raises(DomainError, match="is not an integer index"):
            generated_subgroup(G, seed)
        with pytest.raises(DomainError, match="is not an integer index"):
            close_members(G, seed)


def test_integer_like_members_and_seeds_are_accepted():
    G = realize_text("Z12")
    assert Subgroup(G, np.array([6, 0, 6])).members == (0, 6)
    assert generated_subgroup(G, [np.int16(4)]).members == (0, 4, 8)
    assert close_members(G, np.array([3])) == (0, 3, 6, 9)


# a small cyclic table and a mid-size one
@pytest.mark.parametrize("text", ["Z12", "Z1030"])
def test_subgroup_from_mask_raises_the_tuple_constructors_errors(text):
    G = realize_text(text)
    n = G.order
    non_divisor = next(k for k in range(2, n) if n % k)
    cases = [
        ((1, 2), "subgroup must contain the identity"),
        ((0, n), "member index out of range"),
        (tuple(range(non_divisor)), "Lagrange"),
        ((0, 1), "not closed"),  # 2 divides n, and 1 + 1 = 2 is not a member
    ]
    for members, message in cases:
        with pytest.raises(DomainError, match=message) as by_tuple:
            Subgroup(G, members)
        with pytest.raises(DomainError, match=message) as by_mask:
            Subgroup.from_mask(G, mask_of(members))
        assert str(by_mask.value) == str(by_tuple.value), members
    assert Subgroup.from_mask(G, mask_of((0, n // 2))).members == (0, n // 2)


def test_subgroup_equality_and_hash_are_by_parent_and_mask():
    G = realize_text("Z4")
    by_members, by_mask = Subgroup(G, (2, 0)), Subgroup.from_mask(G, 0b101)
    assert by_members == by_mask and hash(by_members) == hash(by_mask)
    assert {by_members: "H"}[by_mask] == "H" and len({by_members, by_mask}) == 1
    assert by_members != Subgroup(G, (0, 1, 2, 3))
    # equal members on another table of the same group are another subgroup
    other = Subgroup(realize_text("Z4"), (0, 2))
    assert other.members == by_members.members and other.mask == by_members.mask
    assert other != by_members and other not in {by_members, by_mask}
    assert by_members != (0, 2) and by_members != 5


@pytest.mark.parametrize(
    "n_points, generators",
    [(3, [[1.9, 2.2, 0]]), (3, [[1, 2, "0"]]), (3, [[1, True, 0]]), (2.5, []), (True, [])],
)
def test_build_from_generators_refuses_non_integers(n_points, generators):
    with pytest.raises(DomainError, match="is not an integer index"):
        build_from_generators(n_points, generators)


def test_subgroup_from_mask_refuses_a_negative_bool_or_float_mask():
    G = realize_text("Z2")
    # -1 has every bit set in two's complement; its binary digits read (0, 1)
    with pytest.raises(DomainError, match="^mask -1 is negative$"):
        Subgroup.from_mask(G, -1)
    # True is 1, the trivial subgroup's mask, and 1.0 has no bit_length
    for bad in (True, 1.0):
        with pytest.raises(DomainError, match="is not an integer index"):
            Subgroup.from_mask(G, bad)
    H = Subgroup.from_mask(G, np.int64(3))
    assert H.members == (0, 1) and H.mask == 3 and not H.contains(5)


# ---------------------------------------------------------------------------
# is_normal


def test_trivial_subgroup_is_normal():
    G = s4_table()
    assert is_normal(G, Subgroup(G, (0,)))


def test_a4_normal_in_s4_but_transposition_subgroup_is_not():
    G = s4_table()
    evens = [x for x in range(24) if _sign_of(G, x) == 1]
    a4 = Subgroup(G, tuple(evens))
    assert a4.order == 12
    assert is_normal(G, a4)
    t = Subgroup(G, (0, 2))  # generated by the transposition
    assert not is_normal(G, t)


def _sign_of(G, x):
    """Permutation parity of element x via its cycle type on 4 points."""
    # reconstruct the permutation by acting on the generators' points is not
    # stored; use element order structure instead: conjugates of index 2 (a
    # transposition) and their products.  Simpler: parity homomorphism is the
    # unique index-2 subgroup; compute by closing the squares.
    squares = close_members(G, {int(G.mult[y, y]) for y in range(24)})
    return 1 if x in squares else -1


def test_all_subgroups_of_abelian_group_are_normal():
    G = realize_text("Ab(2^2+1)")
    for H in all_subgroups(G):
        assert is_normal(G, H)


def test_is_normal_matches_elementwise_definition():
    """Brute elementwise g h g^-1 check agrees on every subgroup, order <= 60."""
    for text in ["S3", "D8", "Q8", "A4", "S4", "D12", "Z24", "A5"]:
        G = realize_text(text)
        rows, inv = G.rows(), G.inv_list()
        for H in all_subgroups(G):
            mem = set(H.members)
            brute = all(
                rows[rows[g][h]][inv[g]] in mem for g in range(G.order) for h in mem
            )
            assert is_normal(G, H) == brute, (text, H.members)


def test_is_normal_rejects_foreign_subgroup():
    G1, G2 = realize_text("Z4"), realize_text("Z8")
    with pytest.raises(DomainError):
        is_normal(G1, Subgroup(G2, (0, 4)))


# ---------------------------------------------------------------------------
# quotient


def test_quotient_s4_by_a4_has_order_2():
    G = s4_table()
    evens = tuple(x for x in range(24) if _sign_of(G, x) == 1)
    q = quotient(G, Subgroup(G, evens), Subgroup(G, tuple(range(24))))
    assert q.order == 2


def test_quotient_by_trivial_preserves_order():
    G = s4_table()
    evens = tuple(x for x in range(24) if _sign_of(G, x) == 1)
    q = quotient(G, Subgroup(G, (0,)), Subgroup(G, evens))
    assert q.order == 12


def test_quotient_z12_by_order3_is_cyclic_of_order_4():
    G = realize_text("Z12")
    q = quotient(G, Subgroup(G, (0, 4, 8)), Subgroup(G, tuple(range(12))))
    assert q.order == 4
    assert any(element_power(q, x, 2) != 0 for x in range(4))  # Z4, not Z2xZ2


def test_quotient_order_identity():
    for text in ["Z24", "S4", "D12"]:
        G = realize_text(text)
        full = Subgroup(G, tuple(range(G.order)))
        for H in all_subgroups(G):
            if is_normal(G, H):
                assert quotient(G, H, full).order == G.order // H.order


def test_coset_quotient_rejects_an_empty_or_non_covering_n():
    G = realize_text("Z4")
    for n_members, h_members in (((), (0, 1, 2, 3)), ((0, 2), (0, 1))):
        with pytest.raises(DomainError, match="inconsistent size"):
            coset_quotient(G, n_members, h_members)


def test_quotient_rejects_containment_violation():
    G = realize_text("Z12")
    with pytest.raises(DomainError, match="[Cc]ontainment|subset"):
        quotient(G, Subgroup(G, (0, 4, 8)), Subgroup(G, (0, 6)))


def test_quotient_rejects_foreign_subgroup():
    G1, G2 = realize_text("Z4"), realize_text("Z8")
    with pytest.raises(DomainError, match="ambient"):
        quotient(G1, Subgroup(G1, (0,)), Subgroup(G2, (0, 4)))


def test_quotient_rejects_non_normal():
    G = s4_table()
    with pytest.raises(DomainError, match="[Nn]ormal"):
        quotient(G, Subgroup(G, (0, 2)), Subgroup(G, tuple(range(24))))


# ---------------------------------------------------------------------------
# is_simple


def test_prime_cyclic_is_simple():
    assert is_simple(realize_text("Z5"))
    assert is_simple(realize_text("Z7"))


def test_a5_is_simple_s4_is_not():
    assert is_simple(realize_text("A5"))
    assert not is_simple(s4_table())
    assert not is_simple(realize_text("Z4"))


def test_is_simple_rejects_trivial_group():
    with pytest.raises(DomainError):
        is_simple(realize_text("Z1"))


# ---------------------------------------------------------------------------
# conjugacy classes


def test_abelian_classes_are_singletons():
    G = realize_text("Z4xZ4")
    classes = conjugacy_classes(G)
    assert len(classes) == 16
    assert all(len(c) == 1 for c in classes)


def test_s3_class_sizes():
    classes = conjugacy_classes(realize_text("S3"))
    assert sorted(len(c) for c in classes) == [1, 2, 3]


def test_a5_class_sizes():
    classes = conjugacy_classes(realize_text("A5"))
    assert sorted(len(c) for c in classes) == [1, 12, 12, 15, 20]


def test_classes_partition_and_divide():
    for text in ["S3", "S4", "Q8", "D12", "A5", "Z30"]:
        G = realize_text(text)
        classes = conjugacy_classes(G)
        seen = [x for c in classes for x in c]
        assert sorted(seen) == list(range(G.order))  # disjoint cover
        assert classes[0] == (0,)  # identity class first
        # class sizes divide the group order (orbit-stabilizer)
        assert all(G.order % len(c) == 0 for c in classes)


# ---------------------------------------------------------------------------
# element_power


@settings(max_examples=50, deadline=None)
@given(x=st.integers(0, 23), e=st.integers(0, 200))
def test_element_power_matches_iteration(x, e):
    G = s4_table()
    acc = 0
    for _ in range(e):
        acc = int(G.mult[acc, x])
    assert element_power(G, x, e) == acc
