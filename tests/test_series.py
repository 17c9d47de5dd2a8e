"""Composition-series counting, enumeration, and chain validation."""

import gc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compseries import (
    CapacityError,
    CompositionChain,
    DomainError,
    Subgroup,
    build_from_generators,
    composition_factor_orders,
    count_series,
    enumerate_series,
    validate_chain,
)
from compseries.catalog import realize_text
from compseries.config import element_cap_in_force
from compseries.formulas import count_cyclic
from compseries import config, lattice
from compseries.group_core import _dimino_close, members_of, prime_exponents
from compseries.lattice import _maximal_among, normal_member_sets
from compseries.series import fold_series


# ---------------------------------------------------------------------------
# count_series


def test_count_elementary_abelian_64():
    c = count_series(realize_text("E(2,6)"))
    assert c.value == 615195
    assert c.method == "brute-force"


def test_count_z360():
    assert count_series(realize_text("Z360")).value == 60


def test_count_s4():
    # e < <t> < V4 < A4 < S4 with 3 choices of order-2 subgroup of V4
    assert count_series(realize_text("S4")).value == 3


def test_count_simple_group_is_one():
    assert count_series(realize_text("A5")).value == 1


def test_count_trivial_group_is_one():
    assert count_series(realize_text("Z1")).value == 1


def test_count_caches_on_the_table():
    G = realize_text("Z30")
    first = count_series(G)
    second = count_series(G)
    assert first.method == "brute-force"
    assert second.method == "cached"
    assert first.value == second.value == 6


def test_count_respects_element_cap(monkeypatch):
    G = realize_text("Z16")
    monkeypatch.setenv("COMPSERIES_ELEMENT_CAP", "8")
    with pytest.raises(CapacityError):
        count_series(G)


def test_every_element_cap_check_reads_the_cap_in_force():
    G = realize_text("S4")
    calls = [
        lambda: realize_text("S4"),
        lambda: build_from_generators(4, [(1, 2, 3, 0), (1, 0, 2, 3)]),
        lambda: count_series(G),
        lambda: enumerate_series(G),
        lambda: lattice.normal_subgroups(G),
    ]
    with element_cap_in_force(8):
        for call in calls:
            with pytest.raises(CapacityError, match="element cap 8"):
                call()
    with element_cap_in_force(24):
        for call in calls:
            call()


def test_series_count_value_positive():
    from compseries import SeriesCount

    with pytest.raises(DomainError):
        SeriesCount(0, "brute-force")


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 220))
def test_count_of_cyclic_matches_multinomial(n):
    assert count_series(realize_text(f"Z{n}")).value == count_cyclic(n)


# ---------------------------------------------------------------------------
# enumerate_series


def test_enumerate_klein_four():
    chains = list(enumerate_series(realize_text("E(2,2)")))
    assert len(chains) == 3
    assert all(ch.orders() == [1, 2, 4] for ch in chains)


def test_enumerate_trivial_group():
    chains = list(enumerate_series(realize_text("Z1")))
    assert len(chains) == 1
    assert chains[0].orders() == [1]


def test_enumerate_z12_order_sequences():
    chains = enumerate_series(realize_text("Z12"))
    assert sorted(ch.orders() for ch in chains) == [
        [1, 2, 4, 12],
        [1, 2, 6, 12],
        [1, 3, 6, 12],
    ]


def test_enumerate_limit():
    G = realize_text("Z12")
    assert len(list(enumerate_series(G, limit=2))) == 2
    with pytest.raises(DomainError):
        enumerate_series(G, limit=0)


@pytest.mark.parametrize("limit", [1.5, 2.0, True, "2"])
def test_a_limit_that_is_not_an_integer_is_refused_at_call_time(limit):
    G = realize_text("Z12")
    with pytest.raises(DomainError, match="is not an integer index"):
        enumerate_series(G, limit=limit)
    with pytest.raises(DomainError, match="is not an integer index"):
        fold_series(G, lambda term, above: term, limit)


def test_enumerate_is_an_iterator_that_checks_its_arguments_at_call_time(monkeypatch):
    G = realize_text("Z12")
    chains = enumerate_series(G)
    assert iter(chains) is chains
    assert next(chains).orders()[0] == 1
    with pytest.raises(DomainError):
        enumerate_series(G, limit=0)
    monkeypatch.setenv("COMPSERIES_ELEMENT_CAP", "6")
    with pytest.raises(CapacityError):
        enumerate_series(G)


def test_enumerate_is_deterministic():
    G = realize_text("E(2,3)")
    a = [ch.orders() for ch in enumerate_series(G, limit=5)]
    b = [ch.orders() for ch in enumerate_series(G, limit=5)]
    assert a == b


def test_enumerate_length_equals_count():
    for text in ["Z24", "E(2,4)", "S4", "D12", "Q8", "Ab(2^2+1)", "A4xZ2"]:
        G = realize_text(text)
        chains = list(enumerate_series(G))
        assert len(chains) == count_series(G).value, text
        # chains are pairwise distinct
        keys = {tuple(t.members for t in ch.terms) for ch in chains}
        assert len(keys) == len(chains), text


def _reference_children(G, mask):
    """The maximal ones among the normal subgroups of ``mask``, in (order, members) order."""
    gens = _dimino_close(G, members_of(mask))[2]
    children = _maximal_among(normal_member_sets(G, mask, gens), mask.bit_count())
    return sorted(children, key=lambda m: (m.bit_count(), members_of(m)))


def _reference_chains(G, mask):
    """Chains up to the bit mask ``mask`` by a DFS over the normal lattice."""
    if mask == 1:
        return [[mask]]
    children = _reference_children(G, mask)
    return [c + [mask] for child in children for c in _reference_chains(G, child)]


# in A5xS4 and E(2,2)xA5 the lowest non-trivial term of a chain may be A5,
# a simple term of composite order
@pytest.mark.parametrize(
    "text", ["Z1", "Z7", "A5", "S4", "D8xZ3", "E(2,3)", "Q8xS4", "A5xS4", "E(2,2)xA5"]
)
def test_enumerate_order_is_the_sorted_dfs(text):
    G = realize_text(text)
    got = [[t.mask for t in ch.terms] for ch in enumerate_series(G)]
    assert got == _reference_chains(G, (1 << G.order) - 1)


@pytest.mark.parametrize("limit", [1, 5, 8, 20])
def test_enumerate_limit_is_a_prefix_of_the_sorted_dfs(limit):
    # E(2,3): three chains under each order-4 term, so 5, 8 and 20 stop mid-branch
    G = realize_text("E(2,3)")
    got = [[t.mask for t in ch.terms] for ch in enumerate_series(G, limit=limit)]
    assert got == _reference_chains(G, (1 << G.order) - 1)[:limit]


def _prepend_mask(term, above):
    return [term.mask] + (above or [])


@pytest.mark.parametrize("text, chains, length", [
    ("Z1", 1, 0), ("Z360", 60, 6), ("S4", 3, 4), ("A5xS4", 15, 5),
])
def test_fold_counts_the_composition_length_of_every_chain(text, chains, length):
    steps = fold_series(realize_text(text), lambda t, above: 0 if above is None else above + 1)
    assert list(steps) == [length] * chains


@pytest.mark.parametrize("text", ["Z1", "Z7", "A5", "E(2,3)", "Q8xS4"])
def test_fold_by_prepending_gives_the_enumerated_terms(text):
    G = realize_text(text)
    want = [[t.mask for t in ch.terms] for ch in enumerate_series(G)]
    assert list(fold_series(G, _prepend_mask)) == want


def _reference_extends(G, mask, above, calls):
    """The (term, term above) pairs a recursive DFS passes to ``extend``, in order."""
    calls.append((mask, above))
    if mask != 1:
        for child in _reference_children(G, mask):
            _reference_extends(G, child, mask, calls)
    return calls


@pytest.mark.parametrize("text", ["Z1", "Z7", "A5", "S4", "A5xS4", "E(2,2)xA5"])
def test_fold_extends_every_term_in_the_order_of_a_recursive_dfs(text):
    # the walk ends a series below a simple term without descending into it;
    # extend still sees each term, and the term above it, in DFS order
    G = realize_text(text)
    calls = []

    def extend(term, above):
        calls.append((term.mask, above))
        return term.mask

    list(fold_series(G, extend))
    assert calls == _reference_extends(G, (1 << G.order) - 1, None, [])


@pytest.mark.parametrize("limit", [1, 5, 8, 20])
def test_fold_limit_is_a_prefix_of_the_sorted_dfs(limit):
    G = realize_text("E(2,3)")
    got = list(fold_series(G, _prepend_mask, limit))
    assert got == _reference_chains(G, (1 << G.order) - 1)[:limit]


def test_fold_checks_its_arguments_at_call_time():
    G = realize_text("Z12")
    calls = []

    def extend(term, above):
        calls.append(term)

    with pytest.raises(DomainError):
        fold_series(G, extend, limit=0)
    with element_cap_in_force(6), pytest.raises(CapacityError):
        fold_series(G, extend)
    assert calls == []


def test_enumerate_shares_one_subgroup_per_term():
    G = realize_text("E(2,4)")
    by_members = {}
    for ch in enumerate_series(G):
        for t in ch.terms:
            assert by_members.setdefault(t.members, t) is t
    assert len(by_members) == 67  # every subspace of F_2^4


def test_enumerate_finds_each_terms_children_once(monkeypatch):
    calls = Counter()
    route = lattice.maximal_normal_member_sets

    def counted(G, mask):
        calls[mask] += 1
        return route(G, mask)

    monkeypatch.setattr(lattice, "maximal_normal_member_sets", counted)
    assert len(list(enumerate_series(realize_text("E(2,4)")))) == 1 * 3 * 7 * 15
    # once per non-trivial subspace of F_2^4
    assert len(calls) == 66 and set(calls.values()) == {1}


def test_an_elementary_abelian_walk_past_the_cap_is_refused_before_it_starts(monkeypatch):
    # E(3,3) has 28 subgroups, each a term of some series
    def no_walk(*args):
        raise AssertionError("the walk started")

    monkeypatch.setattr(lattice, "maximal_normal_member_sets", no_walk)
    monkeypatch.setattr(config, "SERIES_NODE_CAP", 27)
    G = realize_text("E(3,3)")
    with pytest.raises(CapacityError, match="^28 subgroups exceed the series-walk cap 27$"):
        count_series(G)
    with pytest.raises(CapacityError, match="^28 subgroups exceed"):
        fold_series(G, _prepend_mask)


def test_a_walk_past_the_cap_is_refused_from_the_centre_before_it_starts(monkeypatch):
    # E(2,3)xS3's centre is E(2,3), whose 16 subgroups W are all normal in
    # it, and so are the 16 W x A3, as A3 = G' meets the centre trivially:
    # at cap 31 the socle alone fits, and the group is still refused
    def no_walk(*args):
        raise AssertionError("the walk started")

    G = realize_text("E(2,3)xS3")
    monkeypatch.setattr(lattice, "maximal_normal_member_sets", no_walk)
    for cap in (15, 31):
        monkeypatch.setattr(config, "SERIES_NODE_CAP", cap)
        with pytest.raises(CapacityError, match=f"^32 subgroups exceed the series-walk cap {cap}$"):
            count_series(G)
        with pytest.raises(CapacityError, match="^32 subgroups exceed"):
            fold_series(G, _prepend_mask, limit=1)


def test_the_centre_is_not_read_when_the_orders_own_count_fits(monkeypatch):
    # at the real cap, no order up to 256 reads its centre
    counts = [lattice.socle_subgroup_count(prime_exponents(n)) for n in range(1, 257)]
    assert max(counts) == 417199 <= config.SERIES_NODE_CAP

    def no_centre(G):
        raise AssertionError("the centre was read")

    # |G| = 48 = 2^4 * 3, and F_2^4 x F_3 has 67 * 2 = 134 subgroups; one
    # below that, the gate reads the centre through the patched function
    monkeypatch.setattr(lattice, "socle_bound", no_centre)
    monkeypatch.setattr(config, "SERIES_NODE_CAP", 134)
    assert count_series(realize_text("E(2,3)xS3")).value > 0
    monkeypatch.setattr(config, "SERIES_NODE_CAP", 133)
    with pytest.raises(AssertionError, match="the centre was read"):
        count_series(realize_text("E(2,3)xS3"))


@pytest.mark.parametrize(
    "cap, count_fits, fold_fits", [(8, True, True), (7, False, True), (6, False, False)]
)
def test_the_series_walks_are_held_to_the_node_cap(monkeypatch, cap, count_fits, fold_fits):
    # Z4xZ2, not elementary abelian, has 8 subgroups, each a term of some
    # series: the count's memo holds all 8, and the fold finds the children
    # of the 7 non-trivial ones
    monkeypatch.setattr(config, "SERIES_NODE_CAP", cap)
    G = realize_text("Z4xZ2")
    if count_fits:
        assert count_series(G).value == 5
    else:
        with pytest.raises(CapacityError, match=f"^{cap + 1} subgroups exceed the series-walk cap"):
            count_series(G)
    if fold_fits:
        assert len(list(fold_series(G, _prepend_mask))) == 5
    else:
        with pytest.raises(CapacityError, match=f"^{cap + 1} subgroups exceed the series-walk cap"):
            list(fold_series(G, _prepend_mask))


def test_count_e26_walks_each_subspace_once(monkeypatch):
    """One maximal-normal call per non-trivial subspace of F_2^6, each returning
    its 2^d - 1 hyperplanes, with one truthy abelian test inside it."""
    routine, is_abelian = lattice.maximal_normal_member_sets, lattice.is_abelian_members
    children, inner = [], []

    def counted_routine(G, mask):
        inner.append([])
        out = routine(G, mask)
        children.append(len(out))
        return out

    def counted_is_abelian(G, gens):
        flag = is_abelian(G, gens)
        inner[-1].append(flag)
        return flag

    monkeypatch.setattr(lattice, "maximal_normal_member_sets", counted_routine)
    monkeypatch.setattr(lattice, "is_abelian_members", counted_is_abelian)
    assert count_series(realize_text("E(2,6)")).value == 615195
    assert len(children) == 2824
    # sum over d of [6 choose d]_2 * (2^d - 1)
    assert sum(children) == 23562
    assert all(flags == [True] for flags in inner)


# Products whose factors share no cyclic composition factor obey the product
# rule c(HxK) = c(H) * c(K) * C(l(H) + l(K), l(H)), l the composition length:
# every normal subgroup of HxK is then (N n H) x (N n K) (Goursat's lemma), so
# the series of HxK are the shuffles of those of H and K.  The controls share
# a cyclic factor, and the rule gives too few for them.
@pytest.mark.parametrize("text, count", [
    ("S4xA5", 15),  # 3 * 1 * C(5, 4)
    ("D8xA5", 28),  # 7 * 1 * C(4, 3)
    ("Q8xA5", 12),  # 3 * 1 * C(4, 3)
    ("A5xA5", 2),  # 1 * 1 * C(2, 1)
    ("S5xZ7", 3),  # 1 * 1 * C(3, 2)
    ("S4xE(5,2)", 270),  # 3 * 6 * C(6, 4)
    ("A4xE(5,2)", 180),  # 3 * 6 * C(5, 3)
    ("E(2,4)xA5", 1575),  # 315 * 1 * C(5, 4)
    ("S3xD10", 8),  # controls: the rule gives 6, 12, 30, 630 and 180
    ("A4xZ3", 18),
    ("D10xQ8", 60),
    ("S4xS4", 5346),
    ("Q8xQ8", 1863),
])
def test_count_of_non_abelian_products(text, count):
    assert count_series(realize_text(text)).value == count


def test_count_leaves_no_reference_cycles():
    groups = [realize_text(t) for t in ("E(2,6)", "S4", "A5xS4")]
    gc.collect()
    gc.disable()
    try:
        assert [count_series(G).value for G in groups] == [615195, 3, 15]
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# composition_factor_orders


def test_factor_orders_z360():
    for ch in enumerate_series(realize_text("Z360")):
        assert composition_factor_orders(ch) == Counter({2: 3, 3: 2, 5: 1})


def test_factor_orders_a5():
    (ch,) = enumerate_series(realize_text("A5"))
    assert composition_factor_orders(ch) == Counter({60: 1})


def test_factor_orders_s4():
    for ch in enumerate_series(realize_text("S4")):
        assert composition_factor_orders(ch) == Counter({2: 3, 3: 1})


def test_jordan_holder_shadow():
    """The factor-order multiset is constant across all chains of one group."""
    for text in ["Z48", "E(3,3)", "S4", "D24", "Q8xZ3", "S3xS3"]:
        chains = list(enumerate_series(realize_text(text)))
        ref = composition_factor_orders(chains[0])
        assert all(composition_factor_orders(ch) == ref for ch in chains), text


# ---------------------------------------------------------------------------
# CompositionChain construction and validation


def test_chain_requires_trivial_to_full():
    G = realize_text("Z4")
    full = Subgroup(G, (0, 1, 2, 3))
    triv = Subgroup(G, (0,))
    mid = Subgroup(G, (0, 2))
    with pytest.raises(DomainError):
        CompositionChain((mid, full))  # does not start at the trivial subgroup
    with pytest.raises(DomainError):
        CompositionChain((triv, mid))  # does not end at the full group
    with pytest.raises(DomainError):
        CompositionChain(())


def test_validate_chain_accepts_all_enumerated():
    for text in ["Z30", "S4", "D12", "Q8", "E(2,3)"]:
        for ch in enumerate_series(realize_text(text)):
            assert validate_chain(ch)


def test_validate_chain_rejects_non_simple_quotient():
    G = realize_text("Z4")
    ch = CompositionChain((Subgroup(G, (0,)), Subgroup(G, (0, 1, 2, 3))))
    with pytest.raises(DomainError, match="step 0: quotient of order 4 is not simple"):
        validate_chain(ch)


def test_validate_chain_rejects_non_normal_step():
    from compseries import build_from_generators

    # index 2 is the transposition generator
    G = build_from_generators(4, [(1, 2, 3, 0), (1, 0, 2, 3)])
    ch = CompositionChain(
        (
            Subgroup(G, (0,)),
            Subgroup(G, (0, 2)),  # transposition subgroup: not normal in S4
            Subgroup(G, tuple(range(24))),
        )
    )
    with pytest.raises(DomainError, match="step 1: term is not normal in the next"):
        validate_chain(ch)


def test_chain_rejects_a_term_of_another_group():
    # two realizations of Z4 have equal tables but are different groups
    G, other = realize_text("Z4"), realize_text("Z4")
    terms = (Subgroup(G, (0,)), Subgroup(other, (0, 2)), Subgroup(G, (0, 1, 2, 3)))
    with pytest.raises(DomainError, match="every term of a chain must belong to the same group"):
        CompositionChain(terms)


def test_validate_chain_rejects_a_term_of_another_group():
    # the constructor refuses this chain, so it is assembled past it
    G, other = realize_text("Z4"), realize_text("Z4")
    ch = object.__new__(CompositionChain)
    terms = (Subgroup(G, (0,)), Subgroup(other, (0, 2)), Subgroup(G, (0, 1, 2, 3)))
    object.__setattr__(ch, "terms", terms)
    with pytest.raises(DomainError, match="step 0: next term belongs to another group"):
        validate_chain(ch)


def test_validate_chain_rejects_a_term_outside_the_next():
    G = realize_text("E(2,2)")
    ch = CompositionChain(
        (Subgroup(G, (0,)), Subgroup(G, (0, 1)), Subgroup(G, (0, 2)), Subgroup(G, (0, 1, 2, 3)))
    )
    with pytest.raises(DomainError, match="step 1: term is not contained in the next"):
        validate_chain(ch)


def test_validate_chain_rejects_a_repeated_term():
    G = realize_text("Z4")
    half = Subgroup(G, (0, 2))
    ch = CompositionChain((Subgroup(G, (0,)), half, half, Subgroup(G, (0, 1, 2, 3))))
    with pytest.raises(DomainError, match="step 1: term is not proper in the next"):
        validate_chain(ch)
