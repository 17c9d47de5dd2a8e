"""Brute-force composition-series counting and enumeration.

The count recursion is c(trivial) = 1 and c(H) = sum of c(M) over the maximal
normal subgroups M of H, memoized by the member bit mask of H inside the
top-level parent.  Enumeration runs the same recursion as a DFS with children
visited in (order, members) order, so output order is reproducible.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice

from . import config, group_core, lattice
from .errors import CapacityError, DomainError
from .group_core import GroupTable, Subgroup


@dataclass(frozen=True)
class SeriesCount:
    value: int
    method: str  # brute-force | formula | cached

    def __post_init__(self):
        if self.value < 1:
            raise DomainError("every group has at least one composition series")


@dataclass(frozen=True)
class CompositionChain:
    """Chain of subgroups from the trivial subgroup up to the full group."""

    terms: tuple

    def __post_init__(self):
        terms = tuple(self.terms)
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise DomainError("a chain has at least the trivial term")
        parent = terms[0].parent
        if terms[0].order != 1 or terms[-1].order != parent.order:
            raise DomainError("chain must run from the trivial subgroup to the full group")

    @property
    def parent(self):
        return self.terms[0].parent

    def orders(self):
        return [t.order for t in self.terms]

    def to_json_obj(self):
        return {
            "orders": self.orders(),
            "subgroups": [list(t.members) for t in self.terms],
        }


def _check_cap(G):
    cap = config.element_cap()
    if G.order > cap:
        raise CapacityError(f"order {G.order} exceeds the element cap {cap}")


def count_series(G):
    """Exact number of distinct composition series of G (brute-force oracle)."""
    _check_cap(G)
    if G._series_count is not None:
        return SeriesCount(G._series_count, "cached")
    full = tuple(range(G.order))
    value = _count(G, full, group_core.mask_of(full), {})
    G._series_count = value
    return SeriesCount(value, "brute-force")


def _count(G, members, mask, memo):
    """c(H) for the subgroup ``members`` of bit mask ``mask``, memoized by mask.

    A module-level function, not a closure over ``memo``, so that the memo is
    freed as soon as the count returns.
    """
    hit = memo.get(mask)
    if hit is not None:
        return hit
    if len(members) == 1:
        return 1
    total = 0
    for child, cmask in lattice.maximal_normal_member_sets(G, members):
        total += _count(G, child, cmask, memo)
    memo[mask] = total
    return total


def _chain_walk(G, top, interned):
    """Chains up to the Subgroup ``top`` as lists of terms, trivial first.

    Children are visited in (order, members) order.  ``interned`` maps the bit
    mask of every term built so far to its Subgroup, so each is built once.
    """
    if top.order == 1:
        yield [top]
        return
    children = sorted(
        lattice.maximal_normal_member_sets(G, top.members),
        key=lambda c: (len(c[0]), c[0]),
    )
    for mem, mask in children:
        child = interned.get(mask)
        if child is None:
            child = interned[mask] = Subgroup(G, mem)
        for prefix in _chain_walk(G, child, interned):
            prefix.append(top)
            yield prefix


def enumerate_series(G, limit=None):
    """All distinct composition series of G, or the first ``limit`` of them.

    Equal terms of different chains are one shared Subgroup object.
    """
    _check_cap(G)
    if limit is not None and limit < 1:
        raise DomainError("limit must be a positive integer")
    walk = _chain_walk(G, Subgroup(G, tuple(range(G.order))), {})
    if limit is not None:
        walk = islice(walk, limit)
    return [CompositionChain(tuple(raw)) for raw in walk]


def composition_factor_orders(chain):
    """Multiset of consecutive index jumps |G_{i+1}| / |G_i| along the chain."""
    orders = chain.orders()
    return Counter(b // a for a, b in zip(orders, orders[1:]))


def validate_chain(chain):
    """Re-check every CompositionChain invariant the hard way.

    Each step must be proper, normal in the next term, and have a simple
    quotient (tested by realizing the quotient table and enumerating its
    normal subgroups).  Raises DomainError on the first violation.
    """
    G = chain.parent
    terms = chain.terms
    prod_of_factors = 1
    for i, (a, b) in enumerate(zip(terms, terms[1:])):
        if a.mask & ~b.mask:
            raise DomainError(f"step {i}: term is not contained in the next")
        if a.order >= b.order:
            raise DomainError(f"step {i}: term is not proper in the next")
        if not group_core._members_normal_in(G, a.members, b.members):
            raise DomainError(f"step {i}: term is not normal in the next")
        q = group_core.quotient(G, a, b)
        if not group_core.is_simple(q):
            raise DomainError(f"step {i}: quotient of order {q.order} is not simple")
        prod_of_factors *= b.order // a.order
    if prod_of_factors != G.order:
        raise DomainError("factor orders do not multiply to the group order")
    return True
