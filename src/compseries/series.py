"""Brute-force composition-series counting and enumeration.

The count recursion is c(trivial) = 1 and c(H) = sum of c(M) over the maximal
normal subgroups M of H, memoized by the member bit mask of H inside the
top-level parent.  The recursion is walked on masks alone: the maximal
normal subgroups of a mask come back as masks, each child is looked up in the
memo before it is recursed into, and the lattice routine builds a member
tuple only where its route needs one.  Enumeration walks the same lattice
depth first with an explicit stack of child iterators, children in (order,
members) order, so output order is reproducible; it finds the children of
each subgroup once and yields each chain, as it is reached, as one tuple of
shared Subgroup objects.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice

from . import config, group_core, lattice
from .errors import DomainError
from .group_core import Subgroup


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
        terms = self.terms
        if type(terms) is not tuple:
            terms = tuple(terms)
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


def count_series(G):
    """Exact number of distinct composition series of G (brute-force oracle)."""
    config.check_order(G.order)
    if G._series_count is not None:
        return SeriesCount(G._series_count, "cached")
    # the memo starts with c(trivial) = 1; the trivial subgroup's mask is 1
    value = 1 if G.order == 1 else _count(G, (1 << G.order) - 1, {1: 1})
    G._series_count = value
    return SeriesCount(value, "brute-force")


def _count(G, mask, memo):
    """c(H) for the non-trivial subgroup H of bit mask ``mask``, not yet in ``memo``.

    Each child is looked up in the memo before it is recursed into, and the
    result is stored under ``mask``.  A module-level function, not a closure
    over ``memo``, so that the memo is freed as soon as the count returns.
    """
    total = 0
    for child in lattice.maximal_normal_member_sets(G, mask):
        c = memo.get(child)
        if c is None:
            c = _count(G, child, memo)
        total += c
    memo[mask] = total
    return total


def _chain_walk(G):
    """Every chain of G as a tuple of terms, trivial first.

    One DFS with an explicit stack: ``path`` holds the terms above the one
    being walked, top first, and ``stack`` an iterator over each one's
    children, in (order, members) order.  ``interned`` maps the bit mask of
    every term built so far to its Subgroup, so each is built once and
    consecutive chains share their upper terms as the same objects, and
    ``children`` maps the mask of every term walked so far to its sorted
    child Subgroups, so the maximal normal subgroups of each are found once.
    """
    full = Subgroup.from_mask(G, (1 << G.order) - 1)
    if G.order == 1:
        yield (full,)
        return
    interned = {full.mask: full}
    children = {}

    def kids(top):
        found = children.get(top.mask)
        if found is None:
            found = []
            for mask in lattice.maximal_normal_member_sets(G, top.mask):
                child = interned.get(mask)
                if child is None:
                    child = interned[mask] = Subgroup.from_mask(G, mask)
                found.append(child)
            found.sort(key=lambda c: (c.order, c.members))
            children[top.mask] = found
        return iter(found)

    path = [full]
    stack = [kids(full)]
    while stack:
        for child in stack[-1]:
            if child.mask == 1:
                yield (child, *reversed(path))
            else:
                path.append(child)
                stack.append(kids(child))
                break
        else:
            stack.pop()
            path.pop()


def enumerate_series(G, limit=None):
    """Iterator over all distinct composition series of G, or the first ``limit``.

    The chains are built one at a time as the walk reaches them, so memory
    does not grow with their number; the arguments are checked at call time.
    Equal terms of different chains are one shared Subgroup object.
    """
    config.check_order(G.order)
    if limit is not None and limit < 1:
        raise DomainError("limit must be a positive integer")
    walk = _chain_walk(G)
    if limit is not None:
        walk = islice(walk, limit)
    return map(CompositionChain, walk)


def composition_factor_orders(chain):
    """Multiset of consecutive index jumps |G_{i+1}| / |G_i| along the chain."""
    orders = chain.orders()
    return Counter(b // a for a, b in zip(orders, orders[1:]))


def validate_chain(chain):
    """Re-check every CompositionChain invariant the hard way.

    Each step must be contained in the next term, proper, normal in it, and
    have a simple quotient (tested by realizing the quotient table and
    enumerating its normal subgroups).  Raises DomainError on the first
    violation.  The factor orders then multiply to |G|: the chain runs from
    the trivial subgroup to G, and each index is exact.
    """
    G = chain.parent
    terms = chain.terms
    for i, (a, b) in enumerate(zip(terms, terms[1:])):
        if a.mask & ~b.mask:
            raise DomainError(f"step {i}: term is not contained in the next")
        if a.order >= b.order:
            raise DomainError(f"step {i}: term is not proper in the next")
        if not group_core._members_normal_in(G, a.members, b.members):
            raise DomainError(f"step {i}: term is not normal in the next")
        q = group_core.quotient(G, a, b)
        if not lattice.is_simple(q):
            raise DomainError(f"step {i}: quotient of order {q.order} is not simple")
    return True
