"""Brute-force composition-series counting and enumeration.

The count recursion is c(trivial) = 1 and c(H) = sum of c(M) over the maximal
normal subgroups M of H, memoized by the member bit mask of H inside the
top-level parent.  The recursion is walked on masks alone: the maximal
normal subgroups of a mask come back as masks, each child is looked up in the
memo before it is recursed into, and the lattice routine builds a member
tuple only where its route needs one.  Enumeration folds each chain down one
DFS of the same lattice, children in (order, members) order, so output order
is reproducible; the walk finds the children of each subgroup once.  Below a
simple term the walk ends the series without descending: the trivial
subgroup is maximal normal only in a simple group, where it is the one
maximal normal subgroup.  ``lattice.check_walk_size`` refuses a walk past
``config.SERIES_NODE_CAP`` before it starts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice

from . import config, group_core, lattice
from .errors import DomainError
from .group_core import Subgroup, _index


@dataclass(frozen=True)
class SeriesCount:
    value: int
    method: str  # brute-force | formula | cached

    def __post_init__(self):
        if self.value < 1:
            raise DomainError("every group has at least one composition series")


@dataclass(frozen=True)
class CompositionChain:
    """Chain of subgroups of one group, from the trivial subgroup up to the full group."""

    terms: tuple

    def __post_init__(self):
        terms = self.terms
        if type(terms) is not tuple:
            terms = tuple(terms)
            object.__setattr__(self, "terms", terms)
        if not terms:
            raise DomainError("a chain has at least the trivial term")
        parent = terms[0].parent
        for t in terms:  # a plain loop: a generator costs more than the test
            if t.parent is not parent:
                raise DomainError("every term of a chain must belong to the same group")
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
    lattice.check_walk_size(G, config.check_series_nodes)
    # the memo starts with c(trivial) = 1; the trivial subgroup's mask is 1
    value = 1 if G.order == 1 else _count(G, (1 << G.order) - 1, {1: 1})
    G._series_count = value
    return SeriesCount(value, "brute-force")


def _count(G, mask, memo):
    """c(H) for the non-trivial subgroup H of bit mask ``mask``, not yet in ``memo``.

    Each child is looked up in the memo before it is recursed into, and the
    result is stored under ``mask``; config caps the memo's size.  A
    module-level function, not a closure over ``memo``, so that the memo is
    freed as soon as the count returns.
    """
    total = 0
    for child in lattice.maximal_normal_member_sets(G, mask):
        c = memo.get(child)
        if c is None:
            c = _count(G, child, memo)
        total += c
    memo[mask] = total
    config.check_series_nodes(len(memo))
    return total


def fold_series(G, extend, limit=None):
    """Iterator over one folded value per composition series of G, or the first ``limit``.

    The full group's value is ``extend(full, None)``, each lower term's is
    ``extend(term, value of the term above it)``, and a series' value is its
    trivial term's; series that share their upper terms share their values.
    The arguments are checked at call time.
    """
    config.check_order(G.order)
    if limit is not None and _index(limit, "limit") < 1:
        raise DomainError("limit must be a positive integer")
    lattice.check_walk_size(G, config.check_series_nodes)
    walk = _fold_walk(G, extend)
    return walk if limit is None else islice(walk, limit)


def _fold_walk(G, extend):
    """The values of ``fold_series``, by one DFS with an explicit stack.

    ``stack`` holds an iterator over the sorted children of each term of the
    path, under one over the full group, and ``values`` each term's value,
    under None.  ``interned`` maps each mask built to its one Subgroup, and
    ``children`` each term walked to its children, found once; config caps
    its size.

    A term whose first child is the trivial subgroup is simple: the trivial
    subgroup is maximal normal in it, so no normal subgroup lies between
    them and the trivial subgroup is its only child.  So its series' value
    is yielded at once, without a push or a pop; ``extend`` still sees the
    same terms in the same order, and every non-trivial term's children are
    found, as in a plain DFS.
    """
    interned, children = {}, {}

    def kids(term):
        found = children.get(term.mask)
        if found is None:
            masks = lattice.maximal_normal_member_sets(G, term.mask)
            found = children[term.mask] = lattice.sorted_subgroups(G, masks, interned)
            config.check_series_nodes(len(children))
        return found

    values = [None]
    stack = [iter([Subgroup.from_mask(G, (1 << G.order) - 1)])]
    while stack:
        for term in stack[-1]:
            value = extend(term, values[-1])
            if term.mask == 1:  # G itself is trivial
                yield value
                continue
            found = kids(term)
            if found[0].mask == 1:  # a simple term: its one child ends the series
                yield extend(found[0], value)
            else:
                values.append(value)
                stack.append(iter(found))
                break
        else:
            stack.pop()
            values.pop()


def _prepend(term, above):
    return (term,) if above is None else (term, *above)


def enumerate_series(G, limit=None):
    """Iterator over all distinct composition series of G, or the first ``limit``.

    The chains are built one at a time as the walk reaches them, so memory
    does not grow with their number; the arguments are checked at call time.
    Equal terms of different chains are one shared Subgroup object.
    """
    return map(CompositionChain, fold_series(G, _prepend, limit))


def composition_factor_orders(chain):
    """Multiset of consecutive index jumps |G_{i+1}| / |G_i| along the chain."""
    orders = chain.orders()
    return Counter(b // a for a, b in zip(orders, orders[1:]))


def validate_chain(chain):
    """Re-check every CompositionChain invariant the hard way.

    Each step must be contained in the next term of the same group, proper,
    normal in it, and have a simple quotient (tested by realizing the quotient
    table and enumerating its normal subgroups).  Raises DomainError on the first
    violation.  The factor orders then multiply to |G|: the chain runs from
    the trivial subgroup to G, and each index is exact.
    """
    G = chain.parent
    terms = chain.terms
    for i, (a, b) in enumerate(zip(terms, terms[1:])):
        if b.parent is not G:
            raise DomainError(f"step {i}: next term belongs to another group")
        if a.mask & ~b.mask:
            raise DomainError(f"step {i}: term is not contained in the next")
        if a.order >= b.order:
            raise DomainError(f"step {i}: term is not proper in the next")
        if not group_core._members_normal_in(G, a.members, b.members):
            raise DomainError(f"step {i}: term is not normal in the next")
        q = group_core.coset_quotient(G, a.members, b.members)
        if not lattice.is_simple(q):
            raise DomainError(f"step {i}: quotient of order {q.order} is not simple")
    return True
