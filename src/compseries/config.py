"""Size caps, each set here alone.

The element cap comes from COMPSERIES_ELEMENT_CAP, from ``--element-cap``
inside a ``cli.main`` call, or from ``element_cap_in_force`` for library
callers; ``check_order`` is its one check.  ``check_subgroup_enum`` holds
``all_subgroups``, and the normal lattice of an abelian group, which is its
whole subgroup lattice, to an order cap; ``check_join_count`` holds every
join closure to a cap on the subgroups it finds, or on a number it will
find, counted by ``lattice.check_walk_size``, and ``check_series_nodes``
each series walk to a cap on the subgroups it visits, checked the same two ways.
"""

import os
from contextlib import contextmanager
from contextvars import ContextVar

from .errors import CapacityError, DomainError, SpecParseError

DEFAULT_ELEMENT_CAP = 4096

# the subgroup lattice grows combinatorially: E(2,8) has 417,199 subgroups
SUBGROUP_ENUM_CAP = 256

# subgroups one join closure may find: above E(2,7)'s 29,212, below E(2,8)'s
SUBGROUP_JOIN_CAP = 2**15

# subgroups one series walk may visit: above E(2,8)'s 417,199, below E(3,7)'s
# 2,052,656 and E(2,9)'s 8,283,458
SERIES_NODE_CAP = 2**19

DEFAULT_SWEEP_CAP = 10**12

# bound(n) has about floor(log2 n)^2 / 2 bits.  On a 2-CPU x86 host, bound(n)
# and its decimal string take under a second at floor(log2 n) = 1024 and about
# ten at 2048.
BOUND_LOG2_CAP = 1024


# the cap set by element_cap_in_force, outranking the environment
_cap_in_force = ContextVar("element_cap", default=None)


def element_cap():
    cap = _cap_in_force.get()
    if cap is not None:
        return cap
    raw = os.environ.get("COMPSERIES_ELEMENT_CAP")
    if not raw:
        return DEFAULT_ELEMENT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise SpecParseError(
            f"COMPSERIES_ELEMENT_CAP must be an integer, got {raw!r}"
        ) from None
    return check_positive_cap(cap, "COMPSERIES_ELEMENT_CAP")


def check_positive_cap(cap, source):
    """cap itself; a DomainError naming ``source`` unless cap is positive."""
    if cap < 1:
        raise DomainError(f"{source} must be positive, got {cap}")
    return cap


def check_order(n):
    """A CapacityError when a group of ``n`` elements is past the element cap."""
    cap = element_cap()
    if n > cap:
        raise CapacityError(f"{n} group elements exceed the element cap {cap}")


def check_subgroup_enum(n):
    """A CapacityError when an order-``n`` group's subgroup lattice is past its cap."""
    if n > SUBGROUP_ENUM_CAP:
        raise CapacityError(
            f"order {n} exceeds the subgroup-enumeration cap {SUBGROUP_ENUM_CAP}"
        )


def check_join_count(n):
    """A CapacityError when a join closure finds ``n`` subgroups, past its cap."""
    if n > SUBGROUP_JOIN_CAP:
        raise CapacityError(f"{n} subgroups exceed the join-closure cap {SUBGROUP_JOIN_CAP}")


def check_series_nodes(n):
    """A CapacityError when a series walk visits ``n`` subgroups, past its cap."""
    if n > SERIES_NODE_CAP:
        raise CapacityError(f"{n} subgroups exceed the series-walk cap {SERIES_NODE_CAP}")


@contextmanager
def element_cap_in_force(cap):
    """Make ``cap`` the element cap inside the block; restore the previous one after."""
    token = _cap_in_force.set(cap)
    try:
        yield
    finally:
        _cap_in_force.reset(token)
