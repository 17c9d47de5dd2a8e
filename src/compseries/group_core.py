"""Concrete finite groups as multiplication tables, plus the primitive predicates.

Elements are indices 0..N-1 with the identity fixed at index 0.  Subgroups are
immutable member tuples backed by a bit mask.  Everything here is a pure
function of its inputs.  A table's ``mult`` and ``inv`` are read-only, and
``_gens``, the generators that its validation picked (a product's paired
factor generators first, then the least indices not yet reached), is fixed
with them;
what is derived from them is cached on the table when first asked for:
``_rows`` and ``_inv_list`` here, ``_normal_cache`` (the bit masks of the
normal lattice), ``_slices`` (the coordinate slices of an elementary
abelian 2-group) and ``_maximals`` (the maximal subgroups of any other
abelian group of squarefree exponent) by ``lattice``, and ``_series_count``
by ``series``.

Every integer that enters the package is read by one check, ``_index``,
which refuses a bool and anything without ``__index__``, such as a float or
a string, with a DomainError.  It reads ``Subgroup``'s members and
``Subgroup.from_mask``'s mask, the seeds of ``close_members`` (and of
``generated_subgroup`` through it), ``GroupTable``'s generator candidates,
``build_from_generators``' point count and generator entries, the limit of
``series.fold_series`` (and of ``enumerate_series`` through it), and the
arguments of the closed forms in ``formulas`` and of the bound, its
inequality checks and the sweep in ``bounds``.  Element indices are then
checked to be in range.  The internal closure, ``_dimino_close``, trusts
its seeds, which come from a table or a checked subgroup, and so do the
predicates on member tuples.

The predicates on a subgroup H take a generating set of H from the caller:
the generators of the one closure that found H, ``G._gens``, or H's members.
None closes H to find them; ``derived_members`` returns H' with its own.

This is the one module that imports numpy, and only inside the functions
that build or validate a table (``GroupTable``, ``_law_failure``,
``table_dtype``, ``build_from_generators``, ``cyclic_mult``).  Importing
numpy takes about 0.1 s, most of the package's import time, and the bound,
the sweep, the catalog and the formula counts build no table, so a run pays
for numpy only when it realizes a group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import compress, count, zip_longest
from operator import index, itemgetter

from . import config
from .errors import CapacityError, DomainError

# Light's test gathers blocks of about this many table entries, whole rows,
# into two preallocated buffers: 256 KB each in int16, at every order.
_BLOCK_ENTRIES = 2**17


def table_dtype(n):
    """Index dtype of an order-n table: int16 up to order 32,767, int32 above."""
    import numpy as np

    return np.int16 if n <= 2**15 - 1 else np.int32


class GroupTable:
    """A finite group of order N given by its full N x N multiplication table.

    ``mult[a][b]`` is the index of a*b, ``inv[a]`` the index of a^-1, and the
    identity is always index 0.  Construction checks, at every order, three
    laws, each exactly: the identity law, a right inverse for every element
    (``mult[a][inv[a]] == 0``, in O(N)), and associativity.  Together they
    make the table a group: a right inverse b of a is also a left inverse,
    as with c a right inverse of b, b*a = b*a*(b*c) = b*(a*b)*c = b*c = 1.
    A group's table is a Latin square, so no row or column is sorted unless
    a law fails; then the Latin check runs first, for its message.

    Associativity is checked by Light's test (Clifford & Preston, *The
    Algebraic Theory of Semigroups* I, 1961, section 1.2).  Call a good if
    (x*a)*y = x*(a*y) for all x, y.  The identity is good, and so is a*b
    when a and b are:

        (x*(a*b))*y = ((x*a)*b)*y = (x*a)*(b*y) = x*(a*(b*y)) = x*((a*b)*y),

    using a, b, b, a good in turn.  So if every element is reached from 0
    by right products with a set of good elements, every element is good
    and the table is associative.  The set is picked greedily on the table
    itself (``_light_generators``): the first of ``candidates`` not yet
    reached, else the least index not yet reached, until all are.  So the
    test is sound whether or not the table comes from a group, and whatever
    the candidates; ``direct_product`` passes the factors' paired generators,
    so a product of two-generator groups often needs two.  The set is kept
    as ``_gens``: the group's generators.  Each of them costs two gathers of
    the table, made one block of rows at a time into two buffers of about
    ``_BLOCK_ENTRIES`` entries, so the check allocates nothing of size N x N.
    """

    def __init__(self, mult, candidates=()):
        import numpy as np

        mult = np.asarray(mult)
        if mult.ndim != 2 or mult.shape[0] != mult.shape[1]:
            raise DomainError("multiplication table must be square")
        n = mult.shape[0]
        if n < 1:
            raise DomainError("group order must be positive")
        # on the input, before the cast below wraps or truncates an entry
        if not np.issubdtype(mult.dtype, np.integer):
            raise DomainError(f"table entries must be integers, not {mult.dtype}")
        if mult.min() < 0 or mult.max() >= n:
            raise DomainError("table entries out of range")
        mult = np.ascontiguousarray(mult, dtype=table_dtype(n))  # no copy when already so
        self.order = n
        self.mult = mult
        self.mult.setflags(write=False)
        self.identity = 0
        self._rows = None
        self._inv_list = None
        self._normal_cache = None
        self._slices = None
        self._maximals = None
        self._series_count = None
        self._gens = [_index(a, "generator candidate") for a in candidates]  # tried first
        if any(not 0 <= a < n for a in self._gens):
            raise DomainError("generator candidate out of range")
        self._validate()  # sets inv and _gens
        self.inv.setflags(write=False)

    def _validate(self):
        import numpy as np

        n = self.order
        mult = self.mult
        ar = np.arange(n, dtype=mult.dtype)
        if not (np.array_equal(mult[0], ar) and np.array_equal(mult[:, 0], ar)):
            raise DomainError("identity law violated at index 0")
        step = min(n, max(1, _BLOCK_ENTRIES // n))
        # per block of rows: argmin copies a read-only array whole
        inv = np.concatenate([mult[r : r + step].argmin(axis=1) for r in range(0, n, step)])
        self.inv = inv.astype(mult.dtype)
        if mult[ar, self.inv].any():
            raise _law_failure(mult, "some element has no right inverse")
        self._gens = _light_generators(mult, self._gens)
        left = np.empty((step, n), dtype=mult.dtype)
        right = np.empty_like(left)
        for a in self._gens:
            a_times = mult[a].astype(np.intp)  # a*y for every y
            for r in range(0, n, step):
                block = mult[r : r + step]
                m = block.shape[0]
                # (x*a)*y vs x*(a*y) for the block's x and all y; every index is in range
                np.take(mult, block[:, a], axis=0, out=left[:m], mode="clip")
                np.take(block, a_times, axis=1, out=right[:m], mode="clip")
                if not np.array_equal(left[:m], right[:m]):
                    raise _law_failure(mult, f"associativity fails with middle factor {a}")

    def rows(self):
        """Table rows for scalar loops: ``rows()[a][b]`` is the index of a*b.

        Each row is a zero-copy memoryview of the numpy row.
        """
        if self._rows is None:
            self._rows = [memoryview(r) for r in self.mult]
        return self._rows

    def inv_list(self):
        if self._inv_list is None:
            self._inv_list = self.inv.tolist()
        return self._inv_list

    @cached_property
    def is_abelian(self):
        """True iff the generators ``_gens`` commute, which makes the group abelian."""
        return _commute(self.rows(), self._gens)

    def __repr__(self):
        return f"GroupTable(order={self.order})"


def _law_failure(mult, message):
    """The DomainError for a table that fails a group law.

    It says that some row, else some column, is not a permutation when one
    is not, and carries ``message`` otherwise; the rows, then the columns as
    rows of the transpose, are sorted in place in one N x N buffer.
    """
    import numpy as np

    n = mult.shape[0]
    ar = np.arange(n, dtype=mult.dtype)
    lines = np.empty_like(mult)
    for what, src in (("row", mult), ("column", mult.T)):
        lines[...] = src
        lines.sort(axis=1)
        if not np.array_equal(lines, np.broadcast_to(ar, (n, n))):
            return DomainError(f"some {what} is not a permutation (Latin square violated)")
    return DomainError(message)


def _light_generators(mult, candidates=()):
    """Elements from which right products reach every index of ``mult`` from 0.

    Each is the first of ``candidates`` not yet reached by right products
    with the earlier ones, else the least index not yet reached.  Only the
    table's own products are used, so no law is assumed but the identity
    law, by which each chosen a is reached as 0*a, and the walk itself
    shows that every index is reached, whatever the candidates.  In a group
    they generate the group.
    """
    n = mult.shape[0]
    reached = bytearray(n)
    reached[0] = 1
    order = [0]
    gens, cols = [], []
    todo = iter(candidates)
    while len(order) < n:
        a = next((c for c in todo if not reached[c]), None)
        if a is None:
            a = reached.index(0)
        gens.append(a)
        cols.append(mult[:, a].tolist())  # cols[j][x] is x * gens[j]
        for x in order:  # order grows while it is walked
            for col in cols:
                y = col[x]
                if not reached[y]:
                    reached[y] = 1
                    order.append(y)
    return gens


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of ``parent`` stored as a sorted member tuple and its bit mask.

    Construction verifies, on the mask, the range of every member, the
    identity bit, Lagrange's theorem and closure under multiplication
    (inverse closure follows in a finite group).  Two subgroups are equal,
    and hash equal, when they have the same parent table and the same mask.
    """

    parent: GroupTable
    members: tuple = field(compare=False)
    mask: int = field(init=False)

    def __post_init__(self):
        members = [_index(x, "member") for x in self.members]
        if any(not 0 <= x < self.parent.order for x in members):
            raise DomainError("member index out of range")
        self._adopt(mask_of(members))

    @classmethod
    def from_mask(cls, parent, mask):
        """The subgroup of bit mask ``mask``, validated as ``Subgroup(parent, members)`` is."""
        mask = _index(mask, "mask")
        if mask < 0:
            raise DomainError(f"mask {mask} is negative")
        sub = cls.__new__(cls)
        object.__setattr__(sub, "parent", parent)
        sub._adopt(mask)
        return sub

    def _adopt(self, mask):
        G, n = self.parent, self.parent.order
        if mask.bit_length() > n:
            raise DomainError("member index out of range")
        if not mask & 1:
            raise DomainError("subgroup must contain the identity (index 0)")
        members = members_of(mask)
        if n % len(members) != 0:
            raise DomainError("subgroup order does not divide group order (Lagrange)")
        # S lies in <S>, so S is closed iff one Dimino pass over S builds |S| elements
        if len(_dimino_close(G, members)[0]) != len(members):
            raise DomainError("subgroup not closed under multiplication")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "mask", mask)

    @property
    def order(self):
        return len(self.members)

    def contains(self, x):
        return (self.mask >> x) & 1 == 1

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent.order})"


# ---------------------------------------------------------------------------
# closure machinery on raw member tuples


def _index(x, what):
    """``x`` by ``operator.index``, refusing a bool and a non-integer."""
    if isinstance(x, bool) or not hasattr(x, "__index__"):
        raise DomainError(f"{what} {x!r} is not an integer index")
    return index(x)


def mask_of(members):
    """Bit mask with bit x set for each member x."""
    m = 0
    for x in members:
        m |= 1 << x
    return m


_DIGIT_VALUE = bytes.maketrans(b"01", b"\x00\x01")
_VALUE_DIGIT = bytes.maketrans(b"\x00\x01", b"01")


def mask_of_flags(flags):
    """Bit mask with bit x set where byte x of the 0/1 ``flags`` is 1: ``mask_of`` in C."""
    # the reversed bytes, read as binary digits, put byte x at bit x
    return int(flags[::-1].translate(_VALUE_DIGIT), 2)


def members_of(mask):
    """Ascending member tuple of the bit mask ``mask``: the inverse of ``mask_of``."""
    # byte x of the reversed binary digits is bit x, as 0 or 1
    bits = bin(mask)[:1:-1].encode().translate(_DIGIT_VALUE)
    return tuple(compress(count(), bits))


def close_members(G, seed):
    """Smallest subgroup of G containing ``seed``, as a sorted member tuple.

    Each seed must be an integer index of G; that is checked here.
    """
    seed = [_index(x, "seed") for x in seed]
    for x in seed:
        if not 0 <= x < G.order:
            raise DomainError(f"seed index {x} out of range")
    return tuple(sorted(_dimino_close(G, seed)[0]))


def _dimino_close(G, seed):
    """Closure of ``seed`` as (members in discovery order, flags, generators).

    ``flags`` has one byte per element of G, set for the members; the
    generators are a greedy generating set (see ``extend_members``).  The
    seed indices are trusted: they come from the table or a checked subgroup.
    """
    members = [0]
    flags = bytearray(G.order)
    flags[0] = 1
    gens = []
    extend_members(G, members, flags, gens, seed)
    return members, flags, gens


def extend_members(G, members, flags, gens, seed):
    """Dimino step: extend the subgroup S = ``members``, generated by ``gens``, to <S, seed>.

    Each seed element g outside the current subgroup S is appended to ``gens``
    and the elements of <S, g> outside S to ``members``, marked in ``flags``
    (one byte per element of G); all three are updated in place.  They come
    by whole left cosets t*S, each gathered from row t of the table in one
    C-level call: <S, g> is the union of the cosets found from S by left
    products t = h*r of a generator h and a coset representative r, as
    h*(r*S) = (h*r)*S.  That is |<S, g>| gathered entries plus index * #gens
    lookups, not |<S, g>|^2 (Holt, Eick & O'Brien, Handbook of Computational
    Group Theory, 2005).
    """
    rows = G.rows()
    for g in seed:
        if flags[g]:
            continue
        gens.append(g)
        gen_rows = [rows[h] for h in gens]
        take = itemgetter(*members, 0)  # the trailing 0 keeps a tuple when |S| = 1
        reps = [0]
        for r in reps:  # reps grows while it is walked
            for row in gen_rows:
                t = row[r]
                if not flags[t]:
                    coset = take(rows[t])[:-1]
                    for e in coset:
                        flags[e] = 1
                    members += coset
                    reps.append(t)


def generated_subgroup(G, seed):
    """Subgroup generated by ``seed`` (closure under products; inverses follow)."""
    return Subgroup(G, close_members(G, seed))


def build_from_generators(n_points, generators):
    """Permutation group closure: BFS from the identity, identity index 0.

    Each generator lists the images of 0..n_points-1.  Element indices follow
    BFS discovery order, so the result is deterministic for a fixed generator
    list.  Raises CapacityError when the group outgrows the element cap.

    The table comes from the Cayley graph the BFS walks: ``right[j][i]`` is
    the index of element i times generator j, and each element b after the
    identity was found as parent*g_j, so column b of the table is
    ``right[j]`` taken at column parent, one gather per column.
    """
    n_points = _index(n_points, "n_points")
    if n_points < 1:
        raise DomainError("n_points must be positive")
    gens = []
    for g in generators:
        g = tuple(_index(x, "generator entry") for x in g)
        # the length first: the cost stays bounded by the size of the input
        if len(g) != n_points or sorted(g) != list(range(n_points)):
            raise DomainError(f"generator {g} is not a permutation of 0..{n_points - 1}")
        gens.append(g)
    if not gens or n_points == 1:
        return GroupTable([[0]])
    import numpy as np

    # the product e*g acts as (e*g)(x) = e[g[x]]: a tuple, as n_points > 1
    times = [itemgetter(*g) for g in gens]
    ident = tuple(range(n_points))
    elems = [ident]
    index = {ident: 0}
    right = [[] for _ in gens]
    found_as = [None]  # (parent, j) of each element after the identity
    for head, e in enumerate(elems):  # elems grows while it is walked
        for j, g in enumerate(times):
            p = g(e)
            i = index.get(p)
            if i is None:
                config.check_order(len(elems) + 1)
                i = index[p] = len(elems)
                elems.append(p)
                found_as.append((head, j))
            right[j].append(i)
    n = len(elems)
    dtype = table_dtype(n)
    right = np.array(right, dtype=dtype)
    cols = np.empty((n, n), dtype=dtype)  # cols[b][a] is the index of a*b
    cols[0] = np.arange(n, dtype=dtype)
    for b in range(1, n):
        parent, j = found_as[b]
        np.take(right[j], cols[parent], out=cols[b], mode="clip")
    return GroupTable(cols.T)


def cyclic_mult(n):
    """Multiplication table of the cyclic group Z_n: a * b = (a + b) mod n."""
    import numpy as np

    ar = np.arange(n, dtype=table_dtype(n))
    # a - (n - b) lies in [-n, n - 2], inside the index dtype; a + b may not
    return (ar[:, None] - (n - ar)) % n


def direct_product(mults, gens):
    """GroupTable of the direct product of the tables ``mults``, in order.

    Tuples are numbered lexicographically: the pair (a, b) of two factors is
    a * |second| + b.  No factors give the trivial group.  ``gens`` lists
    each factor's generators; validation tries first the paired elements,
    the j-th of which has each factor's j-th generator as its coordinate,
    or the identity where a factor has fewer.
    """
    candidates = []
    for coords in zip_longest(*gens, fillvalue=0):
        c = 0
        for t, x in zip(mults, coords):
            c = c * t.shape[0] + x
        candidates.append(c)
    return GroupTable(reduce(_product_mult, mults or [cyclic_mult(1)]), candidates)


def _product_mult(t1, t2):
    n1, n2 = t1.shape[0], t2.shape[0]
    dtype = table_dtype(n1 * n2)
    prod_t = (
        t1.astype(dtype, copy=False)[:, None, :, None] * n2
        + t2.astype(dtype, copy=False)[None, :, None, :]
    )
    return prod_t.reshape(n1 * n2, n1 * n2)


# ---------------------------------------------------------------------------
# predicates


def is_normal(G, H):
    """True iff g h g^-1 lies in H for all g in G, h in H: for g among ``G._gens``."""
    if H.parent is not G:
        raise DomainError("subgroup does not belong to this group")
    return G.is_abelian or _members_normal_in(G, H.members, G._gens)


def _members_normal_in(G, inner, outer):
    """Is the subgroup ``inner``, a member tuple, normal in the subgroup ``outer`` generates?

    ``outer`` is any generating set, such as the members; conjugating the
    generators of ``inner`` by it suffices, so ``outer`` is not closed.
    """
    if len(inner) in (1, G.order):
        return True
    _, flags, gens = _dimino_close(G, inner)
    rows, inv = G.rows(), G.inv_list()
    for g in outer:
        rg, ig = rows[g], inv[g]
        for h in gens:
            if not flags[rows[rg[h]][ig]]:
                return False
    return True


def conjugacy_classes(G):
    """Partition of 0..N-1 into conjugacy classes, ordered by smallest member."""
    return classes_of_members(G, range(G.order), G._gens)


def classes_of_members(G, members, gens):
    """Conjugacy classes of the subgroup ``members``, generated by ``gens``.

    Each class is the orbit of an element under conjugation by ``gens``;
    classes come in the order of their first element in ``members``.
    """
    rows, inv = G.rows(), G.inv_list()
    conj = [(rows[g], inv[g]) for g in gens]
    seen = bytearray(G.order)
    out = []
    for x in members:
        if seen[x]:
            continue
        seen[x] = 1
        cls = [x]
        for y in cls:  # cls grows while it is walked
            for rg, ig in conj:
                z = rows[rg[y]][ig]
                if not seen[z]:
                    seen[z] = 1
                    cls.append(z)
        out.append(tuple(sorted(cls)))
    return out


def derived_members(G, gens):
    """Commutator subgroup H' of the subgroup H generated by ``gens``.

    H' is the normal closure in H of the commutators of H's generators,
    returned as (sorted members, the generators its Dimino steps picked);
    with fewer than two generators H is cyclic, and H' is ((0,), []).
    """
    if len(gens) < 2:
        return (0,), []
    rows, inv = G.rows(), G.inv_list()
    comms = [
        rows[rows[rows[a][b]][inv[a]]][inv[b]]
        for i, a in enumerate(gens)
        for b in gens[:i]
    ]
    sub, flags, sub_gens = _dimino_close(G, comms)
    for k in sub_gens:  # sub_gens grows while it is walked
        extend_members(G, sub, flags, sub_gens, [rows[rows[g][k]][inv[g]] for g in gens])
    return tuple(sorted(sub)), sub_gens


def is_abelian_members(G, gens):
    """True iff the subgroup generated by ``gens`` is abelian: its generators commute.

    An abelian G answers at once, without reading ``gens``.
    """
    return G.is_abelian or _commute(G.rows(), gens)


def _commute(rows, gens):
    """True iff the elements ``gens`` commute pairwise; ``rows`` is a table's ``rows()``."""
    return all(rows[a][b] == rows[b][a] for i, a in enumerate(gens) for b in gens[:i])


def is_solvable_members(G, members, gens):
    """True iff the derived series of the subgroup ``members`` reaches 1.

    ``gens`` generate ``members``; each term of the series comes with its
    generators from ``derived_members``, which start the next step.
    """
    while len(members) > 1:
        d, gens = derived_members(G, gens)
        if len(d) == len(members):
            return False
        members = d
    return True


# ---------------------------------------------------------------------------
# quotients


def left_cosets(G, kernel, members):
    """The left cosets x*K of K = ``kernel`` in H = ``members``, as (coset_of, cosets).

    ``members`` is ascending, so ``cosets`` maps the least member x of each
    coset, ascending, to the coset, gathered from row x of the table in one
    C-level call; ``coset_of`` maps each element of a coset to its x.
    """
    rows = G.rows()
    take = itemgetter(*kernel, 0)  # the trailing 0 keeps a tuple when K is trivial
    coset_of, cosets = {}, {}
    for x in members:
        if x not in coset_of:
            coset = cosets[x] = take(rows[x])[:-1]
            coset_of.update(dict.fromkeys(coset, x))
    return coset_of, cosets


def coset_quotient(G, n_members, h_members):
    """Coset space H / N realized as a GroupTable.

    Cosets are ordered by smallest member, which puts the identity coset at
    index 0.
    """
    # an empty N has no cosets, and fails the size check
    coset_of, cosets = left_cosets(G, n_members, sorted(h_members)) if n_members else ({}, {})
    m = len(h_members)
    if len(coset_of) != m or len(cosets) * len(n_members) != m:
        raise DomainError("coset space has inconsistent size; is N normal in H?")
    rows, number = G.rows(), dict(zip(cosets, count()))
    return GroupTable([[number[coset_of[rows[a][b]]] for b in cosets] for a in cosets])


def quotient(G_amb, N_sub, H):
    """GroupTable of H / N_sub for subgroups of G_amb with N_sub normal in H."""
    for s, name in ((N_sub, "N"), (H, "H")):
        if s.parent is not G_amb:
            raise DomainError(f"subgroup {name} does not belong to the ambient group")
    if N_sub.mask & ~H.mask:
        raise DomainError("containment violated: N is not a subset of H")
    if not _members_normal_in(G_amb, N_sub.members, H.members):
        raise DomainError("normality violated: N is not normal in H")
    return coset_quotient(G_amb, N_sub.members, H.members)


def prime_exponents(n):
    """[(p, a), ...] with n = prod p**a, primes ascending, by trial division.

    A trial divisor past the square root of ``config.DEFAULT_SWEEP_CAP`` raises
    a CapacityError instead, so every n up to that cap still factors.
    """
    pairs = []
    d = 2
    while d * d <= n:
        if d * d > config.DEFAULT_SWEEP_CAP:
            raise CapacityError(
                f"cannot factor {n}: no prime factor below {d}, and trial division stops there"
            )
        if n % d == 0:
            a = 0
            while n % d == 0:
                n //= d
                a += 1
            pairs.append((d, a))
        d += 1 if d == 2 else 2
    if n > 1:
        pairs.append((n, 1))
    return pairs


def element_power(G, x, e):
    """x**e by repeated squaring on the table."""
    rows = G.rows()
    acc = 0
    base = x
    while e:
        if e & 1:
            acc = rows[acc][base]
        base = rows[base][base]
        e >>= 1
    return acc
