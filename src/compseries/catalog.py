"""Deterministic constructors for the concrete test groups, plus the textual
mini-language used by the CLI (`Z12`, `E(2,6)`, `Ab(2^2+1;3^1)`, `D8`, `Q8`,
`S4`, `A5`, products joined with `x`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import factorial, prod

from . import config
from .errors import CapacityError, DomainError, SpecParseError
from .formulas import factorize, is_prime
from .group_core import build_from_generators, cyclic_mult, direct_product


@dataclass(frozen=True)
class Cyclic:
    n: int

    def order(self):
        return self.n

    def text(self):
        return f"Z{self.n}"


@dataclass(frozen=True)
class ElemAbelian:
    p: int
    k: int

    def order(self):
        return self.p**self.k

    def text(self):
        return f"E({self.p},{self.k})"


@dataclass(frozen=True)
class Abelian:
    """Abelian p-group types: one exponent partition per prime."""

    parts: tuple  # ((p, (e1, e2, ...)), ...)

    def order(self):
        return prod(p ** sum(es) for p, es in self.parts)

    def text(self):
        chunks = [f"{p}^" + "+".join(str(e) for e in es) for p, es in self.parts]
        return "Ab(" + ";".join(chunks) + ")"


@dataclass(frozen=True)
class Dihedral:
    n: int  # group order 2m

    def order(self):
        return self.n

    def text(self):
        return f"D{self.n}"


@dataclass(frozen=True)
class QuaternionQ8:
    def order(self):
        return 8

    def text(self):
        return "Q8"


@dataclass(frozen=True)
class Symmetric:
    n: int

    def order(self):
        return factorial(self.n)

    def text(self):
        return f"S{self.n}"


@dataclass(frozen=True)
class Alternating:
    n: int

    def order(self):
        return max(factorial(self.n) // 2, 1)

    def text(self):
        return f"A{self.n}"


@dataclass(frozen=True)
class DirectProduct:
    factors: tuple

    def order(self):
        return prod(f.order() for f in self.factors)

    def text(self):
        return "x".join(f.text() for f in self.factors)


_ATOM_RES = [
    (re.compile(r"Z(\d+)"), lambda m: Cyclic(int(m.group(1)))),
    (re.compile(r"E\((\d+),(\d+)\)"), lambda m: ElemAbelian(int(m.group(1)), int(m.group(2)))),
    (re.compile(r"Ab\(([0-9^+;]+)\)"), None),  # handled specially
    (re.compile(r"D(\d+)"), lambda m: Dihedral(int(m.group(1)))),
    (re.compile(r"Q8"), lambda m: QuaternionQ8()),
    (re.compile(r"S(\d+)"), lambda m: Symmetric(int(m.group(1)))),
    (re.compile(r"A(\d+)"), lambda m: Alternating(int(m.group(1)))),
]


# An integer literal with more digits than 2**BOUND_LOG2_CAP is past the cap.
_MAX_DIGITS = len(str(1 << config.BOUND_LOG2_CAP))


def _validate_atom(atom):
    """Semantic atom validation; syntax errors are raised earlier as parse errors.

    A prime-power atom whose order is at least 2**(BOUND_LOG2_CAP + 1) is
    refused before that order is ever formed.
    """
    low = 0  # a lower bound on floor(log2 |atom|)
    if isinstance(atom, Cyclic) and atom.n < 1:
        raise DomainError("cyclic order must be >= 1")
    if isinstance(atom, ElemAbelian):
        if not is_prime(atom.p):
            raise DomainError(f"{atom.p} is not prime")
        if atom.k < 0:
            raise DomainError("exponent must be >= 0")
        low = atom.k * (atom.p.bit_length() - 1)
    if isinstance(atom, Dihedral):
        if atom.n % 2 or atom.n < 6:
            raise DomainError(
                "dihedral atoms need an even order >= 6 (use Z2 / E(2,2) below that)"
            )
    if isinstance(atom, (Symmetric, Alternating)):
        if not 1 <= atom.n <= 5:
            raise DomainError("S and A atoms support degrees 1..5 only")
    if isinstance(atom, Abelian):
        for p, es in atom.parts:
            if not is_prime(p):
                raise DomainError(f"{p} is not prime")
            if not es or any(e < 1 for e in es):
                raise DomainError("partition entries must be >= 1")
        low = sum(sum(es) * (p.bit_length() - 1) for p, es in atom.parts)
    if low > config.BOUND_LOG2_CAP:
        raise CapacityError(
            f"{atom.text()} has floor(log2 |G|) >= {low}, "
            f"above the cap {config.BOUND_LOG2_CAP}"
        )


def _parse_abelian(body, pos):
    parts = []
    seen = set()
    for chunk in body.split(";"):
        m = re.fullmatch(r"(\d+)\^(\d+(?:\+\d+)*)", chunk)
        if not m:
            raise SpecParseError(f"bad Ab() chunk {chunk!r}", pos)
        p = int(m.group(1))
        es = tuple(sorted((int(e) for e in m.group(2).split("+")), reverse=True))
        if p in seen:
            raise SpecParseError(f"prime {p} repeated in Ab()", pos)
        seen.add(p)
        parts.append((p, es))
    parts.sort()
    return Abelian(tuple(parts))


def _parse_atom(text, pos):
    for rx, build in _ATOM_RES:
        m = rx.fullmatch(text)
        if m:
            atom = _parse_abelian(m.group(1), pos) if build is None else build(m)
            _validate_atom(atom)
            return atom
    raise SpecParseError(f"unrecognized group atom {text!r}", pos)


def parse_spec(text):
    """Parse the group mini-language into a GroupSpec tree."""
    stripped = "".join(text.split())
    if not stripped:
        raise SpecParseError("empty group spec", 0)
    for m in re.finditer(r"\d+", stripped):
        if len(m.group().lstrip("0")) > _MAX_DIGITS:
            raise CapacityError(
                f"the integer at position {m.start()} has more than {_MAX_DIGITS} "
                f"digits, so floor(log2 |G|) would exceed the cap {config.BOUND_LOG2_CAP}"
            )
    factors = []
    pos = 0
    for chunk in stripped.split("x"):
        if not chunk:
            raise SpecParseError("empty product factor", pos)
        factors.append(_parse_atom(chunk, pos))
        pos += len(chunk) + 1
    if len(factors) == 1:
        return factors[0]
    return DirectProduct(tuple(factors))


def print_spec(spec):
    """Canonical text: product factors sorted by (order, text)."""
    if isinstance(spec, DirectProduct):
        factors = sorted(spec.factors, key=lambda f: (f.order(), f.text()))
        return "x".join(f.text() for f in factors)
    return spec.text()


# ---------------------------------------------------------------------------
# structural helpers used by the CLI's formula routing


def is_abelian_spec(spec):
    if isinstance(spec, DirectProduct):
        return all(is_abelian_spec(f) for f in spec.factors)
    if isinstance(spec, (Cyclic, ElemAbelian, Abelian)):
        return True
    if isinstance(spec, Symmetric):
        return spec.n <= 2
    if isinstance(spec, Alternating):
        return spec.n <= 3
    return False


def abelian_prime_partitions(spec):
    """Merged {p: sorted partition} over all abelian factors; DomainError otherwise."""
    if not is_abelian_spec(spec):
        raise DomainError("spec is not abelian")
    parts = {}

    def add(p, e):
        if e > 0:
            parts.setdefault(p, []).append(e)

    def walk(s):
        if isinstance(s, DirectProduct):
            for f in s.factors:
                walk(f)
        elif isinstance(s, Cyclic):
            for p, a in factorize(s.n).pairs:
                add(p, a)
        elif isinstance(s, ElemAbelian):
            for _ in range(s.k):
                add(s.p, 1)
        elif isinstance(s, Abelian):
            for p, es in s.parts:
                for e in es:
                    add(p, e)
        elif isinstance(s, Symmetric) and s.n == 2:
            add(2, 1)
        elif isinstance(s, Alternating) and s.n == 3:
            add(3, 1)
        # remaining abelian atoms are trivial groups

    walk(spec)
    return {p: tuple(sorted(es, reverse=True)) for p, es in sorted(parts.items())}


def is_cyclic_spec(spec):
    return is_abelian_spec(spec) and all(
        len(es) == 1 for es in abelian_prime_partitions(spec).values()
    )


def is_elem_sylow_spec(spec):
    return is_abelian_spec(spec) and all(
        all(e == 1 for e in es) for es in abelian_prime_partitions(spec).values()
    )


# ---------------------------------------------------------------------------
# realization


def _permutation_group(atom):
    """GroupTable of a dihedral, quaternion, symmetric or alternating atom."""
    if isinstance(atom, Dihedral):
        m = atom.n // 2
        rot = tuple((x + 1) % m for x in range(m))
        refl = tuple((m - x) % m for x in range(m))
        return build_from_generators(m, [rot, refl])
    if isinstance(atom, QuaternionQ8):
        # left-regular i and j on (1, -1, i, -i, j, -j, k, -k)
        gens = [(2, 3, 1, 0, 6, 7, 5, 4), (4, 5, 7, 6, 1, 0, 2, 3)]
        return build_from_generators(8, gens)
    n = atom.n
    cycle = tuple(list(range(1, n)) + [0])
    if isinstance(atom, Symmetric):
        swap = tuple([1, 0] + list(range(2, n)))
        gens = [] if n <= 1 else [swap] if n == 2 else [cycle, swap]
    elif n <= 2:
        gens = []
    else:
        three = tuple([1, 2, 0] + list(range(3, n)))
        if n == 3:
            gens = [three]
        elif n % 2:
            gens = [three, cycle]
        else:
            gens = [three, tuple([0] + list(range(2, n)) + [1])]
    return build_from_generators(n, gens)


def _factor_tables(atom):
    """(table, generators) pairs whose direct product, in order, is the atom's table."""
    if isinstance(atom, Cyclic):
        return [(cyclic_mult(atom.n), [1] if atom.n > 1 else [])]
    if isinstance(atom, ElemAbelian):
        return [(cyclic_mult(atom.p), [1])] * atom.k
    if isinstance(atom, Abelian):
        return [(cyclic_mult(p**e), [1]) for p, es in atom.parts for e in es]
    G = _permutation_group(atom)
    return [(G.mult, G._gens)]


def realize(spec):
    """Deterministic GroupTable for a spec; lexicographic product ordering.

    A product is validated over its factors' paired generators first.
    """
    config.check_order(spec.order())
    if isinstance(spec, (Dihedral, QuaternionQ8, Symmetric, Alternating)):
        return _permutation_group(spec)  # validated as it was built
    factors = spec.factors if isinstance(spec, DirectProduct) else (spec,)
    tables = [t for f in factors for t in _factor_tables(f)]
    return direct_product([m for m, _ in tables], [g for _, g in tables])


def realize_text(text):
    return realize(parse_spec(text))


# ---------------------------------------------------------------------------
# the standard roster used by the verification suites


# Each text is its own canonical name (``print_spec``), so a table realized
# from a roster spec and one realized from its name number the same group
# the same way.
_ROSTER_TEXTS = [
    # cyclic
    "Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "Z9", "Z10", "Z12", "Z16",
    "Z24", "Z27", "Z30", "Z36", "Z48", "Z60", "Z64", "Z100", "Z128", "Z210", "Z256",
    # elementary abelian
    "E(2,2)", "E(2,3)", "E(2,4)", "E(2,5)", "E(2,6)", "E(2,7)", "E(2,8)",
    "E(3,2)", "E(3,3)", "E(3,4)", "E(5,2)", "E(5,3)", "E(7,2)",
    # abelian with mixed Sylow types
    "Ab(2^2+1)", "Ab(2^2+2)", "Ab(2^3+1)", "Ab(2^2+1+1)", "Ab(2^3+2)",
    "Ab(3^2+1)", "Ab(3^3+1)", "Ab(5^2+1)", "Ab(2^2+1;3^1)", "Ab(2^2+1;3^1+1)",
    "Ab(2^1+1;3^2)", "Ab(2^3+1;3^1)", "Ab(2^2+2;3^1+1)",
    "Z2xZ3xZ4", "E(2,2)xZ9", "E(2,3)xE(3,2)", "Z4xZ4", "Z2xZ8", "Z9xZ9",
    # dihedral / quaternion
    "D6", "D8", "D10", "D12", "D16", "D24", "D32", "D64",
    "Q8", "Z2xQ8", "Z3xQ8", "Q8xQ8",
    # symmetric / alternating and mixed products
    "S3", "S4", "S5", "A4", "A5",
    "Z2xS3", "Z4xS3", "S3xS3", "Z5xS3", "Z2xS4", "Z3xS4", "E(2,2)xS4",
    "Z2xA4", "Z3xA4", "A4xA4", "Z2xA5", "E(2,2)xA5", "Z3xD8", "S3xD10",
]


def standard_roster(max_order):
    """[(canonical text, spec)] for every roster entry with order <= max_order."""
    out = []
    for text in _ROSTER_TEXTS:
        spec = parse_spec(text)
        if spec.order() <= max_order:
            out.append((text, spec))
    return out
