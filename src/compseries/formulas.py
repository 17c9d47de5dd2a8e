"""Closed-form counts: cyclic, elementary abelian, abelian, and maximal-subgroup
formulas.  Everything is exact integer arithmetic; every division asserts a
zero remainder, and every argument is read by ``group_core._index``, so a
float or a bool raises DomainError."""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, prod

from .errors import DomainError
from .group_core import _index, prime_exponents


def is_prime(n):
    """Deterministic trial-division primality test (desk-scale inputs)."""
    n = _index(n, "n")
    return prime_exponents(n) == [(n, 1)]


@dataclass(frozen=True)
class Factorization:
    """n as an ordered product of prime powers p_1^a_1 * ... * p_r^a_r."""

    pairs: tuple

    def __post_init__(self):
        pairs = tuple((_index(p, "prime"), _index(a, "exponent")) for p, a in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        prev = 1
        for p, a in pairs:
            if p <= prev:
                raise DomainError("primes must be strictly increasing")
            if not is_prime(p):
                raise DomainError(f"{p} is not prime")
            if a < 1:
                raise DomainError("exponents must be >= 1")
            prev = p

    def value(self):
        return prod(p**a for p, a in self.pairs)

    def primes(self):
        return [p for p, _ in self.pairs]

    def exponents(self):
        return [a for _, a in self.pairs]


def factorize(n):
    """Trial-division factorization; n = 1 gives the empty factorization."""
    n = _index(n, "n")
    if n < 1:
        raise DomainError("can only factorize positive integers")
    return Factorization(tuple(prime_exponents(n)))


def _factored(n):
    """``n`` itself when it is a Factorization, else ``factorize(n)``."""
    return n if isinstance(n, Factorization) else factorize(n)


def exact_div(a, b):
    q, r = divmod(_index(a, "dividend"), _index(b, "divisor"))
    if r:
        raise AssertionError(f"division {a} / {b} is not exact")
    return q


def multinomial(exponents):
    """(sum a_i)! / prod a_i!, exactly."""
    exponents = [_index(a, "exponent") for a in exponents]
    if any(a < 0 for a in exponents):
        raise DomainError("exponents must be nonnegative")
    num = factorial(sum(exponents))
    den = prod(factorial(a) for a in exponents)
    return exact_div(num, den)


def count_cyclic(n):
    """Composition-series count of the cyclic group of order n (multinomial)."""
    return multinomial(_factored(n).exponents())


def gaussian_hyperplanes(p, k):
    """(p^k - 1) / (p - 1): lines (equally hyperplanes) of an F_p^k space."""
    p, k = _index(p, "p"), _index(k, "k")
    if p < 2 or k < 0:
        raise DomainError("gaussian_hyperplanes needs p >= 2 and k >= 0")
    return exact_div(p**k - 1, p - 1)


def count_elem_abelian(p, k):
    """Series count of the elementary abelian group of order p^k."""
    p, k = _index(p, "p"), _index(k, "k")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if k < 0:
        raise DomainError("exponent must be nonnegative")
    return prod(gaussian_hyperplanes(p, i) for i in range(1, k + 1))


def count_abelian(n, sylow_counts):
    """Series count of an abelian group from its Sylow subgroup counts t_i."""
    n = _factored(n)
    t = [_index(x, "Sylow count") for x in sylow_counts]
    if len(t) != len(n.pairs):
        raise DomainError(
            f"need {len(n.pairs)} Sylow counts (one per prime), got {len(t)}"
        )
    if any(x < 1 for x in t):
        raise DomainError("every Sylow series count is >= 1")
    return prod(t) * multinomial(n.exponents())


def count_abelian_elem_sylow(n):
    """Series count of the abelian group with elementary abelian Sylow subgroups."""
    n = _factored(n)
    t = [count_elem_abelian(p, a) for p, a in n.pairs]
    return count_abelian(n, t) if t else 1


def maximal_subgroup_count_formula(n):
    """sum_i (p_i^a_i - 1)/(p_i - 1) for the elementary-Sylow abelian group."""
    n = _factored(n)
    return sum(gaussian_hyperplanes(p, a) for p, a in n.pairs)
