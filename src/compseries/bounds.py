"""The global bound prod(2^i - 1), the supporting inequality checkers, and the
exhaustive sweep comparing every order's best abelian candidate to the bound.

Every comparison is exact integer cross-multiplication; integer logs are
computed by repeated multiplication or bit length, never by floating point.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import factorial, isqrt, prod

from . import config
from .errors import CapacityError, DomainError
from .formulas import gaussian_hyperplanes, is_prime
from .group_core import _index


def ilog(base, n):
    """Largest e with base**e <= n, by exact repeated multiplication."""
    base, n = _index(base, "base"), _index(n, "n")
    if base < 2 or n < 1:
        raise DomainError("ilog needs base >= 2 and n >= 1")
    e = 0
    acc = base
    while acc <= n:
        e += 1
        acc *= base
    return e


def bound(n):
    """prod_{i=1..floor(log2 n)} (2^i - 1), the series-count upper bound.

    Raises CapacityError when floor(log2 n) exceeds ``config.BOUND_LOG2_CAP``.
    """
    n = _index(n, "n")
    if n < 4:
        raise DomainError("the bound is only stated for n >= 4")
    return prod(2**i - 1 for i in range(1, capped_log2(n) + 1))


def capped_log2(n, name="n"):
    """floor(log2 n), exact; a CapacityError above ``config.BOUND_LOG2_CAP``."""
    top = n.bit_length() - 1
    if top > config.BOUND_LOG2_CAP:
        raise CapacityError(
            f"refused: floor(log2 {name}) = {top} exceeds the cap {config.BOUND_LOG2_CAP}"
        )
    return top


@dataclass(frozen=True)
class InequalityParams:
    """Exponent/prime bookkeeping shared by the step-3 inequalities.

    alpha1 >= 0 and alpha_r >= 1 are the 2-part and odd-part exponents, p the
    odd prime and s the sum of the exponents below the top prime; derived are
    k = floor(log2 p^alpha_r), a = s - alpha1 and b = k - alpha_r.  The pair
    (p=3, alpha_r=1) is the excluded degenerate case.
    """

    alpha1: int
    alpha_r: int
    p: int
    s: int

    def __post_init__(self):
        for name in ("alpha1", "alpha_r", "p", "s"):
            object.__setattr__(self, name, _index(getattr(self, name), name))
        if self.p < 3 or self.p % 2 == 0 or not is_prime(self.p):
            raise DomainError("p must be an odd prime")
        if self.alpha1 < 0 or self.alpha_r < 1:
            raise DomainError("need alpha1 >= 0 and alpha_r >= 1")
        if self.p == 3 and self.alpha_r == 1:
            raise DomainError("the case p = 3 with alpha_r = 1 is excluded")
        if self.a < 0:
            raise DomainError("need a = s - alpha1 >= 0")
        if self.b < 1:
            raise DomainError("need b = k - alpha_r >= 1")

    @cached_property
    def k(self):
        return ilog(2, self.p**self.alpha_r)

    @property
    def a(self):
        return self.s - self.alpha1

    @property
    def b(self):
        return self.k - self.alpha_r

    @classmethod
    def make(cls, alpha1, alpha_r, p, s=None):
        return cls(alpha1, alpha_r, p, alpha1 if s is None else s)


def check_inequality_1(n, p):
    """2^floor(log2 n) - 1 > (p^floor(log_p n) - 1)/(p - 1) for odd prime p."""
    n, p = _index(n, "n"), _index(p, "p")
    if n < 4:
        raise DomainError("inequality (1) is stated for n >= 4")
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise DomainError("p must be an odd prime")
    if p > n:
        raise DomainError("inequality (1) needs p <= n")
    lhs = 2 ** ilog(2, n) - 1
    rhs = gaussian_hyperplanes(p, ilog(p, n))
    return lhs > rhs


def lemma41_ratio_exceeds_one(params):
    """Step ratio of X/Y at alpha1 -> alpha1 + 1, by exact cross-multiplication."""
    a1, ar, k = params.alpha1, params.alpha_r, params.k
    return (2 ** (a1 + k + 1) - 1) * (a1 + 1) > (2 ** (a1 + 1) - 1) * (a1 + ar + 1)


def xy_ratio(params):
    """X/Y as an exact rational; strictly increasing in alpha1 per the lemma."""
    a1, ar, p, k = params.alpha1, params.alpha_r, params.p, params.k
    x = prod(2**i - 1 for i in range(a1 + 1, a1 + k + 1)) * factorial(a1) * factorial(ar)
    y = prod(gaussian_hyperplanes(p, j) for j in range(1, ar + 1)) * factorial(a1 + ar)
    return Fraction(x, y)


def check_inequality_2(params):
    """The step-3 comparison with the (k+s)! / (alpha1+k)! (alpha_r+s)! factors."""
    a1, ar, p, k, s = params.alpha1, params.alpha_r, params.p, params.k, params.s
    lhs = (
        prod(2**i - 1 for i in range(a1 + 1, a1 + k + 1))
        * factorial(k + s)
        * factorial(a1)
        * factorial(ar)
    )
    rhs = (
        prod(gaussian_hyperplanes(p, j) for j in range(1, ar + 1))
        * factorial(a1 + k)
        * factorial(ar + s)
    )
    return lhs > rhs


def check_inequality_4(params):
    """The a = 0 reduction: prod(2^i-1) a1! ar! > prod gauss * (a1+ar)!."""
    return xy_ratio(params) > 1


def factorial_ratio(alpha1, alpha_r, a, b):
    """(a1+ar+a+b)! a1! ar! / ((a1+ar+a)! (a1+ar+b)!) as an exact rational."""
    alpha1, alpha_r, a, b = (_index(x, "argument") for x in (alpha1, alpha_r, a, b))
    if min(alpha1, alpha_r, a, b) < 0:
        raise DomainError("factorial_ratio needs nonnegative arguments")
    return Fraction(
        factorial(alpha1 + alpha_r + a + b) * factorial(alpha1) * factorial(alpha_r),
        factorial(alpha1 + alpha_r + a) * factorial(alpha1 + alpha_r + b),
    )


def check_induction_base(p, alpha_r):
    """p^alpha_r > 2 alpha_r + 2 on the lemma's admissible domain."""
    p, alpha_r = _index(p, "p"), _index(alpha_r, "alpha_r")
    if not is_prime(p) or p < 3:
        raise DomainError("p must be an odd prime")
    if alpha_r < 1 or (p == 3 and alpha_r < 2):
        raise DomainError("domain is p >= 5 with alpha_r >= 1, or p = 3 with alpha_r >= 2")
    return p**alpha_r > 2 * alpha_r + 2


def check_step4(alpha1):
    """2^(alpha1+1) > alpha1 + 2 for alpha1 >= 1."""
    alpha1 = _index(alpha1, "alpha1")
    if alpha1 < 1:
        raise DomainError("alpha1 must be >= 1")
    return 2 ** (alpha1 + 1) > alpha1 + 2


# ---------------------------------------------------------------------------
# the exhaustive order sweep


@dataclass(frozen=True)
class SweepRecord:
    m: int
    factorization: tuple
    candidate_count: int
    bound_value: int
    is_equality: bool

    def to_json_obj(self):
        return {
            "m": self.m,
            "factorization": [list(pa) for pa in self.factorization],
            "candidate_count": str(self.candidate_count),
            "bound_value": str(self.bound_value),
            "is_equality": self.is_equality,
        }


@dataclass
class SweepResult:
    n: int
    violations: list
    equality_attainers: list
    max_ratio: str
    elapsed_ms: int
    per_order_attainers: list = field(default_factory=list)

    def to_json_obj(self):
        obj = {
            "n": self.n,
            "violations": [v.to_json_obj() for v in self.violations],
            "equality_attainers": self.equality_attainers,
            "max_ratio": self.max_ratio,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.per_order_attainers:
            obj["per_order_attainers"] = self.per_order_attainers
        return obj


def primes_upto(n):
    """The primes <= n, ascending, from a bytearray sieve of Eratosthenes."""
    n = _index(n, "n")
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n + 1, i)))
    return list(compress(range(n + 1), sieve))


def squarefree_cofactors(q, k, lo, hi):
    """Every s = p_1 * ... * p_k, primes p_1 < ... < p_k not dividing q, with
    lo <= q*s <= hi, as the ascending prime tuples, in lexicographic order."""
    if k == 0:
        return [()] if lo <= q <= hi else []
    # the last prime is largest when the others are the k-1 smallest primes
    # coprime to q
    smallest = []
    p = 1
    while len(smallest) < k - 1:
        p += 1
        if q % p and is_prime(p):
            smallest.append(p)
    top = hi // (q * prod(smallest))
    primes = [p for p in primes_upto(top) if q % p]
    out = []

    def walk(start, k, s, chosen):
        if k == 1:
            first = bisect_left(primes, -(-lo // (q * s)), start)
            for p in primes[first : bisect_right(primes, hi // (q * s))]:
                out.append(chosen + (p,))
            return
        for i in range(start, len(primes)):
            p = primes[i]
            if q * s * p**k > hi:
                break
            walk(i + 1, k - 1, s * p, chosen + (p,))

    walk(0, k, 1, ())
    return out


def sweep_theorem_43(n, per_order=False):
    """Compare every order 4..n against the fixed bound(n).

    Returns violations (expected none), the orders attaining equality
    (expected: only 2^floor(log2 n)), and the max candidate/bound ratio as an
    exact rational rendered to six decimals.  ``per_order`` additionally
    reports orders m with candidate(m) = bound(m).

    The candidate of m is the series count of the abelian group of order m
    with elementary abelian Sylow subgroups, prod G(p, a) * (sum a)! /
    prod a!, where G(p, a) = prod_{j<=a} (p^j - 1)/(p - 1).  Write m = q*s
    with q powerful (every exponent >= 2, exponent sum A) and s squarefree,
    coprime to q, with k prime factors.  Since G(p, 1) = 1, the candidate is
    candidate(q, k) = prod G(p, a) * (A + k)! / prod a!, whichever primes
    make up s, and it increases strictly with k.  So one pass over the
    powerful q <= n, with k up to k_max(q), the number of smallest primes
    not dividing q whose product stays <= n/q, sees every candidate; the
    orders behind a candidate are listed only when it reaches a bound.
    """
    n = _index(n, "n")
    if n < 4:
        raise DomainError("sweep needs n >= 4")
    if n > config.DEFAULT_SWEEP_CAP:
        raise CapacityError(f"sweep limit {n} exceeds the cap {config.DEFAULT_SWEEP_CAP}")
    t0 = time.monotonic()
    bound_n = bound(n)
    top = ilog(2, n)
    fact = [factorial(i) for i in range(top + 1)]  # A + k <= log2(m)
    gauss = {}  # p^a -> G(p, a), formed once per prime power
    # bound(m) = bound(2^j) on 2^j <= m < 2^(j+1), and these values increase
    # strictly with j, so a candidate equals at most one of them
    level = {bound(2**j): j for j in range(2, top + 1)}
    # the product of the primes <= max(isqrt(n), 64) exceeds n, so the
    # smallest primes not dividing q never run out below
    primes = primes_upto(max(isqrt(n), 64))
    violations = []
    attainers = []
    per_order_attainers = []
    max_cand = 0

    def orders(q, pairs, k, lo, hi):
        for s in squarefree_cofactors(q, k, lo, hi):
            yield q * prod(s), tuple(sorted(pairs + tuple((p, 1) for p in s)))

    def visit(q, pairs, g, A, den):
        nonlocal max_cand
        # cands[k] = candidate(q, k) for k = 0..k_max(q)
        cands = [g * fact[A] // den]
        limit = n // q
        s = 1
        for p in primes:
            if q % p:
                s *= p
                if s > limit:
                    break
                cands.append(cands[-1] * (A + len(cands)))
        # m = 1, 2, 3 have candidate 1 < bound(4), so the maximum over every
        # m <= n is the maximum over 4 <= m <= n
        max_cand = max(max_cand, cands[-1])
        for k, cand in enumerate(cands):
            if cand >= bound_n:
                for m, fac in orders(q, pairs, k, 4, n):
                    if cand == bound_n:
                        attainers.append(m)
                    else:
                        violations.append(SweepRecord(m, fac, cand, bound_n, False))
            j = level.get(cand) if per_order else None
            if j is not None:
                hi = min((2 << j) - 1, n)
                per_order_attainers.extend(m for m, _ in orders(q, pairs, k, 1 << j, hi))

    def descend(start, q, pairs, g, A, den):
        """Visit the powerful q, then each q * p^a with a >= 2 and p a prime of
        primes[start:], so each powerful number is visited once."""
        visit(q, pairs, g, A, den)
        for i in range(start, len(primes)):
            p = primes[i]
            if q * p * p > n:
                break
            a, pa, gp = 1, p, 1
            while q * pa * p <= n:
                a += 1
                pa *= p
                if pa not in gauss:
                    gauss[pa] = gaussian_hyperplanes(p, a)
                gp *= gauss[pa]
                descend(i + 1, q * pa, pairs + ((p, a),), g * gp, A + a, den * fact[a])

    descend(0, 1, (), 1, 0, 1)
    violations.sort(key=lambda r: r.m)
    attainers.sort()
    per_order_attainers.sort()
    # exact rational rendered half-up to six decimals
    scaled = (max_cand * 10**6 * 2 + bound_n) // (2 * bound_n)
    ratio = f"{scaled // 10**6}.{scaled % 10**6:06d}"
    return SweepResult(
        n,
        violations,
        attainers,
        ratio,
        int((time.monotonic() - t0) * 1000),
        per_order_attainers,
    )
