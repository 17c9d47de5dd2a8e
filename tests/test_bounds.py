"""Global bound, inequality checkers, and the order sweep."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compseries import (
    CapacityError,
    DomainError,
    InequalityParams,
    SweepRecord,
    bound,
    check_induction_base,
    check_inequality_1,
    check_inequality_2,
    check_step4,
    lemma41_ratio_exceeds_one,
    sweep_theorem_43,
)
from compseries import bounds as bounds_module
from compseries import config
from compseries.bounds import (
    check_inequality_4,
    factorial_ratio,
    ilog,
    primes_upto,
    squarefree_cofactors,
    xy_ratio,
)
from compseries.formulas import (
    Factorization,
    count_abelian_elem_sylow,
    count_cyclic,
    factorize,
    is_prime,
)


def grid_params():
    """The full inequality grid: p in {3,5,7,11,13}, alpha_r 1..6, alpha1 0..20."""
    for p in (3, 5, 7, 11, 13):
        for ar in range(1, 7):
            if p == 3 and ar == 1:
                continue
            for a1 in range(0, 21):
                yield InequalityParams.make(a1, ar, p)


# ---------------------------------------------------------------------------
# ilog / bound


def test_ilog_exact_powers():
    for k in range(61):
        assert ilog(2, 2**k) == k
    assert ilog(3, 80) == 3 and ilog(3, 81) == 4
    with pytest.raises(DomainError):
        ilog(1, 10)
    with pytest.raises(DomainError):
        ilog(2, 0)


@settings(max_examples=100, deadline=None)
@given(base=st.integers(2, 10), n=st.integers(1, 10**12))
def test_ilog_defining_property(base, n):
    e = ilog(base, n)
    assert base**e <= n < base ** (e + 1)


def test_bound_values():
    assert bound(64) == 615195
    assert bound(4) == 3  # (2-1)(2^2-1)
    assert bound(127) == 615195  # floor(log2) ties with 64
    assert bound(128) == 615195 * 127
    assert bound(256) == 615195 * 127 * 255


def test_bound_rejects_small_n():
    for n in (3, 2, 1, 0, -5):
        with pytest.raises(DomainError):
            bound(n)


# ---------------------------------------------------------------------------
# InequalityParams


def test_params_examples():
    p = InequalityParams.make(0, 1, 5)
    assert (p.k, p.s, p.a, p.b) == (2, 0, 0, 1)
    p = InequalityParams.make(1, 2, 3)
    assert p.k == 3 and p.b == 1


def test_params_excluded_case():
    with pytest.raises(DomainError):
        InequalityParams.make(0, 1, 3)


def test_params_validation():
    with pytest.raises(DomainError):
        InequalityParams.make(2, 1, 5, s=1)  # a < 0
    with pytest.raises(DomainError):
        InequalityParams.make(0, 1, 4)  # p not prime
    with pytest.raises(DomainError):
        InequalityParams.make(-1, 1, 5)


# ---------------------------------------------------------------------------
# inequality (1)


def test_inequality_1_examples():
    assert check_inequality_1(9, 3)  # 7 > 4
    assert check_inequality_1(4, 3)  # 3 > 1
    assert check_inequality_1(125, 5)  # 63 > 31


def test_inequality_1_preconditions():
    with pytest.raises(DomainError):
        check_inequality_1(3, 3)
    with pytest.raises(DomainError):
        check_inequality_1(16, 2)
    with pytest.raises(DomainError):
        check_inequality_1(10, 11)  # needs p <= n


def test_inequality_1_boundary_reduction_to_1e5():
    """Holds for all 4 <= n <= 10^5 and odd primes p <= n.

    For fixed p and e = floor(log_p n), the right side is constant while the
    left side 2^floor(log2 n) - 1 is nondecreasing in n, so on each block
    n in [p^e, p^(e+1)) the minimum of LHS - RHS sits at the smallest
    admissible n.  Checking n = max(p^e, 4) for every block covers the whole
    range exactly.
    """
    limit = 10**5
    for p in primes_upto(limit)[1:]:
        e = 1
        pe = p
        while pe <= limit:
            assert check_inequality_1(max(pe, 4), p), (pe, p)
            e += 1
            pe *= p


def test_inequality_1_random_interior_sample():
    rng = random.Random(1234)
    odd_primes = primes_upto(10**5)[1:]
    for _ in range(3000):
        n = rng.randint(4, 10**5)
        p = rng.choice([q for q in (3, 5, 7, 11, 13) if q <= n] or [3])
        assert check_inequality_1(n, p), (n, p)
        big = rng.choice(odd_primes)
        if big <= n:
            assert check_inequality_1(n, big), (n, big)


# ---------------------------------------------------------------------------
# Lemma: the X/Y step ratio


def test_lemma_ratio_examples():
    assert lemma41_ratio_exceeds_one(InequalityParams.make(0, 1, 5))  # 7*1 > 1*2
    assert lemma41_ratio_exceeds_one(InequalityParams.make(1, 2, 3))  # 31*2 > 3*4


def test_lemma_ratio_full_grid():
    for params in grid_params():
        assert lemma41_ratio_exceeds_one(params), params


def test_xy_ratio_strictly_increasing_in_alpha1():
    """The exact rational X/Y strictly increases as alpha1 steps up."""
    for p in (3, 5, 7, 11, 13):
        for ar in range(1, 7):
            if p == 3 and ar == 1:
                continue
            vals = [xy_ratio(InequalityParams.make(a1, ar, p)) for a1 in range(22)]
            assert all(a < b for a, b in zip(vals, vals[1:])), (p, ar)


# ---------------------------------------------------------------------------
# inequality (2) and the a = 0 reduction


def test_inequality_2_worked_examples():
    # the three hand-evaluated instances: 6 > 2, 126 > 12, 252 > 48
    assert check_inequality_2(InequalityParams.make(0, 1, 5, s=0))
    assert check_inequality_2(InequalityParams.make(1, 1, 5, s=1))
    assert check_inequality_2(InequalityParams.make(0, 2, 3, s=0))


def test_inequality_2_full_grid():
    for params in grid_params():
        assert check_inequality_2(params), params


def test_inequality_2_with_positive_a():
    for p in (3, 5, 7):
        for ar in range(1, 5):
            if p == 3 and ar == 1:
                continue
            for a1 in range(0, 8):
                for a in range(0, 6):
                    params = InequalityParams.make(a1, ar, p, s=a1 + a)
                    assert check_inequality_2(params), params


def test_a0_reduction_agrees():
    """With a = 0 (s = alpha1), inequality (2) coincides with the reduced form."""
    for params in grid_params():  # make() uses s = alpha1, hence a = 0
        assert params.a == 0
        assert check_inequality_4(params) == check_inequality_2(params)


def test_factorial_ratio_monotone_in_a():
    for a1 in range(0, 7):
        for ar in range(1, 7):
            for b in range(1, 7):
                vals = [factorial_ratio(a1, ar, a, b) for a in range(0, 11)]
                assert all(x < y for x, y in zip(vals, vals[1:])), (a1, ar, b)


# ---------------------------------------------------------------------------
# induction base and step 4


def test_induction_base_examples():
    assert check_induction_base(5, 1)  # 5 > 4
    assert check_induction_base(3, 2)  # 9 > 6
    with pytest.raises(DomainError):
        check_induction_base(3, 1)  # exactly the excluded case (3 > 4 fails)
    with pytest.raises(DomainError):
        check_induction_base(2, 3)


def test_induction_base_grid():
    for p in (3, 5, 7, 11, 13):
        for ar in range(1, 7):
            if p == 3 and ar == 1:
                continue
            assert check_induction_base(p, ar), (p, ar)


def test_step4_examples_and_grid():
    assert check_step4(1)  # 4 > 3
    assert check_step4(2)  # 8 > 4
    assert check_step4(10)  # 2048 > 12
    for a1 in range(1, 61):
        assert check_step4(a1)
    with pytest.raises(DomainError):
        check_step4(0)


# ---------------------------------------------------------------------------
# sweep


def test_sweep_64():
    res = sweep_theorem_43(64)
    assert res.violations == []
    assert res.equality_attainers == [64]
    assert res.max_ratio == "1.000000"


def test_sweep_100_attainer_is_64():
    res = sweep_theorem_43(100)
    assert res.violations == [] and res.equality_attainers == [64]


def test_sweep_4():
    res = sweep_theorem_43(4)
    assert res.violations == [] and res.equality_attainers == [4]


def test_sweep_1000():
    res = sweep_theorem_43(1000)
    assert res.violations == [] and res.equality_attainers == [512]


def reference_sweeps(limit, ns, bound=bound, candidate=count_abelian_elem_sylow):
    """SweepResult fields for each n in ns, from every order's candidate.

    By default the candidate of m is the closed-form series count of the
    abelian group of order m with elementary abelian Sylow subgroups; m is
    factored by trial division.
    """
    pairs = [None] * 4 + [factorize(m).pairs for m in range(4, limit + 1)]
    cand = [None] * 4 + [candidate(Factorization(pairs[m])) for m in range(4, limit + 1)]
    per_order = [m for m in range(4, limit + 1) if cand[m] == bound(m)]
    for n in ns:
        b = bound(n)
        violations = [
            SweepRecord(m, pairs[m], cand[m], b, False)
            for m in range(4, n + 1)
            if cand[m] > b
        ]
        attainers = [m for m in range(4, n + 1) if cand[m] == b]
        scaled = (max(cand[4 : n + 1]) * 10**6 * 2 + b) // (2 * b)
        ratio = f"{scaled // 10**6}.{scaled % 10**6:06d}"
        yield n, (violations, attainers, ratio, [m for m in per_order if m <= n])


def sweep_fields(n):
    res = sweep_theorem_43(n, per_order=True)
    return res.violations, res.equality_attainers, res.max_ratio, res.per_order_attainers


def test_sweep_matches_per_order_reference_to_1024():
    for n, expected in reference_sweeps(1024, range(4, 1025)):
        assert sweep_fields(n) == expected, n


def test_sweep_matches_per_order_reference_at_1e5():
    ((n, expected),) = reference_sweeps(10**5, [10**5])
    assert sweep_fields(n) == expected
    assert expected[1] == [65536]


@pytest.mark.parametrize(
    "candidate, gauss",
    [(count_abelian_elem_sylow, None), (count_cyclic, lambda p, a: 1)],
)
def test_sweep_matches_reference_under_a_lowered_bound(monkeypatch, candidate, gauss):
    """With bound(n) = floor(log2 n), far below the real bound, many orders
    are violations and per-order equalities, orders with a squarefree
    cofactor (k >= 1) among them.  With G(p, a) = 1 the candidate is the
    cyclic count, whose maximum is not at a power of 2."""

    def low(n):
        return ilog(2, n)

    monkeypatch.setattr(bounds_module, "bound", low)
    if gauss:
        monkeypatch.setattr(bounds_module, "gaussian_hyperplanes", gauss)
    for n, expected in reference_sweeps(300, range(4, 301), low, candidate):
        assert sweep_fields(n) == expected, n


@pytest.mark.parametrize(
    "q, k, lo, hi",
    [
        (1, 1, 1, 200),
        (1, 2, 4, 1000),
        (1, 3, 30, 3000),
        (4, 1, 4, 1000),
        (4, 2, 100, 2000),
        (9, 2, 1, 3000),
        (36, 1, 40, 5000),
        (72, 2, 1, 10**4),
        (8, 3, 1, 10**4),
        (900, 1, 1, 10**4),
        (1, 4, 1, 10**4),
        (4, 1, 50, 40),
        (8, 0, 4, 100),
        (8, 0, 9, 100),
        (1, 0, 4, 100),
    ],
)
def test_squarefree_cofactors_brute_force(q, k, lo, hi):
    got = squarefree_cofactors(q, k, lo, hi)
    expected = []
    for s in range(1, hi // q + 1):
        fac = factorize(s).pairs
        if (
            lo <= q * s
            and len(fac) == k
            and all(a == 1 and q % p for p, a in fac)
        ):
            expected.append(tuple(p for p, _ in fac))
    assert got == sorted(expected)


def test_sweep_1e9():
    res = sweep_theorem_43(10**9)
    assert res.violations == []
    assert res.equality_attainers == [2**29]
    assert res.max_ratio == "1.000000"


def test_sweep_per_order_attainers():
    res = sweep_theorem_43(100, per_order=True)
    assert res.per_order_attainers == [4, 8, 16, 32, 64]


def test_sweep_report_json():
    obj = sweep_theorem_43(64).to_json_obj()
    assert obj["n"] == 64
    assert obj["violations"] == []
    assert obj["equality_attainers"] == [64]
    assert isinstance(obj["max_ratio"], str)
    assert isinstance(obj["elapsed_ms"], int)


def test_sweep_preconditions():
    with pytest.raises(DomainError):
        sweep_theorem_43(3)
    with pytest.raises(CapacityError):
        sweep_theorem_43(config.DEFAULT_SWEEP_CAP + 1)



# ---------------------------------------------------------------------------
# integers only: a float, a bool or a string is refused before any comparison


@pytest.mark.parametrize(
    "fn, args",
    [
        pytest.param(bound, (16.0,), id="bound-float"),
        pytest.param(bound, (True,), id="bound-bool"),
        pytest.param(bound, ("16",), id="bound-str"),
        pytest.param(sweep_theorem_43, (100.5,), id="sweep-float"),
        pytest.param(check_step4, (1.5,), id="step4-float"),
        pytest.param(check_step4, (True,), id="step4-bool"),
        pytest.param(check_inequality_1, (10.5, 3), id="inequality1-float-n"),
        pytest.param(check_inequality_1, (10, 3.0), id="inequality1-float-p"),
        pytest.param(check_induction_base, (5, 1.5), id="induction-float-alpha"),
        pytest.param(check_induction_base, (5.0, 2), id="induction-float-p"),
        pytest.param(ilog, (2, 10.5), id="ilog-float-n"),
        pytest.param(ilog, (2.0, 10), id="ilog-float-base"),
        pytest.param(InequalityParams.make, (1.5, 1, 5), id="params-float-alpha1"),
        pytest.param(InequalityParams, (1, 1, 5, "1"), id="params-str-s"),
        pytest.param(InequalityParams, (1, True, 5, 1), id="params-bool-alpha_r"),
    ],
)
def test_bounds_refuse_non_integers(fn, args):
    with pytest.raises(DomainError, match="is not an integer index"):
        fn(*args)
