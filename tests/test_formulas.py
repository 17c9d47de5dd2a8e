"""Closed-form counting formulas: exactness, frozen values, composition laws."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compseries import (
    DomainError,
    Factorization,
    count_abelian,
    count_abelian_elem_sylow,
    count_cyclic,
    count_elem_abelian,
    factorize,
    maximal_subgroup_count_formula,
    multinomial,
)
from compseries.bounds import factorial_ratio, primes_upto
from compseries.formulas import exact_div, gaussian_hyperplanes, is_prime


# ---------------------------------------------------------------------------
# primality / factorization


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_factorize_360():
    assert factorize(360).pairs == ((2, 3), (3, 2), (5, 1))


def test_factorize_one_is_empty():
    f = factorize(1)
    assert f.pairs == () and f.value() == 1


def test_factorize_prime():
    assert factorize(97).pairs == ((97, 1),)


def test_factorize_rejects_nonpositive():
    with pytest.raises(DomainError):
        factorize(0)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 10**6))
def test_factorize_round_trip(n):
    f = factorize(n)
    assert f.value() == n
    assert all(is_prime(p) for p in f.primes())
    assert all(a >= 1 for a in f.exponents())


def test_factorization_validation():
    with pytest.raises(DomainError):
        Factorization(((3, 1), (2, 1)))  # primes not increasing
    with pytest.raises(DomainError):
        Factorization(((4, 1),))  # not prime
    with pytest.raises(DomainError):
        Factorization(((2, 0),))  # exponent < 1


# ---------------------------------------------------------------------------
# multinomial


def test_multinomial_values():
    assert multinomial([3, 2, 1]) == 60
    assert multinomial([7]) == 1
    assert multinomial([1, 1, 1]) == 6
    assert multinomial([]) == 1


def test_multinomial_rejects_negative():
    with pytest.raises(DomainError):
        multinomial([2, -1])


@settings(max_examples=60, deadline=None)
@given(exps=st.lists(st.integers(0, 8), max_size=5))
def test_multinomial_symmetric_and_positive(exps):
    assert multinomial(exps) == multinomial(sorted(exps)) >= 1


def test_exact_div_asserts_exactness():
    assert exact_div(12, 4) == 3
    with pytest.raises(AssertionError):
        exact_div(10, 4)


@pytest.mark.parametrize(
    "fn, args",
    [
        (is_prime, (2.5,)),
        (is_prime, (7.0,)),
        (is_prime, (True,)),
        (gaussian_hyperplanes, (3.0, 2)),
        (gaussian_hyperplanes, (2.5, 2)),
        (exact_div, (7.5, 2.5)),
        (primes_upto, (10.5,)),
        (factorial_ratio, (1.5, 1, 1, 1)),
    ],
)
def test_integer_entry_points_refuse_floats_and_bools(fn, args):
    with pytest.raises(DomainError, match="is not an integer index"):
        fn(*args)


# ---------------------------------------------------------------------------
# count_cyclic


def test_count_cyclic_values():
    assert count_cyclic(360) == 60
    assert count_cyclic(13) == 1
    assert count_cyclic(12) == 3
    assert count_cyclic(1) == 1
    assert count_cyclic(factorize(360)) == 60  # accepts a Factorization too


# ---------------------------------------------------------------------------
# count_elem_abelian


def test_count_elem_abelian_values():
    assert count_elem_abelian(2, 6) == 615195
    assert count_elem_abelian(5, 0) == 1
    assert count_elem_abelian(3, 2) == 4


def test_count_elem_abelian_rejects_bad_input():
    with pytest.raises(DomainError):
        count_elem_abelian(6, 2)
    with pytest.raises(DomainError):
        count_elem_abelian(3, -1)


def test_count_elem_abelian_monotone_in_k():
    # k = 0 and k = 1 both give a single chain; strictly increasing after that
    for p in (2, 3, 5, 7):
        vals = [count_elem_abelian(p, k) for k in range(11)]
        assert vals[0] == vals[1] == 1
        assert all(a < b for a, b in zip(vals[1:], vals[2:])), p


def test_gaussian_hyperplanes():
    assert gaussian_hyperplanes(2, 3) == 7
    assert gaussian_hyperplanes(3, 2) == 4
    assert gaussian_hyperplanes(5, 1) == 1


# ---------------------------------------------------------------------------
# count_abelian / count_abelian_elem_sylow


def test_count_abelian_values():
    assert count_abelian(12, [3, 1]) == 9
    assert count_abelian(factorize(8), [5]) == 5  # single prime: multinomial is 1
    assert count_abelian(360, [1, 1, 1]) == 60


def test_count_abelian_rejects_bad_sylow_counts():
    with pytest.raises(DomainError):
        count_abelian(12, [3])  # one count per prime required
    with pytest.raises(DomainError):
        count_abelian(12, [3, 0])


def test_count_abelian_elem_sylow_values():
    assert count_abelian_elem_sylow(12) == 9
    assert count_abelian_elem_sylow(64) == 615195
    assert count_abelian_elem_sylow(4) == 3
    assert count_abelian_elem_sylow(1) == 1


def test_elem_sylow_composition_identity():
    """Composing the per-prime counts reproduces the one-shot formula, n <= 10^4."""
    for n in range(1, 10_001):
        f = factorize(n)
        t = [count_elem_abelian(p, a) for p, a in f.pairs]
        assert count_abelian_elem_sylow(f) == (count_abelian(f, t) if t else 1)


def test_cyclic_is_abelian_with_unit_sylow_counts():
    for n in range(1, 2001):
        f = factorize(n)
        if f.pairs:
            assert count_cyclic(f) == count_abelian(f, [1] * len(f.pairs))


# ---------------------------------------------------------------------------
# maximal_subgroup_count_formula


def test_maximal_count_formula_values():
    assert maximal_subgroup_count_formula(3600) == 25  # 15 + 4 + 6
    assert maximal_subgroup_count_formula(11) == 1
    assert maximal_subgroup_count_formula(12) == 4
    assert maximal_subgroup_count_formula(1) == 0


# ---------------------------------------------------------------------------
# integers only: a float, a bool or a string is refused, never truncated


@pytest.mark.parametrize(
    "fn, args",
    [
        pytest.param(Factorization, (((2.9, 1),),), id="Factorization-float-prime"),
        pytest.param(Factorization, (((2, True),),), id="Factorization-bool-exponent"),
        pytest.param(multinomial, ([1.5, 2],), id="multinomial-float"),
        pytest.param(multinomial, (["2", 2],), id="multinomial-str"),
        pytest.param(count_abelian, (12, [1.5, 1]), id="count_abelian-float-count"),
        pytest.param(count_abelian, (12.0, [1, 1]), id="count_abelian-float-n"),
        pytest.param(factorize, (12.7,), id="factorize-float"),
        pytest.param(factorize, (True,), id="factorize-bool"),
        pytest.param(count_cyclic, (12.0,), id="count_cyclic-float"),
        pytest.param(count_cyclic, (True,), id="count_cyclic-bool"),
        pytest.param(count_cyclic, ("12",), id="count_cyclic-str"),
        pytest.param(count_elem_abelian, (2, 2.5), id="count_elem_abelian-float-k"),
        pytest.param(count_elem_abelian, (2.0, 2), id="count_elem_abelian-float-p"),
        pytest.param(count_elem_abelian, (2, True), id="count_elem_abelian-bool-k"),
    ],
)
def test_formulas_refuse_non_integers(fn, args):
    with pytest.raises(DomainError, match="is not an integer index"):
        fn(*args)


class IntLike:
    """An integer that is not an int: it has ``__index__`` only."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_formulas_read_integer_like_values_as_ints():
    assert Factorization(((IntLike(2), IntLike(3)),)).pairs == ((2, 3),)
    assert type(Factorization(((IntLike(2), 1),)).pairs[0][0]) is int
    assert multinomial([IntLike(1), 2]) == 3
    assert count_cyclic(IntLike(12)) == count_cyclic(12) == 3
    assert count_elem_abelian(IntLike(2), IntLike(3)) == count_elem_abelian(2, 3) == 21
