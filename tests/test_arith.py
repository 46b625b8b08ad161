import pytest
import sympy
from hypothesis import given, settings, strategies as st

from dp2.arith import (
    _jacobi,
    _strong_lucas,
    factorint,
    integer_nthroot,
    is_prime,
    legendre,
)

CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
              321197185, 5394826801, 232250619601, 9746347772161)
#: strong pseudoprimes to every prime base up to 11, 23 and 37 in turn;
#: the last one is above 2^64, where is_prime adds the strong Lucas test
STRONG_PSEUDOPRIMES = (3215031751, 3825123056546413051,
                       318665857834031151167461)


def test_is_prime_matches_sympy_up_to_1e5():
    assert [is_prime(n) for n in range(-3, 10 ** 5)] \
        == [sympy.isprime(n) for n in range(-3, 10 ** 5)]


def test_is_prime_on_carmichael_numbers_and_strong_pseudoprimes():
    for n in CARMICHAEL + STRONG_PSEUDOPRIMES:
        assert not is_prime(n)
        assert is_prime(n) == sympy.isprime(n)
    for n in (2 ** 61 - 1, 2 ** 64 - 59, 2 ** 89 - 1):
        assert is_prime(n) and sympy.isprime(n)


#: strong Lucas pseudoprimes with Selfridge's parameters (OEIS A217255)
STRONG_LUCAS_PSEUDOPRIMES = (5459, 5777, 10877, 16109, 18971, 22499,
                             24569, 25199, 40309, 58519, 75077, 97439)


def test_strong_lucas_matches_sympy():
    from sympy.ntheory.primetest import is_strong_lucas_prp

    for n in STRONG_LUCAS_PSEUDOPRIMES:
        assert _strong_lucas(n) and is_strong_lucas_prp(n)
        assert not is_prime(n)
    odd = [n for n in range(41, 200001, 2)
           if all(n % p for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))]
    assert [_strong_lucas(n) for n in odd] \
        == [is_strong_lucas_prp(n) for n in odd]


def test_jacobi_matches_sympy():
    for n in range(1, 400, 2):
        for a in range(-20, 60):
            assert _jacobi(a, n) == sympy.jacobi_symbol(a, n), (a, n)


@settings(max_examples=300, deadline=None)
@given(st.integers(2 ** 64, 2 ** 256))
def test_is_prime_matches_sympy_above_2_64(n):
    assert is_prime(n) == sympy.isprime(n)
    p = sympy.nextprime(n)
    assert is_prime(p)
    assert not is_prime(p * sympy.nextprime(2 ** 64 + n % 997))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10 ** 18))
def test_factorint_matches_sympy(n):
    fac = factorint(n)
    assert fac == sympy.factorint(n)
    assert list(fac) == sorted(fac)


def test_factorint_hard_cases():
    p, q = 10 ** 9 + 7, 10 ** 9 + 9
    cases = [1, 2, p * q, p * p, 999983 ** 3, 2 ** 59, 3 ** 37,
             4294967291 * 4294967279, 1000003 ** 2 * 999983,
             2 ** 64 - 1, 10 ** 18, 2 ** 64 + 1, 10 ** 21 + 1,
             2 ** 70 + 1, (2 ** 61 - 1) * (2 ** 31 - 1) ** 2]
    for n in cases:
        assert factorint(n) == sympy.factorint(n), n


def test_legendre_matches_sympy():
    for p in sympy.primerange(3, 200):
        for a in range(p):
            assert legendre(a, p) == sympy.legendre_symbol(a, p)
        assert legendre(-1, p) == sympy.legendre_symbol(-1, p)


@pytest.mark.parametrize("n", [3, 10 ** 6 + 3, 10 ** 20, 10 ** 20 + 7,
                               3 ** 200, 2 ** 521 - 1, 10 ** 100 + 1])
def test_integer_cube_root_exact(n):
    for k in (n - 1, n, n + 1):
        assert integer_nthroot(k ** 3, 3) == (k, True)
        assert integer_nthroot(k ** 3 + 1, 3) == (k, False)
        assert integer_nthroot(k ** 3 - 1, 3) == (k - 1, False)
    assert integer_nthroot(0, 3) == (0, True)
    assert integer_nthroot(1, 3) == (1, True)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 60), st.integers(1, 7))
def test_integer_nthroot_matches_sympy(n, k):
    assert integer_nthroot(n, k) == tuple(sympy.integer_nthroot(n, k))
