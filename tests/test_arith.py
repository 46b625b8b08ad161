import sympy
from hypothesis import given, settings, strategies as st

from dp2.arith import factorint, is_prime, legendre

CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
              321197185, 5394826801, 232250619601, 9746347772161)
#: strong pseudoprimes to every prime base up to 11, 23 and 37 in turn;
#: the last one is above 2^64, where is_prime delegates to sympy
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
             2 ** 64 - 1, 10 ** 18, 2 ** 64 + 1, 10 ** 21 + 1]
    for n in cases:
        assert factorint(n) == sympy.factorint(n), n


def test_legendre_matches_sympy():
    for p in sympy.primerange(3, 200):
        for a in range(p):
            assert legendre(a, p) == sympy.legendre_symbol(a, p)
        assert legendre(-1, p) == sympy.legendre_symbol(-1, p)
