import random
from fractions import Fraction

import pytest

from dp2.local.hilbert import (
    REAL_PLACE,
    _valuation,
    hilbert_symbol,
    relevant_places,
)


def solubility_oracle(a, b, p: int) -> int:
    """Brute-force check whether z^2 = a x^2 + b y^2 has a primitive
    p-adic solution, by enumeration to Hensel-sufficient depth.
    Returns +1 or -1 in the Hilbert-symbol convention."""
    a, b = Fraction(a), Fraction(b)
    # scale by squares to reach integers
    a = Fraction(a.numerator * a.denominator)
    b = Fraction(b.numerator * b.denominator)
    ai, bi = int(a), int(b)
    k = _valuation(Fraction(4 * ai * bi), p) + (3 if p == 2 else 2)
    mod = p ** k
    squares: dict[int, bool] = {}
    unit_square: dict[int, bool] = {}
    for z in range(mod):
        t = z * z % mod
        squares[t] = True
        if z % p:
            unit_square[t] = True
    for x in range(mod):
        for y in range(mod):
            t = (ai * x * x + bi * y * y) % mod
            if x % p or y % p:
                if t in squares:
                    return 1
            elif t in unit_square:
                return 1
    return -1


def product_over_places(a, b) -> int:
    out = 1
    for place in relevant_places(a, b):
        out *= hilbert_symbol(a, b, place)
    return out


def test_known_symbol_values():
    assert hilbert_symbol(-1, -1, REAL_PLACE) == -1
    assert hilbert_symbol(-1, 2, REAL_PLACE) == 1
    assert hilbert_symbol(1, -7, 2) == 1
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(2, 7, 7) == 1
    assert hilbert_symbol(-1, 3, 3) == -1
    assert hilbert_symbol(-1, 5, 5) == 1
    assert hilbert_symbol(2, 17, 17) == 1


def test_symbol_accepts_fractions():
    assert hilbert_symbol(Fraction(1, 2), Fraction(7, 9), 2) \
        == hilbert_symbol(2, 7, 2)
    assert hilbert_symbol(Fraction(-1, 4), -9, REAL_PLACE) == -1


def test_symbol_rejects_bad_input():
    with pytest.raises(ValueError):
        hilbert_symbol(0, 1, 2)
    with pytest.raises(ValueError):
        hilbert_symbol(1, 0, REAL_PLACE)
    with pytest.raises(ValueError):
        hilbert_symbol(1, 1, 4)


def test_symbol_is_symmetric_and_bimultiplicative():
    rng = random.Random(1)
    places = [REAL_PLACE, 2, 3, 5, 7]
    for _ in range(200):
        a, b, c = (rng.choice([-1, 1]) * rng.randint(1, 50)
                   for _ in range(3))
        v = rng.choice(places)
        assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
        assert hilbert_symbol(a, b * c, v) \
            == hilbert_symbol(a, b, v) * hilbert_symbol(a, c, v)
        assert hilbert_symbol(a, -a, v) == 1
        assert hilbert_symbol(a, a * b * b, v) == hilbert_symbol(a, a, v)


def test_symbol_against_solubility_oracle():
    # small inputs keep the brute-force modulus manageable
    pairs = [(1, 1), (-1, -1), (-1, 3), (3, 5), (-5, 7), (2, 7),
             (-2, 3), (5, -6), (-3, -7), (7, 7), (2, -1), (-7, 10)]
    for a, b in pairs:
        for p in (2, 3, 5, 7):
            assert hilbert_symbol(a, b, p) == solubility_oracle(a, b, p), \
                (a, b, p)


def test_relevant_places():
    assert relevant_places(1, 1) == [REAL_PLACE, 2]
    assert relevant_places(-15, Fraction(7, 2)) == [REAL_PLACE, 2, 3, 5, 7]


def test_product_formula_on_random_pairs():
    rng = random.Random(0)
    for _ in range(1000):
        a = Fraction(rng.choice([-1, 1]) * rng.randint(1, 30),
                     rng.randint(1, 30))
        b = Fraction(rng.choice([-1, 1]) * rng.randint(1, 30),
                     rng.randint(1, 30))
        assert product_over_places(a, b) == 1, (a, b)
