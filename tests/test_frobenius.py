"""The Galois model against Frobenius at the good primes.

For a prime p that does not divide 2ABC, the surface S: w^2 = A x^4 +
B y^4 + C z^4 has good reduction, and Weil's formula for rational
surfaces (Manin, Cubic Forms, ch. IV) reads

    #S(F_p) = p^2 + p a_p + 1,

with a_p the trace of Frobenius on Pic of S over the algebraic closure.
Frobenius acts there as an element of the Galois group, so a_p is the
trace of matrix_of(g) for some g in galois_group(A, B, C).  The point
count shares no code with the model: it is a character sum over F_p,
in the standard library only.  The check is one-sided: it catches a
model group that misses a Frobenius class, not one that is too big."""

import json
import pathlib
from collections import Counter

import pytest

from dp2.galois0 import matrix_of
from dp2.kummer import galois_group

PRIMES = [p for p in range(3, 200) if all(p % q for q in range(2, p))]

_REFERENCES = json.loads((pathlib.Path(__file__).parent.parent / "bench"
                          / "references.json").read_text())
#: the analyze pool and the obstruct references, which hold every recipe
#: surface: (-25, -5, 45), (-6, -3, 2), (-126, -91, 78), (34, 34, 34),
#: (-9826, -2, 136) and members of the (-2p, -p, 2) family
POOL = [tuple(map(int, key.split(","))) for key in _REFERENCES["analyze"]]
RECIPES = [tuple(map(int, key.split(",")))
           for key in _REFERENCES["obstruct"]]


def point_count(A, B, C, p):
    """#S(F_p) as the sum over P^2(F_p) of 1 + (F/p), F = A x^4 + B y^4
    + C z^4.  F(lx, ly, lz) = l^4 F(x, y, z), so every projective point
    is p - 1 affine ones with the same symbol, and the sum is (p^3 - 1 +
    sum over F_p^3 of (F/p)) / (p - 1).  The affine sum runs over the
    fourth powers with their multiplicities."""
    squares = {x * x % p for x in range(1, p)}
    chi = [0] + [1 if v in squares else -1 for v in range(1, p)]
    fourth = Counter(pow(x, 4, p) for x in range(p))
    ab = Counter()
    for a, na in fourth.items():
        for b, nb in fourth.items():
            ab[(A * a + B * b) % p] += na * nb
    cz = [(C * c % p, n) for c, n in fourth.items()]
    total = sum(n * sum(nc * chi[(v + w) % p] for w, nc in cz)
                for v, n in ab.items())
    count, rest = divmod(p ** 3 - 1 + total, p - 1)
    assert rest == 0, (A, B, C, p)
    return count


def frobenius_trace(A, B, C, p):
    """a_p = (#S(F_p) - p^2 - 1) / p, asserted to be an integer."""
    a_p, rest = divmod(point_count(A, B, C, p) - p * p - 1, p)
    assert rest == 0, (A, B, C, p)
    return a_p


def _misses(A, B, C):
    """The good primes below 200 whose a_p is the trace of no element of
    galois_group(A, B, C), as (p, a_p), and the number of primes read."""
    traces = {sum(row[i] for i, row in enumerate(matrix_of(g).rows))
              for g in galois_group(A, B, C).elements}
    good = [p for p in PRIMES if (2 * A * B * C) % p]
    return [(p, a_p) for p in good
            if (a_p := frobenius_trace(A, B, C, p)) not in traces], len(good)


def _brute_point_count(A, B, C, p):
    """#S(F_p) point by point over P^2(F_p), by Euler's criterion."""
    points = [(1, y, z) for y in range(p) for z in range(p)]
    points += [(0, 1, z) for z in range(p)] + [(0, 0, 1)]
    total = 0
    for x, y, z in points:
        f = (A * x ** 4 + B * y ** 4 + C * z ** 4) % p
        total += 1 if f == 0 else 1 + (1 if pow(f, (p - 1) // 2, p) == 1
                                       else -1)
    return total


def test_point_count_small_cases():
    # w^2 = x^4 + y^4 + z^4 over F_3, where a nonzero fourth power is 1:
    # F counts the nonzero coordinates, so the three coordinate points
    # give two points each, the six with two nonzero ones none (2 is not
    # a square) and the four with three one each (F = 0)
    assert point_count(1, 1, 1, 3) == 3 * 2 + 4 == _brute_point_count(
        1, 1, 1, 3)
    for A, B, C in ((1, 1, 1), (-6, -3, 2), (34, 34, 34), (3, 5, 7)):
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 37, 41):
            if (2 * A * B * C) % p:
                assert point_count(A, B, C, p) \
                    == _brute_point_count(A, B, C, p), (A, B, C, p)


@pytest.mark.parametrize("triples", [POOL, RECIPES], ids=["pool", "recipes"])
def test_frobenius_trace_is_a_trace_of_the_galois_group(triples):
    checked, misses = 0, {}
    for A, B, C in triples:
        missed, n = _misses(A, B, C)
        checked += n
        if missed:
            misses[A, B, C] = missed
    assert not misses
    assert checked > 30 * len(triples)
