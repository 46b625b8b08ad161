"""Hilbert symbols over the rationals by the closed formula at each
place, and the places at which a symbol can be -1; the hilbert
subcommand checks the product formula over those places."""

from __future__ import annotations

from fractions import Fraction

from ..arith import factorint, is_prime, legendre

REAL_PLACE = "R"


def render_place(place) -> str:
    return "R" if place == REAL_PLACE else f"Q_{place}"


def _valuation(q: Fraction, p: int) -> int:
    v = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _unit_part_mod(q: Fraction, p: int, modulus: int) -> int:
    """The unit u with q = p^v u, reduced modulo `modulus` (coprime to p)."""
    v = _valuation(q, p)
    num, den = q.numerator, q.denominator
    if v > 0:
        num //= p ** v
    elif v < 0:
        den //= p ** (-v)
    return num * pow(den, -1, modulus) % modulus


def hilbert_symbol(a, b, place) -> int:
    """The Hilbert symbol (a, b)_v, with place a prime or "R"."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol requires nonzero arguments")
    if place == REAL_PLACE:
        return -1 if (a < 0 and b < 0) else 1
    p = int(place)
    if not is_prime(p):
        raise ValueError(f"not a place: {place!r}")
    alpha, beta = _valuation(a, p), _valuation(b, p)
    if p == 2:
        u = _unit_part_mod(a, 2, 8)
        v = _unit_part_mod(b, 2, 8)
        eps_u, eps_v = (u - 1) // 2 % 2, (v - 1) // 2 % 2
        omega_u, omega_v = (u * u - 1) // 8 % 2, (v * v - 1) // 8 % 2
        e = eps_u * eps_v + alpha * omega_v + beta * omega_u
        return -1 if e % 2 else 1
    u = _unit_part_mod(a, p, p)
    v = _unit_part_mod(b, p, p)
    e = alpha * beta * ((p - 1) // 2)
    sign = (-1) ** (e % 2)
    if beta % 2:
        sign *= legendre(u, p)
    if alpha % 2:
        sign *= legendre(v, p)
    return sign


def relevant_places(a, b) -> list:
    """The real place, 2, and every odd prime dividing a or b."""
    a, b = Fraction(a), Fraction(b)
    primes = {2}
    for q in (a.numerator, a.denominator, b.numerator, b.denominator):
        primes.update(factorint(abs(q)))
    return [REAL_PLACE] + sorted(primes)
