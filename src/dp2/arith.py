"""Elementary number theory on Python integers, standard library only.

is_prime is a Miller-Rabin test with the twelve prime bases 2, 3, ...,
37, which is deterministic for n < 318665857834031151167461 (about
3.18e23; Sorenson and Webster, Math. Comp. 86 (2017)), so exact for
every n < 2^64.  factorint splits off small primes by trial division
and the rest by Pollard's rho (Brent's variant), proves every factor
prime with is_prime, and checks that the product gives n back.

Above 2^64, is_prime and factorint delegate to sympy, imported only
then; none of dp2's own inputs come near that size, but a Hilbert
symbol of huge arguments keeps its answer.
"""

from __future__ import annotations

import math

_LIMIT = 2 ** 64
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_TRIAL = 1000


def is_prime(n: int) -> bool:
    if n >= _LIMIT:
        import sympy

        return bool(sympy.isprime(n))
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A nontrivial factor of the odd composite n (Brent's cycle search
    with batched gcds)."""
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise AssertionError(f"no factor of {n} found")


def factorint(n: int) -> dict[int, int]:
    """{prime: exponent} for n >= 1, in increasing order of the primes."""
    if n < 1:
        raise ValueError(f"factorint needs a positive integer, got {n}")
    if n >= _LIMIT:
        import sympy

        return dict(sorted(sympy.factorint(n).items()))
    out: dict[int, int] = {}
    m = n
    for p in range(2, _TRIAL):
        if p * p > m:
            break
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    stack = [m] if m > 1 else []
    while stack:
        f = stack.pop()
        if is_prime(f):
            out[f] = out.get(f, 0) + 1
        else:
            g = _rho(f)
            stack += [g, f // g]
    prod = 1
    for p, e in out.items():
        prod *= p ** e
    if prod != n:
        raise AssertionError(f"factorization of {n} does not multiply back")
    return dict(sorted(out.items()))


def legendre(a: int, p: int) -> int:
    """The Legendre symbol (a/p) for an odd prime p, by Euler's
    criterion: 0 when p divides a, else +1 or -1."""
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else r
