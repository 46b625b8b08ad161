"""Elementary number theory on Python integers, standard library only.

is_prime is a Miller-Rabin test with the twelve prime bases 2, 3, ...,
37, which is deterministic for n < 318665857834031151167461 (about
3.18e23; Sorenson and Webster, Math. Comp. 86 (2017)), so exact for
every n < 2^64.  From 2^64 on it also runs the strong Lucas test with
Selfridge's parameters, which makes it the Baillie-PSW test (Baillie
and Wagstaff, Math. Comp. 35 (1980)) with eleven more bases: no
composite is known to pass it, and sympy.isprime applies the same test
there.  factorint splits off small primes by trial division and the
rest by Pollard's rho (Brent's variant), proves every factor prime
with is_prime, and checks that the product gives n back.  Rho needs
about sqrt(p) steps to split off a prime p, so its cycle search is
capped at rounds of _RHO_CAP steps (about 1.7e7 squarings in all),
enough for prime factors of up to about 14 digits; past the cap it
raises CapacityError (exit 4) rather than run for hours.
integer_nthroot takes exact integer roots by Newton's method on
integers, with no float step, so it stays exact at any size.
"""

from __future__ import annotations

import math

_LIMIT = 2 ** 64
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_TRIAL = 1000
_RHO_CAP = 2 ** 22


def is_prime(n: int) -> bool:
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
    return n < _LIMIT or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for an odd n > 0, by quadratic
    reciprocity."""
    a %= n
    out = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                out = -out
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """The strong Lucas probable-prime test for an odd n with no prime
    factor below 40: P = 1 and Q = (1 - D) / 4 for the first D in 5,
    -7, 9, -11, ... with (D/n) = -1 (Selfridge's method A); with
    n + 1 = d 2^s, d odd, n passes when U_d = 0 or V_(d 2^r) = 0 for
    some r < s (mod n)."""
    if math.isqrt(n) ** 2 == n:  # no such D exists
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while not d & 1:
        d >>= 1
        s += 1

    def half(v):
        v %= n
        return (v + n if v & 1 else v) // 2

    # U_k, V_k and Q^k from k = 1 along the bits of d: doubling
    # U_2k = U_k V_k, V_2k = V_k^2 - 2 Q^k; and the step k -> k + 1
    # U = (P U + V) / 2, V = (D U + P V) / 2 with P = 1
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _rho(n: int) -> int:
    """A nontrivial factor of the odd composite n (Brent's cycle search
    with batched gcds), or CapacityError past rounds of _RHO_CAP."""
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if r > _RHO_CAP:
                from .local import CapacityError

                raise CapacityError(
                    f"Pollard rho found no factor of the {len(str(n))}-digit"
                    f" composite {n} within its step cap")
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


def integer_nthroot(n: int, k: int) -> tuple[int, bool]:
    """(floor of the k-th root of n, whether it is exact) for n >= 0 and
    k >= 1.  Newton's step x -> ((k - 1) x + n // x^(k - 1)) // k never
    goes below the root from a start above it, and decreases strictly
    until it reaches the floor."""
    if n < 0 or k < 1:
        raise ValueError(f"integer_nthroot needs n >= 0 and k >= 1, "
                         f"got {n}, {k}")
    if n < 2:
        return n, True
    x = 1 << -(-n.bit_length() // k)  # 2^ceil(bits / k) > n^(1/k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x, x ** k == n
        x = y


def legendre(a: int, p: int) -> int:
    """The Legendre symbol (a/p) for an odd prime p, by Euler's
    criterion: 0 when p divides a, else +1 or -1."""
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else r
