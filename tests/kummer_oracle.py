"""The Kummer constraints with `Fraction` exponents, as `dp2.kummer`
computed them before it counted each exponent in quarters: an oracle for
`dp2.kummer.constraints`, which keeps q as a (numerator, denominator)
pair of ints.

Each monomial sqrt(A)^s (B/A)^(k/4) (C/A)^(m/4) is factored with rational
exponents; it lies in Q(zeta_8) when 2 has a half-integer exponent and
every other prime an integer one, and it is then q sqrt(2)^eps zeta^phi
with q = prod p^(whole exponent)."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from dp2.arith import factorint


class FractionVector(NamedTuple):
    """Finitely supported prime -> Fraction exponent map with a zeta_8
    phase."""

    exps: tuple  # sorted tuples (prime, Fraction)
    phase: int   # in Z/8

    def __add__(self, other):
        acc = dict(self.exps)
        for p, e in other.exps:
            acc[p] = acc.get(p, Fraction(0)) + e
        exps = tuple(sorted((p, e) for p, e in acc.items() if e))
        return FractionVector(exps, (self.phase + other.phase) % 8)

    def scale(self, c: int) -> "FractionVector":
        exps = tuple(sorted((p, c * e) for p, e in self.exps if c * e))
        return FractionVector(exps, (c * self.phase) % 8)


def fraction_vector(n: int, root_degree: int) -> FractionVector:
    """Prime factorization of the principal root_degree-th root of n."""
    exps = tuple(sorted((p, Fraction(e, root_degree))
                        for p, e in factorint(abs(n)).items()))
    return FractionVector(exps, (4 // root_degree) if n < 0 else 0)


def oracle_constraints(A: int, B: int, C: int) -> list[tuple]:
    """((s, k, m), eps, phi, (numerator, denominator) of q) for each
    monomial in Q(zeta_8), in the order `constraints` scans them."""
    root_a, root_b, root_c = (fraction_vector(n, 4) for n in (A, B, C))
    sqrt_a, inv_a = root_a.scale(2), root_a.scale(-1)
    b_over_a, c_over_a = root_b + inv_a, root_c + inv_a
    out = []
    for s in range(2):
        for k in range(4):
            for m in range(4):
                if s == k == m == 0:
                    continue
                vec = sqrt_a.scale(s) + b_over_a.scale(k) + c_over_a.scale(m)
                ok = True
                two_exp = Fraction(0)
                q = Fraction(1)
                for p, e in vec.exps:
                    if p == 2:
                        two_exp = e
                        if (2 * e).denominator != 1:
                            ok = False
                    elif e.denominator != 1:
                        ok = False
                if not ok:
                    continue
                eps = 1 if two_exp.denominator == 2 else 0
                for p, e in vec.exps:
                    whole = e - Fraction(eps, 2) if p == 2 else e
                    q *= Fraction(p) ** whole
                out.append(((s, k, m), eps, vec.phase % 8,
                            (q.numerator, q.denominator)))
    return out
