"""Exact determination of the Galois group of Q(zeta_8, sqrt(A),
(B/A)^(1/4), (C/A)^(1/4)) from the coefficients.

Radical monomials sqrt(A)^s * (B/A)^(k/4) * (C/A)^(m/4) are factored
exactly; each one lying in Q(zeta_8) -- necessarily of the form
q * sqrt(2)^eps * zeta^phi with q a positive rational -- cuts the
generic group of order 128 down by one constraint.  Principal branches
throughout: for negative t, sqrt(t) = |t|^(1/2) zeta^2 and
t^(1/4) = |t|^(1/4) zeta.  Every exponent is a sum of integer multiples
of fourth-root exponents e/4, so it is kept as an integer count of
quarters, and q as a (numerator, denominator) pair of ints.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .arith import factorint
from .galois0 import (
    ALL_ELEMENTS,
    IOTA_A,
    IOTA_B,
    IOTA_C,
    SIGMA,
    TAU,
    GroupElement,
    Subgroup,
    _AUT,
    _images,
    generate_subgroup,
)

_FACTOR_CAP = 10 ** 18


def _factor(n: int) -> dict:
    if abs(n) > _FACTOR_CAP:
        raise ValueError(f"coefficient {n} exceeds the factorization cap")
    return factorint(abs(n))


class RadicalMonomial(NamedTuple):
    s: int  # Z/2
    k: int  # Z/4
    m: int  # Z/4


class KummerConstraint(NamedTuple):
    monomial: RadicalMonomial
    eps: int    # exponent of sqrt(2)
    phi: int    # zeta_8 phase
    rational: tuple  # q as (numerator, denominator) in lowest terms

    def satisfied_by(self, g: GroupElement) -> bool:
        lhs = (4 * self.monomial.s * g.e_s
               + 2 * (self.monomial.k * g.e_k + self.monomial.m * g.e_m)) % 8
        sqrt2_flip = 1 if g.chi in (3, 5) else 0
        rhs = (4 * self.eps * sqrt2_flip + (g.chi - 1) * self.phi) % 8
        return lhs == rhs


def constraints(A: int, B: int, C: int) -> list[KummerConstraint]:
    """Scan all 32 monomials; emit a constraint for each one that lands in
    Q(zeta_8), i.e. equals q * sqrt(2)^eps * zeta^phi with q in Q_+.

    A, B and C are each factored once.  With a_p, b_p, c_p the exponents
    of p in them, the exponent of p in sqrt(A)^s (B/A)^(k/4) (C/A)^(m/4)
    is, in quarters, the linear form 2s a_p + k (b_p - a_p) + m (c_p - a_p).
    The principal branches give the zeta_8 phase
    2s [A<0] + k ([B<0] - [A<0]) + m ([C<0] - [A<0]) mod 8."""
    fa, fb, fc = (_factor(n) for n in (A, B, C))
    forms = [(p, 2 * fa.get(p, 0), fb.get(p, 0) - fa.get(p, 0),
              fc.get(p, 0) - fa.get(p, 0)) for p in {**fa, **fb, **fc}]
    na, nb, nc = A < 0, B < 0, C < 0
    out = []
    for s in range(2):
        for k in range(4):
            for m in range(4):
                if s == k == m == 0:
                    continue
                exps = [(p, s * x + k * y + m * z) for p, x, y, z in forms]
                # in Q(zeta_8) iff 2 has a half-integer exponent and
                # every other prime an integer one
                if any(e % (2 if p == 2 else 4) for p, e in exps):
                    continue
                eps = dict(exps).get(2, 0) % 4 // 2
                num = den = 1
                for p, e in exps:
                    whole = (e - 2 * eps if p == 2 else e) // 4
                    if whole > 0:
                        num *= p ** whole
                    else:
                        den *= p ** -whole
                phi = (2 * s * na + k * (nb - na) + m * (nc - na)) % 8
                out.append(KummerConstraint(
                    monomial=RadicalMonomial(s, k, m), eps=eps, phi=phi,
                    rational=(num, den)))
    return out


@lru_cache(maxsize=1)
def galois_group(A: int, B: int, C: int) -> Subgroup:
    """The subgroup of the generic group cut out by all constraints;
    `Subgroup` refuses a solution set that is not a subgroup.  The last
    one is cached: `analyze` and its `table2_match` share it."""
    if A == 0 or B == 0 or C == 0:
        raise ValueError("coefficients must be nonzero")
    cons = constraints(A, B, C)
    mask = sum(1 << i for i, g in enumerate(ALL_ELEMENTS)
               if all(c.satisfied_by(g) for c in cons))
    return Subgroup(mask)


# --- the twelve maximal classes -----------------------------------------

class Table2Row(NamedTuple):
    index: int  # the row number; the field shadows tuple.index
    generators: tuple
    br_divisors: tuple
    pic_rank: int
    condition: tuple  # (sign, two_exp, a_exp, b_exp, c_exp)
    example: tuple


TABLE2: tuple[Table2Row, ...] = (
    Table2Row(1, (IOTA_A * SIGMA, IOTA_A * IOTA_B, IOTA_A * IOTA_C, TAU),
              (2,), 1, (-1, 1, 1, 1, 1), (-15, 10, 3)),
    Table2Row(2, (IOTA_A * SIGMA, IOTA_B, IOTA_C, TAU),
              (2,), 1, (-1, 1, 1, 0, 0), (-2, 3, 5)),
    Table2Row(3, (IOTA_A * SIGMA, IOTA_A * IOTA_B, IOTA_C, TAU),
              (2,), 1, (-1, 1, 1, 1, 0), (-6, 3, 5)),
    Table2Row(4, (IOTA_A * TAU, IOTA_A * IOTA_B, IOTA_A * IOTA_C, SIGMA),
              (2,), 1, (1, 1, 1, 1, 1), (3, 10, 15)),
    Table2Row(5, (IOTA_A * TAU, IOTA_B, IOTA_C, SIGMA),
              (2,), 1, (1, 1, 1, 0, 0), (2, 3, 5)),
    Table2Row(6, (IOTA_A * TAU, IOTA_A * IOTA_B, IOTA_C, SIGMA),
              (2,), 1, (1, 1, 1, 1, 0), (-6, -3, 5)),
    Table2Row(7, (IOTA_A * SIGMA, IOTA_A * IOTA_B, IOTA_A * IOTA_C,
                  SIGMA * TAU),
              (), 2, (-1, 0, 1, 1, 1), (-15, 3, 5)),
    Table2Row(8, (IOTA_A * SIGMA, IOTA_B, IOTA_C, SIGMA * TAU),
              (2,), 1, (-1, 0, 1, 0, 0), (-1, 3, 5)),
    Table2Row(9, (IOTA_A * SIGMA, IOTA_A * IOTA_A, IOTA_A * IOTA_B,
                  IOTA_C, SIGMA * TAU),
              (2,), 1, (-1, 0, 1, 1, 0), (-63, 7, 15)),
    Table2Row(10, (IOTA_A * IOTA_B, IOTA_A * IOTA_C, SIGMA, TAU),
               (2,), 1, (1, 0, 1, 1, 1), (3, 5, 15)),
    Table2Row(11, (IOTA_B, IOTA_C, SIGMA, TAU),
               (2,), 1, (1, 0, 1, 0, 0), (1, 3, 5)),
    Table2Row(12, (IOTA_A * IOTA_A, IOTA_A * IOTA_B, IOTA_C, SIGMA, TAU),
               (2, 2), 1, (1, 0, 1, 1, 0), (-63, -7, 5)),
)


def condition_holds(row: Table2Row, A: int, B: int, C: int) -> bool:
    sign, e2, ea, eb, ec = row.condition
    val = sign * 2 ** e2 * A ** ea * B ** eb * C ** ec
    if val <= 0:
        return False
    r = math.isqrt(val)
    return r * r == val


def row_subgroup(row: Table2Row) -> Subgroup:
    return generate_subgroup(row.generators)


def contained_up_to_symmetry(s: Subgroup, big: Subgroup) -> bool:
    """Is s contained in big up to G0-conjugacy and the S3 relabeling:
    does a conjugate of a relabeled image of s lie in big?  Those images
    are the orbit of s under the group that conjugation and the
    relabelings generate: a relabeling phi normalises the inner
    automorphisms, phi c_g phi^-1 = c_phi(g), so that group is
    {c_g phi}."""
    outside = ~big.mask()
    return any(not m & outside for m in _images(s.mask(), _AUT))


def table2_match(A: int, B: int, C: int) -> int | None:
    """Index of the first row whose square condition holds and whose
    subgroup contains the actual Galois group up to symmetry."""
    g = galois_group(A, B, C)
    for row in TABLE2:
        if condition_holds(row, A, B, C) and \
                contained_up_to_symmetry(g, row_subgroup(row)):
            return row.index
    return None
