"""Construction and exact verification of the worked obstruction
classes, together with their local-invariant verdicts."""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from ..arith import factorint, is_prime, legendre
from .padic import (
    CELL_BUDGET,
    DEPTH_CAP_ODD,
    QuaternionClass,
    _CHART_VARS,
    _chart_cells,
    _is_padic_square,
    _quaternion_rows,
    _shift,
    invariant_profile,
    real_profile,
)
from .poly import T, U, W, X, Y, Z, Poly
from .profiles import CapacityError, LocalProfile, Verdict, verdict

ZERO = Fraction(0)
HALF = Fraction(1, 2)


class ExampleClass(NamedTuple):
    surface: tuple
    classes: tuple
    transcript: tuple  # human-readable lines, each a verified fact
    # groups of class indices equal in Br(S) under different
    # representatives: every default place of _verdict reads a group
    # as one class
    merge: tuple | None = None


def _check(condition: bool, message: str) -> str:
    if not condition:
        raise AssertionError(f"verification failed: {message}")
    return message


def _vanishes(expr, *relations) -> bool:
    """Whether expr reduces to 0 by lex remainders modulo each relation
    in turn: their leading monomials are pairwise coprime (t^2, w^2 or
    u^4, t^2), so they form a Groebner basis and 0 means expr is in
    their ideal."""
    return not expr.rem(*relations)


# --- conic-tangency family, first instance -------------------------------

@functools.cache
def build_ex71() -> ExampleClass:
    """The surface (-25, -5, 45) with the class (-1, g) coming from a
    conic everywhere tangent to the branch curve."""
    A, B, C = -25, -5, 45
    conic = -5 * X ** 2 - 2 * Y ** 2 + 9 * Z ** 2
    wsq = (3 * Y ** 2 - 6 * Z ** 2) ** 2
    quartic = A * X ** 4 + B * Y ** 4 + C * Z ** 4
    transcript = (
        _check(_vanishes(quartic + wsq, conic),
               "A x^4 + B y^4 + C z^4 + (3y^2-6z^2)^2 "
               "vanishes on the conic -5x^2-2y^2+9z^2 = 0"),
    )
    g = (-5 * X ** 2 - 2 * Y ** 2 + 9 * Z ** 2) / Z ** 2
    return ExampleClass(surface=(A, B, C),
                        classes=(QuaternionClass(Fraction(-1), g,
                                                 label="(-1, g)"),),
                        transcript=transcript)


def obstruct_ex71(samples=200000, depth=None) -> Verdict:
    return _verdict(build_ex71(), None, depth)


# --- conic-tangency family, parametric instance --------------------------

def represent_u2_plus_2v2(p: int):
    """Positive odd u, v with p = u^2 + 2 v^2, and s = (-1)^((u-v)/2)."""
    if not is_prime(p) or p % 16 != 3:
        raise ValueError("requires a prime congruent to 3 mod 16")
    u = 1
    while u * u < p:
        rest = p - u * u
        if rest % 2 == 0:
            v2 = rest // 2
            v = math.isqrt(v2)
            if v * v == v2:
                s = (-1) ** (((u - v) // 2) % 2)
                return u, v, s
        u += 2
    raise AssertionError(f"no representation found for {p}")


def lemma_check(p: int) -> bool:
    """Every y with y^4 = -2 (mod p) satisfies v y^2 = s u (mod p)."""
    u, v, s = represent_u2_plus_2v2(p)
    found = False
    for y in range(1, p):
        if pow(y, 4, p) == (-2) % p:
            found = True
            if (v * y * y - s * u) % p != 0:
                return False
    return found


@functools.cache
def build_ex72(p: int) -> ExampleClass:
    """The surface (-2p, -p, 2) for p = 3 mod 16, with its conic class."""
    u, v, s = represent_u2_plus_2v2(p)
    A, B, C = -2 * p, -p, 2
    conic = -s * u * X ** 2 - v * Y ** 2 + Z ** 2
    wsq = (-2 * v * X ** 2 + s * u * Y ** 2) ** 2
    quartic = A * X ** 4 + B * Y ** 4 + C * Z ** 4
    transcript = (
        _check(u % 2 == 1 and v % 2 == 1 and u > 0 and v > 0
               and p == u * u + 2 * v * v,
               f"{p} = {u}^2 + 2*{v}^2 with u, v odd positive"),
        _check(_vanishes(quartic + wsq, conic),
               "A x^4 + B y^4 + C z^4 + (-2v x^2 + su y^2)^2 "
               "vanishes on the conic -su x^2 - v y^2 + z^2 = 0"),
        _check(lemma_check(p),
               f"v y^2 = s u (mod {p}) for every fourth root of -2"),
    )
    g = (-s * u * X ** 2 - v * Y ** 2 + Z ** 2) / Z ** 2
    return ExampleClass(surface=(A, B, C),
                        classes=(QuaternionClass(Fraction(-1), g,
                                                 label="(-1, g)"),),
                        transcript=transcript)


def ex72_profile_at_p(p: int) -> LocalProfile:
    """The place p for the (-2p, -p, 2) family, by the valuation
    argument: every p-adic point has x, y units, z and w of positive
    valuation, and y^4 = -2 (mod p); then g = -2su (mod p), a unit, so
    the class is unramified.  Each finite ingredient is checked."""
    u, v, s = represent_u2_plus_2v2(p)
    _check(legendre(2, p) == -1,
           "2 is a nonsquare mod p, so v(z) > 0 at every p-adic point")
    _check(legendre(-2, p) == 1,
           "-2 is a square mod p (fourth roots exist in pairs)")
    _check(lemma_check(p), "the quartic-residue lemma holds")
    _check((-2 * s * u) % p != 0, "g reduces to the unit -2su mod p")
    return LocalProfile(place=p, modulus=p ** 2,
                        invariants=frozenset({(ZERO,)}),
                        undetermined=0, method="analytic")


def _ex72_place(ex, place, depth):
    """The place p of (-2p, -p, 2) (ex72_profile_at_p)."""
    return ex72_profile_at_p(place) if place == -ex.surface[1] else None


def obstruct_ex72(p: int, samples=200000, depth=None) -> Verdict:
    return _verdict(build_ex72(p), _ex72_place, depth)


def is_generic_triple(A: int, B: int, C: int) -> bool:
    """None of the 31 nontrivial products (-1)^d 2^e A^a B^b C^c is a
    perfect square."""
    for d, e, a, b, c in itertools.product(range(2), repeat=5):
        val = (-1) ** d * 2 ** e * A ** a * B ** b * C ** c
        if (d, e, a, b, c) != (0,) * 5 and val > 0 \
                and math.isqrt(val) ** 2 == val:
            return False
    return True


def _find_conic_point(A, B, C, bound):
    """A point (r0 : s0 : t0) with A r0^2 + B s0^2 + C t0^2 = 0 over
    Q(theta), theta^2 = -ABC, with t0 rational: coordinates returned as
    (r1, r2, s1, s2, t0) meaning r0 = r1 + r2 theta, s0 = s1 + s2 theta."""
    for t0 in range(1, bound * 2 + 1):
        for r0 in range(-2 * bound, 2 * bound + 1):
            # s0^2 = -(A r0^2 + C t0^2) / B; of the roots +-s, the
            # search over s0 from -2 bound up meets -s first
            rest, rem = divmod(-(A * r0 * r0 + C * t0 * t0), B)
            s = math.isqrt(max(rest, 0))
            if not rem and s * s == rest and s <= 2 * bound and (r0 or s):
                return (r0, 0, -s, 0, t0)
    rng = range(-bound, bound + 1)
    for t0 in range(1, bound + 1):
        for r1 in rng:
            for r2 in rng:
                for s1 in rng:
                    for s2 in rng:
                        if not (r1 or r2 or s1 or s2):
                            continue
                        # rational and theta components of the conic form
                        rat = (A * (r1 * r1 - A * B * C * r2 * r2)
                               + B * (s1 * s1 - A * B * C * s2 * s2)
                               + C * t0 * t0)
                        imag = 2 * (A * r1 * r2 + B * s1 * s2)
                        if rat == 0 and imag == 0:
                            return (r1, r2, s1, s2, t0)
    return None


@functools.cache
def build_ex73(A: int, B: int, C: int, point=None, bound=12) \
        -> ExampleClass:
    """The generic conic-bundle recipe: a conic point over Q(theta),
    theta = sqrt(-ABC), produces the class (-ABC, g)."""
    if not is_generic_triple(A, B, C):
        raise ValueError("coefficients fail the genericity test")
    if point is None:
        point = _find_conic_point(A, B, C, bound)
        if point is None:
            raise ValueError("no conic point found by the search up to "
                             "--bound; the search is not exhaustive, so "
                             "raise --bound")
    r1, r2, s1, s2, t0 = point
    theta = T  # theta^2 = -ABC
    r0 = r1 + r2 * theta
    s0 = s1 + s2 * theta
    quartic = A * X ** 4 + B * Y ** 4 + C * Z ** 4
    lhs = (C ** 2 * t0 ** 2 * quartic
           + A * B * C * (s0 * X ** 2 - r0 * Y ** 2) ** 2
           + C * (A * r0 * X ** 2 + B * s0 * Y ** 2 + C * t0 * Z ** 2)
           * (A * r0 * X ** 2 + B * s0 * Y ** 2 - C * t0 * Z ** 2))
    relation = theta ** 2 + A * B * C
    transcript = (
        _check(_vanishes(A * r0 ** 2 + B * s0 ** 2 + C * t0 ** 2, relation),
               f"A r0^2 + B s0^2 + C t0^2 = 0 for the point {point}"),
        _check(_vanishes(lhs, relation),
               "C^2 t0^2 (A x^4 + B y^4 + C z^4) + ABC (s0 x^2 - "
               "r0 y^2)^2 + C (A r0 x^2 + B s0 y^2 + C t0 z^2)"
               "(A r0 x^2 + B s0 y^2 - C t0 z^2) = 0"),
    )
    g_num = ((A * r1 * s1 + A * A * B * C * r2 * s2) * X ** 4
             + (B * s1 * s1 - A * A * B * C * r2 * r2) * X ** 2 * Y ** 2
             + C * s1 * t0 * X ** 2 * Z ** 2
             + A * C * r2 * t0 * W * X ** 2)
    # strip the rational content: a constant factor moves the class by
    # a constant algebra, which is trivial in Br(S)/Br(Q)
    _, prim = g_num.primitive()
    if prim.LC() < 0:
        prim = -prim
    g = prim / X ** 4
    return ExampleClass(surface=(A, B, C),
                        classes=(QuaternionClass(Fraction(-A * B * C), g,
                                                 label="(-ABC, g)"),),
                        transcript=transcript)


def square_d_profile(d, A, B, C, p) -> LocalProfile:
    """The place p when d is a p-adic square: the one class is split at
    every point.  Levels 1 to DEPTH_CAP_ODD are searched for a liftable
    point class, and the first that has one is the modulus.  When the
    cover dies first, S(Q_p) is empty and so is the attained set
    (inconclusive, as invariant_profile reports an empty place); with
    no liftable class by the cap, CapacityError names the place."""
    _check(_is_padic_square(d, p), f"{d} is a square in Q_{p}")
    for depth in range(1, DEPTH_CAP_ODD + 1):
        alive = False
        for _, cells in _chart_cells(A, B, C, p, depth, CELL_BUDGET):
            if any(depth >= 2 * t + 1 for *_, t in cells):
                return LocalProfile(place=p, modulus=p ** depth,
                                    invariants=frozenset({(ZERO,)}),
                                    undetermined=0, method="analytic")
            alive = alive or bool(cells)
        if not alive:
            return LocalProfile(place=p, modulus=p ** depth,
                                invariants=frozenset(), undetermined=0,
                                method="exact-enumeration")
    raise CapacityError(f"no liftable point class of S(Q_{p}) by depth "
                        f"{DEPTH_CAP_ODD}")


def _ex73_place(ex, place, depth):
    """Each odd p at which d is a p-adic square (square_d_profile)."""
    d = ex.classes[0].d
    return (square_d_profile(d, *ex.surface, place)
            if place not in ("R", 2) and _is_padic_square(d, place) else None)


def obstruct_ex73(A: int, B: int, C: int, bound=12, samples=200000,
                  depth=None) -> Verdict:
    return _verdict(build_ex73(A, B, C, bound=bound), _ex73_place, depth)


# --- descent-constructed classes on (34, 34, 34) -------------------------

def _ex74_degree_certificate(d=-17, shifted=(1, 4, 6, 4, 2)) -> None:
    """Certify exactly that Q(zeta, sqrt(d)) has degree 8 over Q, zeta a
    root of u^4 + 1.  shifted lists Phi_8(x + 1) = x^4 + 4x^3 + 6x^2 +
    4x + 2, which is Eisenstein at 2, so [Q(zeta) : Q] = 4.  The
    quadratic subfields of Q(zeta) are Q(i), Q(sqrt 2) and Q(sqrt -2),
    so sqrt(d) lies outside Q(zeta) exactly when d is not in
    <-1, 2> Q*^2: when the squarefree part of d is none of 1, -1, 2, -2
    (Neukirch, Algebraic Number Theory, on cyclotomic fields)."""
    lead, *rest = shifted
    _check(lead % 2 and not any(c % 2 for c in rest) and rest[-1] % 4,
           "Phi_8(x + 1) is Eisenstein at 2")
    squarefree = (-1 if d < 0 else 1) * math.prod(
        p for p, e in factorint(abs(d)).items() if e % 2)
    _check(squarefree not in (1, -1, 2, -2), f"sqrt({d}) is not in Q(zeta_8)")


def _ex74_act(chi: int, es: int, f):
    """Coefficient action of the Galois element (chi, es) on f,
    unreduced: zeta = U maps to zeta^chi and sqrt(34) flips by (-1)^es.
    Writing sqrt(-17) = zeta^2 sqrt(34)/(zeta - zeta^3), the sign of
    T = sqrt(-17) under chi is +1 for chi in {1, 3} and -1 for chi in
    {5, 7}, times (-1)^es."""
    sign = (-1) ** es * (1 if chi % 8 in (1, 3) else -1)
    return f.subs(U, U ** chi).subs(T, sign * T)


@functools.cache
def build_ex74() -> ExampleClass:
    """The surface (34, 34, 34): six quaternion classes (-17, h_i/x^4)
    produced by Galois descent through Q(zeta, sqrt(-17)).  The
    arithmetic runs in Q[w, x, y, z, t, u] with t = sqrt(-17) and
    u = zeta, reduced by lex remainder modulo u^4 + 1 and then
    t^2 + 17.  Each relation is monic in its own generator, so their
    leading monomials are coprime, they form a Groebner basis, and the
    remainder is the canonical form; the result is built once per
    process."""
    _ex74_degree_certificate(-17)
    rels = (U ** 4 + 1, T ** 2 + 17)

    def cyc(f):  # the substitution x -> y -> z -> x
        return Poly({(w, z, x, y, t, u): c
                     for (w, x, y, z, t, u), c in f.terms.items()})

    # rho acts by zeta -> zeta^7 and sqrt(34) -> -sqrt(34);
    # tau acts by zeta -> zeta^3 fixing sqrt(34)
    rho, tau = (7, 1), (3, 0)
    delta = T * U - 4 * U ** 3
    eps = 4 * U + T * U ** 3
    rel1 = delta * _ex74_act(*rho, delta) + 1
    rel2 = eps * _ex74_act(*tau, eps) - 1
    rel3 = delta * _ex74_act(*rho, eps) - _ex74_act(*tau, delta) * eps
    transcript = [
        _check(_vanishes(rel1, *rels), "delta rho(delta) = -1"),
        _check(_vanishes(rel2, *rels), "eps tau(eps) = 1"),
        _check(_vanishes(rel3, *rels), "delta rho(eps) = tau(delta) eps"),
    ]
    # assemble the descended function and split it along powers of zeta
    i_ = U ** 2
    sqrt2 = U - U ** 3
    inv34 = -(U + U ** 3) * T * Fraction(1, 34)  # 1/sqrt(34)
    coef = 4 * U - T * U ** 3
    gfun = ((X ** 2 + i_ * Y ** 2 + Z ** 2 + W * inv34)
            * (Y ** 2 + i_ * Z ** 2
               + coef * (Y ** 2 + sqrt2 * Y * Z + Z ** 2))
            + (X ** 2 + i_ * Y ** 2 - Z ** 2 - W * inv34)
            * (Y ** 2 + sqrt2 * Y * Z + Z ** 2
               + coef * (-Y ** 2 + i_ * Z ** 2)))
    gred = gfun.rem(*rels)
    parts = [Poly({(*m[:5], 0): c for m, c in gred.terms.items()
                   if m[5] == k}) for k in range(4)]
    h1 = (HALF * parts[0] + (4 - T) * HALF * parts[1]
          + HALF * parts[2] - (4 + T) * HALF * parts[3])
    target = (W * Y ** 2 + W * Z ** 2 + X ** 2 * Y ** 2
              + 8 * X ** 2 * Y * Z + X ** 2 * Z ** 2 + Y ** 4 - Z ** 4)
    transcript.append(_check(
        _vanishes(h1 - target, *rels),
        "h1 = w y^2 + w z^2 + x^2 y^2 + 8 x^2 y z + x^2 z^2 + y^4 - z^4"))
    h1 = h1.rem(*rels)
    h4 = h1 - 2 * Y ** 4 + 2 * Z ** 4
    hs = [h1, cyc(h1), cyc(cyc(h1)), h4, cyc(h4), cyc(cyc(h4))]
    if any(any(m[4:]) for h in hs for m in h.terms):
        raise AssertionError("tower generator left in h_i")
    # the product of partnered classes is a norm form from Q(sqrt(-17))
    # plus a multiple of the surface relation, so q_i = q_{i+3} on S
    a = (HALF * W * Y ** 2 + 4 * W * Y * Z + HALF * W * Z ** 2
         + 17 * X ** 2 * Y ** 2 + 17 * X ** 2 * Z ** 2
         - 4 * Y ** 4 + Y ** 3 * Z + Y * Z ** 3 - 4 * Z ** 4)
    b = (Fraction(1, 34) * W * Y ** 2 + Fraction(4, 17) * W * Y * Z
         + Fraction(1, 34) * W * Z ** 2
         + X ** 2 * Y ** 2 + X ** 2 * Z ** 2
         + 4 * Y ** 4 - Y ** 3 * Z - Y * Z ** 3 + 4 * Z ** 4)
    c = (-33 * Y ** 4 + 16 * Y ** 3 * Z - 2 * Y ** 2 * Z ** 2
         + 16 * Y * Z ** 3 - 33 * Z ** 4)
    surf = X ** 4 + Y ** 4 + Z ** 4 - Fraction(1, 34) * W ** 2
    for k, name in ((0, "h1 h4"), (1, "h2 h5"), (2, "h3 h6")):
        ident = (hs[k] * hs[k + 3] - Fraction(1, 9) * (a ** 2 + 17 * b ** 2)
                 - c * surf)
        transcript.append(_check(
            _vanishes(ident),
            f"{name} = (1/9)(a^2 + 17 b^2) + c (x^4+y^4+z^4-w^2/34)"))
        a, b, c = cyc(a), cyc(b), cyc(c)
    classes = tuple(
        QuaternionClass(Fraction(-17), h / X ** 4, label=f"(-17, h{k}/x^4)")
        for k, h in enumerate(hs, start=1))
    return ExampleClass(surface=(34, 34, 34), classes=classes,
                        transcript=tuple(transcript),
                        merge=((0, 3), (1, 4), (2, 5)))


def _ex74_17adic():
    """(transcript, ramification patterns, liftable class count) of
    (34, 34, 34) at 17, from one run of the chart cover to depth 2.

    Level 1 holds the 307 projective classes mod 17, and w = 0 mod 17
    on all of them, so each h_i reduces mod 17 to its w-free part, one
    value per class.  The classes with x^4+y^4+z^4 = 0 mod 17 are the
    ones that can carry a point, and their rows of q1, q2, q3 are the
    patterns.  At a unit h the invariant of (-17, h) is the Hilbert
    symbol, the Legendre symbol of h, which _quaternion_rows reads at
    j = 1 from the table every place uses.  The value mod 17 holds at
    every point of the class, not only within a Hensel distance, so it
    is read at full precision.

    Level 2 counts the classes mod 17^2 that the digit criterion u^2 =
    2 sigma, w = 17 u and sigma = (x^4+y^4+z^4)/17 a unit, certifies
    liftable.  Every partial of f vanishes mod 17 at level 1 (17 | 34
    and 17 | w), so level 2 holds one block of all 17^3 lifts over each
    class with 17^2 | f, that is with sigma = 0 mod 17 on its
    representative, which is asserted: so every class mod 17^2 lies
    over a class whose row was read.  On a block, sigma mod 17 is read
    on the 17^2 lifts of its two chart variables among x, y, z, and
    each sigma = s, a unit, has 1 + (2s/17) digits u with u^2 = 2s."""
    p = 17
    transcript = [
        _check(34 % p == 0,
               "w^2 = 34(x^4+y^4+z^4) forces w = 0 mod 17 at every point"),
        _check(legendre(-1, p) == 1,
               "-1 is a square mod 17, so inv(-17, h) = inv(17, h) is "
               "the Legendre symbol of the unit part of h"),
        _check(legendre(2, p) == 1,
               "2 is a square mod 17: a residue class (x,y,z) with "
               "x^4+y^4+z^4 = 0 mod 17 lifts to a point once a digit "
               "choice makes (x^4+y^4+z^4)/17 a nonzero square"),
    ]
    cls_terms = [(q.numerator_terms(), q.d)
                 for q in build_ex74().classes[:3]]
    patterns, n_lift = set(), 0

    def sigma(w, x, y, z):
        return x ** 4 + y ** 4 + z ** 4

    def settle(unit, j, cells):
        nonlocal n_lift
        if j == 1:
            if any(cell[0] for cell in cells):
                raise AssertionError("class with w a unit mod 17")
            on = [cell for cell in cells if sigma(*cell[:4]) % p == 0]
            rows = _quaternion_rows(cls_terms, on, p, 1, hensel=False)
            if any(-1 in row for row in rows):
                raise AssertionError("h_i not a unit on a residue class")
            patterns.update(map(tuple, rows))
            return [True] * len(cells)  # every class goes on to level 2
        for cell in cells:
            if sigma(*cell[:4]) % p:
                raise AssertionError(
                    "class mod 17^2 over a class whose row was not read")
            if cell[4] != 1:
                raise AssertionError("level-2 cell is not a 17^3 block")
            for digits in itertools.product(range(p), repeat=2):
                s = sigma(*_shift(cell[:4], _CHART_VARS[unit][1:], p,
                                  digits)) % p ** 2 // p
                if s:
                    n_lift += 1 + legendre(2 * s, p)
        return [False] * len(cells)  # nothing is left to refine

    for _ in _chart_cells(34, 34, 34, p, 2, CELL_BUDGET, settle):
        pass
    transcript.append(_check(bool(patterns), "residue classes exist"))
    transcript.append(_check(
        all(sum(pt) == 2 for pt in patterns),
        "exactly two of {q1, q2, q3} ramified on every residue class"))
    if n_lift == 0:
        raise AssertionError("no liftable classes mod 17^2")
    return tuple(transcript), patterns, n_lift


def ex74_17adic_check():
    """17-adic analysis for (34, 34, 34): on every residue class that
    can carry a Q_17-point, exactly two of the first three classes are
    ramified (_ex74_17adic).  Returns (transcript, ramification
    patterns)."""
    transcript, patterns, _ = _ex74_17adic()
    return transcript, patterns


def ex74_17adic_liftable_check():
    """The number of classes mod 17^2 certified liftable by the digit
    criterion u^2 = 2 sigma (_ex74_17adic); positive."""
    return _ex74_17adic()[2]


def _ex74_place(ex, place, depth):
    """The place 17 of (34, 34, 34), for the three independent classes
    q1, q2, q3 (the identities in the transcript give q_{i+3} = q_i on
    the surface, and ex.merge pairs the partners at every place that
    _verdict reads): exactly two of the three are ramified on every
    residue class, while at 2 and at the real place the three
    invariants agree, so no choice of attained vectors sums to zero."""
    if place != 17:
        return None
    _, patterns, _ = _ex74_17adic()
    return LocalProfile(place=17, modulus=17,
                        invariants=frozenset(
                            tuple(HALF if r else ZERO for r in pt)
                            for pt in patterns),
                        undetermined=0, method="analytic")


def obstruct_ex74(samples=200000, depth=None) -> Verdict:
    return _verdict(build_ex74(), _ex74_place, depth)


# --- the order-4 class on (-9826, -2, 136) -------------------------------

def ex75_cocycle_functions():
    """The two function-field cocycle representatives (numerator,
    denominator) over Q(i), for the surface (-9826, -2, 136); i is the
    adjoined root T."""
    i, half = T, Fraction(1, 2)
    p = 17
    f1 = (p * (1 + i) * X * Z + i * Y ** 2 - half * W,
          p * (-1 + i) * X * Z + i * Y ** 2 + half * W)
    f2 = (p * (1 - i) * X * Z + i * Y ** 2 + half * W,
          p * (1 + i) * X * Z - i * Y ** 2 + half * W)
    return f1, f2


def _ex75_norms(cls, plus, minus):
    """N_g v and N_gh v for v = [plus] - [minus], g = iota_a^3 iota_c and
    h = iota_b iota_c^3 sigma, as sums of the classes cls of curve images
    along the words of g and g h: a word moves a curve as its product does,
    since the action is a homomorphism (galois0.verify_action_homomorphism)."""
    from ..picard import generator_action

    g = ("iota_a",) * 3 + ("iota_c",)
    gh = g + ("iota_b",) + ("iota_c",) * 3 + ("sigma",)
    norms = []
    for word, n in (g, 4), (gh, 2):
        total, p, m = [0] * 8, plus, minus
        for _ in range(n):
            total = [t + a - b for t, a, b in zip(total, cls(p), cls(m))]
            for letter in reversed(word):
                p, m = generator_action(letter, p), generator_action(letter, m)
        norms.append(total)
    return norms


@functools.cache
def build_ex75() -> ExampleClass:
    """The surface (-9826, -2, 136): an order-4 obstruction class.  The
    transcript verifies the unit-modulus identities f h(f) = 1 on the
    surface and the cocycle conditions for the two printed cycle
    vectors under the dihedral quotient action.  The attached
    quaternion class is the 2-torsion generator, which is everywhere
    unramified and so cannot obstruct by itself."""
    from ..picard import Triple, build_lattice

    A, B, C = -9826, -2, 136
    surf = W ** 2 - (A * X ** 4 + B * Y ** 4 + C * Z ** 4)
    transcript = []
    for tag, (num, den) in zip(("f1", "f2"), ex75_cocycle_functions()):
        diff = num * num.subs(T, -T) - den * den.subs(T, -T)  # i -> -i
        transcript.append(_check(
            _vanishes(diff, T ** 2 + 1, surf),
            f"{tag} h({tag}) = 1 modulo the surface relation"))
    lat = build_lattice()
    v1 = (-1, 0, 1, 0, 0, 0, 0, 0)
    v2 = (-1, 0, -1, 0, -1, -1, -2, 2)
    for name, vec, plus, minus in (
            ("v1", v1, Triple(0, 1, 0), Triple(1, 2, 2)),
            ("v2", v2, Triple(0, 2, 1), Triple(1, 1, 1))):
        built = tuple(a - b for a, b in zip(lat.cls(plus), lat.cls(minus)))
        transcript.append(_check(
            built == vec, f"{name} is the printed curve-class difference"))
        transcript.append(_check(
            not any(map(any, _ex75_norms(lat.cls, plus, minus))),
            f"N_g {name} = 0 and N_gh {name} = 0 as cycles, the "
            f"cocycle conditions for the pair ({name}, 0)"))
    two_torsion = QuaternionClass(
        Fraction(-2), (136 * X ** 2 + Y ** 2 + 18 * Z ** 2) / X ** 2,
        label="(-2, 136 + (y/x)^2 + 18(z/x)^2)")
    return ExampleClass(surface=(A, B, C), classes=(two_torsion,),
                        transcript=tuple(transcript))


def _ex75_place(ex, place, depth):
    """R, 2 and 17 of the order-4 class: invariant 1/2 at 17, 0 at 2 and
    at the real place, so the class obstructs.  The build's cocycle
    identities back the profile arguments; depth does not apply, as the
    2-adic check is fixed at 2^10."""
    from . import quartic

    return {"R": quartic.ex75_real_profile, 2: quartic.ex75_2adic_profile,
            17: quartic.ex75_17adic_profile}[place]()


def obstruct_ex75() -> Verdict:
    return _verdict(build_ex75(), _ex75_place)


def _ex75_two_torsion_place(ex, place, depth):
    """R and 17 for the 2-torsion generator alone: unramified at every
    place (its residue form 136 x^2 + y^2 + 18 z^2 is positive definite,
    -2 is a 17-adic square, and the 2-adic enumeration attains only 0),
    hence no obstruction from this class."""
    if place == "R":
        _check(all(c > 0 for c in (136, 1, 18)),
               "the residue form is positive definite, so (-2, g) is "
               "unramified on S(R)")
        return LocalProfile(place="R", modulus=None,
                            invariants=frozenset({(ZERO,)}),
                            undetermined=0, method="analytic")
    return (square_d_profile(Fraction(-2), *ex.surface, 17) if place == 17
            else None)


def obstruct_ex75_two_torsion(samples=200000) -> Verdict:
    return _verdict(build_ex75(), _ex75_two_torsion_place)


# --- the obstruction pipeline ---------------------------------------------

def _places(A, B, C):
    """R, then 2 and the odd primes of ABC in ascending order; ABC is
    factored after R is read, so an error at R is raised first."""
    yield "R"
    yield from sorted({2} | set(factorint(abs(A * B * C))))


def _verdict(ex, own=None, depth=None) -> Verdict:
    """The verdict every recipe reaches: each place in the order of
    _places is decided by the recipe's own(ex, place, depth) where it
    returns a profile, and otherwise by the exact real place or the
    p-adic enumeration, both reading the recipe's merge groups, with
    depth capping the place 2 only."""
    A, B, C = ex.surface
    profiles = []
    for place in _places(A, B, C):
        profiles.append((own and own(ex, place, depth)) or (
            real_profile(ex.classes, A, B, C, merge=ex.merge)
            if place == "R" else
            invariant_profile(ex.classes, A, B, C, place, merge=ex.merge,
                              k_cap=depth if place == 2 else None)))
    return verdict(profiles)


def obstruct(A: int, B: int, C: int, bound=12, depth=None):
    """(verdict, transcript) by the recipe that covers (A, B, C): a match
    test on the coefficients, its cached builder, called once, and the
    places it decides by its own argument; _verdict reads the rest."""
    if (A, B, C) == (-25, -5, 45):
        ex, own = build_ex71(), None
    elif A == 2 * B and C == 2 and -B % 16 == 3 and is_prime(-B):
        ex, own = build_ex72(-B), _ex72_place
    elif (A, B, C) == (34, 34, 34):
        ex, own = build_ex74(), _ex74_place
    elif (A, B, C) == (-9826, -2, 136):
        ex, own = build_ex75(), _ex75_place
    elif is_generic_triple(A, B, C):
        ex, own = build_ex73(A, B, C, bound=bound), _ex73_place
    else:
        raise ValueError(
            f"recipe not implemented for coefficients ({A}, {B}, {C}): "
            "implemented are the generic conic-bundle recipe, the "
            "(-25,-5,45) and (-2p,-p,2) conic-tangency cases, (34,34,34) "
            "and (-9826,-2,136)")
    return _verdict(ex, own, depth), ex.transcript


def verify_sections():
    """(title, transcript) of each worked example that `dp2 verify` prints."""
    return [("conic tangency (-25, -5, 45)", build_ex71().transcript),
            ("conic tangency family, p = 3", build_ex72(3).transcript),
            ("conic tangency family, p = 19", build_ex72(19).transcript),
            ("generic conic bundle (-126, -91, 78)",
             build_ex73(-126, -91, 78).transcript),
            ("descent classes (34, 34, 34)", build_ex74().transcript),
            ("order-4 class (-9826, -2, 136)", build_ex75().transcript)]
