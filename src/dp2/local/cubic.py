"""Cyclic-algebra construction on diagonal cubic surfaces
A x^3 + B y^3 + C z^3 + D t^3 = 0 over Q(theta), theta a primitive
cube root of unity.

The pipeline checks the genericity gate (no coefficient ratio is a
rational cube), verifies the descended-curve column identity exactly,
searches for a bounded solution of the norm equation
lambda^3 + (B/A) mu^3 + (B/A)^2 nu^3 - 3 (B/A) lambda mu nu = -C/A,
and then finds, by linear algebra, linear forms l0, l1, l2 making
h = g0 l0 + g1 l1 + g2 l2 rational and not proportional to the cubic
form.  The resulting cyclic algebra is presented by r^3 = AD/BC,
s^3 = h/x^3, s r = theta r s.

The symbolic work runs on the standard-library polynomials of
dp2.local.poly, lex in the generator order of `ring`.  Reduction is
the successive remainder by theta^2 + theta + 1, gamma^3 - AD/BC and,
for the column identity, the norm relation.  Their leading monomials
theta^2, gamma^3 and lam^3 lie in disjoint variables, and every other
term of a relation has a lower degree in that relation's variable and
does not involve the variables of the other two.  So a remainder step
by one relation keeps the theta-, gamma- and lam-exponents that the
other two look at, a term reduced by an earlier relation stays
reduced, and the successive remainder is fully reduced.  It is the
canonical form modulo the ideal, because relations with coprime
leading monomials are a Groebner basis.  h is linear in the 72 unknown
coefficients of l0, l1, l2, so it is kept as one reduced polynomial
per unknown; the gamma-free conditions are an exact linear system over
Q (80 x 72 for (1, 2, 3, 4)), brought to reduced row echelon form by a
sparse Fraction Gauss-Jordan.  The nullspace basis is read off the
RREF as sympy's Matrix.nullspace builds it (one vector per free
column, in column order, 1 there and minus the RREF column at the
pivots); the RREF is unique, so the first accepted h depends on the
system alone.  h prints as sympy's str prints the same expression."""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from ..arith import integer_nthroot
from .poly import ring


def _is_rational_cube(q: Fraction) -> bool:
    q = Fraction(q)
    return (integer_nthroot(abs(q.numerator), 3)[1]
            and integer_nthroot(q.denominator, 3)[1])


def is_cube_free_generic(A: int, B: int, C: int, D: int) -> bool:
    """No ratio of coefficients, and no balanced product ratio, is a
    rational cube; otherwise the Hasse principle is known to hold and
    the construction is not needed."""
    if any(c <= 0 for c in (A, B, C, D)):
        raise ValueError("requires positive integer coefficients")
    ratios = [Fraction(p, q) for p, q in
              itertools.combinations((A, B, C, D), 2)]
    ratios += [Fraction(A * B, C * D), Fraction(A * C, B * D),
               Fraction(A * D, B * C)]
    return not any(_is_rational_cube(r) for r in ratios)


def _g_polynomials(r, lam, mu, nu, th, gm, x, y, z, t):
    """The three components of the descended twisted-cubic equation g =
    g0 + g1 alpha + g2 alpha^2, for r = B/A; lambda, mu, nu are ring
    generators or rational constants."""
    g0 = (x ** 2 + lam * x * z + r * nu * x * t * gm
          + th ** 2 * r * mu * y * t * gm + th ** 2 * r * nu * y * z
          + (lam ** 2 - r * mu * nu) * z ** 2
          + r * (lam * nu - mu ** 2) * z * t * gm
          + r * (r * nu ** 2 - lam * mu) * t ** 2 * gm ** 2)
    g1 = (-x * y + th ** 2 * mu * x * z + th ** 2 * lam * x * t * gm
          + th * lam * y * z + th * r * nu * y * t * gm
          + (r * nu ** 2 - lam * mu) * z ** 2
          + (r * mu * nu - lam ** 2) * z * t * gm
          + r * (mu ** 2 - lam * nu) * t ** 2 * gm ** 2)
    g2 = (th * nu * x * z + th * mu * x * t * gm + y ** 2 + mu * y * z
          + lam * y * t * gm
          + (mu ** 2 - lam * nu) * z ** 2
          + (lam * mu - r * nu ** 2) * z * t * gm
          + (lam ** 2 - r * mu * nu) * t ** 2 * gm ** 2)
    return g0, g1, g2


def _column_remainder(A, B, C, D, form):
    """g0 (Ax - A lam z - B nu gamma t) + g1 (-B nu z - B mu gamma t) +
    g2 (By - B mu z - B lam gamma t) minus the cubic form with the
    coefficients form, reduced modulo theta^2 + theta + 1, gamma^3 -
    AD/BC and the norm relation in Q[theta, gamma, lam, mu, nu, x, y,
    z, t] under lex.  The remainder is the canonical form (module
    docstring), so it is zero exactly when the expression lies in the
    ideal of the relations."""
    th, gm, lam, mu, nu, x, y, z, t = ring(
        "theta", "gamma", "lam", "mu", "nu", "x", "y", "z", "t")
    r = Fraction(B, A)
    g0, g1, g2 = _g_polynomials(r, lam, mu, nu, th, gm, x, y, z, t)
    a, b, c, d = form
    expr = (g0 * (A * x - A * lam * z - B * nu * gm * t)
            + g1 * (-B * nu * z - B * mu * gm * t)
            + g2 * (B * y - B * mu * z - B * lam * gm * t)
            - (a * x ** 3 + b * y ** 3 + c * z ** 3 + d * t ** 3))
    norm = (lam ** 3 + r * mu ** 3 + r ** 2 * nu ** 3
            - 3 * r * lam * mu * nu + Fraction(C, A))
    return expr.rem(th ** 2 + th + 1, gm ** 3 - Fraction(A * D, B * C),
                    norm)


def column_identity_check(A: int, B: int, C: int, D: int) -> bool:
    """With lambda, mu, nu symbolic and constrained only by the norm
    relation, g0 (Ax - A lam z - B nu gamma t) + g1 (-B nu z -
    B mu gamma t) + g2 (By - B mu z - B lam gamma t) equals
    A x^3 + B y^3 + C z^3 + D t^3 exactly."""
    return not _column_remainder(A, B, C, D, (A, B, C, D))


def norm_residual(A, B, C, D, solution):
    """The exact value of lambda^3 + (B/A) mu^3 + (B/A)^2 nu^3 -
    3 (B/A) lambda mu nu for a candidate solution (should be -C/A)."""
    lam, mu, nu = (Fraction(c) for c in solution)
    r = Fraction(B, A)
    return lam ** 3 + r * mu ** 3 + r ** 2 * nu ** 3 - 3 * r * lam * mu * nu


def solve_norm_equation(A, B, C, D, bound=5):
    """Bounded search for rational lambda, mu, nu (denominators up to 3)
    with norm -C/A; returns a Fraction triple or None."""
    target = Fraction(-C, A)
    rng = range(-bound, bound + 1)
    for den in (1, 2, 3):
        for lam, mu, nu in itertools.product(rng, repeat=3):
            cand = (Fraction(lam, den), Fraction(mu, den),
                    Fraction(nu, den))
            if norm_residual(A, B, C, D, cand) == target:
                return cand
    return None


def _rref(rows):
    """Sparse Gauss-Jordan over Q.  rows are dicts column -> number;
    returns the pivot columns in increasing order and the nonzero rows
    of the reduced row echelon form, as dicts column -> Fraction.  Each
    new row is cleared at the known pivots, scaled to 1 at its least
    column, and then cleared from the known rows, so the known rows
    stay reduced; the RREF is unique, so the row order does not
    matter."""
    reduced = {}  # pivot column -> row, 1 there and 0 at other pivots
    for row in rows:
        row = dict(row)
        for p, known in reduced.items():
            c = row.get(p)
            if c:
                for k, v in known.items():
                    row[k] = row.get(k, 0) - c * v
        row = {k: v for k, v in row.items() if v}
        if not row:
            continue
        p = min(row)
        scale = 1 / Fraction(row[p])
        row = {k: v * scale for k, v in row.items()}
        for q, known in reduced.items():
            c = known.get(p)
            if c:
                for k, v in row.items():
                    known[k] = known.get(k, 0) - c * v
                reduced[q] = {k: v for k, v in known.items() if v}
        reduced[p] = row
    pivots = sorted(reduced)
    return pivots, [reduced[p] for p in pivots]


def find_rational_h(A, B, C, D, solution):
    """Linear forms l0, l1, l2 over k' = k(gamma), k = Q(theta), such
    that h = g0 l0 + g1 l1 + g2 l2 lies in k[x,y,z,t] (gamma-free) and
    is not proportional over k to the cubic form; returns
    (h, (l0, l1, l2)), polynomials in theta, gamma, x, y, z, t."""
    th, gm, x, y, z, t = ring("theta", "gamma", "x", "y", "z", "t")
    zero = 0 * th
    rels = (th ** 2 + th + 1, gm ** 3 - Fraction(A * D, B * C))
    lam, mu, nu = (Fraction(q) for q in solution)
    gs = _g_polynomials(Fraction(B, A), lam, mu, nu, th, gm, x, y, z, t)
    # unknown j = (i, v, a, b) is the coefficient of theta^a gamma^b v
    # in l_i; h is linear in the unknowns, h = sum_j c_j H_j
    basis = [th ** a * gm ** b * v for v in (x, y, z, t)
             for a in range(2) for b in range(3)]
    H = [(g * e).rem(*rels) for g in gs for e in basis]
    # one equation per term theta^a gamma^b (b != 0) times a monomial
    rows = {}
    for j, Hj in enumerate(H):
        for monom, coeff in Hj.terms.items():
            if monom[1]:
                rows.setdefault(monom, {})[j] = coeff
    pivots, reduced = _rref(rows.values())
    monoms = [(a, b, c, 3 - a - b - c)
              for a in range(4) for b in range(4 - a)
              for c in range(4 - a - b)]
    diagonal = {(3, 0, 0, 0): A, (0, 3, 0, 0): B, (0, 0, 3, 0): C,
                (0, 0, 0, 3): D}
    form_row = {k: diagonal[m] for k, m in enumerate(monoms)
                if m in diagonal}
    # the nullspace basis as Matrix.nullspace reads it off the RREF
    for free in (f for f in range(len(H)) if f not in pivots):
        vec = [0] * len(H)
        vec[free] = 1
        for row, col in zip(reduced, pivots):
            vec[col] -= row.get(free, 0)
        h = sum((c * Hj for c, Hj in zip(vec, H) if c), zero)
        if not h:
            continue
        # h = h0 + theta h1 is proportional to the form over Q(theta)
        # exactly when both components lie in its rational span
        v0, v1 = ({k: h.terms.get((a, 0) + m, 0)
                   for k, m in enumerate(monoms)} for a in range(2))
        if len(_rref([v0, v1, form_row])[0]) >= 2:
            n = len(basis)
            lines = (sum((c * e for c, e in zip(vec[n * i:], basis)),
                         zero) for i in range(3))
            return h, tuple(lines)
    return None


class CubicReport(NamedTuple):
    coefficients: tuple
    column_identity: bool
    norm_solution: tuple | None
    h: object  # rational cubic Poly in theta, x, y, z, t, or None
    presentation: tuple  # (r^3 value, "h/x^3", "sr = theta rs")
    transcript: tuple


def cubic_pipeline(A: int, B: int, C: int, D: int,
                   search_bound: int = 5) -> CubicReport:
    if not is_cube_free_generic(A, B, C, D):
        raise ValueError(
            "a coefficient ratio is a rational cube; the Hasse "
            "principle is known to hold for these surfaces")
    transcript = ["genericity gate passed: no ratio is a rational cube"]
    if not column_identity_check(A, B, C, D):
        raise AssertionError("column identity failed")
    transcript.append(
        "column identity g0(...) + g1(...) + g2(...) = "
        "A x^3 + B y^3 + C z^3 + D t^3 verified exactly modulo the "
        "norm relation and gamma^3 = AD/BC")
    solution = solve_norm_equation(A, B, C, D, bound=search_bound)
    h = None
    if solution is None:
        transcript.append(
            f"no norm-equation solution within bound {search_bound} "
            "(not a disproof)")
    else:
        assert norm_residual(A, B, C, D, solution) == Fraction(-C, A)
        transcript.append(
            f"norm equation solved: (lambda, mu, nu) = {solution}, "
            "residual exactly -C/A")
        found = find_rational_h(A, B, C, D, solution)
        if found is not None:
            h = found[0]
            transcript.append(
                "h = g0 l0 + g1 l1 + g2 l2 is rational and not "
                "proportional to the cubic form")
        else:
            transcript.append("no rational non-proportional h found")
    presentation = (Fraction(A * D, B * C),
                    "s^3 = h/x^3", "s r = theta r s")
    return CubicReport(coefficients=(A, B, C, D),
                       column_identity=True,
                       norm_solution=solution, h=h,
                       presentation=presentation,
                       transcript=tuple(transcript))
