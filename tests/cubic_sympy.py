"""The sympy route of the diagonal cubic pipeline, kept as a test
oracle: the column identity and find_rational_h as they ran on sparse
polynomial rings over Q (sympy.polys.rings) and DomainMatrix before
dp2.local.cubic moved to the standard-library polynomials of
dp2.local.poly.  Results are sympy ring elements and expressions."""

from __future__ import annotations

import sympy
from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.orderings import lex
from sympy.polys.rings import ring

from dp2.local.cubic import _g_polynomials

X, Y, Z, T = sympy.symbols("x y z t")
THETA, GAMMA = sympy.symbols("theta gamma")
LAM, MU, NU = sympy.symbols("lam mu nu")


def _column_remainder(A, B, C, D, form):
    """g0 (Ax - A lam z - B nu gamma t) + g1 (-B nu z - B mu gamma t) +
    g2 (By - B mu z - B lam gamma t) minus the cubic form with the
    coefficients form, reduced modulo theta^2 + theta + 1, gamma^3 -
    AD/BC and the norm relation in Q[theta, gamma, lam, mu, nu, x, y,
    z, t] under lex.  The leading monomials theta^2, gamma^3, lam^3
    are pairwise coprime, so the relations are a Groebner basis and the
    remainder is zero exactly when the expression lies in their
    ideal."""
    R, th, gm, lam, mu, nu, x, y, z, t = ring(
        (THETA, GAMMA, LAM, MU, NU, X, Y, Z, T), QQ, lex)
    r = QQ(B, A)
    g0, g1, g2 = _g_polynomials(r, lam, mu, nu, th, gm, x, y, z, t)
    a, b, c, d = form
    expr = (g0 * (A * x - A * lam * z - B * nu * gm * t)
            + g1 * (-B * nu * z - B * mu * gm * t)
            + g2 * (B * y - B * mu * z - B * lam * gm * t)
            - (a * x ** 3 + b * y ** 3 + c * z ** 3 + d * t ** 3))
    norm = (lam ** 3 + r * mu ** 3 + r ** 2 * nu ** 3
            - 3 * r * lam * mu * nu + QQ(C, A))
    return expr.rem([th ** 2 + th + 1, gm ** 3 - QQ(A * D, B * C), norm])


def find_rational_h(A, B, C, D, solution):
    """Linear forms l0, l1, l2 over k' = k(gamma), k = Q(theta), such
    that h = g0 l0 + g1 l1 + g2 l2 lies in k[x,y,z,t] (gamma-free) and
    is not proportional over k to the cubic form; returns
    (h, (l0, l1, l2))."""
    R, th, gm, x, y, z, t = ring((THETA, GAMMA, X, Y, Z, T), QQ, lex)
    rels = [th ** 2 + th + 1, gm ** 3 - QQ(A * D, B * C)]
    lam, mu, nu = (QQ(q.numerator, q.denominator) for q in solution)
    gs = _g_polynomials(QQ(B, A), lam, mu, nu, th, gm, x, y, z, t)
    # unknown j = (i, v, a, b) is the coefficient of theta^a gamma^b v
    # in l_i; h is linear in the unknowns, h = sum_j c_j H_j
    basis = [th ** a * gm ** b * v for v in (x, y, z, t)
             for a in range(2) for b in range(3)]
    H = [(g * e).rem(rels) for g in gs for e in basis]
    # one equation per term theta^a gamma^b (b != 0) times a monomial
    rows = {}
    for j, Hj in enumerate(H):
        for monom, coeff in Hj.terms():
            if monom[1]:
                rows.setdefault(monom, {})[j] = coeff
    system = DomainMatrix(dict(enumerate(rows.values())),
                          (len(rows), len(H)), QQ)
    rref, pivots = system.rref()
    reduced = rref.to_list()
    monoms = [(a, b, c, 3 - a - b - c)
              for a in range(4) for b in range(4 - a)
              for c in range(4 - a - b)]
    diagonal = {(3, 0, 0, 0): A, (0, 3, 0, 0): B, (0, 0, 3, 0): C,
                (0, 0, 0, 3): D}
    form_vec = [QQ(diagonal.get(m, 0)) for m in monoms]
    # the nullspace basis as Matrix.nullspace reads it off the RREF
    for free in (f for f in range(len(H)) if f not in pivots):
        vec = [QQ(0)] * len(H)
        vec[free] = QQ(1)
        for row, col in enumerate(pivots):
            vec[col] -= reduced[row][free]
        h = sum((c * Hj for c, Hj in zip(vec, H) if c), R.zero)
        if not h:
            continue
        # h = h0 + theta h1 is proportional to the form over Q(theta)
        # exactly when both components lie in its rational span
        terms = dict(h.terms())
        v0, v1 = ([terms.get((a, 0) + m, QQ(0)) for m in monoms]
                  for a in range(2))
        if DomainMatrix([v0, v1, form_vec], (3, len(monoms)),
                        QQ).rank() >= 2:
            n = len(basis)
            lines = (sum((c * e for c, e in zip(vec[n * i:], basis)),
                         R.zero) for i in range(3))
            return h.as_expr(), tuple(line.as_expr() for line in lines)
    return None
