"""The sympy route for the descent classes on (34, 34, 34), kept as a
test oracle: number-field towers with a float embedding test and a
`minimal_polynomial` degree certificate, and build_ex74 as it ran on
sympy.polys.rings before dp2.local.poly carried two adjoined roots.

Reduction is the remainder in a sparse polynomial ring over Q
(sympy.polys.rings) under lex order, extra symbols first and then the
tower generators from the top floor down.  Each relation is monic in
its own generator, so the leading monomials g_i^(d_i) are pairwise
coprime: the relations form a Groebner basis, and the remainder is the
canonical form."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import sympy
from sympy.polys.domains import QQ
from sympy.polys.orderings import lex
from sympy.polys.rings import ring

from dp2.local.examples import ExampleClass, _check
from dp2.local.padic import QuaternionClass
from dp2.local.poly import X, Poly


@dataclass(frozen=True)
class FieldTower:
    """A tower Q(g_1, ..., g_r) given by one defining relation per
    generator (monic over the previous floor), together with a complex
    embedding used to certify the declared degrees."""

    gens: tuple  # sympy symbols
    relations: tuple  # sympy expressions that vanish
    embeddings: tuple  # complex value of each generator

    def __post_init__(self):
        if not (len(self.gens) == len(self.relations)
                == len(self.embeddings)):
            raise ValueError("tower data lengths disagree")
        degree = 1
        for g, rel in zip(self.gens, self.relations):
            degree *= sympy.degree(rel, g)
        if degree > 16:
            raise ValueError("tower degree exceeds the cap of 16")
        self._verify()

    def _verify(self):
        # each relation vanishes at the embedding, and the embeddings
        # generate a Q-vector space of the declared degree (so each
        # floor is a field, not a product ring)
        subs = dict(zip(self.gens, self.embeddings))
        for rel in self.relations:
            val = complex(sympy.N(rel.subs(subs), 30))
            if abs(val) > 1e-15:
                raise ValueError(f"embedding does not satisfy {rel}")
        alpha = sum(v * sympy.Rational(3, 7) ** i
                    for i, v in enumerate(self.embeddings, start=1))
        degree = 1
        for g, rel in zip(self.gens, self.relations):
            degree *= sympy.degree(rel, g)
        minpoly = sympy.minimal_polynomial(alpha, sympy.Symbol("_t"))
        if sympy.degree(minpoly) != degree:
            raise ValueError("declared relations are not irreducible")

    def polyring(self, extra_symbols=()):
        """(R, relations): the ring Q[extra_symbols, gens reversed]
        under lex, and the defining relations as elements of it."""
        R = ring(tuple(extra_symbols) + tuple(reversed(self.gens)), QQ,
                 lex)[0]
        return R, [R(rel) for rel in self.relations]


def _ex74_tower():
    """Q(zeta, sqrt(-17)) with zeta a primitive 8th root of unity."""
    zeta, s17 = sympy.symbols("zeta s17")
    return FieldTower(gens=(zeta, s17),
                      relations=(zeta ** 4 + 1, s17 ** 2 + 17),
                      embeddings=(sympy.exp(sympy.I * sympy.pi / 4),
                                  sympy.I * sympy.sqrt(17)))


def _ex74_act(zeta, s17, chi: int, es: int, f):
    """Coefficient action of the Galois element (chi, es) on the ring
    element f, unreduced: zeta maps to zeta^chi and sqrt(34) flips by
    (-1)^es."""
    sign = (-1) ** es * (1 if chi % 8 in (1, 3) else -1)
    return f.compose([(zeta, zeta ** chi), (s17, sign * s17)])


def _from_ring(h) -> Poly:
    """An element of Q[w, x, y, z, s17, zeta] free of s17 and zeta."""
    if any(any(m[4:]) for m in h.monoms()):
        raise AssertionError("tower generator left in h_i")
    return Poly({(*m[:4], 0, 0): Fraction(int(c.numerator),
                                          int(c.denominator))
                 for m, c in h.terms()})


def build_ex74_sympy() -> ExampleClass:
    """build_ex74 on Q[w, x, y, z, sqrt(-17), zeta], reduced by ring
    remainder modulo the tower relations."""
    tower = _ex74_tower()
    R, rels = tower.polyring(sympy.symbols("w x y z"))
    w, x, y, z, s17, zeta = R.gens

    def cyc(f):  # the substitution x -> y -> z -> x
        return f.compose([(x, y), (y, z), (z, x)])

    half = QQ(1, 2)
    rho, tau = (7, 1), (3, 0)
    delta = s17 * zeta - 4 * zeta ** 3
    eps = 4 * zeta + s17 * zeta ** 3
    rel1 = delta * _ex74_act(zeta, s17, *rho, delta) + 1
    rel2 = eps * _ex74_act(zeta, s17, *tau, eps) - 1
    rel3 = (delta * _ex74_act(zeta, s17, *rho, eps)
            - _ex74_act(zeta, s17, *tau, delta) * eps)
    transcript = [
        _check(not rel1.rem(rels), "delta rho(delta) = -1"),
        _check(not rel2.rem(rels), "eps tau(eps) = 1"),
        _check(not rel3.rem(rels), "delta rho(eps) = tau(delta) eps"),
    ]
    i_ = zeta ** 2
    sqrt2 = zeta - zeta ** 3
    inv34 = -(zeta + zeta ** 3) * s17 * QQ(1, 34)  # 1/sqrt(34)
    coef = 4 * zeta - s17 * zeta ** 3
    gfun = ((x ** 2 + i_ * y ** 2 + z ** 2 + w * inv34)
            * (y ** 2 + i_ * z ** 2
               + coef * (y ** 2 + sqrt2 * y * z + z ** 2))
            + (x ** 2 + i_ * y ** 2 - z ** 2 - w * inv34)
            * (y ** 2 + sqrt2 * y * z + z ** 2
               + coef * (-y ** 2 + i_ * z ** 2)))
    gred = gfun.rem(rels)
    parts = [gred.coeff_wrt(zeta, k) for k in range(4)]
    h1 = (half * parts[0] + (4 - s17) * half * parts[1]
          + half * parts[2] - (4 + s17) * half * parts[3]).rem(rels)
    target = (w * y ** 2 + w * z ** 2 + x ** 2 * y ** 2
              + 8 * x ** 2 * y * z + x ** 2 * z ** 2 + y ** 4 - z ** 4)
    transcript.append(_check(
        h1 == target,
        "h1 = w y^2 + w z^2 + x^2 y^2 + 8 x^2 y z + x^2 z^2 + y^4 - z^4"))
    h4 = h1 - 2 * y ** 4 + 2 * z ** 4
    hs = [h1, cyc(h1), cyc(cyc(h1)), h4, cyc(h4), cyc(cyc(h4))]
    a = (half * w * y ** 2 + 4 * w * y * z + half * w * z ** 2
         + 17 * x ** 2 * y ** 2 + 17 * x ** 2 * z ** 2
         - 4 * y ** 4 + y ** 3 * z + y * z ** 3 - 4 * z ** 4)
    b = (QQ(1, 34) * w * y ** 2 + QQ(4, 17) * w * y * z
         + QQ(1, 34) * w * z ** 2
         + x ** 2 * y ** 2 + x ** 2 * z ** 2
         + 4 * y ** 4 - y ** 3 * z - y * z ** 3 + 4 * z ** 4)
    c = (-33 * y ** 4 + 16 * y ** 3 * z - 2 * y ** 2 * z ** 2
         + 16 * y * z ** 3 - 33 * z ** 4)
    surf = x ** 4 + y ** 4 + z ** 4 - QQ(1, 34) * w ** 2
    for k, name in ((0, "h1 h4"), (1, "h2 h5"), (2, "h3 h6")):
        ident = (hs[k] * hs[k + 3] - QQ(1, 9) * (a ** 2 + 17 * b ** 2)
                 - c * surf)
        transcript.append(_check(
            not ident,
            f"{name} = (1/9)(a^2 + 17 b^2) + c (x^4+y^4+z^4-w^2/34)"))
        a, b, c = cyc(a), cyc(b), cyc(c)
    classes = tuple(
        QuaternionClass(Fraction(-17), _from_ring(h) / X ** 4,
                        label=f"(-17, h{k}/x^4)")
        for k, h in enumerate(hs, start=1))
    return ExampleClass(surface=(34, 34, 34), classes=classes,
                        transcript=tuple(transcript))
