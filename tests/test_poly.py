"""The standard-library polynomial type of dp2.local.poly against sympy:
its arithmetic against sympy.polys.rings, and the integer term lists
of padic against the sympy route they replace (sympy.Poly for
compile_poly, fraction(together(g)) and sqf_list for the class
numerators)."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import QQ
from sympy.polys.orderings import lex
from sympy.polys.rings import ring

from chart_oracle import gradient_terms as _gradient_terms
from chart_oracle import surface_terms as _surface_terms
from dp2.local import examples
from dp2.local.padic import QuaternionClass, compile_poly
from dp2.local.poly import T, U, W, X, Y, Z, Poly

SYMS = sympy.symbols("w x y z t u")
SW, SX, SY, SZ, _, _ = SYMS
RING, *RING_GENS = ring(SYMS, QQ, lex)


def _to_sympy(poly):
    return sympy.Add(*(c * sympy.Mul(*(s ** e for s, e in zip(SYMS, m)))
                       for m, c in poly.terms.items()))


def _to_ring(poly):
    return RING.from_dict({m: QQ(c.numerator, c.denominator)
                           for m, c in poly.terms.items()})


def _from_ring(elem):
    return {m: Fraction(int(c.numerator), int(c.denominator))
            for m, c in elem.terms()}


def _oracle_compile(expr):
    """compile_poly by sympy.Poly, as dp2 computed it before."""
    poly = sympy.Poly(sympy.expand(expr), SW, SX, SY, SZ)
    denom = 1
    for c in poly.coeffs():
        denom = sympy.ilcm(denom, sympy.Rational(c).q)
    poly = sympy.Poly(poly.as_expr() * denom ** 2, SW, SX, SY, SZ)
    return tuple((int(c), *map(int, mono))
                 for mono, c in zip(poly.monoms(), poly.coeffs()))


def _oracle_squarefree_part(den):
    if den == 1:
        return sympy.Integer(1)
    coeff, factors = sympy.sqf_list(sympy.Poly(den, SW, SX, SY, SZ))
    coeff = sympy.Rational(coeff)
    c_int = coeff.p * coeff.q
    out = sympy.Integer(1 if c_int > 0 else -1)
    for prime, e in sympy.factorint(abs(c_int)).items():
        if e % 2:
            out *= prime
    for fac, mult in factors:
        if mult % 2:
            out *= fac.as_expr()
    return out


def _oracle_numerator_terms(g):
    """QuaternionClass.numerator_terms by fraction(together(g))."""
    if isinstance(g, tuple):
        g = _to_sympy(g[0]) / _to_sympy(g[1])
    else:
        g = _to_sympy(g)
    num, den = sympy.fraction(sympy.together(g))
    return _oracle_compile(sympy.expand(num * _oracle_squarefree_part(den)))


# --- arithmetic against sympy.polys.rings -------------------------------

_monomials = st.tuples(*(st.integers(0, 3) for _ in range(6)))
_coefficients = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
_polys = st.dictionaries(_monomials, _coefficients, max_size=5).map(Poly)
_nonzero = _polys.filter(bool)
_gens = st.sampled_from(range(6))


@settings(max_examples=200, deadline=None)
@given(_polys, _polys, _nonzero, _gens, st.integers(0, 3),
       st.integers(-3, 3))
def test_arithmetic_matches_sympy_rings(f, g, d, k, n, c):
    F, G, D = _to_ring(f), _to_ring(g), _to_ring(d)
    gen, ring_gen = (W, X, Y, Z, T, U)[k], RING_GENS[k]
    assert (f + g).terms == _from_ring(F + G)
    assert (f - g).terms == _from_ring(F - G)
    assert (f * g).terms == _from_ring(F * G)
    if f or n:  # the ring refuses 0**0
        assert (f ** n).terms == _from_ring(F ** n)
    assert (c - f).terms == _from_ring(c - F)
    assert f.rem(d).terms == _from_ring(F.rem(D))
    if g:
        assert f.rem(d, g).terms == _from_ring(F.rem(D).rem(G))
    assert f.diff(gen).terms == _from_ring(F.diff(ring_gen))
    assert f.subs(gen, c).terms == _from_ring(F.subs(ring_gen, c))
    assert f.subs(gen, -gen).terms \
        == _from_ring(F.compose(ring_gen, -ring_gen))
    content, prim = f.primitive()
    ring_content, ring_prim = F.primitive()
    assert content == Fraction(int(ring_content.numerator),
                               int(ring_content.denominator))
    assert prim.terms == _from_ring(ring_prim)
    if f:
        assert f.LC() == Fraction(int(F.LC.numerator), int(F.LC.denominator))
    if c:
        assert (f / c).terms == _from_ring(F.quo_ground(QQ(c)))
    assert sympy.sympify(f) == _to_sympy(f)


def test_no_float_coefficients():
    with pytest.raises(TypeError):
        X * 0.5
    with pytest.raises(TypeError):
        X / 2.0
    with pytest.raises(TypeError):
        X / (X + Y)


# --- term lists against the sympy route ---------------------------------

#: the classes test_padic.py builds
PADIC_CLASSES = [
    (X ** 2 + Y ** 2) / Z ** 2,
    -(X ** 2 + Y ** 2) / Z ** 2,
    (X ** 2 + Y ** 2) / (12 * Z ** 3),
    W * X ** 3,
    (-5 * X ** 2 - 2 * Y ** 2 + 9 * Z ** 2) / Z ** 2,
    X ** 2 / Z ** 2,
    (X ** 2 + 7 * Y ** 2) / Z ** 2,
    (136 * X ** 2 + Y ** 2 + 18 * Z ** 2) / X ** 2,
]

RECIPES = [
    examples.build_ex71,
    *(lambda p=p: examples.build_ex72(p) for p in (3, 19, 67, 83)),
    lambda: examples.build_ex73(-126, -91, 78),
    lambda: examples.build_ex73(-15, 3, 13, point=(0, 1, 39, 0, 18)),
    examples.build_ex74,
    examples.build_ex75,
]


@pytest.mark.parametrize("build", RECIPES)
def test_recipe_numerator_terms_match_sympy_route(build):
    for q in build().classes:
        assert q.numerator_terms() == _oracle_numerator_terms(q.g), q.label


@pytest.mark.parametrize("g", PADIC_CLASSES)
def test_padic_class_numerator_terms_match_sympy_route(g):
    q = QuaternionClass(Fraction(-1), g)
    assert q.numerator_terms() == _oracle_numerator_terms(g)


def test_numerator_moves_coefficient_denominators_to_den():
    # (x/4 + y)/z^2 = (x + 4y)/(4 z^2), and 4 z^2 is a square
    g = (X / 4 + Y) / Z ** 2
    assert QuaternionClass(Fraction(-1), g).numerator_terms() \
        == ((1, 0, 1, 0, 0), (4, 0, 0, 1, 0)) == _oracle_numerator_terms(g)
    # when all of den cancels, together() leaves z/4 + 1/4 over 1
    g = (X * Z + X * Z ** 2) / (4 * X * Z)
    assert QuaternionClass(Fraction(-1), g).numerator_terms() \
        == ((4, 0, 0, 0, 1), (4, 0, 0, 0, 0)) == _oracle_numerator_terms(g)


_numerators = st.dictionaries(st.tuples(*(st.integers(0, 3)
                                          for _ in range(4))),
                              _coefficients.filter(bool), min_size=1,
                              max_size=4)


@settings(max_examples=150, deadline=None)
@given(_numerators, st.tuples(*(st.integers(0, 4) for _ in range(4))),
       st.sampled_from([1, -1, 2, 3, 4, 12, -18, Fraction(3, 4),
                        Fraction(-5, 8)]), st.booleans())
def test_random_class_numerator_terms_match_sympy_route(num, den, coeff,
                                                        cancels):
    num = Poly({(*m, 0, 0): c for m, c in num.items()})
    if cancels:  # den is the monomial factor of num
        den = tuple(map(min, zip(*num.terms)))[:4]
    g = num / Poly({(*den, 0, 0): coeff})
    assert QuaternionClass(Fraction(-1), g).numerator_terms() \
        == _oracle_numerator_terms(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(-10 ** 4, 10 ** 4), st.integers(-10 ** 4, 10 ** 4),
       st.integers(-10 ** 4, 10 ** 4))
def test_surface_and_gradient_terms_match_sympy_route(A, B, C):
    f = A * SX ** 4 + B * SY ** 4 + C * SZ ** 4 - SW ** 2
    assert _surface_terms(A, B, C) == _oracle_compile(f)
    assert _gradient_terms(A, B, C) \
        == tuple(_oracle_compile(sympy.diff(f, v))
                 for v in (SW, SX, SY, SZ))


def test_compile_poly_matches_sympy_route_on_rationals():
    p = X / 2 + Fraction(2, 3) * W * Y ** 2 - 7 * Z ** 3
    assert compile_poly(p) == _oracle_compile(_to_sympy(p))
