from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

import cubic_sympy
from dp2.local.cubic import (
    _column_remainder,
    column_identity_check,
    cubic_pipeline,
    find_rational_h,
    is_cube_free_generic,
    norm_residual,
    solve_norm_equation,
)
from dp2.local.poly import ring

GAMMA = sympy.Symbol("gamma")


# str(h) of the first accepted h as the sympy-Expr solver (Matrix.nullspace)
# printed it
PINNED_H = {
    (1, 2, 3, 4): (
        "-2*t**3*theta/3 + 2*t**3/3 - 7*theta*x**3/16"
        " + theta*x**2*y/2 - 3*theta*x*y**2/4 - 5*theta*z**3/16"
        " + x**3/8 - x**2*y/4 - 9*x**2*z/16 + x*y**2/4 + 3*x*y*z/4"
        " + 3*x*z**2/16 - 3*y**2*z/4 - 3*y*z**2/4 + 5*z**3/16"),
    (2, 3, 5, 7): (
        "-7*t**3*theta/9 + 7*t**3/9 - 8*theta*x**3/27"
        " + 2*theta*x**2*y/3 - 10*theta*x**2*z/9 + 10*theta*x*z**2/9"
        " - 5*theta*y**2*z/3 + 5*theta*y*z**2/3 - 65*theta*z**3/27"
        " - 10*x**3/27 + 2*x**2*y/3 - 2*x*y**2/3 - 10*z**3/27"),
    (1, 2, 3, 5): (
        "-5*t**3*theta/6 + 5*t**3/6 - 7*theta*x**3/16"
        " + theta*x**2*y/2 - 3*theta*x*y**2/4 - 5*theta*z**3/16"
        " + x**3/8 - x**2*y/4 - 9*x**2*z/16 + x*y**2/4 + 3*x*y*z/4"
        " + 3*x*z**2/16 - 3*y**2*z/4 - 3*y*z**2/4 + 5*z**3/16"),
}


def test_cube_free_gate():
    assert is_cube_free_generic(1, 2, 3, 4)
    assert is_cube_free_generic(2, 3, 5, 7)
    assert not is_cube_free_generic(1, 1, 2, 3)  # A/B = 1 is a cube
    assert not is_cube_free_generic(1, 8, 3, 5)  # B/A = 8 is a cube
    assert not is_cube_free_generic(2, 3, 6, 8)  # AB/CD = 1/8 is a cube
    with pytest.raises(ValueError):
        is_cube_free_generic(0, 1, 2, 3)
    with pytest.raises(ValueError):
        cubic_pipeline(1, 1, 2, 3)


def test_column_identity_three_coefficient_sets():
    assert column_identity_check(1, 2, 3, 4)
    assert column_identity_check(2, 3, 5, 7)
    assert column_identity_check(1, 2, 3, 5)


def test_column_identity_remainder_negative_control():
    # the same expression with D replaced by D + 1 in the form
    assert not _column_remainder(1, 2, 3, 4, (1, 2, 3, 4))
    wrong = _column_remainder(1, 2, 3, 4, (1, 2, 3, 5))
    assert sympy.sympify(wrong) == -sympy.Symbol("t") ** 3


def test_norm_equation_search_and_residual():
    sol = solve_norm_equation(1, 2, 3, 4)
    assert sol is not None
    assert norm_residual(1, 2, 3, 4, sol) == Fraction(-3)
    # the printed-style small solution is also valid
    assert norm_residual(1, 2, 3, 4, (-1, -1, 0)) == Fraction(-3)
    assert solve_norm_equation(1, 2, 3, 4, bound=0) is None


def test_rational_h_not_proportional():
    sol = (Fraction(-1), Fraction(-1), Fraction(0))
    found = find_rational_h(1, 2, 3, 4, sol)
    assert found is not None
    h, lines = found
    assert not sympy.sympify(h).has(GAMMA)
    assert len(lines) == 3
    x, y, z, t = sympy.symbols("x y z t")
    form = x ** 3 + 2 * y ** 3 + 3 * z ** 3 + 4 * t ** 3
    ratio = sympy.cancel(h / form)
    assert ratio.has(x) or ratio.has(y) or ratio.has(z) or ratio.has(t)


@pytest.mark.parametrize("coeffs", sorted(PINNED_H))
def test_first_accepted_h_pinned(coeffs):
    h, _ = find_rational_h(*coeffs, solve_norm_equation(*coeffs))
    assert str(h) == PINNED_H[coeffs]


def test_pipeline_report():
    rep = cubic_pipeline(1, 2, 3, 4)
    assert rep.column_identity
    assert rep.norm_solution is not None
    assert rep.h is not None and not sympy.sympify(rep.h).has(GAMMA)
    assert rep.presentation[0] == sympy.Rational(4, 6)
    assert len(rep.transcript) == 4


def test_pipeline_without_norm_solution():
    rep = cubic_pipeline(1, 2, 3, 4, search_bound=0)
    assert rep.norm_solution is None and rep.h is None
    assert "no norm-equation solution" in rep.transcript[-1]


# --- the standard-library route against the sympy oracle ----------------

@settings(max_examples=25, deadline=None)
@given(st.tuples(*(st.integers(1, 12) for _ in range(4))))
def test_pipeline_matches_sympy_oracle(coeffs):
    # generic positive coefficients: equal h (as printed), l_i, norm
    # solution and column remainder, zero or not
    assume(is_cube_free_generic(*coeffs))
    A, B, C, D = coeffs
    for form in (coeffs, (A, B, C, D + 1)):
        ours = _column_remainder(A, B, C, D, form)
        theirs = cubic_sympy._column_remainder(A, B, C, D, form)
        assert bool(ours) == bool(theirs)
        assert sympy.sympify(ours) == theirs.as_expr()
    sol = solve_norm_equation(*coeffs, bound=2)
    rep = cubic_pipeline(*coeffs, search_bound=2)
    assert rep.norm_solution == sol
    if sol is None:
        assert rep.h is None
        return
    found = find_rational_h(*coeffs, sol)
    expected = cubic_sympy.find_rational_h(*coeffs, sol)
    assert (found is None) == (expected is None)
    if found is not None:
        (h, lines), (h_ref, lines_ref) = found, expected
        assert str(h) == str(h_ref) == str(rep.h)
        assert list(map(str, lines)) == list(map(str, lines_ref))


_NAMES = ("theta", "gamma", "x", "y", "z", "t")
_monomials = st.tuples(*(st.integers(0, 3) for _ in _NAMES))
_coefficients = st.sampled_from([1, -1, 2, -3]) | st.builds(
    Fraction, st.integers(-20, 20), st.integers(1, 9))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_monomials, _coefficients, max_size=6),
       st.sampled_from([0, 1, -1, 5, Fraction(-2, 3)]))
@example({}, 0)
@example({(0, 0, 0, 0, 0, 1): -1}, Fraction(-5, 16))
@example({(0, 0, 0, 0, 0, 2): Fraction(-1, 2)}, 1)
@example({(0, 0, 1, 0, 0, 1): -1}, 1)
def test_printer_matches_sympy_str(terms, constant):
    # unit and integer coefficients and constant terms included
    gen = ring(*_NAMES)[0]
    poly = type(gen)(terms) + constant
    expected = sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*(sympy.Symbol(n) ** e for n, e in zip(_NAMES, m)))
        for m, c in poly.terms.items()))
    assert str(poly) == str(expected)
    assert sympy.sympify(poly) == expected
