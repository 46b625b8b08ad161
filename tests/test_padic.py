import functools
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from dp2.local.hilbert import hilbert_symbol
from dp2.local.padic import (
    CapacityError,
    QuaternionClass,
    W,
    X,
    Y,
    Z,
    _chart_cells,
    _coords,
    _eval_vec,
    _gradient_terms,
    _is_padic_square,
    _quaternion_columns,
    _sheet_sign,
    _surface_terms,
    _vec_val,
    compile_poly,
    eval_terms,
    invariant_profile,
    padic_point_classes,
    real_profile,
    real_witness,
)
from real_sampler import _power, _real_sheets, sampled_real_invariants

ZERO = Fraction(0)
HALF = Fraction(1, 2)


def test_trivial_surface_has_liftable_class():
    cells = padic_point_classes(1, 1, 1, 5, 1)
    assert any(c.liftable and c.w % 5 == 1 and c.x % 5 == 1
               and c.y % 5 == 0 and c.z % 5 == 0 for c in cells)


def test_refutable_depth_keeps_no_cells():
    # w^2 = 5(x^4+y^4+z^4) has no primitive 5-adic solutions: fourth
    # powers are 0 or 1 mod 5, so x^4+y^4+z^4 is a unit on primitive
    # tuples and the right side has odd valuation
    cells = padic_point_classes(5, 5, 5, 5, 2)
    assert cells == []


def test_budget_exhaustion_raises():
    with pytest.raises(CapacityError):
        padic_point_classes(1, 1, 1, 5, 4, budget=10 ** 4)
    # level 1 expands the root class into p^3 digits and is checked
    # like any other level
    with pytest.raises(CapacityError):
        padic_point_classes(1, 1, 1, 5, 1, budget=2 * 5 ** 3 - 1)
    q = QuaternionClass(Fraction(-1), (X ** 2 + Y ** 2) / Z ** 2)
    with pytest.raises(CapacityError):
        invariant_profile([q], -25, -5, 45, 3, k_cap=1,
                          budget=2 * 3 ** 3 - 1)


def test_budget_charges_each_expansion_once():
    # level 1 expands the root class of each of the three charts into
    # 5^3 cells, 375 in all; a budget of exactly 375 suffices
    with pytest.raises(CapacityError):
        padic_point_classes(1, 1, 1, 5, 1, budget=374)
    full = padic_point_classes(1, 1, 1, 5, 1, budget=500)
    assert full
    for budget in (375, 499):
        assert padic_point_classes(1, 1, 1, 5, 1, budget=budget) == full


def test_first_surface_2adic_pairs_mod_8():
    """Liftable 2-adic classes of (-25,-5,45): x, z odd, y even, and in
    the z = 1 chart (x, y) mod 8 takes exactly eight values."""
    cells = [c for c in padic_point_classes(-25, -5, 45, 2, 5)
             if c.liftable]
    assert cells
    assert all(c.x % 2 == 1 and c.z % 2 == 1 and c.y % 2 == 0
               for c in cells)
    chart = [c for c in cells if c.unit_coordinate == "z"]
    assert {(c.x % 8, c.y % 8) for c in chart} == {
        (1, 2), (1, 6), (3, 0), (3, 4), (5, 0), (5, 4), (7, 2), (7, 6)}


def test_first_surface_conic_value_12_mod_16():
    terms = compile_poly((-5 * X ** 2 - 2 * Y ** 2 + 9 * Z ** 2) * Z ** 2)
    cells = [c for c in padic_point_classes(-25, -5, 45, 2, 5)
             if c.liftable]
    values = {eval_terms(terms, c.w, c.x, c.y, c.z, 16) for c in cells}
    assert values == {12}


def test_first_surface_3adic_profile_is_zero():
    g = (-5 * X ** 2 - 2 * Y ** 2 + 9 * Z ** 2) / Z ** 2
    q = QuaternionClass(Fraction(-1), g)
    pr = invariant_profile([q], -25, -5, 45, 3)
    assert pr.invariants == frozenset({(ZERO,)})
    assert pr.exact


def test_first_surface_2adic_profile_is_half():
    g = (-5 * X ** 2 - 2 * Y ** 2 + 9 * Z ** 2) / Z ** 2
    q = QuaternionClass(Fraction(-1), g)
    pr = invariant_profile([q], -25, -5, 45, 2)
    assert pr.invariants == frozenset({(HALF,)})
    assert pr.undetermined == 0


def test_profile_vectors_keep_class_order():
    # a split class beside the (-1, g) class of the 2-adic test above
    g = (-5 * X ** 2 - 2 * Y ** 2 + 9 * Z ** 2) / Z ** 2
    half = QuaternionClass(Fraction(-1), g)
    split = QuaternionClass(Fraction(1), X ** 2 / Z ** 2)
    pr = invariant_profile([split, half], -25, -5, 45, 2)
    assert pr.invariants == frozenset({(ZERO, HALF)})
    pr = invariant_profile([half, split], -25, -5, 45, 2)
    assert pr.invariants == frozenset({(HALF, ZERO)})


def test_split_algebra_profile_is_zero():
    # d = 1: the algebra splits at every point regardless of g
    q = QuaternionClass(Fraction(1), (X ** 2 + 7 * Y ** 2) / Z ** 2)
    pr = invariant_profile([q], 1, 1, 1, 3)
    assert pr.invariants == frozenset({(ZERO,)})


def _columns_per_cell(cls_terms, coords, p, j, t):
    """The invariant columns of _quaternion_columns, one cell at a time:
    decided where the value's valuation v (capped at j) leaves at least
    need digits of unit below the effective precision j - t."""
    need = 3 if p == 2 else 1
    cols = []
    for terms, d in cls_terms:
        col = []
        for i in range(len(t)):
            if _is_padic_square(d, p):
                col.append(0)
                continue
            val = eval_terms(terms, *(int(c[i]) for c in coords), p ** j)
            v = 0
            while v < j and val % p ** (v + 1) == 0:
                v += 1
            jeff = j - int(t[i])
            if v < jeff and jeff - v >= need:
                u = val // p ** v % p ** need
                sym = hilbert_symbol(d, Fraction(p) ** (v % 2) * u, p)
                col.append(0 if sym == 1 else 1)
            else:
                col.append(-1)
        cols.append(col)
    return cols


@pytest.mark.parametrize("A, B, C, p, k", [
    (-25, -5, 45, 2, 6), (-25, -5, 45, 3, 3), (-25, -5, 45, 5, 2),
    (3, 6, -9, 3, 3), (1, 1, 1, 2, 5)])
def test_quaternion_columns_match_per_cell(A, B, C, p, k):
    g = (-5 * X ** 2 - 2 * Y ** 2 + 9 * Z ** 2) / Z ** 2
    classes = [QuaternionClass(Fraction(-1), g),
               QuaternionClass(Fraction(3), (X ** 2 + 7 * Y ** 2) / Z ** 2),
               QuaternionClass(Fraction(-6), W * X + Y ** 2),
               QuaternionClass(Fraction(4), X ** 2 / Z ** 2)]
    cls_terms = [(q.numerator_terms(), q.d) for q in classes]
    seen = 0

    def settle(j, coords, t):
        nonlocal seen
        got = _quaternion_columns(cls_terms, coords, p, j, tvals=t)
        want = _columns_per_cell(cls_terms, coords, p, j, t)
        assert [col.tolist() for col in got] == want
        seen += sum(v >= 0 for col in want for v in col)
        return np.ones(len(t), dtype=bool)

    for _ in _chart_cells(A, B, C, p, k, 2 ** 27, settle):
        pass
    assert seen  # some invariants were decided


def test_real_profile_split_and_sign():
    split = QuaternionClass(Fraction(2), X ** 2 / Z ** 2)
    pr = real_profile([split], 1, 1, 1)
    assert pr.invariants == frozenset({(ZERO,)})
    assert pr.method == "sampling"
    signed = QuaternionClass(Fraction(-1), -(X ** 2 + Y ** 2) / Z ** 2)
    pr = real_profile([signed], 1, 1, 1)
    assert pr.invariants == frozenset({(HALF,)})


def _sign_by_fractions(P, Q, F, s):
    """The sign of P + s Q sqrt(F), F > 0, by comparing sqrt(F) with
    the rational t = -P / (s Q) through t^2 and F."""
    b = s * Q
    if b == 0:
        return (P > 0) - (P < 0)
    t = Fraction(-P, b)
    above = 1 if t < 0 else (Fraction(F) > t * t) - (Fraction(F) < t * t)
    return above if b > 0 else -above  # sign(b) * sign(sqrt(F) - t)


def _p_plus_q_w(P, Q):
    """Terms of P + Q w, with a monomial in x, y, z on each part so that
    the point's coordinates enter (they are 1 below)."""
    return ((P, 0, 2, 0, 0), (Q, 1, 0, 0, 0))


@settings(max_examples=300, deadline=None)
@given(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6),
       st.integers(1, 10 ** 6), st.sampled_from([1, -1]))
def test_sheet_sign_matches_fraction_comparison(P, Q, F, s):
    assert _sheet_sign(_p_plus_q_w(P, Q), 1, 1, 1, F, s) \
        == _sign_by_fractions(P, Q, F, s)


@settings(max_examples=200, deadline=None)
@given(st.integers(-1000, 1000), st.integers(1, 1000),
       st.integers(-1, 1), st.sampled_from([1, -1]))
def test_sheet_sign_on_ties_and_near_ties(Q, root, nudge, s):
    # P^2 = Q^2 F exactly when nudge = 0: P + s Q sqrt(F) is 0 on one
    # sheet and 2P on the other; a nudge of F by one breaks the tie
    P = Q * root
    F = root * root + nudge
    if F <= 0:
        return
    got = _sheet_sign(_p_plus_q_w(P, Q), 1, 1, 1, F, s)
    assert got == _sign_by_fractions(P, Q, F, s)
    if nudge == 0 and Q:
        assert got == (0 if s == -1 else (1 if P > 0 else -1))


#: (builder, its arguments) of the five recipes
RECIPES = [("build_ex71", ()), ("build_ex72", (3,)),
           ("build_ex73", (-126, -91, 78)), ("build_ex74", ()),
           ("build_ex75", ())]


@pytest.mark.parametrize("builder, args", RECIPES,
                         ids=[row[0] for row in RECIPES])
def test_real_witness_matches_sampler_on_recipes(builder, args):
    from dp2.local import examples
    ex = getattr(examples, builder)(*args)
    got = real_profile(ex.classes, *ex.surface)
    assert got.invariants == sampled_real_invariants(ex.classes,
                                                     *ex.surface)
    assert got.invariants and got.method == "sampling"


def test_real_witness_matches_sampler_on_family_primes():
    from dp2.arith import is_prime
    from dp2.local.examples import build_ex72
    primes = [p for p in range(3, 1000, 16) if is_prime(p)]
    assert len(primes) == 22
    for p in primes:
        ex = build_ex72(p)
        got = real_profile(ex.classes, *ex.surface).invariants
        assert got == {(ZERO,)}, p
        assert got == sampled_real_invariants(ex.classes, *ex.surface,
                                              samples=30000), p


SIGN_PATTERNS = [(a, b, c) for a in (1, -1) for b in (1, -1)
                 for c in (1, -1)]


@pytest.mark.parametrize("signs", SIGN_PATTERNS)
@settings(max_examples=6, deadline=None)
@given(st.integers(1, 60), st.integers(1, 60), st.integers(1, 5),
       st.integers(1, 5), st.data())
def test_real_witness_matches_sampler_on_generic_triples(signs, a, b, r, s,
                                                         data):
    """Mixed signs: the conic-bundle class of a generic triple built
    around the rational conic point (r, s, 1), with the coefficient of
    the odd sign moved to its place.  All positive: classes whose
    numerator is w times a form that is nonnegative on real points; w
    vanishes nowhere on S(R) there, so their evaluation is locally
    constant on S(R), although they need not lie in Br(S).  All
    negative: S(R) is empty."""
    from dp2.local.examples import build_ex73, is_generic_triple
    if len(set(signs)) == 1:
        A, B, C = (sg * data.draw(st.integers(1, 60)) for sg in signs)
        classes = [QuaternionClass(Fraction(-1), W),
                   QuaternionClass(Fraction(-3), -W * (X ** 2 + Y ** 2)),
                   QuaternionClass(Fraction(2), W * Z ** 2)]
    else:
        odd = [signs.count(sg) for sg in signs].index(1)
        sign = -signs[odd]
        coeffs = [sign * a, sign * b, -sign * (a * r * r + b * s * s)]
        point = [r, s, 1]
        order = [0, 1]
        order.insert(odd, 2)  # position -> index into coeffs and point
        A, B, C = (coeffs[k] for k in order)
        r0, s0, t0 = (point[k] for k in order)
        assume(is_generic_triple(A, B, C))
        classes = build_ex73(A, B, C, point=(r0, 0, s0, 0, t0)).classes
    assert tuple(map(np.sign, (A, B, C))) == signs
    got = real_profile(classes, A, B, C).invariants
    assert got == sampled_real_invariants(classes, A, B, C, samples=60000)
    assert len(got) == (0 if max(signs) < 0 else
                        2 if min(signs) > 0 else 1)


def test_real_profile_refuses_disagreeing_sheets_of_connected_s():
    # (-1, w) is ramified along w = 0, which meets S(R) when the signs
    # are mixed: its sign differs between the sheets
    with pytest.raises(AssertionError, match="disagree"):
        real_profile([QuaternionClass(Fraction(-1), W)], 1, 1, -1)


def test_chart_cells_refuses_a_modulus_past_int64(monkeypatch):
    # the check comes before any level: with the level step replaced by
    # a failure, a modulus at the cap raises CapacityError and one just
    # below it reaches the first level
    from dp2.local import padic

    def no_level(*args):
        raise AssertionError("a level ran")

    monkeypatch.setattr(padic, "_expand_filtered", no_level)
    cap = padic.INT64_MODULUS_CAP
    assert (cap - 1) ** 2 < 2 ** 63 <= (cap + 1) ** 2
    assert 3 ** 19 < cap < 3 ** 20 and 41 ** 5 < cap < 41 ** 6
    for p, k in ((3, 20), (41, 6), (cap, 1)):
        with pytest.raises(CapacityError, match="int64"):
            next(_chart_cells(1, 1, 1, p, k, 2 ** 27))
    for p, k in ((3, 19), (41, 5), (37, 6), (cap - 1, 1)):
        with pytest.raises(AssertionError, match="a level ran"):
            next(_chart_cells(1, 1, 1, p, k, 2 ** 27))


@pytest.mark.parametrize("p, depth", [(2, 12), (37, 6), (41, 5),
                                      (1741, 2), (55109, 1)])
def test_default_odd_depth_stays_in_int64(p, depth, monkeypatch):
    # the default depth cap is lowered where p^6 would be past the cap
    from dp2.local import padic
    seen = []

    def record(A, B, C, p, k, budget, settle=None):
        seen.append(k)
        return iter(())

    monkeypatch.setattr(padic, "_chart_cells", record)
    q = QuaternionClass(Fraction(-1), (X ** 2 + Y ** 2) / Z ** 2)
    invariant_profile([q], 1, 1, 1, p)
    assert seen == [depth]
    assert p ** depth < padic.INT64_MODULUS_CAP


def test_real_witness_bound_is_a_capacity_limit():
    # F = x^4 - 10^30 (y^4 + z^4) is positive at height at most 12 only
    # where y = z = 0, and there x y z^2 vanishes
    with pytest.raises(CapacityError, match="witness"):
        real_witness([compile_poly(X * Y * Z ** 2)], 1, -10 ** 30,
                     -10 ** 30)


def test_compile_poly_scales_by_square_denominator():
    terms = compile_poly(X / 2 + Y)
    assert set(terms) == {(2, 0, 1, 0, 0), (4, 0, 0, 1, 0)}


def test_numerator_terms_strip_square_factors():
    q = QuaternionClass(Fraction(-1), (X ** 2 + Y ** 2) / Z ** 2)
    assert set(q.numerator_terms()) == set(compile_poly(X ** 2 + Y ** 2))
    q = QuaternionClass(Fraction(-1), (X ** 2 + Y ** 2) / (12 * Z ** 3))
    assert set(q.numerator_terms()) \
        == set(compile_poly(3 * Z * (X ** 2 + Y ** 2)))
    q = QuaternionClass(Fraction(-1), W * X ** 3)
    assert set(q.numerator_terms()) == set(compile_poly(W * X ** 3))


def test_padic_square_detection():
    assert _is_padic_square(Fraction(1, 4), 2)
    assert _is_padic_square(17, 2)
    assert not _is_padic_square(3, 2)
    assert not _is_padic_square(2, 2)
    assert _is_padic_square(-5, 3)  # -5 = 4 mod 9
    assert not _is_padic_square(3, 3)
    assert _is_padic_square(-2, 17)
    assert not _is_padic_square(Fraction(3, 17), 17)


def test_point_class_modulus():
    cells = padic_point_classes(1, 1, 1, 3, 2)
    assert cells[0].modulus == 9
    assert {c.unit_coordinate for c in cells} == {"x", "y", "z"}


def _val(v, p, cap):
    if v == 0:
        return cap
    k = 0
    while v % p == 0:
        v //= p
        k += 1
    return min(k, cap)


@pytest.mark.parametrize("p, cap", [(2, 1), (2, 5), (2, 9), (2, 12),
                                    (2, 14), (17, 1), (17, 3)])
def test_vec_val_matches_python_valuation(p, cap):
    n = 2 ** 12 if p == 2 else 17 ** 3
    vals = np.arange(n, dtype=np.int64)
    got = _vec_val(vals, p, cap)
    assert got.dtype == np.int64
    assert got.tolist() == [_val(v, p, cap) for v in range(n)]


def test_eval_vec_matches_eval_terms():
    # the (-9826, -2, 136) surface and gradient terms carry negative
    # coefficients; the numerator is that of the 2-torsion class there
    A, B, C = -9826, -2, 136
    num = QuaternionClass(Fraction(-2), (136 * X ** 2 + Y ** 2
                                         + 18 * Z ** 2) / X ** 2)
    polys = [_surface_terms(A, B, C), *_gradient_terms(A, B, C),
             num.numerator_terms()]
    assert any(c < 0 for terms in polys for c, *_ in terms)
    rng = np.random.default_rng(7)
    for m in [2 ** j for j in range(1, 13)] + [17 ** 3]:
        coords = tuple(rng.integers(0, m, 200, dtype=np.int64)
                       for _ in range(4))
        for terms in polys:
            got = _eval_vec(terms, coords, m)
            want = [eval_terms(terms, *map(int, pt), m)
                    for pt in zip(*coords)]
            assert got.tolist() == want


def _brute_chart_cells(A, B, C, p, j, unit):
    """Pure-Python oracle: (w, x, y, z, t) for every class mod p^j in
    the unit chart of the disjoint cover on which the surface
    congruence holds; in chart y, p divides x, and in chart z, p
    divides x and y."""
    f = _surface_terms(A, B, C)
    grads = _gradient_terms(A, B, C)
    m = p ** j
    out = []
    for w in range(m):
        for a in range(m):
            for b in range(m):
                pt = {"x": (w, 1, a, b), "y": (w, a, 1, b),
                      "z": (w, a, b, 1)}[unit]
                before = pt[1:"xyz".index(unit) + 1]
                if any(c % p for c in before) or eval_terms(f, *pt, m):
                    continue
                t = min(_val(eval_terms(g, *pt, m), p, j) for g in grads)
                out.append((*pt, t))
    return sorted(out)


def _rows(coords, t):
    return sorted(zip(*(c.tolist() for c in coords), t.tolist()))


def _check_chart_cells(A, B, C, p, k):
    seen = []

    def settle(j, coords, t):
        seen.append((j, _rows(coords, t)))
        return np.ones(len(t), dtype=bool)

    plain = list(_chart_cells(A, B, C, p, k, 2 ** 27))
    settled = list(_chart_cells(A, B, C, p, k, 2 ** 27, settle))
    assert [unit for unit, _, _ in plain] == ["x", "y", "z"]
    for (unit, coords, t), (_, coords_s, t_s) in zip(plain, settled):
        want = _brute_chart_cells(A, B, C, p, k, unit)
        assert _rows(coords, t) == want
        assert _rows(coords_s, t_s) == want
    # settle sees every nonempty level of every chart, in order
    want_seen = [(j, _brute_chart_cells(A, B, C, p, j, unit))
                 for unit in ("x", "y", "z") for j in range(1, k + 1)]
    assert seen == [entry for entry in want_seen if entry[1]]
    return seen


SURFACES = [(1, 1, 1), (-25, -5, 45), (3, 6, -9)]


@pytest.mark.parametrize("A, B, C", SURFACES)
def test_chart_cells_match_brute_force(A, B, C):
    _check_chart_cells(A, B, C, 3, 2)


@pytest.mark.parametrize("p, k", [(2, 4), (5, 2)])
@pytest.mark.parametrize("A, B, C", SURFACES)
def test_chart_cells_inherited_t_match_brute_force(A, B, C, p, k):
    seen = _check_chart_cells(A, B, C, p, k)
    if p == 2:
        # every gradient component is even, so t >= 1 throughout; a
        # level-j class with t < j - 1 took its t from its parent
        assert any(1 <= row[-1] < j - 1 for j, rows in seen
                   for row in rows)


def _direct_chart_cells(A, B, C, p, k, budget=None, settle=None,
                        disjoint=True):
    """The enumerator without the Taylor step or inherited t: every
    level evaluates f mod p^j on all p^3 digit extensions of every kept
    cell, and t mod p^j on the kept ones.  With disjoint, the charts
    are those of the cover _chart_cells refines: chart y keeps the
    classes with p | x, chart z those with p | x and p | y.  Without,
    they are the three overlapping unit charts x = 1, y = 1, z = 1,
    which list a point once per unit coordinate.  settle is called as
    _chart_cells calls it; budget is not charged.  Yields (unit,
    coords, t) in the order _chart_cells does."""
    f = _surface_terms(A, B, C)
    grads = _gradient_terms(A, B, C)
    r = np.arange(p, dtype=np.int64)
    grid = [d.ravel() for d in np.meshgrid(r, r, r, indexing="ij")]
    chunk = max(1, 2 ** 21 // p ** 3)
    for before, unit in enumerate("xyz"):
        cells = tuple(np.zeros(1, dtype=np.int64) for _ in range(3))
        t = cells[0]
        for j in range(1, k + 1):
            parts = []
            for lo in range(0, len(cells[0]), chunk):
                block = [c[lo:lo + chunk] for c in cells]
                ext = tuple(np.repeat(c, p ** 3)
                            + np.tile(d * p ** (j - 1), len(c))
                            for c, d in zip(block, grid))
                keep = _eval_vec(f, _coords(unit, *ext), p ** j) == 0
                for c in ext[1:before + 1] if disjoint else ():
                    keep &= c % p == 0
                parts.append(tuple(c[keep] for c in ext))
            cells = tuple(np.concatenate([part[i] for part in parts])
                          if parts else cells[i][:0] for i in range(3))
            coords = _coords(unit, *cells)
            t = np.minimum.reduce([_vec_val(_eval_vec(g, coords, p ** j),
                                            p, j) for g in grads])
            if settle is not None and len(t):
                undecided = settle(j, coords, t)
                cells, t = tuple(c[undecided] for c in cells), t[undecided]
        yield unit, _coords(unit, *cells), t


def _assert_same_charts(A, B, C, p, k):
    got = list(_chart_cells(A, B, C, p, k, 2 ** 27))
    want = list(_direct_chart_cells(A, B, C, p, k))
    assert [u for u, _, _ in got] == [u for u, _, _ in want]
    for (_, coords, t), (_, coords_d, t_d) in zip(got, want):
        assert [c.tolist() for c in coords] == [c.tolist() for c in coords_d]
        assert t.tolist() == t_d.tolist()


@pytest.mark.parametrize("A, B, C, p, k", [
    (-9826, -2, 136, 2, 6), (34, 34, 34, 17, 2), (-6, -3, 2, 3, 4),
    (1, 1, 1, 5, 3), (40, -11, -46, 11, 2)])
def test_taylor_step_matches_direct_evaluation(A, B, C, p, k):
    _assert_same_charts(A, B, C, p, k)


@settings(max_examples=30, deadline=None)
@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50),
       st.sampled_from([2, 3, 5, 7]), st.integers(1, 3))
def test_taylor_step_matches_direct_evaluation_property(A, B, C, p, k):
    _assert_same_charts(A, B, C, p, k)


def _overlapping_rows(A, B, C, p, k):
    """(unit, w, x, y, z, t) for every class of the overlapping unit
    charts, by direct evaluation."""
    return sorted((unit, *pt, tt) for unit, coords, t in
                  _direct_chart_cells(A, B, C, p, k, disjoint=False)
                  for *pt, tt in zip(*(c.tolist() for c in coords),
                                     t.tolist()))


@pytest.mark.parametrize("A, B, C, p, k", [
    (1, 1, 1, 2, 4), (-25, -5, 45, 2, 5), (-9826, -2, 136, 2, 5),
    (1, 1, 1, 3, 2), (-6, -3, 2, 3, 3), (3, 6, -9, 3, 2),
    (1, 1, 1, 5, 2), (-25, -5, 45, 5, 2), (34, 34, 34, 17, 2),
    (-9826, -2, 136, 17, 1)])
def test_rescaled_cover_is_the_overlapping_enumeration(A, B, C, p, k):
    # each class of the disjoint cover, rescaled by the inverse l of
    # each of its unit coordinates to (l^2 w, l x, l y, l z), is a class
    # of that unit chart, with the same t, and together they are all
    want = _overlapping_rows(A, B, C, p, k)
    assert want
    m = p ** k
    got = []
    for _, coords, t in _chart_cells(A, B, C, p, k, 2 ** 27):
        for w, *xyz, tt in zip(*(c.tolist() for c in coords), t.tolist()):
            for unit, u in zip("xyz", xyz):
                if u % p:
                    inv = pow(u, -1, m)
                    got.append((unit, inv * inv * w % m,
                                *(inv * c % m for c in xyz), tt))
    assert sorted(got) == want
    # padic_point_classes lists those classes, grouped by unit coordinate
    cells = padic_point_classes(A, B, C, p, k)
    assert sorted((c.unit_coordinate, c.w, c.x, c.y, c.z, c.liftable)
                  for c in cells) \
        == sorted((unit, w, x, y, z, k >= 2 * tt + 1)
                  for unit, w, x, y, z, tt in want)
    units = [c.unit_coordinate for c in cells]
    assert units == sorted(units)


def test_descent_liftable_count_matches_direct_cover():
    # the digit criterion u^2 = 2 sigma, w = 17 u and sigma =
    # (x^4+y^4+z^4)/17 a unit, over the classes mod 17^2 of the direct
    # enumeration of the cover
    from dp2.local.examples import ex74_17adic_liftable_check
    count = 0
    for _, (w, x, y, z), _ in _direct_chart_cells(34, 34, 34, 17, 2):
        sigma = (x ** 4 + y ** 4 + z ** 4) % 17 ** 2 // 17
        u = w // 17
        count += int(((sigma != 0) & ((u * u - 2 * sigma) % 17 == 0)).sum())
    assert count > 0
    assert ex74_17adic_liftable_check() == count


#: the five recipes' classes, with the places of their enumerations
RECIPE_PLACES = [
    ("build_ex71", (), (2, 3, 5), None),
    ("build_ex72", (3,), (2,), None),
    ("build_ex73", (-126, -91, 78), (2, 3, 7, 13), None),
    ("build_ex74", (), (2,), ((0, 3), (1, 4), (2, 5))),
    ("build_ex75", (), (2,), None),
]


@pytest.mark.parametrize("k_cap", [1, 2, 3, 4])
@pytest.mark.parametrize("builder, args, places, merge", RECIPE_PLACES,
                         ids=[row[0] for row in RECIPE_PLACES])
def test_invariant_profile_same_on_both_covers(builder, args, places,
                                               merge, k_cap, monkeypatch):
    from dp2.local import examples, padic
    ex = getattr(examples, builder)(*args)
    for p in places:
        got = invariant_profile(ex.classes, *ex.surface, p, k_cap=k_cap,
                                merge=merge)
        with monkeypatch.context() as patch:
            patch.setattr(padic, "_chart_cells",
                          functools.partial(_direct_chart_cells,
                                            disjoint=False))
            want = invariant_profile(ex.classes, *ex.surface, p,
                                     k_cap=k_cap, merge=merge)
        assert (got.invariants, got.modulus, got.exact) \
            == (want.invariants, want.modulus, want.exact), p
        # each undecided class of the overlapping charts is a rescaling
        # of one of the cover's, so both counts are zero or neither
        assert (got.undetermined == 0) == (want.undetermined == 0)
        assert got.undetermined <= want.undetermined <= 3 * got.undetermined


def test_invariant_profile_refuses_a_numerator_of_mixed_degree():
    # w x + y^2 has weighted degrees 3 and 2: no function on the surface
    q = QuaternionClass(Fraction(-6), W * X + Y ** 2)
    with pytest.raises(ValueError, match="homogeneous"):
        invariant_profile([q], -25, -5, 45, 3, k_cap=1)
    q = QuaternionClass(Fraction(-6), W * X)  # odd weighted degree 3
    with pytest.raises(ValueError, match="homogeneous"):
        invariant_profile([q], -25, -5, 45, 3, k_cap=1)


def _real_sheets_per_term(term_lists, A, B, C, samples, seed):
    """The sampler with every power recomputed in each term evaluation:
    the reference for `_real_sheets`."""
    rng = np.random.default_rng(seed)
    per_chart = max(samples // 6, 1)
    for unit in ("x", "y", "z"):
        for scale in (1.0, 10.0):
            a = rng.uniform(-scale, scale, per_chart)
            b = rng.uniform(-scale, scale, per_chart)
            _, x, y, z = _coords(unit, a, a, b)
            rhs = A * _power(x, 4) + B * _power(y, 4) + C * _power(z, 4)
            mask = rhs > 0
            if not mask.any():
                continue
            x, y, z = x[mask], y[mask], z[mask]
            w = np.sqrt(rhs[mask])
            for sign in (1, -1):
                sheet = sign * w
                yield sign, [sum((float(c) * _power(sheet, ew)
                                  * _power(x, ex) * _power(y, ey)
                                  * _power(z, ez)
                                  for c, ew, ex, ey, ez in terms),
                                 np.zeros_like(sheet))
                             for terms in term_lists]


def test_power_matches_numpy_power():
    # products round once per factor: exact up to the square, within a
    # few ulps above it
    x = np.random.default_rng(3).uniform(-10, 10, 10000)
    for e in range(3):
        assert np.array_equal(_power(x, e), x ** e)
    for e in range(3, 7):
        np.testing.assert_allclose(_power(x, e), x ** e,
                                   rtol=e * np.finfo(float).eps, atol=0)


@pytest.mark.parametrize("recipe", ["ex71", "ex74"])
def test_real_sheets_match_per_term_powers(recipe):
    # powers computed once per chart and sheet give bit-identical floats
    from dp2.local import examples
    ex = getattr(examples, f"build_{recipe}")()
    A, B, C = {"ex71": (-25, -5, 45), "ex74": (34, 34, 34)}[recipe]
    terms = [q.numerator_terms() for q in ex.classes]
    got = list(_real_sheets(terms, A, B, C, 200000, 0))
    want = list(_real_sheets_per_term(terms, A, B, C, 200000, 0))
    assert len(got) == len(want) > 0
    for (sign, vals), (ref_sign, ref_vals) in zip(got, want):
        assert sign == ref_sign and len(vals) == len(ref_vals)
        assert all(np.array_equal(v, r) for v, r in zip(vals, ref_vals))
