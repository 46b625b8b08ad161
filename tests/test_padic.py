import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, note, settings, strategies as st

from chart_oracle import (
    coords as _coords,
    direct_chart_cells as _direct_chart_cells,
    eval_vec,
    gradient_terms as _gradient_terms,
    lift_rows,
    surface_terms as _surface_terms,
    val as _val,
    vec_val,
)
from dp2.local.hilbert import hilbert_symbol
from dp2.local.padic import (
    CELL_BUDGET,
    CapacityError,
    QuaternionClass,
    W,
    X,
    Y,
    Z,
    _chart_cells,
    _is_padic_square,
    _quaternion_rows,
    _sheet_sign,
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


@pytest.mark.parametrize("A, B, C, p, k", [
    (1, 1, 1, 5, 3), (-25, -5, 45, 2, 6), (-6, -3, 2, 3, 4)])
def test_levels_settled_in_runs_match_direct_evaluation(A, B, C, p, k,
                                                        monkeypatch):
    # with runs of one parent's children, settle sees each level in
    # pieces, and the pieces make up the level
    from dp2.local import padic
    monkeypatch.setattr(padic, "SETTLE_RUN", 1)
    _assert_same_charts(A, B, C, p, k)


def test_budget_refuses_a_level_once_its_kept_cells_exceed_it(monkeypatch):
    # the budget of levels 1 and 2 of every chart, at depth 3: the lifts
    # kept at level 2 of chart x alone would overrun it at level 3, so
    # level 2 is refused before all of its runs are settled
    from dp2.local import padic
    monkeypatch.setattr(padic, "SETTLE_RUN", 25)
    runs = []

    def record(unit, j, cells):
        runs.append((unit, j))
        return [True] * len(cells)

    for _ in _chart_cells(1, 1, 1, 5, 3, 2 ** 27, record):
        pass
    lifts = {}
    for unit, cells in _chart_cells(1, 1, 1, 5, 1, 2 ** 27):
        lifts[unit] = len(cells)
    budget = sum(5 ** 3 * (1 + n) for n in lifts.values())
    assert padic_point_classes(1, 1, 1, 5, 2, budget=budget)
    refused = []

    def count(unit, j, cells):
        refused.append((unit, j))
        return [True] * len(cells)

    with pytest.raises(CapacityError, match="budget"):
        for _ in _chart_cells(1, 1, 1, 5, 3, budget, count):
            pass
    assert 0 < refused.count(("x", 2)) < runs.count(("x", 2))


def test_budget_charges_each_expansion_once():
    # level 1 expands the root class of each of the three charts into
    # 5^3 cells, 375 in all; a budget of exactly 375 suffices
    with pytest.raises(CapacityError):
        padic_point_classes(1, 1, 1, 5, 1, budget=374)
    full = padic_point_classes(1, 1, 1, 5, 1, budget=500)
    assert full
    for budget in (375, 499):
        assert padic_point_classes(1, 1, 1, 5, 1, budget=budget) == full
    # a Hensel block is charged p^3 per lift: at 2 every level-1 class
    # has t = 1 and becomes one block of 8 lifts at level 2
    levels = {}

    def record(unit, j, cells):
        levels.setdefault(j, []).append(cells)
        return [True] * len(cells)

    for _ in _chart_cells(1, 1, 1, 2, 3, 2 ** 27, record):
        pass
    assert any(cell[4] < 2 for cells in levels[2] for cell in cells)
    lifts = [sum(2 ** (3 * (j - cell[4])) for cells in levels[j]
                 for cell in cells) for j in (1, 2)]
    exact = 3 * 2 ** 3 + 2 ** 3 * sum(lifts)
    full = padic_point_classes(1, 1, 1, 2, 3, budget=exact)
    assert full
    with pytest.raises(CapacityError):
        padic_point_classes(1, 1, 1, 2, 3, budget=exact - 1)


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


def _row_per_lift(cls_terms, pt, p, j, t):
    """The invariant row of one class mod p^j with gradient valuation
    t: decided where the value's valuation v (capped at j) leaves at
    least need digits of unit below the effective precision j - t."""
    need = 3 if p == 2 else 1
    row = []
    for terms, d in cls_terms:
        if _is_padic_square(d, p):
            row.append(0)
            continue
        val = eval_terms(terms, *pt, p ** j)
        v = _val(val, p, j)
        if v < j - t and j - t - v >= need:
            u = val // p ** v % p ** need
            sym = hilbert_symbol(d, Fraction(p) ** (v % 2) * u, p)
            row.append(0 if sym == 1 else 1)
        else:
            row.append(-1)
    return tuple(row)


@pytest.mark.parametrize("A, B, C, p, k", [
    (-25, -5, 45, 2, 6), (-25, -5, 45, 3, 3), (-25, -5, 45, 5, 2),
    (3, 6, -9, 3, 3), (1, 1, 1, 2, 5)])
def test_quaternion_columns_match_per_cell(A, B, C, p, k):
    # the row of a cell is the row of each of its lifts, read with the
    # lift's own t, wherever the cell is liftable.  A capped cell is
    # liftable nowhere, and neither is any of its lifts; a lift's t may
    # exceed the cell's there, so a lift decides no more than the cell,
    # and the same where it decides
    g = (-5 * X ** 2 - 2 * Y ** 2 + 9 * Z ** 2) / Z ** 2
    classes = [QuaternionClass(Fraction(-1), g),
               QuaternionClass(Fraction(3), (X ** 2 + 7 * Y ** 2) / Z ** 2),
               QuaternionClass(Fraction(-6), W * X + Y ** 2),
               QuaternionClass(Fraction(4), X ** 2 / Z ** 2)]
    cls_terms = [(q.numerator_terms(), q.d) for q in classes]
    seen = blocks = 0

    def settle(unit, j, cells):
        nonlocal seen, blocks
        for cell, row in zip(cells, _quaternion_rows(cls_terms, cells, p,
                                                     j)):
            liftable = j >= 2 * cell[5] + 1
            blocks += cell[4] < j
            for *pt, t in lift_rows(A, B, C, p, j, unit, [cell]):
                assert (j >= 2 * t + 1) == liftable
                lift_row = _row_per_lift(cls_terms, pt, p, j, t)
                if liftable:
                    assert lift_row == row
                assert all(v in (-1, r) for v, r in zip(lift_row, row))
                seen += sum(v >= 0 for v in lift_row)
        return [True] * len(cells)

    for _ in _chart_cells(A, B, C, p, k, 2 ** 27, settle):
        pass
    assert seen  # some invariants were decided
    assert blocks or p != 2  # at 2 some cells are blocks of lifts


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


def test_chart_cells_budget_refuses_level_one_past_509(monkeypatch):
    # the budget is the only limit besides k: with the first level
    # replaced by a failure, its p^3 digits are refused before any level
    # from p = 521 on, the first prime with p^3 past CELL_BUDGET, and at
    # a p past the old int64 modulus cap 3,037,000,499 too, while
    # p = 509 reaches the first level
    from dp2.local import padic

    def no_level(*args):
        raise AssertionError("a level ran")

    monkeypatch.setattr(padic, "_level_one", no_level)
    assert 509 ** 3 <= CELL_BUDGET < 521 ** 3
    for p in (521, 3037000507):
        with pytest.raises(CapacityError, match="budget exceeded"):
            next(_chart_cells(1, 1, 1, p, 1, CELL_BUDGET))
    with pytest.raises(AssertionError, match="a level ran"):
        next(_chart_cells(1, 1, 1, 509, 1, CELL_BUDGET))


@pytest.mark.parametrize("p, depth", [(2, 12), (37, 6), (41, 6), (79, 6),
                                      (257, 6), (1741, 6), (55109, 6)])
def test_default_depth_cap(p, depth, monkeypatch):
    # the default depth cap is DEPTH_CAP at p, whatever the size of p^k
    from dp2.local import padic
    seen = []

    def record(A, B, C, p, k, budget, settle=None, split=None):
        seen.append(k)
        return iter(())

    monkeypatch.setattr(padic, "_chart_cells", record)
    q = QuaternionClass(Fraction(-1), (X ** 2 + Y ** 2) / Z ** 2)
    invariant_profile([q], 1, 1, 1, p)
    assert seen == [depth]


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


# the numpy helpers of the direct enumeration in chart_oracle, which
# the enumerator's tests compare against


@pytest.mark.parametrize("p, cap", [(2, 1), (2, 5), (2, 9), (2, 12),
                                    (2, 14), (17, 1), (17, 3)])
def test_vec_val_matches_python_valuation(p, cap):
    n = 2 ** 12 if p == 2 else 17 ** 3
    vals = np.arange(n, dtype=np.int64)
    got = vec_val(vals, p, cap)
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
            got = eval_vec(terms, coords, m)
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


def _settled_levels(enumerate_cells, A, B, C, p, k):
    """{(unit, j): the sorted lifts, each with its own t} over the runs
    of cells settle sees, the (unit, j) in the order first seen, and
    [(unit, lifts)] at depth k."""
    seen = {}

    def settle(unit, j, cells):
        seen.setdefault((unit, j), []).extend(
            lift_rows(A, B, C, p, j, unit, cells))
        return [True] * len(cells)

    final = [(unit, lift_rows(A, B, C, p, k, unit, cells)) for unit, cells
             in enumerate_cells(A, B, C, p, k, 2 ** 27, settle)]
    return {key: sorted(rows) for key, rows in seen.items()}, final


def _check_chart_cells(A, B, C, p, k):
    plain = list(_chart_cells(A, B, C, p, k, 2 ** 27))
    seen, settled = _settled_levels(_chart_cells, A, B, C, p, k)
    assert [unit for unit, _ in plain] == ["x", "y", "z"]
    for (unit, cells), (_, rows) in zip(plain, settled):
        want = _brute_chart_cells(A, B, C, p, k, unit)
        assert lift_rows(A, B, C, p, k, unit, cells) == want
        assert rows == want
    # settle sees every nonempty level of every chart, in order
    want_seen = {(unit, j): _brute_chart_cells(A, B, C, p, j, unit)
                 for unit in ("x", "y", "z") for j in range(1, k + 1)}
    assert list(seen.items()) \
        == [entry for entry in want_seen.items() if entry[1]]


SURFACES = [(1, 1, 1), (-25, -5, 45), (3, 6, -9)]


@pytest.mark.parametrize("A, B, C", SURFACES)
def test_chart_cells_match_brute_force(A, B, C):
    _check_chart_cells(A, B, C, 3, 2)


@pytest.mark.parametrize("p, k", [(2, 4), (5, 2)])
@pytest.mark.parametrize("A, B, C", SURFACES)
def test_chart_cells_inherited_t_match_brute_force(A, B, C, p, k):
    # lift_rows checks the t of every cell against its lifts' own t,
    # and so every t a block carries from below its level
    _check_chart_cells(A, B, C, p, k)
    if p == 2:
        # every gradient component is even, so t >= 1 throughout; a
        # cell of level j with e < j carries a t read mod p^e only
        inherited = []

        def record(unit, j, cells):
            inherited.extend(1 <= t and e < j for *_, e, t in cells)
            return [True] * len(cells)

        for _ in _chart_cells(A, B, C, p, k, 2 ** 27, record):
            pass
        assert any(inherited)


def _assert_same_charts(A, B, C, p, k):
    got = _settled_levels(_chart_cells, A, B, C, p, k)
    want = _settled_levels(_direct_chart_cells, A, B, C, p, k)
    assert list(got[0].items()) == list(want[0].items())
    assert got[1] == want[1]


@pytest.mark.parametrize("A, B, C, p, k", [
    (-9826, -2, 136, 2, 6), (34, 34, 34, 17, 2), (-6, -3, 2, 3, 4),
    (1, 1, 1, 5, 3), (40, -11, -46, 11, 2), (49, -2, 21, 7, 3)])
def test_taylor_step_matches_direct_evaluation(A, B, C, p, k):
    # (49, -2, 21) is 7-adic depth 3 within ORACLE_CELLS, its level 3
    # all Hensel blocks of e = 2 and t = 1
    _assert_same_charts(A, B, C, p, k)


#: the digit extensions the direct enumeration may evaluate for one
#: example of the property below.  7-adic depth 3 fits it only on some
#: surfaces with 7 dividing a coefficient (it costs 2^19 to 2^21 where
#: none does), so the fixed cases above hold one such
ORACLE_CELLS = 2 ** 18


def _oracle_costs(A, B, C, p, k):
    """[c_1, ..., c_k]: c_j the digit extensions the direct enumeration
    evaluates to reach depth j, p^3 per chart root and per class it
    keeps at each level below j."""
    kept = [3] + [0] * (k - 1)

    def count(unit, j, cells):
        kept[j] += len(cells)
        return [True] * len(cells)

    for _ in _direct_chart_cells(A, B, C, p, k - 1, settle=count):
        pass
    return list(itertools.accumulate(p ** 3 * n for n in kept))


@settings(max_examples=30, deadline=None)
@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50),
       st.sampled_from([2, 3, 5, 7]), st.integers(1, 4))
def test_taylor_step_matches_direct_evaluation_property(A, B, C, p, k):
    # the Hensel blocks, expanded into their lifts with each lift's own
    # t, are the classes of the direct enumeration at every level, to
    # the deepest level whose oracle work fits ORACLE_CELLS
    assume(p ** k <= 7 ** 3)
    costs = _oracle_costs(A, B, C, p, k)
    depth = sum(c <= ORACLE_CELLS for c in costs)
    # level 1 keeps at most 2 (p^2 + p + 1) classes, one w at p = 2:
    # depth 2 always fits, and depth 4 at p = 2 (8 (3 + 7 + 56 + 448))
    assert depth >= min(k, 4 if p == 2 else 2)
    note(f"compared to depth {depth}")
    _assert_same_charts(A, B, C, p, depth)
    # _chart_cells charges exactly the oracle's work
    for _ in _chart_cells(A, B, C, p, depth, costs[depth - 1]):
        pass
    with pytest.raises(CapacityError, match="budget exceeded"):
        for _ in _chart_cells(A, B, C, p, depth, costs[depth - 1] - 1):
            pass


@pytest.mark.parametrize("A, B, C, p, k, rule", [
    (1, 1, 1, 2, 3, "all or none"), (-25, -5, 45, 3, 3, "digit solve"),
    (34, 34, 34, 2, 5, "test")])
def test_each_refinement_rule_matches_direct_evaluation(A, B, C, p, k,
                                                       rule):
    # a level of cells refined by the named rule of _chart_cells: all or
    # none keeps a capped cell whole (j <= 2e), digit solve writes down
    # the p^2 children of a liftable cell, and test splits a capped cell
    # at j = 2e + 1, 2e < j, here on (34, 34, 34) at 2 with t = 2
    used = []

    def settle(unit, j, cells):
        for *_, e, t in cells:
            if t < e:
                used.append("digit solve")
            elif j < 2 * e:
                used.append("all or none")
            elif j == 2 * e:
                used.append("test")
        return [True] * len(cells)

    for _ in _chart_cells(A, B, C, p, k - 1, 2 ** 27, settle):
        pass
    assert rule in used
    if rule == "test":
        assert any(cell[4] == 2 == cell[5] for unit, cells in
                   _chart_cells(A, B, C, p, 4, 2 ** 27) for cell in cells)
    _assert_same_charts(A, B, C, p, k)


def _overlapping_rows(A, B, C, p, k):
    """(unit, w, x, y, z, t) for every class of the overlapping unit
    charts, by direct evaluation."""
    return sorted((unit, *pt, t) for unit, cells in
                  _direct_chart_cells(A, B, C, p, k, disjoint=False)
                  for *pt, _, t in cells)


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
    for chart, cells in _chart_cells(A, B, C, p, k, 2 ** 27):
        for w, *xyz, tt in lift_rows(A, B, C, p, k, chart, cells):
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
    for _, cells in _direct_chart_cells(34, 34, 34, 17, 2):
        for w, x, y, z, _, _ in cells:
            sigma = (x ** 4 + y ** 4 + z ** 4) % 17 ** 2 // 17
            count += sigma != 0 and (w // 17) ** 2 % 17 == 2 * sigma % 17
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


def _settle_only(monkeypatch):
    """Patch _chart_cells to drop split, so that settle reads every
    digit-solve child."""
    from dp2.local import padic
    real = padic._chart_cells

    def settle_only(A, B, C, p, k, budget, settle=None, split=None):
        return real(A, B, C, p, k, budget, settle)

    monkeypatch.setattr(padic, "_chart_cells", settle_only)


def _least_budget(run):
    """The least budget with which run(budget) raises no CapacityError."""
    lo, hi = 0, 2 ** 27
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            run(mid)
            hi = mid
        except CapacityError:
            lo = mid + 1
    return lo


@pytest.mark.parametrize("k_cap", [1, 2, 3, 4])
def test_split_profile_matches_settle_only(k_cap, monkeypatch):
    # (-43, -5, 48) keeps many liftable cells with t = 0 undecided at 5;
    # split drops the decided children unwritten, and the profile, its
    # undetermined count, its modulus and the least budget it runs with
    # are those of settle alone
    from dp2.local import examples
    ex = examples.build_ex73(-43, -5, 48)
    for p in (3, 5, 7):
        def run(budget):
            return invariant_profile(ex.classes, *ex.surface, p,
                                     k_cap=k_cap, budget=budget)
        got, least = run(2 ** 27), _least_budget(run)
        with monkeypatch.context() as patch:
            _settle_only(patch)
            assert run(2 ** 27) == got, p
            assert _least_budget(run) == least, p
        if p == 5:
            assert got.undetermined or k_cap < 2


@settings(max_examples=30, deadline=None)
@given(A=st.integers(-50, 50), B=st.integers(-50, 50),
       C=st.integers(-50, 50), p=st.sampled_from([3, 5, 7]),
       k=st.integers(1, 4),
       coeffs=st.lists(st.integers(-9, 9), min_size=5, max_size=5))
def test_split_profile_matches_settle_only_property(A, B, C, p, k, coeffs):
    assume(A * B * C != 0 and p ** k <= 5 ** 4)
    a, b, c, d, e = coeffs
    assume(a or b or c)
    classes = [QuaternionClass(Fraction(d or 1), (a * X ** 2 + b * Y ** 2
                                                  + c * Z ** 2) / Z ** 2),
               QuaternionClass(Fraction(-3), W + e * X ** 2)]
    try:
        got = invariant_profile(classes, A, B, C, p, k_cap=k)
    except CapacityError:
        got = None
    with pytest.MonkeyPatch.context() as patch:
        _settle_only(patch)
        try:
            want = invariant_profile(classes, A, B, C, p, k_cap=k)
        except CapacityError:
            want = None
    assert got == want


@pytest.mark.parametrize("A, B, C, p, k", [
    (-6, -3, 2, 3, 4), (1, 1, 1, 5, 3), (-43, -5, 48, 5, 3),
    (40, -11, -46, 11, 2)])
def test_split_frame_spans_the_digit_solve_children(A, B, C, p, k):
    # a split that keeps every pair leaves the cells as they are
    # without it, and the child (da, db) the engine writes down is base
    # + da u + db v mod p^(j-t), with (u, v) the steps split is given
    every = list(itertools.product(range(p), repeat=2))
    frames = []

    def keep_all(j, t, base, steps):
        frames.append(j)
        return every

    assert [(unit, sorted(cells)) for unit, cells in
            _chart_cells(A, B, C, p, k, 2 ** 27, None, keep_all)] \
        == [(unit, sorted(cells)) for unit, cells in
            _chart_cells(A, B, C, p, k, 2 ** 27)]
    assert k in frames
    want = []

    def keep_one(j, t, base, steps):
        da, db = 1, p - 1
        if j == k:
            mod = p ** (j - t)
            want.append(tuple((c + da * u + db * v) % mod
                              for c, u, v in zip(base, *steps)))
        return [(da, db)]

    got = [tuple(cell[:4]) for _, cells in
           _chart_cells(A, B, C, p, k, 2 ** 27, None, keep_one)
           for cell in cells if cell[5] < cell[4] - 1]
    assert want and sorted(got) == sorted(want)


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
