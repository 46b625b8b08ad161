import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dp2.intlin import (
    AbelianGroupType,
    ColumnEchelon,
    IntMatrix,
    smith_normal_form,
    subquotient_structure,
)


def det(rows):
    n = len(rows)
    if n == 0:
        return 1
    from fractions import Fraction
    a = [[Fraction(x) for x in r] for r in rows]
    sign = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            for j in range(c, n):
                a[i][j] -= f * a[c][j]
    prod = sign
    for i in range(n):
        prod *= a[i][i]
    return prod


def check_umv(m_rows, dec):
    m = IntMatrix.from_rows(m_rows) if m_rows else IntMatrix(0, 0, ())
    lhs = dec.U.mul(m).mul(dec.V)
    assert lhs.entries == dec.S.entries
    assert abs(det(dec.U.to_rows())) == 1
    assert abs(det(dec.V.to_rows())) == 1


def test_snf_zero_matrix():
    dec = smith_normal_form([[0]])
    assert dec.divisors == ()


def test_snf_identity():
    dec = smith_normal_form(IntMatrix.identity(3))
    assert dec.divisors == (1, 1, 1)


def test_snf_2468():
    m = [[2, 4], [6, 8]]
    dec = smith_normal_form(m)
    assert dec.divisors == (2, 4)
    check_umv(m, dec)


def test_kernel_and_solve_simple():
    ech = ColumnEchelon([[1, 0]])
    assert ech.solve([5]) == ((5, 0), True)
    assert ech.kernel() == [(0, 1)]


def test_kernel_and_solve_parity():
    ech = ColumnEchelon([[2]])
    assert ech.solve([1]) == (None, True)
    assert ech.kernel() == []


def test_kernel_and_solve_unsolvable_over_q():
    assert ColumnEchelon([[0]]).solve([1]) == (None, False)


def test_kernel_trivial_action_klein_four():
    # d^1 of Z^2 -> Z via (Delta_g, Delta_h) with trivial action: zero map
    assert sorted(ColumnEchelon([[0, 0]]).kernel()) == [(0, 1), (1, 0)]


def test_subquotient_z2_mod_2z2():
    res = subquotient_structure([(1, 0), (0, 1)], [(2, 0), (0, 2)])
    assert res.group == AbelianGroupType((2, 2), 0)


def test_subquotient_free():
    res = subquotient_structure([(1,)], [])
    assert res.group == AbelianGroupType((), 1)


def test_subquotient_mixed():
    res = subquotient_structure([(2, 0), (0, 1)], [(4, 0)])
    assert res.group == AbelianGroupType((2,), 1)


def test_subquotient_rejects_outside_span():
    with pytest.raises(ValueError):
        subquotient_structure([(2, 0)], [(1, 0)])
    with pytest.raises(ValueError):
        subquotient_structure([(1, 0)], [(0, 1)])


def test_subquotient_rep_orders():
    res = subquotient_structure([(1, 0), (0, 1)], [(2, 0), (0, 4)])
    assert res.group.divisors == (2, 4)
    for rep, order in zip(res.reps, res.rep_orders):
        # order * rep lands in B, but no smaller positive multiple does
        coords = res.class_coords(rep)
        assert any(coords)
        assert not any(res.class_coords([order * x for x in rep]))


small_matrix = st.lists(
    st.lists(st.integers(-9, 9), min_size=1, max_size=4),
    min_size=1, max_size=4,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@settings(max_examples=60, deadline=None)
@given(small_matrix)
def test_snf_property(rows):
    dec = smith_normal_form(rows)
    check_umv(rows, dec)
    for i in range(1, len(dec.divisors)):
        assert dec.divisors[i] % dec.divisors[i - 1] == 0


@settings(max_examples=40, deadline=None)
@given(small_matrix, st.randoms(use_true_random=False))
def test_snf_invariant_under_unimodular(rows, rnd):
    base = smith_normal_form(rows).divisors
    # random row/col shuffles plus a shear
    rows2 = [list(r) for r in rows]
    rnd.shuffle(rows2)
    if len(rows2) >= 2:
        k = rnd.randrange(1, 3)
        rows2[0] = [a + k * b for a, b in zip(rows2[0], rows2[1])]
    cols = list(range(len(rows2[0])))
    rnd.shuffle(cols)
    rows2 = [[r[c] for c in cols] for r in rows2]
    assert smith_normal_form(rows2).divisors == base


@settings(max_examples=30, deadline=None)
@given(small_matrix)
def test_kernel_is_kernel(rows):
    for v in ColumnEchelon(rows).kernel():
        assert all(sum(r[j] * v[j] for j in range(len(v))) == 0 for r in rows)


def test_subquotient_matches_bruteforce_enumeration():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randrange(1, 4)
        zg = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
        mult = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(n)]
        # B = mult * Z, guaranteeing containment
        bg = [[sum(mrow[k] * zg[k][i] for k in range(n)) for i in range(n)]
              for mrow in mult]
        res = subquotient_structure(zg, bg)
        if res.group.rank:
            continue
        order = res.group.order
        if order > 10 ** 4:
            continue
        # brute force |span(Z)/span(B)| via SNF of the relation matrix is
        # what we are testing, so count residues directly instead: the
        # number of distinct class_coords over a generating box.
        seen = set()
        span_vecs = set()

        def add(v):
            if v not in span_vecs:
                span_vecs.add(v)
                return True
            return False

        frontier = [tuple([0] * n)]
        add(frontier[0])
        budget = 20000
        while frontier and len(span_vecs) < budget:
            cur = frontier.pop()
            for g in zg:
                for s in (1, -1):
                    nxt = tuple(c + s * gi for c, gi in zip(cur, g))
                    if len(seen) < budget:
                        try:
                            cls = res.class_coords(nxt)
                        except ValueError:
                            continue
                        seen.add(cls)
                        if add(nxt) and len(span_vecs) < 2000:
                            frontier.append(nxt)
        assert len(seen) == order


def test_echelon_numpy_matches_python():
    rng = random.Random(3)
    rows = [[rng.randrange(-5, 6) for _ in range(30)] for _ in range(200)]
    b = [sum(r[: 10]) for r in rows]
    e1 = ColumnEchelon(rows, use_numpy=True)
    e2 = ColumnEchelon(rows, use_numpy=False)
    assert e1.rank == e2.rank
    s1, _ = e1.solve(b)
    s2, _ = e2.solve(b)
    assert (s1 is None) == (s2 is None)
    if s1 is not None:
        for r, bv in zip(rows, b):
            assert sum(x * y for x, y in zip(r, s1)) == bv


@pytest.mark.parametrize("big", [2 ** 62, -2 ** 62, 2 ** 63, -2 ** 63,
                                 2 ** 64, -2 ** 64])
def test_echelon_numpy_falls_back_beyond_int64_limit(big, monkeypatch):
    rows = [[big, 3, 0], [1, 2, 5], [4, 0, 1], [2, 2, 2]]
    reference = ColumnEchelon(rows, use_numpy=False)
    calls = []
    python_path = ColumnEchelon._echelon_python

    def counting(self, a):
        calls.append(a)
        return python_path(self, a)

    monkeypatch.setattr(ColumnEchelon, "_echelon_python", counting)
    ech = ColumnEchelon(rows, use_numpy=True)
    assert len(calls) == 1
    assert (ech.rank, ech.pivot_rows, ech._cols, ech._vcols) == (
        reference.rank, reference.pivot_rows, reference._cols,
        reference._vcols)


def test_echelon_numpy_keeps_entries_below_int64_limit():
    rows = [[2 ** 62 - 1, 0], [0, 1]]
    ech = ColumnEchelon(rows, use_numpy=True)
    reference = ColumnEchelon(rows, use_numpy=False)
    assert (ech._cols, ech._vcols) == (reference._cols, reference._vcols)
    assert all(type(x) is int for col in ech._cols + ech._vcols for x in col)


def _fraction_solve(ech, b):
    """Forward substitution over Q on the echelon form of `ech`."""
    rem = [Fraction(x) for x in b]
    ys = []
    for t in range(ech.rank):
        r, col = ech.pivot_rows[t], ech._cols[t]
        coeff = rem[r] / col[r]
        ys.append(coeff)
        for i in range(r, ech.nrows):
            rem[i] -= coeff * col[i]
    if any(rem):
        return None, False
    if any(y.denominator != 1 for y in ys):
        return None, True
    x = [0] * ech.ncols
    for t, y in enumerate(ys):
        for i in range(ech.ncols):
            x[i] += int(y) * ech._vcols[t][i]
    return tuple(x), True


@settings(max_examples=150, deadline=None)
@given(small_matrix, st.sampled_from(["integral", "scaled", "arbitrary"]),
       st.integers(2, 3), st.booleans(), st.data())
def test_solve_matches_fraction_reference(rows, kind, k, use_numpy, data):
    # integral: b in the image; scaled: (kA) x = A y, often not integral;
    # arbitrary: b drawn freely, often not even rational-solvable
    ncols = len(rows[0])
    y = data.draw(st.lists(st.integers(-4, 4), min_size=ncols,
                           max_size=ncols))
    b = [sum(a * v for a, v in zip(r, y)) for r in rows]
    if kind == "scaled":
        rows = [[k * a for a in r] for r in rows]
    elif kind == "arbitrary":
        b = data.draw(st.lists(st.integers(-9, 9), min_size=len(rows),
                               max_size=len(rows)))
    ech = ColumnEchelon(rows, use_numpy=use_numpy)
    assert ech.solve(b) == _fraction_solve(ech, b)


@pytest.mark.parametrize("rows,b,expected", [
    ([[2, 0], [0, 3]], [4, 9], ((2, 3), True)),
    ([[2, 0], [0, 3]], [4, 8], (None, True)),
    ([[2, 4], [1, 2]], [2, 2], (None, False)),
])
def test_solve_outcomes(rows, b, expected):
    assert ColumnEchelon(rows).solve(b) == expected
