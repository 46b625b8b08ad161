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


def identity(n):
    return IntMatrix(n, n, tuple(int(i == j) for i in range(n)
                                 for j in range(n)))


def matmul(a, b):
    """The product of two IntMatrix values, as an IntMatrix."""
    assert a.cols == b.rows
    rows = [[sum(a[i, k] * b[k, j] for k in range(a.cols))
             for j in range(b.cols)] for i in range(a.rows)]
    return IntMatrix(a.rows, b.cols, tuple(x for r in rows for x in r))


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


def check_smith(m_rows, dec):
    """The divisors are the nonzero invariant factors of M by sympy, and U
    is unimodular with inverse U^-1.  For U M V = S, row i of U M is d_i
    times row i of V^-1: divisible by the i-th divisor, and zero past the
    last one.  With the right divisors, that is exactly when such a
    unimodular V exists (the gcd of the top minors of V^-1 is then 1)."""
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors
    m = IntMatrix.from_rows(m_rows) if m_rows else IntMatrix(0, 0, ())
    factors = invariant_factors(Matrix(m_rows), domain=ZZ)
    assert dec.divisors == tuple(abs(int(q)) for q in factors if q)
    assert matmul(dec.U, dec.U_inv) == identity(dec.U.rows)
    assert abs(det(dec.U.to_rows())) == 1
    for i, row in enumerate(matmul(dec.U, m).to_rows()):
        if i < len(dec.divisors):
            assert all(x % dec.divisors[i] == 0 for x in row)
        else:
            assert not any(row)


def test_snf_zero_matrix():
    dec = smith_normal_form([[0]])
    assert dec.divisors == ()


def test_snf_identity():
    dec = smith_normal_form(identity(3))
    assert dec.divisors == (1, 1, 1)


def test_snf_2468():
    m = [[2, 4], [6, 8]]
    dec = smith_normal_form(m)
    assert dec.divisors == (2, 4)
    check_smith(m, dec)


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
    res = subquotient_structure([(1, 0), (0, 1)], [(2, 0), (0, 2)], 2)
    assert res.group == AbelianGroupType((2, 2), 0)


def test_subquotient_free():
    res = subquotient_structure([(1,)], [], 1)
    assert res.group == AbelianGroupType((), 1)


def test_subquotient_mixed():
    res = subquotient_structure([(2, 0), (0, 1)], [(4, 0)], 2)
    assert res.group == AbelianGroupType((2,), 1)


def test_subquotient_rejects_outside_span():
    with pytest.raises(ValueError):
        subquotient_structure([(2, 0)], [(1, 0)], 2)
    with pytest.raises(ValueError):
        subquotient_structure([(1, 0)], [(0, 1)], 2)


def test_subquotient_rep_orders():
    res = subquotient_structure([(1, 0), (0, 1)], [(2, 0), (0, 4)], 2)
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
    check_smith(rows, dec)
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
        res = subquotient_structure(zg, bg, n)
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
       st.integers(2, 3), st.data())
def test_solve_matches_fraction_reference(rows, kind, k, data):
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
    ech = ColumnEchelon(rows)
    assert ech.solve(b) == _fraction_solve(ech, b)


@pytest.mark.parametrize("big", [2 ** 62, -2 ** 62, 2 ** 63, -2 ** 63,
                                 2 ** 64, -2 ** 64, 2 ** 100, -2 ** 100])
def test_echelon_exact_on_large_entries(big):
    # entries at and beyond the int64 range stay exact Python integers
    rows = [[big, 3, 0, big, 1], [1, 2, 5, big - 1, 0], [4, 0, big, 1, 7]]
    ech = ColumnEchelon(rows)
    kernel = ech.kernel()
    assert ech.rank == 3 and len(kernel) == 2
    for v in kernel:
        assert all(sum(a * x for a, x in zip(r, v)) == 0 for r in rows)
    image = [sum(a * x for a, x in zip(r, (1, -1, 2, 0, 3))) for r in rows]
    for b in (image, [2 * x for x in image], [1, 1, 1], [big, 0, 1]):
        assert ech.solve(b) == _fraction_solve(ech, b)


@pytest.mark.parametrize("rows,b,expected", [
    ([[2, 0], [0, 3]], [4, 9], ((2, 3), True)),
    ([[2, 0], [0, 3]], [4, 8], (None, True)),
    ([[2, 4], [1, 2]], [2, 2], (None, False)),
])
def test_solve_outcomes(rows, b, expected):
    assert ColumnEchelon(rows).solve(b) == expected


def _full_column_echelon(rows):
    """The column elimination with every update over whole columns:
    (cols, vcols, rank, pivot_rows), the reference for `ColumnEchelon`."""
    a = [list(map(int, r)) for r in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    cols = [[a[i][j] for i in range(m)] for j in range(n)]
    v = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    pivot_rows = []
    c = 0
    for r in range(m):
        if c >= n:
            break
        active = [j for j in range(c, n) if cols[j][r]]
        if not active:
            continue
        while len(active) > 1:
            j0 = min(active, key=lambda j: (abs(cols[j][r]), j))
            pa = cols[j0][r]
            pcol, pv = cols[j0], v[j0]
            nxt = [j0]
            for j in active:
                if j == j0:
                    continue
                q = cols[j][r] // pa
                if q:
                    cj, vj = cols[j], v[j]
                    for i in range(m):
                        cj[i] -= q * pcol[i]
                    for i in range(n):
                        vj[i] -= q * pv[i]
                if cols[j][r]:
                    nxt.append(j)
            active = nxt
        j0 = active[0]
        if cols[j0][r] < 0:
            cols[j0] = [-x for x in cols[j0]]
            v[j0] = [-x for x in v[j0]]
        cols[c], cols[j0] = cols[j0], cols[c]
        v[c], v[j0] = v[j0], v[c]
        pivot_rows.append(r)
        c += 1
    return cols, v, c, pivot_rows


def _assert_echelon_matches_full_elimination(rows):
    ech = ColumnEchelon(rows)
    assert (ech._cols, ech._vcols, ech.rank, ech.pivot_rows) == \
        _full_column_echelon(rows)


@st.composite
def echelon_matrix(draw):
    """Sparse integer matrices with zero rows, repeated rows and entries
    far beyond the int64 range."""
    ncols = draw(st.integers(1, 7))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-9, 9),
                      st.integers(-2 ** 80, 2 ** 80))
    row = st.one_of(st.just([0] * ncols),
                    st.lists(entry, min_size=ncols, max_size=ncols))
    rows = draw(st.lists(row, min_size=1, max_size=9))
    for _ in range(draw(st.integers(0, 3))):
        src = draw(st.sampled_from(rows))
        k = draw(st.sampled_from([1, -1, 2]))
        rows.insert(draw(st.integers(0, len(rows))), [k * x for x in src])
    return rows


@settings(max_examples=300, deadline=None)
@given(echelon_matrix())
def test_echelon_matches_full_column_elimination(rows):
    # updates over the live rows and nonzero entries only give the same
    # columns, V, rank and pivot rows as updates over whole columns
    _assert_echelon_matches_full_elimination(rows)


def test_echelon_matches_full_elimination_on_every_relator_system(
        monkeypatch):
    # every system the presentation backend eliminates over the 243
    # onto-Q classes: its relator rows and the subquotient solves
    import dp2.cohomology as cohomology
    import dp2.intlin as intlin
    from dp2.galois0 import enumerate_subgroups_onto_Q

    systems = []

    class Recording(ColumnEchelon):
        def __init__(self, rows_in, transform=True):
            systems.append([list(row) for row in rows_in])
            super().__init__(rows_in, transform)

    monkeypatch.setattr(cohomology, "ColumnEchelon", Recording)
    monkeypatch.setattr(intlin, "ColumnEchelon", Recording)
    subs = enumerate_subgroups_onto_Q()
    for s in subs:
        cohomology.h1_presentation(cohomology.pic_module(s))
    assert len(subs) == 243
    assert max(len(r) for r in systems) == 224
    for rows in systems:
        _assert_echelon_matches_full_elimination(rows)


def _unimodular_inverse(u):
    """U^-1 by one elimination of U and a solve per unit vector."""
    n = u.rows
    ech = ColumnEchelon(u.to_rows())
    cols = [ech.solve([int(i == j) for i in range(n)])[0] for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def _subquotient_oracle(z_gens, b_gens, n):
    """span(Z)/span(B) with span(Z)'s echelon basis eliminated a second
    time and the Smith transform inverted by `_unimodular_inverse`:
    (group, reps, orders, class_coords)."""
    zech = ColumnEchelon([[g[i] for g in z_gens] for i in range(n)])
    r = zech.rank
    basis = zech._cols[:r]
    bas_ech = ColumnEchelon([[col[i] for col in basis] for i in range(n)])

    def basis_solve(vec):
        sol, _ = bas_ech.solve(vec)
        if sol is None:
            raise ValueError("outside span(Z)")
        return sol

    xcols = [basis_solve(b) for b in b_gens]
    dec = smith_normal_form([[col[i] for col in xcols] for i in range(r)])
    uinv, urows = _unimodular_inverse(dec.U), dec.U.to_rows()
    diag = list(dec.divisors) + [0] * (r - len(dec.divisors))
    tors = [i for i in range(r) if abs(diag[i]) >= 2]
    free = [i for i in range(r) if diag[i] == 0]
    reps = [tuple(sum(uinv[j][c] * basis[j][i] for j in range(r))
                  for i in range(n)) for c in tors + free]
    orders = [abs(diag[i]) for i in tors] + [None] * len(free)

    def coords(vec):
        sol = basis_solve(vec)
        y = [sum(urows[i][j] * sol[j] for j in range(r)) for i in range(r)]
        return tuple([y[i] % abs(diag[i]) for i in tors]
                     + [y[i] for i in free])

    group = AbelianGroupType(tuple(abs(diag[i]) for i in tors), len(free))
    return group, reps, orders, coords


def _coords_or_error(coords, vec):
    try:
        return coords(vec)
    except ValueError:
        return "outside"


def _assert_subquotient_matches_oracle(z_gens, b_gens, n, probes=()):
    res = subquotient_structure(z_gens, b_gens, ambient_dim=n)
    group, reps, orders, coords = _subquotient_oracle(z_gens, b_gens, n)
    assert (res.group, res.reps, res.rep_orders) == (group, reps, orders)
    for vec in [*z_gens, *b_gens, *reps, *probes]:
        assert _coords_or_error(res.class_coords, vec) == \
            _coords_or_error(coords, vec)


@settings(max_examples=200, deadline=None)
@given(small_matrix, st.data())
def test_subquotient_matches_second_elimination_oracle(z_gens, data):
    # B drawn inside span(Z); probes drawn freely, often outside it
    n = len(z_gens[0])
    coeff = st.lists(st.integers(-3, 3), min_size=len(z_gens),
                     max_size=len(z_gens))
    b_gens = [[sum(c * z[i] for c, z in zip(cs, z_gens)) for i in range(n)]
              for cs in data.draw(st.lists(coeff, max_size=4))]
    probes = data.draw(st.lists(st.lists(st.integers(-9, 9), min_size=n,
                                         max_size=n), max_size=3))
    _assert_subquotient_matches_oracle(z_gens, b_gens, n, probes)


def test_subquotient_matches_oracle_on_every_presentation_system(
        monkeypatch):
    # every (Z^1, B^1) pair the presentation backend builds over the 243
    # onto-Q classes
    import dp2.cohomology as cohomology
    from dp2.galois0 import enumerate_subgroups_onto_Q

    systems = []
    original = cohomology.subquotient_structure

    def recording(z_gens, b_gens, ambient_dim):
        systems.append((z_gens, b_gens, ambient_dim))
        return original(z_gens, b_gens, ambient_dim=ambient_dim)

    monkeypatch.setattr(cohomology, "subquotient_structure", recording)
    for s in enumerate_subgroups_onto_Q():
        cohomology.h1_presentation(cohomology.pic_module(s))
    assert len(systems) == 243
    for z_gens, b_gens, n in systems:
        total = [sum(col) for col in zip(*z_gens)] or [0] * n
        _assert_subquotient_matches_oracle(z_gens, b_gens, n, [total])


def test_snf_of_a_tall_matrix_reduces_first():
    # the 19 x 8 draw of sparse_tall_matrix that made the Smith reduction
    # of the raw rows run for minutes, its entries growing to millions
    # of bits; reduced by a column echelon first, it takes milliseconds
    import time
    zero = [0] * 8
    rows = [zero, [-3, 1, 3, -3, 3, 3, 1, 2],
            zero, [2, -3, -2, 0, 2, -2, -3, 3],
            zero, zero, [-1, -3, 0, 3, 0, 0, 0, 1],
            zero, [-1, 1, -2, -2, -3, -2, 1, -3],
            [0, 3, 3, -3, -1, 2, 2, -2], [-2, 0, -1, 1, -3, -2, 2, 3],
            [-3, 1, 1, 3, -3, 3, -3, 0], [2, 1, -2, -3, -3, 0, 0, -3],
            zero, zero, zero, [-2, 0, -1, 1, -3, -2, 2, 3], zero, zero]
    for transforms in (False, True):
        took = []
        for _ in range(3):
            start = time.perf_counter()
            dec = smith_normal_form(rows, transforms)
            took.append(time.perf_counter() - start)
        assert dec.divisors == (1, 1, 1, 1, 1, 1, 4, 16860)
        assert min(took) < 0.010
    check_smith(rows, dec)


@st.composite
def sparse_tall_matrix(draw):
    """Up to 40 x 8 with entries in [-3, 3], zero rows and zero columns
    included."""
    ncols = draw(st.integers(1, 8))
    row = st.one_of(st.just([0] * ncols),
                    st.lists(st.integers(-3, 3), min_size=ncols,
                             max_size=ncols))
    rows = draw(st.lists(row, min_size=1, max_size=40))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols))
    return [[0 if j in zero_cols else x for j, x in enumerate(r)]
            for r in rows]


@settings(max_examples=200, deadline=None)
@given(sparse_tall_matrix())
def test_eliminations_without_transforms_match_with_them(rows):
    # skipping V, and U and U^-1, changes no step on the matrix: the
    # same echelon columns, rank, pivot rows and coordinates, the same
    # Smith divisors; what reads a skipped transform refuses
    kept, bare = ColumnEchelon(rows), ColumnEchelon(rows, transform=False)
    assert (bare._cols, bare.rank, bare.pivot_rows) \
        == (kept._cols, kept.rank, kept.pivot_rows)
    total = [sum(r) for r in rows]
    assert bare.coords(total) == kept.coords(total)
    with pytest.raises(ValueError, match="without its transform"):
        bare.kernel()
    with pytest.raises(ValueError, match="without its transform"):
        bare.solve(total)
    for m in (rows, kept.image_basis()):
        full = smith_normal_form(m)
        lean = smith_normal_form(m, transforms=False)
        assert lean.divisors == full.divisors
        assert lean.U is lean.U_inv is None
