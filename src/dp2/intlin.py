"""Exact integer linear algebra.

Smith normal form, integer kernels and solves, and subquotient structure
of lattices.  Everything is computed over arbitrary-precision Python
integers, by one column elimination (`ColumnEchelon`), which builds its
transform V only for kernels and solves, and one Smith reduction of the
image basis that elimination gives, which returns its divisors and, on
request, its row transform with that transform's inverse (Cohen,
GTM 138, 2.4), never its column transform; no entry is ever bounded or
rounded.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Sequence


class _IntMatrix(NamedTuple):
    rows: int
    cols: int
    entries: tuple[int, ...]


class IntMatrix(_IntMatrix):
    """Dense integer matrix, row-major, exact entries."""

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, entries: tuple[int, ...]):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        if len(entries) != rows * cols:
            raise ValueError("entry count mismatch")
        return super().__new__(cls, rows, cols, entries)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "IntMatrix":
        rows = [list(map(int, r)) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return IntMatrix(len(rows), ncols, tuple(x for r in rows for x in r))

    def to_rows(self) -> list[list[int]]:
        e, c = self.entries, self.cols
        return [list(e[i * c:(i + 1) * c]) for i in range(self.rows)]

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]


class _AbelianGroupType(NamedTuple):
    divisors: tuple[int, ...]
    rank: int = 0


class AbelianGroupType(_AbelianGroupType):
    """Isomorphism type of a finitely generated abelian group.

    ``divisors`` is the torsion part in divisibility-chain order (each
    entry >= 2, each dividing the next); ``rank`` is the free rank.
    """

    __slots__ = ()

    def __new__(cls, divisors: tuple[int, ...], rank: int = 0):
        for i, d in enumerate(divisors):
            if d < 2:
                raise ValueError("divisors must be >= 2")
            if i and divisors[i] % divisors[i - 1]:
                raise ValueError("divisors must form a chain")
        if rank < 0:
            raise ValueError("negative rank")
        return super().__new__(cls, divisors, rank)

    @property
    def order(self) -> Optional[int]:
        if self.rank:
            return None
        n = 1
        for d in self.divisors:
            n *= d
        return n

    def render(self) -> str:
        parts = ["Z"] * self.rank + [f"Z/{d}" for d in reversed(self.divisors)]
        return " + ".join(parts) if parts else "(1)"


class SmithDecomposition(NamedTuple):
    divisors: tuple[int, ...]
    U: Optional[IntMatrix]
    U_inv: Optional[IntMatrix]


def _identity_rows(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(m, transforms: bool = True) -> SmithDecomposition:
    """Smith normal form U*M*V = S, with its nonzero diagonal entries as
    the divisors, and the row transform U with its inverse.

    M is first reduced by one column echelon without its transform,
    M W = [E 0] with W unimodular and E the rank columns of an image
    basis, and the Smith reduction runs on E: on some tall M the same
    reduction grows its entries to millions of bits, while E keeps them
    small.  U E V' = S gives U M W diag(V', I) = [S 0], so U is a row
    transform of M too.

    Pivoting minimizes absolute value, ties broken by lowest row then
    column index, for reproducible transforms.  U^-1 is kept alongside
    U: each row operation E on U is the column operation E^-1 on U^-1.
    The column transform V is not kept.  With transforms False, U and
    U^-1 are neither built nor returned (they are None), and the
    reduction runs on the transpose of E, which has the same divisors
    and no more rows.
    """
    if isinstance(m, IntMatrix):
        m = m.to_rows()
    nr = len(m)
    basis = ColumnEchelon(m, transform=False).image_basis()
    if transforms:  # laid out as columns, so that U acts on the rows of M
        a = [[col[i] for col in basis] for i in range(nr)]
        u = _identity_rows(nr)
        w = _identity_rows(nr)  # U^-1
    else:
        a, nr = basis, len(basis)
        u = w = None
    nc = len(a[0]) if a else 0

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]
            for row in w:
                row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, q):
        ad, asrc = a[dst], a[src]
        for j in range(nc):
            ad[j] += q * asrc[j]
        if u is not None:
            ud, usrc = u[dst], u[src]
            for j in range(nr):
                ud[j] += q * usrc[j]
            for row in w:
                row[src] -= q * row[dst]

    def addmul_col(dst, src, q):
        for row in a:
            row[dst] += q * row[src]

    t = 0
    limit = min(nr, nc)
    while t < limit:
        # locate minimal-absolute-value pivot in the trailing submatrix;
        # none is below 1, so the first unit is the pivot
        piv, least = None, 0
        for i in range(t, nr):
            row = a[i]
            for j in range(t, nc):
                x = abs(row[j])
                if x and (piv is None or x < least):
                    piv, least = (i, j), x
                    if x == 1:
                        break
            if least == 1:
                break
        if piv is None:
            break
        if piv[0] != t:
            swap_rows(t, piv[0])
        if piv[1] != t:
            swap_cols(t, piv[1])
        while True:
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        addmul_row(i, t, -q)
                    if a[i][t]:  # remainder became the smaller pivot
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, nc):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        addmul_col(j, t, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # enforce divisibility of the remaining block by the pivot
            p = a[t][t]
            if p in (1, -1):
                break
            bad = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            addmul_row(t, bad, 1)
        if a[t][t] < 0:
            for j in range(nc):
                a[t][j] = -a[t][j]
            if u is not None:
                for j in range(nr):
                    u[t][j] = -u[t][j]
                for row in w:
                    row[t] = -row[t]
        t += 1

    divisors = tuple(a[i][i] for i in range(min(nr, nc)) if a[i][i])
    if not transforms:
        return SmithDecomposition(divisors=divisors, U=None, U_inv=None)
    return SmithDecomposition(
        divisors=divisors,
        U=IntMatrix.from_rows(u) if nr else IntMatrix(0, 0, ()),
        U_inv=IntMatrix.from_rows(w) if nr else IntMatrix(0, 0, ()),
    )


class ColumnEchelon:
    """Column echelon form A*V = E with V unimodular.

    Pivot rows are strictly increasing across the leading columns; all
    columns past ``rank`` are zero.  Supports exact integer/rational
    solves of A x = b and yields an integer kernel basis.

    When row r is reached with c pivots placed, every column from c on
    is zero on rows 0..r-1: each earlier row either gave a pivot, whose
    column now sits below c, or had no nonzero entry from there on, and
    the steps since only combined columns from c on.  So a column
    update runs over the pivot column's nonzero entries in rows r..m-1,
    and the V update over the pivot's nonzero V entries.

    With transform False, V is not built: the rank, pivot rows, image
    basis and `coords` are the same, and `kernel` and `solve`, which
    read V, raise ValueError.

    The entries of rows_in are copied as they are, not converted: they
    must be Python ints, so that no step can round or overflow.
    """

    def __init__(self, rows_in, transform: bool = True):
        cols = [list(col) for col in zip(*rows_in)]
        m = self.nrows = len(rows_in)
        n = self.ncols = len(cols)
        v = [[1 if i == j else 0 for i in range(n)] for j in range(n)] \
            if transform else None
        pivot_rows = []
        c = 0
        for r in range(m):
            if c >= n:
                break
            active = [j for j in range(c, n) if cols[j][r]]
            if not active:
                continue
            while len(active) > 1:  # ascending, so the first least wins
                sizes = [abs(cols[j][r]) for j in active]
                j0 = active[sizes.index(min(sizes))]
                pa = cols[j0][r]
                live = [(i, x) for i, x in enumerate(cols[j0][r:], r) if x]
                vlive = [(i, x) for i, x in enumerate(v[j0]) if x] \
                    if v is not None else ()
                for j in active:
                    q = cols[j][r] // pa
                    if q and j != j0:
                        cj = cols[j]
                        for i, x in live:
                            cj[i] -= q * x
                        if vlive:  # empty only without V
                            vj = v[j]
                            for i, x in vlive:
                                vj[i] -= q * x
                active = [j for j in active if j == j0 or cols[j][r]]
            j0 = active[0]
            if cols[j0][r] < 0:
                cols[j0] = [-x for x in cols[j0]]
                if v is not None:
                    v[j0] = [-x for x in v[j0]]
            cols[c], cols[j0] = cols[j0], cols[c]
            if v is not None:
                v[c], v[j0] = v[j0], v[c]
            pivot_rows.append(r)
            c += 1
        self._cols = cols
        self._vcols = v
        self.rank = c
        self.pivot_rows = pivot_rows

    # -- queries --------------------------------------------------------

    def image_basis(self) -> list[list[int]]:
        """The first ``rank`` echelon columns: a basis of the lattice
        spanned by the columns of A (they are A V for V unimodular)."""
        return self._cols[:self.rank]

    def _transform(self) -> list[list[int]]:
        if self._vcols is None:
            raise ValueError("echelon built without its transform V")
        return self._vcols

    def kernel(self) -> list[tuple[int, ...]]:
        """Basis of the integer kernel (columns of V past the rank)."""
        v = self._transform()
        return [tuple(v[j]) for j in range(self.rank, self.ncols)]

    def coords(self, b: Sequence[int]):
        """Coordinates y of b on the first ``rank`` echelon columns, by
        forward substitution, and whether they are all integers.

        Returns ``(y, integral)``, with y None when b is outside the
        rational column span.  Over Z while every pivot divides; after
        the first that does not, the rest runs over Q.
        """
        if len(b) != self.nrows:
            raise ValueError("dimension mismatch")
        rem = list(map(int, b))
        ys = []
        integral = True
        for t in range(self.rank):
            r = self.pivot_rows[t]
            col = self._cols[t]
            coeff, frac = divmod(rem[r], col[r])
            if frac:
                from fractions import Fraction
                integral = False
                coeff = Fraction(rem[r], col[r])
            ys.append(coeff)
            if coeff:
                for i in range(r, self.nrows):
                    if col[i]:
                        rem[i] -= coeff * col[i]
        if any(rem):
            return None, False
        return ys, integral

    def solve(self, b: Sequence[int]):
        """Solve A x = b over Z as x = V y for the echelon coordinates y.

        Returns ``(solution, rational_solvable)``; solution is None when
        there is no integral solution, with the flag telling whether a
        rational one exists.
        """
        v = self._transform()
        ys, integral = self.coords(b)
        if not integral:
            return None, ys is not None
        x = [0] * self.ncols
        for t, y in enumerate(ys):
            if y:
                vt = v[t]
                for i in range(self.ncols):
                    x[i] += y * vt[i]
        return tuple(x), True


class SubquotientResult(NamedTuple):
    """span(Z)/span(B) with lifted generators.  ``class_coords(vec)``
    gives the coordinates of a vector's class w.r.t. the generators,
    torsion coordinates reduced modulo the matching divisor; it raises
    ValueError when the vector is outside span(Z)."""

    group: AbelianGroupType
    reps: list[tuple[int, ...]]       # torsion generators then free generators
    rep_orders: list[Optional[int]]   # matching orders (None = infinite)
    class_coords: Callable[[Sequence[int]], tuple[int, ...]]


def subquotient_structure(z_gens, b_gens, ambient_dim: int) -> SubquotientResult:
    """Structure of the quotient span(Z)/span(B) in Z^ambient_dim, with
    lifted generators.

    Raises ValueError when B is not contained in the Z-span.
    """
    z_gens = [list(map(int, v)) for v in z_gens]
    b_gens = [list(map(int, v)) for v in b_gens]
    n = ambient_dim
    if any(len(v) != n for v in z_gens + b_gens):
        raise ValueError("dimension mismatch")

    # lattice basis of span(Z): the first `rank` echelon columns, which
    # are already in echelon form, so coordinates on them are the
    # forward substitution of the same elimination
    zech = ColumnEchelon([[g[i] for g in z_gens] for i in range(n)],
                         transform=False)
    r = zech.rank
    basis = zech.image_basis()

    def basis_coords(vec, message):
        ys, integral = zech.coords(vec)
        if not integral:
            raise ValueError(message)
        return ys

    xcols = [basis_coords(bvec, "B is not contained in the span of Z")
             for bvec in b_gens]
    dec = smith_normal_form([[col[i] for col in xcols] for i in range(r)])
    # the diagonal of the Smith form: its divisors, then zeros
    diag = list(dec.divisors) + [0] * (r - len(dec.divisors))
    urows, uinv = dec.U.to_rows(), dec.U_inv.to_rows()

    tors_idx = [i for i in range(r) if diag[i] >= 2]
    free_idx = [i for i in range(r) if diag[i] == 0]
    divisors = tuple(diag[i] for i in tors_idx)
    group = AbelianGroupType(divisors, rank=len(free_idx))

    def lift(col_idx):
        vec = [0] * n
        for j in range(r):
            c = uinv[j][col_idx]
            if c:
                for i in range(n):
                    vec[i] += c * basis[j][i]
        return tuple(vec)

    reps = [lift(i) for i in tors_idx] + [lift(i) for i in free_idx]
    orders = [diag[i] for i in tors_idx] + [None for _ in free_idx]

    def coords(vec):
        sol = basis_coords(vec, "vector not in span(Z)")
        y = [sum(urows[i][j] * sol[j] for j in range(r)) for i in range(r)]
        out = [y[i] % diag[i] for i in tors_idx]
        out += [y[i] for i in free_idx]
        return tuple(out)

    return SubquotientResult(group=group, reps=reps, rep_orders=orders,
                             class_coords=coords)
