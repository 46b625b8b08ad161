"""Exact integer linear algebra.

Smith normal form, integer kernels and solves, and subquotient structure
of lattices.  Everything is computed over arbitrary-precision integers;
a numpy int64 elimination fast path is used for large systems, guarded
by magnitude bounds so that it is only taken when provably exact (numpy
is imported only when that path runs).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

_INT64_LIMIT = 2 ** 62


def _as_rows(m) -> list[list[int]]:
    if isinstance(m, IntMatrix):
        return m.to_rows()
    return [list(map(int, row)) for row in m]


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, row-major, exact entries."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count mismatch")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "IntMatrix":
        rows = [list(map(int, r)) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return IntMatrix(len(rows), ncols, tuple(x for r in rows for x in r))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def to_rows(self) -> list[list[int]]:
        e, c = self.entries, self.cols
        return [list(e[i * c:(i + 1) * c]) for i in range(self.rows)]

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        a, b = self.to_rows(), other.to_rows()
        out = [[sum(a[i][k] * b[k][j] for k in range(self.cols))
                for j in range(other.cols)] for i in range(self.rows)]
        return IntMatrix.from_rows(out) if out else IntMatrix(0, other.cols, ())


@dataclass(frozen=True)
class AbelianGroupType:
    """Isomorphism type of a finitely generated abelian group.

    ``divisors`` is the torsion part in divisibility-chain order (each
    entry >= 2, each dividing the next); ``rank`` is the free rank.
    """

    divisors: tuple[int, ...]
    rank: int = 0

    def __post_init__(self):
        for i, d in enumerate(self.divisors):
            if d < 2:
                raise ValueError("divisors must be >= 2")
            if i and self.divisors[i] % self.divisors[i - 1]:
                raise ValueError("divisors must form a chain")
        if self.rank < 0:
            raise ValueError("negative rank")

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


@dataclass(frozen=True)
class SmithDecomposition:
    S: IntMatrix
    U: IntMatrix
    V: IntMatrix
    divisors: tuple[int, ...]


def _identity_rows(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(m) -> SmithDecomposition:
    """Smith normal form with unimodular transforms: U*M*V = S.

    Pivoting minimizes absolute value, ties broken by lowest row then
    column index, for reproducible transforms.
    """
    a = _as_rows(m)
    nr = len(a)
    nc = len(a[0]) if a else 0
    u = _identity_rows(nr)
    v = _identity_rows(nc)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, q):
        ad, asrc = a[dst], a[src]
        for j in range(nc):
            ad[j] += q * asrc[j]
        ud, usrc = u[dst], u[src]
        for j in range(nr):
            ud[j] += q * usrc[j]

    def addmul_col(dst, src, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    t = 0
    limit = min(nr, nc)
    while t < limit:
        # locate minimal-absolute-value pivot in the trailing submatrix
        piv = None
        for i in range(t, nr):
            for j in range(t, nc):
                x = a[i][j]
                if x and (piv is None or abs(x) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
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
            for j in range(nr):
                u[t][j] = -u[t][j]
        t += 1

    divisors = tuple(a[i][i] for i in range(min(nr, nc)) if a[i][i])
    empty_s = IntMatrix(nr, nc, tuple(x for row in a for x in row))
    return SmithDecomposition(
        S=empty_s,
        U=IntMatrix.from_rows(u) if nr else IntMatrix(0, 0, ()),
        V=IntMatrix.from_rows(v) if nc else IntMatrix(0, 0, ()),
        divisors=divisors,
    )


class _Int64Overflow(Exception):
    pass


class ColumnEchelon:
    """Column echelon form A*V = E with V unimodular.

    Pivot rows are strictly increasing across the leading columns; all
    columns past ``rank`` are zero.  Supports exact integer/rational
    solves of A x = b and yields an integer kernel basis.
    """

    def __init__(self, rows_in, use_numpy: Optional[bool] = None):
        a = _as_rows(rows_in)
        self.nrows = len(a)
        self.ncols = len(a[0]) if a else 0
        if use_numpy is None:
            use_numpy = self.nrows * self.ncols >= 20000
        done = False
        if use_numpy and self.nrows and self.ncols:
            try:
                self._echelon_numpy(a)
                done = True
            except (_Int64Overflow, OverflowError):
                done = False
        if not done:
            self._echelon_python(a)

    # -- elimination backends -------------------------------------------

    def _echelon_python(self, a):
        m, n = self.nrows, self.ncols
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
        self._cols = cols
        self._vcols = v
        self.rank = c
        self.pivot_rows = pivot_rows

    def _echelon_numpy(self, a):
        import numpy as np

        m, n = self.nrows, self.ncols
        # entries of 2^63 or more raise OverflowError here; not np.abs,
        # which wraps at -2^63
        A = np.array(a, dtype=np.int64)
        if A.max() >= _INT64_LIMIT or A.min() <= -_INT64_LIMIT:
            raise _Int64Overflow
        V = np.eye(n, dtype=np.int64)
        pivot_rows = []
        c = 0
        for r in range(m):
            if c >= n:
                break
            idx = np.nonzero(A[r, c:])[0]
            if idx.size == 0:
                continue
            active = idx + c
            while active.size > 1:
                vals = A[r, active]
                j0 = active[int(np.argmin(np.abs(vals)))]
                pa = int(A[r, j0])
                others = active[active != j0]
                q = A[r, others] // pa
                # guard both the matrix and transform against overflow
                bound_a = int(np.abs(A[:, active]).max())
                bound_p = int(np.abs(A[:, j0]).max())
                bound_v = int(np.abs(V[:, active]).max())
                bound_pv = int(np.abs(V[:, j0]).max())
                qm = int(np.abs(q).max()) if others.size else 0
                if (bound_a + qm * bound_p >= _INT64_LIMIT
                        or bound_v + qm * bound_pv >= _INT64_LIMIT):
                    raise _Int64Overflow
                A[:, others] -= A[:, j0:j0 + 1] * q
                V[:, others] -= V[:, j0:j0 + 1] * q
                active = active[A[r, active] != 0]
            j0 = int(active[0])
            if A[r, j0] < 0:
                A[:, j0] = -A[:, j0]
                V[:, j0] = -V[:, j0]
            if j0 != c:
                A[:, [c, j0]] = A[:, [j0, c]]
                V[:, [c, j0]] = V[:, [j0, c]]
            pivot_rows.append(r)
            c += 1
        self._cols = A.T.tolist()
        self._vcols = V.T.tolist()
        self.rank = c
        self.pivot_rows = pivot_rows

    # -- queries --------------------------------------------------------

    def kernel(self) -> list[tuple[int, ...]]:
        """Basis of the integer kernel (columns of V past the rank)."""
        return [tuple(self._vcols[j]) for j in range(self.rank, self.ncols)]

    def solve(self, b: Sequence[int]):
        """Solve A x = b over Z.

        Returns ``(solution, rational_solvable)``; solution is None when
        there is no integral solution, with the flag telling whether a
        rational one exists.
        """
        if len(b) != self.nrows:
            raise ValueError("dimension mismatch")
        # forward substitution over Z while every pivot divides; after
        # the first that does not there is no integral solution, and the
        # rest runs over Q only to settle rational solvability
        rem = list(map(int, b))
        ys = []
        integral = True
        for t in range(self.rank):
            r = self.pivot_rows[t]
            col = self._cols[t]
            coeff, frac = divmod(rem[r], col[r])
            if frac:
                integral = False
                coeff = Fraction(rem[r], col[r])
            ys.append(coeff)
            if coeff:
                for i in range(r, self.nrows):
                    if col[i]:
                        rem[i] -= coeff * col[i]
        if any(rem):
            return None, False
        if not integral:
            return None, True
        x = [0] * self.ncols
        for t, y in enumerate(ys):
            if y:
                vt = self._vcols[t]
                for i in range(self.ncols):
                    x[i] += y * vt[i]
        return tuple(x), True


def _unimodular_inverse(u: IntMatrix) -> list[list[int]]:
    n = u.rows
    ech = ColumnEchelon(u.to_rows(), use_numpy=False)
    inv_cols = []
    for j in range(n):
        e = [1 if i == j else 0 for i in range(n)]
        sol, _ = ech.solve(e)
        if sol is None:
            raise ValueError("matrix is not unimodular")
        inv_cols.append(sol)
    return [[inv_cols[j][i] for j in range(n)] for i in range(n)]


@dataclass
class SubquotientResult:
    group: AbelianGroupType
    reps: list[tuple[int, ...]]       # torsion generators then free generators
    rep_orders: list[Optional[int]]   # matching orders (None = infinite)
    _coords: Callable = None

    def class_coords(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Coordinates of a vector's class w.r.t. the generators.

        Torsion coordinates are reduced modulo the matching divisor.
        Raises ValueError when the vector is outside span(Z).
        """
        return self._coords(vec)


def subquotient_structure(z_gens, b_gens, ambient_dim: Optional[int] = None) -> SubquotientResult:
    """Structure of the quotient span(Z)/span(B), with lifted generators.

    Raises ValueError when B is not contained in the Z-span.
    """
    z_gens = [list(map(int, v)) for v in z_gens]
    b_gens = [list(map(int, v)) for v in b_gens]
    if ambient_dim is None:
        if z_gens:
            ambient_dim = len(z_gens[0])
        elif b_gens:
            ambient_dim = len(b_gens[0])
        else:
            ambient_dim = 0
    n = ambient_dim
    if any(len(v) != n for v in z_gens + b_gens):
        raise ValueError("dimension mismatch")

    # lattice basis of span(Z): nonzero columns of the echelon form
    zmat = [[g[i] for g in z_gens] for i in range(n)]
    zech = ColumnEchelon(zmat) if z_gens else None
    if zech is not None:
        r = zech.rank
        basis = [[zech._cols[j][i] for i in range(n)] for j in range(r)]
    else:
        r = 0
        basis = []
    bas_mat = [[basis[j][i] for j in range(r)] for i in range(n)]
    bas_ech = ColumnEchelon(bas_mat) if r else None

    # express B in that basis (must be integral)
    xcols = []
    for bvec in b_gens:
        if r == 0:
            if any(bvec):
                raise ValueError("B is not contained in the span of Z")
            continue
        sol, _ = bas_ech.solve(bvec)
        if sol is None:
            raise ValueError("B is not contained in the span of Z")
        xcols.append(sol)

    xrows = [[col[i] for col in xcols] for i in range(r)]
    if xcols:
        dec = smith_normal_form(xrows)
        uinv = _unimodular_inverse(dec.U)
        diag = [dec.S[i, i] if i < len(xcols) else 0 for i in range(r)]
        urows = dec.U.to_rows()
    else:
        uinv = _identity_rows(r)
        diag = [0] * r
        urows = _identity_rows(r)

    tors_idx = [i for i in range(r) if abs(diag[i]) >= 2]
    free_idx = [i for i in range(r) if diag[i] == 0]
    divisors = tuple(abs(diag[i]) for i in tors_idx)
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
    orders = [abs(diag[i]) for i in tors_idx] + [None for _ in free_idx]

    def coords(vec):
        vec = list(map(int, vec))
        if r == 0:
            if any(vec):
                raise ValueError("vector not in span(Z)")
            return ()
        sol, _ = bas_ech.solve(vec)
        if sol is None:
            raise ValueError("vector not in span(Z)")
        y = [sum(urows[i][j] * sol[j] for j in range(r)) for i in range(r)]
        out = [y[i] % abs(diag[i]) for i in tors_idx]
        out += [y[i] for i in free_idx]
        return tuple(out)

    return SubquotientResult(group=group, reps=reps, rep_orders=orders, _coords=coords)
