"""Oracles for the chart cover of dp2.local.padic: a direct numpy
enumeration of every class, level by level, with its vectorized
evaluation mod p^j, and the expansion of the enumerator's Hensel
blocks into their lifts."""

import itertools

import numpy as np

from dp2.local.padic import _CHART_VARS, _lifts, compile_poly, eval_terms
from dp2.local.poly import W, X, Y, Z


def surface_terms(A, B, C):
    return compile_poly(A * X ** 4 + B * Y ** 4 + C * Z ** 4 - W ** 2)


def gradient_terms(A, B, C):
    f = A * X ** 4 + B * Y ** 4 + C * Z ** 4 - W ** 2
    return tuple(compile_poly(f.diff(v)) for v in (W, X, Y, Z))


def eval_vec(terms, coords, m):
    """Vectorized polynomial evaluation mod m; coords already mod m.  A
    power-of-two m reduces with the mask m - 1, which on int64 gives
    the same non-negative residue as %, negative values included."""
    w, x, y, z = coords
    acc = np.zeros(w.shape, dtype=np.int64)
    for c, ew, ex, ey, ez in terms:
        t = np.full(w.shape, c % m, dtype=np.int64)
        for base, e in ((w, ew), (x, ex), (y, ey), (z, ez)):
            for _ in range(e):
                t *= base
                reduce_mod(t, m)
        acc += t
        reduce_mod(acc, m)
    return acc


def reduce_mod(vals, m):
    if m & (m - 1):
        vals %= m
    else:
        vals &= m - 1


def vec_val(vals, p, cap):
    """Componentwise v_p, truncated at cap (the precision of vals).  At
    p = 2 it is the number of trailing zero bits, counted in one pass
    as the popcount of (lowest set bit) - 1."""
    if p == 2:
        out = np.bitwise_count((vals & -vals) - 1).astype(np.int64)
        return np.where(vals == 0, cap, np.minimum(out, cap))
    out = np.zeros(vals.shape, dtype=np.int64)
    v = vals.copy()
    for _ in range(cap):
        todo = (v % p == 0) & (out < cap)
        if not todo.any():
            break
        v = np.where(todo, v // p, v)
        out = out + todo
    return np.where(vals == 0, cap, np.minimum(out, cap))


def coords(unit, w, a, b):
    one = np.ones_like(w)
    if unit == "x":
        return (w, one, a, b)
    if unit == "y":
        return (w, a, one, b)
    return (w, a, b, one)


def val(v, p, cap):
    if v == 0:
        return cap
    k = 0
    while v % p == 0:
        v //= p
        k += 1
    return min(k, cap)


def lift_rows(A, B, C, p, j, unit, cells):
    """Sorted (w, x, y, z, t) of every lift mod p^j of the cells of
    level j, t the lift's own minimal gradient valuation mod p^j,
    capped at j.  Each cell's own t, read mod p^e, is checked against
    its lifts' t: equal to it when the cell's t is below e, and at
    least e when the cell's t is capped at e."""
    grads = gradient_terms(A, B, C)
    rows = []
    for cell in cells:
        e, t = cell[4:]
        for pt in _lifts(unit, cell, p, j):
            own = min(val(eval_terms(g, *pt, p ** j), p, j) for g in grads)
            assert min(own, e) == t, (unit, j, cell, pt, own)
            rows.append((*pt, own))
    return sorted(rows)


def lift_arrays(unit, cells, p, j):
    """(coords, t): the lifts mod p^j of the cells of level j as numpy
    arrays, each lift with its cell's t."""
    lifts, ts = [np.zeros((4, 0), dtype=np.int64)], [np.zeros(0, np.int64)]
    for e in sorted({cell[4] for cell in cells}):
        group = [cell for cell in cells if cell[4] == e]
        reps = np.array([cell[:4] for cell in group], dtype=np.int64).T
        digits = np.indices((p ** (j - e),) * 3).reshape(3, -1)
        shift = np.zeros((4, digits.shape[1]), dtype=np.int64)
        shift[list(_CHART_VARS[unit])] = digits * p ** e
        lifts.append((reps[:, :, None] + shift[:, None, :]).reshape(4, -1))
        ts.append(np.repeat([cell[5] for cell in group], digits.shape[1]))
    return tuple(np.concatenate(lifts, axis=1)), np.concatenate(ts)


def direct_chart_cells(A, B, C, p, k, budget=None, settle=None, split=None,
                       disjoint=True):
    """The enumerator without Hensel blocks, Taylor step or inherited
    t: every level evaluates f mod p^j on all p^3 digit extensions of
    every kept class, and t mod p^j on the kept ones.  With disjoint,
    the charts are those of the cover _chart_cells refines: chart y
    keeps the classes with p | x, chart z those with p | x and p | y.
    Without, they are the three overlapping unit charts x = 1, y = 1,
    z = 1, which list a point once per unit coordinate.  Yields (unit,
    cells) as _chart_cells does, each cell one class (w, x, y, z, j,
    t), and calls settle as _chart_cells does; budget is not
    charged, and split is not called: settle sees every class, the
    digit-solve children included."""
    f = surface_terms(A, B, C)
    grads = gradient_terms(A, B, C)
    r = np.arange(p, dtype=np.int64)
    grid = [d.ravel() for d in np.meshgrid(r, r, r, indexing="ij")]
    chunk = max(1, 2 ** 21 // p ** 3)
    for before, unit in enumerate("xyz"):
        cells = tuple(np.zeros(1, dtype=np.int64) for _ in range(3))
        listed = []
        for j in range(1, k + 1):
            parts = []
            for lo in range(0, len(cells[0]), chunk):
                block = [c[lo:lo + chunk] for c in cells]
                ext = tuple(np.repeat(c, p ** 3)
                            + np.tile(d * p ** (j - 1), len(c))
                            for c, d in zip(block, grid))
                keep = eval_vec(f, coords(unit, *ext), p ** j) == 0
                for c in ext[1:before + 1] if disjoint else ():
                    keep &= c % p == 0
                parts.append(tuple(c[keep] for c in ext))
            cells = tuple(np.concatenate([part[i] for part in parts])
                          if parts else cells[i][:0] for i in range(3))
            pts = coords(unit, *cells)
            t = np.minimum.reduce([vec_val(eval_vec(g, pts, p ** j), p, j)
                                   for g in grads])
            listed = [(*pt, j, tt) for *pt, tt in
                      zip(*(c.tolist() for c in pts), t.tolist())]
            if settle is not None and listed:
                undecided = np.array(list(settle(unit, j, listed)),
                                     dtype=bool)
                cells = tuple(c[undecided] for c in cells)
                listed = list(itertools.compress(listed, undecided))
        yield unit, listed
