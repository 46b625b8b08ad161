"""Oracles for the chart cover of dp2.local.padic: a direct numpy
enumeration of every class, level by level, with its vectorized
evaluation mod p^j, and the expansion of the enumerator's Hensel
blocks into their lifts.  Also the numpy reading of the cocycle
values of dp2.local.quartic, one per head of four lifts, against which
its Python reader is checked."""

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


def lift_shifts(unit, e, t, j):
    """The offsets 2^e u, u mod 2^t, of the 2^(3t) lifts c + 2^e u of a
    cell of level j = e + t as a (4, 2^(3t)) array over (w, x, y, z), in
    runs of 4 that differ only in the digits at 2^(j-1) of the two
    chart variables after w; t >= 1, as every partial of f is even.
    The values read w mod 2^j and x, y, z mod 2^(j-1), so the lifts of
    a run share them, and the first of each run is its head."""
    w, a, b, a_top, b_top = np.indices(
        (2 ** t, 2 ** (t - 1), 2 ** (t - 1), 2, 2)).reshape(5, -1)
    shift = np.zeros((4, len(w)), dtype=np.int64)
    shift[list(_CHART_VARS[unit])] = (w << e, a << e | a_top << (j - 1),
                                      b << e | b_top << (j - 1))
    return shift


def components(hw, xz, yy, mask):
    """(n_re, n_im, d_re, d_im) of the two cocycle functions, each
    component masked to the precision mask + 1, from hw = w/2, xz =
    17xz and yy = y^2.  The denominator is (-n_re, n_im) for f1 and
    (n_re, -n_im) for f2, so |n|^2 = |d|^2 modulo twice the precision:
    the numerator norm carries the same valuation as the denominator
    norm and is never computed."""
    return (
        # f1 = (17(1+i)xz + iy^2 - w/2) / (17(-1+i)xz + iy^2 + w/2)
        ((xz - hw) & mask, (xz + yy) & mask,
         (hw - xz) & mask, (xz + yy) & mask),
        # f2 = (17(1-i)xz + iy^2 + w/2) / (17(1+i)xz - iy^2 + w/2)
        ((xz + hw) & mask, (yy - xz) & mask,
         (xz + hw) & mask, (xz - yy) & mask),
    )


def cocycle_values(coords, j, depth):
    """Per cocycle function, (codes, known, void) at classes mod 2^j, as
    arrays: known where the class fixes the value mod 32, codes = 32 re
    + im, and the value counts as determined at depth; void where the
    value is undetermined at depth in every descendant.  The value is
    n conj(d)/2^s * (|d|^2/2^s)^-1 mod 32, s = v(|d|^2) read mod 2^j
    and capped at j - 1."""
    prec = 2 ** (j - 1)  # component precision; w/2 costs one bit
    mask = prec - 1
    w, x, y, z = coords
    inv_odd = np.zeros(32, dtype=np.int64)
    for odd in range(1, 32, 2):
        inv_odd[odd] = pow(odd, -1, 32)
    out = []
    for nr, ni, dr, di in components(w >> 1, 17 * x * z, y * y, mask):
        norm_d = (dr * dr + di * di) & (2 * prec - 1)
        low = norm_d | prec  # v_2(norm_d) capped at j - 1, in one pass
        sd = np.bitwise_count((low & -low) - 1).astype(np.int64)
        prod_r = (nr * dr + ni * di) & mask
        prod_i = (ni * dr - nr * di) & mask
        # value = n conj(d)/2^s * (|d|^2/2^s)^-1 needs n conj(d) mod
        # 2^(s+5), known mod prec; at depth it counts when s <= depth - 7
        known = sd <= min(j - 6, depth - 7)
        shift = np.where(known, sd, 0)
        inv = inv_odd[(norm_d >> shift) & 31]
        res = (prod_r >> shift) * inv & 31
        ims = (prod_i >> shift) * inv & 31
        out.append((res << 5 | ims, known, sd >= depth - 6))
    return out
