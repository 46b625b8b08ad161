"""The sampled real place: float points of both w-sheets over the three
affine charts.  dp2 decides the real place at exact witness points
(dp2.local.padic.real_profile); this sampler is the independent oracle
the tests compare it with."""

from fractions import Fraction

import numpy as np

from chart_oracle import coords as _coords


def _power(base, e):
    """base ** e by repeated products: for e > 2 numpy's ** calls pow
    on every element, about 30 times slower."""
    out = np.ones_like(base) if e == 0 else base
    for _ in range(e - 1):
        out = out * base
    return out


def _real_sheets(term_lists, A, B, C, samples, seed):
    """Sampled real points of the surface, stratified over the three
    affine charts at scales 1 and 10: per chart, scale and w-sheet,
    (sign of w, the values of each term list at the points).  Each power
    of a coordinate is computed once per chart and scale, and each power
    of w once per sheet; the terms multiply them left to right."""

    def powers(base, k):  # base ** e for every exponent e in slot k
        return {e: _power(base, e)
                for e in {t[k] for terms in term_lists for t in terms}}

    rng = np.random.default_rng(seed)
    per_chart = max(samples // 6, 1)
    for unit in ("x", "y", "z"):
        for scale in (1.0, 10.0):
            a = rng.uniform(-scale, scale, per_chart)
            b = rng.uniform(-scale, scale, per_chart)
            _, x, y, z = _coords(unit, a, a, b)  # w gives the shape
            rhs = A * _power(x, 4) + B * _power(y, 4) + C * _power(z, 4)
            mask = rhs > 0
            if not mask.any():
                continue
            x, y, z = x[mask], y[mask], z[mask]
            w = np.sqrt(rhs[mask])
            xs, ys, zs = powers(x, 2), powers(y, 3), powers(z, 4)
            for sign in (1, -1):
                sheet = sign * w
                ws = powers(sheet, 1)
                yield sign, [sum((float(c) * ws[ew] * xs[ex]
                                  * ys[ey] * zs[ez]
                                  for c, ew, ex, ey, ez in terms),
                                 np.zeros_like(sheet))
                             for terms in term_lists]


def sampled_real_invariants(classes, A, B, C, samples=200000, seed=0):
    """The attained invariant vectors over the sampled real points,
    skipping points where some class value is within 1e-9 of 0."""
    attained = set()
    sheets = _real_sheets([q.numerator_terms() for q in classes],
                          A, B, C, samples, seed)
    for _, vals in sheets:
        ok = np.ones(len(vals[0]), dtype=bool)
        for acc in vals:
            ok &= np.abs(acc) > 1e-9
        if not ok.any():
            continue
        # one int per point, bit k set when class k is ramified there
        codes = np.zeros(int(ok.sum()), dtype=np.int64)
        for k, (q, acc) in enumerate(zip(classes, vals)):
            if q.d < 0:
                codes |= (acc[ok] < 0).astype(np.int64) << k
        for code in np.flatnonzero(np.bincount(codes)).tolist():
            attained.add(tuple(Fraction(code >> k & 1, 2)
                               for k in range(len(classes))))
    return frozenset(attained)
