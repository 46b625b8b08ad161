"""p-adic point enumeration on w^2 = A x^4 + B y^4 + C z^4 and exact
invariant profiles of quaternion classes over the enumerated points.

One chart enumerator, _chart_cells, refines residue classes digit by
digit (vectorized, one level at a time), per chart, from the single
class mod p^0.  Its three charts are a disjoint cover of the primitive
points, each normalized at its first unit coordinate: chart x has
x = 1, chart y has x = 0 mod p and y = 1, chart z has x = y = 0 mod p
and z = 1.  So each point is enumerated once, up to a unit rescaling,
and no consumer can tell the rescalings apart (_chart_cells gives the
argument).  A class is kept only while the surface
congruence can still hold, and is certified liftable by the
multivariate Hensel criterion (depth >= 2t+1 where t is the minimal
valuation in the gradient).  Past the first level, the congruence on
the p^3 digit extensions of a class is linear in the new digit (an
exact Taylor step), so each level evaluates f and the gradient once
per class, not f once per extension; t passes from a class to its
extensions and is evaluated again only where it was capped by the
precision.  The cells expanded at every level, the first included,
count against one budget, which is checked before any level is
allocated.  A consumer may pass a settle callback that sees the cells
of every level and drops the decided ones, so invariant
profiles deepen automatically until every quaternion invariant is
determined or a depth cap is reached; a consumer that needs only the
classes at a fixed depth gets them one chart at a time, and never
holds all three charts at once.

Modulo a power of two, residues are reduced with a bit mask and 2-adic
valuations are counted from the lowest set bit in one pass.  The real
place is decided in integers: a class of Br(S) is locally constant on
S(R), whose components are known from the signs of A, B, C, so
real_profile reads each component at one integer witness point, with
the sign of every numerator at w = +-sqrt(F) decided exactly (no float
and no sampling).  Polynomials are the standard-library Polys of
dp2.local.poly: no sympy here."""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from ..arith import factorint, legendre
from .hilbert import _unit_part_mod, _valuation, hilbert_symbol
from .poly import W, X, Y, Z, Poly
from .profiles import CapacityError, LocalProfile

DEPTH_CAP = {2: 12}
DEPTH_CAP_ODD = 6
#: residue cells one enumeration may expand, over all its levels
CELL_BUDGET = 2 ** 27
#: moduli stay below this, so that the product of two residues fits in
#: int64 (_eval_vec multiplies them before it reduces)
INT64_MODULUS_CAP = math.isqrt(2 ** 63 - 1)  # 3,037,000,499
#: the largest height max(|x|, |y|, |z|) real_witness tries
WITNESS_HEIGHT = 12


class PointClass(NamedTuple):
    w: int
    x: int
    y: int
    z: int
    p: int
    k: int
    unit_coordinate: str
    liftable: bool

    @property
    def modulus(self) -> int:
        return self.p ** self.k


def compile_poly(poly):
    """Integer term list ((coeff, ew, ex, ey, ez), ...), lex descending,
    for a polynomial in w, x, y, z with rational coefficients, scaled by
    the square of the coefficient denominator lcm (a square factor does
    not move a quaternion class)."""
    if not poly:  # sympy.Poly lists the zero polynomial as one zero term
        return ((0, 0, 0, 0, 0),)
    denom = math.lcm(*(Fraction(c).denominator for c in poly.terms.values()))
    return tuple((int(poly.terms[m] * denom ** 2), *m[:4])
                 for m in sorted(poly.terms, reverse=True))


def eval_terms(terms, w, x, y, z, mod=None):
    acc = 0
    for c, ew, ex, ey, ez in terms:
        acc += c * w ** ew * x ** ex * y ** ey * z ** ez
    return acc % mod if mod is not None else acc


class QuaternionClass:
    """The class of the quaternion algebra (d, g) on the surface: g is a
    Poly, or a (numerator, single-term denominator) pair of Polys."""

    def __init__(self, d: Fraction, g, label: str = ""):
        self.d = d
        self.g = g
        self.label = label

    def numerator_terms(self):
        """Terms of num * squarefree(den): a representative of the same
        square class as g at every point, polynomial in w, x, y, z."""
        return self._numerator_terms

    @functools.cached_property
    def _numerator_terms(self):  # built once per class
        """num and den as sympy's fraction(together(g)) gives them: the
        monomial factor they share is cancelled, and the rational content
        q moves to den; if den cancels fully, q * prim stays over 1."""
        num, den = self.g if isinstance(self.g, tuple) else (self.g, X ** 0)
        if not num:
            return compile_poly(num)
        ((dmono, dcoef),) = den.terms.items()
        shared = tuple(map(min, zip(*num.terms)))  # num's monomial factor
        common = tuple(map(min, dmono, shared))
        num = Poly({tuple(a - b for a, b in zip(m, common)): c
                    for m, c in num.terms.items()})
        content, prim = num.primitive()
        q = content / dcoef
        squarefree = math.prod(p for p, e in factorint(q.denominator).items()
                               if e % 2)
        if shared == dmono and any(dmono) and len(num.terms) > 1:
            squarefree = q.denominator  # compile_poly's lcm^2 scaling
        for gen, a, b in zip((W, X, Y, Z), dmono, common):
            if (a - b) % 2:
                squarefree = gen * squarefree
        return compile_poly(q.numerator * prim * squarefree)


def _surface_terms(A, B, C):
    return compile_poly(A * X ** 4 + B * Y ** 4 + C * Z ** 4 - W ** 2)


def _gradient_terms(A, B, C):
    f = A * X ** 4 + B * Y ** 4 + C * Z ** 4 - W ** 2
    return tuple(compile_poly(f.diff(v)) for v in (W, X, Y, Z))


def _eval_vec(terms, coords, m):
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
                _reduce(t, m)
        acc += t
        _reduce(acc, m)
    return acc


def _reduce(vals, m):
    if m & (m - 1):
        np.remainder(vals, m, out=vals)
    else:
        np.bitwise_and(vals, m - 1, out=vals)


def _vec_val(vals, p, cap):
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


def _coords(unit, w, a, b):
    one = np.ones_like(w)
    if unit == "x":
        return (w, one, a, b)
    if unit == "y":
        return (w, a, one, b)
    return (w, a, b, one)


#: gradient components along the chart variables (w, a, b) of each chart
_CHART_GRADS = {"x": (0, 2, 3), "y": (0, 1, 3), "z": (0, 1, 2)}


def _expand_filtered(cells, unit, p, j, f, grads, budget_left):
    """(children, parents): the digit extensions x + p^(j-1) delta of
    the level-(j-1) cells x on which the surface congruence holds mod
    p^j, in parent order and, per parent, in digit order, with the
    index of each child's parent.

    Level 1 evaluates f on the p^3 digit vectors of the root and keeps
    the ones in the chart's part of the disjoint cover.  From
    level 2 on it takes the exact Taylor step: with h = p^(j-1),
    f(x + h delta) = f(x) + h grad f(x).delta mod p^j, because the
    Taylor coefficients of an integer polynomial are integers and
    h^2 = 0 mod p^j.  A kept parent has f(x) = 0 mod h, so a child is
    kept exactly when f(x)/h + grad f(x).delta = 0 mod p: f is
    evaluated once per parent mod p^j and the three chart-variable
    partials once per parent mod p, and only the kept children are
    materialized, in bounded chunks of parents."""
    n = len(cells[0])
    if n == 0:
        return cells, np.zeros(0, dtype=np.int64)
    if n * p ** 3 > budget_left:
        raise CapacityError("residue enumeration budget exceeded")
    r = np.arange(p, dtype=np.int64)
    grid = [d.ravel() for d in np.meshgrid(r, r, r, indexing="ij")]
    if j == 1:
        keep = _eval_vec(f, _coords(unit, *grid), p) == 0
        # the disjoint cover: the coordinates before the unit one are
        # divisible by p (chart y: x; chart z: x and y)
        for d in grid[1:"xyz".index(unit) + 1]:
            keep &= d == 0
        return (tuple(d[keep] for d in grid),
                np.zeros(int(keep.sum()), dtype=np.int64))
    h = p ** (j - 1)
    chunk = max(1, 2 ** 21 // p ** 3)
    parents, digits = [], []
    for lo in range(0, n, chunk):
        part = _coords(unit, *(c[lo:lo + chunk] for c in cells))
        acc = (_eval_vec(f, part, p ** j) // h)[:, None]
        for i, d in zip(_CHART_GRADS[unit], grid):
            acc = acc + _eval_vec(grads[i], part, p)[:, None] * d
        _reduce(acc, p)
        parent, digit = np.nonzero(acc == 0)
        parents.append(parent + lo)
        digits.append(digit)
    parent, digit = np.concatenate(parents), np.concatenate(digits)
    return (tuple(c[parent] + h * d[digit] for c, d in zip(cells, grid)),
            parent)


def _int64_depth(p):
    """The deepest k with p^k below INT64_MODULUS_CAP (0 if p is not)."""
    k = 0
    while p ** (k + 1) < INT64_MODULUS_CAP:
        k += 1
    return k


def _min_gradient_val(grads, coords, p, j):
    vals = [_vec_val(_eval_vec(g, coords, p ** j), p, j) for g in grads]
    return np.minimum.reduce(vals)


def _chart_cells(A, B, C, p, k, budget, settle=None):
    """Per chart x, y, z in turn: (unit, coords, t) for the residue
    classes mod p^k of the chart on which the surface congruence holds,
    and t the per-class minimal gradient valuation.  The charts are a
    disjoint cover of the primitive points, each normalized at its
    first unit coordinate: chart x has x = 1, chart y has x = 0 mod p
    and y = 1, chart z has x = y = 0 mod p and z = 1.  Each chart
    starts from the one class mod p^0 and is refined a digit per level
    by _expand_filtered's Taylor step; the cells expanded at every level
    of every chart count against budget, p^3 per chart root at level 1,
    and only one chart's cells are held at a time.

    The overlapping unit charts x = 1, y = 1, z = 1 would list a point
    once per unit coordinate.  Every class they add is the image of a
    cover class under a rescaling (w, x, y, z) -> (l^2 w, l x, l y, l z)
    by a unit l, and mod p^j that rescaling is an isometry:

    - f is multiplied by l^4 and its partials by l^2 (in w) and l^3, so
      f = 0 mod p^j, the gradient valuation t and liftability are kept;
    - a polynomial homogeneous of even weighted degree e, w of weight
      2, is multiplied by the square l^e, which keeps its valuation and
      square class; every numerator_terms is one, so every quaternion
      invariant is kept;
    - a quotient of two homogeneous polynomials of one weighted degree,
      such as the cocycle functions of dp2.local.quartic, keeps its
      value.

    So an attained set, a decision and a depth reached on the cover are
    those of the overlapping charts; only counts of classes differ, by
    the number of unit coordinates of each class.

    t is carried from level to level.  At level j it is the valuation
    of the gradient mod p^j, capped at j.  A parent with t < j - 1 has
    its true valuation there, and every child agrees with it mod
    p^(j-1), so the child has the same t; only the children of capped
    parents (t = j - 1) are evaluated again.

    settle, when given, is called as settle(j, coords, t) on the
    nonempty cells of each level j and returns the mask of classes
    still undecided; only those are refined further and yielded.

    Residues are int64, and _eval_vec multiplies two of them before it
    reduces, which is exact only while the modulus p^k stays below
    INT64_MODULUS_CAP; a k past _int64_depth(p) raises CapacityError
    before any level is run."""
    if k > _int64_depth(p):
        raise CapacityError(
            f"modulus {p}^{k} is past the int64 range of the residues")
    f = _surface_terms(A, B, C)
    grads = _gradient_terms(A, B, C)
    root = tuple(np.zeros(1, dtype=np.int64) for _ in range(3))
    spent = 0
    for unit in ("x", "y", "z"):
        cells = root
        coords, t = _coords(unit, *root), root[0]  # t = 0 at depth 0
        for j in range(1, k + 1):
            n = len(cells[0])
            cells, parent = _expand_filtered(cells, unit, p, j, f, grads,
                                             budget - spent)
            spent += n * p ** 3
            coords = _coords(unit, *cells)
            t = t[parent]
            capped = np.flatnonzero(t >= j - 1)
            if len(capped):
                t[capped] = _min_gradient_val(
                    grads, tuple(c[capped] for c in coords), p, j)
            if settle is not None and len(t):
                undecided = settle(j, coords, t)
                cells, t = tuple(c[undecided] for c in cells), t[undecided]
                coords = _coords(unit, *cells)
        yield unit, coords, t


def padic_point_classes(A, B, C, p, k, budget=CELL_BUDGET):
    """All residue classes mod p^k, with some coordinate among x, y, z
    normalized to 1, on which the surface congruence holds, grouped by
    that coordinate; each is tagged liftable when the Hensel criterion
    (k >= 2t+1 for t the minimal gradient valuation) certifies a p-adic
    point within distance p^(t-k) of the representative.  Every actual
    point lies in a liftable class, but for t > 0 a liftable class need
    not itself contain a point; coordinates are guaranteed only to the
    effective precision p^(k-t).

    A class of _chart_cells' disjoint cover is listed once per unit
    coordinate, rescaled by that coordinate's inverse l mod p^k to
    (l^2 w, l x, l y, l z), with the same t (the rescaling is an
    isometry, see _chart_cells)."""
    m = p ** k
    out = []
    for _, coords, t in _chart_cells(A, B, C, p, k, budget):
        liftable = (k >= 2 * t + 1).tolist()
        for w, *xyz, lift in zip(*(c.tolist() for c in coords), liftable):
            for unit, u in zip("xyz", xyz):
                if u % p:
                    inv = pow(u, -1, m)
                    out.append(PointClass(inv * inv * w % m,
                                          *(inv * c % m for c in xyz),
                                          p=p, k=k, unit_coordinate=unit,
                                          liftable=lift))
    out.sort(key=lambda c: c.unit_coordinate)  # stable: chart order kept
    return out


def _is_padic_square(d, p: int) -> bool:
    d = Fraction(d)
    if _valuation(d, p) % 2:
        return False
    if p == 2:
        return _unit_part_mod(d, 2, 8) == 1
    return legendre(_unit_part_mod(d, p, p), p) == 1


def _quaternion_columns(cls_terms, coords, p, j, tvals=None):
    """Per-class invariant columns: 0 / 1 (for 0, 1/2) / -1 undecided.

    tvals is the per-cell minimal gradient valuation t: the Hensel
    certificate only places a point within p^(t-j) of the cell
    representative, so values are trusted to effective precision
    p^(j-t) only; deciding at full depth would let cells that contain
    no actual point contribute invariants."""
    need = 3 if p == 2 else 1
    if tvals is None:
        tvals = np.zeros(coords[0].shape, dtype=np.int64)
    jeff = j - tvals
    cols = []
    for terms, d in cls_terms:
        if _is_padic_square(d, p):
            cols.append(np.zeros(coords[0].shape, dtype=np.int64))
            continue
        vals = _eval_vec(terms, coords, p ** j)
        v = _vec_val(vals, p, j)
        decided = (v < jeff) & (jeff - v >= need)
        unit = np.where(decided,
                        vals // np.power(p, np.minimum(v, j - 1))
                        % p ** need, 1)
        # the symbol depends only on v mod 2 and the unit mod p^need:
        # one table entry per pair that occurs, code = parity p^need + u
        code = np.where(decided, v % 2 * p ** need + unit, 0)
        table = np.full(2 * p ** need, -1, dtype=np.int64)
        for c in np.flatnonzero(np.bincount(code[decided])).tolist():
            parity, u = divmod(c, p ** need)
            sym = hilbert_symbol(d, Fraction(p) ** parity * u, p)
            table[c] = 0 if sym == 1 else 1
        cols.append(np.where(decided, table[code], -1))
    return cols


def invariant_profile(classes, A, B, C, p, k_cap=None, budget=CELL_BUDGET,
                      merge=None):
    """Attained invariant vectors of the given quaternion classes over
    all liftable p-adic point classes, with auto-deepening.  The classes
    are those of _chart_cells' disjoint cover, so undetermined counts
    each undecided point class once, up to a unit rescaling.

    merge optionally groups class indices, e.g. ((0, 3), (1, 4)): the
    grouped classes are equal in the Brauer group (different function
    representatives), so a group's invariant is decided when any
    member's is, and disagreement between decided members is an
    error."""
    if k_cap is None:
        # from p = 41 on, depth 6 is past the int64 range; a p past it
        # is left for _chart_cells to refuse
        k_cap = max(1, min(DEPTH_CAP.get(p, DEPTH_CAP_ODD), _int64_depth(p)))
    cls_terms = [(q.numerator_terms(), q.d) for q in classes]
    for terms, _ in cls_terms:
        # the cover decides for all unit rescalings only when g is a
        # function on the surface: w of weight 2, one even degree
        degrees = {2 * ew + ex + ey + ez for _, ew, ex, ey, ez in terms}
        if len(degrees) != 1 or degrees.pop() % 2:
            raise ValueError("numerator not homogeneous of even degree")
    attained = set()
    max_depth = 1

    def settle(j, coords, t):
        nonlocal max_depth
        max_depth = max(max_depth, j)
        cols = _quaternion_columns(cls_terms, coords, p, j, tvals=t)
        if merge is not None:
            merged = []
            for group in merge:
                acc = np.full(len(t), -1, dtype=np.int64)
                for idx in group:
                    col = cols[idx]
                    clash = (acc >= 0) & (col >= 0) & (acc != col)
                    if clash.any():
                        raise AssertionError(
                            "merged class representatives disagree")
                    acc = np.where((acc < 0) & (col >= 0), col, acc)
                merged.append(acc)
            cols = merged
        decided = np.ones(len(t), dtype=bool)
        for col in cols:
            decided &= col >= 0
        done = (j >= 2 * t + 1) & decided
        if done.any():
            # a decided row of 0/1 columns is one index in a 2 x ... x 2 box
            shape = (2,) * len(cols)
            codes = np.ravel_multi_index([col[done] for col in cols], shape)
            for code in np.flatnonzero(np.bincount(codes)):
                row = np.unravel_index(code, shape)
                attained.add(tuple(Fraction(int(r), 2) for r in row))
        return ~done

    undetermined = sum(len(t) for _, _, t in _chart_cells(
        A, B, C, p, k_cap, budget, settle))
    return LocalProfile(place=p, modulus=p ** max_depth,
                        invariants=frozenset(attained),
                        undetermined=undetermined,
                        method="exact-enumeration")


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def _sheet_sign(terms, x, y, z, F, s):
    """The exact sign of a numerator at the real point (s sqrt(F), x, y,
    z), F > 0, in integers only.  With w^2 -> F the numerator reads
    P + Q w; put b = s Q, so its value is P + b sqrt(F).  When P and b
    do not have opposite signs, that is the sign of whichever is
    nonzero.  Otherwise P + b sqrt(F) and P - b sqrt(F) have the sign
    of P, and their product is P^2 - Q^2 F; so the sign is that of P
    times that of P^2 - Q^2 F, and 0 exactly when P^2 = Q^2 F."""
    P = Q = 0
    for c, ew, ex, ey, ez in terms:
        v = c * F ** (ew // 2) * x ** ex * y ** ey * z ** ez
        if ew % 2:
            Q += v
        else:
            P += v
    sp, sb = _sign(P), s * _sign(Q)
    if sp * sb >= 0:
        return sp or sb
    return sp * _sign(P * P - Q * Q * F)


def real_witness(term_lists, A, B, C):
    """((x, y, z), signs): the first integer point by height
    max(|x|, |y|, |z|) <= WITNESS_HEIGHT with F = A x^4 + B y^4 + C z^4
    > 0 at which no term list vanishes on either w-sheet, and signs[i]
    the exact sign of each term list on the sheet w = (1, -1)[i]
    sqrt(F).  Of (x, y, z) and (-x, -y, -z), one point of P^2(R), only
    the one whose first nonzero coordinate is positive is tried: a
    numerator homogeneous of even weighted degree takes one value at
    both.  CapacityError when no point under the bound qualifies."""
    for h in range(1, WITNESS_HEIGHT + 1):
        for x, y, z in itertools.product(range(-h, h + 1), repeat=3):
            if h not in (abs(x), abs(y), abs(z)) or (x, y, z) < (0, 0, 0):
                continue  # met at a lower height, or as -(x, y, z)
            F = A * x ** 4 + B * y ** 4 + C * z ** 4
            if F <= 0:
                continue
            signs = [[_sheet_sign(t, x, y, z, F, s) for t in term_lists]
                     for s in (1, -1)]
            if all(map(all, signs)):
                return (x, y, z), signs
    raise CapacityError(
        f"no real witness point of height at most {WITNESS_HEIGHT}")


def real_profile(classes, A, B, C):
    """The attained invariant vectors at R, decided at one exact witness
    point per w-sheet (real_witness).

    The evaluation of a class of Br(S) is locally constant on S(R)
    (Colliot-Thelene and Skorobogatov, The Brauer-Grothendieck Group,
    2021), so the attained set has one vector per connected component,
    read at any point of it where the class numerators do not vanish.
    Since w has weight 2, its sign is defined on real points, and:

    - A, B, C all negative: F < 0 off the origin, so S(R) is empty;
    - all positive: F > 0 off the origin, so S(R) is two copies of
      P^2(R), one per w-sheet, each connected; the witness is read on
      both;
    - mixed signs: {F >= 0} in P^2(R) is the inside of the oval F = 0
      (a disc) or its complement (a Moebius band), both connected, and
      the two sheets meet along F = 0, so S(R) is connected; the two
      sheets of the witness must give the same vector, and an
      AssertionError says they did not.

    At a point, the invariant of (d, g) is 1/2 exactly when d < 0 and g
    is negative there.  The profile keeps method "sampling" until the
    recorded outputs are re-recorded with the exact label."""
    attained = frozenset()
    if max(A, B, C) > 0:
        _, signs = real_witness([q.numerator_terms() for q in classes],
                                A, B, C)
        attained = frozenset(
            tuple(Fraction(int(q.d < 0 and sign < 0), 2)
                  for q, sign in zip(classes, row)) for row in signs)
        if min(A, B, C) <= 0 and len(attained) > 1:
            raise AssertionError(
                "the w-sheets of the connected S(R) disagree")
    return LocalProfile(place="R", modulus=None, invariants=attained,
                        undetermined=0, method="sampling")
