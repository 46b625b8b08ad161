"""p-adic point enumeration on w^2 = A x^4 + B y^4 + C z^4 and exact
invariant profiles of quaternion classes over the enumerated points.

One chart enumerator, _chart_cells, refines residue classes digit by
digit, per chart, from the single class mod p^0, in Python integers.
Its three charts are a disjoint cover of the primitive points, each
normalized at its first unit coordinate: chart x has x = 1, chart y
has x = 0 mod p and y = 1, chart z has x = y = 0 mod p and z = 1.  So
each point is enumerated once, up to a unit rescaling, and no consumer
can tell the rescalings apart (_chart_cells gives the argument).  A
class is kept only while the surface congruence can still hold, and
is certified liftable by the multivariate Hensel criterion (depth >=
2t+1 where t is the minimal valuation in the gradient).

A cell of the enumeration is a Hensel block: a representative mod p^e
standing for all of its p^(3(j-e)) lifts mod p^j, on each of which the
congruence holds.  A block whose gradient vanishes to its precision
keeps or drops all of its lifts at once, and a liftable block writes
down the p^2 solutions of a linear congruence for its next digit, so
only the blocks are held, never the lifts one by one.  The lifts of
all levels, the first included, count against one budget, which is
checked before any level is run.  A consumer may pass a settle
callback that sees the cells of every level and drops the decided
ones, and a split callback that settles the p^2 children of a
liftable cell from three of them before they are written down, so
invariant profiles deepen automatically until every quaternion
invariant is determined or a depth cap is reached; a
consumer that needs only the cells at a fixed depth gets them one
chart at a time, and never holds all three charts at once.

The real place is decided in integers: a class of Br(S) is locally
constant on S(R), whose components are known from the signs of A, B,
C, so real_profile reads each component at one integer witness point,
with the sign of every numerator at w = +-sqrt(F) decided exactly (no
float and no sampling).  Polynomials are the standard-library Polys of
dp2.local.poly: no sympy here."""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from ..arith import factorint, legendre
from .hilbert import _unit_part_mod, _valuation, hilbert_symbol
from .poly import W, X, Y, Z, Poly
from .profiles import CapacityError, LocalProfile

DEPTH_CAP = {2: 12}
DEPTH_CAP_ODD = 6
#: residue cells one enumeration may expand, over all its levels
CELL_BUDGET = 2 ** 27
#: about how many cells of a level are refined and settled at a time
SETTLE_RUN = 2 ** 16
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


def _val(n, p, cap):
    """v_p(n), truncated at cap (so cap for n = 0)."""
    if n == 0:
        return cap
    if p == 2:
        return min((n & -n).bit_length() - 1, cap)
    v = 0
    while v < cap and n % p == 0:
        n //= p
        v += 1
    return v


#: the chart variables (w, a, b) of each chart, as positions in (w, x, y, z)
_CHART_VARS = {"x": (0, 2, 3), "y": (0, 1, 3), "z": (0, 1, 2)}


def _chart_cells(A, B, C, p, k, budget, settle=None, split=None):
    """Per chart x, y, z in turn: (unit, cells), the cells of level k of
    the chart.  A cell is a tuple (w, x, y, z, e, t): a representative
    mod p^e, with the chart's unit coordinate 1, standing for its
    p^(3(k-e)) lifts mod p^k in the chart variables, all of which
    satisfy the surface congruence f = 0 mod p^k; t is the minimal
    valuation of the gradient of f on the chart variables, read mod
    p^e and capped at e.  The charts are a disjoint cover of the
    primitive points, each normalized at its first unit coordinate:
    chart x has x = 1, chart y has x = 0 mod p and y = 1, chart z has
    x = y = 0 mod p and z = 1.

    Level 1 lists the classes mod p of the chart from tables of x^4 and
    of the square roots mod p.  Every cell of level j is then

    - liftable: t < e and j = e + t, so j >= 2t + 1; or
    - capped: t = e and e <= j <= 2e, so j < 2t + 1: the gradient
      vanishes mod p^e at every lift.

    Write c + p^e u for the lifts of a cell of level j.  The Taylor
    coefficients of the integer polynomial f are integers, so f(c + p^e
    u) = f(c) + p^e grad f(c).u mod p^(2e), and the cell is refined to
    level j + 1 by the first rule that applies:

    1. all or none, for a capped cell with j < 2e: p^(e+t) = p^(2e)
       divides p^e grad f(c).u and p^(2e) the higher terms, so f is
       constant mod p^(j+1) on the lifts; the cell stays one cell,
       with p^3 times the lifts, exactly when p^(j+1) divides f(c);
    2. digit solve, for a liftable cell: grad f(c) = p^t g with g
       primitive on the chart variables, and 2e >= j + 1, so a lift is
       kept exactly when f(c)/p^j + g.u = 0 mod p.  That reads u mod p
       only and has p^2 solutions delta, each the liftable cell c + p^e
       delta mod p^(e+1) with the same t;
    3. test, for a capped cell with j = 2e: each of the p^3 cells
       c + p^e delta mod p^(e+1) is kept when p^(j+1) divides its f,
       which is constant on its lifts as in rule 1, as p^(2e+1)
       divides p^(e+1) grad f; its t, read mod p^(e+1), is e (liftable)
       or e + 1 (capped).

    g is primitive on the chart variables: by Euler's relation 2w f_w
    + x f_x + y f_y + z f_z = 4f, the partial in the unit coordinate is
    4f less the others, and v(4f) >= j > t.  For the same reason the
    minimal valuation over all four partials, capped at the precision,
    is t.

    Consumers cannot tell a cell from its lifts.  A liftable cell stays
    at e = j - t, and the lifts agree mod p^e, so they agree in t and
    in every value read mod p^(j-t) = p^e, which is all that
    _quaternion_rows reads: every lift gives the cell's row.  A capped
    cell has j <= 2e < 2t + 1 on every lift, so none is liftable and
    nothing is decided on it; it is only refined further.

    The lifts expanded at every level of every chart count against
    budget, p^3 per lift of the level before and p^3 per chart root at
    level 1, and only one chart's cells are held at a time.  A level is
    refined and settled in runs of about SETTLE_RUN cells, and the
    next level's expansion is charged as its cells are kept: a level
    whose kept cells alone exceed the budget is refused as soon as
    they do, with the error the next level would raise, and the cells
    settle drops are never held all at once.  Residues are Python ints,
    so the budget and k are the only limits: level 1 alone costs p^3,
    past CELL_BUDGET from p = 521 on.

    The overlapping unit charts x = 1, y = 1, z = 1 would list a point
    once per unit coordinate.  Every class they add is the image of a
    cover class under a rescaling (w, x, y, z) -> (l^2 w, l x, l y, l z)
    by a unit l, and mod p^j that rescaling is an isometry:

    - f is multiplied by l^4 and its partials by l^2 (in w) and l^3, so
      f = 0 mod p^j, the gradient valuation t and liftability are kept;
    - a polynomial homogeneous of even weighted degree n, w of weight
      2, is multiplied by the square l^n, which keeps its valuation and
      square class; every numerator_terms is one, so every quaternion
      invariant is kept;
    - a quotient of two homogeneous polynomials of one weighted degree,
      such as the cocycle functions of dp2.local.quartic, keeps its
      value.

    So an attained set, a decision and a depth reached on the cover are
    those of the overlapping charts; only counts of classes differ, by
    the number of unit coordinates of each class.

    settle, when given, is called as settle(unit, j, cells) on the
    nonempty runs of cells of each level j and returns one flag per
    cell, true for the cells still undecided; only those are refined
    further and yielded.

    split, when given, settles the digit-solve children of a liftable
    cell before they are written down, and settle does not see them.
    It is called as split(j, t, base, (u, v)) once per such cell, and
    its children of level j, with gradient valuation t, are the cells
    base + da u + db v mod p^(j-t), for digits da, db mod p; split
    returns the digit pairs (da, db) of the children still undecided,
    and only those are written down.  The children agree mod p^(j-t-1)
    with their parent, and a value read mod p^(j-t) is affine in the
    digits (the Taylor step of rule 2), so split can read a value at
    three children instead of p^2."""
    spent = 0
    for unit in ("x", "y", "z"):
        chart = _CHART_VARS[unit]
        cells, lifts = [], p ** 3  # lifts: the next level's expansion
        for j in range(1, k + 1):
            if lifts > budget - spent:
                raise CapacityError("residue enumeration budget exceeded")
            spent += lifts
            parents, cells, lifts = cells, [], 0
            if j == 1:
                runs = [([], [(*c, 1, _gradient_val(A, B, C, c, chart, p, 1))
                              for c in _level_one(A, B, C, p, unit)])]
            else:
                step = max(1, SETTLE_RUN // p ** 2)
                runs = (_refine(parents[i:i + step], A, B, C, chart, p, j,
                                split)
                        for i in range(0, len(parents), step))
            for solved, run in runs:
                if settle is not None and run:
                    run = list(itertools.compress(run, settle(unit, j, run)))
                run += solved
                cells += run
                lifts += sum(p ** (3 * (j + 1 - c[4])) for c in run)
                if j < k and lifts > budget - spent:
                    raise CapacityError("residue enumeration budget exceeded")
            if not cells:
                break
        yield unit, cells


def _level_one(A, B, C, p, unit):
    """The classes (w, x, y, z) mod p of the chart on which f = 0 mod p:
    for each (x, y, z), the square roots w of A x^4 + B y^4 + C z^4."""
    roots = [[] for _ in range(p)]
    for w in range(p):
        roots[w * w % p].append(w)
    fourth = [pow(v, 4, p) for v in range(p)]
    digits = range(p)
    xyz = {"x": [(1, a, b) for a in digits for b in digits],
           "y": [(0, 1, b) for b in digits],
           "z": [(0, 0, 1)]}[unit]
    return [(w, x, y, z) for x, y, z in xyz
            for w in roots[(A * fourth[x] + B * fourth[y] + C * fourth[z])
                           % p]]


def _surface_value(A, B, C, c):
    w, x, y, z = c
    x, y, z = x * x, y * y, z * z
    return A * x * x + B * y * y + C * z * z - w * w


def _chart_gradient(A, B, C, c, chart):
    """The partials of f at c = (w, x, y, z) in the chart variables."""
    w, x, y, z = c
    grad = (-2 * w, 4 * A * x ** 3, 4 * B * y ** 3, 4 * C * z ** 3)
    return [grad[i] for i in chart]


def _gradient_val(A, B, C, c, chart, p, cap):
    return min(_val(g, p, cap) for g in _chart_gradient(A, B, C, c, chart))


def _shift(c, chart, h, digits):
    """c + h * digits on the chart variables."""
    c = list(c)
    for i, d in zip(chart, digits):
        c[i] += h * d
    return c


def _refine(cells, A, B, C, chart, p, j, split=None):
    """(solved, out): the cells of level j over those of level j - 1, by
    the three rules of _chart_cells; solved holds the digit-solve
    children that split keeps, out all others (all of them without
    split)."""
    solved, out = [], []
    mod = p ** j
    for cell in cells:
        *c, e, t = cell
        h = p ** e
        if t < e:  # digit solve: f(c)/p^(j-1) + g.delta = 0 mod p
            r = _surface_value(A, B, C, c) // (mod // p)
            g = [v // p ** t % p
                 for v in _chart_gradient(A, B, C, c, chart)]
            # g is primitive: solve for the digit of a unit entry i, and
            # let the digits at the other two positions a, b run
            i = 0 if g[0] else 1 if g[1] else 2
            a, b = ((1, 2), (0, 2), (0, 1))[i]
            inv, ga, gb = -pow(g[i], -1, p), g[a], g[b]
            i, a, b = chart[i], chart[a], chart[b]
            kids, digits = out, itertools.product(range(p), repeat=2)
            if split is not None:
                # child (da, db) = base + da u + db v mod p^(e+1)
                base, u, v = list(c), [0] * 4, [0] * 4
                base[i] += h * (r * inv % p)
                u[a], u[i] = h, h * (ga * inv % p)
                v[b], v[i] = h, h * (gb * inv % p)
                kids, digits = solved, split(j, t, base, (u, v))
            child = list(c)
            for da, db in digits:
                child[a] = c[a] + h * da
                child[b] = c[b] + h * db
                child[i] = c[i] + h * ((r + ga * da + gb * db) * inv % p)
                kids.append((*child, e + 1, t))
        elif j <= 2 * e:  # all or none
            if _surface_value(A, B, C, c) % mod == 0:
                out.append(cell)
        else:  # test
            for digits in itertools.product(range(p), repeat=3):
                child = _shift(c, chart, h, digits)
                if _surface_value(A, B, C, child) % mod == 0:
                    out.append((*child, e + 1, _gradient_val(
                        A, B, C, child, chart, p, e + 1)))
    return solved, out


def _lifts(unit, cell, p, j):
    """The p^(3(j-e)) classes [w, x, y, z] mod p^j of a cell of level j
    of the chart."""
    *c, e, _ = cell
    h, chart = p ** e, _CHART_VARS[unit]
    for digits in itertools.product(range(p ** (j - e)), repeat=3):
        yield _shift(c, chart, h, digits)


def padic_point_classes(A, B, C, p, k, budget=CELL_BUDGET):
    """All residue classes mod p^k, with some coordinate among x, y, z
    normalized to 1, on which the surface congruence holds, grouped by
    that coordinate; each is tagged liftable when the Hensel criterion
    (k >= 2t+1 for t the minimal gradient valuation) certifies a p-adic
    point within distance p^(t-k) of the representative.  Every actual
    point lies in a liftable class, but for t > 0 a liftable class need
    not itself contain a point; coordinates are guaranteed only to the
    effective precision p^(k-t).

    Each cell of _chart_cells' disjoint cover is expanded into its
    lifts, each liftable exactly when the cell is, and each lift is
    listed once per unit coordinate, rescaled by that coordinate's
    inverse l mod p^k to (l^2 w, l x, l y, l z), with the same t (the
    rescaling is an isometry, see _chart_cells)."""
    m = p ** k
    out = []
    for unit, cells in _chart_cells(A, B, C, p, k, budget):
        for cell in cells:
            lift = k >= 2 * cell[5] + 1
            for w, *xyz in _lifts(unit, cell, p, k):
                for coordinate, u in zip("xyz", xyz):
                    if u % p:
                        inv = pow(u, -1, m)
                        out.append(PointClass(inv * inv * w % m,
                                              *(inv * c % m for c in xyz),
                                              p=p, k=k,
                                              unit_coordinate=coordinate,
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


@functools.lru_cache(maxsize=None)
def _symbol_reader(d, p):
    """read(vals, j, precs): per value val mod p^j, trusted to precision
    p^prec, prec <= j, the invariant of the class (d, val) at p: 0 or 1
    (for 0, 1/2), or -1 undecided, unless v + need <= prec for v =
    v_p(val) capped at j (need = 3 at 2, else 1).  The symbol depends
    only on v mod 2 and the unit part of val mod p^need, so a reader
    computes it once per pair that occurs, and there is one reader per
    (d, p).  None when d is a square at p: the invariant is then 0 at
    every point."""
    if _is_padic_square(d, p):
        return None
    need = 3 if p == 2 else 1
    unit_mod = p ** need
    bits = {}  # by (v mod 2, unit)

    def read(vals, j, precs):
        out = []
        for val, prec in zip(vals, precs):
            v = _val(val, p, j)
            if v + need > prec:
                out.append(-1)
                continue
            key = (v % 2, val // p ** v % unit_mod)
            if key not in bits:
                sym = hilbert_symbol(d, Fraction(p) ** key[0] * key[1], p)
                bits[key] = 0 if sym == 1 else 1
            out.append(bits[key])
        return out

    return read


def _quaternion_rows(cls_terms, cells, p, j, hensel=True):
    """Per cell, its row of invariants: 0 / 1 (for 0, 1/2) / -1
    undecided, one per class.

    The Hensel certificate only places a point within p^(t-j) of the
    cell representative, so values are trusted to effective precision
    p^(j-t) only; deciding at full depth would let cells that contain
    no actual point contribute invariants.  With hensel false the
    values are read at full precision p^j, for a class whose value
    holds at every point of the cell."""
    mod = p ** j
    precs = [j - t if hensel else j for *_, t in cells]
    cols = []
    for terms, d in cls_terms:
        read = _symbol_reader(d, p)
        cols.append([0] * len(cells) if read is None else
                    read([eval_terms(terms, w, x, y, z, mod)
                          for w, x, y, z, _, _ in cells], j, precs))
    return list(zip(*cols))


def invariant_profile(classes, A, B, C, p, k_cap=None, budget=CELL_BUDGET,
                      merge=None):
    """Attained invariant vectors of the given quaternion classes over
    all liftable p-adic point classes, with auto-deepening to k_cap,
    DEPTH_CAP at p by default, within budget.  The classes are those of
    _chart_cells' disjoint cover, so undetermined counts each undecided
    point class once, up to a unit rescaling: a cell counts its lifts.

    merge optionally groups class indices, e.g. ((0, 3), (1, 4)): the
    grouped classes are equal in the Brauer group (different function
    representatives), so a group's invariant is decided when any
    member's is, and disagreement between decided members is an
    error.

    At an odd p the digit-solve children of a liftable cell are read
    by _chart_cells' split hook: each class is evaluated at three of
    them, and only the undecided children are written down, so a place
    that keeps many liftable cells undecided does not build the p^2
    children of each one by one."""
    if k_cap is None:
        k_cap = DEPTH_CAP.get(p, DEPTH_CAP_ODD)
    cls_terms = [(q.numerator_terms(), q.d) for q in classes]
    for terms, _ in cls_terms:
        # the cover decides for all unit rescalings only when g is a
        # function on the surface: w of weight 2, one even degree
        degrees = {2 * ew + ex + ey + ez for _, ew, ex, ey, ez in terms}
        if len(degrees) != 1 or degrees.pop() % 2:
            raise ValueError("numerator not homogeneous of even degree")
    attained = set()
    max_depth = 1

    def settle(unit, j, cells):
        nonlocal max_depth
        max_depth = max(max_depth, j)
        undecided = []
        for cell, row in zip(cells, _grouped(
                _quaternion_rows(cls_terms, cells, p, j), merge)):
            done = j >= 2 * cell[5] + 1 and -1 not in row
            if done:
                attained.add(row)
            undecided.append(not done)
        return undecided

    readers = [_symbol_reader(d, p) for _, d in cls_terms]

    def split(j, t, base, steps):
        # every child is liftable and read to p^(j-t).  The children
        # agree mod p^(j-t-1), so a class takes the value v + p^(j-t-1)
        # s at a child, for a digit s affine in its digits (rule 2):
        # the class is read at the p values of s, and each child's row
        # is looked up from its s
        nonlocal max_depth
        max_depth = max(max_depth, j)
        prec = j - t
        mod, top = p ** prec, p ** (prec - 1)
        points = [base, *([c + d for c, d in zip(base, step)]
                          for step in steps)]
        cols = []
        for (terms, _), read in zip(cls_terms, readers):
            if read is None:
                cols.append([0] * p ** 2)
                continue
            v, va, vb = [eval_terms(terms, *pt, mod) for pt in points]
            sa, sb = (va - v) // top, (vb - v) // top
            bits = read([(v + top * s) % mod for s in range(p)], prec,
                        itertools.repeat(prec))
            cols.append([bits[(da * sa + db * sb) % p]
                         for da in range(p) for db in range(p)])
        rows = list(_grouped(zip(*cols), merge))
        attained.update(row for row in set(rows) if -1 not in row)
        return [pair for pair, row in
                zip(itertools.product(range(p), repeat=2), rows)
                if -1 in row]

    # at 2 a cell has four children, and settle reads them for less
    # than split's three evaluations and its lookups cost
    undetermined = sum(p ** (3 * (k_cap - cell[4]))
                       for _, cells in _chart_cells(A, B, C, p, k_cap,
                                                    budget, settle,
                                                    split if p > 2 else None)
                       for cell in cells)
    return LocalProfile(place=p, modulus=p ** max_depth,
                        invariants=frozenset(
                            tuple(Fraction(r, 2) for r in row)
                            for row in attained),
                        undetermined=undetermined,
                        method="exact-enumeration")


def _merged(row, group):
    """The invariant of a group of equal classes: that of any decided
    member, -1 if none is decided."""
    decided = {row[i] for i in group if row[i] >= 0}
    if len(decided) > 1:
        raise AssertionError("merged class representatives disagree")
    return decided.pop() if decided else -1


def _grouped(rows, merge):
    """The rows with each group of merge read as one class (_merged), or
    the rows themselves when merge is None."""
    if merge is None:
        return rows
    return (tuple(_merged(row, group) for group in merge) for row in rows)


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


def real_profile(classes, A, B, C, merge=None):
    """The attained invariant vectors at R, decided at one exact witness
    point per w-sheet (real_witness), with the classes grouped by merge
    as in invariant_profile: the members of a group must agree on each
    sheet.

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
        rows = ([int(q.d < 0 and sign < 0) for q, sign in zip(classes, row)]
                for row in signs)
        attained = frozenset(tuple(Fraction(r, 2) for r in row)
                             for row in _grouped(rows, merge))
        if min(A, B, C) <= 0 and len(attained) > 1:
            raise AssertionError(
                "the w-sheets of the connected S(R) disagree")
    return LocalProfile(place="R", modulus=None, invariants=attained,
                        undetermined=0, method="sampling")
