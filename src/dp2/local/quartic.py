"""Degree-4 local analysis for the surface (-9826, -2, 136).

The obstruction class here has order 4 and is presented by a cocycle
(f, 1, 1) valued in the function field of S over Q(i, 17^(1/4)).  Its
local triviality at 2 reduces to a residue-table membership plus a
norm-image computation, and its nontriviality at 17 reduces to quartic
residues, because the norm group of Q_17(17^(1/4))/Q_17 is generated by
17 and fourth powers.  The norms are computed in poly.Poly, with t = i
and u = 17^(1/4) reduced by u^4 - 17 and then t^2 + 1: the leading
monomials u^4 and t^2 are coprime, so the relations form a Groebner
basis and the remainder is the canonical form.

The membership check covers all liftable classes mod 2^10 without
visiting each: the shared chart enumerator in padic refines one chart
of its disjoint cover at a time, and a class is settled, with its
exact number of descendants mod 2^10 as its weight, as soon as both
cocycle values are decided for every descendant.  The lifts of one
of the enumerator's Hensel blocks share both values, so the check
reads one class per block, in Python integers; all moduli are powers
of two, so reductions are bit masks.  The 17-adic
values of the cocycle function are read on the liftable classes of the
same cover, in Python integers: the function is a quotient of two
forms of one weighted degree, so a class gives the value of all its
unit rescalings."""

from __future__ import annotations

from fractions import Fraction

from ..arith import factorint, legendre
from .padic import CELL_BUDGET, _chart_cells
from .poly import T, U, Poly
from .profiles import LocalProfile

SURFACE75 = (-9826, -2, 136)

# attained residues of the cocycle function at 2-adic points, mod 32,
# as (real, imaginary) pairs; the first eight form the norm image of
# the integral norm-one elements
RESIDUE_TABLE_MOD32 = (
    (1, 0), (1, 8), (1, 16), (1, 24),
    (25, 4), (25, 12), (25, 20), (25, 28),
    (0, 31), (8, 31), (16, 31), (24, 31),
    (4, 7), (12, 7), (20, 7), (28, 7),
    (31, 0), (31, 24), (31, 16), (31, 8),
    (7, 28), (7, 20), (7, 12), (7, 4),
    (0, 1), (24, 1), (16, 1), (8, 1),
    (28, 25), (20, 25), (12, 25), (4, 25),
)
FIRST_ROW = RESIDUE_TABLE_MOD32[:8]


# --- the norm image, exact in Q(i, 17^(1/4)) ----------------------------

_RELATIONS = (U ** 4 - 17, T ** 2 + 1)


def ring_g(c):
    """The automorphism fixing i with u -> iu: t^a u^b -> t^(a+b) u^b."""
    return Poly({m[:4] + (m[4] + m[5], m[5]): a
                 for m, a in c.terms.items()}).rem(*_RELATIONS)


def ring_gh(c):
    """The composite automorphism i -> -i, u -> -u."""
    return Poly({m: (-1) ** (m[4] + m[5]) * a for m, a in c.terms.items()})


def norm_g(c):
    """c g(c) g^2(c) g^3(c) = e g^2(e) for e = c g(c), as g^2 is u -> -u."""
    e = (c * ring_g(c)).rem(*_RELATIONS)
    g2e = Poly({m: (-1) ** m[5] * a for m, a in e.terms.items()})
    return (e * g2e).rem(*_RELATIONS)


#: the inverses of the odd residues mod 32
_INV32 = {odd: pow(odd, -1, 32) for odd in range(1, 32, 2)}


def conjugate_ratio_mod32(re: int, im: int):
    """The class of xi / conj(xi) = xi^2 / |xi|^2 mod 32 for xi = re +
    im*i, computed exactly: with s the valuation of |xi|^2, both
    components of xi^2 are divisible by 2^s (_cocycle_values)."""
    norm = re * re + im * im
    if not norm:
        return None
    s = (norm & -norm).bit_length() - 1
    inv = _INV32[norm >> s & 31]
    return ((re * re - im * im) >> s) * inv % 32, (2 * re * im >> s) * inv % 32


# Hilbert-90 witnesses: for c = d / gh(d) the norm along gh is 1
# identically, and the norm along g is xi / conj(xi) with xi = N_g(d),
# a Gaussian integer.  These two elements generate, via products of
# witnesses, every value in RESIDUE_TABLE_MOD32.
WITNESS_ROW_GENERATOR = ((-2 - 2 * T) * (1 + U) + (2 - T) * U ** 2
                         + (2 * T - 1) * U ** 3)  # 25 + 4i
WITNESS_FOURTH_ROOT = (-2 - 2 * T) * (1 + U) - U ** 2 - (2 + T) * U ** 3  # i


def _gaussian_mul_mod32(a, b):
    return ((a[0] * b[0] - a[1] * b[1]) % 32,
            (a[0] * b[1] + a[1] * b[0]) % 32)


def norm_image_check():
    """Verifies that every residue in the table, in particular every
    first-row value and the value i, is the g-norm of an element of
    norm 1 along gh.  Exact: each witness d gives c = d/gh(d) with
    N_gh(c) = c gh(c) = 1 identically (gh is an involution) and
    N_g(c) = xi/conj(xi), xi = N_g(d).  Returns (transcript, values)."""
    transcript = []
    generators = []
    for d, target in ((WITNESS_ROW_GENERATOR, (25, 4)),
                      (WITNESS_FOURTH_ROOT, (0, 1))):
        if ring_gh(ring_gh(d)) != d:
            raise AssertionError("gh is not an involution on the witness")
        xi = norm_g(d)
        if any(m[5] for m in xi.terms):
            raise AssertionError("N_g(d) is not a Gaussian integer")
        xi = [xi.terms.get((0, 0, 0, 0, k, 0), 0) for k in (0, 1)]
        value = conjugate_ratio_mod32(*xi)
        if value != target:
            raise AssertionError(f"witness norm is {value}, not {target}")
        generators.append(value)
        transcript.append(
            f"witness with N_gh(c) = 1 and N_g(c) = {target[0]}+{target[1]}i"
            f" mod 32 (xi = {xi[0]}{xi[1]:+d}i)")
    attained = {(1, 0)}
    frontier = True
    while frontier:
        frontier = False
        for a in list(attained):
            for b in generators:
                t = _gaussian_mul_mod32(a, b)
                if t not in attained:
                    attained.add(t)
                    frontier = True
    if attained != set(RESIDUE_TABLE_MOD32):
        raise AssertionError("witness products do not cover the table")
    if not (set(FIRST_ROW) | {(0, 1)}) <= attained:
        raise AssertionError("first row or i not attained")
    transcript.append(
        "products of witnesses attain every table value, so each "
        "cocycle (f, 1, 1) with f in the table is a coboundary")
    return tuple(transcript), frozenset(attained)


# --- 2-adic residue-table membership -------------------------------------

def mod32_membership(depth=10, table=None):
    """At every liftable 2-adic residue class mod 2^depth of the
    surface, at least one of the two cocycle functions has a determined
    unit value, and that value mod 32 lies in the residue table.
    Returns (all_covered, attained values, class count), each equal to
    what a walk over every liftable class mod 2^depth gives.  The count
    is of the classes of padic's disjoint chart cover, one per point up
    to a unit rescaling, which keeps both cocycle values (each is a
    quotient of two forms of one weighted degree).  On this surface x
    is a unit at every 2-adic point, so all of them lie in chart x.

    The classes are refined one chart at a time by the chart
    enumerator of padic, whose cells are Hensel blocks: a liftable cell
    c of level j, with gradient valuation t and e = j - t, stands for
    its 2^(3t) lifts c + 2^e u, u mod 2^t.  The settle hook drops c as
    the stand-in for all of their descendants at depth D once 2e >= D
    and every lift is ready: both of its cocycle values are decided.  A
    cell is dropped only when all of its lifts are ready; a ready lift
    of a cell that is kept is counted deeper, through its descendants,
    which are ready, carry its values and have its number of
    descendants at depth D between them.  Let s be the valuation of
    |d|^2, read mod 2^j and capped at j - 1.  A value is

    - known when s <= min(j - 6, D - 7).  The value n conj(d)/2^s *
      (|d|^2/2^s)^-1 mod 32 needs n conj(d) and |d|^2 mod 2^(s+5).  c
      fixes the components mod 2^(j-1) and |d|^2 mod 2^j, so every
      descendant has this value, and at depth D it is determined.
    - void when s >= D - 6.  Every descendant has 2^(D-6) | |d|^2, so
      at depth D its value is undetermined.

    At level D every value is known or void.  A descendant agrees with
    c mod 2^j, and t < j, so it has the same t and is liftable at D.

    The lifts of a cell share its values, so each cell is read once, at
    its representative, in Python integers.  A cell that may be dropped
    has w = 2 mod 4 and x, y, z odd, or the check stops with
    "unexpected 2-adic parities"; so it lies in chart x, and t = 2, as
    v(2w) = 2 while 4A, 4B and 4C have valuation at least 3.  A value
    reads w/2, 17xz and y^2 mod 2^(j-1) = 2^(e+1), and it is +-n^2 /
    |n|^2 (_cocycle_values) for a Gaussian integer n with even
    components, as w/2, 17xz and y^2 are odd.  A lift moves n by some
    delta with components divisible by 2^(e-1), which moves |n|^2 by
    2 Re(n conj(delta)) + |delta|^2 and n^2 by 2 n delta + delta^2,
    both 0 mod 2^(e+1) as e >= 3.  So s, capped at e + 1, is the same
    on every lift: no cell mixes ready and unready lifts.  A known
    value, s <= e - 4, reads n^2 and |n|^2 mod 2^(s+5), which divides
    2^(e+1), so its code is the same on every lift too.

    The weight of a lift c is its exact number of descendants at depth
    D, not 4^(D-j): on this surface (t = 2) a liftable class at level 9
    has 0 or 8 children.  Let m = min(t, D - j).  Then c has

        2^(2(D-j)+m) descendants if 2^(j+m) | f(c), and none otherwise.

    Proof.  The descendants are the classes c + 2^j e, e mod 2^(D-j),
    on which f = 0 mod 2^D.  The Taylor coefficients of the integer
    polynomial f are integers and 2j >= D, so f(c + 2^j e) = f(c) +
    2^j grad f(c).e mod 2^D, with grad f the partials in the three
    chart variables.  They have valuation exactly t: by Euler's
    relation 2w f_w + x f_x + y f_y + z f_z = 4f, the partial in the
    unit coordinate is 4f(c) minus the others, and v(4f(c)) >= j > t.
    Write grad f(c) = 2^t g with g primitive.  The condition reads
    f(c) + 2^(j+t) g.e = 0 mod 2^D.  If D <= j + t it is f(c) = 0 mod
    2^D, for all 2^(3(D-j)) vectors e or for none.  Otherwise it needs
    2^(j+t) | f(c), and then f(c)/2^(j+t) + g.e = 0 mod 2^(D-j-t) is a
    linear condition with a unit coefficient on e mod 2^(D-j-t): it
    has 2^(2(D-j-t)) solutions there, each with 2^(3t) lifts to e mod
    2^(D-j), which makes 2^(2(D-j)+t).  The weight is 0 exactly for
    the classes without a liftable descendant, and those are left out
    of the attained values and the coverage test too.

    A uniform weight is exact per block only: the 2^(3t) classes c =
    c0 + 2^(j-t) u over one class c0 at level j - t.  If D <= 2(j - t),
    f(c) = f(c0) + 2^j g0.u mod 2^D with g0 primitive, so 2^(j+m) |
    f(c) is a linear condition mod 2^m with a unit coefficient on u;
    2^(3t-m) classes pass it, and the block has |block| 4^(D-j)
    descendants.  A dropped cell is such a block, as 2e >= D: the count
    adds 2^(3t) 4^(D-j) for it, and some of its lifts have a descendant
    and all of them carry its values, so those count towards coverage
    and the attained set.  No lift is tested for descendants."""
    if table is None:
        table = RESIDUE_TABLE_MOD32
    in_table = {32 * a + b for a, b in table}
    covered, count, seen = True, 0, set()

    def settle(unit, j, cells):
        nonlocal covered, count
        undecided = []
        for cell in cells:
            w, x, y, z, e, t = cell
            if j < 2 * t + 1 or 2 * e < depth:
                undecided.append(True)
                continue
            if w & 3 != 2 or not x & y & z & 1:
                raise AssertionError("unexpected 2-adic parities")
            values = _cocycle_values(j, depth, w, x, y, z)
            undecided.append(None in values)
            if None in values:
                continue
            known = [code for code in values if code >= 0]
            seen.update(known)
            covered = covered and not in_table.isdisjoint(known)
            count += 1 << (3 * t + 2 * (depth - j))
        return undecided

    for _ in _chart_cells(*SURFACE75, 2, depth, CELL_BUDGET, settle):
        pass
    if not count:
        raise AssertionError("no liftable 2-adic classes found")
    return covered, frozenset((c >> 5, c & 31) for c in seen), count


def _cocycle_values(j, depth, w, x, y, z):
    """The values of the two cocycle functions at a class mod 2^j, each
    as its code 32 re + im mod 32 where it is known, -1 where it is
    void and None where it is neither (mod32_membership).  The class
    fixes w/2, 17xz and y^2 mod 2^(j-1), which is all a value reads.

    f1 = (17(1+i)xz + iy^2 - w/2) / (17(-1+i)xz + iy^2 + w/2) is n/d
    with n = (17xz - w/2) + i(17xz + y^2) and d = -conj(n), and f2 =
    (17(1-i)xz + iy^2 + w/2) / (17(1+i)xz - iy^2 + w/2) is n/d with n =
    (17xz + w/2) + i(y^2 - 17xz) and d = conj(n).  So n conj(d) is -+n^2
    and |d|^2 is |n|^2, whose valuation s is read mod 2^j and capped at
    j - 1; both components of n^2 are divisible by 2^s, as n^2 and |n|^2
    have the same valuation at 1 + i.  All moduli are powers of two, so
    every reduction is a mask."""
    prec = 1 << (j - 1)  # component precision; w/2 costs one bit
    mask = prec - 1
    hw, xz, yy = w >> 1, 17 * x * z, y * y
    out = []
    for sign, re, im in ((-1, xz - hw, xz + yy), (1, xz + hw, yy - xz)):
        norm = (re * re + im * im) & (2 * prec - 1)
        low = norm | prec
        s = (low & -low).bit_length() - 1
        if s <= min(j - 6, depth - 7):  # known
            inv = sign * _INV32[norm >> s & 31]
            re2 = ((re * re - im * im) & mask) >> s
            im2 = ((2 * re * im) & mask) >> s
            out.append((re2 * inv & 31) << 5 | im2 * inv & 31)
        else:
            out.append(-1 if s >= depth - 6 else None)
    return out


# --- 17-adic quartic residues --------------------------------------------

def quartic_residues(p: int) -> frozenset:
    return frozenset(pow(t, 4, p) for t in range(1, p))


def quartic_invariant(value: int, p: int) -> Fraction:
    """Invariant in (1/4)Z/Z of a unit value under the norm group
    <p> * fourth powers: the character sends value to value^((p-1)/4),
    a fourth root of unity mod p (the primitive root is normalized to
    the smallest square root of -1)."""
    root = min(r for r in range(2, p) if (r * r + 1) % p == 0)
    char = pow(value, (p - 1) // 4, p)
    for k, target in enumerate((1, root, p - 1, p - root)):
        if char == target:
            return Fraction(k, 4)
    raise ValueError("value is not a unit")


def ex75_17adic_values(k: int = 1):
    """Evaluates f1 over the liftable 17-adic residue classes mod 17^k
    of padic's chart cover (k >= 2t + 1), for each square root of -1;
    every liftable class has y and w units, so both numerator and
    denominator are determined mod 17.  f1 is a quotient of two forms
    of one weighted degree, so it takes one value on every unit
    rescaling of a class (_chart_cells), and the cover's classes give
    the value set of all of them.  Returns (value set, residue flags,
    transcript)."""
    A, B, C = SURFACE75
    p = 17
    fac = factorint(abs(A))
    transcript = [
        "valuations v17(A), v17(B), v17(C) = 3, 0, 1: the three "
        "monomial valuations are distinct mod 4 when y = 0 mod 17, so "
        "v(w^2) would be odd - every 17-adic point has y, w units",
    ]
    if not (fac.get(17, 0) == 3 and factorint(abs(B)).get(17, 0) == 0
            and factorint(abs(C)).get(17, 0) == 1):
        raise AssertionError("unexpected 17-adic valuations")
    if legendre(-2, p) != 1:
        raise AssertionError("-2 must be a square mod 17")
    transcript.append("-2 is a square mod 17, so unit classes exist")
    roots = [r for r in range(2, p) if (r * r + 1) % p == 0]
    values, n_lift = set(), 0
    for _, cells in _chart_cells(A, B, C, p, k, CELL_BUDGET):
        for w, x, y, z, e, t in cells:
            if k < 2 * t + 1:
                continue
            n_lift += p ** (3 * (k - e))  # the cell's lifts share its value
            if y % p == 0 or w % p == 0:
                raise AssertionError("liftable class without y, w units")
            for r in roots:
                # 2*f1 components with i -> r: (34xz - w) + i(34xz + 2y^2)
                # over (-34xz + w) + i(34xz + 2y^2)
                num = (34 * x * z - w + r * (34 * x * z + 2 * y * y)) % p
                den = (-34 * x * z + w + r * (34 * x * z + 2 * y * y)) % p
                if den == 0:
                    raise AssertionError("denominator not a unit")
                values.add(num * pow(den, -1, p) % p)
    if not n_lift:
        raise AssertionError("no liftable 17-adic classes")
    flags = {v: v in quartic_residues(p) for v in values}
    transcript.append(
        f"f1 value set mod 17 over {n_lift} liftable classes: "
        f"{sorted(values)}")
    return frozenset(values), flags, tuple(transcript)


def ex75_17adic_profile() -> LocalProfile:
    """The 17-adic profile of the order-4 class: both attained values
    have character -1, giving invariant 1/2 at every point."""
    values, flags, _ = ex75_17adic_values()
    if any(flags.values()):
        raise AssertionError("a value is a quartic residue")
    invs = {(quartic_invariant(v, 17),) for v in values}
    if invs != {(Fraction(1, 2),)}:
        raise AssertionError("unexpected 17-adic invariants")
    return LocalProfile(place=17, modulus=17, invariants=frozenset(invs),
                        undetermined=0, method="analytic")


def ex75_2adic_profile() -> LocalProfile:
    """The 2-adic profile {0}: every point's cocycle value lies in the
    residue table (over all liftable classes mod 2^10) and every table
    value is a g-norm of a norm-one element (exact witnesses), so the
    cocycle is a coboundary at every 2-adic point."""
    covered, attained, _ = mod32_membership()
    if not covered:
        raise AssertionError("a liftable class misses the table")
    if not attained <= set(RESIDUE_TABLE_MOD32):
        raise AssertionError("an attained value is outside the table")
    norm_image_check()
    return LocalProfile(place=2, modulus=2 ** 10,
                        invariants=frozenset({(Fraction(0),)}),
                        undetermined=0, method="analytic")


def ex75_real_profile() -> LocalProfile:
    """The real profile {0}: at a real point the cocycle is (f, 1, 1)
    with |f| = 1, and the unit circle is connected, so the class is
    trivial on S(R).  The modulus-one identity f h(f) = 1 is part of
    the verified transcript; the connectedness step is geometric."""
    return LocalProfile(place="R", modulus=None,
                        invariants=frozenset({(Fraction(0),)}),
                        undetermined=0, method="analytic")
