"""The generic Galois group of order 128 and its action on the Picard lattice.

Elements are stored in radical coordinates (chi, e_s, e_k, e_m): chi in
(Z/8)* gives the action on zeta = e^{i pi/4} (zeta -> zeta^chi), e_s in Z/2
the sign on sqrt(A), and e_k, e_m in Z/4 the powers of i applied to the
fourth roots of B/A and C/A.  Composition twists the (e_k, e_m) part by
chi mod 4.  The five named generators act on the 56 exceptional curves by
an explicit table; everything else is derived from that.

The subgroup machinery runs on integers.  An element has the index
32 * (chi // 2) + 16 * e_s + 4 * e_k + e_m, its position in the sorted
ALL_ELEMENTS (the identity is 0), and a subgroup is the 128-bit mask with
bit i set for each element index i it contains.  `_tables()` builds the
product table by arithmetic on the coordinates (row g is the left
multiplication x -> g x), the conjugation permutations x -> g x g^-1 from
it, and the six S3 relabelings as index permutations.  A map moves a mask
by permuting its bits; that helper and the mask closure are shared with the
presentation backend in `cohomology`.  GroupElement and Subgroup remain the
public face.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

from .cohomology import _apply_perm, _closure_mask, h1_of_subgroup
from .intlin import ColumnEchelon, IntMatrix
from .picard import (
    ANTICANONICAL,
    Axis,
    BASIS_LABELS,
    CurveLabel,
    Triple,
    Vec,
    all_labels,
    axis,
    build_lattice,
    intersection,
    triple,
)


@dataclass(frozen=True, order=True)
class GroupElement:
    chi: int
    e_s: int
    e_k: int
    e_m: int

    def __post_init__(self):
        if self.chi not in (1, 3, 5, 7) or self.e_s not in (0, 1) \
                or not (0 <= self.e_k <= 3 and 0 <= self.e_m <= 3):
            raise ValueError(f"bad element {self!r}")

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        tw = self.chi % 4  # how self twists the (e_k, e_m) part of other
        return GroupElement(
            (self.chi * other.chi) % 8,
            (self.e_s + other.e_s) % 2,
            (self.e_k + tw * other.e_k) % 4,
            (self.e_m + tw * other.e_m) % 4,
        )

    def inverse(self) -> "GroupElement":
        tw = self.chi % 4
        return GroupElement(self.chi, self.e_s,
                            (-tw * self.e_k) % 4, (-tw * self.e_m) % 4)

    def order(self) -> int:
        n, g = 1, self
        while g != IDENTITY:
            g = g * self
            n += 1
        return n


IDENTITY = GroupElement(1, 0, 0, 0)
SIGMA = GroupElement(7, 0, 0, 0)
TAU = GroupElement(3, 0, 0, 0)
IOTA_A = GroupElement(1, 1, 3, 3)
IOTA_B = GroupElement(1, 0, 1, 0)
IOTA_C = GroupElement(1, 0, 0, 1)

GENERATORS = {"sigma": SIGMA, "tau": TAU,
              "iota_a": IOTA_A, "iota_b": IOTA_B, "iota_c": IOTA_C}

ALL_ELEMENTS: tuple[GroupElement, ...] = tuple(sorted(
    GroupElement(chi, s, k, m)
    for chi in (1, 3, 5, 7) for s in (0, 1) for k in range(4) for m in range(4)
))
_INDEX = {g: i for i, g in enumerate(ALL_ELEMENTS)}


def _gen_act(name: str, lab: CurveLabel) -> CurveLabel:
    """Action of one named generator, straight from the published table."""
    if isinstance(lab, Axis):
        d, s = lab.d, lab.sign
        if name == "sigma":
            return axis(lab.axis, 7 * d, s)
        if name == "tau":
            return axis(lab.axis, 3 * d, s)
        # the involutions shift delta by a power of i depending on the axis,
        # and flip the sign on their own axis
        shifts = {
            "iota_a": {"z": 2, "x": None, "y": -2},
            "iota_b": {"z": -2, "x": 2, "y": None},
            "iota_c": {"z": None, "x": -2, "y": 2},
        }[name]
        sh = shifts[lab.axis]
        if sh is None:
            return axis(lab.axis, d, -s)
        return axis(lab.axis, d + sh, s)
    a, b, c = lab.a, lab.b, lab.c
    if name == "sigma":
        return triple(-a, -b, -c)
    if name == "tau":
        return triple(1 - a, 1 - b, 1 - c)
    if name == "iota_a":
        return triple(a + 1, b, c)
    if name == "iota_b":
        return triple(a, b + 1, c)
    return triple(a, b, c + 1)


def _word(g: GroupElement) -> list[str]:
    """Write g = iota_a^s iota_b^k' iota_c^m' q with q in {1, sigma, tau,
    sigma tau}; the list is ordered left-to-right."""
    s = g.e_s
    kp = (g.e_k - 3 * s) % 4
    mp = (g.e_m - 3 * s) % 4
    w = ["iota_a"] * s + ["iota_b"] * kp + ["iota_c"] * mp
    w += {1: [], 7: ["sigma"], 3: ["tau"], 5: ["sigma", "tau"]}[g.chi]
    return w


def act_on_curve(g: GroupElement, lab: CurveLabel) -> CurveLabel:
    for name in reversed(_word(g)):
        lab = _gen_act(name, lab)
    return lab


_LABELS = all_labels()
_LATTICE = build_lattice()


def verify_action_homomorphism() -> None:
    """Exhaustive consistency check: act(g*h) = act(g) o act(h)."""
    for g in ALL_ELEMENTS:
        for name, h in GENERATORS.items():
            gh = g * h
            for lab in _LABELS:
                if act_on_curve(gh, lab) != act_on_curve(g, _gen_act(name, lab)):
                    raise AssertionError(f"action not a homomorphism at {g}, {name}")


_MATRIX_LABELS = BASIS_LABELS + [Axis("z", 7, -1)]
_LABEL_CLASSES = [(lab, _LATTICE.cls(lab)) for lab in _LABELS]


@lru_cache(maxsize=None)
def matrix_of(g: GroupElement) -> IntMatrix:
    """8x8 matrix of g on Pic coordinates, verified on all 56 curves."""
    cols = [list(_LATTICE.cls(act_on_curve(g, lab))) for lab in _MATRIX_LABELS]
    # the eighth basis label has class v8 - v6 - v7, so correct its column
    cols[7] = [a + b + c for a, b, c in zip(*cols[5:])]
    rows = [[cols[j][i] for j in range(8)] for i in range(8)]

    def apply(vec: Vec) -> Vec:
        return tuple(sum(map(operator.mul, row, vec)) for row in rows)

    for lab, cls in _LABEL_CLASSES:
        if apply(cls) != _LATTICE.cls(act_on_curve(g, lab)):
            raise AssertionError(f"induced matrix inconsistent for {g} at {lab}")
    if apply(ANTICANONICAL) != ANTICANONICAL:
        raise AssertionError(f"matrix of {g} moves the anticanonical class")
    return IntMatrix.from_rows(rows)


@lru_cache(maxsize=None)
def pic_rows(g: GroupElement) -> tuple:
    """matrix_of(g) as a tuple of rows."""
    return tuple(map(tuple, matrix_of(g).to_rows()))


@lru_cache(maxsize=1)
def _traces() -> tuple[int, ...]:
    """Trace of matrix_of(g) on Pic, for every element in index order."""
    return tuple(sum(m[i][i] for i in range(8))
                 for m in map(pic_rows, ALL_ELEMENTS))


@dataclass(frozen=True)
class Subgroup:
    elements: tuple[GroupElement, ...]  # sorted
    generators: tuple[GroupElement, ...]
    onto_q: bool

    @property
    def order(self) -> int:
        return len(self.elements)

    def mask(self) -> int:
        return sum(1 << _INDEX[g] for g in self.elements)

    def __contains__(self, g: GroupElement) -> bool:
        return g in set(self.elements)


def _closure(gens) -> set[GroupElement]:
    elems = {IDENTITY}
    frontier = [IDENTITY]
    gens = list(gens)
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = cur * g
            if nxt not in elems:
                elems.add(nxt)
                frontier.append(nxt)
    return elems


def _onto_q(elems) -> bool:
    return {g.chi for g in elems} == {1, 3, 5, 7}


def generate_subgroup(gens) -> Subgroup:
    gens = tuple(gens)
    elems = tuple(sorted(_closure(gens)))
    return Subgroup(elements=elems, generators=gens, onto_q=_onto_q(elems))


G0 = generate_subgroup([SIGMA, TAU, IOTA_A, IOTA_B, IOTA_C])
H_SUBGROUP = generate_subgroup([IOTA_A, IOTA_B, IOTA_A * IOTA_B * IOTA_C])

# the six relabelings of the roles of A, B, C, as automorphisms of G0
_PHI_AB = lambda g: GroupElement(g.chi, (g.e_s + g.e_k) % 2,
                                 (-g.e_k) % 4, (g.e_m - g.e_k) % 4)
_PHI_BC = lambda g: GroupElement(g.chi, g.e_s, g.e_m, g.e_k)
_PHI_AC = lambda g: GroupElement(g.chi, (g.e_s + g.e_m) % 2,
                                 (g.e_k - g.e_m) % 4, (-g.e_m) % 4)


def _compose(f, h):
    return lambda g: f(h(g))


S3_MAPS = {
    "id": lambda g: g,
    "ab": _PHI_AB,
    "bc": _PHI_BC,
    "ac": _PHI_AC,
    "abc": _compose(_PHI_AB, _PHI_BC),
    "acb": _compose(_PHI_BC, _PHI_AB),
}


def verify_s3_automorphisms() -> None:
    for name, phi in S3_MAPS.items():
        imgs = {phi(g) for g in ALL_ELEMENTS}
        if len(imgs) != 128:
            raise AssertionError(f"{name} is not a bijection")
        for g in ALL_ELEMENTS:
            for h in (SIGMA, TAU, IOTA_A, IOTA_B, IOTA_C):
                if phi(g * h) != phi(g) * phi(h):
                    raise AssertionError(f"{name} is not a homomorphism")


# --- subgroup enumeration ------------------------------------------------

# the four cosets of H in G0 (one per value of chi), as masks
_CHI_COSETS = tuple(((1 << 32) - 1) << (32 * c) for c in range(4))


@lru_cache(maxsize=1)
def _tables():
    """Product table, conjugation permutations (x -> g x g^-1, one per g)
    and the six S3 relabelings, all on element indices."""
    coords = [(g.chi, g.e_s, g.e_k, g.e_m) for g in ALL_ELEMENTS]
    mul = [[c1 * c2 % 8 // 2 * 32 + (s1 + s2) % 2 * 16
            + (k1 + c1 % 4 * k2) % 4 * 4 + (m1 + c1 % 4 * m2) % 4
            for c2, s2, k2, m2 in coords]
           for c1, s1, k1, m1 in coords]
    inv = [row.index(0) for row in mul]
    conj = [tuple(mul[mul[g][x]][inv[g]] for x in range(128))
            for g in range(128)]
    s3 = [tuple(_INDEX[phi(x)] for x in ALL_ELEMENTS)
          for phi in S3_MAPS.values()]
    return mul, conj, s3


_ORBITS: dict[tuple[int, bool], frozenset[int]] = {}


def _orbit(mask: int, with_s3: bool = False) -> frozenset[int]:
    """Images of the subgroup mask under G0-conjugation, and under the S3
    relabelings too when with_s3; memoised for every member."""
    orbit = _ORBITS.get((mask, with_s3))
    if orbit is None:
        _, conj, s3 = _tables()
        perms = [conj[_INDEX[g]] for g in GENERATORS.values()]
        if with_s3:
            perms += s3[1:3]  # ab and bc: transpositions generating S3
        found, frontier = {mask}, [mask]
        while frontier:
            cur = frontier.pop()
            for p in perms:
                img = _apply_perm(cur, p)
                if img not in found:
                    found.add(img)
                    frontier.append(img)
        orbit = frozenset(found)
        _ORBITS.update(((m, with_s3), orbit) for m in orbit)
    return orbit


def _canon_conj(mask: int) -> int:
    """Least G0-conjugate of the subgroup mask."""
    return min(_orbit(mask))


def _canon_conj_s3(mask: int) -> int:
    """Least image of the subgroup mask under conjugation and the S3
    relabelings."""
    return min(_orbit(mask, with_s3=True))


def _subgroup_from_mask(mask: int) -> Subgroup:
    elems = tuple(ALL_ELEMENTS[i] for i in range(128) if mask >> i & 1)
    gens = _minimal_generators(elems)
    return Subgroup(elements=elems, generators=gens, onto_q=_onto_q(elems))


def _minimal_generators(elems) -> tuple[GroupElement, ...]:
    chosen: list[int] = []
    have = 1
    for g in sorted(elems, key=lambda e: (-e.order(), e)):
        i = _INDEX[g]
        if not have >> i & 1:
            chosen.append(i)
            have = _closure_mask(_tables()[0], chosen, 0)
            if have.bit_count() == len(elems):
                break
    return tuple(ALL_ELEMENTS[i] for i in chosen)


@lru_cache(maxsize=1)
def all_subgroup_classes() -> tuple[int, ...]:
    """Canonical masks of all subgroups of G0 up to G0-conjugacy.

    Every subgroup of a 2-group of order 2^{n+1} is generated by an
    index-2 (hence normal) subgroup together with one extra element, so a
    layered extension of conjugacy-class representatives is exhaustive.
    """
    mul, conj, _ = _tables()
    layer = {1 << _INDEX[IDENTITY]}
    seen = set(layer)
    while layer:
        nxt = set()
        for mask in layer:
            done = mask  # elements whose extension has been taken
            for i in range(128):
                if done >> i & 1 or not mask >> mul[i][i] & 1 \
                        or _apply_perm(mask, conj[i]) != mask:
                    continue
                # i normalises mask and i^2 lies in it, so <mask, i> is
                # the union of mask and its coset i.mask; every element of
                # that coset gives the same extension
                new = mask | _apply_perm(mask, mul[i])
                done |= new
                canon = _canon_conj(new)
                if canon not in seen:
                    seen.add(canon)
                    nxt.add(canon)
        layer = nxt
    return tuple(sorted(seen))


@lru_cache(maxsize=1)
def enumerate_subgroups_onto_Q() -> tuple[Subgroup, ...]:
    """Subgroups surjecting onto Q = G0/H, up to conjugacy and the S3
    relabeling of the (A, B, C) roles, in deterministic order."""
    out = {}
    for mask in all_subgroup_classes():
        if not all(mask & coset for coset in _CHI_COSETS):
            continue
        canon = _canon_conj_s3(mask)
        if canon not in out:
            out[canon] = _subgroup_from_mask(canon)
    return tuple(s for _, s in sorted(out.items(),
                                      key=lambda kv: (kv[1].order, kv[0])))


# --- invariants ----------------------------------------------------------

def _abelian_type_from_orders(orders) -> tuple[int, ...]:
    """Invariant factors of a finite abelian 2-group from its element
    orders: counting elements of order dividing 2^k determines the type."""
    n = len(orders)
    if n == 1:
        return ()
    counts = {}
    for o in orders:
        counts[o] = counts.get(o, 0) + 1
    # exponents e_j of the cyclic decomposition Z/2^{e_1} x ... (descending)
    exps = []
    k = 1
    prev = 1
    while prev < n:
        le = sum(c for o, c in counts.items() if o <= 2 ** k)
        # number of cyclic factors with exponent >= k is log2(le/prev)
        exps.append((le // prev).bit_length() - 1)
        prev = le
        k += 1
    # multiplicity of the exponent-j factor is exps[j-1] - exps[j]
    factors = []
    for j in range(len(exps), 0, -1):
        mult = exps[j - 1] - (exps[j] if j < len(exps) else 0)
        factors.extend([2 ** j] * mult)
    return tuple(sorted(factors))


def abelianization(s: Subgroup) -> tuple[int, ...]:
    """Invariant factors (ascending) of s / [s, s]."""
    mul, _, _ = _tables()
    idx = [_INDEX[g] for g in s.elements]
    inv = {g: mul[g].index(0) for g in idx}
    derived = _closure_mask(mul, {mul[mul[inv[g]][inv[h]]][mul[g][h]]
                                  for g in idx for h in idx}, 0)
    # the order of each coset g[s, s] in the quotient
    orders = []
    done = 0
    for g in idx:
        if done >> g & 1:
            continue
        done |= _apply_perm(derived, mul[g])
        o, cur = 1, g
        while not derived >> cur & 1:
            cur = mul[cur][g]
            o += 1
        orders.append(o)
    return _abelian_type_from_orders(orders)


def fixed_sublattice(s: Subgroup):
    """Kernel basis of the stacked (matrix_of(g) - I) maps: M^s."""
    rows = []
    for g in s.generators if s.generators else ():
        m = pic_rows(g)
        for i in range(8):
            rows.append([m[i][j] - (1 if i == j else 0) for j in range(8)])
    if not rows:
        rows = [[0] * 8]
    ech = ColumnEchelon(rows)
    return ech.kernel()


@lru_cache(maxsize=None)
def _curve_perm(g: GroupElement) -> dict:
    return {lab: act_on_curve(g, lab) for lab in _LABELS}


def curve_orbit_lengths(s: Subgroup) -> tuple[int, ...]:
    perms = [_curve_perm(g) for g in s.generators] or [_curve_perm(IDENTITY)]
    remaining = set(_LABELS)
    lengths = []
    while remaining:
        start = remaining.pop()
        orbit = {start}
        frontier = [start]
        while frontier:
            cur = frontier.pop()
            for p in perms:
                nxt = p[cur]
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
        remaining -= orbit
        lengths.append(len(orbit))
    return tuple(sorted(lengths))


def fingerprint(s: Subgroup, include_h1: bool = True) -> tuple:
    """Conjugation-invariant summary used to group subgroups that could be
    identified by a lattice automorphism."""
    trace = _traces()
    traces = tuple(sorted(trace[_INDEX[g]] for g in s.elements))
    fp = (
        s.order,
        abelianization(s),
        max(g.order() for g in s.elements),
        curve_orbit_lengths(s),
        len(fixed_sublattice(s)),
        traces,
    )
    if include_h1:
        fp = fp + (h1_of_subgroup(s).divisors,)
    return fp


def is_abelian(elems) -> bool:
    mul = _tables()[0]
    idx = [_INDEX[g] for g in elems]
    return all(mul[g][h] == mul[h][g] for g in idx for h in idx)


def _complement_search(s: Subgroup, n_set: set) -> Subgroup | None:
    need = s.order // len(n_set)
    if need == 1:
        return generate_subgroup([])
    cands = [_INDEX[g] for g in s.elements]
    n_mask = sum(1 << _INDEX[g] for g in n_set)
    for i, t1 in enumerate(cands):
        for t2 in cands[i:]:
            t = _closure_mask(_tables()[0], [t1, t2], 0)
            if t.bit_count() != need or (t & n_mask).bit_count() != 1:
                continue
            elems = tuple(ALL_ELEMENTS[j] for j in range(128) if t >> j & 1)
            if is_abelian(elems):
                return generate_subgroup(_minimal_generators(elems))
    return None


def semidirect_decomposition(s: Subgroup):
    """Find an abelian normal subgroup with an abelian complement.

    Returns (N, T) as Subgroups, or None if the search fails.  Candidate
    normal subgroups are the preimages in s of subgroups of the image of
    chi (these are automatically normal); complements are searched among
    subgroups generated by at most two elements.
    """
    for u in ({1}, {1, 3}, {1, 5}, {1, 7}, {1, 3, 5, 7}):
        n_elems = tuple(sorted(g for g in s.elements if g.chi in u))
        if not is_abelian(n_elems):
            continue
        t = _complement_search(s, set(n_elems))
        if t is not None:
            return (generate_subgroup(_minimal_generators(n_elems)), t)
    return None
