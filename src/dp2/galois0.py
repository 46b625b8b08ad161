"""The generic Galois group of order 128 and its action on the Picard lattice.

Elements are stored in radical coordinates (chi, e_s, e_k, e_m): chi in
(Z/8)* gives the action on zeta = e^{i pi/4} (zeta -> zeta^chi), e_s in Z/2
the sign on sqrt(A), and e_k, e_m in Z/4 the powers of i applied to the
fourth roots of B/A and C/A.  Composition twists the (e_k, e_m) part by
chi mod 4.  The five named generators act on the 56 exceptional curves by
`picard.generator_action`; all else is derived from that.  Each generator's
table is turned once into a permutation of the curve indices, an element's
permutation is composed from those on integers along its word, and
`matrix_of` reads its columns from the table of curve classes and checks
the matrix on -K and on all 56 curve classes, the latter with one product
of its packed columns with a table of the classes in 128-bit slots.

The subgroup machinery runs on integers.  An element has the index
32 * (chi // 2) + 16 * e_s + 4 * e_k + e_m, its position in the sorted
ALL_ELEMENTS (the identity is 0), and a subgroup is the 128-bit mask with
bit i set for each element index i it contains: a `Subgroup` holds its
mask and a generating set of it, checked once when it is made, and reads
its order, its elements and whether it maps onto Q off the mask.  Each
table is built on first use, so a request pays only for those it reads.
`_mul()` is the product table, by arithmetic on the coordinates (row g is
the left multiplication x -> g x), and `_inverses()` reads the inverses
from it.  Every subgroup here, from `generate_subgroup` to the Kummer
constraints and the generating sets of the short resolutions, is closed
over that table by `_closure_mask`, the one subgroup-closure routine of
the package, which the H^1 backends of `cohomology` import and run on
each module's own index table.  Orbits read one byte table
(`_orbit_table`) that holds side by side the conjugations by the five
generators and the transpositions ab and bc, which generate the six
relabelings of (A, B, C), so one OR per nonzero byte of a mask gives its
seven images, and `_images` is the one orbit routine: under conjugation, or
under conjugation and the relabelings.  One layered loop
(`_layered_classes`) enumerates the subgroups up to conjugation for
`all_subgroup_classes`, and up to conjugation and relabeling for the
onto-Q classes of `scan`.  Only that loop and `abelianization`, both run
by `scan` alone, build all 128 conjugation permutations, and from them
the masks of square roots and of conjugators (`_extension_tables`) that
read its normaliser test off a generating set.

A subgroup's invariants combine, with its mask or its generators (which
the `Subgroup` guarantees generate it), tables built once per process:
s / [s, s], with [s, s] the normal closure of their commutators, is
counted through the masks of square roots; whether they commute; the
curve orbits, from the masks of the curve stabilisers; and the type of
H^1(s, Pic) with the rank of Pic^s, from one Smith form without
unimodular transforms of the lattice bases of the generators' g - 1
blocks, each basis cached per element and the result per mask.
`fixed_sublattice` reads a basis of Pic^s from the stacked (g - 1) rows.
GroupElement and Subgroup remain the public face.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import cached_property, lru_cache
from typing import NamedTuple

from .intlin import (AbelianGroupType, ColumnEchelon, IntMatrix,
                     smith_normal_form)
from .picard import (
    ANTICANONICAL,
    Axis,
    BASIS_LABELS,
    CurveLabel,
    all_labels,
    build_lattice,
    generator_action,
)


class _GroupElement(NamedTuple):
    chi: int
    e_s: int
    e_k: int
    e_m: int


class GroupElement(_GroupElement):
    __slots__ = ()

    def __new__(cls, chi: int, e_s: int, e_k: int, e_m: int):
        self = super().__new__(cls, chi, e_s, e_k, e_m)
        if chi not in (1, 3, 5, 7) or e_s not in (0, 1) \
                or not (0 <= e_k <= 3 and 0 <= e_m <= 3):
            raise ValueError(f"bad element {self!r}")
        return self

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
        return _orders()[_INDEX[self]]


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
        lab = generator_action(name, lab)
    return lab


_LABELS = all_labels()
_LATTICE = build_lattice()


def verify_action_homomorphism() -> None:
    """Exhaustive consistency check: act(g*h) = act(g) o act(h)."""
    for g in ALL_ELEMENTS:
        for name, h in GENERATORS.items():
            gh = g * h
            for lab in _LABELS:
                if act_on_curve(gh, lab) != act_on_curve(
                        g, generator_action(name, lab)):
                    raise AssertionError(f"action not a homomorphism at {g}, {name}")


_LABEL_INDEX = {lab: i for i, lab in enumerate(_LABELS)}
# class of each curve, in _LABELS order
_CLASSES = tuple(_LATTICE.cls(lab) for lab in _LABELS)


def _pack(v) -> int:
    """sum v_i 2^(16 i): linear in v, and injective on the vectors with
    every |v_i| < 2^15."""
    return sum(map(int.__lshift__, v, range(0, 128, 16)))


_PACKED = tuple(map(_pack, _CLASSES))
_PACKED_K = _pack(ANTICANONICAL)
_MATRIX_COLUMNS = [_LABEL_INDEX[lab]
                   for lab in BASIS_LABELS + [Axis("z", 7, -1)]]
# the one-product check of matrix_of: slot i of 128 bits holds curve i,
# offset by 2^126 so that every slot is nonnegative
_SLOTS = tuple(sum(c[j] << 128 * i for i, c in enumerate(_CLASSES))
               for j in range(8))
_SLOT_BIAS = sum(1 << 128 * i + 126 for i in range(56))
_SLOT_BYTES = tuple((p + (1 << 126)).to_bytes(16, "little") for p in _PACKED)


@lru_cache(maxsize=1)
def _generator_perms() -> dict[str, tuple[int, ...]]:
    """Each named generator on the 56 curves, as label indices."""
    return {name: tuple(_LABEL_INDEX[generator_action(name, lab)]
                        for lab in _LABELS) for name in GENERATORS}


@lru_cache(maxsize=None)
def _curve_indices(g: GroupElement) -> tuple[int, ...]:
    """g on the 56 curves: entry i is the index of g(_LABELS[i]), composed
    from the generator permutations along _word(g)."""
    perm, gens = range(56), _generator_perms()
    for name in reversed(_word(g)):
        p = gens[name]
        perm = [p[i] for i in perm]
    return tuple(perm)


@lru_cache(maxsize=None)
def matrix_of(g: GroupElement) -> IntMatrix:
    """8x8 matrix of g on Pic coordinates, verified on all 56 curves and
    on -K.  Each check M v = w compares packed vectors: M v packs to
    sum v_j pack(column j), by linearity, and the packing is injective
    while every coordinate of M v and of w is below 2^15 in absolute
    value.  Curve classes have coordinates of at most 3 and the columns
    of at most 9, so every coordinate here is at most 90.

    The 56 curve checks are one comparison.  With c_i the class of
    curve i and SLOT_j = sum_i c_i[j] 2^(128 i), the product
    sum_j pack(column j) SLOT_j is sum_i pack(M c_i) 2^(128 i).  Every
    |pack(M c_i)| and |pack(c_g(i))| is at most
    90 (1 + 2^16 + ... + 2^112) < 2^126, so adding 2^126 to each slot
    leaves it in [0, 2^127): the 128-bit chunks of the biased sum are
    exactly pack(M c_i) + 2^126, and it equals the chunks
    pack(c_g(i)) + 2^126 read side by side exactly when M c_i = c_g(i)
    for every i.  On a mismatch the per-curve sums name the curve."""
    perm = _curve_indices(g)
    cols = [_CLASSES[perm[i]] for i in _MATRIX_COLUMNS]
    # the eighth basis label has class v8 - v6 - v7, so correct its column
    cols[7] = tuple(map(sum, zip(*cols[5:])))
    packed = list(map(_pack, cols))
    if sum(map(int.__mul__, packed, _SLOTS)) + _SLOT_BIAS != int.from_bytes(
            b"".join(map(_SLOT_BYTES.__getitem__, perm)), "little"):
        bad = [lab for v, lab, i in zip(_CLASSES, _LABELS, perm)
               if sum(map(int.__mul__, v, packed)) != _PACKED[i]]
        raise AssertionError(f"induced matrix inconsistent for {g} at "
                             f"{bad[0] if bad else 'the slot table'}")
    if sum(map(int.__mul__, ANTICANONICAL, packed)) != _PACKED_K:
        raise AssertionError(f"matrix of {g} moves the anticanonical class")
    return IntMatrix(8, 8, tuple(itertools.chain.from_iterable(zip(*cols))))


@lru_cache(maxsize=None)
def pic_rows(g: GroupElement) -> tuple:
    """matrix_of(g) as a tuple of rows."""
    return tuple(map(tuple, matrix_of(g).to_rows()))


@lru_cache(maxsize=None)
def _minus_one_rows(g: GroupElement) -> tuple:
    """matrix_of(g) - I as a tuple of rows."""
    return tuple(tuple(x - (i == j) for j, x in enumerate(row))
                 for i, row in enumerate(pic_rows(g)))


@lru_cache(maxsize=None)
def _difference_basis(g: GroupElement) -> tuple:
    """A basis of the row lattice of matrix_of(g) - I, from one column
    echelon of its transpose: empty for the identity."""
    return tuple(map(tuple, ColumnEchelon(list(zip(*_minus_one_rows(g))),
                                          transform=False).image_basis()))


def _value_masks(values) -> list[tuple[int, int]]:
    """(v, mask of the element indices i with values[i] == v), ascending
    in v."""
    masks: dict[int, int] = {}
    for i, v in enumerate(values):
        masks[v] = masks.get(v, 0) | 1 << i
    return sorted(masks.items())


@lru_cache(maxsize=1)
def _traces() -> list[tuple[int, int]]:
    """`_value_masks` of the trace of matrix_of(g) on Pic."""
    return _value_masks(sum(m[i][i] for i in range(8))
                        for m in map(pic_rows, ALL_ELEMENTS))


class Subgroup:
    """A subgroup of G0: its mask and a generating set, the generators it
    was built from or minimal ones when none are given.  Construction
    checks that the generators generate the mask, and refuses a mask that
    is not a subgroup; `generators` is read-only, so every invariant read
    from it holds for the mask.  Its order, its elements (sorted) and
    whether it maps onto Q = G0/H are read off the mask."""

    def __init__(self, mask: int, generators=None):
        if generators is None:
            generators = _minimal_generators(mask)
        else:
            generators = tuple(generators)
            gens = [_INDEX[g] for g in generators]
            if _closure_mask(_mul(), gens, 0) != mask:
                raise AssertionError("generators do not generate the subgroup")
        self._mask, self._generators = mask, generators

    def mask(self) -> int:
        return self._mask

    @property
    def generators(self) -> tuple[GroupElement, ...]:
        return self._generators

    @property
    def order(self) -> int:
        return self._mask.bit_count()

    @property
    def onto_q(self) -> bool:
        return all(self._mask & coset for coset in _CHI_COSETS)

    @cached_property
    def elements(self) -> tuple[GroupElement, ...]:
        return tuple(ALL_ELEMENTS[i] for i in _members(self._mask))

    def __contains__(self, g: GroupElement) -> bool:
        return bool(self._mask >> _INDEX[g] & 1)


def _members(mask: int) -> list[int]:
    """Indices of the set bits of a subgroup mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _apply_perm(mask: int, perm) -> int:
    """The image of a mask under an index permutation; with a row of the
    product table, the left coset x.mask."""
    out = 0
    for i in _members(mask):
        out |= 1 << perm[i]
    return out


def _closure_mask(mul, gens, e: int) -> int:
    """Mask of the subgroup generated by the indices `gens`, for the
    product table `mul` with identity e."""
    seen, found = bytearray(len(mul)), [e]
    seen[e] = 1
    for x in found:  # grows by each new product
        row = mul[x]
        for g in gens:
            nxt = row[g]
            if not seen[nxt]:
                seen[nxt] = 1
                found.append(nxt)
    return sum(1 << x for x in found)


# the four cosets of H in G0 (one per value of chi), as masks
_CHI_COSETS = tuple(((1 << 32) - 1) << (32 * c) for c in range(4))


def generate_subgroup(gens) -> Subgroup:
    gens = tuple(gens)
    return Subgroup(_closure_mask(_mul(), [_INDEX[g] for g in gens], 0),
                    gens)


# two transpositions of the roles of A, B, C, as automorphisms of G0;
# they generate the six relabelings
_PHI_AB = lambda g: GroupElement(g.chi, (g.e_s + g.e_k) % 2,
                                 (-g.e_k) % 4, (g.e_m - g.e_k) % 4)
_PHI_BC = lambda g: GroupElement(g.chi, g.e_s, g.e_m, g.e_k)


# --- subgroup enumeration ------------------------------------------------

@lru_cache(maxsize=1)
def _mul() -> list[list[int]]:
    """Product table on element indices: row g is the left multiplication
    x -> g x.  By the composition law, chi and e_s of g x fix its block
    of 16 indices, and its (e_k, e_m) part depends only on that of g,
    that of x and the twist chi mod 4 of g.  So row g is one twisted
    (e_k, e_m) row, offset by each of the eight block bases in turn."""
    twisted = {tw: [[(k1 + tw * k2) % 4 * 4 + (m1 + tw * m2) % 4
                     for k2 in range(4) for m2 in range(4)]
                    for k1 in range(4) for m1 in range(4)]
               for tw in (1, 3)}
    chis = (1, 3, 5, 7)
    return [[base + v
             for base in [c1 * c2 % 8 // 2 * 32 + (s1 ^ s2) * 16
                          for c2 in chis for s2 in (0, 1)]
             for v in twisted[c1 % 4][km]]
            for c1 in chis for s1 in (0, 1) for km in range(16)]


@lru_cache(maxsize=1)
def _inverses() -> tuple[int, ...]:
    """Index of the inverse of every element, in index order."""
    return tuple(row.index(0) for row in _mul())


def _conjugation(g: int) -> list[int]:
    """x -> g x g^-1 on element indices."""
    mul, gi = _mul(), _inverses()[g]
    return [mul[y][gi] for y in mul[g]]


@lru_cache(maxsize=1)
def _extension_tables():
    """roots[h], the mask of the i with i^2 = h, and into[g][h], the mask
    of the i with i g i^-1 = h."""
    mul = _mul()
    roots = [0] * 128
    into = [[0] * 128 for _ in range(128)]
    for i in range(128):
        bit = 1 << i
        roots[mul[i][i]] |= bit
        for g, h in enumerate(_conjugation(i)):
            into[g][h] |= bit
    return roots, into


@lru_cache(maxsize=1)
def _orders() -> tuple[int, ...]:
    """Order of every element, in index order: the size of <g>."""
    mul = _mul()
    return tuple(_closure_mask(mul, [g], 0).bit_count() for g in range(128))


@lru_cache(maxsize=1)
def _order_masks() -> list[tuple[int, int]]:
    """`_value_masks` of the element orders."""
    return _value_masks(_orders())


def __getattr__(name: str):
    """G0, the whole group, built on first use: no subcommand reads it,
    and building it at import would run _mul() in every process that
    imports galois0."""
    if name == "G0":
        globals()["G0"] = g0 = generate_subgroup(GENERATORS.values())
        return g0
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@lru_cache(maxsize=1)
def _orbit_table() -> list[int]:
    """One byte table of seven index permutations side by side: the
    conjugations by the five generators, then the ab and bc relabelings,
    the two transpositions generating S3.  Permutation t moves bit i to
    bit 128 t + perm_t[i], and entry 256 k + v is the OR of those moves
    over the set bits i of v << 8k.  Each byte's 256 entries double once
    per bit: those with bit i set are those without it, ORed with the
    moves of i."""
    perms = [_conjugation(_INDEX[g]) for g in GENERATORS.values()]
    perms += [[_INDEX[phi(x)] for x in ALL_ELEMENTS]
              for phi in (_PHI_AB, _PHI_BC)]
    table = []
    for k in range(0, 128, 8):
        row = [0]
        for i in range(k, k + 8):
            bit = sum(1 << 128 * t + p[i] for t, p in enumerate(perms))
            row += [x | bit for x in row]
        table += row
    return table


_FULL = (1 << 128) - 1
_CONJ, _AUT = slice(5), slice(7)


def _packed_images(mask: int) -> int:
    """The images of a mask under the seven permutations of
    `_orbit_table`, side by side as in the table, from one OR per
    nonzero byte of the mask."""
    table, packed, k = _orbit_table(), 0, 0
    for b in mask.to_bytes(16, "little"):
        if b:
            packed |= table[k | b]
        k += 256
    return packed


def _images(mask: int, which: slice) -> set[int]:
    """The images of the mask under the group generated by the
    permutations `which` of `_orbit_table`: `_CONJ` gives the conjugates
    (the five generators generate G0), `_AUT` the images under
    conjugation and the relabelings.  The one orbit routine."""
    shifts = range(0, 896, 128)[which]
    found, frontier = {mask}, [mask]
    while frontier:
        packed = _packed_images(frontier.pop())
        for s in shifts:
            img = packed >> s & _FULL
            if img not in found:
                found.add(img)
                frontier.append(img)
    return found


def _minimal_generators(mask: int) -> tuple[GroupElement, ...]:
    """Generators of the subgroup mask, taken greedily by descending
    order, then by index.  The closure of those taken is the mask exactly
    when the mask is a subgroup, and otherwise this raises."""
    mul = _mul()
    chosen: list[int] = []
    have = 1
    for i in (i for _, m in reversed(_order_masks())
              for i in _members(mask & m)):
        if not have >> i & 1:
            chosen.append(i)
            have = _closure_mask(mul, chosen, 0)
            if have == mask:
                break
    if have != mask:
        raise AssertionError(f"mask {mask:#x} is not a subgroup")
    return tuple(ALL_ELEMENTS[i] for i in chosen)


def _layered_classes(which: slice) -> tuple[int, ...]:
    """The least masks of the subgroups of G0 up to the group A of
    automorphisms of G0 that the permutations `which` of `_orbit_table`
    generate: conjugation alone, or conjugation and the relabelings.
    The least image of each orbit is read once from `_images` and kept
    for every member, for this call only.

    Every subgroup of a 2-group of order 2^{n+1} is generated by an
    index-2 (hence normal) subgroup together with one extra element, so a
    layered extension of representatives of the A-classes is exhaustive.

    Each new class is carried as the subgroup actually built, with the
    generators of its parent and the one extra element, which is an image
    a(M) of the least mask M under some a in A, not M itself.  That finds
    the same classes: i normalises a(M) with i^2 in it exactly when
    a^-1(i) normalises M with its square in M, and then
    <a(M), i> = a(<M, a^-1(i)>).  So the extensions of the image are the
    images of the extensions of M, and their least masks are the same.

    The generators make the normaliser test a few ORs: conjugation by i
    is an automorphism, so i normalises a subgroup once it maps each
    generator g into it, that is once i lies in into[g][h] for a member h.
    """
    mul = _mul()
    roots, into = _extension_tables()
    trivial = 1 << _INDEX[IDENTITY]
    layer, seen, canon = [(trivial, ())], {trivial}, {}
    while layer:
        nxt = []
        for mask, gens in layer:
            members = _members(mask)
            cands = 0  # the i with i^2 in mask that normalise it
            for h in members:
                cands |= roots[h]
            for g in gens:
                row, into_mask = into[g], 0
                for h in members:
                    into_mask |= row[h]
                cands &= into_mask
            cands &= ~mask
            while cands:
                # <mask, i> is the union of mask and its coset i.mask;
                # every element of that coset gives the same extension
                i = (cands & -cands).bit_length() - 1
                row, new = mul[i], mask
                for h in members:
                    new |= 1 << row[h]
                cands &= ~new
                least = canon.get(new)
                if least is None:
                    orbit = _images(new, which)
                    least = min(orbit)
                    canon.update(dict.fromkeys(orbit, least))
                if least not in seen:
                    seen.add(least)
                    nxt.append((new, gens + (i,)))
        layer = nxt
    return tuple(sorted(seen))


@lru_cache(maxsize=1)
def all_subgroup_classes() -> tuple[int, ...]:
    """Canonical masks of all subgroups of G0 up to G0-conjugacy, by
    `_layered_classes`."""
    return _layered_classes(_CONJ)


@lru_cache(maxsize=1)
def enumerate_subgroups_onto_Q() -> tuple[Subgroup, ...]:
    """Subgroups surjecting onto Q = G0/H, up to conjugacy and the S3
    relabeling of the (A, B, C) roles, in deterministic order.

    The relabelings are automorphisms of G0 that keep chi, so conjugation
    and the relabelings generate a group of automorphisms that keeps the
    property of mapping onto Q, and `_layered_classes` enumerates its
    classes of subgroups in one pass.  The least mask of each class is
    the least image of any of its members under conjugation and the
    relabelings."""
    onto = [Subgroup(mask) for mask in _layered_classes(_AUT)
            if all(mask & coset for coset in _CHI_COSETS)]
    return tuple(sorted(onto, key=lambda s: (s.order, s.mask())))


# --- invariants ----------------------------------------------------------

def _abelian_type_from_counts(counts) -> tuple[int, ...]:
    """Invariant factors of a finite abelian 2-group A from counts[j],
    the number of x in A with x^(2^j) = 1, for j = 0, 1, ... up to the
    exponent of A or beyond.  These number 2^(r_1 + ... + r_j), where
    r_j counts the cyclic factors of exponent at least j, so the
    exponents form the partition conjugate to (r_1, r_2, ...)."""
    ranks = [(b // a).bit_length() - 1 for a, b in zip(counts, counts[1:])]
    return tuple(2 ** sum(r > i for r in ranks)
                 for i in reversed(range(ranks[0] if ranks else 0)))


def abelianization(s: Subgroup) -> tuple[int, ...]:
    """Invariant factors (ascending) of s / [s, s].  [s, s] is the normal
    closure in s of the commutators of the generators of s: s modulo that
    closure is generated by commuting images, so abelian.  The x in the
    quotient with x^(2^j) = 1 are the cosets of the g in s with g^(2^j)
    in [s, s], and the g in G0 with g^(2^(j+1)) in [s, s] are the square
    roots of those with g^(2^j) in it, read from the square-root masks of
    `_extension_tables`."""
    mul, inv = _mul(), _inverses()
    gens = [_INDEX[g] for g in s.generators]
    normal = list({mul[mul[inv[g]][inv[h]]][mul[g][h]]
                   for g in gens for h in gens})
    derived = _closure_mask(mul, normal, 0)
    for x in normal:  # grows by the conjugates that fall outside
        for g in gens:
            y = mul[mul[g][x]][inv[g]]
            if not derived >> y & 1:
                normal.append(y)
                derived = _closure_mask(mul, normal, 0)
    roots, size = _extension_tables()[0], derived.bit_count()
    rooted, counts = derived, [1]
    while counts[-1] * size < s.order:
        grown = 0
        for h in _members(rooted):
            grown |= roots[h]
        rooted = grown
        counts.append((s.mask() & rooted).bit_count() // size)
    return _abelian_type_from_counts(counts)


def _pic_differences(s: Subgroup) -> list[tuple[int, ...]]:
    """D = [g_1 - 1; ...; g_k - 1], the stacked 8k x 8 matrix of the
    (matrix_of(g) - I) over the generators of s (the identity for the
    trivial group)."""
    return [row for g in s.generators or (IDENTITY,)
            for row in _minus_one_rows(g)]


def fixed_sublattice(s: Subgroup):
    """Kernel basis of `_pic_differences(s)`: M^s."""
    return ColumnEchelon(_pic_differences(s)).kernel()


#: h1_type and the rank of Pic^s, per mask, from `_h1_cokernel`
_H1_BY_MASK: dict[int, tuple[AbelianGroupType, int]] = {}


def _h1_and_fixed_rank(s: Subgroup) -> tuple[AbelianGroupType, int]:
    """h1_type(s) and the rank of Pic^s, from one Smith form per mask:
    any generating set of s gives the same H^1 and Pic^s."""
    got = _H1_BY_MASK.get(s.mask())
    if got is None:
        got = _H1_BY_MASK[s.mask()] = _h1_cokernel(s)
    return got


def fixed_rank(s: Subgroup) -> int:
    """len(fixed_sublattice(s)), read from the Smith form `h1_type`
    builds."""
    return _h1_and_fixed_rank(s)[1]


def h1_type(s: Subgroup) -> AbelianGroupType:
    """The type of H^1(s, Pic) for a Galois subgroup s, computed once per
    element set by `_h1_cokernel`; no presentation, no representatives.

    Let G be generated by g_1, ..., g_k and act on the lattice M = Z^d,
    and let D = [g_1 - 1; ...; g_k - 1] be the stacked kd x d matrix.
    Then H^1(G, M) is the torsion of M^k / D.M, so its type is read off
    the Smith divisors > 1 of D.  Proof, with cocycles as crossed
    homomorphisms, c(gh) = c(g) + g.c(h) (Brown, Cohomology of Groups,
    GTM 87):

    - Z^1 -> M^k, c -> (c(g_i))_i, is injective.  G is finite, so every
      element is a positive word in the g_i (g^-1 = g^(ord g - 1)), and
      c(g_i1 ... g_im) = sum_j g_i1 ... g_i(j-1).c(g_ij) is fixed by the
      values on the generators.
    - Its image is saturated.  If every c(g_i) lies in n.M, the same sum
      puts every c(g) in n.M, so c/n is M-valued, and it satisfies the
      cocycle law because M is torsion-free: (c(g_i)/n)_i is in the image.
    - B^1 maps onto D.M: the coboundary of m is g -> g.m - m.
    - H^1(G, M (x) Q) = 0, as |G| is invertible in Q, so Z^1 and B^1
      have the same rank.  A saturated sublattice of M^k containing B^1
      with the same rank is the saturation of B^1.

    Hence H^1 = Z^1/B^1 = sat(D.M)/D.M = tors(M^k / D.M), with no
    relators and no basis of Z^1."""
    return _h1_and_fixed_rank(s)[0]


def _h1_cokernel(s: Subgroup) -> tuple[AbelianGroupType, int]:
    """tors(M^k / D.M) for D = `_pic_differences(s)`, by one Smith form
    without transforms.  The nonzero Smith divisors of a matrix with 8
    columns are the invariant factors of Z^8 modulo its row lattice, so
    they and the rank depend only on that lattice.  The row lattice of D
    is the sum of those of its blocks g_i - 1, so stacking a basis of
    each, `_difference_basis(g_i)`, gives the divisors and the rank of
    D; the vectors enter the echelon as its columns, the rows of D^T,
    which shares the divisors of D.  The generators of s generate it, as
    every `Subgroup` guarantees, and a runtime check asserts that |s|
    kills H^1.  The kernel of D is Pic^s, so its rank, 8 less the number
    of nonzero divisors, comes with the type; the trivial group stacks
    no vector, and has H^1 = 0 and rank 8."""
    stacked = [v for g in s.generators for v in _difference_basis(g)]
    nonzero = smith_normal_form(list(zip(*stacked)),
                                transforms=False).divisors
    divisors = tuple(q for q in nonzero if q > 1)
    if any(s.order % q for q in divisors):
        raise AssertionError(
            f"H^1 divisors {divisors} do not divide |G| = {s.order}")
    return AbelianGroupType(divisors), 8 - len(nonzero)


@lru_cache(maxsize=1)
def _stabilizers() -> tuple[tuple[int, int], ...]:
    """(mask of the elements that fix a curve, how many of the 56 curves
    have that stabiliser), one pair per distinct stabiliser."""
    perms = list(map(_curve_indices, ALL_ELEMENTS))
    return tuple(Counter(sum(1 << i for i, p in enumerate(perms) if p[x] == x)
                         for x in range(56)).items())


def curve_orbit_lengths(s: Subgroup) -> tuple[int, ...]:
    """Lengths (ascending) of the orbits of s on the 56 curves.  The orbit
    of curve x has |s| / |s & Stab(x)| curves, and an orbit of length L
    gives that length to each of its L curves."""
    mask, order, per_curve = s.mask(), s.order, Counter()
    for stab, curves in _stabilizers():
        per_curve[order // (mask & stab).bit_count()] += curves
    return tuple(n for n in sorted(per_curve)
                 for _ in range(per_curve[n] // n))


def fingerprint(s: Subgroup) -> tuple:
    """Conjugation-invariant summary used to group subgroups that could be
    identified by a lattice automorphism."""
    h1, rank = _h1_and_fixed_rank(s)
    mask = s.mask()
    return (
        s.order,
        abelianization(s),
        max(o for o, m in _order_masks() if mask & m),
        curve_orbit_lengths(s),
        rank,
        sum(((t,) * (mask & m).bit_count() for t, m in _traces()), ()),
        h1.divisors,
    )


def is_abelian(s: Subgroup) -> bool:
    """Whether s is abelian: generators that pairwise commute generate an
    abelian group."""
    mul = _mul()
    gens = [_INDEX[g] for g in s.generators]
    return all(mul[g][h] == mul[h][g] for g in gens for h in gens)


def _abelian_generators(s: Subgroup):
    """Elements realizing a direct-product decomposition: the product of
    their orders equals |s| and together they generate s."""
    orders, mul = _orders(), _mul()
    els = sorted(_members(s.mask()), key=lambda i: -orders[i])
    for r in range(1, 4):
        for gens in itertools.combinations(els, r):
            if math.prod(orders[i] for i in gens) == s.order \
                    and _closure_mask(mul, gens, 0) == s.mask():
                return tuple(ALL_ELEMENTS[i] for i in gens)
    return None


def _dihedral_generators(s: Subgroup):
    """Two involutions generating s with their product of order |s|/2."""
    orders, mul = _orders(), _mul()
    invs = [i for i in _members(s.mask()) if orders[i] == 2]
    for a, b in itertools.combinations(invs, 2):
        if orders[mul[a][b]] * 2 == s.order \
                and _closure_mask(mul, (a, b), 0) == s.mask():
            return ALL_ELEMENTS[a], ALL_ELEMENTS[b]
    return None
