"""Geometric Picard lattice of the surface w^2 = A x^4 + B y^4 + C z^4.

The 56 exceptional curves, the published action of the five named
generators on them, their classes in the basis v_1..v_8, and the
intersection form diag(-1 x7, +1).  Labels store roots of unity as
exponents only: delta = zeta^d (d odd mod 8) for the 24 "axis" curves,
and (alpha, beta, gamma) in mu_4^3 / mu_2 as exponents mod 4 for the 32
"triple" curves, with the simultaneous-shift-by-2 ambiguity resolved by
forcing the alpha-exponent into {0, 1}."""

from __future__ import annotations

from typing import NamedTuple, Union

Vec = tuple[int, ...]

GRAM = (-1, -1, -1, -1, -1, -1, -1, 1)
ANTICANONICAL: Vec = (-1, -1, -1, -1, -1, -1, -1, 3)


class _Axis(NamedTuple):
    axis: str
    d: int
    sign: int


class Axis(_Axis):
    """Curve above a line delta*?x + ?y = 0: axis names the quadratic sheet.

    ``axis`` is the coordinate whose square appears in w = +- (root)^2 * axis^2;
    ``d`` is the exponent of delta = zeta^d (odd mod 8); ``sign`` is +-1.
    """

    __slots__ = ()

    def __new__(cls, axis: str, d: int, sign: int):
        self = super().__new__(cls, axis, d, sign)
        if axis not in ("x", "y", "z") or d % 2 == 0 or d % 8 != d \
                or sign not in (1, -1):
            raise ValueError(f"bad axis label {self!r}")
        return self


class _Triple(NamedTuple):
    a: int
    b: int
    c: int


class Triple(_Triple):
    """Curve above alpha*ax + beta*by + gamma*cz = 0, exponents mod 4.

    Canonical representative of the mu_2-quotient: a in {0, 1}.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int):
        self = super().__new__(cls, a, b, c)
        if not (0 <= a <= 1 and 0 <= b <= 3 and 0 <= c <= 3):
            raise ValueError(f"bad triple label {self!r}")
        return self


CurveLabel = Union[Axis, Triple]


def triple(a: int, b: int, c: int) -> Triple:
    """Canonicalize exponents mod 4 modulo the simultaneous shift by 2."""
    a, b, c = a % 4, b % 4, c % 4
    if a >= 2:
        a, b, c = (a + 2) % 4, (b + 2) % 4, (c + 2) % 4
    return Triple(a, b, c)


def axis(ax: str, d: int, sign: int) -> Axis:
    return Axis(ax, d % 8, sign)


def all_labels() -> list[CurveLabel]:
    labels: list[CurveLabel] = [Axis(ax, d, s)
                                for ax in ("x", "y", "z")
                                for d in (1, 3, 5, 7)
                                for s in (1, -1)]
    labels += [Triple(a, b, c) for a in (0, 1) for b in range(4) for c in range(4)]
    return labels


def partner_label(label: CurveLabel) -> CurveLabel:
    """The other curve above the same bitangent."""
    if isinstance(label, Axis):
        return Axis(label.axis, label.d, -label.sign)
    return triple(label.a + 1, label.b + 1, label.c + 1)


def generator_action(name: str, lab: CurveLabel) -> CurveLabel:
    """Action of one named generator, straight from the published table."""
    if isinstance(lab, Axis):
        ax, d, s = lab
        if name == "sigma":
            return axis(ax, 7 * d, s)
        if name == "tau":
            return axis(ax, 3 * d, s)
        # the involutions shift delta by a power of i on the other two
        # axes, and flip the sign on their own axis
        sh = {"iota_a": {"z": 2, "y": -2}, "iota_b": {"z": -2, "x": 2},
              "iota_c": {"x": -2, "y": 2}}[name].get(ax)
        return axis(ax, d, -s) if sh is None else axis(ax, d + sh, s)
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


def intersection(c1: Vec, c2: Vec) -> int:
    return sum(g * a * b for g, a, b in zip(GRAM, c1, c2))


def _e(i: int, coef: int = 1) -> Vec:
    v = [0] * 8
    v[i - 1] = coef
    return tuple(v)


def _add(*vs: Vec) -> Vec:
    return tuple(sum(t) for t in zip(*vs))


V8 = (0, 0, 0, 0, 0, 0, 0, 1)

# basis curves of Prop-style choice: v_1..v_7 are these labels, and
# v_8 = [L_{z,z^7,-}] + [L_{z,z^3,-}] + [L_{i,i,i}]
BASIS_LABELS: list[CurveLabel] = [
    Axis("x", 1, 1), Axis("x", 3, -1),
    Axis("y", 1, 1), Axis("y", 3, -1),
    Axis("z", 1, 1), Axis("z", 3, -1),
    Triple(1, 1, 1),
]

# the twenty published class identities (label, coefficients of -v_i, -v_j, +v_8)
_TABLE1: list[tuple[CurveLabel, int, int]] = [
    (Axis("x", 5, 1), 1, 7), (Axis("x", 7, -1), 2, 7),
    (Axis("y", 5, 1), 3, 7), (Axis("y", 7, -1), 4, 7),
    (Axis("z", 5, 1), 5, 7),
    (Triple(0, 0, 1), 2, 3), (Triple(0, 0, 2), 5, 6), (Triple(0, 0, 3), 1, 4),
    (Triple(0, 1, 0), 1, 6), (Triple(0, 1, 3), 3, 5),
    (Triple(0, 2, 0), 3, 4), (Triple(0, 2, 2), 1, 2),
    (Triple(0, 3, 0), 2, 5), (Triple(0, 3, 1), 4, 6),
    (Triple(1, 0, 0), 4, 5), (Triple(1, 0, 3), 2, 6),
    (Triple(1, 2, 2), 3, 6), (Triple(1, 2, 3), 1, 5),
    (Triple(1, 3, 0), 1, 3), (Triple(1, 3, 2), 2, 4),
]


def table1_identities() -> dict[CurveLabel, Vec]:
    return {lab: _add(_e(i, -1), _e(j, -1), V8) for lab, i, j in _TABLE1}


class PicLattice(NamedTuple):
    gram: Vec
    anticanonical: Vec
    class_table: dict  # CurveLabel -> Vec, all 56

    def cls(self, label: CurveLabel) -> Vec:
        return self.class_table[label]


def build_lattice() -> PicLattice:
    """Assemble all 56 curve classes from the basis, the published table,
    and the partner rule partner(L) = -K - [L]."""
    table: dict[CurveLabel, Vec] = {}

    def put(label, vec):
        if label in table:
            if table[label] != vec:
                raise AssertionError(f"inconsistent class for {label}: "
                                     f"{table[label]} vs {vec}")
        else:
            table[label] = vec

    for i, lab in enumerate(BASIS_LABELS, start=1):
        put(lab, _e(i))
    put(Axis("z", 7, -1), _add(_e(6, -1), _e(7, -1), V8))
    for lab, vec in table1_identities().items():
        put(lab, vec)

    for lab in list(table):
        pl = partner_label(lab)
        pv = tuple(k - v for k, v in zip(ANTICANONICAL, table[lab]))
        put(pl, pv)

    if len(table) != 56:
        raise AssertionError(f"expected 56 classes, got {len(table)}")
    for lab, vec in table.items():
        if intersection(vec, vec) != -1 or intersection(vec, ANTICANONICAL) != 1:
            raise AssertionError(f"class invariants fail for {lab}: {vec}")
    return PicLattice(gram=GRAM, anticanonical=ANTICANONICAL, class_table=table)


def enumerate_roots() -> list[Vec]:
    """All lattice vectors with D^2 = -1 and D.(-K) = 1, by bounded search.

    With D = (n_1..n_8): sum n_i^2 (i<=7) = n_8^2 + 1 and
    sum n_i (i<=7) = 1 - 3 n_8.  Cauchy-Schwarz gives
    (1 - 3 n_8)^2 <= 7 (n_8^2 + 1), so n_8 in [0, 3] and |n_i| <= 4
    is a safe coordinate bound.
    """
    out = []
    for n8 in range(-4, 5):
        target_sq = n8 * n8 + 1
        target_sum = 1 - 3 * n8
        if target_sum * target_sum > 7 * target_sq:
            continue

        def rec(pos, rem_sq, rem_sum, acc):
            if pos == 7:
                if rem_sq == 0 and rem_sum == 0:
                    out.append(tuple(acc) + (n8,))
                return
            slots = 7 - pos
            for v in range(-4, 5):
                sq = v * v
                if sq > rem_sq:
                    continue
                # remaining sum must be achievable within remaining square budget
                rs = rem_sum - v
                if rs * rs > (slots - 1) * (rem_sq - sq):
                    continue
                acc.append(v)
                rec(pos + 1, rem_sq - sq, rs, acc)
                acc.pop()

        rec(0, target_sq, target_sum, [])
    return out


class LatticeReport(NamedTuple):
    ok: bool
    mismatches: list[str]


def verify_lattice(lat: PicLattice) -> LatticeReport:
    """Cross-check the class table against independent enumeration."""
    problems = []
    vals = list(lat.class_table.values())
    if len(lat.class_table) != 56:
        problems.append(f"class count {len(lat.class_table)} != 56")
    if len(set(vals)) != len(vals):
        problems.append("class table is not injective")
    for lab, vec in lat.class_table.items():
        if intersection(vec, vec) != -1:
            problems.append(f"{lab}: self-intersection {intersection(vec, vec)}")
        if intersection(vec, lat.anticanonical) != 1:
            problems.append(f"{lab}: degree {intersection(vec, lat.anticanonical)}")
        pv = lat.class_table[partner_label(lab)]
        if _add(vec, pv) != lat.anticanonical:
            problems.append(f"{lab}: partner classes do not sum to -K")
        elif intersection(vec, pv) != 2:
            problems.append(f"{lab}: partner intersection {intersection(vec, pv)}")
    roots = enumerate_roots()
    if len(roots) != 56:
        problems.append(f"root enumeration found {len(roots)} vectors")
    if set(roots) != set(vals):
        problems.append("enumerated roots differ from the class table")
    return LatticeReport(ok=not problems, mismatches=problems)
