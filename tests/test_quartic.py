from fractions import Fraction

import numpy as np
import pytest

from chart_oracle import (
    cocycle_values,
    components,
    eval_vec,
    lift_arrays,
    lift_shifts,
)
from chart_oracle import surface_terms as _surface_terms
from dp2.local import quartic
from dp2.local.padic import _chart_cells, _lifts, padic_point_classes
from dp2.local.quartic import (
    FIRST_ROW,
    RESIDUE_TABLE_MOD32,
    SURFACE75,
    WITNESS_FOURTH_ROOT,
    WITNESS_ROW_GENERATOR,
    _cocycle_values,
    _i_times,
    conjugate_ratio_mod32,
    ex75_17adic_profile,
    ex75_17adic_values,
    ex75_2adic_profile,
    ex75_real_profile,
    mod32_membership,
    norm_g,
    norm_image_check,
    quartic_invariant,
    quartic_residues,
    ring_g,
    ring_gh,
    ring_mul,
)


RING_ONE = ((1, 0), (0, 0), (0, 0), (0, 0))


def norm_gh(c):
    return ring_mul(c, ring_gh(c))


def ring_h(c):
    """The automorphism i -> -i, T -> iT."""
    return tuple(_i_times(r, -im, j) for j, (r, im) in enumerate(c))

T = ((0, 0), (1, 0), (0, 0), (0, 0))  # the fourth root of 17
I_ELT = ((0, 1), (0, 0), (0, 0), (0, 0))


def test_ring_arithmetic():
    assert ring_mul(RING_ONE, T) == T
    t2 = ring_mul(T, T)
    assert ring_mul(t2, t2) == ((17, 0), (0, 0), (0, 0), (0, 0))
    assert ring_mul(I_ELT, I_ELT) == ((-1, 0), (0, 0), (0, 0), (0, 0))


def test_automorphisms():
    assert ring_g(T) == ((0, 0), (0, 1), (0, 0), (0, 0))  # T -> iT
    assert ring_g(I_ELT) == I_ELT
    assert ring_h(I_ELT) == ((0, -1), (0, 0), (0, 0), (0, 0))
    assert ring_gh(T) == ((0, 0), (-1, 0), (0, 0), (0, 0))
    assert ring_gh(ring_gh(WITNESS_ROW_GENERATOR)) == WITNESS_ROW_GENERATOR


def test_norms_are_galois_invariant():
    for d in (WITNESS_ROW_GENERATOR, WITNESS_FOURTH_ROOT, T):
        ng = norm_g(d)
        assert ring_g(ng) == ng
        ngh = norm_gh(d)
        assert ring_gh(ngh) == ngh
    # N_g(T) = T * iT * i^2 T * i^3 T = i^6 * 17 = -17
    assert norm_g(T) == ((-17, 0), (0, 0), (0, 0), (0, 0))


def test_conjugate_ratio_exact():
    # (1+2i)/(1-2i) = (-3+4i)/5; inverse of 5 mod 32 is 13
    assert conjugate_ratio_mod32(1, 2) == (-39 % 32, 52 % 32)
    # even norm: (1+i)/(1-i) = i
    assert conjugate_ratio_mod32(1, 1) == (0, 1)
    assert conjugate_ratio_mod32(6, 0) == (1, 0)
    assert conjugate_ratio_mod32(0, 0) is None


def test_norm_image_check_covers_table():
    transcript, attained = norm_image_check()
    assert attained == frozenset(RESIDUE_TABLE_MOD32)
    assert set(FIRST_ROW) <= attained and (0, 1) in attained
    assert len(transcript) == 3


def test_mod32_membership():
    covered, attained, count = mod32_membership()
    assert covered
    # one class per point up to a unit rescaling: x, y and z are odd
    # at every 2-adic point, so each is counted in chart x alone
    assert count == 2097152
    assert attained == frozenset(RESIDUE_TABLE_MOD32)


def _assert_norms_agree(hw, xz, yy, depth):
    prec = 2 ** (depth - 1)
    for nr, ni, dr, di in components(hw, xz, yy, prec - 1):
        diff = (nr * nr + ni * ni) - (dr * dr + di * di)
        assert not (diff & (2 * prec - 1)).any()


def test_numerator_norm_equals_denominator_norm():
    # the oracle takes the valuation of |n|^2 to be that of |d|^2;
    # both component maps keep |n|^2 = |d|^2 mod 2 prec.  The
    # components depend only on hw, xz, yy mod prec, so the small
    # depths are exhaustive; depth 10 (the one used) is sampled
    for depth in range(1, 7):
        r = np.arange(2 ** (depth - 1), dtype=np.int64)
        grid = np.meshgrid(r, r, r, indexing="ij")
        _assert_norms_agree(*(g.ravel() for g in grid), depth)
    rng = np.random.default_rng(10)
    w, x, y, z = rng.integers(0, 2 ** 20, size=(4, 200000))
    _assert_norms_agree(w >> 1, 17 * x * z, y * y, 10)


def test_mod32_membership_fault_injection():
    # dropping one table entry must break coverage: the check is real
    covered, _, _ = mod32_membership(table=RESIDUE_TABLE_MOD32[:-1])
    assert not covered


def _chart_membership(coords, t, depth, in_tables):
    """mod32_membership on the given classes of one chart, without
    settling: per table (all covered, seen values as a 1024-entry mask
    of 32 re + im), and the class count, over the liftable classes
    among them."""
    w, x, y, z = (c[depth >= 2 * t + 1] for c in coords)
    if not ((w & 3 == 2).all() and (x & 1).all() and (y & 1).all()
            and (z & 1).all()):
        raise AssertionError("unexpected 2-adic parities")
    values = cocycle_values((w, x, y, z), depth, depth)
    out = []
    for in_table in in_tables:
        hit = np.zeros(len(w), dtype=bool)
        seen = np.zeros(32 * 32, dtype=bool)
        for codes, known, _ in values:
            hit |= known & in_table[codes]
            seen[codes[known]] = True
        out.append((bool(hit.all()), seen))
    return out, len(w)


def _exhaustive_membership(depth, tables):
    """The oracle: (covered, attained, count) per table over every
    liftable class mod 2^depth, from one enumeration, its cells
    expanded into their lifts a few thousand at a time."""
    in_tables = []
    for table in tables:
        in_table = np.zeros(32 * 32, dtype=bool)
        for a, b in table:
            in_table[32 * a + b] = True
        in_tables.append(in_table)
    results = [[True, np.zeros(32 * 32, dtype=bool)] for _ in tables]
    count = 0
    for unit, cells in _chart_cells(*SURFACE75, 2, depth, 2 ** 27):
        for i in range(0, len(cells), 4096):
            coords, t = lift_arrays(unit, cells[i:i + 4096], 2, depth)
            per_table, n = _chart_membership(coords, t, depth, in_tables)
            for res, (covered, seen) in zip(results, per_table):
                res[0] &= covered
                res[1] |= seen
            count += n
    if not count:
        raise AssertionError("no liftable 2-adic classes found")
    return [(covered, frozenset((int(c) >> 5, int(c) & 31)
                                for c in np.flatnonzero(seen)), count)
            for covered, seen in results]


@pytest.mark.parametrize("depth", [8, 9, 10, 11])
def test_settled_membership_matches_exhaustive(depth, monkeypatch):
    tables = (RESIDUE_TABLE_MOD32, RESIDUE_TABLE_MOD32[:-1])
    want = _exhaustive_membership(depth, tables)
    if depth == 10:
        assert want[0][0] and not want[1][0]
    levels = set()

    def traced(*args):
        *head, settle = args

        def record(unit, j, cells):
            levels.add(j)
            return settle(unit, j, cells)

        return _chart_cells(*head, record)

    monkeypatch.setattr(quartic, "_chart_cells", traced)
    assert [mod32_membership(depth, table) for table in tables] == want
    # every class is settled before the last level is expanded; at
    # depth 8 every cell of level 5 is ready, but a cell is dropped
    # only once 2e >= D, at level 6
    assert max(levels) == (6 if depth == 8 else depth - 1)


@pytest.mark.parametrize("unit", "xyz")
@pytest.mark.parametrize("e, t", [(3, 2), (7, 2), (4, 1), (2, 3)])
def test_lift_shifts_list_each_lift_once_in_runs_of_four(unit, e, t):
    # the heads at which the oracle reads the values
    j = e + t
    shift = lift_shifts(unit, e, t, j)
    cell = (0, 0, 0, 0, e, t)
    assert sorted(map(tuple, shift.T.tolist())) \
        == sorted(map(tuple, _lifts(unit, cell, 2, j)))
    # the 4 lifts of a run agree mod 2^(j-1), and in w
    runs = shift.reshape(4, -1, 4)
    assert ((runs % 2 ** (j - 1)) == (runs[:, :, :1] % 2 ** (j - 1))).all()
    assert (runs[0] == runs[0, :, :1]).all()


def _heads(unit, cells, j):
    """The heads of the liftable cells of level j, 2^(3t-2) per cell in
    cell order, as a (4, n) array; the cells share one e = j - t."""
    ((e, t),) = {cell[4:] for cell in cells}
    assert e + t == j
    reps = np.array([cell[:4] for cell in cells], dtype=np.int64).T
    shift = lift_shifts(unit, e, t, j)[:, ::4]
    return (reps[:, :, None] + shift[:, None]).reshape(4, -1)


def test_cocycle_values_match_the_oracle_per_head():
    # at every level 5 to 10 of the cover at depth 10, every cell of
    # which is in chart x with t = 2: the Python reader gives the
    # oracle's (code, known, void) at every head, and so at every lift,
    # as the code if known, -1 if void and -2 if neither; and every head
    # has the values of its cell's representative, which is where
    # mod32_membership reads them
    depth = 10
    levels = {}

    def keep_all(unit, j, cells):
        if j >= 5:
            assert unit == "x"
            levels.setdefault(j, []).extend(cells)
        return [True] * len(cells)

    for _ in _chart_cells(*SURFACE75, 2, depth, 2 ** 27, keep_all):
        pass
    assert sorted(levels) == list(range(5, depth + 1))
    for j, cells in levels.items():
        heads = _heads("x", cells, j)
        want = []
        for codes, known, void in cocycle_values(heads, j, depth):
            assert not (known & void).any()
            want.append(np.where(known, codes, np.where(void, -1, -2)))
        want = np.stack(want, axis=1)  # one row per head
        got = [-2 if v is None else v for head in zip(*heads.tolist())
               for v in _cocycle_values(j, depth, *head)]
        assert got == want.ravel().tolist(), j
        rep = np.array([[-2 if v is None else v
                         for v in _cocycle_values(j, depth, *cell[:4])]
                        for cell in cells])
        assert (rep.repeat(len(want) // len(cells), axis=0) == want).all()


def test_membership_drops_a_cell_only_when_every_lift_is_ready(monkeypatch):
    # each cell the settle hook drops is liftable with 2e >= D, and
    # both cocycle values of every one of its lifts are known or void,
    # read by the oracle and by the Python reader at every head
    depth = 10
    dropped = {}

    def traced(*args):
        *head, settle = args

        def record(unit, j, cells):
            undecided = list(settle(unit, j, cells))
            dropped.setdefault((unit, j), []).extend(
                cell for cell, keep in zip(cells, undecided) if not keep)
            return undecided

        return _chart_cells(*head, record)

    monkeypatch.setattr(quartic, "_chart_cells", traced)
    assert mod32_membership(depth)[0]
    assert sum(map(len, dropped.values())) > 0
    for (unit, j), cells in dropped.items():
        if not cells:
            continue
        assert all(j >= 2 * t + 1 and 2 * e >= depth
                   for *_, e, t in cells)
        coords, _ = lift_arrays(unit, cells, 2, j)
        for _, known, void in cocycle_values(coords, j, depth):
            assert (known | void).all()
        for head in zip(*_heads(unit, cells, j).tolist()):
            assert None not in _cocycle_values(j, depth, *head)


def _keys(coords, j):
    """One integer per class mod 2^j, from its four coordinates."""
    key = np.zeros(len(coords[0]), dtype=np.int64)
    for c in coords:
        key = key << j | c & ((1 << j) - 1)
    return key


def test_descendant_counts_per_block_and_per_class():
    # chart x of the surface, every level kept, counted at depth D = 10
    depth = 10
    levels = {}

    def keep_all(unit, j, cells):
        levels[j] = lift_arrays(unit, cells, 2, j)
        return [True] * len(cells)

    next(_chart_cells(*SURFACE75, 2, depth, 2 ** 27, keep_all))
    final = levels[depth][0]
    f = _surface_terms(*SURFACE75)
    for j in (7, 8, 9):
        coords, t = levels[j]
        assert (t == 2).all()
        # descendants of each level-j class at depth D
        cells, index = np.unique(_keys(coords, j), return_inverse=True)
        found, counts = np.unique(_keys(final, j), return_counts=True)
        assert np.isin(found, cells).all()
        children = np.zeros(len(cells), dtype=np.int64)
        children[np.searchsorted(cells, found)] = counts
        children = children[index]
        # per class: 2^(2(D-j)+m) if 2^(j+m) | f(c), else 0
        m = np.minimum(t, depth - j)
        fc = eval_vec(f, coords, 2 ** depth)
        lifts = fc & ((1 << (j + m)) - 1) == 0
        assert children.tolist() == np.where(
            lifts, 1 << (2 * (depth - j) + m), 0).tolist()
        # per block of the 2^(3t) classes over one level-(j-t) class:
        # |block| 4^(D-j) descendants, as depth <= 2(j - t)
        _, block, size = np.unique(_keys(coords, j - 2),
                                   return_inverse=True, return_counts=True)
        assert (size == 2 ** 6).all()
        assert (np.bincount(block, weights=children)
                == size * 4 ** (depth - j)).all()
        if j == 9:
            # so a uniform per-class weight 4^(D-j) would be unsound
            assert (children == 0).any()
            assert set(children.tolist()) == {0, 8}


def test_quartic_residues_mod_17():
    assert quartic_residues(17) == frozenset({1, 4, 13, 16})


def test_quartic_invariant_values():
    assert quartic_invariant(1, 17) == 0
    assert quartic_invariant(4, 17) == 0
    assert quartic_invariant(8, 17) == Fraction(1, 2)
    assert quartic_invariant(15, 17) == Fraction(1, 2)
    with pytest.raises(ValueError):
        quartic_invariant(17, 17)


def test_17adic_value_set():
    values, flags, transcript = ex75_17adic_values()
    assert values == frozenset({8, 15})
    assert not any(flags.values())  # both are quartic non-residues
    assert transcript


@pytest.mark.parametrize("k", [1, 2])
def test_17adic_value_set_on_the_rescaled_classes(k):
    # f1 at every liftable class of the overlapping unit charts, each
    # cover class rescaled into each of its unit charts; the value
    # depends on the class mod 17 only, so each residue is read once
    residues = {(c.w % 17, c.x % 17, c.y % 17, c.z % 17) for c in
                padic_point_classes(*SURFACE75, 17, k) if c.liftable}
    values = set()
    for w, x, y, z in residues:
        for r in (4, 13):  # the square roots of -1 mod 17
            num = 34 * x * z - w + r * (34 * x * z + 2 * y * y)
            den = -34 * x * z + w + r * (34 * x * z + 2 * y * y)
            values.add(num * pow(den, -1, 17) % 17)
    assert ex75_17adic_values(k)[0] == values


def test_local_profiles():
    pr17 = ex75_17adic_profile()
    assert pr17.invariants == frozenset({(Fraction(1, 2),)})
    assert pr17.exact
    pr2 = ex75_2adic_profile()
    assert pr2.invariants == frozenset({(Fraction(0),)})
    assert pr2.exact
    prr = ex75_real_profile()
    assert prr.invariants == frozenset({(Fraction(0),)})
