from fractions import Fraction

import numpy as np
import pytest

from dp2.local.quartic import (
    FIRST_ROW,
    RESIDUE_TABLE_MOD32,
    RING_ONE,
    WITNESS_FOURTH_ROOT,
    WITNESS_ROW_GENERATOR,
    _components,
    conjugate_ratio_mod32,
    ex75_17adic_profile,
    ex75_17adic_values,
    ex75_2adic_profile,
    ex75_real_profile,
    mod32_membership,
    norm_g,
    norm_gh,
    norm_image_check,
    quartic_invariant,
    quartic_residues,
    ring_g,
    ring_gh,
    ring_h,
    ring_mul,
)

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
    assert count == 6291456
    assert attained == frozenset(RESIDUE_TABLE_MOD32)


def _assert_norms_agree(hw, xz, yy, depth):
    prec = 2 ** (depth - 1)
    for nr, ni, dr, di in _components(hw, xz, yy, prec - 1):
        diff = (nr * nr + ni * ni) - (dr * dr + di * di)
        assert not (diff & (2 * prec - 1)).any()


def test_numerator_norm_equals_denominator_norm():
    # _chart_membership takes the valuation of |n|^2 to be that of
    # |d|^2; both component maps keep |n|^2 = |d|^2 mod 2 prec.  The
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


def test_local_profiles():
    pr17 = ex75_17adic_profile()
    assert pr17.invariants == frozenset({(Fraction(1, 2),)})
    assert pr17.exact
    pr2 = ex75_2adic_profile()
    assert pr2.invariants == frozenset({(Fraction(0),)})
    assert pr2.exact
    prr = ex75_real_profile()
    assert prr.invariants == frozenset({(Fraction(0),)})
