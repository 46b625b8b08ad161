from fractions import Fraction

import pytest

from dp2.local.profiles import (
    LocalProfile,
    render_place,
    verdict,
)

ZERO = Fraction(0)
HALF = Fraction(1, 2)


def _profile(place, invariants, undetermined=0, method="exact-enumeration"):
    return LocalProfile(place=place, modulus=None,
                        invariants=frozenset(invariants),
                        undetermined=undetermined, method=method)


def test_render_place():
    assert render_place("R") == "R"
    assert render_place(2) == "Q_2"
    assert render_place(17) == "Q_17"


def test_exact_property():
    assert _profile(2, {(ZERO,)}).exact
    assert not _profile(2, {(ZERO,)}, undetermined=3).exact
    assert not _profile("R", {(ZERO,)}, method="sampling").exact
    assert _profile(17, {(HALF,)}, method="analytic").exact


def test_verdict_obstructed_when_no_choice_sums_to_zero():
    v = verdict([_profile("R", {(ZERO,)}, method="sampling"),
                 _profile(2, {(HALF,)}),
                 _profile(3, {(ZERO,)})])
    assert v.conclusion == "obstructed"


def test_verdict_two_halves_cancel():
    v = verdict([_profile(2, {(HALF,)}), _profile(3, {(HALF,)})])
    assert v.conclusion == "not_obstructed_by_class"


def test_verdict_order_four_invariants():
    quarter = Fraction(1, 4)
    v = verdict([_profile(2, {(quarter,)}), _profile(3, {(ZERO,)})])
    assert v.conclusion == "obstructed"
    v = verdict([_profile(2, {(quarter,)}),
                 _profile(3, {(3 * quarter,)})])
    assert v.conclusion == "not_obstructed_by_class"


def test_verdict_mixed_attained_set_is_not_obstructed():
    v = verdict([_profile(2, {(ZERO,), (HALF,)}), _profile(3, {(ZERO,)})])
    assert v.conclusion == "not_obstructed_by_class"


def test_verdict_vector_classes():
    # two classes: (1/2, 0) at one place, (1/2, 0) at another cancels
    v = verdict([_profile(2, {(HALF, ZERO)}), _profile(3, {(HALF, ZERO)})])
    assert v.conclusion == "not_obstructed_by_class"
    v = verdict([_profile(2, {(HALF, ZERO)}), _profile(3, {(ZERO, HALF)})])
    assert v.conclusion == "obstructed"


def test_verdict_inconclusive_cases():
    assert verdict([_profile(2, set())]).conclusion == "inconclusive"
    undecided = _profile(2, {(ZERO,)}, undetermined=5)
    assert verdict([undecided]).conclusion == "inconclusive"
    # undetermined real sampling does not block a finite-place verdict
    v = verdict([_profile("R", {(ZERO,)}, method="sampling"),
                 _profile(2, {(HALF,)})])
    assert v.conclusion == "obstructed"


def test_verdict_rejects_mismatched_class_vectors():
    with pytest.raises(ValueError):
        verdict([_profile(2, {(ZERO,)}), _profile(3, {(ZERO, ZERO)})])
