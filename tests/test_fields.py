"""The sympy field tower of the test oracle, and the oracle against the
standard-library build_ex74."""

import pytest
import sympy
from field_tower import FieldTower, build_ex74_sympy

from dp2.local import examples
from dp2.local.padic import compile_poly

S, T = sympy.symbols("s t")


def _reduce(tower, expr, extra_symbols=()):
    """Canonical form of expr modulo the tower relations, by the ring
    remainder that build_ex74 uses."""
    R, rels = tower.polyring(extra_symbols)
    return R(expr).rem(rels).as_expr()


def test_quadratic_tower_reduce():
    tower = FieldTower(gens=(S,), relations=(S ** 2 - 2,),
                       embeddings=(sympy.sqrt(2),))
    assert _reduce(tower, S ** 2) == 2
    assert _reduce(tower, S ** 3 - 2 * S) == 0
    assert _reduce(tower, (S - 1) * (S + 1) - 1) == 0


def test_tower_with_extra_symbols():
    x = sympy.Symbol("x")
    tower = FieldTower(gens=(S,), relations=(S ** 2 + 1,),
                       embeddings=(sympy.I,))
    expr = (x + S) * (x - S)
    assert _reduce(tower, expr, (x,)) == x ** 2 + 1


def test_two_floor_tower():
    tower = FieldTower(gens=(S, T),
                       relations=(S ** 2 - 2, T ** 2 - 3),
                       embeddings=(sympy.sqrt(2), sympy.sqrt(3)))
    assert _reduce(tower, (S * T) ** 2 - 6) == 0
    assert _reduce(tower, S ** 2 * T ** 3) == 6 * T


def test_tower_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        FieldTower(gens=(S, T), relations=(S ** 2 - 2,),
                   embeddings=(sympy.sqrt(2),))


def test_tower_rejects_degree_above_cap():
    with pytest.raises(ValueError):
        FieldTower(gens=(S,), relations=(S ** 17 - 2,),
                   embeddings=(2 ** sympy.Rational(1, 17),))


def test_tower_rejects_wrong_embedding():
    with pytest.raises(ValueError):
        FieldTower(gens=(S,), relations=(S ** 2 - 2,),
                   embeddings=(sympy.Integer(1),))


def test_tower_rejects_reducible_relation():
    # s^2 - 4 factors over Q; the embedding degree gives it away
    with pytest.raises(ValueError):
        FieldTower(gens=(S,), relations=(S ** 2 - 4,),
                   embeddings=(sympy.Integer(2),))


def test_build_ex74_matches_sympy_tower_route():
    examples.build_ex74.cache_clear()
    new, old = examples.build_ex74(), build_ex74_sympy()
    assert new.transcript == old.transcript
    assert len(new.classes) == len(old.classes) == 6
    for q_new, q_old in zip(new.classes, old.classes):
        assert q_new.label == q_old.label and q_new.d == q_old.d
        assert q_new.numerator_terms() == q_old.numerator_terms()
        assert [compile_poly(p) for p in q_new.g] \
            == [compile_poly(p) for p in q_old.g]
        assert [p.terms for p in q_new.g] == [p.terms for p in q_old.g]
