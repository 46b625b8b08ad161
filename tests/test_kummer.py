import cmath
import functools
import json
import math
import os

import pytest
from hypothesis import given, settings, strategies as st

from dp2.galois0 import (
    ALL_ELEMENTS,
    G0,
    IDENTITY,
    IOTA_A,
    IOTA_B,
    IOTA_C,
    SIGMA,
    TAU,
    GroupElement,
    _CONJ,
    _images,
    generate_subgroup,
)
from dp2.kummer import (
    TABLE2,
    condition_holds,
    constraints,
    contained_up_to_symmetry,
    galois_group,
    row_subgroup,
    table2_match,
)

from kummer_oracle import oracle_constraints
from s3_maps import S3_MAPS


def _by_monomial(A, B, C):
    return {tuple(c.monomial): (c.eps, c.phi, c.rational)
            for c in constraints(A, B, C)}


def test_constraints_read_quarters_phases_and_denominators():
    # exponents are counted in quarters: 81^(1/4) = 3 is rational, and
    # (-4)^(1/4) = sqrt(2) zeta, a half-integer exponent of 2 (eps = 1)
    # with the principal branch's phase; every monomial lands, so the
    # group is the Klein four-group of Q(zeta_8)
    got = _by_monomial(1, 81, -4)
    assert got[(0, 1, 0)] == (0, 0, (3, 1))
    assert got[(0, 0, 1)] == (1, 1, (1, 1))
    assert got[(0, 1, 1)] == (1, 1, (3, 1))
    assert len(got) == 31 and galois_group(1, 81, -4).order == 4
    # sqrt(-18) = 3 sqrt(2) zeta^2 is the only monomial that lands
    assert _by_monomial(-18, 3, 5) == {(1, 0, 0): (1, 2, (3, 1))}
    # (1/16)^(1/4) = 1/2 and sqrt(16) = 4
    got = _by_monomial(16, 1, 1)
    assert got[(0, 1, 0)] == (0, 0, (1, 2))
    assert got[(1, 0, 0)] == (0, 0, (4, 1))
    # a zero coefficient has no factorization
    with pytest.raises(ValueError):
        constraints(0, 1, 1)
    with pytest.raises(ValueError):
        galois_group(1, 0, 1)


def _constraint_tuples(A, B, C):
    return [(tuple(c.monomial), c.eps, c.phi, c.rational)
            for c in constraints(A, B, C)]


def test_quarter_exponents_match_the_fraction_oracle():
    # the 80 analyze triples of the benchmark and the Table 2 examples
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                        "references.json")
    with open(path) as f:
        keys = json.load(f)["analyze"]
    triples = [tuple(map(int, key.split(","))) for key in keys]
    triples += [row.example for row in TABLE2]
    assert len(triples) == 92
    emitted = 0
    for coeffs in triples:
        got = _constraint_tuples(*coeffs)
        assert got == oracle_constraints(*coeffs), coeffs
        emitted += len(got)
    assert emitted


_ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 97, 10007, 999983)


@st.composite
def _signed_prime_powers(draw):
    """A nonzero integer of absolute value at most 10^12: a sign, a power
    of 2 and odd prime powers, each factor kept while it fits."""
    n = draw(st.sampled_from((1, -1))) * 2 ** draw(st.integers(0, 13))
    for p, e in draw(st.lists(st.tuples(st.sampled_from(_ODD_PRIMES),
                                        st.integers(1, 9)), max_size=4)):
        if abs(n) * p ** e <= 10 ** 12:
            n *= p ** e
    return n


@settings(max_examples=300, deadline=None)
@given(_signed_prime_powers(), _signed_prime_powers(), _signed_prime_powers())
def test_quarter_exponents_match_the_fraction_oracle_property(A, B, C):
    assert _constraint_tuples(A, B, C) == oracle_constraints(A, B, C)


def test_factor_cap_rejects_huge_input():
    with pytest.raises(ValueError, match="factorization cap"):
        constraints(10 ** 19 + 7, 1, 1)


def test_generic_coefficients_have_no_constraints():
    assert constraints(3, 5, 7) == []
    assert galois_group(3, 5, 7).order == 128
    assert constraints(2, 3, 5)
    assert galois_group(2, 3, 5).order < 128


def test_all_coefficients_one_gives_klein_four():
    g = galois_group(1, 1, 1)
    assert g.order == 4
    assert set(g.elements) == {GroupElement(c, 0, 0, 0) for c in (1, 3, 5, 7)}


def test_first_worked_example_group():
    g = galois_group(-6, -3, 2)
    assert g.order == 32 and g.onto_q
    assert IOTA_A * IOTA_B in g
    assert SIGMA * TAU * IOTA_A * IOTA_C in g


def test_remaining_worked_example_orders():
    assert galois_group(1, 1, -2).order == 8
    assert galois_group(34, 34, 34).order == 8
    assert galois_group(-9826, -2, 136).order == 16
    assert galois_group(-25, -5, 45).order == 32
    assert galois_group(2, 3, 5).order == 64


def test_galois_group_refuses_a_solution_set_that_is_not_a_subgroup(
        monkeypatch):
    # {1, sigma, tau} misses sigma tau; a subgroup's set is still accepted
    import dp2.kummer as kummer
    from types import SimpleNamespace

    for allowed, ok in (({IDENTITY, SIGMA, TAU}, False),
                        ({IDENTITY, SIGMA, TAU, SIGMA * TAU}, True)):
        member = SimpleNamespace(satisfied_by=allowed.__contains__)
        monkeypatch.setattr(kummer, "constraints",
                            lambda A, B, C: [member])
        galois_group.cache_clear()
        try:
            if ok:
                assert set(galois_group(3, 5, 7).elements) == allowed
            else:
                with pytest.raises(AssertionError, match="not a subgroup"):
                    galois_group(3, 5, 7)
        finally:
            galois_group.cache_clear()


def test_order64_example_contained_in_maximal_class():
    g = galois_group(2, 3, 5)
    big = generate_subgroup([IOTA_A * TAU, IOTA_B, IOTA_C, SIGMA])
    assert contained_up_to_symmetry(g, big)


def _float_value(A, B, C, s, k, m) -> complex:
    qa = complex(A) ** 0.25
    return (complex(A) ** 0.5) ** s * (complex(B) ** 0.25 / qa) ** k \
        * (complex(C) ** 0.25 / qa) ** m


def float_oracle_agrees(A: int, B: int, C: int) -> bool:
    """Numeric cross-check of every emitted constraint: the monomial's
    complex value must match q * sqrt(2)^eps * zeta^phi."""
    zeta = cmath.exp(1j * cmath.pi / 4)
    for con in constraints(A, B, C):
        s, k, m = con.monomial.s, con.monomial.k, con.monomial.m
        val = _float_value(A, B, C, s, k, m)
        num, den = con.rational
        expected = num / den * math.sqrt(2) ** con.eps \
            * zeta ** con.phi
        if abs(val - expected) > 1e-9 * (1 + abs(expected)):
            return False
    return True


def test_float_oracle_on_worked_examples():
    for coeffs in [(-6, -3, 2), (1, 1, 1), (1, 1, -2), (34, 34, 34),
                   (-9826, -2, 136), (-25, -5, 45), (2, 3, 5), (3, 5, 7),
                   (-63, -7, 5), (48, -3, 1)]:
        assert float_oracle_agrees(*coeffs)


def test_constraint_solution_is_subgroup_onto_q():
    for coeffs in [(-6, -3, 2), (12, -3, 50), (-63, -7, 5), (8, 18, -98)]:
        g = galois_group(*coeffs)
        assert g.onto_q
        elems = set(g.elements)
        for a in g.elements:
            assert a.inverse() in elems


def test_table2_conditions_on_example_column():
    for row in TABLE2:
        assert condition_holds(row, *row.example)
        assert table2_match(*row.example) == row.index


def test_table2_condition_iff_containment():
    for src in TABLE2:
        g = galois_group(*src.example)
        for row in TABLE2:
            holds = condition_holds(row, *src.example)
            inside = contained_up_to_symmetry(g, row_subgroup(row))
            assert holds == inside, (src.index, row.index)


@functools.cache
def _relabel_then_conjugate() -> list[list[int]]:
    """Each of the six S3_MAPS followed by each of the 128 conjugations,
    as index permutations built from GroupElement products."""
    index = {g: i for i, g in enumerate(ALL_ELEMENTS)}
    return [[index[g * phi(x) * g.inverse()] for x in ALL_ELEMENTS]
            for phi in S3_MAPS.values() for g in ALL_ELEMENTS]


def _contained_oracle(s, big) -> bool:
    """Some relabeling followed by some conjugation maps every generator
    of s into big."""
    gens = [ALL_ELEMENTS.index(x) for x in s.generators]
    return any(all(big.mask() >> perm[i] & 1 for i in gens)
               for perm in _relabel_then_conjugate())


def test_contained_up_to_symmetry_matches_oracle():
    # every TABLE2 row against the Galois group of every analyze
    # reference triple of the benchmark: 960 pairs, 100 of them inside
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                        "references.json")
    with open(path) as f:
        keys = json.load(f)["analyze"]
    rows = [(row.index, row_subgroup(row)) for row in TABLE2]
    inside = 0
    for key in keys:
        g = galois_group(*map(int, key.split(",")))
        for index, big in rows:
            got = contained_up_to_symmetry(g, big)
            assert got == _contained_oracle(g, big), (key, index)
            inside += got
    assert (len(keys) * len(rows), inside) == (960, 100)


def test_table2_row_groups_have_index_two():
    for row in TABLE2:
        big = row_subgroup(row)
        assert big.order == 64 and big.onto_q


def test_generic_triple_matches_no_row():
    assert table2_match(3, 5, 7) is None


def test_s3_relabeling_equivariance():
    perms = {"id": (0, 1, 2), "ab": (1, 0, 2), "bc": (0, 2, 1),
             "ac": (2, 1, 0), "abc": (2, 0, 1), "acb": (1, 2, 0)}
    for coeffs in [(-6, -3, 2), (2, 3, 5), (-9826, -2, 136), (-63, -7, 5)]:
        g = galois_group(*coeffs)
        for name, pi in perms.items():
            permuted = tuple(coeffs[i] for i in pi)
            direct = galois_group(*permuted)
            image = generate_subgroup([S3_MAPS[name](x)
                                       for x in g.generators])
            assert min(_images(direct.mask(), _CONJ)) \
                == min(_images(image.mask(), _CONJ))


def test_fourth_power_scaling_invariance():
    for coeffs in [(-6, -3, 2), (2, 3, 5), (1, 1, 1)]:
        base = set(galois_group(*coeffs).elements)
        for t in (2, 3):
            for slot in range(3):
                scaled = list(coeffs)
                scaled[slot] *= t ** 4
                assert set(galois_group(*scaled).elements) == base


def test_brauer_groups_of_worked_examples():
    from dp2.cohomology import h1_of_subgroup
    expected = {(-6, -3, 2): (2,), (1, 1, -2): (2,), (1, 1, 1): (2, 2, 2),
                (-9826, -2, 136): (4,), (34, 34, 34): (2, 2, 2),
                (-25, -5, 45): (2,)}
    for coeffs, divisors in expected.items():
        g = galois_group(*coeffs)
        assert h1_of_subgroup(g).divisors == divisors


def test_zero_coefficient_rejected():
    with pytest.raises(ValueError):
        galois_group(0, 1, 2)
