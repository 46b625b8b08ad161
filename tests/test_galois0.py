import random

import pytest

from dp2.galois0 import (
    ALL_ELEMENTS,
    G0,
    GENERATORS,
    H_SUBGROUP,
    IDENTITY,
    IOTA_A,
    IOTA_B,
    IOTA_C,
    S3_MAPS,
    SIGMA,
    TAU,
    GroupElement,
    abelianization,
    act_on_curve,
    curve_orbit_lengths,
    enumerate_subgroups_onto_Q,
    fingerprint,
    fixed_sublattice,
    generate_subgroup,
    matrix_of,
    semidirect_decomposition,
    verify_action_homomorphism,
    verify_s3_automorphisms,
)
from dp2.picard import (
    ANTICANONICAL,
    Axis,
    GRAM,
    Triple,
    all_labels,
    build_lattice,
    triple,
)

LAT = build_lattice()


def test_group_axioms_random_sample():
    rng = random.Random(11)
    sample = rng.sample(ALL_ELEMENTS, 20)
    for g in sample:
        assert g * IDENTITY == g == IDENTITY * g
        assert g * g.inverse() == IDENTITY
        for h in sample:
            for u in sample[:5]:
                assert (g * h) * u == g * (h * u)


def test_element_count_and_orders():
    assert len(ALL_ELEMENTS) == 128
    assert max(g.order() for g in ALL_ELEMENTS) == 4


def test_named_generator_coordinates():
    assert SIGMA == GroupElement(7, 0, 0, 0)
    assert TAU == GroupElement(3, 0, 0, 0)
    assert IOTA_A == GroupElement(1, 1, 3, 3)
    assert IOTA_B == GroupElement(1, 0, 1, 0)
    assert IOTA_C == GroupElement(1, 0, 0, 1)


def test_action_matches_published_table():
    # iota_c flips the sign on the z-sheet
    assert act_on_curve(IOTA_C, Axis("z", 1, 1)) == Axis("z", 1, -1)
    # sigma inverts all three roots of unity on a triple curve
    assert act_on_curve(SIGMA, Triple(1, 1, 1)) == triple(-1, -1, -1)
    # tau: (alpha, beta, gamma) -> (i/alpha, i/beta, i/gamma)
    assert act_on_curve(TAU, Triple(0, 1, 2)) == triple(1, 0, -1)
    # iota_a multiplies delta by i on the z-sheet, flips sign on x
    assert act_on_curve(IOTA_A, Axis("z", 3, 1)) == Axis("z", 5, 1)
    assert act_on_curve(IOTA_A, Axis("x", 3, 1)) == Axis("x", 3, -1)
    assert act_on_curve(IOTA_A, Axis("y", 3, 1)) == Axis("y", 1, 1)
    for lab in all_labels():
        assert act_on_curve(IDENTITY, lab) == lab


def test_action_is_homomorphism():
    verify_action_homomorphism()


def test_s3_maps_are_automorphisms():
    verify_s3_automorphisms()
    assert len(S3_MAPS) == 6
    # the (B,C) swap fixes sigma, tau, iota_a and swaps iota_b, iota_c
    bc = S3_MAPS["bc"]
    assert bc(SIGMA) == SIGMA and bc(TAU) == TAU and bc(IOTA_A) == IOTA_A
    assert bc(IOTA_B) == IOTA_C and bc(IOTA_C) == IOTA_B


def test_matrix_of_identity_and_homomorphism():
    ident = matrix_of(IDENTITY)
    assert all(ident[(i, j)] == (1 if i == j else 0)
               for i in range(8) for j in range(8))
    gens = list(GENERATORS.values())
    for g in gens:
        for h in gens:
            prod = matrix_of(g).mul(matrix_of(h))
            assert prod.entries == matrix_of(g * h).entries


def test_matrix_preserves_gram_and_anticanonical():
    rng = random.Random(5)
    for g in rng.sample(ALL_ELEMENTS, 12):
        m = matrix_of(g)

        def apply(v):
            return tuple(sum(m[(i, j)] * v[j] for j in range(8))
                         for i in range(8))

        assert apply(ANTICANONICAL) == ANTICANONICAL
        for _ in range(5):
            u = tuple(rng.randrange(-2, 3) for _ in range(8))
            w = tuple(rng.randrange(-2, 3) for _ in range(8))
            dot = lambda x, y: sum(gi * a * b for gi, a, b in zip(GRAM, x, y))
            assert dot(apply(u), apply(w)) == dot(u, w)


def test_matrix_iota_c_on_v5():
    m = matrix_of(IOTA_C)
    col = tuple(m[(i, 4)] for i in range(8))
    assert col == (-1, -1, -1, -1, -2, -1, -1, 3)


def test_generate_subgroup_orders():
    assert G0.order == 128 and G0.onto_q
    assert H_SUBGROUP.order == 32 and not H_SUBGROUP.onto_q
    assert abelianization(H_SUBGROUP) == (2, 4, 4)
    s16 = generate_subgroup([IOTA_A * IOTA_B, SIGMA * TAU * IOTA_A * IOTA_C])
    assert s16.order == 16
    s32 = generate_subgroup([IOTA_A * IOTA_B, SIGMA * TAU * IOTA_A * IOTA_C, SIGMA])
    assert s32.order == 32
    assert generate_subgroup([]).order == 1
    assert not generate_subgroup([]).onto_q


def _bruteforce_closure(gens) -> set:
    """The subgroup generated by gens, by GroupElement products."""
    out, frontier = {IDENTITY}, [IDENTITY]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            if cur * g not in out:
                out.add(cur * g)
                frontier.append(cur * g)
    return out


def test_generate_subgroup_matches_element_closure():
    from dp2.kummer import TABLE2
    index = {g: i for i, g in enumerate(ALL_ELEMENTS)}
    gen_sets = [s.generators for s in enumerate_subgroups_onto_Q()]
    gen_sets += [row.generators for row in TABLE2]
    for gens in gen_sets:
        s = generate_subgroup(gens)
        closed = _bruteforce_closure(gens)
        assert s.mask() == sum(1 << index[g] for g in closed), gens
        assert s.elements == tuple(sorted(closed))
        assert s.onto_q == ({g.chi for g in closed} == {1, 3, 5, 7})
        assert all(g in s for g in closed)
        assert not any(g in s for g in ALL_ELEMENTS if g not in closed)
    assert len(gen_sets) == 243 + 12


def test_quotient_by_H_is_klein_four():
    assert G0.order // H_SUBGROUP.order == 4
    chis = {g.chi for g in G0.elements}
    assert chis == {1, 3, 5, 7}
    assert all(g.chi == 1 for g in H_SUBGROUP.elements)


def test_enumeration_contains_G0_and_is_ontoQ():
    subs = enumerate_subgroups_onto_Q()
    assert all(s.onto_q for s in subs)
    assert any(s.order == 128 for s in subs)
    assert len(subs) >= 194


def test_enumeration_matches_bruteforce_within_order32_subgroup():
    # independent oracle at reduced scope: all ontoQ subgroups of the
    # order-32 group of the first worked example, by raw closure over
    # generator subsets, versus a filter of the global enumeration
    amb = generate_subgroup([IOTA_A * IOTA_B, SIGMA * TAU * IOTA_A * IOTA_C, SIGMA])
    elems = list(amb.elements)
    found = set()
    import itertools
    for r in range(1, 4):
        for gens in itertools.combinations(elems, r):
            s = generate_subgroup(gens)
            if s.onto_q:
                found.add(s.mask())
    # every subgroup of a 2-group is generated by at most log2(order)
    # elements; 3 suffices here because ontoQ subgroups of amb have
    # order >= 4 and amb/Frattini has rank 3
    sub_masks = {s.mask() for s in (generate_subgroup(list(gens))
                 for r in range(1, 4)
                 for gens in itertools.combinations(elems, r))}
    assert found <= sub_masks
    assert len(found) > 0
    # cross-check: each found subgroup is conjugate (in G0, up to S3) to
    # something the global enumeration lists
    from dp2.galois0 import _canon_conj_s3
    listed = {_canon_conj_s3(s.mask()) for s in enumerate_subgroups_onto_Q()}
    for m in found:
        assert _canon_conj_s3(m) in listed


def test_conjugate_subgroups_share_fingerprint():
    rng = random.Random(3)
    s = generate_subgroup([IOTA_A * IOTA_B, SIGMA * TAU * IOTA_A * IOTA_C, SIGMA])
    for g in rng.sample(ALL_ELEMENTS, 6):
        gi = g.inverse()
        conj = generate_subgroup([g * x * gi for x in s.generators])
        assert conj.order == s.order
        assert fingerprint(conj, include_h1=False) == \
            fingerprint(s, include_h1=False)


def test_fingerprint_trivial_group():
    fp = fingerprint(generate_subgroup([]), include_h1=False)
    assert fp[0] == 1
    assert fp[3] == tuple([1] * 56)
    assert fp[4] == 8  # full lattice fixed


def test_fixed_sublattice_G0_rank_one():
    assert len(fixed_sublattice(G0)) == 1


def test_orbit_lengths_G0():
    lens = curve_orbit_lengths(G0)
    assert sum(lens) == 56
    assert lens == (8, 8, 8, 32)


def test_semidirect_decomposition_all_classes():
    failures = []
    for s in enumerate_subgroups_onto_Q():
        sd = semidirect_decomposition(s)
        if sd is None:
            failures.append(s.order)
            continue
        n, t = sd
        assert n.order * t.order == s.order
        n_set = set(n.elements)
        assert sum(1 for x in t.elements if x in n_set) == 1
    assert failures == []


def test_fingerprint_includes_h1():
    pytest.importorskip("dp2.cohomology")
    fp = fingerprint(G0, include_h1=True)
    assert fp[-1] == (2,)


def test_index_tables_match_group_elements():
    from dp2.galois0 import _INDEX, _tables
    mul, conj, s3 = _tables()
    for a in ALL_ELEMENTS:
        ia = _INDEX[a]
        ai = a.inverse()
        for b in ALL_ELEMENTS:
            assert mul[ia][_INDEX[b]] == _INDEX[a * b]
            assert conj[ia][_INDEX[b]] == _INDEX[a * b * ai]
    for perm, phi in zip(s3, S3_MAPS.values()):
        assert perm == tuple(_INDEX[phi(x)] for x in ALL_ELEMENTS)


def test_orbit_canonical_forms_match_bruteforce(monkeypatch):
    # reference oracle: the least image over every conjugation (and, for
    # the S3 form, every relabeling followed by a conjugation)
    import dp2.galois0 as g0
    monkeypatch.setattr(g0, "_ORBITS", {})
    _, conj, s3 = g0._tables()
    rng = random.Random(7)
    for mask in g0.all_subgroup_classes():
        brute = min(g0._apply_perm(mask, p) for p in conj)
        moved = g0._apply_perm(mask, rng.choice(conj))
        assert g0._canon_conj(moved) == brute == g0._canon_conj(mask)
    for s in enumerate_subgroups_onto_Q():
        mask = s.mask()
        images = [g0._apply_perm(g0._apply_perm(mask, sp), p)
                  for sp in s3 for p in conj]
        moved = rng.choice(images)
        assert g0._canon_conj_s3(moved) == min(images) \
            == g0._canon_conj_s3(mask)


def test_fingerprint_traces_match_matrix_sums():
    # the trace entry read from the one 128-entry table equals the
    # diagonal sum of matrix_of on every element, on all 243 classes
    for s in enumerate_subgroups_onto_Q():
        fp = fingerprint(s, include_h1=False)
        assert fp[5] == tuple(sorted(sum(matrix_of(g)[(i, i)]
                                         for i in range(8))
                                     for g in s.elements))
