import collections
import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from dp2.galois0 import (
    ALL_ELEMENTS,
    G0,
    GENERATORS,
    IDENTITY,
    IOTA_A,
    IOTA_B,
    IOTA_C,
    SIGMA,
    TAU,
    GroupElement,
    Subgroup,
    abelianization,
    act_on_curve,
    all_subgroup_classes,
    curve_orbit_lengths,
    enumerate_subgroups_onto_Q,
    fingerprint,
    fixed_rank,
    fixed_sublattice,
    generate_subgroup,
    is_abelian,
    matrix_of,
    verify_action_homomorphism,
)
from dp2.picard import (
    ANTICANONICAL,
    Axis,
    BASIS_LABELS,
    GRAM,
    Triple,
    all_labels,
    build_lattice,
    generator_action,
    triple,
)

from s3_maps import S3_MAPS
from semidirect import semidirect_decomposition

LAT = build_lattice()

#: the index-4 subgroup H, the kernel of chi
H_SUBGROUP = generate_subgroup([IOTA_A, IOTA_B, IOTA_A * IOTA_B * IOTA_C])


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


def test_order_table_matches_power_loop():
    for g in ALL_ELEMENTS:
        n, x = 1, g
        while x != IDENTITY:
            x, n = x * g, n + 1
        assert g.order() == n, g


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


def verify_s3_automorphisms() -> None:
    for name, phi in S3_MAPS.items():
        imgs = {phi(g) for g in ALL_ELEMENTS}
        if len(imgs) != 128:
            raise AssertionError(f"{name} is not a bijection")
        for g in ALL_ELEMENTS:
            for h in (SIGMA, TAU, IOTA_A, IOTA_B, IOTA_C):
                if phi(g * h) != phi(g) * phi(h):
                    raise AssertionError(f"{name} is not a homomorphism")


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
            a, b = matrix_of(g), matrix_of(h)
            prod = tuple(sum(a[i, k] * b[k, j] for k in range(8))
                         for i in range(8) for j in range(8))
            assert prod == matrix_of(g * h).entries


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


def _curve_image_rows(g):
    """Test oracle: the matrix of g built label by label from the curve
    images act_on_curve(g, lab), checked on all 56 classes and on -K."""
    cols = [list(LAT.cls(act_on_curve(g, lab)))
            for lab in BASIS_LABELS + [Axis("z", 7, -1)]]
    # the eighth basis label has class v8 - v6 - v7, so correct its column
    cols[7] = [a + b + c for a, b, c in zip(*cols[5:])]
    rows = tuple(tuple(cols[j][i] for j in range(8)) for i in range(8))

    def apply(vec):
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in rows)

    for lab, cls in LAT.class_table.items():
        assert apply(cls) == LAT.cls(act_on_curve(g, lab)), (g, lab)
    assert apply(ANTICANONICAL) == ANTICANONICAL
    return rows


def test_matrix_of_matches_curve_image_oracle():
    from dp2.galois0 import pic_rows
    for g in ALL_ELEMENTS:
        assert pic_rows(g) == _curve_image_rows(g), g


def test_matrix_of_rejects_a_wrong_generator_permutation(
        cold_matrix_caches, monkeypatch):
    g0 = cold_matrix_caches
    perms = dict(g0._generator_perms())
    # swap the images of two curves under sigma: no longer an isometry
    wrong = list(perms["sigma"])
    wrong[0], wrong[30] = wrong[30], wrong[0]
    perms["sigma"] = tuple(wrong)
    monkeypatch.setattr(g0, "_generator_perms", lambda: perms)
    with pytest.raises(AssertionError, match="inconsistent"):
        matrix_of(SIGMA)


def test_matrix_of_rejects_a_corrupted_class_or_column(cold_matrix_caches,
                                                      monkeypatch):
    # the packed checks read the columns of the matrix they return and
    # the packed table of curve classes
    g0 = cold_matrix_caches
    classes = list(g0._CLASSES)
    column = g0._curve_indices(SIGMA)[g0._MATRIX_COLUMNS[2]]
    classes[column] = (classes[column][0] + 1,) + classes[column][1:]
    monkeypatch.setattr(g0, "_CLASSES", tuple(classes))
    with pytest.raises(AssertionError, match="inconsistent"):
        matrix_of(SIGMA)
    monkeypatch.undo()
    g0.matrix_of.cache_clear()
    columns = list(g0._MATRIX_COLUMNS)
    columns[3] = columns[4]
    monkeypatch.setattr(g0, "_MATRIX_COLUMNS", columns)
    with pytest.raises(AssertionError, match="inconsistent"):
        matrix_of(TAU)
    monkeypatch.undo()
    g0.matrix_of.cache_clear()
    monkeypatch.setattr(g0, "_PACKED_K", g0._pack(ANTICANONICAL[:7] + (2,)))
    with pytest.raises(AssertionError, match="moves the anticanonical class"):
        matrix_of(IDENTITY)


def test_packed_coordinates_stay_below_the_packing_bound():
    # the packing sum v_i 2^(16 i) is injective only on vectors with
    # every |v_i| < 2^15: every M v and w that matrix_of compares, on all
    # 128 elements, stays inside, and the packed sums are those of M v
    import dp2.galois0 as g0
    vectors = list(g0._CLASSES) + [ANTICANONICAL]
    for g in ALL_ELEMENTS:
        m = matrix_of(g)
        packed = [g0._pack(m[(i, j)] for i in range(8)) for j in range(8)]
        for v in vectors:
            mv = [sum(m[(i, j)] * v[j] for j in range(8)) for i in range(8)]
            assert max(map(abs, mv + list(v))) < 2 ** 15
            assert g0._pack(mv) == sum(c * p for c, p in zip(v, packed))


def test_slot_packing_stays_below_its_bound(cold_matrix_caches,
                                           monkeypatch):
    # matrix_of compares one product sum_j pack(column j) SLOT_j, biased
    # by 2^126 a slot, with the packed curve images side by side: every
    # slot pack(M c_i) stays below 2^126 in absolute value on all 128
    # elements, so the 128-bit chunks of the biased sum are exactly the
    # slots, and a corrupted SLOT entry fails the check
    g0 = cold_matrix_caches
    for g in ALL_ELEMENTS:
        m = matrix_of(g)
        packed = [g0._pack(m[(i, j)] for i in range(8)) for j in range(8)]
        slots = [g0._pack(sum(m[(i, j)] * c[j] for j in range(8))
                          for i in range(8)) for c in g0._CLASSES]
        assert max(map(abs, slots)) < 2 ** 126
        biased = sum(p * s for p, s in zip(packed, g0._SLOTS)) \
            + g0._SLOT_BIAS
        assert [(biased >> 128 * i) % 2 ** 128 - 2 ** 126
                for i in range(56)] == slots
        assert biased >> 128 * 56 == 0
    g0.matrix_of.cache_clear()
    slots = list(g0._SLOTS)
    slots[3] += 1 << 128 * 17
    monkeypatch.setattr(g0, "_SLOTS", tuple(slots))
    with pytest.raises(AssertionError, match="inconsistent"):
        matrix_of(SIGMA)


def test_matrices_need_only_the_generator_actions(cold_matrix_caches,
                                                  monkeypatch):
    g0 = cold_matrix_caches
    calls = {"n": 0}

    def counted(fn):
        def wrapper(*args):
            calls["n"] += 1
            return fn(*args)
        return wrapper

    # galois0 reads the one table of generator_action, in dp2.picard
    assert g0.generator_action is generator_action
    monkeypatch.setattr(g0, "generator_action", counted(generator_action))
    monkeypatch.setattr(g0, "act_on_curve", counted(g0.act_on_curve))
    for g in ALL_ELEMENTS:
        matrix_of(g)
    assert 0 < calls["n"] <= 5 * 56


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


@functools.cache
def _conjugation_perms() -> list[tuple[int, ...]]:
    """x -> g x g^-1 on element indices, one per g, by GroupElement
    products."""
    index = {g: i for i, g in enumerate(ALL_ELEMENTS)}
    return [tuple(index[g * x * g.inverse()] for x in ALL_ELEMENTS)
            for g in ALL_ELEMENTS]


@functools.cache
def _s3_perms() -> list[tuple[int, ...]]:
    """The six S3_MAPS on element indices."""
    index = {g: i for i, g in enumerate(ALL_ELEMENTS)}
    return [tuple(index[phi(x)] for x in ALL_ELEMENTS)
            for phi in S3_MAPS.values()]


def _canon_conj_s3(mask: int) -> int:
    """Least image of the subgroup mask under each of the six S3_MAPS
    followed by each of the 128 conjugations: the oracle of the S3
    classes of `enumerate_subgroups_onto_Q`."""
    members = [i for i in range(128) if mask >> i & 1]
    return min(sum(1 << cp[sp[i]] for i in members)
               for sp in _s3_perms() for cp in _conjugation_perms())


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
        assert fingerprint(conj) == fingerprint(s)


def test_fingerprint_trivial_group():
    fp = fingerprint(generate_subgroup([]))
    assert fp[0] == 1
    assert fp[3] == tuple([1] * 56)
    assert fp[4] == 8  # full lattice fixed
    assert fp[6] == ()  # trivial H^1


@pytest.mark.parametrize("exps", [(), (1,), (3,), (1, 1), (1, 2), (2, 2),
                                  (1, 1, 3), (1, 2, 3), (2, 4), (1, 1, 1, 1)])
def test_abelian_type_of_cyclic_products(exps):
    # element orders of Z/2^e1 x ... x Z/2^ek, listed directly, counted
    # by the powers of two they divide, up to 2^5
    from itertools import product
    from math import gcd
    from dp2.galois0 import _abelian_type_from_counts
    orders = [max([2 ** e // gcd(x, 2 ** e) for x, e in zip(xs, exps)],
                  default=1)
              for xs in product(*(range(2 ** e) for e in exps))]
    counts = [sum(o <= 2 ** j for o in orders) for j in range(6)]
    assert _abelian_type_from_counts(counts) == tuple(2 ** e for e in exps)


def test_fixed_sublattice_G0_rank_one():
    assert len(fixed_sublattice(G0)) == 1


def test_orbit_lengths_G0():
    lens = curve_orbit_lengths(G0)
    assert sum(lens) == 56
    assert lens == (8, 8, 8, 32)


def _orbit_lengths_by_labels(s):
    """Test oracle: curve orbits from per-label dicts of act_on_curve."""
    labels = all_labels()
    perms = [{lab: act_on_curve(g, lab) for lab in labels}
             for g in s.generators]
    remaining, lengths = set(labels), []
    while remaining:
        orbit, frontier = set(), [remaining.pop()]
        while frontier:
            cur = frontier.pop()
            orbit.add(cur)
            frontier.extend(p[cur] for p in perms if p[cur] not in orbit)
        remaining -= orbit
        lengths.append(len(orbit))
    return tuple(sorted(lengths))


def test_orbit_lengths_match_label_oracle():
    for s in (G0,) + enumerate_subgroups_onto_Q():
        assert curve_orbit_lengths(s) == _orbit_lengths_by_labels(s)


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
    fp = fingerprint(G0)
    assert fp[-1] == (2,)


def test_index_tables_match_group_elements():
    # the product table, the conjugations, and the one byte table of
    # the generator conjugations and of the ab and bc relabelings on
    # every one-element mask
    import dp2.galois0 as g0
    from dp2.galois0 import _INDEX
    mul = g0._mul()
    for a in ALL_ELEMENTS:
        ia = _INDEX[a]
        ai = a.inverse()
        conj = g0._conjugation(ia)
        for b in ALL_ELEMENTS:
            assert mul[ia][_INDEX[b]] == _INDEX[a * b]
            assert conj[_INDEX[b]] == _INDEX[a * b * ai]
    maps = [lambda x, g=g: g * x * g.inverse() for g in GENERATORS.values()]
    maps += [S3_MAPS["ab"], S3_MAPS["bc"]]
    assert len(maps) == 7
    for x in ALL_ELEMENTS:
        assert g0._packed_images(1 << _INDEX[x]) \
            == sum(1 << 128 * t + _INDEX[phi(x)] for t, phi in enumerate(maps))


_MASKS = st.one_of(st.integers(0, 2 ** 128 - 1),
                   st.sampled_from([0, 2 ** 128 - 1]),
                   st.integers(0, 127).map(lambda i: 1 << i))


@settings(max_examples=200, deadline=None)
@given(_MASKS, st.sampled_from(ALL_ELEMENTS), st.sampled_from(sorted(S3_MAPS)))
def test_mask_routines_match_bit_loops(mask, g, relabel):
    # _members, _apply_perm and the byte table of _packed_images on
    # random masks, the empty and the full mask and single bits, against
    # bit loops and the conjugations and relabelings applied element by
    # element
    import dp2.galois0 as g0
    index = g0._INDEX
    bits = [i for i in range(128) if mask >> i & 1]
    assert g0._members(mask) == bits
    conj = [index[g * x * g.inverse()] for x in ALL_ELEMENTS]
    relabeled = [index[S3_MAPS[relabel](x)] for x in ALL_ELEMENTS]
    assert g0._apply_perm(mask, g0._conjugation(index[g])) \
        == sum(1 << conj[i] for i in bits)
    assert g0._apply_perm(mask, relabeled) \
        == sum(1 << relabeled[i] for i in bits)
    maps = [lambda x, h=h: h * x * h.inverse() for h in GENERATORS.values()]
    maps += [S3_MAPS["ab"], S3_MAPS["bc"]]
    assert g0._packed_images(mask) \
        == sum(1 << 128 * t + index[phi(ALL_ELEMENTS[i])]
               for t, phi in enumerate(maps) for i in bits)


def test_orbit_canonical_forms_match_bruteforce():
    # reference oracle: the least image over every conjugation (and, for
    # the form of the onto-Q enumeration, every relabeling followed by a
    # conjugation), on a random image of each class that the two
    # enumerations visit
    import dp2.galois0 as g0
    conj, s3 = _conjugation_perms(), _s3_perms()
    rng = random.Random(7)
    for mask in g0.all_subgroup_classes():
        brute = {g0._apply_perm(mask, p) for p in conj}
        moved = g0._apply_perm(mask, rng.choice(conj))
        assert g0._images(moved, g0._CONJ) == brute
        assert min(brute) == mask
    visited = g0._layered_classes(g0._AUT)
    assert len(visited) == 460
    for mask in visited:
        moved = g0._apply_perm(g0._apply_perm(mask, rng.choice(s3)),
                               rng.choice(conj))
        assert min(g0._images(moved, g0._AUT)) == _canon_conj_s3(moved) \
            == mask


def test_s3_images_match_s3_maps():
    # the two relabeling permutations of the orbit table, ab and bc,
    # generate the images under the six S3_MAPS, on every conjugacy
    # class of subgroups
    import dp2.galois0 as g0
    for mask in g0.all_subgroup_classes():
        assert g0._images(mask, slice(5, 7)) \
            == {g0._apply_perm(mask, sp) for sp in _s3_perms()}


def test_s3_classes_match_per_class_orbit_oracle():
    # the one-pass enumeration up to conjugation and relabeling gives the
    # classes of the least image over each conjugacy class's whole
    # conjugation and relabeling orbit: the same masks, order and
    # generators.  The enumeration runs past its own cache
    import dp2.galois0 as g0
    got = enumerate_subgroups_onto_Q.__wrapped__()
    oracle = {}
    for mask in g0.all_subgroup_classes():
        if all(mask & coset for coset in g0._CHI_COSETS):
            canon = _canon_conj_s3(mask)
            oracle.setdefault(canon, Subgroup(canon))
    want = sorted(oracle.items(), key=lambda kv: (kv[1].order, kv[0]))
    assert [(s.mask(), s.generators, s.onto_q) for s in got] \
        == [(m, s.generators, s.onto_q) for m, s in want]
    assert len(got) == 243


def test_h1_eliminations_without_transforms_match_on_every_class():
    # on each of the 243 onto-Q classes, the rank and H^1 divisors that
    # h1_type and fixed_rank read without U, V and U^-1 are those of the
    # echelon and Smith form with every transform kept
    import dp2.galois0 as g0
    from dp2.intlin import ColumnEchelon, smith_normal_form
    for s in enumerate_subgroups_onto_Q():
        ech = ColumnEchelon(list(zip(*g0._pic_differences(s))))
        divisors = smith_normal_form(ech.image_basis()).divisors
        assert g0.h1_type(s).divisors == tuple(q for q in divisors if q > 1)
        assert fixed_rank(s) == 8 - ech.rank


def test_h1_from_element_bases_matches_stacked_differences_on_every_class():
    # on all 1,500 conjugacy classes, the trivial group among them, the
    # H^1 divisors and fixed rank read from the stacked per-element
    # bases are those of the Smith form and the echelon of the stacked
    # (g - 1) rows, each with every transform kept
    import dp2.galois0 as g0
    from dp2.intlin import ColumnEchelon, smith_normal_form
    classes = all_subgroup_classes()
    assert len(classes) == 1500 and classes[0] == 1
    for mask in classes:
        s = Subgroup(mask)
        d = g0._pic_differences(s)
        divisors = smith_normal_form(list(zip(*d))).divisors
        assert g0.h1_type(s).divisors == tuple(q for q in divisors if q > 1)
        assert fixed_rank(s) == 8 - ColumnEchelon(d).rank \
            == 8 - len(divisors), s.generators


def test_fingerprint_traces_match_matrix_sums():
    # the trace entry read from the one 128-entry table equals the
    # diagonal sum of matrix_of on every element, on all 243 classes
    for s in enumerate_subgroups_onto_Q():
        fp = fingerprint(s)
        assert fp[5] == tuple(sorted(sum(matrix_of(g)[(i, i)]
                                         for i in range(8))
                                     for g in s.elements))


def _all_subgroup_classes_oracle():
    """The layered extension with the per-element bit permutations: the
    normaliser test compares the whole conjugate mask, and the coset is
    the permuted mask."""
    import dp2.galois0 as g0
    mul, conj = g0._mul(), _conjugation_perms()
    layer = {1 << g0._INDEX[IDENTITY]}
    seen = set(layer)
    while layer:
        nxt = set()
        for mask in layer:
            done = mask
            for i in range(128):
                if done >> i & 1 or not mask >> mul[i][i] & 1 \
                        or g0._apply_perm(mask, conj[i]) != mask:
                    continue
                new = mask | g0._apply_perm(mask, mul[i])
                done |= new
                canon = min(g0._images(new, g0._CONJ))
                if canon not in seen:
                    seen.add(canon)
                    nxt.add(canon)
        layer = nxt
    return tuple(sorted(seen))


def test_subgroup_classes_match_permuted_mask_oracle():
    from dp2.galois0 import all_subgroup_classes
    classes = all_subgroup_classes()
    assert classes == _all_subgroup_classes_oracle()
    assert len(classes) == 1500


def _abelianization_oracle(s):
    """s / [s, s] with [s, s] closed over all |s|^2 commutators, and
    each inverse found by a search of its product-table row."""
    import dp2.galois0 as g0
    mul = g0._mul()
    idx = [g0._INDEX[g] for g in s.elements]
    inv = {g: mul[g].index(0) for g in idx}
    derived = g0._closure_mask(mul, {mul[mul[inv[g]][inv[h]]][mul[g][h]]
                                     for g in idx for h in idx}, 0)
    orders, done = [], 0
    for g in idx:
        if done >> g & 1:
            continue
        done |= g0._apply_perm(derived, mul[g])
        o, cur = 1, g
        while not derived >> cur & 1:
            cur = mul[cur][g]
            o += 1
        orders.append(o)
    return g0._abelian_type_from_counts(
        [sum(o <= 2 ** j for o in orders) for j in range(8)])


def _curve_orbit_lengths_oracle(s):
    """Curve orbits as the sets of images of each curve under every
    element of s."""
    from dp2.galois0 import _curve_indices
    perms = [_curve_indices(g) for g in s.elements]
    orbits = {frozenset(p[i] for p in perms) for i in range(56)}
    return tuple(sorted(map(len, orbits)))


def test_generator_invariants_match_element_oracles_on_every_class():
    # all 1,500 conjugacy classes: the invariants read from a generating
    # set equal those read from every element, and the fixed rank read
    # from the echelon behind H^1 equals the size of a kernel basis
    from dp2.galois0 import all_subgroup_classes
    classes = all_subgroup_classes()
    assert len(classes) == 1500
    for mask in classes:
        s = Subgroup(mask)
        assert abelianization(s) == _abelianization_oracle(s), s.generators
        assert curve_orbit_lengths(s) == _curve_orbit_lengths_oracle(s), \
            s.generators
        assert fixed_rank(s) == len(fixed_sublattice(s)), s.generators


def test_subgroup_refuses_non_generating_generators():
    # the invariants read the generators, so a Subgroup refuses a set
    # that does not generate its mask, and they cannot be replaced later
    with pytest.raises(AssertionError, match="do not generate"):
        Subgroup(G0.mask(), (SIGMA, TAU))
    s = Subgroup(G0.mask(), GENERATORS.values())
    with pytest.raises(AttributeError):
        s.generators = (SIGMA, TAU)
    assert s.generators == tuple(GENERATORS.values())


def _element_closure(mask):
    """The subgroup generated by the members of a mask, by products of
    GroupElements."""
    found = {IDENTITY} | {g for i, g in enumerate(ALL_ELEMENTS)
                          if mask >> i & 1}
    frontier = list(found)
    while frontier:
        g = frontier.pop()
        for h in list(found):
            for x in (g * h, h * g):
                if x not in found:
                    found.add(x)
                    frontier.append(x)
    return sum(1 << ALL_ELEMENTS.index(g) for g in found)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_subgroup_accepts_exactly_the_closed_masks(data):
    # a class mask, its conjugate by a drawn element, or a random set, each
    # with a few bits flipped or none: Subgroup(mask) succeeds exactly when
    # the closure of the mask's members is the mask
    classes = all_subgroup_classes()
    kind = data.draw(st.sampled_from(["class", "conjugate", "random"]))
    if kind == "random":
        mask = data.draw(st.integers(0, (1 << 128) - 1))
    else:
        mask = classes[data.draw(st.integers(0, len(classes) - 1))]
        if kind == "conjugate":
            g = data.draw(st.sampled_from(ALL_ELEMENTS))
            gi = g.inverse()
            mask = sum(1 << ALL_ELEMENTS.index(g * x * gi)
                       for i, x in enumerate(ALL_ELEMENTS) if mask >> i & 1)
    for bit in data.draw(st.lists(st.integers(0, 127), max_size=3)):
        mask ^= 1 << bit
    if _element_closure(mask) == mask:
        s = Subgroup(mask)
        assert generate_subgroup(s.generators).mask() == mask
    else:
        with pytest.raises(AssertionError, match="is not a subgroup"):
            Subgroup(mask)


def test_is_abelian_matches_element_commutation_on_every_class():
    classes = all_subgroup_classes()
    assert len(classes) == 1500
    verdicts = collections.Counter()
    for mask in classes:
        s = Subgroup(mask)
        commute = all(g * h == h * g for g in s.elements for h in s.elements)
        assert is_abelian(s) == commute, s.generators
        verdicts[commute] += 1
    assert verdicts[True] and verdicts[False]


def _abelian_generators_oracle(s):
    """The direct-product basis search on Subgroups: the first
    combination, by descending element order, whose orders multiply to
    |s| and whose `generate_subgroup` is s."""
    import itertools
    order = {g: g.order() for g in s.elements}
    els = sorted(s.elements, key=lambda g: -order[g])
    for r in range(1, 4):
        for gens in itertools.combinations(els, r):
            prod = 1
            for g in gens:
                prod *= order[g]
            if prod == s.order \
                    and generate_subgroup(list(gens)).order == s.order:
                return gens
    return None


def _dihedral_generators_oracle(s):
    """The first pair of involutions whose product has order |s|/2 and
    whose `generate_subgroup` is s."""
    import itertools
    invs = [g for g in s.elements if g.order() == 2]
    for a, b in itertools.combinations(invs, 2):
        if (a * b).order() * 2 == s.order \
                and generate_subgroup([a, b]).order == s.order:
            return a, b
    return None


def test_generator_searches_match_subgroup_oracle():
    # both searches on every onto-Q class, abelian or not: the index
    # closure finds the same tuple as the Subgroup closure
    from dp2.galois0 import _abelian_generators, _dihedral_generators
    subs = enumerate_subgroups_onto_Q()
    assert len(subs) == 243
    found = [0, 0]
    for s in subs:
        ab, di = _abelian_generators(s), _dihedral_generators(s)
        assert ab == _abelian_generators_oracle(s), s.generators
        assert di == _dihedral_generators_oracle(s), s.generators
        found[0] += ab is not None
        found[1] += di is not None
    assert found == [175, 44]
