import collections
import math
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from dp2.cohomology import (
    ExtensionData,
    GModule,
    five_term_with_d2,
    h1_of_subgroup,
    h1_presentation,
    h1_standard,
    h1_via_resolution,
    pic_module,
    polycyclic_chain,
    sigma1_to_standard,
    standard_cocycle_checks,
    submodule_on_invariants,
    _coboundaries,
    _fixed_basis,
    _identity_mat,
    _resolution_maps,
    _smallest_prime,
    _tree_cocycles,
)
from dp2.galois0 import (
    ALL_ELEMENTS,
    G0,
    IDENTITY,
    IOTA_A,
    IOTA_B,
    IOTA_C,
    SIGMA,
    TAU,
    Subgroup,
    _apply_perm,
    _closure_mask,
    _members,
    all_subgroup_classes,
    enumerate_subgroups_onto_Q,
    fixed_rank,
    generate_subgroup,
    h1_type,
    _h1_cokernel,
)
from dp2.intlin import AbelianGroupType, ColumnEchelon
from dp2.picard import Triple, build_lattice
from semidirect import semidirect_decomposition

H_GENS = (IOTA_A, IOTA_B, IOTA_A * IOTA_B * IOTA_C)


def _mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n))
                       for j in range(len(b[0]))) for i in range(n))


def cyclic_module(n: int, mat) -> GModule:
    """Z/n acting on Z^dim with a given generator matrix (mat^n = 1)."""
    dim = len(mat)
    mats = {0: _identity_mat(dim)}
    for i in range(1, n):
        mats[i] = _mat_mul(mat, mats[i - 1])
    if _mat_mul(mat, mats[n - 1]) != mats[0]:
        raise ValueError("matrix order does not divide n")
    return GModule(elements=tuple(range(n)), identity=0,
                   mul=lambda a, b: (a + b) % n, dim=dim, matrices=mats,
                   generators=(1 % n,) if n > 1 else (0,))


def invariants_H0(mod: GModule):
    basis = _fixed_basis(mod, mod.gens())
    return len(basis), basis


def _module_with_gens(gens):
    s = generate_subgroup(list(gens))
    base = pic_module(s)
    return GModule(elements=s.elements, identity=IDENTITY, mul=base.mul,
                   dim=8, matrices=base.matrices, generators=tuple(gens))


@pytest.fixture(scope="module")
def generic_h():
    return _module_with_gens(H_GENS)


def test_invariants_trivial_and_full():
    triv = _module_with_gens((IDENTITY,))
    assert invariants_H0(triv)[0] == 8
    rank, basis = invariants_H0(pic_module(G0))
    assert rank == 1
    # spanned by the anticanonical class
    v = basis[0]
    assert v == (-1, -1, -1, -1, -1, -1, -1, 3) or \
        v == (1, 1, 1, 1, 1, 1, 1, -3)


def test_invariants_rank3_example():
    s = generate_subgroup([IOTA_C * SIGMA * TAU])
    rank, basis = invariants_H0(pic_module(s))
    assert rank == 3
    ech = ColumnEchelon([[b[i] for b in basis] for i in range(8)])
    for v in [(-1, -1, -1, -1, -1, -1, -1, 3),
              (0, 0, 0, 0, 1, -1, 0, 0),
              (0, 0, 0, 0, 1, 1, 1, -1)]:
        sol, _ = ech.solve(list(v))
        assert sol is not None


def test_h1_cyclic_negation():
    neg = cyclic_module(2, ((-1,),))
    assert h1_via_resolution("cyclic", neg).group.divisors == (2,)
    assert h1_standard(neg).group.divisors == (2,)
    assert h1_presentation(neg).group.divisors == (2,)


def test_h1_swap_module_trivial():
    swap = cyclic_module(2, ((0, 1), (1, 0)))
    assert h1_via_resolution("cyclic", swap).group.divisors == ()
    assert h1_presentation(swap).group.divisors == ()


def test_h1_trivial_action_is_zero():
    for n in (2, 3, 4):
        triv = cyclic_module(n, ((1,),))
        assert h1_presentation(triv).group.divisors == ()


def test_standard_guard():
    with pytest.raises(ValueError):
        h1_standard(pic_module(G0))


def test_pic_module_builds_each_matrix_on_first_read():
    from dp2.galois0 import pic_rows

    s = generate_subgroup([IOTA_A, IOTA_B, SIGMA])
    mats = pic_module(s).matrices
    outside = next(g for g in ALL_ELEMENTS if g not in s)
    with pytest.raises(KeyError):
        mats[outside]
    assert not mats
    assert mats[SIGMA] == pic_rows(SIGMA) and list(mats) == [SIGMA]
    # the standard complex reads every element's matrix
    mod = pic_module(s)
    assert s.order <= 32
    assert h1_standard(mod).group == h1_presentation(pic_module(s)).group
    assert sorted(mod.matrices) == list(s.elements)


def test_standard_refuses_non_generating_generators():
    s = generate_subgroup([IOTA_A, IOTA_B])
    base = pic_module(s)
    mod = GModule(elements=s.elements, identity=IDENTITY, mul=base.mul,
                  dim=8, matrices=base.matrices, generators=(IOTA_A,))
    with pytest.raises(AssertionError):
        h1_standard(mod)


def test_presentation_refuses_non_generating_generators():
    s = generate_subgroup([IOTA_A, IOTA_B])
    base = pic_module(s)
    mod = GModule(elements=s.elements, identity=IDENTITY, mul=base.mul,
                  dim=8, matrices=base.matrices, generators=(IOTA_A,))
    with pytest.raises(AssertionError,
                       match="module generators do not generate the group"):
        h1_presentation(mod)


def _chain_with_commutators(mul, inv, e: int):
    """`polycyclic_chain` with every step closing the p-th powers and
    all the commutators of the current subgroup, at p = 2 too."""
    current = (1 << len(mul)) - 1
    gens, chain = [], [current]
    while current != 1 << e:
        p = _smallest_prime(current.bit_count())
        cur_list = _members(current)
        pw_comm = set()
        for g in cur_list:
            pw = g
            for _ in range(p - 1):
                pw = mul[pw][g]
            pw_comm.add(pw)
            for h in cur_list:
                pw_comm.add(mul[mul[inv[g]][inv[h]]][mul[g][h]])
        frat = _closure_mask(mul, pw_comm, e)
        y = next(g for g in cur_list if not frat >> g & 1)
        sub = frat
        for g in cur_list:
            if sub >> g & 1:
                continue
            cand = coset = sub
            for _ in range(p - 1):
                coset = _apply_perm(coset, mul[g])
                cand |= coset
            if not cand >> y & 1:
                sub = cand
        assert sub.bit_count() * p == current.bit_count()
        gens.append(y)
        current = sub
        chain.append(current)
    return gens, chain


def _s3_module() -> GModule:
    """S3 permuting the coordinates of Z^3: not a 2-group, so its chain
    takes a step at p = 2 and then one at p = 3."""
    import itertools
    perms = tuple(itertools.permutations(range(3)))
    mats = {g: tuple(tuple(int(g[j] == i) for j in range(3))
                     for i in range(3)) for g in perms}
    return GModule(elements=perms, identity=(0, 1, 2),
                   mul=lambda a, b: tuple(a[b[i]] for i in range(3)),
                   dim=3, matrices=mats)


def _heisenberg3_module() -> GModule:
    """The Heisenberg group mod 3, of order 27 and exponent 3, acting
    trivially on Z: its cubes are trivial, so only the commutators give
    the Frattini subgroup, its center."""
    import itertools
    els = tuple(itertools.product(range(3), repeat=3))
    return GModule(elements=els, identity=(0, 0, 0),
                   mul=lambda x, y: ((x[0] + y[0]) % 3, (x[1] + y[1]) % 3,
                                     (x[2] + y[2] + x[0] * y[1]) % 3),
                   dim=1, matrices=dict.fromkeys(els, ((1,),)))


def test_squares_only_frattini_step_matches_commutators():
    # at p = 2 the squares generate every commutator,
    # [a, b] = a^-2 (a b^-1)^2 b^2, so the chains are the same; S3, Z/6
    # and the Heisenberg group mod 3 take steps at odd p too
    subs = enumerate_subgroups_onto_Q()
    assert len(subs) == 243
    mods = [pic_module(s) for s in subs]
    mods += [_s3_module(), cyclic_module(6, ((-1,),)),
             _heisenberg3_module()]
    for mod in mods:
        t = mod.table
        assert polycyclic_chain(t.mul, t.inv, t.e) \
            == _chain_with_commutators(t.mul, t.inv, t.e), mod.elements
    t = mods[243].table
    _, chain = polycyclic_chain(t.mul, t.inv, t.e)
    assert [a.bit_count() // b.bit_count()
            for a, b in zip(chain, chain[1:])] == [2, 3]


def _product_table_oracle(mod):
    """The n x n product table from n^2 calls of `mod.mul`, numbered in
    `mod.elements` order, with its inverses."""
    idx = {g: i for i, g in enumerate(mod.elements)}
    mul = [[idx[mod.mul(a, b)] for b in mod.elements] for a in mod.elements]
    e = idx[mod.identity]
    return mul, [row.index(e) for row in mul], e


def _assert_table_matches_oracle(mod):
    mul, inv, e = _product_table_oracle(mod)
    t = mod.table
    assert (t.mul, t.inv, t.e) == (mul, inv, e)
    assert t.idx == {g: i for i, g in enumerate(mod.elements)}


cyclic_cases = pytest.mark.parametrize("mod", [
    cyclic_module(2, ((-1,),)),
    cyclic_module(2, ((0, 1), (1, 0))),
    cyclic_module(3, ((1,),)),
    cyclic_module(4, ((0, -1), (1, 0))),
], ids=["negation", "swap", "trivial3", "rotation4"])


@cyclic_cases
def test_index_table_matches_full_product_table_cyclic(mod):
    _assert_table_matches_oracle(mod)


def test_index_table_matches_full_product_table_every_onto_q_class():
    from dp2.galois0 import enumerate_subgroups_onto_Q
    subs = enumerate_subgroups_onto_Q()
    for s in subs:
        _assert_table_matches_oracle(pic_module(s))
    assert len(subs) == 243


def test_presentation_calls_mul_n_times_generators():
    # the order-128 table comes from the 128.|gens| right multiplications,
    # not from the 128^2 products of a full fill
    base = pic_module(G0)
    calls = []

    def counting(a, b):
        calls.append(1)
        return a * b

    mod = GModule(elements=base.elements, identity=IDENTITY, mul=counting,
                  dim=8, matrices=base.matrices, generators=base.generators)
    assert h1_presentation(mod).group.divisors == (2,)
    assert 0 < len(calls) <= 128 * len(base.generators)


def _pairwise_cocycles(mod):
    """Z^1 from the full inhomogeneous complex: one row block
    g.c(h) - c(gh) + c(g) = 0 for every pair (g, h)."""
    els, d = mod.elements, mod.dim
    n = len(els)
    idx = {g: i for i, g in enumerate(els)}
    rows = []
    for g in els:
        mg = mod.mat(g)
        for h in els:
            gh = mod.mul(g, h)
            for i in range(d):
                row = [0] * (n * d)
                for j in range(d):
                    row[idx[h] * d + j] += mg[i][j]
                row[idx[gh] * d + i] -= 1
                row[idx[g] * d + i] += 1
                rows.append(row)
    return ColumnEchelon(rows).kernel()


def _cayley_cocycles(mod):
    """Z^1 inside C^1 = M^n (one d-block per element, in `mod.elements`
    order): the kernel of the rows g.c(s) - c(gs) + c(g) = 0 for every g
    and every module generator s."""
    els, t = mod.elements, mod.table
    n, d = len(els), mod.dim
    gens = [t.idx[s] for s in mod.gens()]
    rows = []
    for g, prod in enumerate(t.mul):
        mg, cg = mod.mat(els[g]), g * d
        for s in gens:
            cs, cgs = s * d, prod[s] * d
            for i in range(d):
                row = [0] * (n * d)
                row[cs:cs + d] = mg[i]
                row[cgs + i] -= 1
                row[cg + i] += 1
                rows.append(row)
    return ColumnEchelon(rows).kernel()


def _contains(basis, vecs):
    if not basis:
        return not any(any(v) for v in vecs)
    ech = ColumnEchelon([[b[i] for b in basis] for i in range(len(basis[0]))])
    return all(ech.solve(list(v))[0] is not None for v in vecs)


def _same_lattice(a, b):
    return len(a) == len(b) and _contains(a, b) and _contains(b, a)


def _assert_three_cocycle_lattices_agree(mod):
    """The pairwise Z^1 equals the Cayley-row Z^1 in M^n, and the
    spanning-tree Z^1 equals the Cayley-row Z^1 read on the generator
    blocks (a cocycle is determined by its values there)."""
    cayley = _cayley_cocycles(mod)
    assert _same_lattice(_pairwise_cocycles(mod), cayley), mod.generators
    t, d = mod.table, mod.dim
    blocks = [t.idx[s] * d for s in mod.gens()]
    on_gens = [tuple(x for b in blocks for x in v[b:b + d]) for v in cayley]
    assert _same_lattice(_tree_cocycles(mod), on_gens), mod.generators


@cyclic_cases
def test_cayley_rows_cut_out_the_pairwise_cocycles_cyclic(mod):
    _assert_three_cocycle_lattices_agree(mod)


def _assert_coboundaries_match_action(mod):
    """B^1 generators read from the matrices equal the definition
    e -> (g.e - e)_g, on the generator slots and on all elements."""
    d = mod.dim
    for slots in (mod.gens(), mod.elements):
        expected = []
        for j in range(d):
            e = tuple(int(i == j) for i in range(d))
            expected.append(tuple(x - y for g in slots
                                  for x, y in zip(mod.act(g, e), e)))
        assert _coboundaries(mod, slots) == expected, mod.generators


@cyclic_cases
def test_coboundaries_match_action_cyclic(mod):
    _assert_coboundaries_match_action(mod)


def test_coboundaries_match_action_small_classes():
    from dp2.galois0 import enumerate_subgroups_onto_Q
    checked = 0
    for s in enumerate_subgroups_onto_Q():
        if s.order <= 8:
            _assert_coboundaries_match_action(pic_module(s))
            checked += 1
    assert checked == 83


def test_cayley_rows_cut_out_the_pairwise_cocycles_small_classes():
    # the same lattices Z^1, by mutual membership, on every onto-Q class
    # of order <= 8
    from dp2.galois0 import enumerate_subgroups_onto_Q
    checked = 0
    for s in enumerate_subgroups_onto_Q():
        if s.order > 8:
            continue
        _assert_three_cocycle_lattices_agree(pic_module(s))
        checked += 1
    assert checked == 83


def test_generic_h_tricyclic(generic_h):
    res = h1_via_resolution("tricyclic", generic_h, gens=H_GENS)
    assert res.group.divisors == (2,)
    # the published representative lies in the kernel with nonzero class
    u = ((0, 0, 0, 0, -1, -1, -1, 1),
         (0, 0, 0, 0, -1, 1, 0, 0),
         (0, 0, 0, 0, -2, 0, -1, 1))
    rows, _, _ = _resolution_maps("tricyclic", generic_h, H_GENS)
    flat = [x for v in u for x in v]
    assert all(sum(r[j] * flat[j] for j in range(24)) == 0 for r in rows)
    assert res._subq.class_coords(tuple(flat)) == (1,)


def test_generic_h_backends_agree(generic_h):
    assert h1_standard(generic_h).group.divisors == (2,)
    assert h1_presentation(generic_h).group.divisors == (2,)


def test_sigma1_gives_standard_cocycle(generic_h):
    u = ((0, 0, 0, 0, -1, -1, -1, 1),
         (0, 0, 0, 0, -1, 1, 0, 0),
         (0, 0, 0, 0, -2, 0, -1, 1))
    c = sigma1_to_standard("tricyclic", generic_h, H_GENS, u)
    assert standard_cocycle_checks(generic_h, c)


def test_h1_G0_is_z2():
    assert h1_of_subgroup(G0).divisors == (2,)


def test_five_term_generic():
    mod = pic_module(G0)
    ext = ExtensionData(h_gens=H_GENS, q_gens=(SIGMA, TAU))
    res = five_term_with_d2(ext, mod)
    assert res.h1_q_inv.group.divisors == ()
    assert res.h1_h.group.divisors == (2,)
    assert res.q_invariant_type.divisors == (2,)
    assert res.d2_kernel_order == 2
    assert res.h1_g_order == 2
    assert res.non_invariant_reported == ()


def test_paper_v0_is_a_preimage():
    mod = pic_module(G0)
    hsub = generate_subgroup(list(H_GENS))
    hmod = _module_with_gens(H_GENS)
    u = ((0, 0, 0, 0, -1, -1, -1, 1),
         (0, 0, 0, 0, -1, 1, 0, 0),
         (0, 0, 0, 0, -2, 0, -1, 1))
    c = sigma1_to_standard("tricyclic", hmod, H_GENS, u)
    v0 = {SIGMA: (0, 0, 0, 0, -1, 1, 0, 0),
          TAU: (0, 0, 0, 0, -1, -1, -1, 1)}
    for r, vec in v0.items():
        ri = r.inverse()
        for hp in hsub.elements:
            lhs = tuple(a - b for a, b in
                        zip(c[hp], mod.act(r, c[ri * hp * r])))
            rhs = tuple(a - b for a, b in zip(mod.act(hp, vec), vec))
            assert lhs == rhs


def test_five_term_order32_example():
    h1g, h2g = IOTA_A * IOTA_B, SIGMA * TAU * IOTA_A * IOTA_C
    s = generate_subgroup([h1g, h2g, SIGMA])
    assert s.order == 32
    res = five_term_with_d2(ExtensionData(h_gens=(h1g, h2g),
                                          q_gens=(SIGMA,)), pic_module(s))
    assert res.h1_h.group.divisors == ()      # H^1(H,M) = 0
    assert res.h1_q_inv.group.divisors == (2,)
    assert res.h1_g_order == 2
    assert h1_of_subgroup(s).divisors == (2,)


def test_klein_four_h1():
    s = generate_subgroup([SIGMA, TAU])
    assert h1_of_subgroup(s).divisors == (2, 2, 2)
    assert h1_standard(pic_module(s)).group.divisors == (2, 2, 2)


def test_order16_h1_z4():
    u75 = IOTA_A * IOTA_B * IOTA_C * SIGMA * TAU
    g = IOTA_A * IOTA_A * IOTA_A * IOTA_C
    h = IOTA_B * IOTA_C * IOTA_C * IOTA_C * SIGMA
    s = generate_subgroup([u75, g, h])
    assert s.order == 16
    assert h1_of_subgroup(s).divisors == (4,)
    assert h1_standard(pic_module(s)).group.divisors == (4,)


def test_dihedral_quotient_of_order16_group():
    u75 = IOTA_A * IOTA_B * IOTA_C * SIGMA * TAU
    g = IOTA_A * IOTA_A * IOTA_A * IOTA_C
    h = IOTA_B * IOTA_C * IOTA_C * IOTA_C * SIGMA
    s = generate_subgroup([u75, g, h])
    d4 = generate_subgroup([g, h])
    assert d4.order == 8 and u75 not in d4
    mod = pic_module(s)
    basis_u, dmod = submodule_on_invariants(mod, (IDENTITY, u75),
                                            d4.elements, gens=(g, h))
    assert len(basis_u) == 7
    res = h1_via_resolution("dihedral", dmod, gens=(g, h))
    assert res.group.divisors == (4,)
    cols = [[basis_u[j][i] for j in range(7)] for i in range(8)]
    ech = ColumnEchelon(cols)
    v1, _ = ech.solve([-1, 0, 1, 0, 0, 0, 0, 0])
    v2, _ = ech.solve([-1, 0, -1, 0, -1, -1, -2, 2])
    assert v1 is not None and v2 is not None
    zero = tuple([0] * 7)
    cl1 = res._subq.class_coords(tuple(v1) + zero)
    cl2 = res._subq.class_coords(tuple(v2) + zero)
    assert cl1 == cl2 != (0,)
    # the difference is the coboundary Delta_g of an explicit sum of curves
    lat = build_lattice()
    w = tuple(a + b for a, b in zip(lat.cls(Triple(0, 0, 0)),
                                    lat.cls(Triple(0, 1, 3))))
    diff = tuple(a - b for a, b in zip(w, mod.act(g, w)))
    assert diff == (0, 0, -2, 0, -1, -1, -2, 2)


def test_backend_agreement_random_subgroups():
    rng = random.Random(17)
    tested = 0
    while tested < 6:
        gens = rng.sample(ALL_ELEMENTS, 2)
        s = generate_subgroup(gens)
        if s.order > 32:
            continue
        mod = pic_module(s)
        a = h1_standard(mod).group
        b = h1_presentation(mod).group
        assert a == b, (gens, a, b)
        tested += 1


def test_representative_orders():
    mod = _module_with_gens(H_GENS)
    res = h1_presentation(mod)
    for rep, order, div in zip(res.representatives,
                               res._subq.rep_orders, res.group.divisors):
        assert order == div
        flat = tuple(x for v in rep for x in v)
        assert any(res._subq.class_coords(flat))
        scaled = tuple(order * x for x in flat)
        assert not any(res._subq.class_coords(scaled))


def test_resolution_boundary_squared_zero(generic_h):
    # d1 o d0 = 0 on the tricyclic dual complex for a sample of vectors
    rows, b1, nslots = _resolution_maps("tricyclic", generic_h, H_GENS)
    for col in b1:
        vals = [sum(r[j] * col[j] for j in range(len(col))) for r in rows]
        assert all(v == 0 for v in vals)


def test_five_term_consistency_sampled():
    # |H^1(G,M)| = |H^1(Q,M^H)| * |ker d2| against the presentation backend
    rng = random.Random(23)
    subs = [s for s in enumerate_subgroups_onto_Q() if s.order <= 32]
    for s in rng.sample(subs, 8):
        sd = semidirect_decomposition(s)
        if sd is None:
            continue
        n, t = sd
        if not (1 <= len(n.generators) <= 3 and 1 <= len(t.generators) <= 2):
            continue
        from dp2.galois0 import is_abelian
        if not is_abelian(n) or not is_abelian(t):
            continue
        mod = pic_module(s)
        try:
            res = five_term_with_d2(
                ExtensionData(h_gens=n.generators, q_gens=t.generators), mod)
        except ValueError:
            continue
        direct = h1_presentation(mod).group
        order = 1
        for dv in direct.divisors:
            order *= dv
        assert res.h1_g_order == order, (s.generators, direct, res)


def _known_five_term_defect(reason):
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=reason)


@pytest.mark.parametrize("index", [
    pytest.param(88, marks=_known_five_term_defect(
        "five-term gives |H^1| = 2, presentation 4")),
    pytest.param(89, marks=_known_five_term_defect(
        "five-term gives |H^1| = 2, presentation 4")),
    pytest.param(20, marks=_known_five_term_defect(
        "chase output not in the bottom row")),
])
def test_five_term_known_defects(index):
    # classes of enumerate_subgroups_onto_Q() on which the d2 chase is
    # wrong (88, 89: order 16) or fails its own check (20: order 8),
    # which the seed-23 sample of the test above does not draw; strict,
    # so a fix of the chase shows up as an unexpected pass
    s = enumerate_subgroups_onto_Q()[index]
    n, t = semidirect_decomposition(s)
    mod = pic_module(s)
    res = five_term_with_d2(
        ExtensionData(h_gens=n.generators, q_gens=t.generators), mod)
    direct = h1_presentation(mod).group
    assert res.h1_g_order == math.prod(direct.divisors), (index, direct)


def test_backend_agreement_every_onto_q_class():
    # presentation against the short resolution wherever one applies, and
    # against the standard complex on the small classes
    from dp2.cli import resolution_h1
    from dp2.galois0 import enumerate_subgroups_onto_Q
    resolved = standard = 0
    for s in enumerate_subgroups_onto_Q():
        pres = h1_of_subgroup(s)
        assert h1_type(s) == pres, s.generators
        res = resolution_h1(s, pic_module(s))
        if res is not None:
            assert res.group == pres, (s.generators, res.backend)
            resolved += 1
        if s.order <= 32:
            assert h1_standard(pic_module(s)).group == pres, s.generators
            standard += 1
    assert (resolved, standard) == (83, 230)


def test_scan_computes_h1_once_per_class(monkeypatch):
    # scan_theorem and fingerprint both read h1_type, which computes once
    # per class; the presentation backend is not run at all
    import dp2.cli as cli
    import dp2.cohomology as cohomology
    import dp2.galois0 as galois0

    computed, presented = [], []
    cokernel, presentation = galois0._h1_cokernel, \
        cohomology.h1_presentation

    def counting_cokernel(s):
        computed.append(s.mask())
        return cokernel(s)

    def counting_presentation(mod):
        presented.append(len(mod.elements))
        return presentation(mod)

    monkeypatch.setattr(galois0, "_H1_BY_MASK", {})
    monkeypatch.setattr(galois0, "_h1_cokernel", counting_cokernel)
    monkeypatch.setattr(cohomology, "h1_presentation", counting_presentation)
    cli.scan_theorem()
    assert len(computed) == len(set(computed)) \
        == len(enumerate_subgroups_onto_Q()) == 243
    assert presented == []


def test_scan_builds_one_echelon_per_class(cold_matrix_caches, monkeypatch):
    # the fixed rank is read from the column echelon behind H^1, so
    # scan_theorem runs no fixed_sublattice, one echelon per class and
    # one per generator element for its cached basis, none of which
    # builds its transform V
    import dp2.cli as cli
    galois0 = cold_matrix_caches
    from dp2.intlin import ColumnEchelon

    kernels, echelons = [], []
    fixed_sublattice, init = galois0.fixed_sublattice, ColumnEchelon.__init__

    def counting_fixed_sublattice(s):
        kernels.append(s.mask())
        return fixed_sublattice(s)

    def counting_init(self, rows_in, transform=True):
        echelons.append(transform)
        init(self, rows_in, transform)

    monkeypatch.setattr(galois0, "_H1_BY_MASK", {})
    monkeypatch.setattr(galois0, "fixed_sublattice", counting_fixed_sublattice)
    monkeypatch.setattr(ColumnEchelon, "__init__", counting_init)
    cli.scan_theorem()
    elements = {g for s in enumerate_subgroups_onto_Q() for g in s.generators}
    assert kernels == []
    assert echelons == [False] * (243 + len(elements))


def test_h1_type_matches_presentation_on_every_class():
    # all 1,500 conjugacy classes of subgroups of G0, onto Q or not
    classes = all_subgroup_classes()
    assert len(classes) == 1500
    for mask in classes:
        s = Subgroup(mask)
        assert h1_type(s) == h1_presentation(pic_module(s)).group, \
            s.generators


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_h1_type_ignores_redundant_generators(data):
    subs = enumerate_subgroups_onto_Q()
    s = subs[data.draw(st.integers(0, len(subs) - 1))]
    extra = data.draw(st.lists(st.sampled_from(s.elements), max_size=4))
    gens = data.draw(st.permutations(list(s.generators) + extra))
    redundant = generate_subgroup(gens)
    assert redundant.mask() == s.mask()
    assert _h1_cokernel(redundant) == (h1_type(s), fixed_rank(s))


def test_h1_type_checks_that_the_order_kills_h1(monkeypatch):
    import dp2.galois0 as galois0
    from dp2.intlin import smith_normal_form

    def with_a_three(m, transforms=True):
        dec = smith_normal_form(m, transforms)
        return dec._replace(divisors=dec.divisors + (3,))

    monkeypatch.setattr(galois0, "smith_normal_form", with_a_three)
    with pytest.raises(AssertionError, match="do not divide"):
        _h1_cokernel(G0)


def _resolution_oracle(kind, mod, gens):
    """The hand-written cyclic, bicyclic and tricyclic d1 block rows, with
    B^1 spanned by e -> (e - g.e)_g: (rows, b1)."""
    d = mod.dim
    eye = [[int(i == j) for j in range(d)] for i in range(d)]

    def delta(g):
        return [[a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(eye, mod.mat(g))]

    def norm(g):
        return [[sum(mod.mat(p)[i][j] for p in mod.powers(g))
                 for j in range(d)] for i in range(d)]

    def neg(m):
        return [[-x for x in row] for row in m]

    if kind == "cyclic":
        (g,) = gens
        blocks = [[norm(g)]]
    elif kind == "bicyclic":
        g, h = gens
        blocks = [[norm(g), None],
                  [delta(h), neg(delta(g))],
                  [None, norm(h)]]
    else:
        g, h, u = gens
        blocks = [[norm(g), None, None],
                  [delta(h), neg(delta(g)), None],
                  [None, norm(h), None],
                  [delta(u), None, neg(delta(g))],
                  [None, delta(u), neg(delta(h))],
                  [None, None, norm(u)]]
    rows = [[x for blk in block_row
             for x in ([0] * d if blk is None else blk[i])]
            for block_row in blocks for i in range(d)]
    b1 = [tuple(x for g in gens for x in map(operator.sub, e,
                                             mod.act(g, e)))
          for e in map(tuple, eye)]
    return rows, b1


def _assert_resolution_matches_oracle(kind, mod, gens):
    rows, b1, nslots = _resolution_maps(kind, mod, gens)
    assert nslots == len(gens)
    rows_o, b1_o = _resolution_oracle(kind, mod, gens)
    assert rows == rows_o
    assert b1 == [tuple(-x for x in v) for v in b1_o]


def test_product_resolution_matches_hand_written_tricyclic(generic_h):
    _assert_resolution_matches_oracle("tricyclic", generic_h, H_GENS)


@cyclic_cases
def test_product_resolution_matches_hand_written_cyclic(mod):
    _assert_resolution_matches_oracle("cyclic", mod, mod.gens())


def test_product_resolution_matches_hand_written_every_abelian_class():
    # the one loop gives the hand-written rows on every onto-Q class where
    # resolution_h1 takes an abelian product resolution
    from dp2.galois0 import _abelian_generators, \
        enumerate_subgroups_onto_Q, is_abelian
    kinds = {1: "cyclic", 2: "bicyclic", 3: "tricyclic"}
    seen = collections.Counter()
    for s in enumerate_subgroups_onto_Q():
        gens = _abelian_generators(s) if is_abelian(s) else None
        if gens is not None:
            kind = kinds[len(gens)]
            _assert_resolution_matches_oracle(kind, pic_module(s), gens)
            seen[kind] += 1
    assert seen == {"bicyclic": 20, "tricyclic": 39}


@pytest.mark.parametrize("mod", [
    cyclic_module(1, ((1, 0), (0, 1))),
    pic_module(generate_subgroup([])),
], ids=["cyclic1", "pic-trivial"])
def test_trivial_group_through_every_backend(mod):
    for res in (h1_presentation(mod), h1_standard(mod),
                h1_via_resolution("cyclic", mod)):
        assert res.group == AbelianGroupType((), 0), res.backend
        assert res.representatives == ()


def test_resolution_h1_on_the_trivial_group():
    # the abelian path gives what the removed order-1 branch returned
    from dp2.cli import resolution_h1
    from dp2.galois0 import IDENTITY
    s = generate_subgroup([])
    got = resolution_h1(s, pic_module(s))
    want = h1_via_resolution("cyclic", pic_module(s), gens=(IDENTITY,))
    assert (got.group, got.representatives, got.backend) \
        == (want.group, want.representatives, want.backend) \
        == (AbelianGroupType((), 0), (), "resolution:cyclic")


def test_product_resolution_refuses_a_non_basis():
    rot = cyclic_module(4, ((0, -1), (1, 0)))
    with pytest.raises(ValueError, match="direct-product basis"):
        _resolution_maps("bicyclic", rot, (1, 1))      # orders 4.4 != 4
    with pytest.raises(ValueError, match="direct-product basis"):
        _resolution_maps("bicyclic", rot, (1,))


def test_five_term_refuses_the_order8_normal_part_of_class_204():
    # semidirect_decomposition hands class 204 two order-4 generators of
    # an order-8 normal part; the product resolution of Z/4 x Z/4 gave
    # |H^1(G)| = 2 against the true 4
    s = enumerate_subgroups_onto_Q()[204]
    n, t = semidirect_decomposition(s)
    assert n.order == 8 and [g.order() for g in n.generators] == [4, 4]
    assert h1_of_subgroup(s).divisors == (4,)
    with pytest.raises(ValueError, match="direct-product basis"):
        five_term_with_d2(ExtensionData(h_gens=n.generators,
                                        q_gens=t.generators), pic_module(s))
