import random

import pytest

from dp2.cohomology import (
    ExtensionData,
    GModule,
    cyclic_module,
    five_term_with_d2,
    h1_of_subgroup,
    h1_presentation,
    h1_standard,
    h1_via_resolution,
    invariants_H0,
    pic_module,
    sigma1_to_standard,
    standard_cocycle_checks,
    submodule_on_invariants,
    _cayley_cocycles,
    _resolution_maps,
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
    generate_subgroup,
)
from dp2.intlin import ColumnEchelon
from dp2.picard import Triple, build_lattice

H_GENS = (IOTA_A, IOTA_B, IOTA_A * IOTA_B * IOTA_C)


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


def test_standard_refuses_non_generating_generators():
    s = generate_subgroup([IOTA_A, IOTA_B])
    base = pic_module(s)
    mod = GModule(elements=s.elements, identity=IDENTITY, mul=base.mul,
                  dim=8, matrices=base.matrices, generators=(IOTA_A,))
    with pytest.raises(AssertionError):
        h1_standard(mod)


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


def _contains(basis, vecs):
    if not basis:
        return not any(any(v) for v in vecs)
    ech = ColumnEchelon([[b[i] for b in basis] for i in range(len(basis[0]))])
    return all(ech.solve(list(v))[0] is not None for v in vecs)


@pytest.mark.parametrize("mod", [
    cyclic_module(2, ((-1,),)),
    cyclic_module(2, ((0, 1), (1, 0))),
    cyclic_module(3, ((1,),)),
    cyclic_module(4, ((0, -1), (1, 0))),
], ids=["negation", "swap", "trivial3", "rotation4"])
def test_cayley_rows_cut_out_the_pairwise_cocycles_cyclic(mod):
    pairwise, cayley = _pairwise_cocycles(mod), _cayley_cocycles(mod)
    assert len(pairwise) == len(cayley)
    assert _contains(pairwise, cayley) and _contains(cayley, pairwise)


def test_cayley_rows_cut_out_the_pairwise_cocycles_small_classes():
    # the same lattice Z^1, by mutual membership, on every onto-Q class
    # of order <= 8
    from dp2.galois0 import enumerate_subgroups_onto_Q
    checked = 0
    for s in enumerate_subgroups_onto_Q():
        if s.order > 8:
            continue
        mod = pic_module(s)
        pairwise, cayley = _pairwise_cocycles(mod), _cayley_cocycles(mod)
        assert len(pairwise) == len(cayley), s.generators
        assert _contains(pairwise, cayley), s.generators
        assert _contains(cayley, pairwise), s.generators
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
    from dp2.galois0 import semidirect_decomposition, enumerate_subgroups_onto_Q
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
        if not is_abelian(n.elements) or not is_abelian(t.elements):
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


def test_backend_agreement_every_onto_q_class():
    # presentation against the short resolution wherever one applies, and
    # against the standard complex on the small classes
    from dp2.cli import resolution_h1
    from dp2.galois0 import enumerate_subgroups_onto_Q
    resolved = standard = 0
    for s in enumerate_subgroups_onto_Q():
        pres = h1_of_subgroup(s)
        res = resolution_h1(s)
        if res is not None:
            assert res.group == pres, (s.generators, res.backend)
            resolved += 1
        if s.order <= 32:
            assert h1_standard(pic_module(s)).group == pres, s.generators
            standard += 1
    assert (resolved, standard) == (83, 230)


def test_scan_computes_h1_once_per_class(monkeypatch):
    import dp2.cli as cli
    import dp2.cohomology as cohomology
    from dp2.galois0 import enumerate_subgroups_onto_Q

    calls = []
    original = cohomology.h1_presentation

    def counting(mod):
        calls.append(len(mod.elements))
        return original(mod)

    # the per-class cache starts empty; both module bindings count
    monkeypatch.setattr(cohomology, "_H1_BY_MASK", {}, raising=False)
    monkeypatch.setattr(cohomology, "h1_presentation", counting)
    monkeypatch.setattr(cli, "h1_presentation", counting)
    cli.scan_theorem()
    assert len(calls) == len(enumerate_subgroups_onto_Q()) == 243
