"""Acceptance gate: the ten end-to-end criteria, one test (and one
pass/fail line) per criterion, each with its wall-clock budget."""

import random
import time
from fractions import Fraction

import sympy

from dp2.cli import (
    analyze_surface,
    resolution_h1,
    scan_theorem,
)
from dp2.cohomology import (
    ExtensionData,
    GModule,
    five_term_with_d2,
    h1_of_subgroup,
    h1_presentation,
    h1_standard,
    pic_module,
    sigma1_to_standard,
    standard_cocycle_checks,
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
    abelianization,
    act_on_curve,
    fixed_sublattice,
    generate_subgroup,
    matrix_of,
    verify_action_homomorphism,
)
from dp2.kummer import (
    TABLE2,
    contained_up_to_symmetry,
    galois_group,
    row_subgroup,
    table2_match,
)
from dp2.local.cubic import (
    column_identity_check,
    cubic_pipeline,
    is_cube_free_generic,
)
from dp2.local.examples import (
    build_ex71,
    build_ex72,
    build_ex73,
    build_ex74,
    build_ex75,
    ex74_17adic_liftable_check,
    lemma_check,
    obstruct_ex71,
    obstruct_ex72,
    obstruct_ex73,
    obstruct_ex74,
    obstruct_ex75,
    obstruct_ex75_two_torsion,
    represent_u2_plus_2v2,
)
from dp2.local.hilbert import hilbert_symbol, relevant_places
from dp2.local.padic import compile_poly, eval_terms, padic_point_classes
from dp2.local.padic import X, Y, Z
from dp2.local.quartic import ex75_17adic_values, mod32_membership
from dp2.picard import (
    ANTICANONICAL,
    GRAM,
    build_lattice,
    intersection,
    table1_identities,
    verify_lattice,
)

ZERO = Fraction(0)
HALF = Fraction(1, 2)

H_GENS = (IOTA_A, IOTA_B, IOTA_A * IOTA_B * IOTA_C)


class _budget:
    """Context manager asserting the block stays under its time budget
    and printing the criterion's pass line."""

    def __init__(self, n, limit, desc):
        self.n, self.limit, self.desc = n, limit, desc

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.n}: {status} ({elapsed:.1f}s) {self.desc}")
        if exc_type is None:
            assert elapsed < self.limit, \
                f"criterion {self.n} exceeded {self.limit}s: {elapsed:.1f}s"
        return False


def test_criterion_01_lattice():
    with _budget(1, 5, "Picard lattice suite"):
        lat = build_lattice()
        report = verify_lattice(lat)
        assert report.ok, report.mismatches
        assert len(lat.class_table) == 56
        idents = table1_identities()
        assert len(idents) == 20
        for lab, vec in idents.items():
            assert lat.class_table[lab] == vec
        assert intersection(lat.anticanonical, lat.anticanonical) == 2


def test_criterion_02_galois_action():
    with _budget(2, 5, "Galois action tables and gram isometries"):
        verify_action_homomorphism()
        lat = build_lattice()
        gens = (IOTA_A, IOTA_B, IOTA_C, SIGMA, TAU)
        for g in gens:
            m = matrix_of(g)

            def apply(v):
                return tuple(sum(m[(i, j)] * v[j] for j in range(8))
                             for i in range(8))

            # matrix route agrees with the symbolic curve action on all
            # 56 classes
            for lab, vec in lat.class_table.items():
                assert apply(vec) == lat.class_table[act_on_curve(g, lab)]
            assert apply(ANTICANONICAL) == ANTICANONICAL
            for i in range(8):
                e_i = tuple(1 if t == i else 0 for t in range(8))
                for j in range(8):
                    e_j = tuple(1 if t == j else 0 for t in range(8))
                    dot = lambda x, y: sum(
                        gi * a * b for gi, a, b in zip(GRAM, x, y))
                    assert dot(apply(e_i), apply(e_j)) == dot(e_i, e_j)
        # homomorphism into the isometries on a sample of products
        rng = random.Random(2)
        for _ in range(40):
            a, b = rng.choice(ALL_ELEMENTS), rng.choice(ALL_ELEMENTS)
            mab = matrix_of(a * b)
            ma, mb = matrix_of(a), matrix_of(b)
            for i in range(8):
                for j in range(8):
                    assert mab[(i, j)] == sum(
                        ma[(i, k)] * mb[(k, j)] for k in range(8))


def test_criterion_03_generic_cohomology():
    with _budget(3, 30, "generic H^1 = Z/2 by two independent routes"):
        # route 1: presentation backend on the full group
        assert h1_of_subgroup(G0).divisors == (2,)
        # route 2: five-term sequence through H of type Z/2 + Z/4 + Z/4
        h = generate_subgroup(list(H_GENS))
        assert h.order == 32 and abelianization(h) == (2, 4, 4)
        res = five_term_with_d2(
            ExtensionData(h_gens=H_GENS, q_gens=(SIGMA, TAU)),
            pic_module(G0))
        assert res.h1_q_inv.group.divisors == ()
        assert res.h1_h.group.divisors == (2,)
        assert res.q_invariant_type.divisors == (2,)
        assert res.d2_kernel_order == 2  # d2 = 0 exactly
        assert res.h1_g_order == 2
        # the published cocycle u is accepted as a nontrivial class
        hmod = GModule(elements=h.elements, identity=IDENTITY,
                       mul=lambda a, b: a * b, dim=8,
                       matrices=pic_module(h).matrices,
                       generators=H_GENS)
        u = ((0, 0, 0, 0, -1, -1, -1, 1),
             (0, 0, 0, 0, -1, 1, 0, 0),
             (0, 0, 0, 0, -2, 0, -1, 1))
        from dp2.cohomology import h1_via_resolution
        res_h = h1_via_resolution("tricyclic", hmod, gens=H_GENS)
        assert res_h.group.divisors == (2,)
        flat = tuple(x for v in u for x in v)
        rows, _, _ = _resolution_maps("tricyclic", hmod, H_GENS)
        assert all(sum(r[j] * flat[j] for j in range(24)) == 0
                   for r in rows)
        assert res_h._subq.class_coords(flat) == (1,)
        c = sigma1_to_standard("tricyclic", hmod, H_GENS, u)
        assert standard_cocycle_checks(hmod, c)
        # the published v0 is a valid descent preimage for u
        mod = pic_module(G0)
        v0 = {SIGMA: (0, 0, 0, 0, -1, 1, 0, 0),
              TAU: (0, 0, 0, 0, -1, -1, -1, 1)}
        for r, vec in v0.items():
            ri = r.inverse()
            for hp in h.elements:
                lhs = tuple(x - y for x, y in
                            zip(c[hp], mod.act(r, c[ri * hp * r])))
                rhs = tuple(x - y for x, y in zip(mod.act(hp, vec), vec))
                assert lhs == rhs


def test_criterion_04_worked_examples():
    with _budget(4, 60, "worked-example Brauer groups"):
        r = analyze_surface(-6, -3, 2)
        assert r["galois"]["order"] == 32
        assert r["brauer"]["divisors"] == [2]
        # the index-2 subgroup has trivial H^1 and fixed rank 2
        hsub = generate_subgroup([IOTA_A * IOTA_B,
                                  SIGMA * TAU * IOTA_A * IOTA_C])
        s = galois_group(-6, -3, 2)
        assert all(g in s for g in hsub.elements)
        assert h1_of_subgroup(hsub).divisors == ()
        assert len(fixed_sublattice(hsub)) == 2

        r = analyze_surface(1, 1, -2)
        assert r["pic_rank"] == 2 and r["brauer"]["divisors"] == [2]

        r = analyze_surface(1, 1, 1)
        assert r["galois"]["order"] == 4
        assert abelianization(galois_group(1, 1, 1)) == (2, 2)
        assert r["brauer"]["divisors"] == [2, 2, 2]
        assert r["pic_rank"] == 1

        r = analyze_surface(-9826, -2, 136)
        assert r["galois"]["order"] == 16
        assert r["brauer"]["divisors"] == [4]

        r = analyze_surface(34, 34, 34)
        assert r["brauer"]["divisors"] == [2, 2, 2]

        r = analyze_surface(-25, -5, 45)
        assert r["galois"]["order"] == 32
        assert r["brauer"]["divisors"] == [2]


def test_criterion_05_table2_rows():
    with _budget(5, 60, "all 12 classification rows"):
        assert len(TABLE2) == 12
        for row in TABLE2:
            g = galois_group(*row.example)
            assert contained_up_to_symmetry(g, row_subgroup(row))
            r = analyze_surface(*row.example)
            assert r["table2_row"] == row.index
            assert tuple(r["brauer"]["divisors"]) == row.br_divisors
            assert r["pic_rank"] == row.pic_rank


def test_criterion_06_theorem_scan():
    with _budget(6, 600, "subgroup scan with the six-group list"):
        report = scan_theorem()
        assert report["h1_types"] == [
            (), (2,), (4,), (2, 2), (2, 4), (2, 2, 2)]
        f, mid, u = report["sandwich"]
        assert f <= 194 <= u


def test_criterion_07_backend_equivalence():
    with _budget(7, 180, "cohomology backend equivalence"):
        rng = random.Random(194)
        tested = resolved = 0
        while tested < 50:
            gens = rng.sample(ALL_ELEMENTS, rng.choice((1, 2, 3)))
            s = generate_subgroup(gens)
            if s.order > 32:
                continue
            mod = pic_module(s)
            a = h1_standard(mod).group
            b = h1_presentation(mod).group
            assert a == b, (gens, a, b)
            res = resolution_h1(s, mod)
            if res is not None:
                assert res.group == a, (gens, res.backend)
                resolved += 1
            tested += 1
        assert resolved >= 10


def test_criterion_08_local_suite():
    with _budget(8, 300, "local obstruction suite"):
        # conic-tangency surface (-25, -5, 45)
        cells = [c for c in padic_point_classes(-25, -5, 45, 2, 5)
                 if c.liftable]
        chart = {(c.x % 8, c.y % 8) for c in cells
                 if c.unit_coordinate == "z"}
        assert chart == {(1, 2), (1, 6), (3, 0), (3, 4), (5, 0), (5, 4),
                         (7, 2), (7, 6)}
        terms = compile_poly(
            (-5 * X ** 2 - 2 * Y ** 2 + 9 * Z ** 2) * Z ** 2)
        assert {eval_terms(terms, c.w, c.x, c.y, c.z, 16)
                for c in cells} == {12}
        v = obstruct_ex71(samples=30000)
        assert v.conclusion == "obstructed"
        by_place = {pr.place: pr for pr in v.profiles}
        assert by_place[3].invariants == frozenset({(ZERO,)})

        # the (-2p, -p, 2) family
        for p in (3, 19, 67, 83):
            u, vv, s = represent_u2_plus_2v2(p)
            assert p == u * u + 2 * vv * vv
            assert lemma_check(p)
            fam = obstruct_ex72(p, samples=30000)
            assert fam.conclusion == "obstructed"
            fam_places = {pr.place: pr for pr in fam.profiles}
            assert fam_places[2].invariants == frozenset({(HALF,)})
            assert fam_places[p].invariants == frozenset({(ZERO,)})
        for p in sympy.primerange(3, 10 ** 4):
            if p % 16 == 3:
                assert lemma_check(p), p

        # generic conic-bundle recipe on (-126, -91, 78)
        ex = build_ex73(-126, -91, 78, point=(-13, 0, -12, 0, 21))
        assert len(ex.transcript) == 2
        v = obstruct_ex73(-126, -91, 78, samples=30000)
        assert v.conclusion == "obstructed"
        for pr in v.profiles:
            want = {(HALF,)} if pr.place == 2 else {(ZERO,)}
            assert pr.invariants == frozenset(want), pr.place

        # descent classes on (34, 34, 34)
        ex = build_ex74()
        assert len(ex.transcript) == 7  # relations, printed h1, products
        assert ex74_17adic_liftable_check() > 0
        assert obstruct_ex74(samples=30000).conclusion == "obstructed"

        # the order-4 class on (-9826, -2, 136)
        ex = build_ex75()
        assert len(ex.transcript) == 6  # unit-modulus + cocycle facts
        values, flags, _ = ex75_17adic_values()
        assert values == frozenset({8, 15})
        assert not any(flags.values())  # both quartic non-residues
        covered, _, _ = mod32_membership()
        assert covered
        tw = obstruct_ex75_two_torsion(samples=20000)
        assert tw.conclusion == "not_obstructed_by_class"
        assert all(pr.invariants == frozenset({(ZERO,)})
                   for pr in tw.profiles)
        assert obstruct_ex75().conclusion == "obstructed"


def test_criterion_09_cubic_appendix():
    with _budget(9, 120, "diagonal cubic pipeline"):
        for coeffs in ((1, 2, 3, 4), (2, 3, 5, 7), (1, 2, 3, 5)):
            assert column_identity_check(*coeffs)
        assert not is_cube_free_generic(1, 1, 2, 3)
        rep = cubic_pipeline(1, 2, 3, 4)
        assert rep.norm_solution is not None
        assert rep.h is not None
        x, y, z, t = sympy.symbols("x y z t")
        form = x ** 3 + 2 * y ** 3 + 3 * z ** 3 + 4 * t ** 3
        ratio = sympy.cancel(rep.h / form)
        assert ratio.has(x) or ratio.has(y) or ratio.has(z) \
            or ratio.has(t)


def test_criterion_10_hilbert_product_formula():
    with _budget(10, 10, "Hilbert product formula, 1000 random pairs"):
        rng = random.Random(10)
        for _ in range(1000):
            a = Fraction(rng.randint(-60, 60) or 1,
                         rng.randint(1, 40))
            b = Fraction(rng.randint(-60, 60) or 1,
                         rng.randint(1, 40))
            product = 1
            for place in relevant_places(a, b):
                product *= hilbert_symbol(a, b, place)
            assert product == 1, (a, b)
