import itertools
import random
from fractions import Fraction

import pytest
import sympy

from dp2.local import CapacityError
from dp2.local.examples import (
    _ex74_degree_certificate,
    _find_conic_point,
    build_ex71,
    build_ex72,
    build_ex73,
    build_ex74,
    build_ex75,
    ex72_profile_at_p,
    ex74_17adic_check,
    ex74_17adic_liftable_check,
    is_generic_triple,
    lemma_check,
    obstruct_ex71,
    obstruct_ex72,
    obstruct_ex73,
    obstruct_ex74,
    obstruct_ex75,
    obstruct_ex75_two_torsion,
    represent_u2_plus_2v2,
    square_d_profile,
)
from dp2.local.padic import (
    QuaternionClass,
    invariant_profile,
    real_profile,
    real_witness,
)
from dp2.local.poly import U, W, X, Y, Z, Poly

ZERO = Fraction(0)
HALF = Fraction(1, 2)

FAMILY_PRIMES = (3, 19, 67, 83)


# --- first conic-tangency surface ----------------------------------------

def test_ex71_identity_and_verdict():
    ex = build_ex71()
    assert ex.surface == (-25, -5, 45)
    assert len(ex.transcript) == 1
    v = obstruct_ex71(samples=20000)
    assert v.conclusion == "obstructed"
    by_place = {pr.place: pr for pr in v.profiles}
    assert by_place[2].invariants == frozenset({(HALF,)})
    for place in ("R", 3, 5):
        assert by_place[place].invariants == frozenset({(ZERO,)})


# --- parametric family ----------------------------------------------------

def test_representation_values():
    assert represent_u2_plus_2v2(3) == (1, 1, 1)
    assert represent_u2_plus_2v2(19) == (1, 3, -1)
    assert represent_u2_plus_2v2(67) == (7, 3, 1)
    assert represent_u2_plus_2v2(83) == (9, 1, 1)


def test_representation_rejects_wrong_primes():
    with pytest.raises(ValueError):
        represent_u2_plus_2v2(4)
    with pytest.raises(ValueError):
        represent_u2_plus_2v2(17)  # 1 mod 16


def test_quartic_residue_lemma_small_range():
    for p in sympy.primerange(3, 1000):
        if p % 16 == 3:
            assert lemma_check(p), p


def test_family_profiles_and_verdicts():
    for p in FAMILY_PRIMES:
        ex = build_ex72(p)
        assert ex.surface == (-2 * p, -p, 2)
        prof = ex72_profile_at_p(p)
        assert prof.invariants == frozenset({(ZERO,)})
        v = obstruct_ex72(p, samples=20000)
        assert v.conclusion == "obstructed", p
        by_place = {pr.place: pr for pr in v.profiles}
        assert by_place[2].invariants == frozenset({(HALF,)})
        assert by_place[p].invariants == frozenset({(ZERO,)})


# --- generic conic-bundle recipe ------------------------------------------

def test_genericity_gate():
    assert is_generic_triple(-126, -91, 78)
    assert not is_generic_triple(1, 1, 1)  # products are squares
    assert not is_generic_triple(-2, 3, 5)  # -2*(-2)*... includes squares
    with pytest.raises(ValueError):
        build_ex73(1, 1, 1)


def test_generic_surface_class_and_verdict():
    ex = build_ex73(-126, -91, 78)
    q = ex.classes[0]
    assert q.d == Fraction(-(-126) * (-91) * 78)
    num, den = q.g
    assert num == 3 * X ** 4 + 2 * X ** 2 * Y ** 2 + 3 * X ** 2 * Z ** 2
    assert den == X ** 4
    v = obstruct_ex73(-126, -91, 78, samples=20000)
    assert v.conclusion == "obstructed"
    for pr in v.profiles:
        want = {(HALF,)} if pr.place == 2 else {(ZERO,)}
        assert pr.invariants == frozenset(want), pr.place


def test_square_place_settles_at_the_first_liftable_level():
    # Q_3 of (-2106, -216, 540) has its first liftable class at depth 5
    pr = square_d_profile(1, -2106, -216, 540, 3)
    assert (pr.modulus, pr.invariants, pr.method) \
        == (3 ** 5, frozenset({(ZERO,)}), "analytic")


def test_square_place_with_a_dead_cover_is_empty():
    # w^2 = 2x^4 + 3y^4 + 3z^4 forces x = 0, then y = z = 0 mod 3: no
    # class survives mod 9, and the attained set is empty, as the
    # enumeration of invariant_profile finds it
    pr = square_d_profile(1, 2, 3, 3, 3)
    assert (pr.modulus, pr.invariants) == (9, frozenset())
    assert not invariant_profile([QuaternionClass(1, (X ** 2, X ** 2))],
                                 2, 3, 3, 3).invariants


def test_square_place_without_a_liftable_class_by_the_cap(monkeypatch):
    import dp2.local.examples as examples
    monkeypatch.setattr(examples, "DEPTH_CAP_ODD", 4)
    with pytest.raises(CapacityError, match=r"S\(Q_3\) by depth 4"):
        square_d_profile(1, -2106, -216, 540, 3)


def _conic_point_by_scan(A, B, C, bound):
    """_find_conic_point with every s0 of the rational search tried in
    turn: the reference for its square-root step."""
    for t0 in range(1, bound * 2 + 1):
        for r0 in range(-2 * bound, 2 * bound + 1):
            for s0 in range(-2 * bound, 2 * bound + 1):
                if (r0 or s0) and A * r0 ** 2 + B * s0 ** 2 \
                        + C * t0 ** 2 == 0:
                    return (r0, 0, s0, 0, t0)
    rng = range(-bound, bound + 1)
    for t0 in range(1, bound + 1):
        for r1, r2, s1, s2 in itertools.product(rng, repeat=4):
            if (r1 or r2 or s1 or s2) \
                    and A * (r1 * r1 - A * B * C * r2 * r2) \
                    + B * (s1 * s1 - A * B * C * s2 * s2) + C * t0 * t0 == 0 \
                    and A * r1 * r2 + B * s1 * s2 == 0:
                return (r1, r2, s1, s2, t0)
    return None


def test_conic_point_matches_scan():
    rng = random.Random(11)
    triples = [(-126, -91, 78), (1, 1, -2), (2, -1, -1), (3, 5, 7)]
    triples += [tuple(rng.choice([-1, 1]) * rng.randint(1, 60)
                      for _ in range(3)) for _ in range(150)]
    found = 0
    for A, B, C in triples:
        for bound in (1, 2, 3):
            want = _conic_point_by_scan(A, B, C, bound)
            assert _find_conic_point(A, B, C, bound) == want, (A, B, C)
            found += want is not None and want[1] == want[3] == 0
    assert found  # the rational search was taken
    assert _find_conic_point(-126, -91, 78, 12) \
        == _conic_point_by_scan(-126, -91, 78, 12) == (-13, 0, -12, 0, 21)


def test_generic_recipe_accepts_supplied_point():
    ex = build_ex73(-126, -91, 78, point=(-13, 0, -12, 0, 21))
    assert len(ex.transcript) == 2


def test_generic_recipe_rejects_wrong_point():
    with pytest.raises(AssertionError):
        build_ex73(-126, -91, 78, point=(1, 0, 1, 0, 1))


#: a conic point over Q(theta) with theta^2 = -ABC = 585: r0 = theta
THETA_POINT = (0, 1, 39, 0, 18)


def test_generic_recipe_theta_point_class():
    ex = build_ex73(-15, 3, 13, point=THETA_POINT)
    assert len(ex.transcript) == 2
    num, den = ex.classes[0].g
    assert num == 5 * W * X ** 2 + 6 * X ** 2 * Y ** 2 - 13 * X ** 2 * Z ** 2
    assert den == X ** 4


def test_generic_recipe_rejects_wrong_theta_point():
    for point in ((0, 1, 38, 0, 18), (0, 2, 39, 0, 18), (1, 1, 39, 0, 18)):
        with pytest.raises(AssertionError, match="verification failed"):
            build_ex73(-15, 3, 13, point=point)


def _perturb(expr):
    """expr with 1 added to its lex leading coefficient."""
    return expr + Poly({max(expr.terms, default=(0,) * 6): 1})


#: (builder, index of its polynomial identity among the _vanishes calls)
IDENTITIES = [
    (build_ex71, 0),
    (lambda: build_ex72(19), 0),
    (lambda: build_ex73(-126, -91, 78), 0),
    (lambda: build_ex73(-126, -91, 78), 1),
    (lambda: build_ex73(-15, 3, 13, point=THETA_POINT), 0),
    (lambda: build_ex73(-15, 3, 13, point=THETA_POINT), 1),
    (build_ex75, 0),
    (build_ex75, 1),
    # three descent relations, h1, and three product identities
    *((build_ex74, k) for k in range(7)),
]


@pytest.mark.parametrize("build, index", IDENTITIES)
def test_perturbed_identity_fails_verification(monkeypatch, build, index):
    import dp2.local.examples as examples

    calls = []
    original = examples._vanishes

    def perturbed(expr, *relations):
        calls.append(expr)
        if len(calls) == index + 1:
            expr = _perturb(expr)
        return original(expr, *relations)

    for name in ("build_ex71", "build_ex72", "build_ex73", "build_ex74",
                 "build_ex75"):
        getattr(examples, name).cache_clear()
    monkeypatch.setattr(examples, "_vanishes", perturbed)
    with pytest.raises(AssertionError, match="verification failed"):
        build()
    assert len(calls) == index + 1


# --- descent-constructed classes on (34, 34, 34) --------------------------

def test_descent_relations_and_products():
    ex = build_ex74()
    assert ex.surface == (34, 34, 34)
    assert len(ex.classes) == 6
    assert len(ex.transcript) == 7  # 3 relations + h1 + 3 product identities
    assert all(q.d == Fraction(-17) for q in ex.classes)


def test_degree_certificate_accepts_the_descent_tower():
    _ex74_degree_certificate()
    _ex74_degree_certificate(-17 * 9)
    # the default coefficients are those of Phi_8(x + 1) = (x + 1)^4 + 1
    shifted = (U + 1) ** 4 + 1
    assert tuple(shifted.terms.get((0,) * 5 + (k,), 0)
                 for k in range(4, -1, -1)) == (1, 4, 6, 4, 2)


@pytest.mark.parametrize("d", [-1, 2, -2, -18, 1, 4, -4, 8])
def test_degree_certificate_refuses_d_in_zeta8(d):
    # each d lies in <-1, 2> Q*^2, so sqrt(d) is already in Q(zeta_8)
    with pytest.raises(AssertionError, match="verification failed"):
        _ex74_degree_certificate(d)


@pytest.mark.parametrize("shifted", [(1, 4, 6, 4, 4), (1, 4, 6, 4, 0),
                                     (2, 4, 6, 4, 2), (1, 4, 5, 4, 2),
                                     (1, 0, 0, 0, 1)])
def test_degree_certificate_refuses_non_eisenstein_phi8(shifted):
    with pytest.raises(AssertionError, match="verification failed"):
        _ex74_degree_certificate(shifted=shifted)


def test_descent_17adic_patterns():
    _, patterns = ex74_17adic_check()
    assert patterns == {(0, 1, 1), (1, 0, 1), (1, 1, 0)}


def _ex74_17adic_patterns_oracle():
    """The rows of q1, q2, q3 at 17 over all 17^3 residues (x, y, z)
    with x^4 + y^4 + z^4 = 0 mod 17, off the origin, by Euler's
    criterion on h_i at w = 0: 1 where h_i is a nonsquare mod 17."""
    hs = [q.g[0] for q in build_ex74().classes[:3]]
    rows = set()
    for x, y, z in itertools.product(range(17), repeat=3):
        if (x, y, z) == (0, 0, 0) or (x ** 4 + y ** 4 + z ** 4) % 17:
            continue
        row = []
        for h in hs:
            value = sum(c * x ** ex * y ** ey * z ** ez
                        for (ew, ex, ey, ez, _, _), c in h.terms.items()
                        if ew == 0)
            assert value.denominator == 1 and value % 17
            row.append(int(pow(int(value), 8, 17) == 16))
        rows.add(tuple(row))
    return rows


def test_descent_17adic_patterns_match_the_residue_oracle():
    _, patterns = ex74_17adic_check()
    assert patterns == _ex74_17adic_patterns_oracle()


def test_descent_17adic_liftable_classes():
    assert ex74_17adic_liftable_check() > 0


def test_descent_17adic_reads_one_cover_run(monkeypatch):
    import dp2.local.examples as examples

    runs = []
    real = examples._chart_cells

    def counting(A, B, C, p, *args):
        runs.append(p)
        return real(A, B, C, p, *args)

    monkeypatch.setattr(examples, "_chart_cells", counting)
    assert obstruct_ex74().conclusion == "obstructed"
    assert runs.count(17) == 1


@pytest.mark.parametrize("scaled", range(3))
def test_descent_17adic_check_refuses_a_nonsquare_multiple(scaled,
                                                           monkeypatch):
    # 3 is a nonsquare mod 17: 3 h_i flips its column on every class
    import dp2.local.examples as examples
    from dp2.local.padic import QuaternionClass

    ex = build_ex74()
    q = ex.classes[scaled]
    classes = list(ex.classes)
    classes[scaled] = QuaternionClass(q.d, (3 * q.g[0], q.g[1]), q.label)
    monkeypatch.setattr(examples, "build_ex74",
                        lambda: ex._replace(classes=tuple(classes)))
    with pytest.raises(AssertionError, match="exactly two"):
        ex74_17adic_check()


def test_descent_17adic_check_refuses_a_nonunit_h(monkeypatch):
    import dp2.local.examples as examples
    from dp2.local.padic import QuaternionClass

    ex = build_ex74()
    q = ex.classes[0]
    classes = (QuaternionClass(q.d, (17 * q.g[0], q.g[1]), q.label),
               *ex.classes[1:])
    monkeypatch.setattr(examples, "build_ex74",
                        lambda: ex._replace(classes=classes))
    with pytest.raises(AssertionError, match="h_i not a unit"):
        ex74_17adic_check()


@pytest.mark.parametrize("level, fault, message", [
    (1, lambda cells: [(c[0] + 1, *c[1:]) for c in cells],
     "w a unit mod 17"),
    (2, lambda cells: [(*c[:3], c[3] + 1, *c[4:]) for c in cells],
     "row was not read"),
    (2, lambda cells: [], "no liftable classes"),
    (2, lambda cells: [(*c[:4], 2, c[5]) for c in cells],
     "not a 17\\^3 block"),
])
def test_descent_17adic_check_refuses_a_faulty_cover(level, fault, message,
                                                     monkeypatch):
    # the cover's cells reach the settle hook altered at one level
    import dp2.local.examples as examples

    real = examples._chart_cells

    def faulty(A, B, C, p, k, budget, settle):
        def altered(unit, j, cells):
            return settle(unit, j, fault(cells) if j == level else cells)
        return real(A, B, C, p, k, budget, altered)

    monkeypatch.setattr(examples, "_chart_cells", faulty)
    with pytest.raises(AssertionError, match=message):
        ex74_17adic_check()


def test_descent_real_place_merges_the_partners():
    # the real place of (34, 34, 34) reads the recipe's merge groups
    ex = build_ex74()
    pr = real_profile(ex.classes, 34, 34, 34, merge=ex.merge)
    assert pr.invariants == {(ZERO,) * 3, (HALF,) * 3}
    assert (pr.method, pr.modulus) == ("sampling", None)


@pytest.mark.parametrize("flip", range(6))
def test_descent_real_check_refuses_a_flipped_sign(flip):
    # h_i -> -h_i turns its sign against its partner's on both sheets
    ex = build_ex74()
    q = ex.classes[flip]
    classes = list(ex.classes)
    classes[flip] = QuaternionClass(q.d, (-q.g[0], q.g[1]), q.label)
    with pytest.raises(AssertionError,
                       match="merged class representatives disagree"):
        real_profile(classes, 34, 34, 34, merge=ex.merge)


def test_descent_real_signs():
    # the paper's sign fact: at the witness every h_i is positive on the
    # sheet w > 0 and negative on w < 0, so each (-17, h_i) is unramified
    # on the first and ramified on the second.  No output depends on the
    # orientation, only on the partners agreeing (real_profile's merge)
    _, signs = real_witness([q.numerator_terms()
                             for q in build_ex74().classes], 34, 34, 34)
    assert signs == [[1] * 6, [-1] * 6]


@pytest.mark.parametrize("build", [
    build_ex71, lambda: build_ex72(3), lambda: build_ex73(-126, -91, 78),
    build_ex74, build_ex75,
], ids=["ex71", "ex72", "ex73", "ex74", "ex75"])
def test_real_profile_merging_a_class_with_itself_changes_nothing(build):
    ex = build()
    cls, n = ex.classes, len(ex.classes)
    merged = real_profile(cls + cls, *ex.surface,
                          merge=tuple((i, n + i) for i in range(n)))
    assert merged == real_profile(cls, *ex.surface)


def test_descent_verdict_obstructed():
    v = obstruct_ex74(samples=30000)
    assert v.conclusion == "obstructed"
    by_place = {pr.place: pr for pr in v.profiles}
    assert by_place[17].invariants == {
        (ZERO, HALF, HALF), (HALF, ZERO, HALF), (HALF, HALF, ZERO)}
    agree = frozenset({(ZERO, ZERO, ZERO), (HALF, HALF, HALF)})
    assert by_place[2].invariants == agree
    assert by_place[2].undetermined == 0
    assert by_place["R"].invariants == agree


#: (coefficients, builder, start of the first fact of a build)
RECIPE_BUILDS = [
    ((-25, -5, 45), "build_ex71", "A x^4 + B y^4 + C z^4 + (3y^2"),
    ((-38, -19, 2), "build_ex72", "19 = 1^2 + 2*3^2"),
    ((-126, -91, 78), "build_ex73", "A r0^2 + B s0^2 + C t0^2 = 0"),
    ((34, 34, 34), "build_ex74", "delta rho(delta) = -1"),
    ((-9826, -2, 136), "build_ex75", "f1 h(f1) = 1"),
]


def test_descent_classes_built_once_per_request(monkeypatch):
    # every recipe, not only the descent classes, is built once
    import dp2.cli as cli
    import dp2.local.examples as examples

    built = []
    original = examples._check

    def counting(condition, message):
        built.extend(first for _, _, first in RECIPE_BUILDS
                     if message.startswith(first))
        return original(condition, message)

    monkeypatch.setattr(examples, "_check", counting)
    for coeffs, builder, first_fact in RECIPE_BUILDS:
        build = getattr(examples, builder)
        build.cache_clear()
        cli.obstruct_surface(*coeffs)
        assert built.count(first_fact) == 1, builder
        # the verdict and the printed transcript read one build
        assert build.cache_info().misses == 1, builder


#: (coefficients, the verdict of the recipe's own entry point)
RECIPE_VERDICTS = [
    ((-25, -5, 45), lambda: obstruct_ex71(samples=1)),
    ((-6, -3, 2), lambda: obstruct_ex72(3, samples=1)),
    ((-454, -227, 2), lambda: obstruct_ex72(227, samples=1)),
    ((-126, -91, 78), lambda: obstruct_ex73(-126, -91, 78, samples=1)),
    ((34, 34, 34), lambda: obstruct_ex74(samples=1)),
    ((-9826, -2, 136), obstruct_ex75),
]


@pytest.mark.parametrize("coeffs, own", RECIPE_VERDICTS,
                         ids=[",".join(map(str, c))
                              for c, _ in RECIPE_VERDICTS])
def test_every_recipe_reads_its_places_in_one_order(coeffs, own):
    # one loop reads R, 2 and the odd primes of ABC in ascending order,
    # whichever places the recipe decides itself; the entry point of each
    # recipe reaches the verdict the CLI reaches on its triple
    import dp2.cli as cli

    v, _ = cli.obstruct_surface(*coeffs)
    a, b, c = coeffs
    odd = sorted(p for p in sympy.factorint(abs(a * b * c)) if p != 2)
    assert [pr.place for pr in v.profiles] == ["R", 2, *odd]
    assert own() == v


def test_two_torsion_verdict_reads_the_same_places():
    v = obstruct_ex75_two_torsion(samples=1)
    assert [pr.place for pr in v.profiles] == ["R", 2, 17]
    assert [pr.method for pr in v.profiles] == [
        "analytic", "exact-enumeration", "analytic"]


def test_class_numerators_compiled_once_per_request(monkeypatch):
    import dp2.cli as cli
    import dp2.local.examples as examples
    import dp2.local.padic as padic

    compiled = []
    original = padic.compile_poly

    def counting(expr):
        compiled.append(original(expr))
        return compiled[-1]

    examples.build_ex74.cache_clear()
    monkeypatch.setattr(padic, "compile_poly", counting)
    cli.obstruct_surface(34, 34, 34)
    runs = list(compiled)
    classes = examples.build_ex74().classes
    assert len(classes) == 6
    for q in classes:
        assert runs.count(q.numerator_terms()) == 1


# --- the order-4 class on (-9826, -2, 136) --------------------------------

def test_order4_cocycle_identities():
    ex = build_ex75()
    assert ex.surface == (-9826, -2, 136)
    # two f h(f) = 1 identities + two curve-class + two cocycle conditions
    assert len(ex.transcript) == 6


def test_order4_norms_from_curve_images_match_the_pic_matrices():
    # the recipe reads N_g v and N_gh v off curve images along words; the
    # matrices of g and g h (each checked on all 56 curves) give the same
    # cycles for v1, v2 and every difference of two curve classes
    from dp2.galois0 import IOTA_A, IOTA_B, IOTA_C, SIGMA, matrix_of
    from dp2.local.examples import _ex75_norms
    from dp2.picard import Triple, all_labels, build_lattice

    g = IOTA_A * IOTA_A * IOTA_A * IOTA_C
    h = IOTA_B * IOTA_C * IOTA_C * IOTA_C * SIGMA
    m_g, m_gh = matrix_of(g).rows, matrix_of(g * h).rows

    def act(m, v):
        return [sum(a * b for a, b in zip(row, v)) for row in m]

    def matrix_norms(v):
        norm_g, cur = [0] * 8, v
        for _ in range(4):
            norm_g = [a + b for a, b in zip(norm_g, cur)]
            cur = act(m_g, cur)
        return [norm_g, [a + b for a, b in zip(v, act(m_gh, v))]]

    lat = build_lattice()
    pairs = [(Triple(0, 1, 0), Triple(1, 2, 2)),
             (Triple(0, 2, 1), Triple(1, 1, 1))]
    for plus, minus in pairs:
        assert _ex75_norms(lat.cls, plus, minus) == [[0] * 8, [0] * 8]
    pairs += itertools.permutations(all_labels(), 2)
    for plus, minus in pairs:
        v = [a - b for a, b in zip(lat.cls(plus), lat.cls(minus))]
        assert _ex75_norms(lat.cls, plus, minus) == matrix_norms(v), \
            (plus, minus)


def test_order4_verdict_obstructed():
    v = obstruct_ex75()
    assert v.conclusion == "obstructed"
    by_place = {pr.place: pr for pr in v.profiles}
    assert by_place[17].invariants == frozenset({(HALF,)})
    assert by_place[2].invariants == frozenset({(ZERO,)})
    assert by_place["R"].invariants == frozenset({(ZERO,)})


def test_order4_two_torsion_alone_does_not_obstruct():
    v = obstruct_ex75_two_torsion(samples=20000)
    assert v.conclusion == "not_obstructed_by_class"
    for pr in v.profiles:
        assert pr.invariants == frozenset({(ZERO,)})


# --- exact 2-adic and odd-place profiles ---------------------------------

# undetermined counts the classes of padic's disjoint chart cover, one
# per point up to a unit rescaling
@pytest.mark.parametrize("build, p, k_cap, merge, modulus, invariants, "
                         "undetermined", [
    (build_ex71, 2, None, None, 128, {(HALF,)}, 0),
    (build_ex71, 2, 3, None, 8, set(), 64),
    (build_ex71, 3, None, None, 9, {(ZERO,)}, 0),
    (build_ex71, 5, None, None, 125, {(ZERO,)}, 0),
    (build_ex74, 2, None, build_ex74().merge, 128,
     {(ZERO,) * 3, (HALF,) * 3}, 0),
    (build_ex74, 2, 4, build_ex74().merge, 16, set(), 768),
    (lambda: build_ex73(-126, -91, 78), 2, 3, None, 8, set(), 32),
    (lambda: build_ex73(-126, -91, 78), 7, None, None, 343, {(ZERO,)}, 0),
    (lambda: build_ex73(-126, -91, 78), 13, None, None, 13, {(ZERO,)}, 0),
    (lambda: build_ex72(3), 2, 2, None, 4, set(), 24),
])
def test_invariant_profile_pinned(build, p, k_cap, merge, modulus,
                                  invariants, undetermined):
    ex = build()
    pr = invariant_profile(ex.classes, *ex.surface, p, k_cap=k_cap,
                           merge=merge)
    assert (pr.modulus, pr.invariants, pr.undetermined) \
        == (modulus, frozenset(invariants), undetermined)
