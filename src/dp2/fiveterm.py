"""H^1 of a group extension through the five-term exact sequence.

For G = H x| T with H abelian and normal, H^1(G, M) sits in
0 -> H^1(T, M^H) -> H^1(G, M) -> H^1(H, M)^T -> H^2(T, M^H), whose last
map, the transgression d2, is found by an explicit chase through the
double complex of the short resolutions of T and H.  Also here: the
comparison map from a short-resolution 1-cochain to a standard cocycle,
and the cocycle law on the standard complex.  No subcommand reads this
route; it cross-checks the backends of `cohomology`, which resolves
these names on first use.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .cohomology import (
    _PRODUCT_KINDS,
    CohomologyResult,
    GModule,
    Vec,
    _resolution_maps,
    h1_via_resolution,
)
from .galois0 import _closure_mask, _members
from .intlin import AbelianGroupType, ColumnEchelon, subquotient_structure


def _vec_add(u, v) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def _vec_sub(u, v) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def _vec_scale(c, v) -> Vec:
    return tuple(c * a for a in v)


def _fixed_basis(mod: GModule, elements) -> list[Vec]:
    """Basis of the sublattice of M fixed by every element given."""
    rows = [[x - (1 if i == j else 0) for j, x in enumerate(row)]
            for g in elements for i, row in enumerate(mod.mat(g))]
    return ColumnEchelon(rows or [[0] * mod.dim]).kernel()


def submodule_on_invariants(mod: GModule, h_elements, acting, gens=()) -> \
        tuple[list[Vec], GModule]:
    """Basis of M^H and the induced module of `acting` elements on it.

    `acting` must normalize H so that M^H is stable.  Matrices of the
    induced action are written in the returned basis.
    """
    basis = _fixed_basis(mod, h_elements)
    r = len(basis)
    # solve basis-coordinates of g.b for each basis vector b
    bas_cols = [[basis[j][i] for j in range(r)] for i in range(mod.dim)]
    ech = ColumnEchelon(bas_cols)
    mats = {}
    for g in acting:
        cols = []
        for b in basis:
            img = mod.act(g, b)
            sol, _ = ech.solve(list(img))
            if sol is None:
                raise AssertionError("invariant sublattice not stable")
            cols.append(sol)
        mats[g] = tuple(tuple(cols[j][i] for j in range(r)) for i in range(r))
    sub = GModule(elements=tuple(acting), identity=mod.identity, mul=mod.mul,
                  dim=r, matrices=mats, generators=tuple(gens))
    return list(basis), sub


def standard_cocycle_checks(mod: GModule, c: dict) -> bool:
    """c maps each group element to a vector; verify the cocycle law."""
    for g in mod.elements:
        for h in mod.elements:
            lhs = _vec_add(mod.act(g, c[h]), c[g])
            if lhs != c[mod.mul(g, h)]:
                return False
    return True


def sigma1_to_standard(kind: str, mod: GModule, gens, u) -> dict:
    """Convert an efficient-resolution 1-cochain (one vector per slot)
    into a standard cocycle on the whole group via the comparison map."""
    d = mod.dim
    c = {}
    powers = [mod.powers(g) for g in gens]

    def prefix_sum(base, pw, count, vec):
        # -base * (1 + g + ... + g^{count-1}) applied to vec, for pw the
        # powers of g
        out = (0,) * d
        for p in pw[:count]:
            out = _vec_sub(out, mod.act(mod.mul(base, p), vec))
        return out

    if kind == "dihedral":
        h = gens[1]
        for i, gi in enumerate(powers[0]):
            c[gi] = prefix_sum(mod.identity, powers[0], i, u[0])
            c[mod.mul(gi, h)] = _vec_sub(c[gi], mod.act(gi, u[1]))
        return c
    # abelian kinds: exponents run over the full direct-product box
    for exps in itertools.product(*(range(len(pw)) for pw in powers)):
        val, cur = (0,) * d, mod.identity
        for pw, e, vec in zip(powers, exps, u):
            val = _vec_add(val, prefix_sum(cur, pw, e, vec))
            cur = mod.mul(cur, pw[e])
        c[cur] = val
    if len(c) != len(mod.elements):
        raise AssertionError("generators do not enumerate the group freely")
    return c


# --- extensions: 5-term sequence and the d2 chase -----------------------

class ExtensionData(NamedTuple):
    """A semidirect decomposition of a group: abelian normal part with
    distinguished generators, and a complement whose elements serve as
    coset representatives."""

    h_gens: tuple     # generators of the abelian normal subgroup
    q_gens: tuple     # generators of the complement (cyclic or bicyclic)

    def h_kind(self) -> str:
        return _PRODUCT_KINDS[len(self.h_gens)]

    def q_kind(self) -> str:
        return {1: "cyclic", 2: "bicyclic"}[len(self.q_gens)]


class FiveTermResult(NamedTuple):
    h1_q_inv: CohomologyResult        # H^1(Q, M^H)
    h1_h: CohomologyResult            # H^1(H, M)
    invariant_coords: tuple           # coords of H^1(H,M)^Q elements
    q_invariant_type: AbelianGroupType
    d2_kernel_order: int
    h1_g_order: int                   # |H^1(Q,M^H)| * |ker d2|
    non_invariant_reported: tuple


def _group_order(t: AbelianGroupType) -> int:
    return t.order if t.rank == 0 else 0


def five_term_with_d2(ext: ExtensionData, mod: GModule) -> FiveTermResult:
    t = mod.table

    def span(gens) -> tuple:
        mask = _closure_mask(t.mul, [t.idx[g] for g in gens], t.e)
        return tuple(sorted((mod.elements[i] for i in _members(mask)),
                            key=str))

    h_elements, t_elements = span(ext.h_gens), span(ext.q_gens)
    if len(h_elements) * len(t_elements) != len(mod.elements):
        raise ValueError("h_gens/q_gens do not decompose the group")
    hset = set(h_elements)
    if sum(1 for x in t_elements if x in hset) != 1:
        raise ValueError("complement meets the normal part nontrivially")

    # H^1(Q, M^H) on the invariant sublattice
    h_basis, q_mod = submodule_on_invariants(mod, h_elements, t_elements,
                                             gens=ext.q_gens)
    h1q = h1_via_resolution(ext.q_kind(), q_mod, gens=ext.q_gens)

    # H^1(H, M) via the efficient resolution of the abelian normal part
    h_mod = GModule(elements=h_elements, identity=mod.identity, mul=mod.mul,
                    dim=mod.dim, matrices={g: mod.mat(g) for g in h_elements},
                    generators=ext.h_gens)
    h1h = h1_via_resolution(ext.h_kind(), h_mod, gens=ext.h_gens)

    # Q-action on H^1(H,M): conjugate the standard cocycle, read off the
    # generator values again, compare classes
    def class_coords(u):
        flat = tuple(x for vec in u for x in vec)
        return h1h._subq.class_coords(flat)

    def conj_class_rep(u, r):
        c = sigma1_to_standard(ext.h_kind(), h_mod, ext.h_gens, u)
        ri = mod.inverse(r)
        cc = {h: mod.act(r, c[mod.mul(mod.mul(ri, h), r)])
              for h in h_elements}
        return tuple(cc[g] for g in ext.h_gens)

    divisors = h1h.group.divisors
    all_classes = list(itertools.product(*map(range, divisors)))

    def lift(coords):
        u = tuple((0,) * mod.dim for _ in range(len(ext.h_gens)))
        for cval, rep in zip(coords, h1h.representatives):
            u = tuple(_vec_add(a, _vec_scale(cval, b))
                      for a, b in zip(u, rep))
        return u

    invariant = []
    for coords in all_classes:
        u = lift(coords)
        ok = True
        for r in ext.q_gens:
            if class_coords(conj_class_rep(u, r)) != class_coords(u):
                ok = False
                break
        if ok:
            invariant.append(coords)
    q_inv_type = _finite_subgroup_type(invariant, divisors)

    # the chase for d2 on each Q-invariant class
    non_invariant = []
    kernel = 0
    for coords in invariant:
        u = lift(coords)
        status = _d2_is_zero(ext, mod, h_mod, h_elements, t_elements,
                             h_basis, q_mod, u)
        if status is None:
            non_invariant.append(coords)
        elif status:
            kernel += 1
    h1q_order = _group_order(h1q.group)
    return FiveTermResult(
        h1_q_inv=h1q, h1_h=h1h, invariant_coords=tuple(invariant),
        q_invariant_type=q_inv_type, d2_kernel_order=kernel,
        h1_g_order=h1q_order * kernel,
        non_invariant_reported=tuple(non_invariant))


def _finite_subgroup_type(coord_list, divisors) -> AbelianGroupType:
    if not divisors:
        return AbelianGroupType((), 0)
    r = len(divisors)
    gens = [list(c) for c in coord_list]
    rels = [[divisors[i] if j == i else 0 for j in range(r)]
            for i in range(r)]
    return subquotient_structure(gens + rels, rels, ambient_dim=r).group


def _d2_is_zero(ext, mod, h_mod, h_elements, t_elements, h_basis, q_mod, u):
    """Run the spectral-sequence chase for one class; returns True if the
    transgression image is a coboundary, False if not, None if the class
    fails the lifting step (i.e. was not actually invariant)."""
    d = mod.dim
    c = sigma1_to_standard(ext.h_kind(), h_mod, ext.h_gens, u)
    t_idx = {q: i for i, q in enumerate(t_elements)}
    nQ = len(t_elements)
    hset = set(h_elements)
    proj_cache: dict = {}

    def proj_t(x):
        """Coset representative in the complement: the unique t with
        x * t^{-1} in H."""
        t = proj_cache.get(x)
        if t is None:
            for cand in t_elements:
                if mod.mul(x, mod.inverse(cand)) in hset:
                    t = cand
                    break
            else:
                raise AssertionError("no coset representative found")
            proj_cache[x] = t
        return t

    # X in degree (0,1): X_{q,h',q'} = c_{h'}
    def x_at(q, hp, qp):
        return c[hp]

    # v_i = Delta_{r_i} X, constant in (q, q') only through the action
    def q_act1(r, fn):
        ri = mod.inverse(r)

        def out(q, hp, qp):
            return mod.act(r, fn(proj_t(mod.mul(ri, q)),
                                 mod.mul(mod.mul(ri, hp), r),
                                 proj_t(mod.mul(ri, qp))))
        return out

    v_components = []
    for r in ext.q_gens:
        rx = q_act1(r, x_at)
        v_components.append({(q, hp, qp):
                             _vec_sub(x_at(q, hp, qp), rx(q, hp, qp))
                             for q in t_elements for hp in h_elements
                             for qp in t_elements})

    # solve d0^{1,0} v0 = v componentwise; unknowns are one vector per q
    triple_list = [(q, hp, qp) for q in t_elements for hp in h_elements
                   for qp in t_elements]
    rows = []
    for (q, hp, qp) in triple_list:
        mh = mod.mat(hp)
        for i in range(d):
            row = [0] * (nQ * d)
            for j in range(d):
                if mh[i][j]:
                    row[t_idx[qp] * d + j] += mh[i][j]
            row[t_idx[q] * d + i] -= 1
            rows.append(row)
    ech = ColumnEchelon(rows)
    v0 = []
    for comp in v_components:
        b = []
        for key in triple_list:
            b.extend(comp[key])
        sol, _ = ech.solve(b)
        if sol is None:
            return None
        v0.append([tuple(sol[t * d:(t + 1) * d]) for t in range(nQ)])

    # horizontal d1 on E0^{.,0}
    def q_act0(r, vec_list):
        ri = mod.inverse(r)
        return [mod.act(r, vec_list[t_idx[proj_t(mod.mul(ri, q))]])
                for q in t_elements]

    def delta0(r, vl):
        acted = q_act0(r, vl)
        return [_vec_sub(a, b) for a, b in zip(vl, acted)]

    def norm0(r, vl):
        total = list(vl)
        for cur in mod.powers(r)[1:]:
            acted = q_act0(cur, vl)
            total = [_vec_add(a, b) for a, b in zip(total, acted)]
        return total

    # the block rows of `_resolution_maps`, applied to v0
    w_components = []
    for j, rj in enumerate(ext.q_gens):
        for i, ri in enumerate(ext.q_gens[:j]):
            w_components.append([_vec_sub(a, b) for a, b in
                                 zip(delta0(rj, v0[i]), delta0(ri, v0[j]))])
        w_components.append(norm0(rj, v0[j]))

    # pull back along the inclusion (m)_q = q.m of the bottom row
    bas_cols = [[h_basis[j][i] for j in range(len(h_basis))]
                for i in range(d)]
    bech = ColumnEchelon(bas_cols)
    ms = []
    for w in w_components:
        m0 = w[t_idx[mod.identity]]
        for q in t_elements:
            if w[t_idx[q]] != mod.act(q, m0):
                raise AssertionError("chase output not in the bottom row")
        sol, _ = bech.solve(list(m0))
        if sol is None:
            raise AssertionError("chase output not H-invariant")
        ms.append(tuple(sol))

    # coboundary test against the image of d1 of the bottom complex (on
    # M^H coordinates): its rows are equations over the slot unknowns
    rows, _, _ = _resolution_maps(ext.q_kind(), q_mod, ext.q_gens)
    sol, _ = ColumnEchelon(rows).solve([x for m in ms for x in m])
    return sol is not None
