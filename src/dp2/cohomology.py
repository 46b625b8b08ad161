"""H^0 and H^1 of integer modules over finite groups, by four routes.

Backends: the standard inhomogeneous complex (oracle, order <= 32), whose
cocycles are cut out by one row block per edge g -> g.s of the Cayley
graph; efficient resolutions for cyclic/bicyclic/tricyclic/dihedral
groups; a polycyclic-presentation cocycle solver (default, any order);
and the five-term exact sequence of a group extension with an explicit
chase for the transgression d2.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .intlin import (
    AbelianGroupType,
    ColumnEchelon,
    SubquotientResult,
    subquotient_structure,
)

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


def _mat_vec(m: Mat, v) -> Vec:
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def _vec_add(u, v) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def _vec_sub(u, v) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def _vec_scale(c, v) -> Vec:
    return tuple(c * a for a in v)


def _identity_mat(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _mat_mul(a: Mat, b: Mat) -> Mat:
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n))
                       for j in range(len(b[0]))) for i in range(n))


@dataclass(frozen=True)
class GModule:
    """A finite group with an integral action: elements are hashable,
    multiplication is supplied, matrices give the action on Z^dim."""

    elements: tuple
    identity: Any
    mul: Callable[[Any, Any], Any]
    dim: int
    matrices: dict
    generators: tuple = ()

    def mat(self, g) -> Mat:
        return self.matrices[g]

    def act(self, g, v) -> Vec:
        return _mat_vec(self.matrices[g], v)

    def order_of(self, g) -> int:
        n, cur = 1, g
        while cur != self.identity:
            cur = self.mul(cur, g)
            n += 1
        return n

    def gens(self) -> tuple:
        return self.generators if self.generators else self.elements


def pic_module(s) -> GModule:
    """The Picard lattice as a module over a subgroup of the generic
    Galois group."""
    from .galois0 import IDENTITY, pic_rows

    mats = {g: pic_rows(g) for g in s.elements}
    return GModule(elements=s.elements, identity=IDENTITY, mul=operator.mul,
                   dim=8, matrices=mats,
                   generators=s.generators if s.generators else (IDENTITY,))


def cyclic_module(n: int, mat: Mat) -> GModule:
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


@dataclass(frozen=True)
class CohomologyResult:
    group: AbelianGroupType
    representatives: tuple
    backend: str
    _subq: Optional[SubquotientResult] = field(default=None, repr=False,
                                               compare=False)


def _h1_result(z1, b1, nslots: int, d: int, backend: str) -> CohomologyResult:
    """H^1 = span(z1)/span(b1) on cochains of `nslots` d-blocks, with each
    representative split into its blocks."""
    res = subquotient_structure(z1, b1, ambient_dim=nslots * d)
    reps = tuple(tuple(rep[t * d:(t + 1) * d] for t in range(nslots))
                 for rep in res.reps)
    return CohomologyResult(group=res.group, representatives=reps,
                            backend=backend, _subq=res)


def _coboundaries(mod: GModule, slots) -> list[Vec]:
    """Generators of B^1 on cochains with one block per element of
    `slots`: for each basis vector e, the cochain g -> g.e - e."""
    return [tuple(x for g in slots for x in _vec_sub(mod.act(g, e), e))
            for e in _identity_mat(mod.dim)]


def invariants_H0(mod: GModule) -> tuple[int, list[Vec]]:
    basis = _fixed_basis(mod, mod.gens())
    return len(basis), basis


# --- standard-complex backend -------------------------------------------

_STANDARD_LIMIT = 32


def _cayley_cocycles(mod: GModule) -> list[Vec]:
    """Basis of Z^1 inside C^1 = M^n (one d-block per element, in
    `mod.elements` order): the kernel of the rows
    g.c(s) - c(gs) + c(g) = 0 for every g and every s in `mod.gens()`.
    With s generating, induction on word length gives the cocycle law
    for every pair, and g = e forces c(e) = 0."""
    els = mod.elements
    n, d = len(els), mod.dim
    idx = {g: i for i, g in enumerate(els)}
    rows = []
    for g in els:
        mg, cg = mod.mat(g), idx[g] * d
        for s in mod.gens():
            cs, cgs = idx[s] * d, idx[mod.mul(g, s)] * d
            for i in range(d):
                row = [0] * (n * d)
                row[cs:cs + d] = mg[i]
                row[cgs + i] -= 1
                row[cg + i] += 1
                rows.append(row)
    return ColumnEchelon(rows).kernel()


def h1_standard(mod: GModule) -> CohomologyResult:
    """Oracle backend on the inhomogeneous cochains C^1 = M^n, with Z^1
    cut out by the Cayley-graph rows of `_cayley_cocycles` (n.|S| row
    blocks for the generating set S) and B^1 spanned by g -> g.e - e.
    It uses no polycyclic series, so it stays independent of the
    presentation backend; it refuses groups beyond `_STANDARD_LIMIT`."""
    els = mod.elements
    n, d = len(els), mod.dim
    if n > _STANDARD_LIMIT:
        raise ValueError(
            f"standard backend limited to order {_STANDARD_LIMIT}; "
            f"got {n} (use the presentation backend)")
    if _closure_in(mod, mod.gens()) != set(els):
        raise AssertionError("module generators do not generate the group")
    return _h1_result(_cayley_cocycles(mod), _coboundaries(mod, els), n, d,
                      "standard")


def standard_cocycle_checks(mod: GModule, c: dict) -> bool:
    """c maps each group element to a vector; verify the cocycle law."""
    for g in mod.elements:
        for h in mod.elements:
            lhs = _vec_add(mod.act(g, c[h]), c[g])
            if lhs != c[mod.mul(g, h)]:
                return False
    return True


# --- presentation backend -----------------------------------------------

def _closure_in(mod: GModule, gens) -> set:
    out = {mod.identity}
    frontier = [mod.identity]
    gens = list(gens)
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = mod.mul(cur, g)
            if nxt not in out:
                out.add(nxt)
                frontier.append(nxt)
    return out


def _smallest_prime(n: int) -> int:
    p = 2
    while n % p:
        p += 1
    return p


def _members(mask: int) -> list[int]:
    """Indices of the set bits of a subgroup mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _apply_perm(mask: int, perm) -> int:
    """The image of a mask under an index permutation; with a row of the
    product table, the left coset x.mask."""
    out = 0
    for i in _members(mask):
        out |= 1 << perm[i]
    return out


def _closure_mask(mul, gens, e: int) -> int:
    """Mask of the subgroup generated by the indices `gens`, for the
    product table `mul` with identity e."""
    out, frontier = 1 << e, [e]
    while frontier:
        row = mul[frontier.pop()]
        for g in gens:
            nxt = row[g]
            if not out >> nxt & 1:
                out |= 1 << nxt
                frontier.append(nxt)
    return out


def polycyclic_chain(mul, inv, e: int):
    """Subnormal chain with prime cyclic quotients, plus the generator
    descending into each step, for the group with product table `mul`,
    inverses `inv` and identity e.  Returns (gens, chain) with chain[i]
    the mask of the subgroup left after removing gens[:i]."""
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
        for g in cur_list:
            gi_row = mul[inv[g]]
            g_row = mul[g]
            for h in cur_list:
                pw_comm.add(mul[gi_row[inv[h]]][g_row[h]])
        frat = _closure_mask(mul, pw_comm, e)
        # current/frat is elementary abelian; pick a descending generator
        # y outside frat and a maximal subgroup avoiding it (a hyperplane
        # preimage), found greedily.  Every sub between frat and current
        # contains the commutators, so it is normal, and it contains g^p:
        # hence <sub, g> is the union of the cosets g^k.sub, k < p.
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
        if sub.bit_count() * p != current.bit_count():
            raise AssertionError("polycyclic chain step failed")
        gens.append(y)
        current = sub
        chain.append(current)
    return gens, chain


def _pow(mod: GModule, g, n: int):
    out = mod.identity
    for _ in range(n):
        out = mod.mul(out, g)
    return out


def _normal_form(mul, inv, gens, chain, orders, x: int) -> list[int]:
    exps = []
    for i, y in enumerate(gens):
        e = 0
        yi_row = mul[inv[y]]
        while not chain[i + 1] >> x & 1:
            x = yi_row[x]
            e += 1
            if e > orders[i]:
                raise AssertionError("normal form failed")
        exps.append(e)
    return exps


def h1_presentation(mod: GModule) -> CohomologyResult:
    """Cocycles determined by their values on a polycyclic generating
    sequence, constrained by the power and conjugation relators.

    The group work runs on a local index table: the elements, in str
    order, are numbered 0..n-1, `mod.mul` fills the n x n product table
    once, and the subgroups of the polycyclic chain are bitmasks."""
    d = mod.dim
    if len(mod.elements) == 1:
        return CohomologyResult(group=AbelianGroupType((), 0),
                                representatives=(), backend="presentation",
                                _subq=subquotient_structure(
                                    [(0,) * max(d, 1)], [], ambient_dim=max(d, 1)))
    els = sorted(mod.elements, key=str)
    idx = {g: i for i, g in enumerate(els)}
    mul = [[idx[mod.mul(a, b)] for b in els] for a in els]
    ident = idx[mod.identity]
    inv = [row.index(ident) for row in mul]
    gens, chain = polycyclic_chain(mul, inv, ident)
    k = len(gens)
    orders = [chain[i].bit_count() // chain[i + 1].bit_count()
              for i in range(k)]

    def word_of(exps) -> list:
        w = []
        for y, e in zip(gens, exps):
            w.extend([y] * e)
        return w

    relations = []  # pairs of positive words (lhs, rhs)
    for i, y in enumerate(gens):
        pw = y
        for _ in range(orders[i] - 1):
            pw = mul[pw][y]
        tail = _normal_form(mul, inv, gens, chain, orders, pw)
        relations.append(([y] * orders[i], word_of(tail)))
    for i in range(k):
        for j in range(i + 1, k):
            yi, yj = gens[i], gens[j]
            conj = mul[mul[inv[yi]][yj]][yi]
            tail = _normal_form(mul, inv, gens, chain, orders, conj)
            relations.append(([yj, yi], [yi] + word_of(tail)))
    # verify the presentation data reproduces every element
    for x in range(len(els)):
        acc = ident
        for y in word_of(_normal_form(mul, inv, gens, chain, orders, x)):
            acc = mul[acc][y]
        if acc != x:
            raise AssertionError("presentation failed relation verification")

    gidx = {y: t for t, y in enumerate(gens)}
    rows = []
    for lhs, rhs in relations:
        block = [[0] * (k * d) for _ in range(d)]
        for word, sign in ((lhs, 1), (rhs, -1)):
            prefix = ident
            for y in word:
                m = mod.mat(els[prefix])
                col0 = gidx[y] * d
                for i in range(d):
                    for j in range(d):
                        if m[i][j]:
                            block[i][col0 + j] += sign * m[i][j]
                prefix = mul[prefix][y]
        rows.extend(block)
    return _h1_result(ColumnEchelon(rows).kernel(),
                      _coboundaries(mod, [els[y] for y in gens]), k, d,
                      "presentation")


_H1_BY_MASK: dict[int, AbelianGroupType] = {}


def h1_of_subgroup(s) -> AbelianGroupType:
    """H^1 of a Galois subgroup acting on Pic, computed once per element
    set (the module's generators do not enter the presentation backend)."""
    key = s.mask()
    t = _H1_BY_MASK.get(key)
    if t is None:
        t = _H1_BY_MASK[key] = h1_presentation(pic_module(s)).group
    return t


# --- efficient resolutions ----------------------------------------------

def _delta(mod: GModule, g, v: Vec) -> Vec:
    return _vec_sub(v, mod.act(g, v))


def _delta_rows(mod: GModule, g) -> Mat:
    m = mod.mat(g)
    return tuple(tuple((1 if i == j else 0) - m[i][j]
                       for j in range(mod.dim)) for i in range(mod.dim))


def _norm_rows(mod: GModule, g) -> Mat:
    total = _identity_mat(mod.dim)
    cur = g
    while cur != mod.identity:
        m = mod.mat(cur)
        total = tuple(tuple(a + b for a, b in zip(r1, r2))
                      for r1, r2 in zip(total, m))
        cur = mod.mul(cur, g)
    return total


def _resolution_maps(kind: str, mod: GModule, gens):
    """(d1 rows as a block matrix over slots, d0 columns) for H^1 = ker d1/im d0."""
    d = mod.dim
    if kind == "cyclic":
        (g,) = gens
        d1_blocks = [[_norm_rows(mod, g)]]
    elif kind == "bicyclic":
        g, h = gens
        d1_blocks = [
            [_norm_rows(mod, g), None],
            [_delta_rows(mod, h), _neg(_delta_rows(mod, g))],
            [None, _norm_rows(mod, h)],
        ]
    elif kind == "tricyclic":
        g, h, u = gens
        d1_blocks = [
            [_norm_rows(mod, g), None, None],
            [_delta_rows(mod, h), _neg(_delta_rows(mod, g)), None],
            [None, _norm_rows(mod, h), None],
            [_delta_rows(mod, u), None, _neg(_delta_rows(mod, g))],
            [None, _delta_rows(mod, u), _neg(_delta_rows(mod, h))],
            [None, None, _norm_rows(mod, u)],
        ]
    elif kind == "dihedral":
        g, h = gens
        gh = mod.mul(g, h)
        d1_blocks = [
            [_norm_rows(mod, g), None],
            [None, _norm_rows(mod, h)],
            [_norm_rows(mod, gh), _neg(_norm_rows(mod, gh))],
        ]
    else:
        raise ValueError(f"unknown resolution kind {kind!r}")
    nslots = len(d1_blocks[0])
    rows = []
    for block_row in d1_blocks:
        for i in range(d):
            row = []
            for blk in block_row:
                row.extend([0] * d if blk is None else list(blk[i]))
            rows.append(row)
    b1 = []
    for j in range(d):
        e = tuple(1 if t == j else 0 for t in range(d))
        col = []
        for g in gens:
            col.extend(_delta(mod, g, e))
        b1.append(tuple(col))
    return rows, b1, nslots


def _neg(m: Mat) -> Mat:
    return tuple(tuple(-x for x in row) for row in m)


def h1_via_resolution(kind: str, mod: GModule, gens=None) -> CohomologyResult:
    """H^1 from the short resolution for a cyclic, bicyclic, tricyclic or
    dihedral group with the given distinguished generators."""
    gens = tuple(gens) if gens is not None else tuple(mod.gens())
    rows, b1, nslots = _resolution_maps(kind, mod, gens)
    d = mod.dim
    return _h1_result(ColumnEchelon(rows).kernel(), b1, nslots, d,
                      f"resolution:{kind}")


def sigma1_to_standard(kind: str, mod: GModule, gens, u) -> dict:
    """Convert an efficient-resolution 1-cochain (one vector per slot)
    into a standard cocycle on the whole group via the comparison map."""
    d = mod.dim
    c = {}
    orders = [mod.order_of(g) for g in gens]

    def prefix_sum(base, g, count, vec):
        # -base * (1 + g + ... + g^{count-1}) applied to vec
        out = (0,) * d
        cur = base
        for _ in range(count):
            out = _vec_sub(out, mod.act(cur, vec))
            cur = mod.mul(cur, g)
        return out

    if kind == "dihedral":
        g, h = gens
        n = orders[0]
        for i in range(n):
            gi = _pow(mod, g, i)
            c[gi] = prefix_sum(mod.identity, g, i, u[0])
            c[mod.mul(gi, h)] = _vec_sub(c[gi], mod.act(gi, u[1]))
        return c
    # abelian kinds: exponents run over the full direct-product box
    def rec(idx, exps):
        if idx == len(gens):
            val = (0,) * d
            cur = mod.identity
            for t, (g, e) in enumerate(zip(gens, exps)):
                val = _vec_add(val, prefix_sum(cur, g, e, u[t]))
                cur = mod.mul(cur, _pow(mod, g, e))
            c[cur] = val
            return
        for e in range(orders[idx]):
            rec(idx + 1, exps + [e])

    rec(0, [])
    if len(c) != len(mod.elements):
        raise AssertionError("generators do not enumerate the group freely")
    return c


# --- extensions: 5-term sequence and the d2 chase -----------------------

@dataclass(frozen=True)
class ExtensionData:
    """A semidirect decomposition of a group: abelian normal part with
    distinguished generators, and a complement whose elements serve as
    coset representatives."""

    h_gens: tuple     # generators of the abelian normal subgroup
    q_gens: tuple     # generators of the complement (cyclic or bicyclic)

    def h_kind(self) -> str:
        return {1: "cyclic", 2: "bicyclic", 3: "tricyclic"}[len(self.h_gens)]

    def q_kind(self) -> str:
        return {1: "cyclic", 2: "bicyclic"}[len(self.q_gens)]


@dataclass(frozen=True)
class FiveTermResult:
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
    h_elements = tuple(sorted(_closure_in(mod, ext.h_gens), key=str))
    t_elements = tuple(sorted(_closure_in(mod, ext.q_gens), key=str))
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
        ri = _inv_in(mod, r)
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


def _inv_in(mod: GModule, g):
    return _pow(mod, g, mod.order_of(g) - 1)


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
                if mod.mul(x, _inv_in(mod, cand)) in hset:
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
        ri = _inv_in(mod, r)

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
        ri = _inv_in(mod, r)
        return [mod.act(r, vec_list[t_idx[proj_t(mod.mul(ri, q))]])
                for q in t_elements]

    def delta0(r, vl):
        acted = q_act0(r, vl)
        return [_vec_sub(a, b) for a, b in zip(vl, acted)]

    def norm0(r, vl):
        total = list(vl)
        cur = r
        while cur != mod.identity:
            acted = q_act0(cur, vl)
            total = [_vec_add(a, b) for a, b in zip(total, acted)]
            cur = mod.mul(cur, r)
        return total

    if ext.q_kind() == "cyclic":
        (r1,) = ext.q_gens
        w_components = [norm0(r1, v0[0])]
    else:
        r1, r2 = ext.q_gens
        w_components = [
            norm0(r1, v0[0]),
            [_vec_sub(a, b) for a, b in
             zip(delta0(r2, v0[0]), delta0(r1, v0[1]))],
            norm0(r2, v0[1]),
        ]

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

    # coboundary test against the image of the degree-1 map of the bottom
    # complex (on M^H coordinates)
    rq = q_mod.dim
    if ext.q_kind() == "cyclic":
        cols = []
        nr = _norm_rows(q_mod, ext.q_gens[0])
        for j in range(rq):
            cols.append(tuple(nr[i][j] for i in range(rq)))
        target = list(ms[0])
        sol, _ = ColumnEchelon([[cols[j][i] for j in range(rq)]
                                for i in range(rq)]).solve(target)
        return sol is not None
    rows2, _, _ = _resolution_maps("bicyclic", q_mod, ext.q_gens)
    target = [x for m in ms for x in m]
    # rows2 is d1 (domain (M^H)^2); transpose convention: rows are
    # equations over the 2*rq unknowns
    sol, _ = ColumnEchelon(rows2).solve(target)
    return sol is not None
