"""H^0 and H^1 of integer modules over finite groups, by four routes.

Backends: the standard complex (oracle, order <= 32), whose cocycles are
solved for in generator coordinates along a spanning tree of the Cayley
graph, one row block per non-tree edge; short resolutions, one
product-resolution formula for up to three cyclic factors plus the
dihedral one; a polycyclic-presentation cocycle solver (default, any
order); and the five-term exact sequence of a group extension with an
explicit chase for the transgression d2.  Each reaches H^1 = Z^1/B^1
through one elimination of Z^1 and one Smith step
(`intlin.subquotient_structure`).  The group work runs on subgroup
bitmasks with the helpers of `galois0`, which also owns `h1_type`: the
type alone, with no representatives, from one Smith form of the stacked
(g - 1) matrices.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cached_property
from typing import Any, Callable, NamedTuple, Optional

from .galois0 import IDENTITY, _apply_perm, _closure_mask, _members, pic_rows
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


class IndexTable(NamedTuple):
    """A module's group on integers: i stands for `mod.elements[i]`, idx
    maps each element to its i, mul[a][b] is the index of a.b, inv[a]
    that of a^-1, and e that of the identity.  tree is the breadth-first
    spanning tree of the Cayley graph: (y, parent, k) with
    y = parent.s_k for the k-th module generator, root (e, None, None)
    first and every parent before its children."""

    idx: dict
    mul: list
    inv: list
    e: int
    tree: list


class GModule:
    """A finite group with an integral action: elements are hashable,
    multiplication is supplied, matrices give the action on Z^dim (any
    mapping read by key).  The generators (all elements when none are
    given) must generate the elements; `table` enforces this for every
    backend."""

    def __init__(self, elements: tuple, identity: Any,
                 mul: Callable[[Any, Any], Any], dim: int, matrices,
                 generators: tuple = ()):
        self.elements = elements
        self.identity = identity
        self.mul = mul
        self.dim = dim
        self.matrices = matrices
        self.generators = generators

    def mat(self, g) -> Mat:
        return self.matrices[g]

    def act(self, g, v) -> Vec:
        return _mat_vec(self.matrices[g], v)

    def gens(self) -> tuple:
        return self.generators if self.generators else self.elements

    @cached_property
    def table(self) -> IndexTable:
        """The product table from n.|S| calls of `mul`: the rows
        x -> x.s for the generators s, a breadth-first search from the
        identity along them that writes each element y as parent.s, and
        then g.y = (g.parent).s by integer lookups."""
        els = self.elements
        n = len(els)
        idx = {g: i for i, g in enumerate(els)}
        e = idx[self.identity]
        right = [[idx[self.mul(x, s)] for x in els] for s in self.gens()]
        tree, seen = [(e, None, None)], {e}
        for y, _, _ in tree:  # breadth first: the loop reaches what it adds
            for k, row in enumerate(right):
                if row[y] not in seen:
                    seen.add(row[y])
                    tree.append((row[y], y, k))
        if len(tree) != n:
            raise AssertionError(
                "module generators do not generate the group")
        mul = []
        for g in range(n):
            prod = [0] * n
            prod[e] = g
            for y, parent, k in tree[1:]:
                prod[y] = right[k][prod[parent]]
            mul.append(prod)
        return IndexTable(idx, mul, [prod.index(e) for prod in mul], e,
                          tree)

    def inverse(self, g):
        t = self.table
        return self.elements[t.inv[t.idx[g]]]

    def powers(self, g) -> list:
        """g^0, g^1, ..., g^(k-1) for k the order of g."""
        t = self.table
        i = t.idx[g]
        out, cur = [self.identity], i
        while cur != t.e:
            out.append(self.elements[cur])
            cur = t.mul[cur][i]
        return out


class _PicMatrices(dict):
    """pic_rows(g) for the elements g of one subgroup, each built on its
    first read, so through `matrix_of` and its check on the 56 curves and
    -K; any other key raises KeyError, as a dict of all of them would."""

    __slots__ = ("_group",)

    def __init__(self, s):
        super().__init__()
        self._group = s

    def __missing__(self, g):
        if g not in self._group:
            raise KeyError(g)
        rows = self[g] = pic_rows(g)
        return rows


def pic_module(s) -> GModule:
    """The Picard lattice as a module over a subgroup of the generic
    Galois group.  Its matrices are built on first read: a backend pays
    only for the elements it reads (the presentation backend reads about
    ten of 128)."""
    return GModule(elements=s.elements, identity=IDENTITY, mul=operator.mul,
                   dim=8, matrices=_PicMatrices(s),
                   generators=s.generators if s.generators else (IDENTITY,))


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


class _CohomologyResult(NamedTuple):
    group: AbelianGroupType
    representatives: tuple
    backend: str


class CohomologyResult(_CohomologyResult):
    """H^1 with its representatives; `_subq`, the subquotient they come
    from, is kept beside the fields, out of the repr and of ==."""

    def __new__(cls, group: AbelianGroupType, representatives: tuple,
                backend: str, _subq: Optional[SubquotientResult] = None):
        self = super().__new__(cls, group, representatives, backend)
        self._subq = _subq
        return self


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
    `slots`: for each basis vector e_j, the cochain g -> g.e_j - e_j,
    whose g-block is column j of M_g - I."""
    d, mats = mod.dim, [mod.mat(g) for g in slots]
    return [tuple(m[i][j] - (1 if i == j else 0)
                  for m in mats for i in range(d))
            for j in range(d)]


# --- standard-complex backend -------------------------------------------

_STANDARD_LIMIT = 32


def _tree_cocycles(mod: GModule) -> list[Vec]:
    """Basis of Z^1 in generator coordinates x = (c(s))_s in Z^(|S|.d).
    Along the tree of `mod.table`, c(y) = L_y.x with L_e = 0 and
    L_(p.s) = L_p + M_p.E_s, from c(p.s) = c(p) + p.c(s); each Cayley
    edge y -> y.s off the tree adds the row block L_(y.s) - L_y - M_y.E_s.
    With S generating, induction on word length gives the cocycle law
    for every pair."""
    els, t = mod.elements, mod.table
    d, gens = mod.dim, [t.idx[s] for s in mod.gens()]

    def step(y, k) -> list[list[int]]:
        """L_y + M_y.E_k as d rows."""
        out = [list(row) for row in L[y]]
        for row, mrow in zip(out, mod.mat(els[y])):
            row[k * d:(k + 1) * d] = map(operator.add,
                                         row[k * d:(k + 1) * d], mrow)
        return out

    L = {t.e: [[0] * (len(gens) * d) for _ in range(d)]}
    for y, parent, k in t.tree[1:]:
        L[y] = step(parent, k)
    on_tree = {(parent, k) for _, parent, k in t.tree[1:]}
    rows = [list(map(operator.sub, lz, ly))
            for y, prod in enumerate(t.mul)
            for k, s in enumerate(gens) if (y, k) not in on_tree
            for lz, ly in zip(L[prod[s]], step(y, k))]
    return ColumnEchelon(rows).kernel()


def h1_standard(mod: GModule) -> CohomologyResult:
    """Oracle backend on the standard complex, in generator coordinates:
    Z^1 from the non-tree Cayley edges of `_tree_cocycles` and B^1
    spanned by s -> s.e - e, one d-block per module generator.  It uses
    no polycyclic series, so it stays independent of the presentation
    backend; it refuses groups beyond `_STANDARD_LIMIT`, and `mod.table`
    refuses generators that do not generate."""
    n = len(mod.elements)
    if n > _STANDARD_LIMIT:
        raise ValueError(
            f"standard backend limited to order {_STANDARD_LIMIT}; "
            f"got {n} (use the presentation backend)")
    gens = mod.gens()
    return _h1_result(_tree_cocycles(mod), _coboundaries(mod, gens),
                      len(gens), mod.dim, "standard")


def standard_cocycle_checks(mod: GModule, c: dict) -> bool:
    """c maps each group element to a vector; verify the cocycle law."""
    for g in mod.elements:
        for h in mod.elements:
            lhs = _vec_add(mod.act(g, c[h]), c[g])
            if lhs != c[mod.mul(g, h)]:
                return False
    return True


# --- presentation backend -----------------------------------------------

def _smallest_prime(n: int) -> int:
    p = 2
    while n % p:
        p += 1
    return p


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

    The group work runs on the module's index table (`mod.table`, built
    from n.|gens| calls of `mod.mul`), whose numbering follows
    `mod.elements` and so fixes the chain and the representatives; the
    subgroups of the polycyclic chain are bitmasks over its indices."""
    d = mod.dim
    els, t = mod.elements, mod.table
    mul, inv, ident = t.mul, t.inv, t.e
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


def h1_of_subgroup(s) -> AbelianGroupType:
    """H^1 of a Galois subgroup acting on Pic, by the presentation
    backend."""
    return h1_presentation(pic_module(s)).group


# --- efficient resolutions ----------------------------------------------

def _delta_rows(mod: GModule, g) -> Mat:
    m = mod.mat(g)
    return tuple(tuple((1 if i == j else 0) - m[i][j]
                       for j in range(mod.dim)) for i in range(mod.dim))


def _norm_rows(mod: GModule, g) -> Mat:
    total = _identity_mat(mod.dim)
    for cur in mod.powers(g)[1:]:
        total = tuple(tuple(a + b for a, b in zip(r1, r2))
                      for r1, r2 in zip(total, mod.mat(cur)))
    return total


_PRODUCT_KINDS = {1: "cyclic", 2: "bicyclic", 3: "tricyclic"}


def _resolution_maps(kind: str, mod: GModule, gens):
    """(d1 rows as a block matrix over slots, B^1 generators, slot count)
    for H^1 = ker d1/im d0.  For a product of k cyclic groups d1 comes from
    the tensor product of their periodic resolutions (Brown, GTM 87,
    V.1): N_j on slot j, and for each pair i < j the block Delta_j on
    slot i, -Delta_i on slot j.  The generators must be a direct-product
    basis: their orders multiply to |G|."""
    d = mod.dim
    if kind == "dihedral":
        g, h = gens
        gh = mod.mul(g, h)
        d1_blocks = [
            [_norm_rows(mod, g), None],
            [None, _norm_rows(mod, h)],
            [_norm_rows(mod, gh), _neg(_norm_rows(mod, gh))],
        ]
    elif kind in _PRODUCT_KINDS.values():
        k = len(gens)
        order = math.prod(len(mod.powers(g)) for g in gens)
        if _PRODUCT_KINDS.get(k) != kind or order != len(mod.elements):
            raise ValueError(f"{kind} generators are not a direct-product "
                             f"basis of the group of order "
                             f"{len(mod.elements)}")
        d1_blocks = []
        for j in range(k):
            for i in range(j):
                block = [None] * k
                block[i] = _delta_rows(mod, gens[j])
                block[j] = _neg(_delta_rows(mod, gens[i]))
                d1_blocks.append(block)
            block = [None] * k
            block[j] = _norm_rows(mod, gens[j])
            d1_blocks.append(block)
    else:
        raise ValueError(f"unknown resolution kind {kind!r}")
    rows = []
    for block_row in d1_blocks:
        for i in range(d):
            row = []
            for blk in block_row:
                row.extend([0] * d if blk is None else list(blk[i]))
            rows.append(row)
    return rows, _coboundaries(mod, gens), len(gens)


def _neg(m: Mat) -> Mat:
    return tuple(tuple(-x for x in row) for row in m)


def h1_via_resolution(kind: str, mod: GModule, gens=None) -> CohomologyResult:
    """H^1 from the short resolution for a cyclic, bicyclic, tricyclic or
    dihedral group with the given distinguished generators."""
    gens = tuple(gens) if gens is not None else tuple(mod.gens())
    rows, b1, nslots = _resolution_maps(kind, mod, gens)
    return _h1_result(ColumnEchelon(rows).kernel(), b1, nslots, mod.dim,
                      f"resolution:{kind}")


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
