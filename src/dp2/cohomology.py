"""H^0 and H^1 of integer modules over finite groups, by four routes.

Backends: the standard complex (oracle, order <= 32), whose cocycles are
solved for in generator coordinates along a spanning tree of the Cayley
graph, one row block per non-tree edge; short resolutions, one
product-resolution formula for up to three cyclic factors plus the
dihedral one; and a polycyclic-presentation cocycle solver (default, any
order).  Each reaches H^1 = Z^1/B^1 through one elimination of Z^1 and
one Smith step (`intlin.subquotient_structure`).  The fourth route, the
five-term exact sequence of a group extension with an explicit chase
for the transgression d2, lives in `fiveterm`, which no subcommand
reads; its names resolve from here on first use.  The group work runs
on subgroup bitmasks with the helpers of `galois0`, which also owns
`h1_type`: the type alone, with no representatives, from one Smith form
of the stacked (g - 1) matrices.
"""

from __future__ import annotations

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


def _identity_mat(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


#: the names of `fiveterm` that its cross-checks read from here
_FIVE_TERM_NAMES = frozenset({
    "ExtensionData", "FiveTermResult", "five_term_with_d2",
    "sigma1_to_standard", "standard_cocycle_checks",
    "submodule_on_invariants", "_fixed_basis",
})


def __getattr__(name: str):
    """The five-term route, loaded on first use: only its cross-checks
    read it, and compiling it here would slow every analyze request."""
    if name in _FIVE_TERM_NAMES:
        from . import fiveterm
        return getattr(fiveterm, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    the mask of the subgroup left after removing gens[:i].

    Each step closes the p-th powers and the commutators of the current
    subgroup.  At p = 2 the squares alone suffice: every commutator is a
    product of squares, [a, b] = a^-1 b^-1 a b = a^-2 (a b^-1)^2 b^2."""
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
        if p != 2:
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
