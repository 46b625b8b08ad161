"""Small number fields as explicit towers, with exact reduction of
polynomial expressions modulo the defining relations.

Reduction is the remainder in a sparse polynomial ring over Q
(sympy.polys.rings) under lex order, extra symbols first and then the
tower generators from the top floor down.  Each relation is monic in its own generator, so
the leading monomials g_i^(d_i) are pairwise coprime: the relations
form a Groebner basis, and the remainder is the canonical form."""

from __future__ import annotations

from dataclasses import dataclass

import sympy
from sympy.polys.domains import QQ
from sympy.polys.orderings import lex
from sympy.polys.rings import ring


@dataclass(frozen=True)
class FieldTower:
    """A tower Q(g_1, ..., g_r) given by one defining relation per
    generator (monic over the previous floor), together with a complex
    embedding used to certify the declared degrees."""

    gens: tuple  # sympy symbols
    relations: tuple  # sympy expressions that vanish
    embeddings: tuple  # complex value of each generator

    def __post_init__(self):
        if not (len(self.gens) == len(self.relations)
                == len(self.embeddings)):
            raise ValueError("tower data lengths disagree")
        degree = 1
        for g, rel in zip(self.gens, self.relations):
            degree *= sympy.degree(rel, g)
        if degree > 16:
            raise ValueError("tower degree exceeds the cap of 16")
        self._verify()

    def _verify(self):
        # each relation vanishes at the embedding, and the embeddings
        # generate a Q-vector space of the declared degree (so each
        # floor is a field, not a product ring)
        subs = dict(zip(self.gens, self.embeddings))
        for rel in self.relations:
            val = complex(sympy.N(rel.subs(subs), 30))
            if abs(val) > 1e-15:
                raise ValueError(f"embedding does not satisfy {rel}")
        alpha = sum(v * sympy.Rational(3, 7) ** i
                    for i, v in enumerate(self.embeddings, start=1))
        degree = 1
        for g, rel in zip(self.gens, self.relations):
            degree *= sympy.degree(rel, g)
        minpoly = sympy.minimal_polynomial(alpha, sympy.Symbol("_t"))
        if sympy.degree(minpoly) != degree:
            raise ValueError("declared relations are not irreducible")

    def polyring(self, extra_symbols=()):
        """(R, relations): the ring Q[extra_symbols, gens reversed]
        under lex, and the defining relations as elements of it."""
        R = ring(tuple(extra_symbols) + tuple(reversed(self.gens)), QQ,
                 lex)[0]
        return R, [R(rel) for rel in self.relations]
