"""Sparse polynomials over Q in w, x, y, z and up to two adjoined roots
t and u, for the exact identities of the obstruction recipes.

A polynomial maps exponent tuples (w, x, y, z, t, u) to nonzero int or
Fraction coefficients; a float operand raises TypeError.  Tuples
compare lexicographically, so the monomial order is lex with
w > x > y > z > t > u, the order of sympy.Poly(..., w, x, y, z).  t and
u are the roots a recipe adjoins: theta = sqrt(-ABC) for the generic
conic bundle, i for the order-4 class, and sqrt(-17) and zeta_8 for the
descent classes.  The recipe reduces by its relations with `rem`.
Dividing by a single term gives the pair (numerator, denominator), the
form in which a quaternion class carries g."""

from __future__ import annotations

import math
from fractions import Fraction

_CONST = (0, 0, 0, 0, 0, 0)


class Poly:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @staticmethod
    def _coerce(other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly({_CONST: other})
        raise TypeError(f"not a rational polynomial: {other!r}")

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in Poly._coerce(other).terms.items():
            out[m] = out.get(m, 0) + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + -Poly._coerce(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other, out = Poly._coerce(other), {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = Poly({_CONST: 1})
        for _ in range(n):
            out = out * self
        return out

    def __truediv__(self, other):
        """Division by a nonzero number, or by a single term, which
        gives (numerator, denominator)."""
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        if isinstance(other, Poly) and len(other.terms) == 1:
            return self, other
        raise TypeError(f"not a number or a single term: {other!r}")

    def __eq__(self, other):
        if isinstance(other, (Poly, int, Fraction)):
            return self.terms == Poly._coerce(other).terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"Poly({self.terms!r})"

    def subs(self, gen, value):
        """Substitute the number or polynomial value for the generator
        gen, e.g. subs(W, 0) or subs(T, -T)."""
        (slot,) = (k for k, e in enumerate(max(gen.terms)) if e)
        out = Poly()
        for m, c in self.terms.items():
            rest = Poly({m[:slot] + (0,) + m[slot + 1:]: c})
            out = out + rest * value ** m[slot]
        return out

    def diff(self, gen):
        (slot,) = (k for k, e in enumerate(max(gen.terms)) if e)
        return Poly({m[:slot] + (m[slot] - 1,) + m[slot + 1:]: c * m[slot]
                     for m, c in self.terms.items() if m[slot]})

    def LC(self):
        """The lex leading coefficient (0 for the zero polynomial)."""
        return self.terms[max(self.terms)] if self.terms else 0

    def primitive(self):
        """(content, self / content), the content positive: the gcd of
        the coefficient numerators over the lcm of their denominators."""
        coeffs = [Fraction(c) for c in self.terms.values()]
        content = Fraction(math.gcd(*(c.numerator for c in coeffs)),
                           math.lcm(*(c.denominator for c in coeffs)))
        return content, (self / content if content else self)

    def rem(self, divisor):
        """The remainder of lex division by divisor over Q: no term of
        it is divisible by the leading monomial of divisor."""
        lead = max(divisor.terms)
        lc = divisor.terms[lead]
        rest = {m: c for m, c in divisor.terms.items() if m != lead}
        todo, out = dict(self.terms), {}
        while todo:
            m = max(todo)
            c = todo.pop(m)
            if not c or any(a < b for a, b in zip(m, lead)):
                out[m] = c
                continue
            q = Fraction(c) / lc
            shift = tuple(a - b for a, b in zip(m, lead))
            for dm, dc in rest.items():
                k = tuple(a + b for a, b in zip(shift, dm))
                todo[k] = todo.get(k, 0) - q * dc
        return Poly(out)


W, X, Y, Z, T, U = (Poly({tuple(int(k == j) for j in range(6)): 1})
                    for k in range(6))
