"""Sparse polynomials over Q, for the exact identities of the
obstruction recipes and of the diagonal cubic pipeline.

A polynomial maps exponent tuples to nonzero int or Fraction
coefficients; a float operand raises TypeError.  Tuples compare
lexicographically, so the monomial order is lex in slot order.  A
tuple may have any width, and a number operand becomes a constant of
the other operand's width.  The generators W, X, Y, Z, T, U fill six
slots, lex with w > x > y > z > t > u, the order of
sympy.Poly(..., w, x, y, z).  t and u are the roots a recipe adjoins:
theta = sqrt(-ABC) for the generic conic bundle, i for the order-4
class, and sqrt(-17) and zeta_8 for the descent classes.  The recipe
reduces by its relations with `rem`.  Dividing by a single term gives
the pair (numerator, denominator), the form in which a quaternion
class carries g.

`ring(*names)` gives the generators of Q[names], lex in the order
given, as sympy.polys.rings.ring does.  Every Poly prints as sympy's
str prints the same expression over its names, and sympy reads it
through the _sympy_ hook (sympy.sympify(h), sympy.cancel(h / form)).
This module imports the standard library only."""

from __future__ import annotations

import math
import sys
from fractions import Fraction


class Poly:
    __slots__ = ("terms",)
    #: one generator name per exponent slot, for printing
    names = ("w", "x", "y", "z", "t", "u")

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            width = len(next(iter(self.terms), self.names))
            return type(self)({(0,) * width: other})
        raise TypeError(f"not a rational polynomial: {other!r}")

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in self._coerce(other).terms.items():
            out[m] = out.get(m, 0) + c
        return type(self)(out)

    __radd__ = __add__

    def __neg__(self):
        return type(self)({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other, out = self._coerce(other), {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        return type(self)(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = self._coerce(1)
        for _ in range(n):
            out = out * self
        return out

    def __truediv__(self, other):
        """Division by a nonzero number, or by a single term, which
        gives (numerator, denominator); any other type of operand is
        left to its own __rtruediv__ (a sympy expression divides a Poly
        through _sympy_), and a float still ends in TypeError."""
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        if not isinstance(other, Poly):
            return NotImplemented
        if len(other.terms) == 1:
            return self, other
        raise TypeError(f"not a number or a single term: {other!r}")

    def __eq__(self, other):
        if isinstance(other, (Poly, int, Fraction)):
            return self.terms == self._coerce(other).terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"Poly({self.terms!r})"

    def __str__(self):
        """sympy's str of the same expression: the terms in descending
        lex order over the names sorted as strings (but a positive number
        first before one negative power of one generator), each printed
        as p*monomial/q with a unit p left out, joined by " + " and
        " - "."""
        slots = sorted(range(len(self.names)), key=self.names.__getitem__)
        items = sorted(self.terms.items(), reverse=True,
                       key=lambda mc: [mc[0][k] for k in slots])
        if (len(items) == 2 and not any(items[1][0]) and items[1][1] > 0
                and items[0][1] < 0 and sum(map(bool, items[0][0])) == 1):
            items.reverse()  # sympy's special case: 1 - x, not -x + 1
        text = ""
        for m, c in items:
            c = Fraction(c)
            factors = [self.names[k] + (f"**{m[k]}" if m[k] > 1 else "")
                       for k in slots if m[k]]
            if abs(c.numerator) != 1 or not factors:
                factors.insert(0, str(abs(c.numerator)))
            term = "*".join(factors)
            if c.denominator != 1:
                term += f"/{c.denominator}"
            if text:
                text += (" - " if c < 0 else " + ") + term
            else:
                text = ("-" if c < 0 else "") + term
        return text or "0"

    def _sympy_(self):
        """The same expression in sympy.  sympy calls this hook only
        once it is loaded, so the hook takes it from sys.modules and
        this module never imports it."""
        sympy = sys.modules["sympy"]
        gens = sympy.symbols(self.names)
        return sympy.Add(*(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(g ** e for g, e in zip(gens, m)))
            for m, c in self.terms.items()))

    def subs(self, gen, value):
        """Substitute the number or polynomial value for the generator
        gen, e.g. subs(W, 0) or subs(T, -T)."""
        (slot,) = (k for k, e in enumerate(max(gen.terms)) if e)
        out = type(self)()
        for m, c in self.terms.items():
            rest = type(self)({m[:slot] + (0,) + m[slot + 1:]: c})
            out = out + rest * value ** m[slot]
        return out

    def diff(self, gen):
        (slot,) = (k for k, e in enumerate(max(gen.terms)) if e)
        return type(self)({m[:slot] + (m[slot] - 1,) + m[slot + 1:]:
                           c * m[slot]
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

    def rem(self, *divisors):
        """The remainder of lex division over Q by each divisor in turn:
        no term of the remainder by one divisor is divisible by its
        leading monomial."""
        out = self
        for divisor in divisors:
            out = out._rem(divisor)
        return out

    def _rem(self, divisor):
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
        return type(self)(out)


def _generators(cls):
    n = len(cls.names)
    return tuple(cls({tuple(int(k == j) for j in range(n)): 1})
                 for k in range(n))


def ring(*names):
    """The generators of Q[names] under lex in the order given: Polys of
    a subclass that prints over names."""
    return _generators(type("Poly", (Poly,),
                            {"__slots__": (), "names": names}))


W, X, Y, Z, T, U = _generators(Poly)
