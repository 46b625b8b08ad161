"""Local analysis: Hilbert symbols, p-adic point enumeration, invariant
profiles of Azumaya classes, exact polynomial identities over small
number fields, and the diagonal-cubic pipeline.  Only `fields` (the
(34, 34, 34) tower) and `cubic` load sympy; the other recipes use the
standard-library polynomials of `poly`."""
