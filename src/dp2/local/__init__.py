"""Local analysis: Hilbert symbols, p-adic point enumeration, invariant
profiles of Azumaya classes, exact polynomial identities over small
number fields, and the diagonal-cubic pipeline.  No module loads
sympy; the recipes and the cubic pipeline use the standard-library
polynomials of `poly`."""


class CapacityError(RuntimeError):
    """Enumeration exceeded its cell budget or depth cap."""
