"""Local invariant profiles and the global verdict rule."""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

# re-exported: both live in the modules `import dp2.cli` loads, so the
# CLI does not load this one
from . import CapacityError
from .hilbert import render_place


class LocalProfile(NamedTuple):
    """Attained invariant vectors of the analyzed classes at one place.

    invariants holds tuples in Q/Z (one entry per class); method is
    "exact-enumeration", "analytic" (a machine-checked valuation
    argument) or "sampling".  "sampling" labels the real place of
    padic.real_profile, which is decided exactly at integer witness
    points; the label is kept so that reported outputs stay byte
    for byte those recorded, and exact stays False for it."""

    place: object  # prime or "R"
    modulus: int | None
    invariants: frozenset
    undetermined: int
    method: str

    @property
    def exact(self) -> bool:
        return (self.method in ("exact-enumeration", "analytic")
                and self.undetermined == 0)


class Verdict(NamedTuple):
    profiles: tuple
    conclusion: str  # obstructed | not_obstructed_by_class | inconclusive


def verdict(profiles) -> Verdict:
    """Minkowski-sum rule: obstructed only when no choice of one
    attained vector per place sums to zero in (Q/Z)^n and every finite
    profile is exact (the real profile, decided at witness points, is
    still tagged sampling)."""
    profiles = tuple(profiles)
    if any(not pr.invariants for pr in profiles):
        return Verdict(profiles, "inconclusive")
    lengths = {len(v) for pr in profiles for v in pr.invariants}
    if len(lengths) != 1:
        raise ValueError("profiles analyze different class vectors")
    n = lengths.pop()
    if any(pr.place != "R" and not pr.exact for pr in profiles):
        return Verdict(profiles, "inconclusive")
    zero = tuple(Fraction(0) for _ in range(n))
    for choice in itertools.product(*(pr.invariants for pr in profiles)):
        total = tuple(sum(col) % 1 for col in zip(*choice))
        if total == zero:
            return Verdict(profiles, "not_obstructed_by_class")
    return Verdict(profiles, "obstructed")
