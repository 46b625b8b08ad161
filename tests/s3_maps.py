"""The six relabelings of the roles of A, B, C as automorphisms of G0,
for the cross-checks of the S3 symmetry; dp2.galois0 needs only the
two transpositions ab and bc that generate them."""

from dp2.galois0 import _PHI_AB, _PHI_BC, GroupElement

_PHI_AC = lambda g: GroupElement(g.chi, (g.e_s + g.e_m) % 2,
                                 (g.e_k - g.e_m) % 4, (-g.e_m) % 4)


def _compose(f, h):
    return lambda g: f(h(g))


S3_MAPS = {
    "id": lambda g: g,
    "ab": _PHI_AB,
    "bc": _PHI_BC,
    "ac": _PHI_AC,
    "abc": _compose(_PHI_AB, _PHI_BC),
    "acb": _compose(_PHI_BC, _PHI_AB),
}
