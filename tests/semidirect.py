"""Semidirect decompositions of subgroups of G0, for the cross-checks of
the five-term route and of the subgroup enumeration."""

from dp2.galois0 import (Subgroup, _INDEX, _closure_mask, _mul,
                         generate_subgroup, is_abelian)


def _complement_search(s: Subgroup, n_set: set) -> Subgroup | None:
    need = s.order // len(n_set)
    if need == 1:
        return generate_subgroup([])
    cands = [_INDEX[g] for g in s.elements]
    n_mask = sum(1 << _INDEX[g] for g in n_set)
    for i, t1 in enumerate(cands):
        for t2 in cands[i:]:
            t = _closure_mask(_mul(), [t1, t2], 0)
            if t.bit_count() != need or (t & n_mask).bit_count() != 1:
                continue
            sub = Subgroup(t)
            if is_abelian(sub):
                return sub
    return None


def semidirect_decomposition(s: Subgroup):
    """Find an abelian normal subgroup with an abelian complement.

    Returns (N, T) as Subgroups, or None if the search fails.  Candidate
    normal subgroups are the preimages in s of subgroups of the image of
    chi (these are automatically normal); complements are searched among
    subgroups generated by at most two elements.
    """
    for u in ({1}, {1, 3}, {1, 5}, {1, 7}, {1, 3, 5, 7}):
        n_elems = tuple(sorted(g for g in s.elements if g.chi in u))
        n = Subgroup(sum(1 << _INDEX[g] for g in n_elems))
        if not is_abelian(n):
            continue
        t = _complement_search(s, set(n_elems))
        if t is not None:
            return n, t
    return None
