"""Join scans kept as test references.

They find a least upper bound by scanning the common upper bounds for
one below all the others.  The library answers joins by up-row lookup
(core.join_table); several differential tests compare it with these.
"""

from contactposets.core import bits


def least_of(s, mask):
    """Least element of the subset mask, or None."""
    for i in bits(mask):
        if mask & ~s.up[i] == 0:
            return i
    return None


def join_index(s, i, j):
    return least_of(s, s.up[i] & s.up[j])


def subset_join(s, mask):
    """Least upper bound of a subset mask, if it exists (empty -> bottom)."""
    ub = s.full_mask
    for i in bits(mask):
        ub &= s.up[i]
    return least_of(s, ub)
