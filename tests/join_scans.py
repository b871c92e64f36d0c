"""Join scans kept as test references.

They find a least upper bound by scanning the common upper bounds for
one below all the others.  The library answers joins by up-row lookup
(core.join_table); several differential tests compare it with these.

``existing_join_misses`` is the subset walk that ``cor3``
(``represent.join_preserving_embedding``) ran before its check read the
family's joins.  It compares the union of the images of a subset with
the image of its join, which agree by De Morgan on every input, so it
is kept only to show that it reports nothing.
"""

from contactposets.core import bits, join_table
from contactposets.represent import _nonbelow_masks


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


def existing_join_misses(s):
    """Subsets whose existing join is not mapped to the union of images.

    Subsets are walked depth-first, deciding elements from the highest
    index down with "left out" before "taken", so they come in
    increasing mask order as a plain count would give them.  Each step
    carries the common upper bounds and the union of images so far.  A
    subset's join is the element whose up-row equals its upper bounds
    (core.join_table).  A subtree with no upper bound left holds no
    join and is skipped.  The stack holds O(n) entries.
    """
    phi = _nonbelow_masks(s)
    joins = join_table(s)
    up, names = s.up, s.names
    missed = []
    stack = [(s.n, 0, s.full_mask, 0)]
    while stack:
        k, subset, bounds, union = stack.pop()
        if k == 0:
            j = joins.get(bounds)
            if j is not None and union != phi[j]:
                missed.append(tuple(names[a] for a in bits(subset)))
            continue
        k -= 1
        taken = bounds & up[k]
        if taken:
            stack.append((k, subset | 1 << k, taken, union | phi[k]))
        stack.append((k, subset, bounds, union))
    return missed
