"""Event structures counted by brute force, kept as a test oracle.

enumerate_event_structures reads the event age off the contact catalog
one size up, so its counts agree with that catalog by construction and
certify nothing.  This oracle builds the age from the definition alone:
every labelled causal order and every symmetric irreflexive conflict
relation, filtered by per-law loops written here, and deduplicated by
trying every relabelling.
"""

from itertools import combinations, permutations, product


def _is_partial_order(up):
    n = len(up)
    for i in range(n):
        if not up[i] >> i & 1:
            return False
        for j in range(n):
            if j != i and up[i] >> j & 1 and up[j] >> i & 1:
                return False
            for k in range(n):
                if up[i] >> j & 1 and up[j] >> k & 1 and not up[i] >> k & 1:
                    return False
    return True


def _inherited(up, conflict):
    """x # y and y <= z give x # z."""
    n = len(up)
    return all(
        conflict[x] >> z & 1
        for x in range(n)
        for y in range(n)
        if conflict[x] >> y & 1
        for z in range(n)
        if up[y] >> z & 1
    )


def labelled_event_structures(k):
    """Every (up, conflict) on positions 0..k-1 satisfying the laws."""
    rows = [[mask for mask in range(1 << k) if mask >> i & 1] for i in range(k)]
    pairs = list(combinations(range(k), 2))
    for up in filter(_is_partial_order, product(*rows)):
        for chosen in range(1 << len(pairs)):
            conflict = [0] * k
            for bit, (i, j) in enumerate(pairs):
                if chosen >> bit & 1:
                    conflict[i] |= 1 << j
                    conflict[j] |= 1 << i
            if _inherited(up, conflict):
                yield tuple(up), tuple(conflict)


def _relabelled(rows, perm):
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in range(len(rows)):
            if row >> j & 1:
                out[perm[i]] |= 1 << perm[j]
    return tuple(out)


def canonical_key(up, conflict):
    """The least relabelling of both tables: equal exactly on isomorphic
    event structures."""
    return min(
        (_relabelled(up, perm), _relabelled(conflict, perm))
        for perm in permutations(range(len(up)))
    )


def event_classes(k):
    """One key per isomorphism class of event structures with k events."""
    return {canonical_key(up, conflict) for up, conflict in labelled_event_structures(k)}
