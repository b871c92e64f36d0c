"""Distributivity by forbidden sublattices, kept as a test oracle.

A lattice is distributive exactly when it has no diamond (M3) and no
pentagon (N5) sublattice.  The library decides distributivity by the
triple law (enumeration.is_distributive); the tests cross-check it with
this search.
"""

from itertools import combinations

from contactposets.core import ContactStructure
from contactposets.enumeration import lattice_operations


def is_distributive_by_sublattices(s: ContactStructure) -> bool:
    """Distributivity as absence of diamond and pentagon sublattices.

    Cross-checked against the triple law in the tests; a sublattice here
    is any subset closed under the ambient joins and meets.
    """
    operations = lattice_operations(s)
    if operations is None:
        return False
    join, meet = operations
    for quint in combinations(range(s.n), 5):
        closed = all(
            join[a][b] in quint and meet[a][b] in quint
            for a in quint
            for b in quint
        )
        if not closed:
            continue
        sub = [
            [bool(s.up[a] >> b & 1) for b in quint]
            for a in quint
        ]
        if _is_m3_or_n5(sub):
            return False
    return True


def _is_m3_or_n5(leq: list[list[bool]]) -> bool:
    n = 5
    below = [sum(1 for a in range(n) if leq[a][b]) for b in range(n)]
    bot = below.index(1)
    top = below.index(5)
    mid = [i for i in range(n) if i not in (bot, top)]
    incomparable = [
        (a, b)
        for a in mid
        for b in mid
        if a < b and not leq[a][b] and not leq[b][a]
    ]
    if len(incomparable) == 3:
        return True  # three pairwise incomparable midpoints: diamond
    if len(incomparable) == 2:
        chain = [
            (a, b) for a in mid for b in mid if a != b and leq[a][b]
        ]
        return len(chain) == 1  # pentagon: one comparable pair among mid
    return False
