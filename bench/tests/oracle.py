"""Brute-force counts of contact and event structures up to isomorphism.

Enumerates every labelled order and every symmetric relation on small
carriers, keeps the ones the reference laws accept and deduplicates by
the reference canonical form.  Independent of the library; it is the
source of the counts pinned in ``bench/reference.py``.
"""

from __future__ import annotations

from itertools import combinations

from reference import Rel, canonical, contact_ok, event_ok


def labelled_orders(points: tuple[str, ...]) -> list[frozenset]:
    """Every partial order on the points, as a set of (x, y) pairs."""
    strict = [(x, y) for x in points for y in points if x != y]
    refl = {(x, x) for x in points}
    out = []
    for mask in range(1 << len(strict)):
        rel = {strict[k] for k in range(len(strict)) if mask >> k & 1}
        if any((y, x) in rel for x, y in rel):
            continue
        if any((x, z) not in rel for x, y in rel for y2, z in rel if y == y2 and x != z):
            continue
        out.append(frozenset(rel | refl))
    return out


def _symmetric_relations(pairs, forced):
    for k in range(len(pairs) + 1):
        for chosen in combinations(pairs, k):
            rel = set(forced)
            for x, y in chosen:
                rel |= {(x, y), (y, x)}
            yield frozenset(rel)


def contact_classes(n: int, kind: str) -> int:
    """Contact structures on n elements (bottom included) up to
    isomorphism."""
    points = tuple(f"p{i}" for i in range(1, n))
    names = ("0",) + points
    pairs = list(combinations(points, 2))
    forced = {(x, x) for x in points}
    keys = set()
    for order in labelled_orders(points):
        leq = order | {("0", x) for x in names}
        for rel in _symmetric_relations(pairs, forced):
            r = Rel(names, "0", leq, rel, kind)
            if contact_ok(r):
                keys.add(canonical(r))
    return len(keys)


def event_classes(k: int) -> int:
    """Event structures on k events up to isomorphism."""
    names = tuple(f"e{i}" for i in range(k))
    pairs = list(combinations(names, 2))
    keys = set()
    for order in labelled_orders(names):
        for rel in _symmetric_relations(pairs, ()):
            r = Rel(names, None, order, rel, "event")
            if event_ok(r):
                keys.add(canonical(r))
    return len(keys)
