"""Independent reference checks for the benchmark's verdicts.

Nothing here imports the library.  Structures are read from the
library's output fields (names plus bitmask rows) or from JSON documents
into plain relations over element names, and every law is recomputed
from the definitions: orders, contact axioms, event-structure axioms,
embeddings, restrictions, strongness and cross-witnesses.  Pinned counts
come from outside the library: OEIS sequences and the brute-force oracle
in ``bench/tests``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

# Posets with a least element on n points (n = 1..7) are the posets on
# n - 1 points: OEIS A000112 = 1, 1, 2, 5, 16, 63, 318.
POSETS_WITH_BOTTOM = {1: 1, 2: 1, 3: 2, 4: 5, 5: 16, 6: 63, 7: 318}
# A finite join-semilattice with a bottom is a lattice: OEIS A006966.
LATTICES = {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53}
# Distributive lattices by size: OEIS A006982.
DISTRIBUTIVE_LATTICES = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 5, 7: 8, 8: 15}
# Contact structures up to isomorphism by size, and event structures by
# number of events, as counted by bench/tests/oracle.py (brute force
# over labelled relations, deduplicated by permutation search).
CONTACT_CLASSES = {
    "poset": {1: 1, 2: 1, 3: 3, 4: 11, 5: 63},
    "semilattice": {1: 1, 2: 1, 3: 1, 4: 3, 5: 11},
}
EVENT_CLASSES = {0: 1, 1: 1, 2: 3, 3: 11, 4: 63}


@dataclass(frozen=True)
class Rel:
    """A finite order plus one symmetric relation, over element names.

    ``rel`` is contact for contact structures and conflict for event
    structures; ``bottom`` is None for event structures.
    """

    names: tuple[str, ...]
    bottom: str | None
    leq: frozenset
    rel: frozenset
    kind: str

    @cached_property
    def ups(self) -> dict:
        """Principal up-set of every element."""
        out = {x: set() for x in self.names}
        for x, y in self.leq:
            out[x].add(y)
        return {x: frozenset(s) for x, s in out.items()}


def _decode(names, rows) -> frozenset:
    return frozenset(
        (names[i], names[j])
        for i, row in enumerate(rows)
        for j in range(len(names))
        if row >> j & 1
    )


def from_contact(s) -> Rel:
    """Read a library ContactStructure through its public fields."""
    return Rel(
        tuple(s.names), s.names[s.bottom], _decode(s.names, s.up),
        _decode(s.names, s.contact), s.kind,
    )


def from_event(e) -> Rel:
    return Rel(
        tuple(e.events), None, _decode(e.events, e.up),
        _decode(e.events, e.conflict), "event",
    )


def close_order(names, pairs) -> frozenset:
    """Reflexive-transitive closure of generating pairs."""
    succ: dict = {x: set() for x in names}
    for x, y in pairs:
        succ.setdefault(x, set()).add(y)
    leq = set()
    for x in names:
        seen, todo = {x}, [x]
        while todo:
            for y in succ.get(todo.pop(), ()):
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        leq.update((x, y) for y in seen)
    return frozenset(leq)


def symmetric(pairs) -> frozenset:
    return frozenset({tuple(p) for p in pairs} | {(y, x) for x, y in pairs})


def from_doc(doc: dict) -> Rel:
    """Parse a structure document as the file format defines it."""
    names = tuple(doc["elements"])
    if doc.get("kind") == "event":
        leq = close_order(names, doc.get("order", []))
        return Rel(names, None, leq, symmetric(doc.get("conflict", [])), "event")
    bottom = doc["bottom"]
    pairs = list(doc.get("order", [])) + [(bottom, x) for x in names]
    leq = close_order(names, pairs)
    return Rel(names, bottom, leq, symmetric(doc.get("contact", [])),
               doc.get("kind", "poset"))


def to_doc(r: Rel) -> dict:
    """Write a structure document (all order pairs, not just covers)."""
    doc = {
        "kind": r.kind,
        "elements": list(r.names),
        "order": sorted([x, y] for x, y in r.leq if x != y),
    }
    pairs = sorted([x, y] for x, y in r.rel if x <= y)
    if r.kind == "event":
        doc["conflict"] = pairs
    else:
        doc["bottom"] = r.bottom
        doc["contact"] = pairs
    return doc


def rename(r: Rel, mapping: dict) -> Rel:
    def pairs(rel):
        return frozenset((mapping[x], mapping[y]) for x, y in rel)

    bottom = None if r.bottom is None else mapping[r.bottom]
    return Rel(tuple(mapping[x] for x in r.names), bottom, pairs(r.leq),
               pairs(r.rel), r.kind)


# ---------------------------------------------------------------------------
# laws


def order_ok(r: Rel) -> bool:
    names = set(r.names)
    if any(x not in names or y not in names for x, y in r.leq):
        return False
    if any((x, x) not in r.leq for x in names):
        return False
    if any(x != y and (y, x) in r.leq for x, y in r.leq):
        return False
    return all(r.ups[y] <= r.ups[x] for x in r.names for y in r.ups[x])


def join(r: Rel, x: str, y: str) -> str | None:
    """Least upper bound: the upper bound whose up-set is all of them."""
    upper = r.ups[x] & r.ups[y]
    for z in upper:
        if r.ups[z] == upper:
            return z
    return None


def contact_ok(r: Rel) -> bool:
    """Order with least element, and contact that is symmetric, avoids
    the bottom, is reflexive off the bottom and extends upward."""
    if not order_ok(r) or r.bottom not in r.names:
        return False
    if any((r.bottom, x) not in r.leq for x in r.names):
        return False
    if any((y, x) not in r.rel for x, y in r.rel):
        return False
    if any(r.bottom in pair for pair in r.rel):
        return False
    if any((x, x) not in r.rel for x in r.names if x != r.bottom):
        return False
    for x, y in r.rel:
        if any((x2, y) not in r.rel for x2 in r.ups[x]):
            return False
    if r.kind == "semilattice":
        return all(join(r, x, y) is not None for x in r.names for y in r.names)
    return True


def event_ok(r: Rel) -> bool:
    """Conflict irreflexive, symmetric and inherited along causality."""
    if not order_ok(r):
        return False
    if any(x == y or (y, x) not in r.rel for x, y in r.rel):
        return False
    return all((x, z) in r.rel for x, y in r.rel for z in r.ups[y])


def is_distributive(r: Rel) -> bool:
    def meet(x, y):
        lower = [z for z in r.names if (z, x) in r.leq and (z, y) in r.leq]
        for z in lower:
            if all((w, z) in r.leq for w in lower):
                return z
        return None

    for x in r.names:
        for y in r.names:
            if join(r, x, y) is None or meet(x, y) is None:
                return False
    return all(
        meet(a, join(r, b, c)) == join(r, meet(a, b), meet(a, c))
        for a in r.names for b in r.names for c in r.names
    )


def is_embedding(src: Rel, dst: Rel, f: dict, joins: bool = False) -> bool:
    """Injective, bottom-preserving, order and contact preserving and
    reflecting; with joins, binary joins go to joins."""
    if set(f) != set(src.names) or any(v not in dst.names for v in f.values()):
        return False
    if len(set(f.values())) != len(f):
        return False
    if src.bottom is not None and f[src.bottom] != dst.bottom:
        return False
    for x in src.names:
        for y in src.names:
            if ((x, y) in src.leq) != ((f[x], f[y]) in dst.leq):
                return False
            if ((x, y) in src.rel) != ((f[x], f[y]) in dst.rel):
                return False
    if joins:
        for x in src.names:
            for y in src.names:
                j = join(src, x, y)
                if j is None or join(dst, f[x], f[y]) != f[j]:
                    return False
    return True


def restricts_exactly(d: Rel, side: Rel) -> bool:
    """The amalgam's relations restricted to a side's carrier are that
    side's relations, element for element."""
    keep = set(side.names)
    if not keep <= set(d.names):
        return False
    return (
        {p for p in d.leq if p[0] in keep and p[1] in keep} == side.leq
        and {p for p in d.rel if p[0] in keep and p[1] in keep} == side.rel
    )


def strong(d: Rel, a: Rel, b: Rel, c: Rel) -> bool:
    """Carrier is the union of the sides, which meet exactly in C."""
    return (
        set(a.names) & set(b.names) == set(c.names)
        and set(d.names) == set(a.names) | set(b.names)
        and len(d.names) == len(a.names) + len(b.names) - len(c.names)
    )


def cross_witnessed(d: Rel, a: Rel, b: Rel, c: Rel) -> bool:
    """Every cross comparability x <= y (x on one side, y on the other)
    routes through C: x <= z on x's side and z <= y on y's side."""
    for low, high in ((a, b), (b, a)):
        for x in low.names:
            for y in high.names:
                if (x, y) not in d.leq:
                    continue
                if not any(
                    (x, z) in low.leq and (z, y) in high.leq for z in c.names
                ):
                    return False
    return True


def induced(r: Rel, keep) -> Rel:
    keep = set(keep)
    return Rel(
        tuple(x for x in r.names if x in keep),
        r.bottom if r.bottom in keep else None,
        frozenset(p for p in r.leq if p[0] in keep and p[1] in keep),
        frozenset(p for p in r.rel if p[0] in keep and p[1] in keep),
        r.kind,
    )


# ---------------------------------------------------------------------------
# isomorphism classes


def canonical(r: Rel) -> tuple:
    """Isomorphism invariant that is complete: the least encoding over
    all relabellings that respect a cheap degree colouring (bottom
    pinned by its colour)."""
    below = {x: [y for y in r.names if (y, x) in r.leq] for x in r.names}
    above = {x: [y for y in r.names if (x, y) in r.leq] for x in r.names}
    touch = {x: [y for y in r.names if (x, y) in r.rel] for x in r.names}
    base = {x: (x != r.bottom, len(below[x]), len(above[x]), len(touch[x]))
            for x in r.names}

    def colour(x):
        return (base[x],) + tuple(
            tuple(sorted(base[y] for y in nbrs[x])) for nbrs in (below, above, touch)
        )

    groups: dict = {}
    for x in r.names:
        groups.setdefault(colour(x), []).append(x)
    keys = sorted(groups)
    best = None

    def rec(k, order):
        nonlocal best
        if k == len(keys):
            pos = {x: i for i, x in enumerate(order)}
            code = (
                tuple(sorted((pos[x], pos[y]) for x, y in r.leq)),
                tuple(sorted((pos[x], pos[y]) for x, y in r.rel)),
            )
            if best is None or code < best:
                best = code
            return
        for arrangement in permutations(groups[keys[k]]):
            rec(k + 1, order + list(arrangement))

    rec(0, [])
    return (r.kind, tuple((key, len(groups[key])) for key in keys), best)


def carrier_key(r: Rel) -> tuple:
    """Canonical key of the order alone."""
    return canonical(Rel(r.names, r.bottom, r.leq, frozenset(), r.kind))
