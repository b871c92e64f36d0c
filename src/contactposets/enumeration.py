"""Exhaustive generation of carriers and contact relations up to
isomorphism, canonical forms, and the age catalog used as the oracle
backbone of the test suite.

Contact structures are generated isomorph-free.  The carriers are
canonical, pairwise non-isomorphic posets with the bottom at index 0, so
an isomorphism between two structures on the same carrier is a
bottom-fixing automorphism of that carrier, and structures on different
carriers are never isomorphic.  Poset carriers are grown one maximal
point at a time.  Semilattice carriers are the finite lattices, grown
one atom at a time: removing an atom from a lattice of at least 3
elements leaves a lattice, because a join x v y equal to the atom would
force x = y = 0.  Valid tables are overlap plus an up-set
of free pairs, automorphisms permute the free pairs, and so the
isomorphism classes on a carrier are exactly the orbits of those up-sets;
only the least mask of each orbit is built and canonicalised.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, permutations
from operator import or_
from typing import Iterator, NamedTuple, Sequence

from .core import (
    KINDS,
    POSET,
    SEMILATTICE,
    ContactStructure,
    _join_escape,
    bits,
    is_semilattice_order,
    join_table,
    mask_image,
    meet_table,
    overlap_relation,
    relabel_rows,
    restrict,
    transpose,
)
from .errors import AxiomViolation

CanonicalKey = tuple


# ---------------------------------------------------------------------------
# canonical forms for labelled relational tables


def _refine_colors(
    n: int, relations: Sequence[Sequence[int]], colors: Sequence[int]
) -> tuple[int, ...]:
    """Iterated neighbourhood refinement of an initial colouring.

    A round ranks, for every i, its colour together with the sorted
    profile of (colour of j, out-bits i -> j, in-bits j -> i) over all j.
    The relation bits of each pair are packed once into one int, in the
    order the bit tuples would compare, so a profile entry is the plain
    int ``colour << width | pattern`` and sorts exactly like the tuple;
    profiles all have length n, so flattening one into the signature
    keeps the order of signatures too.
    """
    width = 2 * len(relations)
    patterns = []
    for i in range(n):
        row = []
        for j in range(n):
            packed = 0
            for rel in relations:
                packed = packed << 1 | rel[i] >> j & 1
            for rel in relations:
                packed = packed << 1 | rel[j] >> i & 1
            row.append(packed)
        patterns.append(row)
    current = tuple(colors)
    while True:
        shifted = [c << width for c in current]
        signatures = [
            (c, *sorted(map(or_, shifted, row)))
            for c, row in zip(current, patterns)
        ]
        ranked = {sig: rank for rank, sig in enumerate(sorted(set(signatures)))}
        refreshed = tuple([ranked[sig] for sig in signatures])
        if refreshed == current:
            return refreshed
        current = refreshed


def _admissible_perms(colors: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All relabellings sending each colour class onto its block.

    Positions are blocked by ascending colour; the permutation maps old
    index -> new position.
    """
    n = len(colors)
    classes: dict[int, list[int]] = {}
    for i, c in enumerate(colors):
        classes.setdefault(c, []).append(i)
    ordered = sorted(classes)
    blocks = []
    start = 0
    for c in ordered:
        members = classes[c]
        blocks.append((members, start))
        start += len(members)

    def rec(k: int, perm: list[int]) -> Iterator[tuple[int, ...]]:
        if k == len(blocks):
            yield tuple(perm)
            return
        members, base = blocks[k]
        for arrangement in permutations(members):
            for offset, i in enumerate(arrangement):
                perm[i] = base + offset
            yield from rec(k + 1, perm)

    yield from rec(0, [0] * n)


def _encode(n: int, relations: Sequence[Sequence[int]], perm: Sequence[int]) -> tuple[int, ...]:
    """Each relation relabelled by perm, packed into one int: the row
    at new position a fills bits a*n .. a*n + n - 1.  A new row is the
    image of one source row, one step per set bit, and rows are packed
    from the top position down."""
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    targets = [1 << p for p in perm]
    words = []
    for rel in relations:
        acc = 0
        for a in reversed(range(n)):
            row = rel[inv[a]]
            image = 0
            while row:
                low = row & -row
                image |= targets[low.bit_length() - 1]
                row ^= low
            acc = acc << n | image
        words.append(acc)
    return tuple(words)


def canonical_table_key(
    n: int,
    relations: Sequence[Sequence[int]],
    colors: Sequence[int] | None = None,
) -> tuple[tuple, tuple[int, ...]]:
    """Canonical key and witnessing relabelling for relation tables.

    The key is identical for inputs that differ by a colour-preserving
    relabelling and distinct otherwise; colours survive into the key so
    marked structures canonicalize as marked.
    """
    base = tuple(colors) if colors is not None else (0,) * n
    refined = _refine_colors(n, relations, base)
    if len(set(refined)) == n:
        # a discrete colouring is the only admissible permutation
        best_perm = refined
        best_words = _encode(n, relations, refined)
    else:
        best_words = best_perm = None
        for perm in _admissible_perms(refined):
            words = _encode(n, relations, perm)
            if best_words is None or words < best_words:
                best_words = words
                best_perm = perm
    class_sizes = tuple(
        sorted((refined.count(c), base[refined.index(c)]) for c in set(refined))
    )
    assert best_words is not None and best_perm is not None
    return (n, class_sizes, best_words), best_perm


@lru_cache(maxsize=None)
def canonical_form(s: ContactStructure) -> tuple[CanonicalKey, tuple[int, ...]]:
    """Canonical key plus relabelling for a contact structure.

    The bottom is pinned by its colour, so keys compare structures over
    bottom-preserving isomorphisms only.
    """
    colors = tuple(0 if i == s.bottom else 1 for i in range(s.n))
    key, perm = canonical_table_key(s.n, (s.up, s.contact), colors)
    return (s.kind,) + key, perm


def canonical_key(s: ContactStructure) -> CanonicalKey:
    return canonical_form(s)[0]


def canonicalize(s: ContactStructure) -> ContactStructure:
    """Relabelled copy with canonical positions and standard names."""
    _, perm = canonical_form(s)
    moved = s.relabel(perm)
    names = tuple(
        "0" if i == moved.bottom else f"e{i}" for i in range(moved.n)
    )
    return ContactStructure(names, moved.bottom, moved.up, moved.contact, moved.kind)


def isomorphic(s: ContactStructure, t: ContactStructure) -> bool:
    return canonical_key(s) == canonical_key(t)


def automorphisms(s: ContactStructure) -> list[tuple[int, ...]]:
    """All bottom-fixing self-isomorphisms, as index permutations."""
    return list(isomorphisms(s, s))


def _bottom_colors(s) -> tuple[int, ...]:
    """The refined colouring of s from the bottom-pinned start, the one
    isomorphisms matches colour classes by."""
    start = tuple(0 if i == s.bottom else 1 for i in range(s.n))
    return _refine_colors(s.n, (s.up, s.contact), start)


def isomorphisms(
    s: ContactStructure,
    t: ContactStructure,
    s_colors: Sequence[int] | None = None,
) -> Iterator[tuple[int, ...]]:
    """All bottom-preserving isomorphisms s -> t as index maps.

    s_colors are s's refined colours (_bottom_colors(s)); a caller that
    matches one source against many targets computes them once.  Only
    n, kind, bottom and the rows of s and t are read.

    Precondition: both orders are reflexive, both contacts symmetric,
    and either every element but the bottom touches itself on both sides
    (Ref) or none does: valid structures, their restrictions that keep
    the bottom and the empty-contact carriers of _orbit_least_upsets.
    Then a completed map needs no re-check: every off-diagonal pair was
    compared, and the bottom, alone in colour 0, goes to the bottom.
    """
    if s.n != t.n or s.kind != t.kind:
        return
    if s_colors is None:
        s_colors = _bottom_colors(s)
    t_colors = _bottom_colors(t)
    if sorted(s_colors) != sorted(t_colors):
        return
    slots: dict[int, list[int]] = {}
    for j, c in enumerate(t_colors):
        slots.setdefault(c, []).append(j)
    order = sorted(range(s.n), key=lambda i: (s_colors[i], i))

    def rec(k: int, acc: dict[int, int], used: set[int]) -> Iterator[tuple[int, ...]]:
        if k == len(order):
            yield tuple(acc[i] for i in range(s.n))
            return
        i = order[k]
        for j in slots.get(s_colors[i], ()):
            if j in used:
                continue
            ok = all(
                (s.up[i] >> i2 & 1) == (t.up[j] >> j2 & 1)
                and (s.up[i2] >> i & 1) == (t.up[j2] >> j & 1)
                and (s.contact[i] >> i2 & 1) == (t.contact[j] >> j2 & 1)
                for i2, j2 in acc.items()
            )
            if not ok:
                continue
            acc[i] = j
            used.add(j)
            yield from rec(k + 1, acc, used)
            del acc[i]
            used.discard(j)

    yield from rec(0, {}, set())


# ---------------------------------------------------------------------------
# poset carriers


def _down_sets(up: Sequence[int]) -> list[int]:
    """All downward-closed subsets of an order table."""
    down = transpose(up)
    out = []
    for mask in range(1 << len(up)):
        if all(down[i] & ~mask == 0 for i in bits(mask)):
            out.append(mask)
    return out


def _grown(small: Sequence[int]) -> Iterator[list[int]]:
    """small with one new maximal point above each of its down-sets in
    turn, the new point last."""
    top = 1 << len(small)
    for ideal in _down_sets(small):
        up = [row | top if ideal >> i & 1 else row for i, row in enumerate(small)]
        up.append(top)
        yield up


def _keep_canonical(
    found: dict[tuple, tuple[int, ...]],
    up: Sequence[int],
    colors: Sequence[int] | None = None,
) -> None:
    """Record up's canonical relabelling under its canonical key, unless
    its class is already recorded."""
    key, perm = canonical_table_key(len(up), (tuple(up),), colors)
    if key not in found:
        found[key] = relabel_rows(up, perm)


@lru_cache(maxsize=None)
def enumerate_posets(k: int) -> tuple[tuple[int, ...], ...]:
    """All posets on k unlabelled points, as canonical order tables.

    Grown one maximal point at a time: the new point sits above an
    arbitrary down-set of the smaller poset.
    """
    if k == 0:
        return ((),)
    if k == 1:
        return ((1,),)
    seen: dict[tuple, tuple[int, ...]] = {}
    for small in enumerate_posets(k - 1):
        for up in _grown(small):
            _keep_canonical(seen, up)
    return tuple(seen[key] for key in sorted(seen))


def enumerate_posets_with_bottom(n: int) -> tuple[tuple[int, ...], ...]:
    """All posets with a minimum on n points, bottom at index 0.

    Stripping the minimum is a bijection onto arbitrary posets on n - 1
    points, so the tables are those posets with a bottom adjoined.
    """
    if n < 1:
        raise ValueError("need at least one element")
    if n > 6:
        warnings.warn("poset enumeration beyond n = 6 gets slow", stacklevel=2)
    out = []
    for small in enumerate_posets(n - 1):
        up = [(1 << n) - 1]
        up.extend(row << 1 for row in small)
        out.append(tuple(up))
    return tuple(out)


@lru_cache(maxsize=None)
def _lattice_carriers(n: int) -> tuple[tuple[int, ...], ...]:
    """One order table per isomorphism class of n-element lattices,
    canonical, with the bottom at index 0.

    Grown one atom at a time: each (n-1)-element lattice gets a new atom
    a below each up-set U of its nonzero elements (the empty one too),
    with up[0] |= a and up[a] = U | a, kept when U & up[x] is a row of
    the small lattice for every nonzero x, i.e. when the join a v x
    exists.  Every lattice is reached: removing an atom a from a lattice
    of at least 3 elements leaves a lattice, since a join x v y = a would
    force x, y <= a and so x = y = 0.  The bottom is pinned by its colour
    while candidates are deduplicated, so it stays at index 0.
    """
    if n == 1:
        return ((1,),)
    found: dict[tuple, tuple[int, ...]] = {}
    atom = 1 << (n - 1)
    colors = (0,) + (1,) * (n - 1)
    for small in _lattice_carriers(n - 1):
        rows = set(small)
        nonzero = small[1:]
        for upset in _down_sets(transpose(small)):
            if upset & 1 or any(upset & row not in rows for row in nonzero):
                continue
            _keep_canonical(found, (small[0] | atom, *nonzero, upset | atom), colors)
    return tuple(found[key] for key in sorted(found))


# ---------------------------------------------------------------------------
# contact relations over a fixed carrier


def _free_pairs(s: ContactStructure, overlap: Sequence[int]) -> list[tuple[int, int]]:
    """Unordered nonzero pairs not already forced into contact."""
    out = []
    for i in range(s.n):
        if i == s.bottom:
            continue
        for j in range(i + 1, s.n):
            if j == s.bottom:
                continue
            if not overlap[i] >> j & 1:
                out.append((i, j))
    return out


def _pair_leq(s: ContactStructure, p: tuple[int, int], q: tuple[int, int]) -> bool:
    (a, b), (c, d) = p, q
    return (
        bool(s.up[a] >> c & 1) and bool(s.up[b] >> d & 1)
    ) or (
        bool(s.up[a] >> d & 1) and bool(s.up[b] >> c & 1)
    )


def _free_pair_upsets(
    s: ContactStructure, overlap: Sequence[int]
) -> tuple[list[tuple[int, int]], list[int]]:
    """The free pairs of s and every up-set of their order, as ascending
    bit masks over the free-pair list."""
    free = _free_pairs(s, overlap)
    m = len(free)
    succ = [0] * m
    for a in range(m):
        for b in range(m):
            if a != b and _pair_leq(s, free[a], free[b]):
                succ[a] |= 1 << b
    upsets = [
        chosen
        for chosen in range(1 << m)
        if not any(succ[a] & ~chosen for a in bits(chosen))
    ]
    return free, upsets


def _contact_table(
    overlap: Sequence[int], free: Sequence[tuple[int, int]], chosen: int
) -> tuple[int, ...]:
    rows = list(overlap)
    for a in bits(chosen):
        i, j = free[a]
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return tuple(rows)


def all_contact_tables(s: ContactStructure) -> list[tuple[int, ...]]:
    """Every valid contact table on the carrier of s (labelled, all of
    them, not up to isomorphism).

    Valid tables are exactly overlap plus an upward-closed set of free
    pairs, so they are enumerated as up-sets of the free-pair order.
    """
    overlap = overlap_relation(s)
    free, upsets = _free_pair_upsets(s, overlap)
    return [_contact_table(overlap, free, chosen) for chosen in upsets]


def _orbit_least_upsets(
    s: ContactStructure, free: Sequence[tuple[int, int]], upsets: Sequence[int]
) -> list[int]:
    """The up-sets that are the least mask of their orbit under the
    bottom-fixing automorphisms of s.

    An automorphism preserves overlap, so it permutes the free pairs;
    target[a] is the bit of the free pair it sends pair a to.
    """
    where = {pair: a for a, pair in enumerate(free)}
    identity = tuple(range(s.n))
    targets = [
        [1 << where[min(perm[i], perm[j]), max(perm[i], perm[j])] for i, j in free]
        for perm in automorphisms(s)
        if perm != identity
    ]
    out = []
    for chosen in upsets:
        members = list(bits(chosen))
        for target in targets:
            image = 0
            for a in members:
                image |= target[a]
            if image < chosen:
                break
        else:
            out.append(chosen)
    return out


# ---------------------------------------------------------------------------
# lattice predicates


def lattice_operations(
    s: ContactStructure,
) -> tuple[list[list[int]], list[list[int]]] | None:
    """The join and meet of every pair as two n x n tables, read off one
    join table and one meet table (core.join_table, core.meet_table);
    None when some pair lacks its join or its meet."""
    joins, meets = join_table(s), meet_table(s)
    down = s.down_masks()
    join = [[joins.get(u & v) for v in s.up] for u in s.up]
    meet = [[meets.get(d & e) for e in down] for d in down]
    if any(None in row for row in join) or any(None in row for row in meet):
        return None
    return join, meet


def is_lattice(s: ContactStructure) -> bool:
    return lattice_operations(s) is not None


def is_semilattice(s: ContactStructure) -> bool:
    return is_semilattice_order(s)


def is_distributive(s: ContactStructure) -> bool:
    """Distributivity via the triple law; requires a lattice."""
    operations = lattice_operations(s)
    if operations is None:
        return False
    join, meet = operations
    for a in range(s.n):
        meet_a = meet[a]
        for b in range(s.n):
            for c in range(s.n):
                if meet_a[join[b][c]] != join[meet_a[b]][meet_a[c]]:
                    return False
    return True


# ---------------------------------------------------------------------------
# the catalog


@dataclass(frozen=True)
class AgeCatalog:
    """Canonical representatives of every valid structure up to a size.

    items are sorted by canonical key; index maps keys back to
    positions, which is what isomorphism lookups use.
    """

    bound: int
    kind: str
    items: tuple[ContactStructure, ...]

    @classmethod
    def build(cls, bound: int, kind: str = POSET) -> "AgeCatalog":
        items: list[ContactStructure] = []
        for n in range(1, bound + 1):
            items.extend(enumerate_contact_structures(n, kind))
        return cls(bound, kind, tuple(items))

    @cached_property
    def index(self) -> dict[CanonicalKey, int]:
        return {canonical_key(item): pos for pos, item in enumerate(self.items)}

    def by_size(self, n: int) -> tuple[ContactStructure, ...]:
        return tuple(item for item in self.items if item.n == n)

    def find(self, s: ContactStructure) -> ContactStructure | None:
        pos = self.index.get(canonical_key(s))
        return None if pos is None else self.items[pos]


@lru_cache(maxsize=None)
def enumerate_contact_structures(n: int, kind: str = POSET) -> tuple[ContactStructure, ...]:
    """All contact structures of size n up to isomorphism, canonical and
    deterministically ordered.  Each is overlap plus an up-set of free
    pairs, valid by construction (all_contact_tables), so none is checked.
    Semilattice carriers are the lattices of _lattice_carriers; every item
    is canonicalised and the list sorted by key, so the labelling of a
    carrier never reaches the output."""
    if kind not in KINDS:
        raise AxiomViolation(f"unknown kind {kind!r}")
    found: dict[CanonicalKey, ContactStructure] = {}
    if kind == SEMILATTICE:
        carriers = _lattice_carriers(n)
    else:
        carriers = enumerate_posets_with_bottom(n)
    for up in carriers:
        carrier = ContactStructure(
            tuple("0" if i == 0 else f"e{i}" for i in range(n)),
            0,
            up,
            tuple([0] * n),
            kind,
        )
        overlap = overlap_relation(carrier)
        free, upsets = _free_pair_upsets(carrier, overlap)
        for chosen in _orbit_least_upsets(carrier, free, upsets):
            candidate = carrier.with_contact(_contact_table(overlap, free, chosen))
            key = canonical_key(candidate)
            if key not in found:
                found[key] = canonicalize(candidate)
    return tuple(found[key] for key in sorted(found))


# ---------------------------------------------------------------------------
# distributive lattices, grown through Birkhoff duality


@lru_cache(maxsize=None)
def _ideal_bounded_posets(max_ideals: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Posets (size, table) whose number of down-sets stays within the
    bound; grown like enumerate_posets but pruned by ideal count."""
    out: list[tuple[int, tuple[int, ...]]] = [(0, ())]
    layer: list[tuple[int, ...]] = [()]
    k = 0
    while layer:
        k += 1
        grown: dict[tuple, tuple[int, ...]] = {}
        for small in layer:
            for up in _grown(small):
                if len(_down_sets(up)) <= max_ideals:
                    _keep_canonical(grown, up)
        layer = list(grown.values())
        out.extend((k, table) for table in layer)
    return tuple(out)


def enumerate_distributive_lattices(max_size: int) -> tuple[ContactStructure, ...]:
    """All distributive lattices with at most max_size elements, up to
    isomorphism, as bare carriers (empty contact) tagged semilattice.

    Each lattice is the lattice of down-sets of a poset; non-isomorphic
    posets give non-isomorphic lattices, so pruned poset generation is
    the whole search.
    """
    out = []
    for _, table in _ideal_bounded_posets(max_size):
        ideals = sorted(_down_sets(table))
        m = len(ideals)
        if m > max_size:
            continue
        pos = {ideal: i for i, ideal in enumerate(ideals)}
        up = [0] * m
        for i, small in enumerate(ideals):
            for j, big in enumerate(ideals):
                if small & ~big == 0:
                    up[i] |= 1 << j
        lattice = ContactStructure(
            tuple("0" if i == 0 else f"e{i}" for i in range(m)),
            pos[0],
            tuple(up),
            tuple([0] * m),
            SEMILATTICE,
        )
        out.append(canonicalize(lattice))
    return tuple(sorted(out, key=canonical_key))


# ---------------------------------------------------------------------------
# embeddings onto induced substructures


def carrier_subsets(
    t: ContactStructure, size: int, kind: str | None = None
) -> Iterator[tuple[str, ...]]:
    """Subsets of the carrier containing the bottom, join-closed when the
    requested kind (default: t's own) is semilattice."""
    kind = t.kind if kind is None else kind
    for chosen in _carrier_positions(t, size, kind):
        yield tuple(t.names[i] for i in chosen)


def _carrier_positions(t, size: int, kind: str) -> Iterator[tuple[int, ...]]:
    """carrier_subsets as ascending index tuples; reads t's bottom and
    up-rows only."""
    others = [i for i in range(t.n) if i != t.bottom]
    if kind == SEMILATTICE:
        joins, up = join_table(t), t.up
    for rest in combinations(others, size - 1):
        chosen = (t.bottom,) + rest
        if kind == SEMILATTICE and _join_escape(joins, up, chosen):
            continue
        yield tuple(sorted(chosen))


class _Rows(NamedTuple):
    """The name-free part of a structure, all that its embeddings depend
    on: the memo key of induced_embeddings.  It reads like a structure
    to isomorphisms and join_table."""

    bottom: int
    up: tuple[int, ...]
    contact: tuple[int, ...]
    kind: str

    @property
    def n(self) -> int:
        return len(self.up)


def _degree_profile(up: Sequence[int], contact: Sequence[int]) -> list[int]:
    """Sorted (up-degree, contact-degree) pairs, packed one int each.
    An isomorphism keeps each element's pair, so tables whose profiles
    differ have none; a packing collision could only hide a difference."""
    return sorted([u.bit_count() << 16 | c.bit_count() for u, c in zip(up, contact)])


def _embedding_search(s: _Rows, t: _Rows) -> Iterator[tuple[int, ...]]:
    """Embeddings of s onto induced substructures of t as index maps
    (entry i is t's position of s's element i), subset by
    subset in carrier_subsets order and, within a subset, in the order
    isomorphisms finds them.

    s's colours and degree profile are computed once.  A piece is t's
    rows restricted to the subset (core.restrict) and not re-validated:
    the axioms are universal, so they hold on every restriction of a
    valid structure that keeps its bottom, and carrier_subsets keeps
    only join-closed subsets for semilattices.  A piece whose degree
    profile differs from s's has no isomorphism from s and is skipped.
    """
    if s.n > t.n:
        return
    colors = _bottom_colors(s)
    profile = _degree_profile(s.up, s.contact)
    for chosen in _carrier_positions(t, s.n, s.kind):
        up, contact = restrict(chosen, t.up, t.contact)
        if _degree_profile(up, contact) != profile:
            continue
        piece = _Rows(chosen.index(t.bottom), up, contact, s.kind)
        for perm in isomorphisms(s, piece, colors):
            yield tuple([chosen[p] for p in perm])


@lru_cache(maxsize=4096)
def _embedding_table(s: _Rows, t: _Rows) -> tuple[tuple[int, ...], ...]:
    """Every map _embedding_search yields, memoised by rows: renamed
    copies of the same pair share one entry.  Bounded, module-level and
    cleared with the other caches."""
    return tuple(_embedding_search(s, t))


def induced_embeddings(
    s: ContactStructure, t: ContactStructure, memo: bool = True
) -> Iterator[dict[str, str]]:
    """All embeddings of s onto induced substructures of t, as name maps.

    For semilattices only join-closed images count, which makes these
    exactly the signature embeddings.  The maps are read off the
    memoised index maps of the pair; with memo=False the search runs
    lazily instead, for a caller that stops at the first map.  The order
    is the same either way.
    """
    s_rows = _Rows(s.bottom, tuple(s.up), tuple(s.contact), s.kind)
    t_rows = _Rows(t.bottom, tuple(t.up), tuple(t.contact), s.kind)
    found = _embedding_table(s_rows, t_rows) if memo else _embedding_search(s_rows, t_rows)
    s_names, t_names = s.names, t.names
    for f in found:
        yield {name: t_names[j] for name, j in zip(s_names, f)}


def gluings_up_to_iso(
    a: ContactStructure, b: ContactStructure
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """One gluing of b onto a per isomorphism class of instances: pairs
    (C's positions in a, ascending; their images' positions in b).

    Gluings that automorphisms of a and b carry onto each other give
    isomorphic instances, so one per orbit of Aut(a) x Aut(b) keeps a
    sweep exhaustive up to isomorphism (McKay, "Isomorph-free exhaustive
    generation", 1998).  A carrier subset is kept when its mask is the
    least of its orbit under Aut(a).  An embedding of C into b is kept
    when its index map is the least of its orbit under the subset's
    stabiliser in Aut(a), acting on C, times Aut(b).  Subsets and maps
    come from _carrier_positions and the memoised _embedding_table, read
    with a's kind on both sides as induced_embeddings reads them.
    """
    auts_a, auts_b = automorphisms(a), automorphisms(b)
    b_rows = _Rows(b.bottom, tuple(b.up), tuple(b.contact), a.kind)
    for size in range(1, min(a.n, b.n) + 1):
        for chosen in _carrier_positions(a, size, a.kind):
            mask = sum(1 << i for i in chosen)
            images = [mask_image(mask, alpha) for alpha in auts_a]
            if min(images) < mask:
                continue
            stabiliser = [
                [chosen.index(alpha[i]) for i in chosen]
                for alpha, image in zip(auts_a, images)
                if image == mask
            ]
            up, contact = restrict(chosen, a.up, a.contact)
            c_rows = _Rows(chosen.index(a.bottom), up, contact, a.kind)
            for f in _embedding_table(c_rows, b_rows):
                if all(
                    tuple([beta[f[k]] for k in sigma]) >= f
                    for sigma in stabiliser
                    for beta in auts_b
                ):
                    yield chosen, f
