"""Differential tests of the one semi-naive closure and the one up-set
filter.

``core.close_under`` pairs each new value once with each generator.  It
closes the image family of ``represent._image_family`` under unions,
the cuts of ``represent.macneille_completion`` under meets with
principal down-sets, and ``fraisse.generated_subsemilattice`` under
joins.  ``enumeration._free_pair_upsets`` reads its up-sets off
``_down_sets``, which grows the down-sets of an order along a linear
extension instead of filtering all 2^n masks.  The loops and the
filters they replaced are kept below as the references.
"""

import random
from itertools import combinations

import pytest

from contactposets import amalgam, enumeration, fraisse, represent
from contactposets.amalgam import contact_amalgam
from contactposets.core import (
    POSET,
    SEMILATTICE,
    ContactStructure,
    bits,
    close_under,
    join_table,
    overlap_relation,
    transpose,
    verify_map,
)
from contactposets.enumeration import AgeCatalog, automorphisms, isomorphisms
from contactposets.fraisse import (
    build_limit_stage,
    generated_subsemilattice,
    random_instance,
)
from contactposets.represent import (
    Origin,
    _check_cut_bounds,
    _cut_family,
    _image_embedding,
    _image_family,
    _image_origins,
    _member_names,
    _nonbelow_masks,
    macneille_completion,
)


# ---------------------------------------------------------------------------
# the references: the loops and filters close_under and _down_sets
# replaced


def reference_image_family(s, union_closed):
    """Every frontier set joined with every known set, each round."""
    phi = _nonbelow_masks(s)
    provenance = {}
    masks = []

    def add(mask, origin):
        if mask not in provenance:
            provenance[mask] = []
            masks.append(mask)
        provenance[mask].append(origin)

    for a in range(s.n):
        add(phi[a], Origin("element-image", (s.names[a],)))
    for a in range(s.n):
        for b in bits(s.contact[a]):
            if b < a:
                continue
            add(
                phi[a] & phi[b],
                Origin("pair-intersection", (s.names[a], s.names[b])),
            )
    if union_closed:
        frontier = list(masks)
        while frontier:
            fresh = []
            for x in frontier:
                for y in list(masks):
                    u = x | y
                    if u not in provenance:
                        add(u, Origin("union"))
                        fresh.append(u)
            frontier = fresh
    return masks, provenance


def reference_macneille_completion(s):
    """Every cut met with every principal down-set, each round."""
    down = s.down_masks()
    cuts = {s.full_mask} | {down[a] for a in range(s.n)}
    while True:
        fresh = {
            x & down[a] for x in cuts for a in range(s.n)
        } - cuts
        if not fresh:
            break
        cuts |= fresh
    provenance = {mask: [Origin("cut")] for mask in cuts}
    for a in range(s.n):
        provenance[down[a]].append(Origin("element-image", (s.names[a],)))
    family = _cut_family(s, sorted(cuts), lambda: provenance, down[s.bottom])
    chi = dict(zip(s.names, _member_names(s.names, down)))
    total = verify_map(s, family.structure, chi)
    _check_cut_bounds(s, family, down)
    return family, total


def reference_generated_subsemilattice(s, generators):
    """Every pair of closed elements joined, each round."""
    joins, up = join_table(s), s.up
    closed = {s.index(name) for name in generators}
    closed.add(s.bottom)
    while True:
        fresh = set()
        for i in closed:
            for j in closed:
                join = joins.get(up[i] & up[j])
                if join is not None and join not in closed:
                    fresh.add(join)
        if not fresh:
            break
        closed |= fresh
    return tuple(s.names[i] for i in sorted(closed))


def reference_down_sets(up):
    """Every mask over the elements, kept when it holds the down-set of
    each of its elements."""
    down = transpose(up)
    out = []
    for mask in range(1 << len(up)):
        if all(down[i] & ~mask == 0 for i in bits(mask)):
            out.append(mask)
    return out


def reference_free_pair_upsets(s, overlap):
    """Every mask over the free pairs, kept when it holds the strict
    successors of each of its pairs."""
    free = enumeration._free_pairs(s, overlap)
    m = len(free)
    succ = [0] * m
    for a in range(m):
        for b in range(m):
            if a != b and enumeration._pair_leq(s, free[a], free[b]):
                succ[a] |= 1 << b
    upsets = [
        chosen
        for chosen in range(1 << m)
        if not any(succ[a] & ~chosen for a in bits(chosen))
    ]
    return free, upsets


# ---------------------------------------------------------------------------
# inputs


@pytest.fixture(scope="module")
def posets_5():
    return AgeCatalog.build(5, POSET).items


def _boolean_lattice(k):
    """The 2^k subsets of k atoms ordered by inclusion, with overlap
    contact, tagged semilattice."""
    n = 1 << k
    up = tuple(sum(1 << j for j in range(n) if i & ~j == 0) for i in range(n))
    bare = ContactStructure(
        tuple(f"s{i}" for i in range(n)), 0, up, (0,) * n, SEMILATTICE
    )
    return bare.with_contact(overlap_relation(bare))


def _carriers(n):
    for kind, tables in (
        (POSET, enumeration.enumerate_posets_with_bottom(n)),
        (SEMILATTICE, enumeration._lattice_carriers(n)),
    ):
        for up in tables:
            yield ContactStructure(tuple(map(str, range(n))), 0, up, (0,) * n, kind)


# ---------------------------------------------------------------------------
# the tests


def test_close_under_is_the_least_closed_superset():
    # the multiples of 3 and 5 mod 16 under addition, from 0
    closed = close_under([0], [3, 5], lambda x, g: (x + g) % 16)
    assert closed == set(range(16))
    assert close_under([1, 2], [4], lambda x, g: x | g) == {1, 2, 5, 6}
    assert close_under([], [1], lambda x, g: x) == set()


def test_image_family_matches_reference(posets_5, semilattice_catalog_6):
    """The masks, and the provenance read off the built family."""
    for s in posets_5 + semilattice_catalog_6.items:
        masks = _image_family(s, _nonbelow_masks(s), True)
        want_masks, want_provenance = reference_image_family(s, True)
        assert sorted(masks) == sorted(want_masks)
        assert len(masks) == len(set(masks))
        family, _ = _image_embedding(s, True, SEMILATTICE)
        provenance = dict(zip(family.sets, family.provenance))
        want = {mask: tuple(origins) for mask, origins in want_provenance.items()}
        assert provenance == want, s


def _same_masks(s, union_closed):
    masks = _image_family(s, _nonbelow_masks(s), union_closed)
    want_masks, _ = reference_image_family(s, union_closed)
    return sorted(masks) == sorted(want_masks)


def test_image_family_on_the_semilattice_stage(monkeypatch):
    """The mask set of the union-closed image family of every amalgam d
    the 64-element semilattice leg grows through, against the
    reference, which adds a pair intersection for comparable contact
    pairs too.  The stage path no longer builds that family, so the d's
    are collected from the growth kernel _grow."""
    seen = []

    def recording(inst):
        d = amalgam._grow(inst)
        seen.append(d)
        return d

    monkeypatch.setattr(fraisse, "_grow", recording)
    catalog = AgeCatalog.build(3, SEMILATTICE)
    build_limit_stage(SEMILATTICE, 2, 64, catalog=catalog, max_elements=64)
    monkeypatch.undo()
    assert len(seen) == 63
    assert max(d.n for d in seen) == 64
    for d in seen:
        assert _same_masks(d, True), d


def test_image_family_on_random_amalgams(poset_catalog_6, semilattice_catalog_6):
    """200 seeded random_instance draws over the catalogs up to 6
    elements, their amalgams with and without the union closure."""
    rng = random.Random(24)
    drawn = 0
    for catalog in (poset_catalog_6, semilattice_catalog_6):
        for _ in range(100):
            inst = random_instance(catalog, rng)
            d = contact_amalgam(inst)
            assert _same_masks(d, False), d
            assert _same_masks(d, True), d
            drawn += 1
    assert drawn == 200


def test_macneille_completion_matches_reference(posets_5, semilattice_catalog_6):
    for s in posets_5 + semilattice_catalog_6.items:
        assert macneille_completion(s) == reference_macneille_completion(s), s


@pytest.mark.parametrize("k,members", [(5, 427), (6, 7302)])
def test_union_closure_of_boolean_lattices(k, members):
    """The old loop takes about 7 s on the 64-element lattice, so it is
    compared on the 32-element one and the 64-element count is pinned
    from its output."""
    s = _boolean_lattice(k)
    masks = _image_family(s, _nonbelow_masks(s), True)
    provenance = _image_origins(s, _nonbelow_masks(s), masks)
    assert len(masks) == len(provenance) == members
    if k == 5:
        want_masks, want_provenance = reference_image_family(s, True)
        assert sorted(masks) == sorted(want_masks)
        assert provenance == want_provenance


def test_generated_subsemilattice_matches_reference(semilattice_catalog_6):
    checked = 0
    for s in semilattice_catalog_6.items:
        if s.n > 5:
            continue
        for k in range(s.n + 1):
            for chosen in combinations(s.names, k):
                want = reference_generated_subsemilattice(s, chosen)
                assert generated_subsemilattice(s, chosen) == want
                checked += 1
    assert checked == 414
    # seeded generator sets of the 32-element Boolean lattice
    s = _boolean_lattice(5)
    rng = random.Random(16)
    added = 0
    for _ in range(300):
        chosen = rng.sample(s.names, rng.randint(1, 4))
        closure = generated_subsemilattice(s, chosen)
        assert closure == reference_generated_subsemilattice(s, chosen)
        added = max(added, len(closure) - len(set(chosen) | {s.names[s.bottom]}))
    assert added >= 4


def test_down_sets_match_reference():
    """Poset carriers to 6, lattice carriers to 7, and the free-pair
    order of each carrier, whose down-sets are its up-sets of free
    pairs."""
    checked = 0
    for n in range(1, 8):
        for carrier in _carriers(n):
            if carrier.kind == POSET and n > 6:
                continue
            free = enumeration._free_pairs(carrier, overlap_relation(carrier))
            below = [
                sum(1 << a for a, p in enumerate(free)
                    if enumeration._pair_leq(carrier, p, q))
                for q in free
            ]
            for table in (carrier.up, below):
                assert enumeration._down_sets(table) == reference_down_sets(table)
            checked += 1
    assert checked == 88 + 78


@pytest.mark.parametrize("n", range(1, 7))
def test_free_pair_upsets_match_reference(n):
    for carrier in _carriers(n):
        overlap = overlap_relation(carrier)
        assert enumeration._free_pair_upsets(
            carrier, overlap
        ) == reference_free_pair_upsets(carrier, overlap)


def test_automorphisms_refine_once(monkeypatch, posets_5):
    """A cold search refines at most once, only to order maps that share
    an image (every automorphism has the whole carrier as its image, so
    exactly when the group is not trivial), and the memoised group a
    repeat call reads refines nothing."""
    calls = []
    real = enumeration._bottom_colors

    def counting(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(enumeration, "_bottom_colors", counting)
    for s in posets_5:
        enumeration._embedding_table.cache_clear()
        calls.clear()
        group = automorphisms(s)
        assert len(calls) == (len(group) > 1)
        calls.clear()
        assert automorphisms(s) == group
        assert calls == []
        copy = ContactStructure(s.names, s.bottom, s.up, s.contact, s.kind)
        assert group == list(isomorphisms(s, copy))
