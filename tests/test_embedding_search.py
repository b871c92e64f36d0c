"""Differential tests of the memoised embedding search.

``induced_embeddings`` reads the index maps of a pair off one
candidate-mask search over the target's points, sorted into the
documented order and memoised by rows.  Two references are kept below,
and the search must give the same maps in the same order as each:

- the per-subset loop the library ran before (a validated
  ``induced_substructure`` per subset, matched by ``isomorphisms`` from
  scratch);
- a brute-force oracle: every injective map by
  ``itertools.permutations``, kept when it agrees with the source on
  every pair of points (and, for a semilattice, when its image is closed
  under the target's joins), sorted by image in ``carrier_subsets``
  order and within one image by the images of the source's points in
  order of refined colour.
"""

import random
from itertools import permutations
from typing import Iterator, Sequence

import pytest

from contactposets import enumeration
from contactposets.core import (
    POSET,
    SEMILATTICE,
    ContactStructure,
    induced_substructure,
)
from contactposets.enumeration import (
    AgeCatalog,
    _bottom_colors,
    _embedding_table,
    _rows,
    automorphisms,
    carrier_subsets,
    induced_embeddings,
)
from contactposets.events import enumerate_event_structures
from contactposets.fraisse import build_limit_stage


def isomorphisms(
    s: ContactStructure,
    t: ContactStructure,
    s_colors: Sequence[int] | None = None,
) -> Iterator[tuple[int, ...]]:
    """All bottom-preserving isomorphisms s -> t as index maps, by a
    search over colour classes: the search the package ran before its
    map searches went through _embedding_table's candidate masks, kept
    as the reference they are held to.  It fixes the order of the maps
    onto one image there.

    s_colors are s's refined colours (_bottom_colors(s)); a caller that
    matches one source against many targets computes them once, and a
    target with the source's bottom and rows reuses them.  Only n, kind,
    bottom and the rows of s and t are read.

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
    same = t.bottom == s.bottom and t.up == s.up and t.contact == s.contact
    t_colors = s_colors if same else _bottom_colors(t)
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



def reference_induced_embeddings(s, t):
    """The old loop: one validated substructure per carrier subset, and
    isomorphisms refining both sides afresh for each."""
    if s.n > t.n:
        return
    neutral = ContactStructure(t.names, t.bottom, t.up, t.contact, POSET)
    for subset in carrier_subsets(t, s.n, kind=s.kind):
        piece = induced_substructure(neutral, subset)
        piece = ContactStructure(
            piece.names, piece.bottom, piece.up, piece.contact, s.kind
        )
        for perm in isomorphisms(s, piece):
            yield {s.names[i]: piece.names[perm[i]] for i in range(s.n)}


def _agrees_on_every_pair(s, t, f):
    return f[s.bottom] == t.bottom and all(
        (s.up[i] >> j & 1) == (t.up[f[i]] >> f[j] & 1)
        and (s.contact[i] >> j & 1) == (t.contact[f[i]] >> f[j] & 1)
        for i in range(s.n)
        for j in range(s.n)
    )


def _join_closed(t, image):
    """Every pair of the image has a join in t, inside the image: the
    least of the common upper bounds, found by scanning them."""
    for i in image:
        for j in image:
            bounds = [k for k in range(t.n) if t.up[i] >> k & 1 and t.up[j] >> k & 1]
            least = [k for k in bounds if all(t.up[k] >> m & 1 for m in bounds)]
            if not least or least[0] not in image:
                return False
    return True


def brute_force_table(s, t):
    """Every injective map of s into t by permutations, kept by the
    pairwise test, in the documented order."""
    found = [
        f
        for f in permutations(range(t.n), s.n)
        if _agrees_on_every_pair(s, t, f)
        and (s.kind != SEMILATTICE or _join_closed(t, set(f)))
    ]
    colors = _bottom_colors(s)
    order = sorted(range(s.n), key=lambda i: (colors[i], i))
    found.sort(key=lambda f: (sorted(f), [f[i] for i in order]))
    return found


def _same_as_brute_force(s, t):
    """The table of the pair, checked against the oracle; its size."""
    got = list(_embedding_table(_rows(s, s.kind), _rows(t, s.kind)))
    assert got == brute_force_table(s, t), (s, t)
    return len(got)


def _renamed(s, tag):
    return s.rename({name: f"{tag}{k}" for k, name in enumerate(s.names)})


@pytest.fixture(autouse=True)
def cold_memo():
    _embedding_table.cache_clear()
    yield
    _embedding_table.cache_clear()


@pytest.mark.parametrize("kind,bound", [(POSET, 5), (SEMILATTICE, 6)])
def test_every_catalog_pair_matches_reference(kind, bound):
    items = AgeCatalog.build(bound, kind).items
    found = 0
    for s in items:
        for t in items:
            expected = list(reference_induced_embeddings(s, t))
            assert list(induced_embeddings(s, t)) == expected, (s, t)
            found += len(expected)
    assert found > 1000


def test_targets_with_the_bottom_elsewhere_match_reference():
    """Catalog items keep the bottom at position 0; here the targets'
    carriers are reversed, so the bottom comes last."""
    items = AgeCatalog.build(5, POSET).items
    found = 0
    for t in items[::3]:
        moved = t.relabel(list(reversed(range(t.n))))
        assert moved.bottom == t.n - 1
        for s in items:
            expected = list(reference_induced_embeddings(s, moved))
            assert list(induced_embeddings(s, moved)) == expected, (s, moved)
            found += len(expected)
    assert found > 100


def test_limit_stage_subs_match_reference():
    """Every catalog item of size <= 3 into a 64-element poset stage."""
    catalog = AgeCatalog.build(3, POSET)
    stage = build_limit_stage(POSET, 2, 64, catalog=catalog).structure
    assert stage.n == 64
    found = 0
    for sub in catalog.items:
        expected = list(reference_induced_embeddings(sub, stage))
        assert list(induced_embeddings(sub, stage)) == expected, sub
        found += len(expected)
    assert found > 1000


def test_renamed_copies_share_one_entry_and_keep_their_names():
    items = AgeCatalog.build(4, SEMILATTICE).items
    s, t = items[2], items[-1]
    first = list(induced_embeddings(s, t))
    assert _embedding_table.cache_info().currsize == 1
    s2, t2 = _renamed(s, "x"), _renamed(t, "y")
    second = list(induced_embeddings(s2, t2))
    assert _embedding_table.cache_info().currsize == 1
    assert second == list(reference_induced_embeddings(s2, t2))
    assert len(second) == len(first) > 0


def test_target_kind_does_not_split_the_memo():
    """The maps depend on the source's kind only (carrier_subsets reads
    it), so a target re-tagged as a poset shares the entry."""
    items = AgeCatalog.build(4, SEMILATTICE).items
    s, t = items[1], items[-1]
    t_poset = ContactStructure(t.names, t.bottom, t.up, t.contact, POSET)
    assert list(induced_embeddings(s, t)) == list(induced_embeddings(s, t_poset))
    assert _embedding_table.cache_info().currsize == 1


def test_source_kind_splits_the_memo():
    """The same rows searched as a poset and as a semilattice: only the
    semilattice search asks for join-closed images."""
    items = AgeCatalog.build(5, SEMILATTICE).items
    differ = 0
    for s in items:
        s_poset = ContactStructure(s.names, s.bottom, s.up, s.contact, POSET)
        for t in items[-6:]:
            joined = list(induced_embeddings(s, t))
            plain = list(induced_embeddings(s_poset, t))
            assert joined == list(reference_induced_embeddings(s, t))
            assert plain == list(reference_induced_embeddings(s_poset, t))
            differ += joined != plain
    assert differ > 0


def test_memo_is_bounded_and_cleared():
    info = _embedding_table.cache_info()
    assert info.maxsize is not None and 0 < info.maxsize <= 4096
    # building the catalog memoises its carriers' groups
    items = AgeCatalog.build(3, POSET).items
    _embedding_table.cache_clear()
    for s in items:
        for t in items:
            list(induced_embeddings(s, t))
    assert _embedding_table.cache_info().currsize == len(items) ** 2
    # the sweep that clears every library memo finds this one too
    cleared = [
        obj
        for obj in vars(enumeration).values()
        if hasattr(obj, "cache_clear")
        and getattr(obj, "__module__", "").startswith("contactposets")
    ]
    assert _embedding_table in cleared
    for obj in cleared:
        obj.cache_clear()
    assert _embedding_table.cache_info().currsize == 0


def test_precomputed_colours_change_nothing():
    rng = random.Random(1201)
    items = AgeCatalog.build(5, POSET).items
    for s in items:
        colours = enumeration._bottom_colors(s)
        assert list(isomorphisms(s, s, colours)) == automorphisms(s)
        t = s.relabel([0] + rng.sample(range(1, s.n), s.n - 1))
        assert list(isomorphisms(s, t, colours)) == list(isomorphisms(s, t))


@pytest.mark.parametrize("kind,bound", [(POSET, 5), (SEMILATTICE, 6)])
def test_every_catalog_pair_matches_brute_force(kind, bound):
    items = AgeCatalog.build(bound, kind).items
    found = sum(_same_as_brute_force(s, t) for s in items for t in items)
    assert found > 1000


def test_event_duals_match_brute_force():
    duals = [e.dual for e in enumerate_event_structures(4)]
    found = sum(_same_as_brute_force(s, t) for s in duals for t in duals)
    assert found > 1000


def test_seeded_targets_with_the_bottom_moved_match_brute_force():
    rng = random.Random(3002)
    for kind, bound in ((POSET, 5), (SEMILATTICE, 6)):
        items = AgeCatalog.build(bound, kind).items
        moved_bottoms = set()
        found = 0
        for t in items[::2]:
            if t.n < 3:
                continue
            moved = t.relabel(rng.sample(range(t.n), t.n))
            moved_bottoms.add(moved.bottom)
            found += sum(_same_as_brute_force(s, moved) for s in items)
        assert found > 500 and len(moved_bottoms) > 2


def test_relabelled_sources_match_reference_and_brute_force():
    """Catalog items are canonical, so their points already come in
    order of refined colour; relabelled sources (the bottom moved too)
    need the within-image sort into the reference's order."""
    rng = random.Random(3004)
    for kind, bound in ((POSET, 5), (SEMILATTICE, 5)):
        items = AgeCatalog.build(bound, kind).items
        shared = 0
        for s in items:
            moved = s.relabel(rng.sample(range(s.n), s.n))
            for t in items[-8:]:
                expected = list(reference_induced_embeddings(moved, t))
                assert list(induced_embeddings(moved, t)) == expected, (moved, t)
                _same_as_brute_force(moved, t)
                shared += len(expected) > len({frozenset(f.values()) for f in expected})
        assert shared > 10


def test_a_diagonal_mismatch_has_no_embedding():
    """The search compares the contact diagonal too: a source whose
    points touch themselves has no embedding into contact-free rows,
    and contact-free rows none into a source's valid rows."""
    items = AgeCatalog.build(4, POSET).items
    for s in items[1:]:
        for t in items:
            bare = t.with_contact([0] * t.n)
            assert _same_as_brute_force(s, bare) == 0
            assert _same_as_brute_force(s.with_contact([0] * s.n), t) == 0


@pytest.mark.parametrize(
    "kind,cap,max_elements",
    [(POSET, 2, 128), (SEMILATTICE, 2, 64), (POSET, 3, 200)],
)
def test_stage_targets_match_brute_force(kind, cap, max_elements):
    """Stage targets of up to 200 points: the brute force takes the
    subs of at most 2 points, the subset reference those of 3 on the
    cap-2 stages.  Every point but the bottom touches itself, so it is
    the image of exactly one two-point item."""
    catalog = AgeCatalog.build(cap + 1, kind)
    stage = build_limit_stage(kind, cap, 64, catalog, max_elements).structure
    assert 64 <= stage.n <= 200
    found = sum(_same_as_brute_force(s, stage) for s in catalog.items if s.n <= 2)
    assert found == stage.n
    if cap == 2:
        for s in catalog.by_size(3):
            expected = list(reference_induced_embeddings(s, stage))
            assert list(induced_embeddings(s, stage)) == expected, s
