"""Differential tests of the memoised embedding search.

``induced_embeddings`` refines the source's colours once per pair,
builds each piece by restricting the target's rows without re-validating
it, skips pieces whose degree profile differs from the source's, and
memoises the index maps of a pair by rows.  The per-subset loop it
replaced (a validated ``induced_substructure`` per subset, matched by
``isomorphisms`` from scratch) is kept below as the reference, and the
two must yield the same name maps in the same order.
"""

import random

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
    _embedding_table,
    automorphisms,
    carrier_subsets,
    induced_embeddings,
    isomorphisms,
)
from contactposets.fraisse import build_limit_stage


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
