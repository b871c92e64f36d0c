"""Differential tests of the isomorphism search without its final re-check.

``isomorphisms`` yields each completed map of its backtracking search
as it stands: every off-diagonal pair has been compared on the way, and
the precondition (reflexive orders, symmetric contact, the same contact
diagonal off the bottom) fixes the diagonal.  The pairwise re-check it
used to run on every map is kept below as the reference; the search must
yield the same maps in the same order as it did with the re-check, and
on small carriers exactly the bottom-fixing permutations it accepts.
"""

import random
import warnings
from itertools import permutations

import pytest

from contactposets.core import POSET, SEMILATTICE, ContactStructure
from contactposets.enumeration import (
    AgeCatalog,
    automorphisms,
    enumerate_posets_with_bottom,
    isomorphisms,
)
from contactposets.events import enumerate_event_structures, event_to_contact


def reference_is_isomorphism(s, t, perm):
    """The pairwise re-check isomorphisms ran on each map it found."""
    for i in range(s.n):
        for j in range(s.n):
            if (s.up[i] >> j & 1) != (t.up[perm[i]] >> perm[j] & 1):
                return False
            if (s.contact[i] >> j & 1) != (t.contact[perm[i]] >> perm[j] & 1):
                return False
    return perm[s.bottom] == t.bottom


def _rechecked(s, t):
    """isomorphisms as it was: the search's maps that pass the re-check."""
    found = list(isomorphisms(s, t))
    return found, [perm for perm in found if reference_is_isomorphism(s, t, perm)]


def _carriers(bound):
    for n in range(1, bound + 1):
        names = tuple(f"e{i}" for i in range(n))
        for up in enumerate_posets_with_bottom(n):
            yield ContactStructure(names, 0, up, (0,) * n, POSET)


def test_carriers_match_brute_force():
    """Every carrier up to 6 points, with empty contact as
    _orbit_least_upsets reads it: the automorphisms are exactly the
    bottom-fixing permutations the re-check accepts."""
    seen = 0
    for s in _carriers(6):
        found, rechecked = _rechecked(s, s)
        assert found == rechecked
        brute = {
            (0,) + rest
            for rest in permutations(range(1, s.n))
            if reference_is_isomorphism(s, s, (0,) + rest)
        }
        assert set(found) == brute and len(found) == len(brute)
        seen += 1
    assert seen == 1 + 1 + 2 + 5 + 16 + 63


@pytest.fixture(scope="module")
def catalog_items():
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "poset enumeration beyond", UserWarning)
        semilattices = AgeCatalog.build(7, SEMILATTICE).items
    duals = [event_to_contact(e, with_bottom=True) for e in enumerate_event_structures(4)]
    return AgeCatalog.build(6, POSET).items + semilattices + tuple(duals)


def test_catalog_automorphisms_match_reference(catalog_items):
    """Posets up to 6, semilattices up to 7, bottomed event duals up to 4
    events."""
    for s in catalog_items:
        found, rechecked = _rechecked(s, s)
        assert found == rechecked
        assert found == automorphisms(s)
    assert len(catalog_items) == 597 + 558 + 79


def test_seeded_relabelled_pairs_match_reference(catalog_items):
    """A relabelled copy is found with its relabelling among the maps;
    a same-size item of the same kind gives the re-checked maps too."""
    rng = random.Random(1301)
    by_size = {}
    for s in catalog_items:
        by_size.setdefault((s.n, s.kind), []).append(s)
    for _ in range(1500):
        s = rng.choice(catalog_items)
        perm = [0] + rng.sample(range(1, s.n), s.n - 1)
        t = s.relabel(perm)
        found, rechecked = _rechecked(s, t)
        assert found == rechecked and tuple(perm) in found
        other = rng.choice(by_size[s.n, s.kind]).relabel(perm)
        found, rechecked = _rechecked(s, other)
        assert found == rechecked
