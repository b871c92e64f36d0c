"""Differential tests of the contact layer's orbit enumerator and the row
helpers it shares.

``events.iter_event_gluings`` reads its gluings off
``enumeration.gluings_up_to_iso`` on the bottomed duals.  It used to run
its own search: a brute-force isomorphism test over every permutation,
one orbit representative per subset of a and per map into b.  That
search is kept below as the reference, and both must give the same
instance classes, one each.  ``core.transpose``, ``cover_pairs``,
``mask_image`` and ``relabel`` are compared with the inline loops they
replaced, and ``core._restriction`` with ``induced_substructure``.
"""

import random
from itertools import permutations

import pytest

from contactposets.core import (
    POSET,
    SEMILATTICE,
    ContactStructure,
    _restriction,
    bits,
    cover_pairs,
    induced_substructure,
    mask_image,
    relabel_rows,
    transpose,
)
from contactposets.enumeration import (
    AgeCatalog,
    _carrier_positions,
    carrier_subsets,
    enumerate_posets,
)
from contactposets.events import (
    enumerate_event_structures,
    iter_event_gluings,
    sub_event,
)
from test_single_copies import glued_apart_events


# ---------------------------------------------------------------------------
# the reference: the event layer's own isomorphism search, as it was


def reference_event_isomorphisms(a, b):
    """Index permutations carrying a onto b (order and conflict)."""
    if a.n != b.n:
        return []
    out = []
    for perm in permutations(range(a.n)):
        if all(
            (a.up[i] >> j & 1) == (b.up[perm[i]] >> perm[j] & 1)
            and (a.conflict[i] >> j & 1) == (b.conflict[perm[i]] >> perm[j] & 1)
            for i in range(a.n)
            for j in range(a.n)
        ):
            out.append(perm)
    return out


def reference_mask_image(mask, perm):
    out = 0
    for i in bits(mask):
        out |= 1 << perm[i]
    return out


def reference_event_gluings(a, b):
    """One gluing per orbit of Aut(a) x Aut(b): the least subset mask of
    each orbit, and per subset the first map of each orbit met over b's
    subsets in mask order."""
    auts_a = reference_event_isomorphisms(a, a)
    auts_b = reference_event_isomorphisms(b, b)
    subset_reps = []
    seen_masks = set()
    for mask in range(1 << a.n):
        canon = min(reference_mask_image(mask, alpha) for alpha in auts_a)
        if canon in seen_masks:
            continue
        seen_masks.add(canon)
        subset_reps.append(mask)
    for mask in subset_reps:
        chosen = list(bits(mask))
        c = sub_event(a, chosen)
        stabilizer = [
            tuple(chosen.index(alpha[i]) for i in chosen)
            for alpha in auts_a
            if reference_mask_image(mask, alpha) == mask
        ]
        seen_maps = set()
        for size_mask in range(1 << b.n):
            if bin(size_mask).count("1") != c.n:
                continue
            target = list(bits(size_mask))
            piece = sub_event(b, target)
            for perm in reference_event_isomorphisms(c, piece):
                mapping = tuple(target[perm[k]] for k in range(c.n))
                canon_map = min(
                    tuple(beta[mapping[sigma[k]]] for k in range(c.n))
                    for sigma in stabilizer
                    for beta in auts_b
                )
                if canon_map in seen_maps:
                    continue
                seen_maps.add(canon_map)
                yield glued_apart_events(a, b, c, chosen, mapping)


def _orbit_keys(a, b, gluings):
    """The least (a index, b index) pair set of each gluing's orbit."""
    auts_a = reference_event_isomorphisms(a, a)
    auts_b = reference_event_isomorphisms(b, b)
    keys = []
    for a2, b2, c in gluings:
        assert (a2.up, a2.conflict, b2.up, b2.conflict) == (
            a.up, a.conflict, b.up, b.conflict
        )
        assert set(a2.events) & set(b2.events) == set(c.events)
        pairs = [(a2.events.index(x), b2.events.index(x)) for x in c.events]
        keys.append(min(
            tuple(sorted((alpha[i], beta[j]) for i, j in pairs))
            for alpha in auts_a
            for beta in auts_b
        ))
    return keys


def _assert_same_classes(a, b):
    got = _orbit_keys(a, b, iter_event_gluings(a, b))
    expected = _orbit_keys(a, b, reference_event_gluings(a, b))
    assert len(got) == len(set(got)) == len(expected)
    assert set(got) == set(expected)
    return len(got)


def test_event_gluings_match_reference_up_to_3_events():
    structures = enumerate_event_structures(3)
    total = sum(_assert_same_classes(a, b) for a in structures for b in structures)
    assert total == 1385


def test_event_gluings_match_reference_on_seeded_pairs():
    structures = enumerate_event_structures(4)
    rng = random.Random(1102)
    total = 0
    for _ in range(300):
        total += _assert_same_classes(rng.choice(structures), rng.choice(structures))
    assert total > 300


# ---------------------------------------------------------------------------
# the row helpers against the loops they replaced


def reference_transpose(rows):
    down = [0] * len(rows)
    for i in range(len(rows)):
        for j in bits(rows[i]):
            down[j] |= 1 << i
    return tuple(down)


def reference_cover_pairs(up):
    down = reference_transpose(up)
    out = []
    for i in range(len(up)):
        strict = up[i] & ~(1 << i)
        for j in bits(strict):
            if strict & down[j] & ~(1 << j) == 0:
                out.append((i, j))
    return out


def reference_relabel_rows(rows, perm):
    """The relabelling loop of the poset enumerators."""
    k = len(rows)
    relabeled = [0] * k
    for i in range(k):
        row = 0
        for j in bits(rows[i]):
            row |= 1 << perm[j]
        relabeled[perm[i]] = row
    return tuple(relabeled)


def reference_relabel(s, perm):
    """ContactStructure.relabel as it was."""
    n = s.n
    names = [""] * n
    up = [0] * n
    contact = [0] * n
    for i in range(n):
        names[perm[i]] = s.names[i]
        row_u = row_c = 0
        for j in bits(s.up[i]):
            row_u |= 1 << perm[j]
        for j in bits(s.contact[i]):
            row_c |= 1 << perm[j]
        up[perm[i]] = row_u
        contact[perm[i]] = row_c
    return ContactStructure(tuple(names), perm[s.bottom], tuple(up), tuple(contact), s.kind)


def _tables():
    """Every poset table with at most 6 points, and the order and
    conflict tables of every event structure with at most 4 events."""
    for k in range(7):
        yield from enumerate_posets(k)
    for e in enumerate_event_structures(4):
        yield e.up
        yield e.conflict


def test_transpose_and_cover_pairs_match_reference():
    checked = 0
    for rows in _tables():
        assert transpose(rows) == reference_transpose(rows)
        assert cover_pairs(rows) == reference_cover_pairs(rows)
        checked += 1
    assert checked > 300


def test_mask_image_and_relabel_match_reference():
    rng = random.Random(1103)
    for rows in _tables():
        n = len(rows)
        perm = rng.sample(range(n), n)
        for mask in range(1 << n):
            assert mask_image(mask, perm) == reference_mask_image(mask, perm)
        assert relabel_rows(rows, perm) == reference_relabel_rows(rows, perm)
    for item in AgeCatalog.build(5).items:
        perm = [0] + rng.sample(range(1, item.n), item.n - 1)
        assert item.relabel(perm) == reference_relabel(item, perm)


# ---------------------------------------------------------------------------
# unchecked restrictions


@pytest.mark.parametrize("kind", [POSET, SEMILATTICE])
def test_restriction_is_the_induced_substructure(kind):
    restricted = 0
    for a in AgeCatalog.build(4, kind).items:
        for size in range(1, a.n + 1):
            positions = list(_carrier_positions(a, size, kind))
            names = list(carrier_subsets(a, size))
            assert len(positions) == len(names)
            for chosen, subset in zip(positions, names):
                assert _restriction(a, chosen) == induced_substructure(a, subset)
                restricted += 1
    assert restricted > 20
