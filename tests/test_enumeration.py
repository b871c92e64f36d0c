import random
import warnings
from collections import Counter

import pytest

from contactposets import enumeration
from contactposets.core import (
    POSET,
    SEMILATTICE,
    ContactStructure,
    bits,
    check_contact_axioms,
    is_semilattice_order,
    overlap_relation,
)
from contactposets.enumeration import (
    AgeCatalog,
    all_contact_tables,
    automorphisms,
    canonical_key,
    canonical_table_key,
    canonicalize,
    enumerate_contact_structures,
    enumerate_distributive_lattices,
    enumerate_posets,
    enumerate_posets_with_bottom,
    is_distributive,
    is_lattice,
    is_semilattice,
    isomorphic,
)
from contactposets.errors import AxiomViolation
from contactposets.gallery import m3
from sublattice_oracle import is_distributive_by_sublattices


def _carriers(n, kind):
    """The canonical carriers of size n for kind, tagged with kind."""
    for up in enumerate_posets_with_bottom(n):
        carrier = ContactStructure(
            tuple("0" if i == 0 else f"e{i}" for i in range(n)),
            0, up, tuple([0] * n), kind,
        )
        if kind == POSET or is_semilattice(carrier):
            yield carrier


def _bare_key(s):
    return canonical_key(s.with_contact(tuple([0] * s.n)))


def _moved_table(perm, table):
    moved = [0] * len(table)
    for i, row in enumerate(table):
        for j in bits(row):
            moved[perm[i]] |= 1 << perm[j]
    return tuple(moved)


def _reference_refine_colors(n, relations, colors):
    """The tuple-signature refinement the packed kernel must reproduce."""
    current = tuple(colors)
    while True:
        signatures = []
        for i in range(n):
            profile = sorted(
                (
                    current[j],
                    tuple(rel[i] >> j & 1 for rel in relations),
                    tuple(rel[j] >> i & 1 for rel in relations),
                )
                for j in range(n)
            )
            signatures.append((current[i], tuple(profile)))
        ranked = {sig: rank for rank, sig in enumerate(sorted(set(signatures)))}
        refreshed = tuple(ranked[sig] for sig in signatures)
        if refreshed == current:
            return refreshed
        current = refreshed


def _reference_encode(n, relations, perm):
    """The single-bit encoder the row-image encoder must reproduce."""
    words = []
    for rel in relations:
        acc = 0
        pos = 0
        inv = [0] * n
        for i in range(n):
            inv[perm[i]] = i
        for a in range(n):
            row = rel[inv[a]]
            for b in range(n):
                acc |= (row >> inv[b] & 1) << pos
                pos += 1
        words.append(acc)
    return tuple(words)


def _reference_table_key(n, relations, colors=None):
    """canonical_table_key as it was: every admissible permutation
    encoded bit by bit, also when the colouring is discrete."""
    base = tuple(colors) if colors is not None else (0,) * n
    refined = enumeration._refine_colors(n, relations, base)
    best_words = best_perm = None
    for perm in enumeration._admissible_perms(refined):
        words = _reference_encode(n, relations, perm)
        if best_words is None or words < best_words:
            best_words, best_perm = words, perm
    class_sizes = tuple(
        sorted((refined.count(c), base[refined.index(c)]) for c in set(refined))
    )
    return (n, class_sizes, best_words), best_perm


def _filtered_lattice_tables(n):
    """The semilattice carriers as they were found: every poset with a
    bottom, kept when every pair has a join."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "poset enumeration beyond", UserWarning)
        tables = enumerate_posets_with_bottom(n)
    return tuple(
        up for up in tables
        if is_semilattice_order(
            ContactStructure(tuple(map(str, range(n))), 0, up, (0,) * n, SEMILATTICE)
        )
    )


def _pinned_key(up):
    n = len(up)
    return canonical_table_key(n, (tuple(up),), (0,) + (1,) * (n - 1))[0]


class TestPosetCounts:
    def test_posets_with_bottom_counts(self):
        assert [len(enumerate_posets_with_bottom(n)) for n in range(1, 6)] == [
            1, 1, 2, 5, 16,
        ]

    def test_two_element_is_the_chain(self):
        (up,) = enumerate_posets_with_bottom(2)
        assert up == (0b11, 0b10)

    def test_three_element_shapes(self):
        tables = enumerate_posets_with_bottom(3)
        assert len(tables) == 2

    def test_warning_beyond_soft_bound(self):
        with pytest.warns(UserWarning):
            enumerate_posets_with_bottom(7)

    def test_bare_poset_layer_counts(self):
        assert [len(enumerate_posets(k)) for k in range(7)] == [
            1, 1, 2, 5, 16, 63, 318,
        ]


class TestContactEnumeration:
    def test_contact_structure_counts(self):
        assert len(enumerate_contact_structures(2, POSET)) == 1
        assert len(enumerate_contact_structures(3, POSET)) == 3

    def test_v_admits_exactly_two_tables(self, v_overlap):
        tables = all_contact_tables(v_overlap)
        assert len(tables) == 2

    def test_chain_admits_exactly_one(self, chain3):
        assert len(all_contact_tables(chain3)) == 1

    def test_tables_match_bruteforce_filter(self, poset_catalog_4):
        # oracle: every symmetric relation on nonzero pairs, filtered by
        # the axiom checker directly
        for item in poset_catalog_4.items:
            n = item.n
            nonzero = [i for i in range(n) if i != item.bottom]
            pairs = [
                (i, j) for k, i in enumerate(nonzero) for j in nonzero[k:]
            ]
            valid = set()
            for chosen in range(1 << len(pairs)):
                rows = [0] * n
                for bit, (i, j) in enumerate(pairs):
                    if chosen >> bit & 1:
                        rows[i] |= 1 << j
                        rows[j] |= 1 << i
                candidate = item.with_contact(tuple(rows))
                if check_contact_axioms(candidate).ok:
                    valid.add(tuple(rows))
            assert valid == set(all_contact_tables(item))

    def test_catalog_items_valid_and_deterministic(self, poset_catalog_4):
        rebuilt = AgeCatalog.build(4, POSET)
        assert rebuilt.items == poset_catalog_4.items
        for item in poset_catalog_4.items:
            assert check_contact_axioms(item).ok

    def test_catalog_items_up_to_6_pass_the_axioms(
        self, poset_catalog_6, semilattice_catalog_6
    ):
        # the enumeration builds its items valid and does not check them
        for catalog in (poset_catalog_6, semilattice_catalog_6):
            for item in catalog.items:
                assert check_contact_axioms(item).ok

    def test_semilattice_carriers_have_joins(self, semilattice_catalog_4):
        for item in semilattice_catalog_4.items:
            assert is_semilattice(item)


class TestOrbitEnumeration:
    @pytest.mark.parametrize(
        "kind, counts",
        [(POSET, [1, 1, 3, 11, 63, 518]), (SEMILATTICE, [1, 1, 1, 3, 11, 61, 480])],
    )
    @pytest.mark.filterwarnings("ignore:poset enumeration beyond")
    def test_burnside_counts_per_carrier(self, kind, counts):
        # orbits of labelled tables = mean number of tables fixed by Aut;
        # the enumeration must keep exactly one up-set per orbit
        for n, expected in enumerate(counts, start=1):
            per_carrier = Counter(
                _bare_key(item) for item in enumerate_contact_structures(n, kind)
            )
            total = 0
            for carrier in _carriers(n, kind):
                tables = all_contact_tables(carrier)
                group = automorphisms(carrier)
                fixed = sum(
                    _moved_table(perm, table) == table
                    for perm in group
                    for table in tables
                )
                assert fixed % len(group) == 0
                orbits = fixed // len(group)
                assert orbits == per_carrier[canonical_key(carrier)]
                free, upsets = enumeration._free_pair_upsets(
                    carrier, overlap_relation(carrier)
                )
                kept = enumeration._orbit_least_upsets(carrier, free, upsets)
                assert len(kept) == orbits
                total += orbits
            assert total == expected == len(enumerate_contact_structures(n, kind))

    @pytest.mark.parametrize("kind", [POSET, SEMILATTICE])
    def test_matches_canonicalising_every_labelled_table(self, kind):
        for n in range(1, 7):
            found = {}
            for carrier in _carriers(n, kind):
                for table in all_contact_tables(carrier):
                    item = canonicalize(carrier.with_contact(table))
                    found.setdefault(canonical_key(item), item)
            brute = tuple(found[key] for key in sorted(found))
            assert enumerate_contact_structures(n, kind) == brute

    def test_unknown_kind_rejected(self):
        with pytest.raises(AxiomViolation, match="unknown kind"):
            enumerate_contact_structures(3, "bogus")


class TestLatticeCarriers:
    """Lattices grown one atom at a time against the poset filter they
    replace."""

    def test_counts_are_the_lattice_counts(self):
        # OEIS A006966; catches dropping the join check in the growth
        assert [len(enumeration._lattice_carriers(n)) for n in range(1, 9)] == [
            1, 1, 1, 2, 5, 15, 53, 222,
        ]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_same_classes_as_the_poset_filter(self, n):
        # catches growing only below principal up-sets (U = up[x] for
        # one x), which first loses the 5-element lattice
        # 0 < a < x, y < 1, whose one atom has two covers
        grown = enumeration._lattice_carriers(n)
        assert all(up[0] == (1 << n) - 1 for up in grown)
        assert [_pinned_key(up) for up in grown] == sorted(
            _pinned_key(up) for up in _filtered_lattice_tables(n)
        )
        for up in grown:
            _, perm = canonical_table_key(n, (up,), (0,) + (1,) * (n - 1))
            assert enumeration.relabel_rows(up, perm) == up

    @pytest.mark.parametrize("n", range(1, 8))
    def test_catalog_equals_the_filter_path(self, n, monkeypatch):
        # item by item; catches leaving the atom out of its own row
        # (up[a] = U), which the brute-force oracle only sees up to n = 6
        grown = enumerate_contact_structures(n, SEMILATTICE)
        monkeypatch.setattr(enumeration, "_lattice_carriers", _filtered_lattice_tables)
        filtered = enumeration.enumerate_contact_structures.__wrapped__(n, SEMILATTICE)
        assert grown == filtered

    def test_semilattice_enumeration_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            enumeration._lattice_carriers.__wrapped__(7)
            enumerate_contact_structures.__wrapped__(7, SEMILATTICE)


class TestRowImageEncoder:
    """The row-image encoder and the discrete-colouring shortcut against
    the bit-by-bit encoder over every admissible permutation."""

    def test_matches_reference_on_seeded_tables(self):
        # catches packing rows from the bottom position up
        rng = random.Random(15)
        discrete = 0
        for _ in range(3000):
            n = rng.randint(1, 7)
            relations = []
            for _ in range(rng.randint(1, 3)):
                rel = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(n)]
                if rng.random() < 0.5:
                    rel = [
                        row | sum(1 << j for j in range(n) if rel[j] >> i & 1)
                        for i, row in enumerate(rel)
                    ]
                relations.append(tuple(rel))
            colors = tuple(rng.randint(0, 2) for _ in range(n))
            assert canonical_table_key(
                n, relations, colors
            ) == _reference_table_key(n, relations, colors)
            refined = enumeration._refine_colors(n, relations, colors)
            discrete += len(set(refined)) == n > 1
        # both branches of canonical_table_key are exercised
        assert 0 < discrete < 3000

    def test_matches_reference_on_relabelled_catalog_items(self):
        # catches the discrete shortcut taking the identity instead of
        # the colouring as its permutation
        rng = random.Random(151)
        for kind in (POSET, SEMILATTICE):
            for item in AgeCatalog.build(5, kind).items:
                perm = list(range(item.n))
                rng.shuffle(perm)
                moved = item.relabel(tuple(perm))
                colors = tuple(0 if i == moved.bottom else 1 for i in range(item.n))
                relations = (moved.up, moved.contact)
                assert canonical_table_key(
                    item.n, relations, colors
                ) == _reference_table_key(item.n, relations, colors)


class TestRefinementKernel:
    def test_matches_tuple_signatures(self):
        rng = random.Random(3)
        for _ in range(3000):
            n = rng.randint(1, 9)
            relations = [
                tuple(rng.getrandbits(n) for _ in range(n))
                for _ in range(rng.randint(1, 3))
            ]
            colors = tuple(rng.randint(0, 3) for _ in range(n))
            assert enumeration._refine_colors(
                n, relations, colors
            ) == _reference_refine_colors(n, relations, colors)

    def test_keys_and_perms_unchanged(self, monkeypatch):
        rng = random.Random(11)
        inputs = []
        for n in range(1, 6):
            for item in enumerate_contact_structures(n, POSET):
                perm = list(range(n))
                rng.shuffle(perm)
                moved = item.relabel(tuple(perm))
                colors = tuple(0 if i == moved.bottom else 1 for i in range(n))
                inputs.append((n, (moved.up, moved.contact), colors))
        packed = [canonical_table_key(*args) for args in inputs]
        monkeypatch.setattr(enumeration, "_refine_colors", _reference_refine_colors)
        assert packed == [canonical_table_key(*args) for args in inputs]


class TestCanonicalForms:
    def test_relabelings_share_keys(self):
        s = m3("overlap")
        shuffled = s.relabel((0, 3, 1, 4, 2))
        assert canonical_key(shuffled) == canonical_key(s)
        assert isomorphic(shuffled, s)

    def test_contact_distinguishes(self, v_overlap, v_contact):
        assert canonical_key(v_overlap) != canonical_key(v_contact)

    def test_key_stability_under_random_relabelings(self, poset_catalog_4):
        # bottom may land anywhere under the permutation; keys must not care
        rng = random.Random(97)
        for item in poset_catalog_4.items:
            key = canonical_key(item)
            for _ in range(100):
                perm = list(range(item.n))
                rng.shuffle(perm)
                assert canonical_key(item.relabel(tuple(perm))) == key

    def test_canonicalize_idempotent(self, poset_catalog_4):
        for item in poset_catalog_4.items:
            assert canonicalize(item) == item


class TestLatticePredicates:
    def test_m3_is_modular_not_distributive(self):
        s = m3("overlap")
        assert is_lattice(s)
        assert not is_distributive(s)
        assert not is_distributive_by_sublattices(s)

    def test_diamond_distributive(self, diamond):
        assert is_distributive(diamond)
        assert is_distributive_by_sublattices(diamond)

    def test_v_not_lattice(self, v_overlap):
        assert not is_lattice(v_overlap)

    def test_pentagon_detected(self):
        n5 = ContactStructure.build(
            ["0", "x", "y", "z", "1"], "0",
            [("0", "x"), ("x", "y"), ("y", "1"), ("0", "z"), ("z", "1")],
            [], POSET, close=True,
        )
        assert is_lattice(n5)
        assert not is_distributive(n5)
        assert not is_distributive_by_sublattices(n5)

    def test_routes_agree_up_to_six(self, poset_catalog_6):
        seen = set()
        for item in poset_catalog_6.items:
            bare = item.with_contact(tuple([0] * item.n))
            key = canonical_key(bare)
            if key in seen:
                continue
            seen.add(key)
            if is_lattice(item):
                assert is_distributive(item) == is_distributive_by_sublattices(item)


class TestDistributiveLattices:
    def test_counts_up_to_eight(self):
        from collections import Counter

        lattices = enumerate_distributive_lattices(8)
        by_size = Counter(d.n for d in lattices)
        assert [by_size[n] for n in range(1, 9)] == [1, 1, 1, 2, 3, 5, 8, 15]

    def test_agrees_with_catalog_filter(self):
        # independent route: filter bottomed poset carriers directly
        for n in range(1, 7):
            direct = set()
            for up in enumerate_posets_with_bottom(n):
                carrier = ContactStructure(
                    tuple("0" if i == 0 else f"e{i}" for i in range(n)),
                    0, up, tuple([0] * n), SEMILATTICE,
                )
                if is_lattice(carrier) and is_distributive(carrier):
                    direct.add(canonical_key(canonicalize(carrier)))
            grown = {
                canonical_key(d)
                for d in enumerate_distributive_lattices(6)
                if d.n == n
            }
            assert direct == grown

    def test_all_really_distributive(self):
        for d in enumerate_distributive_lattices(8):
            assert is_lattice(d) and is_distributive(d)


class TestOverlapInvariant:
    def test_every_catalog_contact_contains_overlap(self, poset_catalog_4):
        for item in poset_catalog_4.items:
            base = overlap_relation(item)
            assert all(base[i] & ~item.contact[i] == 0 for i in range(item.n))
