import pytest

from contactposets.core import (
    POSET,
    SEMILATTICE,
    BottomlessContact,
    ClosureOperator,
    ContactStructure,
    adjoin_bottom,
    check_bottomless_axioms,
    check_contact_axioms,
    close_contact,
    compose_maps,
    contact_from_closure,
    drop_bottom,
    induced_substructure,
    normalize_order,
    overlap_relation,
    verify_map,
)
from contactposets.errors import (
    AddOnPoset,
    AxiomViolation,
    BottomInSeed,
    CycleError,
    MissingBottom,
    NotJoinClosed,
    NotSemilattice,
    UnknownElement,
)
from contactposets.gallery import m3


def count_pairs(up):
    return sum(bin(row).count("1") for row in up)


class TestNormalizeOrder:
    def test_chain_closure(self):
        up = normalize_order([("0", "c"), ("c", "1")], ["0", "c", "1"], "0")
        assert count_pairs(up) == 6  # 3 reflexive + 3 strictly below
        assert up == (0b111, 0b110, 0b100)

    def test_cycle_raises(self):
        with pytest.raises(CycleError):
            normalize_order([("a", "b"), ("b", "a")], ["0", "a", "b"], "0")

    def test_bottom_adjunction_only(self):
        up = normalize_order([], ["0", "a", "b"], "0")
        assert up == (0b111, 0b010, 0b100)

    def test_unknown_element(self):
        with pytest.raises(UnknownElement):
            normalize_order([("0", "z")], ["0", "a"], "0")
        with pytest.raises(UnknownElement):
            normalize_order([], ["0", "a"], "zz")

    def test_transitivity_through_generators(self):
        up = normalize_order([("a", "b"), ("b", "c")], ["0", "a", "b", "c"], "0")
        assert up[1] >> 3 & 1  # a <= c inferred


class TestAxiomChecks:
    def test_two_chain_passes(self):
        s = ContactStructure.build(["0", "1"], "0", [("0", "1")], [("1", "1")])
        report = check_contact_axioms(s)
        assert report.ok
        assert [c.axiom for c in report.checks] == ["Sym", "Emp", "Ext", "Ref", "Inh"]

    def test_bottom_in_contact_fails_emp(self):
        s = ContactStructure(("0", "1"), 0, (0b11, 0b10), (0b10, 0b11), POSET)
        report = check_contact_axioms(s)
        assert not report.check("Emp").passed
        assert set(report.check("Emp").witness) == {"0", "1"}

    def test_build_rejects_invalid(self):
        with pytest.raises(AxiomViolation):
            ContactStructure.build(["0", "1"], "0", [("0", "1")], [("0", "1")])

    def test_missing_reflexive_contact_fails_ref(self):
        s = ContactStructure(("0", "1"), 0, (0b11, 0b10), (0, 0), POSET)
        report = check_contact_axioms(s)
        assert not report.check("Ref").passed
        assert report.check("Ref").witness == ("1",)

    def test_ext_failure_witnessed(self):
        # contact on (c, c) but not upward to (c, 1)
        s = ContactStructure(
            ("0", "c", "1"), 0, (0b111, 0b110, 0b100), (0, 0b010, 0), POSET
        )
        report = check_contact_axioms(s)
        assert not report.check("Ext").passed

    def test_add_on_m3_fails_with_witness(self):
        report = check_contact_axioms(m3("overlap"), require_add=True)
        assert not report.check("Add").passed
        x, y, z = report.check("Add").witness
        assert x in ("a", "b", "c")

    def test_add_requires_semilattice(self):
        s = ContactStructure.build(
            ["0", "a", "b"], "0", [("0", "a")], [("a", "a"), ("b", "b")]
        )
        with pytest.raises(AddOnPoset):
            check_contact_axioms(s, require_add=True)

    def test_add_passes_on_chain(self, chain3_semilattice):
        report = check_contact_axioms(chain3_semilattice, require_add=True)
        assert report.ok

    def test_semilattice_kind_validated(self):
        with pytest.raises(NotSemilattice):
            ContactStructure.build(
                ["0", "a", "b"], "0", [], [("a", "a"), ("b", "b")], SEMILATTICE
            )


class TestOverlap:
    def test_v_poset(self, v_overlap):
        rows = overlap_relation(v_overlap)
        assert rows == v_overlap.contact

    def test_three_chain_everything_nonzero(self, chain3):
        rows = overlap_relation(chain3)
        assert rows == (0, 0b110, 0b110)

    def test_m3_against_triple_bruteforce(self):
        s = m3("overlap")
        rows = overlap_relation(s)
        n = s.n
        for a in range(n):
            for b in range(n):
                expected = any(
                    m != s.bottom
                    and s.up[m] >> a & 1
                    and s.up[m] >> b & 1
                    for m in range(n)
                )
                assert bool(rows[a] >> b & 1) == expected

    def test_overlap_is_minimum_valid_table(self, poset_catalog_4):
        from contactposets.enumeration import all_contact_tables

        for item in poset_catalog_4.items:
            base = overlap_relation(item)
            tables = all_contact_tables(item)
            assert base in tables
            for table in tables:
                assert all(base[i] & ~table[i] == 0 for i in range(item.n))


class TestCloseContact:
    def test_m3_seed_adds_single_pair(self):
        s = m3("overlap")
        closed = close_contact(s, [("a", "b")])
        base = overlap_relation(s)
        diff = [
            (s.names[i], s.names[j])
            for i in range(s.n)
            for j in range(s.n)
            if closed.contact[i] >> j & 1 and not base[i] >> j & 1
        ]
        assert sorted(diff) == [("a", "b"), ("b", "a")]

    def test_empty_seed_is_overlap(self, v_overlap):
        assert close_contact(v_overlap, []).contact == overlap_relation(v_overlap)

    def test_fixpoint_oracle(self, v_overlap):
        # oracle: grow overlap + seed by one-step Sym/Ext saturation
        s = v_overlap
        seeded = {(1, 2), (2, 1), (1, 1), (2, 2)}
        changed = True
        while changed:
            changed = False
            for (a, b) in list(seeded):
                for a1 in range(s.n):
                    for b1 in range(s.n):
                        if s.up[a] >> a1 & 1 and s.up[b] >> b1 & 1:
                            if (a1, b1) not in seeded:
                                seeded.add((a1, b1))
                                changed = True
        closed = close_contact(s, [("a", "b")])
        got = {
            (i, j)
            for i in range(s.n)
            for j in range(s.n)
            if closed.contact[i] >> j & 1
        }
        assert got == seeded

    def test_idempotent_and_monotone(self, v_overlap):
        once = close_contact(v_overlap, [("a", "b")])
        twice = close_contact(once, [("a", "b")])
        assert once.contact == twice.contact
        smaller = close_contact(v_overlap, [])
        assert all(
            smaller.contact[i] & ~once.contact[i] == 0 for i in range(3)
        )

    def test_bottom_in_seed(self, v_overlap):
        with pytest.raises(BottomInSeed):
            close_contact(v_overlap, [("0", "a")])


class TestClosureOperators:
    def test_identity_closure_gives_overlap(self, chain3):
        op = ClosureOperator.build(chain3, {name: name for name in chain3.names})
        assert contact_from_closure(op).contact == overlap_relation(chain3)

    def test_constant_to_top_on_chain(self, chain3):
        op = ClosureOperator.build(chain3, {"0": "0", "c": "1", "1": "1"})
        out = contact_from_closure(op)
        assert out.contact == (0, 0b110, 0b110)

    def test_joined_tops_touch(self, diamond):
        op = ClosureOperator.build(diamond, {"0": "0", "x": "1", "y": "1", "1": "1"})
        out = contact_from_closure(op)
        # oracle: direct evaluation of the defining existential
        for p in ("x", "y", "1"):
            for q in ("x", "y", "1"):
                assert out.delta(p, q)

    def test_moving_bottom_is_rejected(self, chain3):
        op = ClosureOperator.build(chain3, {"0": "c", "c": "c", "1": "1"})
        with pytest.raises(AxiomViolation):
            contact_from_closure(op)

    def test_closure_laws_validated(self, chain3):
        with pytest.raises(AxiomViolation):
            ClosureOperator.build(chain3, {"0": "0", "c": "0", "1": "1"})

    def test_partial_map_names_the_unmapped_element(self, chain3):
        with pytest.raises(UnknownElement, match="^element 'c' is not mapped$"):
            ClosureOperator.build(chain3, {"0": "0", "1": "1"})

    def test_closed_elements_carry_overlap(self, diamond):
        op = ClosureOperator.build(diamond, {"0": "0", "x": "1", "y": "1", "1": "1"})
        out = contact_from_closure(op)
        closed = op.closed_elements()
        assert closed == ("0", "1")
        piece = induced_substructure(out.with_contact(out.contact), list(closed))
        assert piece.contact == overlap_relation(piece)


class TestInducedSubstructure:
    def test_m3_chain_slice(self):
        from contactposets.enumeration import canonical_key

        piece = induced_substructure(m3("overlap"), ["0", "a", "1"])
        chain = ContactStructure.build(
            ["0", "a", "1"], "0", [("0", "a"), ("a", "1")],
            [("a", "a"), ("a", "1"), ("1", "1")], SEMILATTICE,
        )
        assert canonical_key(piece) == canonical_key(chain)

    def test_full_carrier_is_identity(self, v_contact):
        assert induced_substructure(v_contact, list(v_contact.names)) == v_contact

    def test_join_closure_required(self):
        s = m3("overlap")
        with pytest.raises(NotJoinClosed):
            induced_substructure(s, ["0", "a", "b"])

    def test_bottom_required(self, v_contact):
        with pytest.raises(MissingBottom):
            induced_substructure(v_contact, ["a", "b"])

    def test_validity_preserved_over_catalog(self, poset_catalog_4):
        from itertools import combinations

        for item in poset_catalog_4.items:
            others = [name for name in item.names if name != item.names[item.bottom]]
            for k in range(len(others) + 1):
                for rest in combinations(others, k):
                    piece = induced_substructure(
                        item, [item.names[item.bottom], *rest]
                    )
                    assert check_contact_axioms(piece).ok


class TestVerifyMap:
    def test_identity_all_flags(self, v_contact):
        m = verify_map(v_contact, v_contact, {n: n for n in v_contact.names})
        r = m.report
        assert r.is_embedding and r.order_reflecting and r.injective

    def test_collapse_to_bottom(self):
        s = ContactStructure.build(["0", "1"], "0", [("0", "1")], [("1", "1")])
        m = verify_map(s, s, {"0": "0", "1": "0"})
        assert not m.report.injective
        assert not m.report.contact_preserving

    def test_partial_map_names_the_unmapped_element(self):
        s = ContactStructure.build(["0", "a"], "0", [("0", "a")], [("a", "a")])
        with pytest.raises(UnknownElement, match="^element 'a' is not mapped$"):
            verify_map(s, s, {"0": "0"})
        # the first failure in carrier order wins: an image outside the target
        with pytest.raises(UnknownElement, match="^unknown element 'z'$"):
            verify_map(s, s, {"0": "z"})

    def test_composition_of_embeddings(self, v_contact):
        from contactposets.represent import overlap_poset_embedding, macneille_completion

        family, phi = overlap_poset_embedding(v_contact)
        completion, chi = macneille_completion(family.structure)
        composed = compose_maps(phi, chi)
        assert composed.report.is_embedding
        assert composed.report.order_reflecting

    def test_composition_on_positions_matches_name_composition(
        self, poset_catalog_4, semilattice_catalog_4
    ):
        """compose_maps reads positions; on every pair the pipelines
        compose (test_represent's and the 4a/4b ones) it equals
        verify_map of the map composed through names, and so does it
        when the middle structure is a relabelled copy, where each
        middle position is looked up by name.  4a and 4b build no name
        map of their target family."""
        from contactposets.represent import (
            complete_lattice_embedding,
            macneille_completion,
            overlap_poset_embedding,
            overlap_semilattice_embedding,
            powerset_embedding,
        )

        def by_names(first, second):
            composed = {
                name: second.apply(first.apply(name)) for name in first.source.names
            }
            return verify_map(first.source, second.target, composed)

        pairs = 0
        for stage, catalog in (
            (overlap_poset_embedding, poset_catalog_4),
            (overlap_semilattice_embedding, semilattice_catalog_4),
        ):
            for item in catalog.items:
                family, phi = stage(item)
                completion, chi = macneille_completion(family.structure)
                assert compose_maps(phi, chi) == by_names(phi, chi)
                middle = family.structure
                moved = middle.relabel(list(reversed(range(middle.n))))
                chi_moved = verify_map(moved, chi.target, chi.name_map)
                assert compose_maps(phi, chi_moved) == by_names(phi, chi_moved)
                assert compose_maps(phi, chi_moved).mapping == compose_maps(phi, chi).mapping
                pairs += 1
        assert pairs > 20
        s = m3("overlap")
        for embedding in (powerset_embedding, complete_lattice_embedding):
            family, total = embedding(s)
            assert family.structure._positions is None
            assert total == verify_map(s, family.structure, total.name_map)

    def test_join_preservation_flag(self, diamond):
        m = verify_map(diamond, diamond, {n: n for n in diamond.names})
        assert m.report.join_preserving is True
        poset_view = ContactStructure(
            diamond.names, diamond.bottom, diamond.up, diamond.contact, POSET
        )
        m2 = verify_map(poset_view, poset_view, {n: n for n in diamond.names})
        assert m2.report.join_preserving is None


class TestBottomless:
    def test_single_event_adjunction(self):
        b = BottomlessContact(("e",), (1,), (1,))
        s = adjoin_bottom(b, "0")
        assert s.names == ("0", "e")
        assert s.contact == (0, 0b10)

    def test_two_incomparable(self):
        b = BottomlessContact(("e", "f"), (0b01, 0b10), (0b01, 0b10))
        s = adjoin_bottom(b, "0")
        assert s.up == (0b111, 0b010, 0b100)
        assert check_contact_axioms(s).ok

    def test_reflexivity_required(self):
        b = BottomlessContact(("e",), (1,), (0,))
        assert not check_bottomless_axioms(b).ok
        with pytest.raises(AxiomViolation):
            adjoin_bottom(b, "0")

    def test_round_trip(self, poset_catalog_4):
        # catalog items keep the bottom at position 0, so the round trip
        # reproduces them on the nose
        for item in poset_catalog_4.items:
            stripped = drop_bottom(item)
            again = adjoin_bottom(stripped, item.names[item.bottom], kind=item.kind)
            assert again == item

    def test_order_checked_as_given(self):
        b = BottomlessContact(("e", "f"), (0b01, 0b00), (0b11, 0b11))
        with pytest.raises(AxiomViolation, match="order not reflexive at index 2"):
            adjoin_bottom(b, "0")

    def test_name_collision_rejected(self):
        b = BottomlessContact(("e",), (1,), (1,))
        with pytest.raises(UnknownElement):
            adjoin_bottom(b, "e")
