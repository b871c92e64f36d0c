import pytest

from contactposets.core import (
    POSET,
    ContactStructure,
    compose_maps,
    overlap_relation,
)
from contactposets.enumeration import is_lattice
from contactposets.errors import NotSemilattice
from contactposets.gallery import m3
from contactposets.represent import (
    complete_lattice_embedding,
    existing_join_misses,
    is_boolean_family,
    join_preserving_embedding,
    macneille_completion,
    overlap_of_family,
    overlap_poset_embedding,
    overlap_semilattice_embedding,
    powerset_embedding,
)
from join_scans import subset_join


class TestOverlapPosetEmbedding:
    def test_v_with_contact_gains_witness(self, v_contact):
        family, total = overlap_poset_embedding(v_contact)
        names = {frozenset(family.members(i)) for i in range(len(family.sets))}
        assert names == {
            frozenset(), frozenset({"0"}), frozenset({"0", "a"}), frozenset({"0", "b"}),
        }
        assert total.report.is_embedding
        assert family.structure.delta(total.apply("a"), total.apply("b"))

    def test_v_overlap_witnessless(self, v_overlap):
        family, total = overlap_poset_embedding(v_overlap)
        assert len(family.sets) == 3
        assert not family.structure.delta(total.apply("a"), total.apply("b"))

    def test_witnesses_restricted_to_family(self, v_overlap):
        # regression: the images do intersect ambiently, but the
        # intersection is not a family member, so no contact arises
        family, total = overlap_poset_embedding(v_overlap)
        mask_a = family.sets[family.structure.index(total.apply("a"))]
        mask_b = family.sets[family.structure.index(total.apply("b"))]
        assert mask_a & mask_b != 0
        assert mask_a & mask_b not in family.sets

    def test_bottom_goes_to_empty_set(self, poset_catalog_4):
        for item in poset_catalog_4.items:
            family, total = overlap_poset_embedding(item)
            assert total.apply(item.names[item.bottom]) == "{}"

    def test_catalog_posets_embed(self, poset_catalog_4):
        for item in poset_catalog_4.items:
            family, total = overlap_poset_embedding(item)
            report = total.report
            assert report.is_embedding and report.order_reflecting
            # target contact is its own overlap, recomputed independently
            assert tuple(overlap_relation(family.structure)) == family.structure.contact

    def test_provenance_shapes(self, v_contact):
        family, _ = overlap_poset_embedding(v_contact)
        kinds = {o.kind for origins in family.provenance for o in origins}
        assert kinds == {"element-image", "pair-intersection"}


class TestOverlapSemilatticeEmbedding:
    def test_chain_images(self, chain3_semilattice):
        family, total = overlap_semilattice_embedding(chain3_semilattice)
        assert total.apply("c") == "{0}"
        assert total.apply("1") == "{0,c}"
        assert total.report.join_preserving is True

    def test_diamond_join_of_complements(self, diamond):
        family, total = overlap_semilattice_embedding(diamond)
        top = family.structure.index(total.apply("1"))
        x = family.structure.index(total.apply("x"))
        y = family.structure.index(total.apply("y"))
        assert family.sets[top] == family.sets[x] | family.sets[y]

    def test_requires_semilattice_kind(self, v_overlap):
        with pytest.raises(NotSemilattice):
            overlap_semilattice_embedding(v_overlap)

    def test_catalog_semilattices_embed(self, semilattice_catalog_4):
        for item in semilattice_catalog_4.items:
            family, total = overlap_semilattice_embedding(item)
            assert total.report.is_embedding
            assert total.report.join_preserving is True
            assert tuple(overlap_relation(family.structure)) == family.structure.contact


class TestJoinPreservingEmbedding:
    def test_v_poset_vacuous_pair(self, v_overlap):
        family, total = join_preserving_embedding(v_overlap)
        assert total.report.is_embedding
        assert subset_join(v_overlap, 0b110) is None

    def test_m3_as_poset_preserves_joins(self):
        s = m3("overlap")
        poset_view = ContactStructure(s.names, s.bottom, s.up, s.contact, POSET)
        family, total = join_preserving_embedding(poset_view)
        assert existing_join_misses(poset_view) == []

    def test_exhaustive_over_catalog(self, poset_catalog_4):
        for item in poset_catalog_4.items:
            family, total = join_preserving_embedding(item)
            assert existing_join_misses(item) == []


class TestPowersetEmbedding:
    def test_two_chain_smallest_case(self):
        s = ContactStructure.build(["0", "1"], "0", [("0", "1")], [("1", "1")])
        family, total = powerset_embedding(s)
        assert len(family.sets) == 2
        assert is_boolean_family(family)

    def test_v_overlap_images_disjoint(self, v_overlap):
        family, total = powerset_embedding(v_overlap)
        a = family.sets[family.structure.index(total.apply("a"))]
        b = family.sets[family.structure.index(total.apply("b"))]
        assert a & b == 0

    def test_v_contact_images_meet(self, v_contact):
        family, total = powerset_embedding(v_contact)
        a = family.sets[family.structure.index(total.apply("a"))]
        b = family.sets[family.structure.index(total.apply("b"))]
        assert a & b != 0

    def test_catalog_posets_boolean_targets(self, poset_catalog_4):
        for item in poset_catalog_4.items:
            family, total = powerset_embedding(item)
            assert total.report.is_embedding
            assert is_boolean_family(family)
            u = len(family.universe)
            assert len(family.sets) == 1 << u
            # explicit closure sweep: union, intersection, difference
            members = set(family.sets)
            for x in family.sets:
                for y in family.sets:
                    assert x | y in members
                    assert x & y in members
                    assert x & ~y in members

    def test_contact_is_nonempty_intersection(self, v_contact):
        family, _ = powerset_embedding(v_contact)
        s = family.structure
        for i in range(s.n):
            for j in range(s.n):
                assert bool(s.contact[i] >> j & 1) == bool(
                    family.sets[i] & family.sets[j]
                )


class TestOverlapOfFamily:
    def test_direct_and_subset_sum_agree(self):
        # same family through both code paths
        sets = [0b0000, 0b0001, 0b0011, 0b0110, 0b1000]
        direct = overlap_of_family(sets)
        padded = sets + [0b0100 | extra for extra in range(0, 64)]
        wide = overlap_of_family(list(dict.fromkeys(padded)))
        for i in range(len(sets)):
            for j in range(len(sets)):
                assert bool(direct[i] >> j & 1) == bool(wide[i] >> j & 1)


class TestMacneilleCompletion:
    def test_v_gets_a_top(self, v_overlap):
        family, chi = macneille_completion(v_overlap)
        assert len(family.sets) == 4
        assert chi.report.is_embedding and chi.report.order_reflecting

    def test_chain_complete_already(self, chain3):
        family, chi = macneille_completion(chain3)
        assert len(family.sets) == 3

    def test_lattice_isomorphic_to_completion(self, diamond):
        family, chi = macneille_completion(diamond)
        assert len(family.sets) == diamond.n
        assert chi.report.injective

    def test_m3_completion(self):
        s = m3("overlap")
        family, chi = macneille_completion(s)
        assert len(family.sets) == s.n


class TestCompleteLatticeEmbedding:
    def test_chain_target(self, chain3_semilattice):
        family, total = complete_lattice_embedding(chain3_semilattice)
        assert total.report.is_embedding
        assert is_lattice(family.structure)

    def test_diamond_pipeline(self, diamond):
        family, total = complete_lattice_embedding(diamond)
        assert total.report.is_embedding
        assert total.report.join_preserving is True
        assert is_lattice(family.structure)
        assert tuple(overlap_relation(family.structure)) == family.structure.contact

    def test_poset_rejected(self, v_overlap):
        with pytest.raises(NotSemilattice):
            complete_lattice_embedding(v_overlap)

    def test_catalog_semilattices(self, semilattice_catalog_4):
        for item in semilattice_catalog_4.items:
            family, total = complete_lattice_embedding(item)
            assert total.report.is_embedding
            assert total.report.join_preserving is True
            assert is_lattice(family.structure)


class TestCompositionInvariant:
    def test_pipeline_compositions_embed(self, semilattice_catalog_4):
        for item in semilattice_catalog_4.items:
            family, phi = overlap_semilattice_embedding(item)
            completion, chi = macneille_completion(family.structure)
            composed = compose_maps(phi, chi)
            assert composed.report.is_embedding
