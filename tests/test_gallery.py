import pytest

from contactposets.core import SEMILATTICE, check_contact_axioms, overlap_relation
from contactposets.core import ContactStructure
from contactposets.enumeration import is_distributive, is_lattice
from contactposets.errors import NotSemilattice
from contactposets.gallery import (
    check_complement_uniqueness,
    check_distributive_amalgam_failure,
    check_distributive_overlap_additivity,
    complements,
    failure_instance,
    find_additivity_failure,
    m3,
    run_gallery,
)
from additive_search import search_additive_overlap_embeddings


class TestM3Fixtures:
    def test_overlap_variant(self):
        s = m3("overlap")
        assert check_contact_axioms(s).ok
        assert not s.delta("a", "b")
        assert s.delta("a", "1")

    def test_with_ab_variant(self):
        s = m3("with_ab")
        assert check_contact_axioms(s).ok
        assert s.delta("a", "b")
        assert not s.delta("c", "a")
        assert not s.delta("c", "b")

    def test_fixtures_are_recomputed_not_stored(self):
        base = overlap_relation(m3("overlap"))
        assert m3("overlap").contact == base


class TestAdditivityFailures:
    def test_overlap_witness(self):
        witness = find_additivity_failure(m3("overlap"))
        assert witness is not None
        x, y, z = witness
        s = m3("overlap")
        assert not s.delta(x, y) and not s.delta(x, z)

    def test_with_ab_witness(self):
        witness = find_additivity_failure(m3("with_ab"))
        assert witness == ("c", "a", "b") or witness == ("c", "b", "a")

    def test_chain_has_no_witness(self, chain3_semilattice):
        assert find_additivity_failure(chain3_semilattice) is None

    def test_missing_join_is_not_a_semilattice(self):
        # tagged a semilattice, but a and b have no join
        s = ContactStructure(
            ("0", "a", "b"), 0, (0b111, 0b010, 0b100), (0, 0b010, 0b100), SEMILATTICE
        )
        with pytest.raises(NotSemilattice):
            find_additivity_failure(s)


class TestBoundedScans:
    def test_distributive_overlap_additivity(self):
        report = check_distributive_overlap_additivity(5)
        assert report.ok
        assert report.scanned == 8  # distributive lattices up to five elements

    def test_powerset_lattices_additive(self):
        from contactposets.represent import powerset_embedding
        from contactposets.core import ContactStructure

        for n in (1, 2, 3):
            base = ContactStructure.build(
                ["0"] + [f"x{i}" for i in range(n)],
                "0",
                [],
                [(f"x{i}", f"x{i}") for i in range(n)],
            )
            family, _ = powerset_embedding(base)
            target = ContactStructure(
                family.structure.names,
                family.structure.bottom,
                family.structure.up,
                family.structure.contact,
                SEMILATTICE,
            )
            assert find_additivity_failure(target) is None

    def test_complement_uniqueness(self):
        report = check_complement_uniqueness(6)
        assert report.ok
        assert report.scanned == 13

    def test_m3_contrast_two_complements(self):
        s = m3("overlap")
        c = s.index("c")
        assert len(complements(s, c)) == 2

    def test_chain_complements(self, chain3_semilattice):
        # inner chain elements have no complement
        assert complements(chain3_semilattice, chain3_semilattice.index("c")) == []


class TestDistributiveAmalgamFailure:
    def test_search_to_eight(self):
        report = check_distributive_amalgam_failure(8)
        assert report.ok
        assert report.lattices_scanned == 36
        assert report.amalgams_found == 0
        assert report.candidate_pairs > 0
        assert report.identifications == report.candidate_pairs

    def test_failure_instance_shape(self):
        inst = failure_instance(SEMILATTICE)
        assert not inst.a.delta("a", "c")
        assert inst.b.delta("b", "c")
        assert is_lattice(inst.a) and is_distributive(inst.a)


class TestExploratorySearch:
    def test_reports_without_asserting(self):
        report = search_additive_overlap_embeddings(3, 5)
        assert report.additive_sources >= 1
        assert report.embeddable + len(report.unresolved) == report.additive_sources


class TestRunGallery:
    def test_everything_confirms(self):
        report = run_gallery(bound=5, failure_bound=6)
        assert report.ok
        names = [name for name, _, _ in report.entries]
        assert "distributive amalgamation failure" in names
