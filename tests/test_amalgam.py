import random

import pytest

from contactposets.amalgam import (
    AmalgamInstance,
    contact_amalgam,
    order_amalgam,
    semilattice_amalgam,
    verify_superamalgamation,
)
from contactposets.core import (
    POSET,
    SEMILATTICE,
    ContactStructure,
    check_contact_axioms,
)
from contactposets.enumeration import canonical_key
from contactposets.errors import PreconditionViolation, UnknownElement
from contactposets.fraisse import iter_gluings, random_instance


def build(elements, order, contact, kind=POSET):
    return ContactStructure.build(elements, elements[0], order, contact, kind)


@pytest.fixture
def fork_instance():
    # one side keeps c incomparable to a fresh point, the other puts a
    # fresh point above c
    a = build(["0", "c", "a"], [], [("c", "c"), ("a", "a")])
    b = build(["0", "c", "b"], [("c", "b")], [("c", "c"), ("c", "b"), ("b", "b")])
    c = build(["0", "c"], [], [("c", "c")])
    return AmalgamInstance.from_parts(a, b, c)


class TestOrderAmalgam:
    def test_fork(self, fork_instance):
        names, up = order_amalgam(fork_instance)
        pos = {name: i for i, name in enumerate(names)}
        assert not up[pos["a"]] >> pos["b"] & 1
        assert not up[pos["a"]] >> pos["c"] & 1
        assert up[pos["c"]] >> pos["b"] & 1

    def test_degenerate(self):
        c = build(["0", "c"], [], [("c", "c")])
        inst = AmalgamInstance.from_parts(c, c, c)
        names, up = order_amalgam(inst)
        assert names == c.names and up == c.up

    def test_chains_stay_incomparable(self):
        a = build(["0", "c", "a"], [("c", "a")], [("c", "c"), ("c", "a"), ("a", "a")])
        b = build(["0", "c", "b"], [("c", "b")], [("c", "c"), ("c", "b"), ("b", "b")])
        c = build(["0", "c"], [], [("c", "c")])
        names, up = order_amalgam(AmalgamInstance.from_parts(a, b, c))
        pos = {name: i for i, name in enumerate(names)}
        assert not up[pos["a"]] >> pos["b"] & 1
        assert not up[pos["b"]] >> pos["a"] & 1

    def test_precondition_bottoms(self):
        a = build(["0", "c"], [], [("c", "c")])
        b = build(["z", "c"], [], [("c", "c")])
        c = build(["0", "c"], [], [("c", "c")])
        with pytest.raises(PreconditionViolation):
            AmalgamInstance.from_parts(a, b, c)

    def test_precondition_substructure(self):
        a = build(["0", "c", "d"], [], [("c", "c"), ("d", "d"), ("c", "d")])
        b = build(["0", "c", "d", "e"], [], [("c", "c"), ("d", "d"), ("e", "e")])
        c = build(["0", "c", "d"], [], [("c", "c"), ("d", "d")])
        with pytest.raises(PreconditionViolation):
            AmalgamInstance.from_parts(a, b, c)


class TestContactAmalgam:
    def test_fork_contact(self, fork_instance):
        d = contact_amalgam(fork_instance)
        assert d.delta("c", "b")
        assert not d.delta("a", "b")
        assert not d.delta("a", "c")
        assert check_contact_axioms(d).ok

    def test_witness_through_extension(self):
        a = build(["0", "c"], [], [("c", "c")])
        b = build(["0", "c", "b"], [("c", "b")], [("c", "c"), ("c", "b"), ("b", "b")])
        c = build(["0", "c"], [], [("c", "c")])
        d = contact_amalgam(AmalgamInstance.from_parts(a, b, c))
        assert d.delta("c", "b")

    def test_degenerate_contact(self):
        c = build(["0", "c"], [], [("c", "c")])
        d = contact_amalgam(AmalgamInstance.from_parts(c, c, c))
        assert d.contact == c.contact

    def test_restrictions_exact(self, fork_instance):
        d = contact_amalgam(fork_instance)
        for side in (fork_instance.a, fork_instance.b):
            for x in side.names:
                for y in side.names:
                    assert d.leq(x, y) == side.leq(x, y)
                    assert d.delta(x, y) == side.delta(x, y)

    def test_strong_size(self, fork_instance):
        d = contact_amalgam(fork_instance)
        assert d.n == 4

    def test_commutativity_up_to_isomorphism(self, fork_instance):
        swapped = AmalgamInstance.from_parts(
            fork_instance.b, fork_instance.a, fork_instance.c
        )
        d1 = contact_amalgam(fork_instance)
        d2 = contact_amalgam(swapped)
        assert canonical_key(d1) == canonical_key(d2)

    def test_commutativity_over_small_gluings(self, poset_catalog_4):
        items = poset_catalog_4.by_size(3)
        for a in items:
            for b in items:
                for inst in iter_gluings(a, b):
                    swapped = AmalgamInstance.from_parts(inst.b, inst.a, inst.c)
                    assert canonical_key(contact_amalgam(inst)) == canonical_key(
                        contact_amalgam(swapped)
                    )


class TestSuperamalgamation:
    def test_fork_witnesses(self, fork_instance):
        d = contact_amalgam(fork_instance)
        report = verify_superamalgamation(fork_instance, d)
        assert report.ok
        crossing = [w for w in report.witnesses if w.lower == "c" and w.upper == "b"]
        assert crossing and crossing[0].through == "c"

    def test_incomparable_pairs_vacuous(self, fork_instance):
        d = contact_amalgam(fork_instance)
        report = verify_superamalgamation(fork_instance, d)
        assert all(w.through is not None for w in report.witnesses)


class TestSemilatticeAmalgam:
    def test_degenerate_chain(self, chain3_semilattice):
        inst = AmalgamInstance.from_parts(
            chain3_semilattice, chain3_semilattice, chain3_semilattice
        )
        result = semilattice_amalgam(inst)
        assert result.superamalgamation.ok
        assert result.from_a.report.is_embedding

    def test_diamond_over_chain(self, chain3_semilattice, diamond):
        a = ContactStructure.build(
            ["0", "c", "1", "a"], "0",
            [("0", "c"), ("c", "1"), ("0", "a"), ("a", "1")],
            [("c", "c"), ("c", "1"), ("1", "1"), ("a", "a"), ("a", "1")],
            SEMILATTICE,
        )
        inst = AmalgamInstance.from_parts(a, chain3_semilattice, chain3_semilattice)
        result = semilattice_amalgam(inst)
        # the join of the complement pair survives into the family
        e = result.family.structure
        top = e.index(result.from_a.apply("1"))
        left = e.index(result.from_a.apply("a"))
        mid = e.index(result.from_a.apply("c"))
        mask_top = result.family.sets[top]
        assert mask_top == result.family.sets[left] | result.family.sets[mid]

    def test_two_diamonds_escape_distributive_failure(self):
        from contactposets.gallery import failure_instance

        result = semilattice_amalgam(failure_instance(SEMILATTICE))
        e = result.family.structure
        assert not e.delta(result.from_a.apply("a"), result.from_b.apply("b"))
        assert result.superamalgamation.ok

    def test_requires_semilattices(self, fork_instance):
        with pytest.raises(PreconditionViolation):
            semilattice_amalgam(fork_instance)


class TestGluedSuites:
    def test_exhaustive_small_sample(self, poset_catalog_4):
        items = poset_catalog_4.by_size(3)
        for a in items:
            for b in items:
                for inst in iter_gluings(a, b):
                    d = contact_amalgam(inst)
                    assert d.n == inst.a.n + inst.b.n - inst.c.n
                    assert verify_superamalgamation(inst, d).ok

    def test_seeded_random_batch(self, poset_catalog_6):
        rng = random.Random(11)
        ran = 0
        while ran < 150:
            inst = random_instance(poset_catalog_6, rng)
            if inst is None:
                continue
            ran += 1
            d = contact_amalgam(inst)
            assert check_contact_axioms(d).ok
            assert d.n == inst.a.n + inst.b.n - inst.c.n
            assert verify_superamalgamation(inst, d).ok

    def test_from_embeddings_renames_apart(self, v_overlap, chain3):
        c = ContactStructure.build(["0"], "0", [], [])
        inst = AmalgamInstance.from_embeddings(
            v_overlap, chain3, c, {"0": "0"}, {"0": "0"}
        )
        assert set(inst.a.names) & set(inst.b.names) == {"0"}
        d = contact_amalgam(inst)
        assert d.n == v_overlap.n + chain3.n - 1

    def test_from_embeddings_names_an_unmapped_element(self, v_overlap, chain3):
        c = ContactStructure.build(["0", "x"], "0", [("0", "x")], [("x", "x")])
        with pytest.raises(UnknownElement, match="^element 'x' is not mapped$"):
            AmalgamInstance.from_embeddings(v_overlap, chain3, c, {"0": "0"}, {"0": "0"})
