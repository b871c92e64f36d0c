"""Differential tests for the semilattice amalgam's one join check.

``semilattice_amalgam`` verifies the family map d -> F once and gives
each side the family map's report after its row-checked inclusion into
d, plus one join scan into F.  The path it replaced is kept below as
the reference: a join scan of A and B into the poset amalgam d, the
family map with the exhaustive sweep of d's existing joins, and a
``verify_map`` of each side into F.  Both must give equal amalgams on
every semilattice gluing up to 4 and on 300 seeded draws up to 6, the
reference's sweep must find no miss there, and both must reject a
gluing whose common part is not join-closed.
"""

import random

import pytest

from contactposets import represent
from contactposets.amalgam import (
    AmalgamInstance,
    SemilatticeAmalgam,
    _cross_witnesses,
    contact_amalgam,
    semilattice_amalgam,
)
from contactposets.core import (
    SEMILATTICE,
    ContactStructure,
    index_map,
    join_table,
    lookup,
    verify_map,
)
from contactposets.errors import AxiomViolation, JoinNotPreserved, PreconditionViolation
from contactposets.fraisse import iter_gluings, random_instance
from contactposets.represent import (
    _image_embedding,
    existing_join_misses,
    join_preserving_embedding,
)


def reference_semilattice_amalgam(inst):
    """The replaced path.  Returns the amalgam and the misses of the
    existing-join sweep on d, on which it used to raise AxiomViolation."""
    for side in (inst.a, inst.b, inst.c):
        if side.kind != SEMILATTICE:
            raise PreconditionViolation("all three structures must be semilattices")
    d = contact_amalgam(inst)
    reference_assert_joins_survive(inst, d)
    family, into = _image_embedding(d, True, SEMILATTICE)
    missed = existing_join_misses(d)
    from_a = reference_side_map(inst.a, d, into)
    from_b = reference_side_map(inst.b, d, into)
    for tag, side_map in (("A", from_a), ("B", from_b)):
        if not (side_map.report.is_embedding and side_map.report.order_reflecting):
            raise JoinNotPreserved(
                f"side {tag} does not embed into the semilattice amalgam"
            )
    report = _cross_witnesses(
        inst, family.structure.up, from_a.mapping, from_b.mapping
    )
    return SemilatticeAmalgam(inst, d, family, into, from_a, from_b, report), missed


def reference_side_map(side, d, into):
    at = {name: k for k, name in enumerate(d.names)}
    names = into.target.names
    mapping = {name: names[into.mapping[at[name]]] for name in side.names}
    return verify_map(side, into.target, mapping)


def reference_assert_joins_survive(inst, d):
    at = index_map(d.names)
    d_joins = join_table(d)
    for side in (inst.a, inst.b):
        side_joins = join_table(side)
        in_d = [lookup(at, name) for name in side.names]
        for i in range(side.n):
            for j in range(i, side.n):
                join = side_joins.get(side.up[i] & side.up[j])
                if join is None:
                    raise JoinNotPreserved("side structure is missing a join")
                if d_joins.get(d.up[in_d[i]] & d.up[in_d[j]]) != in_d[join]:
                    raise JoinNotPreserved(
                        f"join of {side.names[i]!r} and {side.names[j]!r} moved"
                    )


def _assert_same(inst):
    expected, missed = reference_semilattice_amalgam(inst)
    assert missed == []
    got = semilattice_amalgam(inst)
    assert got == expected
    assert repr(got) == repr(expected)


def test_every_semilattice_gluing_up_to_4(semilattice_catalog_4):
    count = 0
    for a in semilattice_catalog_4.items:
        for b in semilattice_catalog_4.items:
            for inst in iter_gluings(a, b):
                _assert_same(inst)
                count += 1
    assert count == 249


def test_seeded_semilattice_draws_up_to_6(semilattice_catalog_6):
    rng = random.Random(1401)
    drawn = 0
    while drawn < 300:
        inst = random_instance(semilattice_catalog_6, rng)
        if inst is None:
            continue
        drawn += 1
        _assert_same(inst)


def _wedge(top):
    """0 < x, y < top with overlap contact."""
    return ContactStructure(
        ("0", "x", "y", top),
        0,
        (0b1111, 0b1010, 0b1100, 0b1000),
        (0, 0b1010, 0b1100, 0b1110),
        SEMILATTICE,
    )


def test_a_common_part_without_its_join_fails_on_both_paths():
    """C = {0, x, y} is not join-closed: x v y is t in A and u in B, so
    neither side's join of x and y survives in the amalgam."""
    c = ContactStructure(
        ("0", "x", "y"), 0, (0b111, 0b010, 0b100), (0, 0b010, 0b100), SEMILATTICE
    )
    inst = AmalgamInstance(_wedge("t"), _wedge("u"), c)
    with pytest.raises(JoinNotPreserved):
        reference_semilattice_amalgam(inst)
    with pytest.raises(JoinNotPreserved):
        semilattice_amalgam(inst)


def test_join_preserving_embedding_keeps_its_exhaustive_sweep(monkeypatch, v_contact):
    monkeypatch.setattr(
        represent, "existing_join_misses", lambda s: [("a", "b")]
    )
    with pytest.raises(AxiomViolation, match="existing joins not preserved"):
        join_preserving_embedding(v_contact)
