"""Superamalgamation of contact structures over a shared substructure.

Instances identify the common part C by literal element names: the
carriers of A and B intersect exactly in C's carrier, orders and contact
agree there, and the bottoms coincide.  The amalgam lives on the union
of the carriers; cross comparabilities only arise by composing through
C, which is what superamalgamation asks for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import (
    POSET,
    SEMILATTICE,
    ContactStructure,
    StructureMap,
    bits,
    check_contact_axioms,
    index_map,
    induced_substructure,
    join_table,
    lookup,
    verify_map,
)
from .errors import AxiomViolation, JoinNotPreserved, PreconditionViolation
from .represent import SetFamilyStructure, join_preserving_embedding


@dataclass(frozen=True)
class AmalgamInstance:
    a: ContactStructure
    b: ContactStructure
    c: ContactStructure

    @classmethod
    def from_parts(
        cls,
        a: ContactStructure,
        b: ContactStructure,
        c: ContactStructure,
    ) -> "AmalgamInstance":
        """Validate the shared-name convention before amalgamating."""
        shared = set(a.names) & set(b.names)
        if shared != set(c.names):
            raise PreconditionViolation(
                "carriers of A and B must intersect exactly in C"
            )
        if a.names[a.bottom] != c.names[c.bottom] or b.names[b.bottom] != c.names[c.bottom]:
            raise PreconditionViolation("bottoms must coincide on C")
        for host in (a, b):
            piece = induced_substructure(host, c.names)
            aligned = _align(piece, c.names)
            if aligned.up != c.up or aligned.contact != c.contact:
                raise PreconditionViolation(
                    "C is not an induced substructure of both sides"
                )
        return cls(a, b, c)

    @classmethod
    def from_embeddings(
        cls,
        a: ContactStructure,
        b: ContactStructure,
        c: ContactStructure,
        into_a: dict[str, str],
        into_b: dict[str, str],
    ) -> "AmalgamInstance":
        """Build a literal instance from two abstract embeddings of C by
        renaming the non-shared parts of A and B apart."""
        for host, emb in ((a, into_a), (b, into_b)):
            checked = verify_map(c, host, emb)
            if not (checked.report.is_embedding and checked.report.order_reflecting):
                raise PreconditionViolation("the given maps are not embeddings")
        rename_a = {emb_image: name for name, emb_image in into_a.items()}
        rename_b = {emb_image: name for name, emb_image in into_b.items()}
        fresh_a = {
            name: rename_a.get(name, f"a:{name}") for name in a.names
        }
        fresh_b = {
            name: rename_b.get(name, f"b:{name}") for name in b.names
        }
        return cls.from_parts(a.rename(fresh_a), b.rename(fresh_b), c)


def _align(piece: ContactStructure, names: Sequence[str]) -> ContactStructure:
    """Reorder a structure's carrier to match the given name sequence."""
    perm = [list(names).index(name) for name in piece.names]
    return piece.relabel(perm)


# ---------------------------------------------------------------------------
# the order amalgam


def order_amalgam(inst: AmalgamInstance) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """Smallest order on the union extending both sides and their
    compositions through C.

    The result is asserted, not repaired: antisymmetry or transitivity
    failures would contradict the construction and raise immediately.
    Restrictions to A and B must come back exactly.
    """
    a, b, c = inst.a, inst.b, inst.c
    names = list(a.names) + [name for name in b.names if name not in set(c.names)]
    pos = {name: i for i, name in enumerate(names)}
    n = len(names)
    up = [1 << i for i in range(n)]

    def load(side: ContactStructure) -> None:
        for i in range(side.n):
            for j in bits(side.up[i]):
                up[pos[side.names[i]]] |= 1 << pos[side.names[j]]

    load(a)
    load(b)
    for side_one, side_two in ((a, b), (b, a)):
        shared = set(c.names)
        for i in range(side_one.n):
            for mid in bits(side_one.up[i]):
                mid_name = side_one.names[mid]
                if mid_name not in shared:
                    continue
                k = side_two.index(mid_name)
                for j in bits(side_two.up[k]):
                    up[pos[side_one.names[i]]] |= 1 << pos[side_two.names[j]]

    _assert_partial_order(up, names)
    for side in (a, b):
        side_set = set(side.names)
        for i in range(side.n):
            restricted = 0
            for j in bits(up[pos[side.names[i]]]):
                if names[j] in side_set:
                    restricted |= 1 << side.index(names[j])
            if restricted != side.up[i]:
                raise AxiomViolation(
                    f"order amalgam disturbed the side at {side.names[i]!r}"
                )
    return tuple(names), tuple(up)


def _assert_partial_order(up: Sequence[int], names: Sequence[str]) -> None:
    n = len(up)
    for i in range(n):
        for j in bits(up[i]):
            if j != i and up[j] >> i & 1:
                raise AxiomViolation(
                    f"amalgam order not antisymmetric at {names[i]!r}, {names[j]!r}"
                )
            if up[i] | up[j] != up[i]:
                raise AxiomViolation(
                    f"amalgam order not transitive at {names[i]!r}, {names[j]!r}"
                )


# ---------------------------------------------------------------------------
# the contact amalgam


def contact_amalgam(inst: AmalgamInstance) -> ContactStructure:
    """Amalgamated contact structure on the union carrier.

    Two elements touch iff some pair below them touches on one side.
    The inclusions of A and B are verified as embeddings, which is the
    restriction property of the construction.
    """
    names, up = order_amalgam(inst)
    pos = {name: i for i, name in enumerate(names)}
    n = len(names)
    down = [0] * n
    for i in range(n):
        for j in bits(up[i]):
            down[j] |= 1 << i

    reach = [0] * n
    for side in (inst.a, inst.b):
        side_positions = [pos[name] for name in side.names]
        for d in range(n):
            row = 0
            for i in range(side.n):
                if down[d] >> side_positions[i] & 1:
                    row |= side.contact[i]
            for j in bits(row):
                reach[d] |= 1 << side_positions[j]

    contact = [0] * n
    for d in range(n):
        for e in range(n):
            if reach[d] & down[e]:
                contact[d] |= 1 << e
    result = ContactStructure(tuple(names), pos[inst.c.names[inst.c.bottom]],
                              tuple(up), tuple(contact), POSET)
    report = check_contact_axioms(result)
    if not report.ok:
        raise AxiomViolation("amalgamated contact failed the axioms", report)
    for side in (inst.a, inst.b):
        inclusion = verify_map(
            _as_poset(side), result, {name: name for name in side.names}
        )
        if not (
            inclusion.report.is_embedding and inclusion.report.order_reflecting
        ):
            raise AxiomViolation(
                "inclusion into the amalgam is not an embedding"
            )
    return result


def _as_poset(s: ContactStructure) -> ContactStructure:
    return ContactStructure(s.names, s.bottom, s.up, s.contact, POSET)


# ---------------------------------------------------------------------------
# superamalgamation


@dataclass(frozen=True)
class CrossWitness:
    lower: str
    upper: str
    through: str | None


@dataclass(frozen=True)
class SuperamalgamationReport:
    witnesses: tuple[CrossWitness, ...]

    @property
    def ok(self) -> bool:
        return all(w.through is not None for w in self.witnesses)

    def misses(self) -> tuple[CrossWitness, ...]:
        return tuple(w for w in self.witnesses if w.through is None)


def verify_superamalgamation(
    inst: AmalgamInstance, amalgam: ContactStructure
) -> SuperamalgamationReport:
    """Each cross comparability must route through C.

    For every a in A and b in B with a <= b in the amalgam a witness
    c in C with a <=_A c <=_B b is exhibited, and symmetrically; a
    missing witness is a construction bug, reported rather than raised.
    """
    a, b, c = inst.a, inst.b, inst.c
    witnesses = []
    for low_side, high_side in ((a, b), (b, a)):
        for low in low_side.names:
            for high in high_side.names:
                if not amalgam.leq(low, high):
                    continue
                found = None
                for mid in c.names:
                    if low_side.leq(low, mid) and high_side.leq(mid, high):
                        found = mid
                        break
                witnesses.append(CrossWitness(low, high, found))
    return SuperamalgamationReport(tuple(witnesses))


# ---------------------------------------------------------------------------
# the semilattice amalgam


@dataclass(frozen=True)
class SemilatticeAmalgam:
    instance: AmalgamInstance
    poset_amalgam: ContactStructure
    family: SetFamilyStructure
    into_amalgam: StructureMap
    from_a: StructureMap
    from_b: StructureMap
    superamalgamation: SuperamalgamationReport


def semilattice_amalgam(
    inst: AmalgamInstance, exhaustive_joins: bool = True
) -> SemilatticeAmalgam:
    """Amalgamate semilattices: the poset amalgam need not have joins,
    so it is pushed join-preservingly into a union-closed overlap family
    where both sides land as semilattice embeddings.
    """
    for side in (inst.a, inst.b, inst.c):
        if side.kind != SEMILATTICE:
            raise PreconditionViolation("all three structures must be semilattices")
    d = contact_amalgam(inst)
    _assert_joins_survive(inst, d)
    family, into = join_preserving_embedding(d, check_subsets=exhaustive_joins)
    from_a = _side_map(inst.a, d, into)
    from_b = _side_map(inst.b, d, into)
    for tag, side_map in (("A", from_a), ("B", from_b)):
        if not (side_map.report.is_embedding and side_map.report.order_reflecting):
            raise JoinNotPreserved(
                f"side {tag} does not embed into the semilattice amalgam"
            )
    report = _super_through_maps(inst, family.structure, from_a, from_b)
    return SemilatticeAmalgam(inst, d, family, into, from_a, from_b, report)


def _side_map(
    side: ContactStructure, d: ContactStructure, into: StructureMap
) -> StructureMap:
    mapping = {name: into.apply(name) for name in side.names}
    return verify_map(side, into.target, mapping)


def _assert_joins_survive(inst: AmalgamInstance, d: ContactStructure) -> None:
    """Joins of A and of B must stay least upper bounds in the amalgam.

    Joins are looked up in join tables (see core.join_table); both
    lookups are symmetric, so the pairs i <= j are all there is to check.
    """
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


def _super_through_maps(
    inst: AmalgamInstance,
    target: ContactStructure,
    from_a: StructureMap,
    from_b: StructureMap,
) -> SuperamalgamationReport:
    witnesses = []
    pairs = (
        (inst.a, inst.b, from_a, from_b),
        (inst.b, inst.a, from_b, from_a),
    )
    for low_side, high_side, low_map, high_map in pairs:
        for low in low_side.names:
            for high in high_side.names:
                if not target.leq(low_map.apply(low), high_map.apply(high)):
                    continue
                found = None
                for mid in inst.c.names:
                    if low_side.leq(low, mid) and high_side.leq(mid, high):
                        found = mid
                        break
                witnesses.append(CrossWitness(low, high, found))
    return SuperamalgamationReport(tuple(witnesses))


# ---------------------------------------------------------------------------
# instance assembly helpers (used by the class-property and test suites)


def glue_instances(
    a: ContactStructure,
    b: ContactStructure,
    subset_names: Iterable[str],
    embedding: dict[str, str],
) -> AmalgamInstance:
    """Instance with C = the induced substructure of a on subset_names,
    glued into b along the given name map."""
    c = induced_substructure(a, subset_names)
    into_a = {name: name for name in c.names}
    into_b = {name: embedding[name] for name in c.names}
    return AmalgamInstance.from_embeddings(a, b, c, into_a, into_b)
