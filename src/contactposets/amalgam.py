"""Superamalgamation of contact structures over a shared substructure.

Instances identify the common part C by literal element names: the
carriers of A and B intersect exactly in C's carrier, orders and contact
agree there, and the bottoms coincide.  The amalgam lives on the union
of the carriers; cross comparabilities only arise by composing through
C, which is what superamalgamation asks for.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence

from .core import (
    POSET,
    SEMILATTICE,
    ContactStructure,
    StructureMap,
    _fresh_names,
    _preserves_joins,
    _pull_back,
    _require_join_closed,
    _runs,
    check_contact_axioms,
    induced_substructure,
    order_failure,
    restrict,
    verify_map,
)
from .errors import (
    AxiomViolation,
    JoinNotPreserved,
    PreconditionViolation,
)
from .represent import SetFamilyStructure, _image_embedding


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
        """Validate the shared-name convention before amalgamating.

        Each side's rows at C's positions, pulled back through them
        (core.restrict), must equal C's rows: C is then the induced
        substructure of that side on those elements, order and contact
        read both ways.  A semilattice side must also keep C's carrier
        closed under its joins (core._require_join_closed).  The piece of
        each side is not re-validated: a restriction of a valid side is
        valid.  Only on a mismatch is it built (induced_substructure), so
        that a side failing the axioms there is reported as before.
        """
        shared = set(a.names) & set(b.names)
        if shared != set(c.names):
            raise PreconditionViolation(
                "carriers of A and B must intersect exactly in C"
            )
        if a.names[a.bottom] != c.names[c.bottom] or b.names[b.bottom] != c.names[c.bottom]:
            raise PreconditionViolation("bottoms must coincide on C")
        for host in (a, b):
            f = [host.index(name) for name in c.names]
            if host.kind == SEMILATTICE:
                _require_join_closed(host, sorted(set(f)))
            if restrict(f, host.up, host.contact) != [c.up, c.contact]:
                # a side that fails the axioms on C's carrier is named as such
                induced_substructure(host, c.names)
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
        renaming the non-shared parts of A and B apart.

        The caller's maps must be order-reflecting embeddings (verify_map),
        and the renamed sides then go through from_parts.  The library's
        own gluings are renamed apart unchecked (core._glued_apart).
        """
        for host, emb in ((a, into_a), (b, into_b)):
            checked = verify_map(c, host, emb)
            if not (checked.report.is_embedding and checked.report.order_reflecting):
                raise PreconditionViolation("the given maps are not embeddings")
        return cls.from_parts(
            a.rename(_fresh_names(a.names, into_a, "a")),
            b.rename(_fresh_names(b.names, into_b, "b")),
            c,
        )


# ---------------------------------------------------------------------------
# the amalgam rows


def _lift(f: Sequence[int], n: int, *tables: Sequence[int]) -> list[list[int]]:
    """Each table's rows moved into union positions, the inverse of
    core.restrict: row i lands at f[i] and its bit j becomes bit f[j].
    The runs of f are cut once for all tables, one shift per run; f is
    injective.  Positions outside the side hold 0."""
    runs = _runs(f)
    out = []
    for rows in tables:
        lifted = [0] * n
        for i, row in enumerate(rows):
            moved = 0
            for source_start, target_start, width in runs:
                moved |= (row >> source_start & width) << target_start
            lifted[f[i]] = moved
        out.append(lifted)
    return out


def _glue(inst: AmalgamInstance) -> tuple[list[str], list[int], list[int], list[int]]:
    """The one row builder of both amalgams: the union carrier, the order
    rows (asserted a partial order), the contact rows, and B's union
    positions.

    A's elements sit at union positions 0..|A|-1, so A's rows are used
    as they stand; B's elements outside C follow.  B's up and contact
    rows are lifted once, and C's mask is built once, over A's
    positions.  x <= y through C when some c in C sits above x on one
    side and below y on the other, so x's row gains the other side's
    rows at the C bits of its own side's row.

    Two elements touch iff some pair below them touches on one side.
    reach[d] collects the union positions touching some side element
    below d; d then touches everything above a member of its reach, so
    its row is the OR of up[r] over r in reach[d].
    """
    a, b, c = inst.a, inst.b, inst.c
    at_a = a._name_map()
    c_mask = 0
    for name in c.names:
        c_mask |= 1 << at_a[name]
    names = list(a.names)
    into_b = []
    for name in b.names:
        k = at_a.get(name)
        if k is None or not c_mask >> k & 1:
            k = len(names)
            names.append(name)
        into_b.append(k)
    n, na = len(names), a.n
    up_b, contact_b = _lift(into_b, n, b.up, b.contact)
    up = []
    for x in range(n):
        own = a.up[x] if x < na else 0
        row = 1 << x | own | up_b[x]
        mids = own & c_mask
        while mids:
            low = mids & -mids
            row |= up_b[low.bit_length() - 1]
            mids ^= low
        mids = up_b[x] & c_mask
        while mids:
            low = mids & -mids
            row |= a.up[low.bit_length() - 1]
            mids ^= low
        up.append(row)
    _assert_partial_order(up, names)

    reach = [0] * n
    for u in range(n):
        row = (a.contact[u] if u < na else 0) | contact_b[u]
        if row:
            above = up[u]
            while above:
                low = above & -above
                reach[low.bit_length() - 1] |= row
                above ^= low
    contact = []
    for d in range(n):
        row = 0
        rest = reach[d]
        while rest:
            low = rest & -rest
            row |= up[low.bit_length() - 1]
            rest ^= low
        contact.append(row)
    return names, up, contact, into_b


def _assert_partial_order(up: Sequence[int], names: Sequence[str]) -> None:
    failure = order_failure(up)
    if failure is not None:
        i, j, law = failure
        raise AxiomViolation(f"amalgam order not {law} at {names[i]!r}, {names[j]!r}")


def order_amalgam(inst: AmalgamInstance) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """Smallest order on the union extending both sides and their
    compositions through C (the order half of _glue).

    The result is asserted, not repaired: antisymmetry or transitivity
    failures would contradict the construction and raise immediately.
    That the order restricts to A and B exactly is checked once, with
    contact, by contact_amalgam.
    """
    names, up, _, _ = _glue(inst)
    return tuple(names), tuple(up)


def contact_amalgam(inst: AmalgamInstance) -> ContactStructure:
    """Amalgamated contact structure on the union carrier (_glue).

    The result must pass the contact axioms, and the inclusions of A and
    B are verified as embeddings, which is the restriction property of
    the construction: each side's order and contact rows come back at
    its positions (the row form of verify_map's test) and its bottom is
    the amalgam's.  A sits at the first positions, so its rows come back
    under one mask; B's are pulled back through its positions.
    """
    a, b = inst.a, inst.b
    names, up, contact, into_b = _glue(inst)
    bottom = a.index(inst.c.names[inst.c.bottom])
    result = ContactStructure(tuple(names), bottom, tuple(up), tuple(contact), POSET)
    report = check_contact_axioms(result)
    if not report.ok:
        raise AxiomViolation("amalgamated contact failed the axioms", report)
    a_mask = a.full_mask
    if (
        a.bottom != bottom
        or into_b[b.bottom] != bottom
        or any(
            up[x] & a_mask != a.up[x] or contact[x] & a_mask != a.contact[x]
            for x in range(a.n)
        )
        or restrict(into_b, up, contact) != [tuple(b.up), tuple(b.contact)]
    ):
        raise AxiomViolation("inclusion into the amalgam is not an embedding")
    return result


# ---------------------------------------------------------------------------
# superamalgamation


@dataclass(frozen=True)
class CrossWitness:
    lower: str
    upper: str
    through: str | None


class SuperamalgamationReport:
    """Whether every cross comparability routes through C, and the
    witnesses that show it.

    ok is decided when the report is made, one mask test per low row.
    The witnesses are searched the first time they are read (or misses(),
    ==, hash or repr needs them), so a caller that only reads ok builds
    no CrossWitness.  Equality, hash and repr are those of a frozen
    dataclass whose one field is the witness tuple.
    """

    def __init__(self, ok: bool, search: Callable[[], tuple[CrossWitness, ...]]):
        self.ok = ok
        self._search = search

    @cached_property
    def witnesses(self) -> tuple[CrossWitness, ...]:
        return self._search()

    def misses(self) -> tuple[CrossWitness, ...]:
        return tuple(w for w in self.witnesses if w.through is None)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.witnesses == other.witnesses

    def __hash__(self) -> int:
        return hash((self.witnesses,))

    def __repr__(self) -> str:
        return f"SuperamalgamationReport(witnesses={self.witnesses!r})"


def verify_superamalgamation(
    inst: AmalgamInstance, amalgam: ContactStructure
) -> SuperamalgamationReport:
    """Each cross comparability must route through C.

    For every a in A and b in B with a <= b in the amalgam a witness
    c in C with a <=_A c <=_B b is exhibited, and symmetrically; a
    missing witness is a construction bug, reported rather than raised.
    """
    return _cross_witnesses(
        inst,
        amalgam.up,
        [amalgam.index(name) for name in inst.a.names],
        [amalgam.index(name) for name in inst.b.names],
    )


def _cross_witnesses(
    inst: AmalgamInstance,
    up: Sequence[int],
    into_a: Sequence[int],
    into_b: Sequence[int],
) -> SuperamalgamationReport:
    """The report on the cross comparabilities of a target order up, with
    side x's element i at position into_x[i]: ok from _routed, the
    witnesses from _witness_search when they are read.

    Each direction is (low side, high side, C's positions on each, the
    two sides' target positions); A low comes first, then B low.
    """
    a, b, c = inst.a, inst.b, inst.c
    in_a = [a.index(name) for name in c.names]
    in_b = [b.index(name) for name in c.names]
    directions = (
        (a, b, in_a, in_b, into_a, into_b),
        (b, a, in_b, in_a, into_b, into_a),
    )
    ok = all(_routed(up, direction) for direction in directions)
    return SuperamalgamationReport(
        ok, lambda: _witness_search(c.names, up, directions)
    )


def _routed(up: Sequence[int], direction: tuple) -> bool:
    """Does every cross pair with its low on the low side have a witness?

    A high j above low i has one iff some C element above i on the low
    side sits below j on the high side, that is iff j lies in the OR of
    the high side's up-rows of the C elements above i.  So one mask test
    per low row: its target row, pulled back through the high side's
    positions, must lie inside that OR.
    """
    low_side, high_side, c_low, c_high, into_low, into_high = direction
    c_mask = 0
    through = [0] * low_side.n
    for p, q in zip(c_low, c_high):
        c_mask |= 1 << p
        through[p] |= high_side.up[q]
    high_runs = _runs(into_high)
    for i, row in enumerate(low_side.up):
        mids = row & c_mask
        reach = 0
        while mids:
            low = mids & -mids
            reach |= through[low.bit_length() - 1]
            mids ^= low
        if _pull_back(up[into_low[i]], high_runs) & ~reach:
            return False
    return True


def _witness_search(
    c_names: Sequence[str], up: Sequence[int], directions: Sequence[tuple]
) -> tuple[CrossWitness, ...]:
    """Witnesses of the cross comparabilities of up, one per cross pair.

    Pairs come low side A then B, lows in carrier order, highs in carrier
    order.  The highs above a low are its target row pulled back through
    the high side's positions.  The witness is the first C element, in
    C's carrier order, that is above the low on its side and below the
    high on the other: the lowest bit of (C above low) & (C below high).
    """
    witnesses = []
    for low_side, high_side, c_low, c_high, into_low, into_high in directions:
        low_runs = _runs(c_low)
        below = [0] * high_side.n
        for k, q in enumerate(c_high):
            above = high_side.up[q]
            while above:
                low = above & -above
                below[low.bit_length() - 1] |= 1 << k
                above ^= low
        high_runs = _runs(into_high)
        for i, low_name in enumerate(low_side.names):
            over = _pull_back(low_side.up[i], low_runs)
            highs = _pull_back(up[into_low[i]], high_runs)
            while highs:
                low = highs & -highs
                j = low.bit_length() - 1
                mids = over & below[j]
                found = c_names[(mids & -mids).bit_length() - 1] if mids else None
                witnesses.append(CrossWitness(low_name, high_side.names[j], found))
                highs ^= low
    return tuple(witnesses)


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


def semilattice_amalgam(inst: AmalgamInstance) -> SemilatticeAmalgam:
    """Amalgamate semilattices: the poset amalgam need not have joins,
    so it is pushed join-preservingly into a union-closed overlap family
    where both sides land as semilattice embeddings.

    contact_amalgam has just validated d, so d goes straight to the
    family builder, whose map d -> F is verified.  F is built from its
    member masks; its provenance is built only if a caller reads it,
    which the limit stages never do.  A side's map is its row-checked
    inclusion into d followed by that map: it carries that map's report
    plus one join scan into F (core._preserves_joins, which tests each
    image by F's up-rows).  F is union-closed and x goes to the
    complement of its up-set, so a side's join survives in F iff it
    survives in d.  d's existing joins are preserved by construction,
    which join_preserving_embedding checks.
    """
    for side in (inst.a, inst.b, inst.c):
        if side.kind != SEMILATTICE:
            raise PreconditionViolation("all three structures must be semilattices")
    d = contact_amalgam(inst)
    family, into = _image_embedding(d, True, SEMILATTICE)
    side_maps = []
    for tag, side in (("A", inst.a), ("B", inst.b)):
        f = tuple(into.mapping[d.index(name)] for name in side.names)
        report = replace(
            into.report, join_preserving=_preserves_joins(side, into.target, f)
        )
        if not (report.is_embedding and report.order_reflecting):
            raise JoinNotPreserved(
                f"side {tag} does not embed into the semilattice amalgam"
            )
        side_maps.append(StructureMap(side, into.target, f, report))
    from_a, from_b = side_maps
    report = _cross_witnesses(
        inst, family.structure.up, from_a.mapping, from_b.mapping
    )
    return SemilatticeAmalgam(inst, d, family, into, from_a, from_b, report)
