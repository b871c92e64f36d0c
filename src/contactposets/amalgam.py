"""Superamalgamation of contact structures over a shared substructure.

Instances identify the common part C by literal element names: the
carriers of A and B intersect exactly in C's carrier, orders and contact
agree there, and the bottoms coincide.  The amalgam lives on the union
of the carriers; cross comparabilities only arise by composing through
C, which is what superamalgamation asks for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    POSET,
    SEMILATTICE,
    ContactStructure,
    StructureMap,
    _fresh_names,
    _pull_back,
    _require_join_closed,
    _runs,
    check_contact_axioms,
    index_map,
    induced_substructure,
    join_table,
    lookup,
    order_failure,
    restrict,
    verify_map,
)
from .errors import (
    AxiomViolation,
    ContactError,
    JoinNotPreserved,
    PreconditionViolation,
)
from .represent import SetFamilyStructure, _join_preserving_family


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
            at = index_map(host.names)
            f = [at[name] for name in c.names]
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

        from_parts decides whether the maps are embeddings.  Once each
        renamed side carries C's names at exactly the images of its map,
        its bottom and row checks, and the join closure of the image on
        a semilattice side, hold iff the map is an order-reflecting
        embedding (verify_map's judgement).  So verify_map runs only when
        that fast path fails, and the old order of checks then raises
        what it always raised.
        """
        fresh_a = _fresh_names(a.names, into_a, "a")
        fresh_b = _fresh_names(b.names, into_b, "b")
        if _lands(c, into_a, fresh_a) and _lands(c, into_b, fresh_b):
            try:
                return cls.from_parts(a.rename(fresh_a), b.rename(fresh_b), c)
            except ContactError:
                pass
        for host, emb in ((a, into_a), (b, into_b)):
            checked = verify_map(c, host, emb)
            if not (checked.report.is_embedding and checked.report.order_reflecting):
                raise PreconditionViolation("the given maps are not embeddings")
        return cls.from_parts(a.rename(fresh_a), b.rename(fresh_b), c)


def _lands(c: ContactStructure, emb: dict[str, str], fresh: dict[str, str]) -> bool:
    """Does the renaming put each of C's names on its image under emb?
    Then the images are distinct elements of the host, and the renamed
    host holds C's names at exactly those positions."""
    return all(fresh.get(emb.get(name)) == name for name in c.names)


# ---------------------------------------------------------------------------
# the order amalgam


def _lift(rows: Sequence[int], f: Sequence[int], n: int) -> list[int]:
    """A side's rows moved into union positions: row i lands at f[i] and
    its bit j becomes bit f[j].  One shift per run of f; f is injective.
    Positions outside the side hold 0."""
    runs = _runs(f)
    out = [0] * n
    for i, row in enumerate(rows):
        lifted = 0
        for source_start, target_start, width in runs:
            lifted |= (row >> source_start & width) << target_start
        out[f[i]] = lifted
    return out


def order_amalgam(inst: AmalgamInstance) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """Smallest order on the union extending both sides and their
    compositions through C.

    Each side's rows are lifted once into union positions.  x <= y
    through C when some c in C sits above x on one side and below y on
    the other, so x's row gains the other side's rows at the C bits of
    its own side's row.

    The result is asserted, not repaired: antisymmetry or transitivity
    failures would contradict the construction and raise immediately.
    That the order restricts to A and B exactly is checked once, with
    contact, by contact_amalgam.
    """
    a, b, c = inst.a, inst.b, inst.c
    names = list(a.names) + [name for name in b.names if name not in set(c.names)]
    pos = {name: i for i, name in enumerate(names)}
    n = len(names)
    rows_a, rows_b = (_lift(side.up, [pos[x] for x in side.names], n) for side in (a, b))
    c_mask = 0
    for name in c.names:
        c_mask |= 1 << pos[name]
    up = []
    for x in range(n):
        row = 1 << x | rows_a[x] | rows_b[x]
        for mine, theirs in ((rows_a, rows_b), (rows_b, rows_a)):
            mids = mine[x] & c_mask
            while mids:
                low = mids & -mids
                row |= theirs[low.bit_length() - 1]
                mids ^= low
        up.append(row)

    _assert_partial_order(up, names)
    return tuple(names), tuple(up)


def _assert_partial_order(up: Sequence[int], names: Sequence[str]) -> None:
    failure = order_failure(up)
    if failure is not None:
        i, j, law = failure
        raise AxiomViolation(f"amalgam order not {law} at {names[i]!r}, {names[j]!r}")


# ---------------------------------------------------------------------------
# the contact amalgam


def contact_amalgam(inst: AmalgamInstance) -> ContactStructure:
    """Amalgamated contact structure on the union carrier.

    Two elements touch iff some pair below them touches on one side.
    reach[d] collects the union positions touching some side element
    below d; d then touches everything above a member of its reach, so
    its row is the OR of up[r] over r in reach[d].
    The inclusions of A and B are verified as embeddings, which is the
    restriction property of the construction: each side's order and
    contact rows come back at its positions (core.restrict, the row
    form of verify_map's test) and its bottom is the amalgam's.
    """
    names, up = order_amalgam(inst)
    pos = {name: i for i, name in enumerate(names)}
    n = len(names)
    touch = [0] * n
    for side in (inst.a, inst.b):
        lifted = _lift(side.contact, [pos[name] for name in side.names], n)
        for u in range(n):
            touch[u] |= lifted[u]
    reach = [0] * n
    for u in range(n):
        row = touch[u]
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
    result = ContactStructure(tuple(names), pos[inst.c.names[inst.c.bottom]],
                              tuple(up), tuple(contact), POSET)
    report = check_contact_axioms(result)
    if not report.ok:
        raise AxiomViolation("amalgamated contact failed the axioms", report)
    for side in (inst.a, inst.b):
        into = [pos[name] for name in side.names]
        if into[side.bottom] != result.bottom or restrict(into, up, contact) != [
            tuple(side.up), tuple(side.contact)
        ]:
            raise AxiomViolation(
                "inclusion into the amalgam is not an embedding"
            )
    return result


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
    """Witnesses of the cross comparabilities of a target order up, with
    side x's element i at position into_x[i].

    Pairs come low side A then B, lows in carrier order, highs in carrier
    order.  The highs above a low are its target row pulled back through
    the high side's positions.  The witness is the first C element, in
    C's carrier order, that is above the low on its side and below the
    high on the other: the lowest bit of (C above low) & (C below high).
    """
    a, b, c = inst.a, inst.b, inst.c
    witnesses = []
    for low_side, high_side, into_low, into_high in (
        (a, b, into_a, into_b),
        (b, a, into_b, into_a),
    ):
        c_low = _runs([low_side.index(name) for name in c.names])
        below = [0] * high_side.n
        for k, name in enumerate(c.names):
            above = high_side.up[high_side.index(name)]
            while above:
                low = above & -above
                below[low.bit_length() - 1] |= 1 << k
                above ^= low
        high_runs = _runs(into_high)
        for i, low_name in enumerate(low_side.names):
            over = _pull_back(low_side.up[i], c_low)
            highs = _pull_back(up[into_low[i]], high_runs)
            while highs:
                low = highs & -highs
                j = low.bit_length() - 1
                mids = over & below[j]
                found = c.names[(mids & -mids).bit_length() - 1] if mids else None
                witnesses.append(CrossWitness(low_name, high_side.names[j], found))
                highs ^= low
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

    This is join_preserving_embedding without its input check:
    contact_amalgam has just validated d, so d goes straight to the
    family builder.  exhaustive_joins is its check_subsets.
    """
    for side in (inst.a, inst.b, inst.c):
        if side.kind != SEMILATTICE:
            raise PreconditionViolation("all three structures must be semilattices")
    d = contact_amalgam(inst)
    _assert_joins_survive(inst, d)
    family, into = _join_preserving_family(d, exhaustive_joins)
    from_a = _side_map(inst.a, d, into)
    from_b = _side_map(inst.b, d, into)
    for tag, side_map in (("A", from_a), ("B", from_b)):
        if not (side_map.report.is_embedding and side_map.report.order_reflecting):
            raise JoinNotPreserved(
                f"side {tag} does not embed into the semilattice amalgam"
            )
    report = _cross_witnesses(
        inst, family.structure.up, from_a.mapping, from_b.mapping
    )
    return SemilatticeAmalgam(inst, d, family, into, from_a, from_b, report)


def _side_map(
    side: ContactStructure, d: ContactStructure, into: StructureMap
) -> StructureMap:
    at = {name: k for k, name in enumerate(d.names)}
    names = into.target.names
    mapping = {name: names[into.mapping[at[name]]] for name in side.names}
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

