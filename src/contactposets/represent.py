"""Representation constructions into set families with overlap contact.

All constructions share one target shape: a family of subsets of a
universe ordered by inclusion, with the overlap relation of that order
as contact.  Families remember a provenance entry per set, and the
embedding maps come back fully verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import and_, or_
from typing import Callable, Sequence

from .core import (
    POSET,
    SEMILATTICE,
    ContactStructure,
    StructureMap,
    bits,
    check_contact_axioms,
    close_under,
    compose_maps,
    join_table,
    meet_table,
    overlap_relation,
    verify_map,
)
from .errors import AxiomViolation, NotSemilattice
from .enumeration import is_lattice


@dataclass(frozen=True)
class Origin:
    kind: str                      # element-image | pair-intersection | union | cut
    refs: tuple[str, ...] = ()


@dataclass(frozen=True)
class SetFamilyStructure:
    """A family of subsets of a universe, ordered by inclusion.

    sets[i] is a bitmask over universe positions; structure is the same
    family viewed as a contact structure whose contact table is the
    family's own overlap relation.
    """

    universe: tuple[str, ...]
    sets: tuple[int, ...]
    provenance: tuple[tuple[Origin, ...], ...]
    structure: ContactStructure

    def members(self, position: int) -> tuple[str, ...]:
        return tuple(self.universe[i] for i in bits(self.sets[position]))

    def position_of(self, mask: int) -> int:
        return self.sets.index(mask)


def _set_name(universe: Sequence[str], mask: int) -> str:
    return "{" + ",".join(universe[i] for i in bits(mask)) + "}"


def _holders(sets: Sequence[int]) -> Callable[[int], int]:
    """Holder masks over a family: holders(q) has bit i set iff sets[i]
    contains q.  It is the AND of one column mask per member of q, the
    column of universe bit b holding the sets that contain b; the empty
    set is held by every set."""
    full = (1 << len(sets)) - 1
    columns = [0] * max((mask.bit_length() for mask in sets), default=0)
    for i, mask in enumerate(sets):
        bit = 1 << i
        while mask:
            low = mask & -mask
            columns[low.bit_length() - 1] |= bit
            mask ^= low

    def holders(q: int) -> int:
        out = full
        while q:
            low = q & -q
            out &= columns[low.bit_length() - 1]
            q ^= low
        return out

    return holders


def overlap_of_family(sets: Sequence[int]) -> list[int]:
    """Overlap table of an inclusion-ordered family, recomputed from the
    family membership alone: x and y touch iff some nonempty member sits
    inside both.

    Small families are read off their inclusion-minimal nonempty
    members: a nonempty member inside both x and y contains a minimal
    one, so x and y touch iff they both hold some minimal q, and each q
    ORs its holder mask into the rows of its holders.  A member is
    minimal when no smaller one found so far lies inside it; members are
    visited by size, and only a smaller distinct member can lie strictly
    inside.  Large ones get a subset-sum sweep over the universe masks.
    """
    m = len(sets)
    if m <= 64:
        holders = _holders(sets)
        rows = [0] * m
        minimal: list[int] = []
        for q in sorted({q for q in sets if q}, key=int.bit_count):
            if all(p & ~q for p in minimal):
                minimal.append(q)
                held = holders(q)
                for x in bits(held):
                    rows[x] |= held
        return rows
    width = max(mask.bit_length() for mask in sets)
    has_witness = bytearray(1 << width)
    for q in sets:
        if q:
            has_witness[q] = 1
    for bit in range(width):
        step = 1 << bit
        for mask in range(1 << width):
            if mask & step and has_witness[mask ^ step]:
                has_witness[mask] = 1
    rows = [0] * m
    for i in range(m):
        for j in range(i, m):
            if has_witness[sets[i] & sets[j]]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def family_structure(
    universe: Sequence[str],
    masks: Sequence[int],
    provenance: dict[int, list[Origin]],
    kind: str,
) -> SetFamilyStructure:
    """Assemble the inclusion order plus overlap contact over the masks.

    Masks are sorted by size then bit pattern, which makes every family
    deterministic; the empty set must be present as the bottom.  Row i
    of the inclusion order is the holder mask of set i (_holders).
    """
    ordered = sorted(set(masks), key=lambda m: (bin(m).count("1"), m))
    if ordered[0] != 0:
        raise AxiomViolation("set family is missing its empty bottom")
    holders = _holders(ordered)
    up = [holders(mask) for mask in ordered]
    contact = overlap_of_family(ordered)
    names = tuple(_set_name(universe, mask) for mask in ordered)
    structure = ContactStructure(names, 0, tuple(up), tuple(contact), kind)
    report = check_contact_axioms(structure)
    if not report.ok:
        raise AxiomViolation("set family failed the contact axioms", report)
    return SetFamilyStructure(
        tuple(universe),
        tuple(ordered),
        tuple(tuple(provenance.get(mask, ())) for mask in ordered),
        structure,
    )


# ---------------------------------------------------------------------------
# stage one: complements of principal up-sets


def _nonbelow_masks(s: ContactStructure) -> list[int]:
    """mask of {x | a is not below x}, per element a."""
    return [s.full_mask & ~s.up[a] for a in range(s.n)]


def _image_family(
    s: ContactStructure, phi: Sequence[int], union_closed: bool
) -> tuple[list[int], dict[int, list[Origin]]]:
    provenance: dict[int, list[Origin]] = {}
    masks: list[int] = []

    def add(mask: int, origin: Origin) -> None:
        if mask not in provenance:
            provenance[mask] = []
            masks.append(mask)
        provenance[mask].append(origin)

    for a in range(s.n):
        add(phi[a], Origin("element-image", (s.names[a],)))
    for a in range(s.n):
        for b in bits(s.contact[a]):
            if b < a:
                continue
            add(
                phi[a] & phi[b],
                Origin("pair-intersection", (s.names[a], s.names[b])),
            )
    if union_closed:
        for u in close_under(masks, masks, or_) - provenance.keys():
            add(u, Origin("union"))
    return masks, provenance


def overlap_poset_embedding(
    s: ContactStructure,
) -> tuple[SetFamilyStructure, StructureMap]:
    """Embed a contact poset into a set family with overlap contact.

    Each element a maps to the complement of its principal up-set; the
    family holds those images plus one intersection per contact pair, so
    every contact is witnessed inside the family and nothing else is.
    """
    _require_valid(s)
    return _image_embedding(s, False, POSET)


def overlap_semilattice_embedding(
    s: ContactStructure,
) -> tuple[SetFamilyStructure, StructureMap]:
    """Semilattice version: close the family under finite unions, so set
    union realizes the join and the same map preserves it."""
    if s.kind != SEMILATTICE:
        raise NotSemilattice("input must carry the semilattice kind")
    _require_valid(s)
    return _image_embedding(s, True, SEMILATTICE)


def join_preserving_embedding(
    s: ContactStructure,
) -> tuple[SetFamilyStructure, StructureMap]:
    """Embed a mere contact poset into a union-closed overlap family.

    Every join that happens to exist in the source is sent to the join
    of the images, their union.  The construction makes that so, and it
    is verified against the family's joins over all carrier subsets
    (_bound_sweep) before returning.
    """
    _require_valid(s)
    family, total = _image_embedding(s, True, SEMILATTICE)
    missed = _bound_sweep(s, family.structure, total.mapping, False)
    if missed:
        raise AxiomViolation(f"existing joins not preserved: {missed[1]}")
    return family, total


def _image_embedding(
    s: ContactStructure, union_closed: bool, kind: str
) -> tuple[SetFamilyStructure, StructureMap]:
    """The image family of s (_image_family), tagged kind, and the map
    sending each element to its image, verified."""
    phi = _nonbelow_masks(s)
    masks, provenance = _image_family(s, phi, union_closed)
    family = family_structure(s.names, masks, provenance, kind)
    mapping = {
        s.names[a]: _set_name(s.names, phi[a]) for a in range(s.n)
    }
    total = verify_map(s, family.structure, mapping)
    return family, total


# ---------------------------------------------------------------------------
# stage two: the full powerset


def powerset_embedding(
    s: ContactStructure,
) -> tuple[SetFamilyStructure, StructureMap]:
    """Embed a contact poset into a literal powerset with overlap.

    Runs the overlap-family stage first, then sends each family set q
    to the family sets inside q; the target is the powerset of the
    nonempty family members, which is a complete atomic Boolean carrier.
    That the stage-one contact is overlap is not re-checked: the stage
    builds it as overlap, and ψ's verify_map tests contact in both
    directions against the target's overlap.
    """
    family, phi_map = overlap_poset_embedding(s)
    q_structure = family.structure
    nonempty = [mask for mask in family.sets if mask]
    u = len(nonempty)
    universe = tuple(q_structure.names[family.sets.index(mask)] for mask in nonempty)

    def down_in_family(qmask: int) -> int:
        out = 0
        for pos, member in enumerate(nonempty):
            if member & ~qmask == 0:
                out |= 1 << pos
        return out

    provenance: dict[int, list[Origin]] = {
        mask: [Origin("union")] for mask in range(1 << u)
    }
    for i in range(q_structure.n):
        image = down_in_family(family.sets[i])
        provenance[image].insert(
            0, Origin("element-image", (q_structure.names[i],))
        )
    target = family_structure(universe, list(range(1 << u)), provenance, SEMILATTICE)
    psi = {
        q_structure.names[i]: _set_name(universe, down_in_family(family.sets[i]))
        for i in range(q_structure.n)
    }
    psi_map = verify_map(q_structure, target.structure, psi)
    total = compose_maps(phi_map, psi_map)
    return target, total


def is_boolean_family(family: SetFamilyStructure) -> bool:
    """True when the family is the full powerset of its universe with
    singleton atoms, hence closed under union, intersection and relative
    complement."""
    u = len(family.universe)
    if set(family.sets) != set(range(1 << u)):
        return False
    structure = family.structure
    atoms = [
        i
        for i in range(structure.n)
        if i != structure.bottom
        and all(
            not structure.up[j] >> i & 1
            for j in range(structure.n)
            if j not in (i, structure.bottom)
        )
    ]
    singletons = [i for i, mask in enumerate(family.sets) if bin(mask).count("1") == 1]
    return sorted(atoms) == sorted(singletons)


# ---------------------------------------------------------------------------
# completions by cuts


def macneille_completion(
    s: ContactStructure,
) -> tuple[SetFamilyStructure, StructureMap]:
    """Completion by cuts, with each element landing on its principal
    down-set.

    Cuts are realized as the intersections of principal down-sets plus
    the full carrier; the resulting lattice carries the overlap contact
    of its own order, and the canonical map preserves every meet and
    join that exists in the source (Davey and Priestley, Introduction
    to Lattices and Order, ch. 7): for every subset of the carrier, both
    the join and the meet of its images are looked up in the target
    lattice and compared with the image of the source's join and meet
    (_check_cut_bounds, one memoised _bound_sweep).
    """
    down = s.down_masks()
    cuts = close_under((s.full_mask, *down), down, and_)
    provenance: dict[int, list[Origin]] = {mask: [Origin("cut")] for mask in cuts}
    for a in range(s.n):
        provenance[down[a]].append(Origin("element-image", (s.names[a],)))
    family = _cut_family(s, sorted(cuts), provenance, down[s.bottom])
    chi = {s.names[a]: _set_name(s.names, down[a]) for a in range(s.n)}
    total = verify_map(s, family.structure, chi)
    _check_cut_bounds(s, family, down)
    return family, total


def _cut_family(
    s: ContactStructure,
    masks: list[int],
    provenance: dict[int, list[Origin]],
    bottom_cut: int,
) -> SetFamilyStructure:
    ordered = sorted(set(masks), key=lambda m: (bin(m).count("1"), m))
    if ordered[0] != bottom_cut:
        raise AxiomViolation("least cut is not the bottom's down-set")
    m = len(ordered)
    holders = _holders(ordered)
    up = [holders(mask) for mask in ordered]
    names = tuple(_set_name(s.names, mask) for mask in ordered)
    skeleton = ContactStructure(names, 0, tuple(up), tuple([0] * m), SEMILATTICE)
    contact = overlap_relation(skeleton)
    structure = skeleton.with_contact(contact)
    report = check_contact_axioms(structure)
    if not report.ok:
        raise AxiomViolation("cut lattice failed the contact axioms", report)
    if not is_lattice(structure):
        raise AxiomViolation("completion is not a lattice")
    return SetFamilyStructure(
        tuple(s.names),
        tuple(ordered),
        tuple(tuple(provenance.get(mask, ())) for mask in ordered),
        structure,
    )


def _check_cut_bounds(
    s: ContactStructure, family: SetFamilyStructure, down: Sequence[int]
) -> None:
    """Exhaustive meet/join preservation over all carrier subsets: where
    a subset has a join (a meet, for a nonempty subset) in s, the target
    takes the images to the image of that join (meet).  Element a's
    image is the family member down[a]; the subsets are walked by
    _bound_sweep, which reads the target's joins and meets.
    """
    pos = {mask: i for i, mask in enumerate(family.sets)}
    lost = _bound_sweep(s, family.structure, [pos[row] for row in down], True)
    if lost:
        raise AxiomViolation(f"completion lost the {lost[0]} of {lost[1]}")


def _bound_sweep(
    s: ContactStructure,
    target: ContactStructure,
    image: Sequence[int],
    meets: bool,
) -> tuple[str, list[str]] | None:
    """First carrier subset whose join in s is not sent to the target's
    join of its images (element a's image is image[a]); with meets, the
    same for the meet of a nonempty subset.  Returns ("join" or "meet",
    the subset's names), or None.

    Subsets are walked depth-first, deciding elements from the highest
    index down with "left out" before "taken", so they come in
    increasing mask order as a plain count would give them.  Each step
    carries the subset's upper bounds in s and in the target, plus its
    lower bounds with meets, so a leaf costs a lookup per join and meet
    table (core.join_table, core.meet_table).  Without meets a subtree
    with no upper bound left in s holds no join and is skipped.

    A state already expanded is skipped too: a leaf's verdict depends
    only on its state (k, the bounds, whether the subset is empty), and
    the walk stops at its first failure, so a skipped subtree repeats
    one walked without a failure.  The first failure is the one a plain
    count finds, and a chain costs O(n^3) states, not 2^n.
    """
    s_joins, t_joins = join_table(s), join_table(target)
    s_up, t_up = s.up, target.up
    every, t_every = s.full_mask, target.full_mask
    if meets:
        s_meets, t_meets = meet_table(s), meet_table(target)
        s_down, t_down = s.down_masks(), target.down_masks()
    else:
        s_meets = t_meets = {}
        s_down, t_down = [every] * s.n, [t_every] * target.n
    seen = set()
    stack = [(s.n, 0, every, t_every, every, t_every)]
    while stack:
        k, subset, ub, t_ub, lb, t_lb = stack.pop()
        state = (k, ub, t_ub, lb, t_lb, subset == 0)
        if state in seen:
            continue
        seen.add(state)
        if k:
            k -= 1
            i = image[k]
            taken = ub & s_up[k]
            if taken or meets:
                stack.append(
                    (k, subset | 1 << k, taken, t_ub & t_up[i],
                     lb & s_down[k], t_lb & t_down[i])
                )
            stack.append((k, subset, ub, t_ub, lb, t_lb))
            continue
        join = s_joins.get(ub)
        if join is not None and t_joins.get(t_ub) != image[join]:
            return "join", [s.names[a] for a in bits(subset)]
        meet = s_meets.get(lb)
        if meet is not None and subset and t_meets.get(t_lb) != image[meet]:
            return "meet", [s.names[a] for a in bits(subset)]
    return None


def complete_lattice_embedding(
    s: ContactStructure,
) -> tuple[SetFamilyStructure, StructureMap]:
    """Embed a contact semilattice into a bounded complete lattice with
    overlap contact: union-closed overlap family first, then completion
    by cuts of that family."""
    if s.kind != SEMILATTICE:
        raise NotSemilattice("input must carry the semilattice kind")
    family, phi_map = overlap_semilattice_embedding(s)
    completion, chi_map = macneille_completion(family.structure)
    total = compose_maps(phi_map, chi_map)
    return completion, total


def _require_valid(s: ContactStructure) -> None:
    report = check_contact_axioms(s)
    if not report.ok:
        raise AxiomViolation("input structure is invalid", report)
