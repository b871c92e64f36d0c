"""Representation constructions into set families with overlap contact.

All constructions share one target shape: a family of subsets of a
universe ordered by inclusion, with the overlap relation of that order
as contact.  Families remember a provenance entry per set, and the
embedding maps come back fully verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .core import (
    POSET,
    SEMILATTICE,
    ContactStructure,
    StructureMap,
    bits,
    check_contact_axioms,
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
    s: ContactStructure, union_closed: bool
) -> tuple[list[int], dict[int, list[Origin]]]:
    phi = _nonbelow_masks(s)
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
        frontier = list(masks)
        while frontier:
            fresh = []
            for x in frontier:
                for y in list(masks):
                    u = x | y
                    if u not in provenance:
                        add(u, Origin("union"))
                        fresh.append(u)
            frontier = fresh
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

    Every join that happens to exist in the source is sent to the union
    of the images.  The construction makes that so, and it is verified
    exhaustively over all carrier subsets (existing_join_misses) before
    returning.
    """
    _require_valid(s)
    family, total = _image_embedding(s, True, SEMILATTICE)
    missed = existing_join_misses(s)
    if missed:
        raise AxiomViolation(f"existing joins not preserved: {missed}")
    return family, total


def _image_embedding(
    s: ContactStructure, union_closed: bool, kind: str
) -> tuple[SetFamilyStructure, StructureMap]:
    """The image family of s (_image_family), tagged kind, and the map
    sending each element to its image, verified."""
    masks, provenance = _image_family(s, union_closed)
    family = family_structure(s.names, masks, provenance, kind)
    phi = _nonbelow_masks(s)
    mapping = {
        s.names[a]: _set_name(s.names, phi[a]) for a in range(s.n)
    }
    total = verify_map(s, family.structure, mapping)
    return family, total


def existing_join_misses(s: ContactStructure) -> list[tuple[str, ...]]:
    """Subsets whose existing join is not mapped to the union of images.

    Subsets are walked depth-first, deciding elements from the highest
    index down with "left out" before "taken", so they come in
    increasing mask order as a plain count would give them.  Each step
    carries the common upper bounds and the union of images so far.  A
    subset's join is the element whose up-row equals its upper bounds
    (core.join_table).  A subtree with no upper bound left holds no
    join and is skipped.  The stack holds O(n) entries.
    """
    phi = _nonbelow_masks(s)
    joins = join_table(s)
    up, names = s.up, s.names
    missed = []
    stack = [(s.n, 0, s.full_mask, 0)]
    while stack:
        k, subset, bounds, union = stack.pop()
        if k == 0:
            j = joins.get(bounds)
            if j is not None and union != phi[j]:
                missed.append(tuple(names[a] for a in bits(subset)))
            continue
        k -= 1
        taken = bounds & up[k]
        if taken:
            stack.append((k, subset | 1 << k, taken, union | phi[k]))
        stack.append((k, subset, bounds, union))
    return missed


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
    join that exists in the source: for every subset of the carrier,
    both the join and the meet of its images are looked up in the
    target lattice and compared with the image of the source's join
    and meet (_check_cut_bounds).
    """
    down = s.down_masks()
    cuts = {s.full_mask} | {down[a] for a in range(s.n)}
    while True:
        fresh = {
            x & down[a] for x in cuts for a in range(s.n)
        } - cuts
        if not fresh:
            break
        cuts |= fresh
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
    takes the images to the image of that join (meet).

    Subsets are walked depth-first as in existing_join_misses, so they
    come in increasing mask order and the first failure reported is the
    one a plain count would find.  Each step carries the upper and lower
    bounds of the subset in s and of its images in the target, so a
    subset costs four lookups in join and meet tables (core.join_table,
    core.meet_table).  Both halves read the target.
    """
    target = family.structure
    pos = {mask: i for i, mask in enumerate(family.sets)}
    image = [pos[row] for row in down]
    s_joins, s_meets = join_table(s), meet_table(s)
    t_joins, t_meets = join_table(target), meet_table(target)
    t_down = target.down_masks()
    s_up, t_up = s.up, target.up
    every, t_every = s.full_mask, target.full_mask
    stack = [(s.n, 0, every, every, t_every, t_every)]
    while stack:
        k, subset, ub, lb, t_ub, t_lb = stack.pop()
        if k:
            k -= 1
            i = image[k]
            stack.append(
                (k, subset | 1 << k, ub & s_up[k], lb & down[k],
                 t_ub & t_up[i], t_lb & t_down[i])
            )
            stack.append((k, subset, ub, lb, t_ub, t_lb))
            continue
        join = s_joins.get(ub)
        if join is not None and t_joins.get(t_ub) != image[join]:
            raise AxiomViolation(
                f"completion lost the join of {[s.names[a] for a in bits(subset)]}"
            )
        meet = s_meets.get(lb)
        if meet is not None and subset and t_meets.get(t_lb) != image[meet]:
            raise AxiomViolation(
                f"completion lost the meet of {[s.names[a] for a in bits(subset)]}"
            )


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
