"""Representation constructions into set families with overlap contact.

All constructions share one target shape: a family of subsets of a
universe ordered by inclusion, with the overlap relation of that order
as contact.  A family is built from its member masks: its names, rows
and the embedding map come from those, and the map comes back fully
verified.  Each set's provenance is built the first time it is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import and_, or_
from typing import Callable, Collection, Mapping, Sequence

from .core import (
    POSET,
    SEMILATTICE,
    ContactStructure,
    StructureMap,
    _require_valid,
    _verify_positions,
    bits,
    close_under,
    compose_maps,
    join_table,
    meet_table,
    overlap_relation,
)
from .errors import AxiomViolation, NotSemilattice
from .enumeration import is_lattice


@dataclass(frozen=True)
class Origin:
    kind: str                      # element-image | pair-intersection | union | cut
    refs: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False, repr=False)
class SetFamilyStructure:
    """A family of subsets of a universe, ordered by inclusion.

    sets[i] is a bitmask over universe positions; structure is the same
    family viewed as a contact structure whose contact table is the
    family's own overlap relation.

    provenance[i] says where sets[i] came from.  It is built the first
    time it is read (or ==, hash or repr needs it) by origins, one of
    the provenance builders, which maps each mask to its origins.  A
    caller that reads only the sets and the structure, as the limit
    stages do, builds no Origin.  Equality, hash and repr are those of
    a frozen dataclass with the fields universe, sets, provenance and
    structure.
    """

    universe: tuple[str, ...]
    sets: tuple[int, ...]
    structure: ContactStructure
    origins: Callable[[], Mapping[int, Sequence[Origin]]]

    @cached_property
    def provenance(self) -> tuple[tuple[Origin, ...], ...]:
        origins = self.origins()
        return tuple(tuple(origins.get(mask, ())) for mask in self.sets)

    def _fields(self) -> tuple:
        return (self.universe, self.sets, self.provenance, self.structure)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"SetFamilyStructure(universe={self.universe!r}, sets={self.sets!r}, "
            f"provenance={self.provenance!r}, structure={self.structure!r})"
        )

    def members(self, position: int) -> tuple[str, ...]:
        return tuple(self.universe[i] for i in bits(self.sets[position]))

    def position_of(self, mask: int) -> int:
        return self.sets.index(mask)


def _member_names(universe: Sequence[str], masks: Sequence[int]) -> tuple[str, ...]:
    """Each member's name, "{" + its elements + "}", with "\\" and ","
    escaped in the element names (once per universe) and the empty name
    written "\\e", which no escaped name holds, so distinct members get
    distinct names; other names are unchanged.  The bits are walked
    inline, since every member of every family is named."""
    escaped = [
        name.replace("\\", "\\\\").replace(",", "\\,") or "\\e" for name in universe
    ]
    names = []
    for mask in masks:
        members = []
        while mask:
            low = mask & -mask
            members.append(escaped[low.bit_length() - 1])
            mask ^= low
        names.append("{" + ",".join(members) + "}")
    return tuple(names)


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


def overlap_of_family(
    sets: Sequence[int], holders: Callable[[int], int] | None = None
) -> list[int]:
    """Overlap table of an inclusion-ordered family, recomputed from the
    family membership alone: x and y touch iff some nonempty member sits
    inside both.

    Small families are read off their inclusion-minimal nonempty
    members: a nonempty member inside both x and y contains a minimal
    one, so x and y touch iff they both hold some minimal q, and each q
    ORs its holder mask into the rows of its holders.  A member is
    minimal when no smaller one found so far lies inside it; members are
    visited by size, and only a smaller distinct member can lie strictly
    inside.  holders is the family's _holders table, when the caller
    has built it already (family_structure reads its order rows there).
    Large families get a subset-sum sweep over the universe masks.
    """
    m = len(sets)
    if m <= 64:
        if holders is None:
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
    masks: Collection[int],
    origins: Callable[[], Mapping[int, Sequence[Origin]]],
    kind: str,
) -> SetFamilyStructure:
    """Assemble the inclusion order plus overlap contact over the masks.

    Masks are sorted by size then bit pattern, which makes every family
    deterministic; the empty set must be present as the bottom.  Row i
    of the inclusion order is the holder mask of set i (_holders), and
    the one holder table serves the overlap too.  origins, a provenance
    builder, runs only when the family's provenance is read.
    """
    ordered = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    if ordered[0] != 0:
        raise AxiomViolation("set family is missing its empty bottom")
    holders = _holders(ordered)
    up = [holders(mask) for mask in ordered]
    contact = overlap_of_family(ordered, holders)
    names = _member_names(universe, ordered)
    structure = ContactStructure(names, 0, tuple(up), tuple(contact), kind)
    _require_valid(structure, "set family failed the contact axioms")
    return SetFamilyStructure(tuple(universe), tuple(ordered), structure, origins)


def _onto_members(
    s: ContactStructure, family: SetFamilyStructure, images: Sequence[int]
) -> StructureMap:
    """The map sending element a of s to the family member images[a],
    verified on positions (core._verify_positions): each image is read
    by its position, {mask: position}, and no name is looked up."""
    position = {mask: i for i, mask in enumerate(family.sets)}
    f = tuple(position[mask] for mask in images)
    return _verify_positions(s, family.structure, f)


# ---------------------------------------------------------------------------
# stage one: complements of principal up-sets


def _nonbelow_masks(s: ContactStructure) -> list[int]:
    """mask of {x | a is not below x}, per element a."""
    return [s.full_mask & ~s.up[a] for a in range(s.n)]


def _image_family(
    s: ContactStructure, phi: Sequence[int], union_closed: bool
) -> Collection[int]:
    """The member masks of the image family: each element's image phi[a],
    the intersection of the images of each contact pair, and with
    union_closed every union of those (core.close_under).

    Only an incomparable contact pair can add a member.  phi(x) is the
    complement of x's up-set, so phi is monotone: a <= b gives phi(a)
    inside phi(b), and phi(a) & phi(b) = phi(a), an image already.  So
    the pairs walked are those with a < b (as positions) and neither
    above the other.  Where each member came from is left to
    _image_origins, which runs only when provenance is read.
    """
    up, contact = s.up, s.contact
    members = dict.fromkeys(phi)
    for a in range(s.n):
        image = phi[a]
        partners = contact[a] & ~up[a] & -(2 << a)
        while partners:
            low = partners & -partners
            b = low.bit_length() - 1
            if not up[b] >> a & 1:
                members[image & phi[b]] = None
            partners ^= low
    if union_closed:
        return close_under(members, members, or_)
    return members.keys()


def _image_origins(
    s: ContactStructure, phi: Sequence[int], masks: Collection[int]
) -> dict[int, list[Origin]]:
    """Provenance builder of the image family over masks: per member, its
    element images, then its contact-pair intersections in (a, b >= a)
    order, comparable pairs included; a member that is neither is a
    union."""
    origins: dict[int, list[Origin]] = {}
    for a in range(s.n):
        origins.setdefault(phi[a], []).append(
            Origin("element-image", (s.names[a],))
        )
    for a in range(s.n):
        for b in bits(s.contact[a] >> a << a):
            origins.setdefault(phi[a] & phi[b], []).append(
                Origin("pair-intersection", (s.names[a], s.names[b]))
            )
    for mask in masks:
        if mask not in origins:
            origins[mask] = [Origin("union")]
    return origins


def overlap_poset_embedding(
    s: ContactStructure,
) -> tuple[SetFamilyStructure, StructureMap]:
    """Embed a contact poset into a set family with overlap contact.

    Each element a maps to the complement of its principal up-set; the
    family holds those images plus one intersection per contact pair, so
    every contact is witnessed inside the family and nothing else is.
    """
    _require_valid(s, "input structure is invalid")
    return _image_embedding(s, False, POSET)


def overlap_semilattice_embedding(
    s: ContactStructure,
) -> tuple[SetFamilyStructure, StructureMap]:
    """Semilattice version: close the family under finite unions, so set
    union realizes the join and the same map preserves it."""
    if s.kind != SEMILATTICE:
        raise NotSemilattice("input must carry the semilattice kind")
    _require_valid(s, "input structure is invalid")
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
    _require_valid(s, "input structure is invalid")
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
    masks = _image_family(s, phi, union_closed)
    family = family_structure(
        s.names, masks, lambda: _image_origins(s, phi, masks), kind
    )
    return family, _onto_members(s, family, phi)


# ---------------------------------------------------------------------------
# stage two: the full powerset


def powerset_embedding(
    s: ContactStructure,
) -> tuple[SetFamilyStructure, StructureMap]:
    """Embed a contact poset into a literal powerset with overlap.

    Runs the overlap-family stage first, then sends each family set q
    to the family sets inside q, its down-row shifted past the empty set
    (which family_structure puts first); the target is the powerset of
    the nonempty family members, a complete atomic Boolean carrier.
    That the stage-one contact is overlap is not re-checked: the stage
    builds it as overlap, and ψ's map check tests contact in both
    directions against the target's overlap.
    """
    family, phi_map = overlap_poset_embedding(s)
    q_structure = family.structure
    u = len(family.sets) - 1
    images = [row >> 1 for row in q_structure.down_masks()]
    target = family_structure(
        q_structure.names[1:],
        range(1 << u),
        lambda: _powerset_origins(q_structure.names, images, u),
        SEMILATTICE,
    )
    psi_map = _onto_members(q_structure, target, images)
    total = compose_maps(phi_map, psi_map)
    return target, total


def _powerset_origins(
    names: Sequence[str], images: Sequence[int], u: int
) -> dict[int, list[Origin]]:
    """Provenance builder of the powerset of u members: every set is a
    union, and the image of each stage-one set (named names[i], image
    images[i]) is an element image too, the later sets first."""
    origins = {mask: [Origin("union")] for mask in range(1 << u)}
    for name, image in zip(names, images):
        origins[image].insert(0, Origin("element-image", (name,)))
    return origins


def is_boolean_family(family: SetFamilyStructure) -> bool:
    """True when the family is the full powerset of its universe with
    singleton atoms, hence closed under union, intersection and relative
    complement.  The atoms are read off the down-rows: i is an atom when
    its down-set off the bottom is i alone."""
    u = len(family.universe)
    if set(family.sets) != set(range(1 << u)):
        return False
    nonzero = ~(1 << family.structure.bottom)
    down = family.structure.down_masks()
    atoms = [i for i, row in enumerate(down) if row & nonzero == 1 << i]
    singletons = [i for i, mask in enumerate(family.sets) if mask.bit_count() == 1]
    return atoms == singletons


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
    family = _cut_family(
        s, cuts, lambda: _cut_origins(s, cuts, down), down[s.bottom]
    )
    total = _onto_members(s, family, down)
    _check_cut_bounds(s, family, down)
    return family, total


def _cut_origins(
    s: ContactStructure, cuts: Collection[int], down: Sequence[int]
) -> dict[int, list[Origin]]:
    """Provenance builder of the cut lattice: every member is a cut, and
    the principal down-set of each element is its image too."""
    origins = {mask: [Origin("cut")] for mask in cuts}
    for a in range(s.n):
        origins[down[a]].append(Origin("element-image", (s.names[a],)))
    return origins


def _cut_family(
    s: ContactStructure,
    masks: Collection[int],
    origins: Callable[[], Mapping[int, Sequence[Origin]]],
    bottom_cut: int,
) -> SetFamilyStructure:
    ordered = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    if ordered[0] != bottom_cut:
        raise AxiomViolation("least cut is not the bottom's down-set")
    m = len(ordered)
    holders = _holders(ordered)
    up = [holders(mask) for mask in ordered]
    names = _member_names(s.names, ordered)
    skeleton = ContactStructure(names, 0, tuple(up), tuple([0] * m), SEMILATTICE)
    contact = overlap_relation(skeleton)
    structure = skeleton.with_contact(contact)
    _require_valid(structure, "cut lattice failed the contact axioms")
    if not is_lattice(structure):
        raise AxiomViolation("completion is not a lattice")
    return SetFamilyStructure(tuple(s.names), tuple(ordered), structure, origins)


def _check_cut_bounds(
    s: ContactStructure, family: SetFamilyStructure, down: Sequence[int]
) -> None:
    """Exhaustive meet/join preservation over all carrier subsets: where
    a subset has a join (a meet, for a nonempty subset) in s, the target
    takes the images to the image of that join (meet).  Element a's
    image is the family member down[a]; the subsets are walked by
    _bound_sweep, which tests each image by its row.
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
    lower bounds with meets, so a leaf finds the join (meet) in s's
    table and tests its image by its row (core.join_table).  Without
    meets a subtree with no upper bound left in s holds no join and is
    skipped.

    A state already expanded is skipped too: a leaf's verdict depends
    only on its state (k, the bounds, whether the subset is empty), and
    the walk stops at its first failure, so a skipped subtree repeats
    one walked without a failure.  The first failure is the one a plain
    count finds, and a chain costs O(n^3) states, not 2^n.
    """
    s_joins, s_up, t_up = join_table(s), s.up, target.up
    every, t_every = s.full_mask, target.full_mask
    if meets:
        s_meets, s_down, t_down = meet_table(s), s.down_masks(), target.down_masks()
    else:
        s_meets, s_down, t_down = {}, [every] * s.n, [t_every] * target.n
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
        if join is not None and t_up[image[join]] != t_ub:
            return "join", [s.names[a] for a in bits(subset)]
        meet = s_meets.get(lb)
        if meet is not None and subset and t_down[image[meet]] != t_lb:
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
