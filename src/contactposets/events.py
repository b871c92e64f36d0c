"""Event structures with binary conflict, held as their contact duals.

An event structure here is a finite causal order with a symmetric,
irreflexive conflict relation inherited upward along causality.  Taking
the dual order and complementing conflict turns one into a bottomless
contact structure, and back.  Each value is stored as that dual with a
reserved bottom adjoined, checked once where the value is built from
event rows; its event rows are views read off the dual.  Restriction,
gluing, enumeration and amalgamation are the contact operations on the
duals, with no translation and no re-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .amalgam import AmalgamInstance, contact_amalgam, verify_superamalgamation
from .core import (
    AxiomReport,
    BottomlessContact,
    ContactStructure,
    _adjoin_checked_bottom,
    _glued_apart,
    _index_elements,
    _law,
    _law_checks,
    _ref_witness,
    _require_laws,
    _restriction,
    _sym_witness,
    _symmetric_rows,
    _upset_witness,
    adjoin_bottom,
    drop_bottom,
    normalize_order,
    transpose,
)
from .enumeration import AgeCatalog, gluings_up_to_iso
from .errors import PreconditionViolation, UnknownElement

RESERVED_BOTTOM = "__bot__"


@dataclass(frozen=True)
class EventStructure:
    """Events, a causal order and binary conflict, stored as the checked
    bottomed dual: position 0 of ``dual`` is RESERVED_BOTTOM, position
    k + 1 is event k, its order is causality reversed and its contact is
    the complement of conflict.  The event reads are computed from the
    dual on each call and not cached, since callers keep many values."""

    dual: ContactStructure

    @classmethod
    def build(
        cls,
        events: Sequence[str],
        order: Iterable[tuple[str, str]] = (),
        conflict: Iterable[tuple[str, str]] = (),
    ) -> "EventStructure":
        """Close the causal order, symmetrize conflict, then validate."""
        if RESERVED_BOTTOM in events:
            raise UnknownElement(f"{RESERVED_BOTTOM!r} is reserved, not an event name")
        padded = normalize_order(order, (RESERVED_BOTTOM,) + tuple(events), RESERVED_BOTTOM)
        up = tuple(row >> 1 for row in padded[1:])
        idx = {name: i for i, name in enumerate(events)}
        rows = _symmetric_rows(conflict, idx, "unknown event {!r} in conflict pair")
        return cls.from_rows(events, up, rows)

    @classmethod
    def from_rows(
        cls, events: Sequence[str], up: Sequence[int], conflict: Sequence[int]
    ) -> "EventStructure":
        """The value with these rows (bit j of up[i] says event i <= event
        j), checked once: distinct names and the event laws on the rows,
        then the reserved name and the order of the bottomed dual."""
        _index_elements(events)
        _require_laws(_event_laws(events, up, conflict), "event structure invalid")
        full = (1 << len(events)) - 1
        flipped = BottomlessContact(
            tuple(events), transpose(up), tuple(full & ~row for row in conflict)
        )
        return cls(_adjoin_checked_bottom(flipped, RESERVED_BOTTOM))

    @property
    def events(self) -> tuple[str, ...]:
        return self.dual.names[1:]

    names = events

    @property
    def n(self) -> int:
        return self.dual.n - 1

    @property
    def up(self) -> tuple[int, ...]:
        """Causal rows: bit j of up[i] says event i <= event j."""
        return tuple(row >> 1 for row in transpose(self.dual.up)[1:])

    @property
    def conflict(self) -> tuple[int, ...]:
        return tuple((self.dual.full_mask & ~row) >> 1 for row in self.dual.contact[1:])

    def _position(self, name: str) -> int:
        try:
            position = self.dual._name_map()[name]
        except (KeyError, TypeError):
            position = 0
        if not position:
            raise UnknownElement(f"unknown event {name!r}")
        return position

    def index(self, name: str) -> int:
        return self._position(name) - 1

    def leq(self, x: str, y: str) -> bool:
        i, j = self._position(x), self._position(y)
        return bool(self.dual.up[j] >> i & 1)

    def in_conflict(self, x: str, y: str) -> bool:
        i, j = self._position(x), self._position(y)
        return not self.dual.contact[i] >> j & 1


def check_event_structure(e: EventStructure) -> AxiomReport:
    """Validate irreflexivity, symmetry and conflict inheritance.  Read
    through the duality, Ref, Sym and Ext of the dual imply them, so the
    fused row pass on the dual goes first (core._law_checks) and the
    loops on the event views run only on its failure."""
    return AxiomReport(_law_checks(
        e.dual, 0, _EVENT_LAWS, lambda _: _event_laws(e.events, e.up, e.conflict).checks
    ))


_EVENT_LAWS = ("irreflexive", "symmetric", "inheritance")


def _event_laws(
    names: Sequence[str], up: Sequence[int], conflict: Sequence[int]
) -> AxiomReport:
    witnesses = (
        # irreflexive conflict is Ref* of its complement, the dual's contact
        _ref_witness([~row for row in conflict], names, None),
        _sym_witness(conflict, names),
        _upset_witness(conflict, up, names),
    )
    return AxiomReport(tuple(map(_law, _EVENT_LAWS, witnesses)))


# ---------------------------------------------------------------------------
# the duality


def event_to_contact(e: EventStructure) -> BottomlessContact:
    """Dualize the causal order and complement conflict: the stored dual
    without its reserved bottom.  The dual itself is e.dual."""
    return drop_bottom(e.dual)


def contact_to_event(b: BottomlessContact) -> EventStructure:
    """Inverse reading of the duality; round-trips are identities.  b is
    checked once, by adjoin_bottom: its bottomless contact axioms, which
    read through the duality are the event laws, and its order."""
    return EventStructure(adjoin_bottom(b, RESERVED_BOTTOM))


# ---------------------------------------------------------------------------
# amalgamation on the duals


@dataclass(frozen=True)
class EventAmalgam:
    amalgam: EventStructure
    contact_amalgam: ContactStructure
    superamalgamation_ok: bool


def amalgamate_events(
    a: EventStructure, b: EventStructure, c: EventStructure
) -> EventAmalgam:
    """Strong amalgamation of event structures over a shared part, run on
    the stored duals: restrictions to the sides are literal, the carrier
    union is disjoint over C, and superamalgamation holds in the dual
    order.

    Each value was checked where it was built, so only the instance is
    checked here: the carriers, and A's and B's rows against C's.  Once
    they agree, C's dual is A's restricted to C, and the duals form the
    instance as they stand.  contact_amalgam checks the amalgam and both
    inclusions, and its result is the amalgam's bottomed dual.
    """
    if set(a.events) & set(b.events) != set(c.events):
        raise PreconditionViolation("event carriers must intersect exactly in C")
    _require_common_part(a, c)
    _require_common_part(b, c)
    inst = AmalgamInstance(a.dual, b.dual, c.dual)
    d_contact = contact_amalgam(inst)
    ok = verify_superamalgamation(inst, d_contact).ok
    return EventAmalgam(EventStructure(d_contact), d_contact, ok)


def _require_common_part(host: EventStructure, c: EventStructure) -> None:
    """PreconditionViolation unless host restricts exactly to c, naming
    the first pair of c's events, in carrier order, that disagrees."""
    if _restricts_exactly(host, c):
        return
    reads = (("order", EventStructure.leq), ("conflict", EventStructure.in_conflict))
    for x in c.events:
        for y in c.events:
            for what, read in reads:
                if read(host, x, y) != read(c, x, y):
                    raise PreconditionViolation(f"{what} disagrees with C at ({x!r}, {y!r})")


def _restricts_exactly(host: EventStructure, part: EventStructure) -> bool:
    """Do host's order and conflict restrict exactly to part's?  host
    restricted to the part's events (sub_event) is compared with part;
    leq and in_conflict read the same bits."""
    return sub_event(host, [host.index(x) for x in part.events]) == part


# ---------------------------------------------------------------------------
# enumeration and gluing through the contact catalog


def enumerate_event_structures(max_events: int) -> tuple[EventStructure, ...]:
    """All event structures with at most max_events events, up to
    isomorphism: the contact catalog one size up, each item with its
    bottom (position 0) renamed to the reserved one."""
    catalog = AgeCatalog.build(max_events + 1)
    return tuple(
        EventStructure(item.rename({item.names[0]: RESERVED_BOTTOM}))
        for item in catalog.items
    )


def sub_event(e: EventStructure, chosen: Sequence[int]) -> EventStructure:
    """Induced event substructure on the chosen indices (any subset)."""
    return EventStructure(_restriction(e.dual, [0] + [i + 1 for i in chosen]))


def iter_event_gluings(
    a: EventStructure, b: EventStructure
) -> Iterator[tuple[EventStructure, EventStructure, EventStructure]]:
    """Ways of gluing b onto a along a common part, one per instance
    isomorphism class, as renamed-apart triples (a', b', c).

    A sub-event structure on S is dual to the substructure on S plus the
    reserved bottom, so the gluings are those of the stored duals
    (enumeration.gluings_up_to_iso), renamed apart as the contact ones
    (core._glued_apart); c is built once per chosen part.
    """
    last = None
    for chosen, image in gluings_up_to_iso(a.dual, b.dual):
        if chosen != last:
            last, c = chosen, EventStructure(_restriction(a.dual, chosen))
        a2, b2, _ = _glued_apart(a.dual, b.dual, c.dual, chosen, image)
        yield EventStructure(a2), EventStructure(b2), c
