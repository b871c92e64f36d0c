"""Event structures with binary conflict and their contact duals.

An event structure here is a finite causal order with a symmetric,
irreflexive conflict relation inherited upward along causality.  Taking
the dual order and complementing conflict turns one into a bottomless
contact structure, and back; amalgamation rides that bridge through the
contact machinery after a reserved bottom is adjoined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .core import (
    AxiomReport,
    BottomlessContact,
    ContactStructure,
    _adjoin_checked_bottom,
    _Carrier,
    _check_order_tables,
    _fresh_names,
    _law,
    _ref_witness,
    _require_laws,
    _restriction,
    _sym_witness,
    _symmetric_rows,
    _upset_witness,
    check_bottomless_axioms,
    drop_bottom,
    normalize_order,
    transpose,
)
from .enumeration import AgeCatalog, gluings_up_to_iso
from .errors import AxiomViolation, PreconditionViolation, UnknownElement

RESERVED_BOTTOM = "__bot__"


@dataclass(frozen=True)
class EventStructure(_Carrier):
    """Events, a causal order (up[i] = successors), binary conflict."""

    events: tuple[str, ...]
    up: tuple[int, ...]
    conflict: tuple[int, ...]

    _noun = "event"

    @property
    def names(self) -> tuple[str, ...]:
        """The events, as the carrier's element names."""
        return self.events

    @property
    def _relation(self) -> tuple[int, ...]:
        return self.conflict

    in_conflict = _Carrier._related

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
        out = cls(tuple(events), up, rows)
        _require_laws(check_event_structure(out), "event structure invalid")
        return out


def check_event_structure(e: EventStructure) -> AxiomReport:
    """Validate irreflexivity, symmetry and conflict inheritance."""
    names = e.events
    checks = (
        # irreflexive conflict is Ref* of its complement, the dual's contact
        _law("irreflexive", _ref_witness([~row for row in e.conflict], names, None)),
        _law("symmetric", _sym_witness(e.conflict, names)),
        _law("inheritance", _upset_witness(e.conflict, e.up, names)),
    )
    return AxiomReport(checks)


# ---------------------------------------------------------------------------
# the duality


def event_to_contact(
    e: EventStructure, with_bottom: bool = False
) -> BottomlessContact | ContactStructure:
    """Dualize the causal order and complement conflict.

    The result is checked once, here: the bottomless contact axioms,
    then the order.  with_bottom adjoins the reserved bottom and returns
    a full contact structure, whose order _adjoin_checked_bottom checks;
    otherwise e's order rows are checked (the dual of a partial order is
    one).
    """
    dual = BottomlessContact(*_flip(e))
    report = check_bottomless_axioms(dual)
    if not report.ok:
        raise AxiomViolation("dual of a valid event structure failed", report)
    if with_bottom:
        return _adjoin_checked_bottom(dual, RESERVED_BOTTOM)
    _check_order_tables(e.up)
    return dual


def contact_to_event(b: BottomlessContact) -> EventStructure:
    """Inverse reading of the duality; round-trips are identities.  The
    input is checked, not the output: Ref*, Sym and Ext of a valid input
    are exactly irreflexive, symmetric and inherited conflict, and the
    transpose of its partial order is one."""
    report = check_bottomless_axioms(b)
    if not report.ok:
        raise AxiomViolation("input fails the bottomless contact axioms", report)
    _check_order_tables(b.up)
    return EventStructure(*_flip(b))


def _flip(x: _Carrier) -> tuple[tuple, tuple, tuple]:
    """The duality, unchecked and its own inverse: the names kept, the
    order transposed, the relation (conflict or contact) complemented."""
    full = (1 << x.n) - 1
    return x.names, transpose(x.up), tuple(full & ~row for row in x._relation)


# ---------------------------------------------------------------------------
# amalgamation through the bridge


@dataclass(frozen=True)
class EventAmalgam:
    amalgam: EventStructure
    contact_amalgam: ContactStructure
    superamalgamation_ok: bool


def amalgamate_events(
    a: EventStructure, b: EventStructure, c: EventStructure
) -> EventAmalgam:
    """Strong amalgamation of event structures over a shared part, run on
    the duals with one reserved bottom adjoined: restrictions to the
    sides are literal, the carrier union is disjoint over C, and
    superamalgamation holds in the dual order.

    Each value is checked once.  Here: the carriers, A's and B's rows
    against C's, and A's and B's bottomed duals.  C's dual is A's
    restricted to C, so from_parts's tests are these read through the
    duality.  contact_amalgam checks the amalgam and both inclusions;
    the way back (_flip) is unchecked.
    """
    from .amalgam import AmalgamInstance, contact_amalgam, verify_superamalgamation

    if set(a.events) & set(b.events) != set(c.events):
        raise PreconditionViolation("event carriers must intersect exactly in C")
    _require_common_part(a, c)
    _require_common_part(b, c)
    ca = event_to_contact(a, with_bottom=True)
    cb = event_to_contact(b, with_bottom=True)
    cc = _restriction(ca, [0] + [a.index(x) + 1 for x in c.events])
    inst = AmalgamInstance(ca, cb, cc)
    d_contact = contact_amalgam(inst)
    report = verify_superamalgamation(inst, d_contact)
    amalgam = EventStructure(*_flip(drop_bottom(d_contact)))
    return EventAmalgam(amalgam, d_contact, report.ok)


def _require_common_part(host: EventStructure, c: EventStructure) -> None:
    if _restricts_exactly(host, c):
        return
    what, x, y = _first_disagreement(host, c)
    raise PreconditionViolation(f"{what} disagrees with C at ({x!r}, {y!r})")


def _restricts_exactly(host: EventStructure, part: EventStructure) -> bool:
    """Do host's order and conflict restrict exactly to part's?

    host restricted to the part's events (sub_event) is compared with
    part.  leq and in_conflict read the same bits, so a difference means
    some pair disagrees; _first_disagreement names it.
    """
    return sub_event(host, [host.index(x) for x in part.events]) == part


def _first_disagreement(
    host: EventStructure, part: EventStructure
) -> tuple[str, str, str]:
    """First pair of part's events, in carrier order, on which host and
    part disagree: ("order" | "conflict", x, y).  Called only once the
    row compare has found that some pair does."""
    for x in part.events:
        for y in part.events:
            if host.leq(x, y) != part.leq(x, y):
                return ("order", x, y)
            if host.in_conflict(x, y) != part.in_conflict(x, y):
                return ("conflict", x, y)
    raise AssertionError("rows differ but every pair agrees")


# ---------------------------------------------------------------------------
# enumeration through the contact catalog


def enumerate_event_structures(max_events: int) -> tuple[EventStructure, ...]:
    """All event structures with at most max_events events, up to
    isomorphism: exactly the duals of the contact catalog one size up."""
    catalog = AgeCatalog.build(max_events + 1)
    return tuple(contact_to_event(drop_bottom(item)) for item in catalog.items)


def sub_event(e: EventStructure, chosen: Sequence[int]) -> EventStructure:
    """Induced event substructure on the chosen indices (any subset)."""
    return EventStructure(*e._restricted(chosen))


def iter_event_gluings(
    a: EventStructure, b: EventStructure
) -> Iterator[tuple[EventStructure, EventStructure, EventStructure]]:
    """Ways of gluing b onto a along a common part, one per instance
    isomorphism class, as renamed-apart triples (a', b', c).

    A sub-event structure on S is dual to the substructure on S plus the
    reserved bottom, so the gluings are those of the bottomed duals
    (enumeration.gluings_up_to_iso) with the bottom, position 0 on both
    sides, dropped.
    """
    ca = event_to_contact(a, with_bottom=True)
    cb = event_to_contact(b, with_bottom=True)
    for chosen, image in gluings_up_to_iso(ca, cb):
        c = sub_event(a, [i - 1 for i in chosen[1:]])
        yield _rename_gluing(a, b, c, [j - 1 for j in image[1:]])


def _rename_gluing(
    a: EventStructure,
    b: EventStructure,
    c: EventStructure,
    mapping: Sequence[int],
) -> tuple[EventStructure, EventStructure, EventStructure]:
    """Rename apart so the carriers intersect exactly in c's events;
    mapping[k] is b's position of c's k-th event."""
    into_a = {name: name for name in c.events}
    into_b = {name: b.events[j] for name, j in zip(c.events, mapping)}
    renamed_a = _fresh_names(a.events, into_a, "a").values()
    renamed_b = _fresh_names(b.events, into_b, "b").values()
    return (
        EventStructure(tuple(renamed_a), a.up, a.conflict),
        EventStructure(tuple(renamed_b), b.up, b.conflict),
        c,
    )
