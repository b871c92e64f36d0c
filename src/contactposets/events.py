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
    AxiomCheck,
    AxiomReport,
    BottomlessContact,
    ContactStructure,
    _adjoin_checked_bottom,
    _check_order_tables,
    _fresh_names,
    _restriction,
    bits,
    check_bottomless_axioms,
    drop_bottom,
    normalize_order,
    restrict,
    transpose,
)
from .enumeration import AgeCatalog, gluings_up_to_iso
from .errors import AxiomViolation, PreconditionViolation, UnknownElement

RESERVED_BOTTOM = "__bot__"


@dataclass(frozen=True)
class EventStructure:
    """Events, a causal order (up[i] = successors), binary conflict."""

    events: tuple[str, ...]
    up: tuple[int, ...]
    conflict: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.events)

    def index(self, name: str) -> int:
        try:
            return self.events.index(name)
        except ValueError:
            raise UnknownElement(f"unknown event {name!r}") from None

    def leq(self, x: str, y: str) -> bool:
        return bool(self.up[self.index(x)] >> self.index(y) & 1)

    def in_conflict(self, x: str, y: str) -> bool:
        return bool(self.conflict[self.index(x)] >> self.index(y) & 1)

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
        rows = [0] * len(events)
        for x, y in conflict:
            if x not in idx or y not in idx:
                missing = x if x not in idx else y
                raise UnknownElement(f"unknown event {missing!r} in conflict pair")
            rows[idx[x]] |= 1 << idx[y]
            rows[idx[y]] |= 1 << idx[x]
        out = cls(tuple(events), up, tuple(rows))
        report = check_event_structure(out)
        if not report.ok:
            bad = ", ".join(f"{c.axiom}{c.witness or ''}" for c in report.failures())
            raise AxiomViolation(f"event structure invalid: {bad}", report)
        return out


def check_event_structure(e: EventStructure) -> AxiomReport:
    """Validate irreflexivity, symmetry and conflict inheritance."""
    n, names = e.n, e.events
    checks = []
    irr = None
    for i in range(n):
        if e.conflict[i] >> i & 1:
            irr = (names[i],)
            break
    checks.append(AxiomCheck("irreflexive", irr is None, irr))
    sym = None
    for i in range(n):
        for j in bits(e.conflict[i]):
            if not e.conflict[j] >> i & 1:
                sym = (names[i], names[j])
                break
        if sym:
            break
    checks.append(AxiomCheck("symmetric", sym is None, sym))
    inh = None
    for i in range(n):
        for j in bits(e.conflict[i]):
            if e.up[j] & ~e.conflict[i]:
                k = next(bits(e.up[j] & ~e.conflict[i]))
                inh = (names[i], names[j], names[k])
                break
        if inh:
            break
    checks.append(AxiomCheck("inheritance", inh is None, inh))
    return AxiomReport(tuple(checks))


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
    dual = BottomlessContact(e.events, *_flip(e.up, e.conflict))
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
    return EventStructure(b.names, *_flip(b.up, b.contact))


def _flip(up: Sequence[int], rows: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The duality on rows, unchecked: the order transposed, the other
    relation (conflict or contact) complemented.  It is its own inverse."""
    full = (1 << len(up)) - 1
    return transpose(up), tuple(full & ~row for row in rows)


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
    d = drop_bottom(d_contact)
    amalgam = EventStructure(d.names, *_flip(d.up, d.contact))
    return EventAmalgam(amalgam, d_contact, report.ok)


def _require_common_part(host: EventStructure, c: EventStructure) -> None:
    if _restricts_exactly(host, c):
        return
    what, x, y = _first_disagreement(host, c)
    raise PreconditionViolation(f"{what} disagrees with C at ({x!r}, {y!r})")


def _restricts_exactly(host: EventStructure, part: EventStructure) -> bool:
    """Do host's order and conflict restrict exactly to part's?

    host's rows at the part's events, pulled back through their
    positions (core.restrict), are compared with part's rows.  leq and
    in_conflict read the same bits, so unequal rows mean some pair
    disagrees; _first_disagreement names it.
    """
    f = [host.index(x) for x in part.events]
    return restrict(f, host.up, host.conflict) == [part.up, part.conflict]


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
    up, conflict = restrict(chosen, e.up, e.conflict)
    return EventStructure(tuple(e.events[i] for i in chosen), up, conflict)


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
