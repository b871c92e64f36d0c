"""The event bridge checks each value once.

``amalgamate_events`` checks its inputs at its boundary (carriers, the
common part, the bottomed duals of A and B), builds the instance
directly with C's dual read off A's, leaves the amalgam to
``contact_amalgam`` and translates it back unchecked.  The bridge as it
was, with ``from_parts``, C's checked dual, the checked way back and the
post-amalgam restriction tests, is kept below as the reference; whole
``EventAmalgam`` values and, on invalid input, exception types and
messages are compared with it.
"""

import random
from dataclasses import replace

import pytest

from contactposets import amalgam, core, events
from contactposets.amalgam import AmalgamInstance, contact_amalgam, verify_superamalgamation
from contactposets.core import drop_bottom, transpose
from contactposets.errors import AxiomViolation, PreconditionViolation
from contactposets.events import (
    RESERVED_BOTTOM,
    EventAmalgam,
    EventStructure,
    amalgamate_events,
    check_event_structure,
    contact_to_event,
    enumerate_event_structures,
    event_to_contact,
    iter_event_gluings,
)


def reference_contact_to_event(b):
    """contact_to_event as it was: input and output both checked."""
    report = core.check_bottomless_axioms(b)
    if not report.ok:
        raise AxiomViolation("input fails the bottomless contact axioms", report)
    full = (1 << b.n) - 1
    out = EventStructure(
        b.names, transpose(b.up), tuple(full & ~row for row in b.contact)
    )
    inner = check_event_structure(out)
    if not inner.ok:
        raise AxiomViolation("dual event structure failed", inner)
    return out


def reference_amalgamate_events(a, b, c):
    """amalgamate_events as it was: from_parts, C's checked dual, the
    checked way back and both restrictions re-read."""
    if set(a.events) & set(b.events) != set(c.events):
        raise PreconditionViolation("event carriers must intersect exactly in C")
    events._require_common_part(a, c)
    events._require_common_part(b, c)
    ca = event_to_contact(a, with_bottom=True)
    cb = event_to_contact(b, with_bottom=True)
    cc = event_to_contact(c, with_bottom=True)
    inst = AmalgamInstance.from_parts(ca, cb, cc)
    d_contact = contact_amalgam(inst)
    report = verify_superamalgamation(inst, d_contact)
    d = reference_contact_to_event(drop_bottom(d_contact))
    for side in (a, b):
        if not events._restricts_exactly(d, side):
            raise AxiomViolation("amalgam does not restrict to a side")
    if d.n != a.n + b.n - c.n:
        raise AxiomViolation("amalgam identified events")
    return EventAmalgam(d, d_contact, report.ok)


def _outcome(call, *args):
    """A call's result, or the type and message of whatever it raised."""
    try:
        return ("ok", call(*args))
    except Exception as exc:
        return ("raised", type(exc), str(exc))


def _same(a, b, c):
    expected = _outcome(reference_amalgamate_events, a, b, c)
    assert _outcome(amalgamate_events, a, b, c) == expected, (a, b, c)
    return expected


@pytest.fixture(scope="module")
def gluings_3():
    structures = enumerate_event_structures(3)
    return [g for a in structures for b in structures for g in iter_event_gluings(a, b)]


def test_every_gluing_up_to_3_events_matches_reference(gluings_3):
    for triple in gluings_3:
        assert _same(*triple)[0] == "ok"
    assert len(gluings_3) > 1000


def test_seeded_gluings_up_to_4_events_match_reference():
    rng = random.Random(5101)
    structures = enumerate_event_structures(4)
    for _ in range(2000):
        gluings = list(iter_event_gluings(rng.choice(structures), rng.choice(structures)))
        assert _same(*rng.choice(gluings))[0] == "ok"


def _flip(rows, i, j):
    rows = list(rows)
    rows[i] ^= 1 << j
    return tuple(rows)


def _renamed(e, old, new):
    return replace(e, events=tuple(new if x == old else x for x in e.events))


def test_rejected_inputs_match_reference(gluings_3):
    """Carrier mismatches, sides or C disagreeing on order or conflict,
    raw sides with asymmetric conflict or an order that is not
    reflexive, antisymmetric or transitive, and the reserved name: the
    same exception, with the same message."""
    rng = random.Random(5102)
    seen = {}
    for a, b, c in gluings_3[::3]:
        outcomes = []
        # one order or conflict bit flipped in A, B or C
        for which in range(3):
            parts = [a, b, c]
            host = parts[which]
            if not host.n:
                continue
            field = rng.choice(("up", "conflict"))
            i, j = rng.randrange(host.n), rng.randrange(host.n)
            parts[which] = replace(host, **{field: _flip(getattr(host, field), i, j)})
            outcomes.append(_same(*parts))
        # carriers that do not meet exactly in C
        only_b = [x for x in b.events if x not in c.events]
        only_a = [x for x in a.events if x not in c.events]
        if only_a and only_b:
            outcomes.append(_same(a, _renamed(b, only_b[0], only_a[0]), c))
        if c.n:
            outcomes.append(_same(a, b, replace(c, events=("zz",) + c.events[1:])))
        # the reserved name on one side, or on all three
        if only_a:
            outcomes.append(_same(_renamed(a, only_a[0], RESERVED_BOTTOM), b, c))
        if c.n:
            shared = c.events[0]
            outcomes.append(
                _same(*(_renamed(x, shared, RESERVED_BOTTOM) for x in (a, b, c)))
            )
        for outcome in outcomes:
            key = outcome[2].split(" at ")[0] if outcome[0] == "raised" else "ok"
            seen[key] = seen.get(key, 0) + 1
    for message in (
        "event carriers must intersect exactly in C",
        "order disagrees with C",
        "conflict disagrees with C",
        "dual of a valid event structure failed",
        "order not reflexive",
        "order not transitive",
        "antisymmetry violated",
        f"bottom name {RESERVED_BOTTOM!r} collides with an element",
    ):
        assert seen.get(message, 0) > 5, (message, seen)


def test_raw_sides_fail_at_the_boundary():
    """Raw sides whose rows still agree with C: the failure lies outside
    C's carrier, so the checks of the bottomed dual report it.  A side
    whose order misses a reflexive bit is named there too: the bottomed
    dual keeps its rows as given."""
    a = EventStructure.build(["x", "p", "q"], [("x", "p")], [])
    b = EventStructure.build(["x", "r"], [], [])
    c = EventStructure.build(["x"], [], [])
    raw = {
        "dual of a valid event structure failed": replace(a, conflict=(0, 0b100, 0)),
        "order not transitive": replace(a, up=(0b011, 0b110, 0b100)),
        "order not reflexive": replace(a, up=(0b011, 0b000, 0b100)),
    }
    for message, side in raw.items():
        for args in ((side, b, c), (b, side, c)):
            outcome = _same(*args)
            assert outcome[:2] == ("raised", AxiomViolation)
            assert outcome[2].startswith(message)


def _counting(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


@pytest.fixture
def check_counts(monkeypatch):
    calls = {}
    for module in (core, events):
        _counting(monkeypatch, module, "check_bottomless_axioms", calls)
    _counting(monkeypatch, events, "check_event_structure", calls)
    real = AmalgamInstance.from_parts.__func__

    def from_parts(cls, *args):
        calls["from_parts"] = calls.get("from_parts", 0) + 1
        return real(cls, *args)

    monkeypatch.setattr(amalgam.AmalgamInstance, "from_parts", classmethod(from_parts))
    return calls


def test_each_value_is_checked_once(check_counts, gluings_3):
    """One amalgamate_events call checks the duals of A and B and
    nothing else on the event side; contact_to_event checks its input."""
    for triple in gluings_3[::7]:
        check_counts.clear()
        amalgamate_events(*triple)
        assert check_counts == {"check_bottomless_axioms": 2}
    for e in enumerate_event_structures(3):
        dual = event_to_contact(e)
        check_counts.clear()
        assert contact_to_event(dual) == e
        assert check_counts == {"check_bottomless_axioms": 1}
