"""The event bridge checks each value once, where it is built.

An ``EventStructure`` is stored as its checked bottomed dual, so
``amalgamate_events`` checks only the instance (the carriers, and the
sides' rows against C's) and hands the stored duals to
``contact_amalgam``, whose result is the amalgam's dual.  The bridge as
it was is kept below as the reference, on event rows: the row flip, the
checked duals of A, B and C, ``from_parts``, and the checked way back
with both restrictions re-read.  Whole ``EventAmalgam`` values are
compared with it.  A raw side it rejected is now rejected where it is
built, by the row constructor, with the same exception type.
"""

import random
from dataclasses import replace

import pytest

from contactposets import amalgam, core, events
from contactposets.amalgam import AmalgamInstance, contact_amalgam, verify_superamalgamation
from contactposets.core import BottomlessContact, adjoin_bottom, bits, drop_bottom, transpose
from contactposets.errors import AxiomViolation, PreconditionViolation
from contactposets.events import (
    RESERVED_BOTTOM,
    EventAmalgam,
    EventStructure,
    amalgamate_events,
    contact_to_event,
    enumerate_event_structures,
    event_to_contact,
    iter_event_gluings,
)

LAWS_FAILED = "dual of a valid event structure failed"


def _rows(e):
    return e.events, e.up, e.conflict


def _flipped(names, up, rows):
    """The duality on rows: the order transposed, the relation complemented."""
    full = (1 << len(names)) - 1
    return tuple(names), transpose(up), tuple(full & ~row for row in rows)


def reference_bottomed_dual(side):
    """The stored bottomed dual as the bridge once built it, on raw rows."""
    dual = BottomlessContact(*_flipped(*side))
    report = core.check_bottomless_axioms(dual)
    if not report.ok:
        raise AxiomViolation(LAWS_FAILED, report)
    return adjoin_bottom(dual, RESERVED_BOTTOM)


def _event_laws_hold(up, conflict):
    """Irreflexive, symmetric and inherited conflict, pair by pair."""
    return all(
        not conflict[i] >> i & 1
        and all(conflict[j] >> i & 1 and not up[j] & ~conflict[i] for j in bits(conflict[i]))
        for i in range(len(up))
    )


def reference_contact_to_event(b):
    """contact_to_event as it was, giving rows: input and output checked."""
    report = core.check_bottomless_axioms(b)
    if not report.ok:
        raise AxiomViolation("input fails the bottomless contact axioms", report)
    out = _flipped(b.names, b.up, b.contact)
    if not _event_laws_hold(out[1], out[2]):
        raise AxiomViolation("dual event structure failed")
    return out


def reference_first_disagreement(host, part):
    """The first pair of part's events on which host's rows differ."""
    at = {name: k for k, name in enumerate(host[0])}
    f = [at[name] for name in part[0]]
    for i, x in enumerate(part[0]):
        for j, y in enumerate(part[0]):
            for what, host_rows, part_rows in zip(("order", "conflict"), host[1:], part[1:]):
                if host_rows[f[i]] >> f[j] & 1 != part_rows[i] >> j & 1:
                    return what, x, y
    return None


def reference_amalgamate_events(a, b, c):
    """amalgamate_events as it was, on rows: the carriers, each side
    against C, from_parts on three checked duals, the checked way back
    and both restrictions re-read."""
    if set(a[0]) & set(b[0]) != set(c[0]):
        raise PreconditionViolation("event carriers must intersect exactly in C")
    for host in (a, b):
        disagreement = reference_first_disagreement(host, c)
        if disagreement is not None:
            what, x, y = disagreement
            raise PreconditionViolation(f"{what} disagrees with C at ({x!r}, {y!r})")
    inst = AmalgamInstance.from_parts(*(reference_bottomed_dual(x) for x in (a, b, c)))
    d_contact = contact_amalgam(inst)
    report = verify_superamalgamation(inst, d_contact)
    d = reference_contact_to_event(drop_bottom(d_contact))
    for side in (a, b):
        if reference_first_disagreement(d, side) is not None:
            raise AxiomViolation("amalgam does not restrict to a side")
    if len(d[0]) != len(a[0]) + len(b[0]) - len(c[0]):
        raise AxiomViolation("amalgam identified events")
    return EventAmalgam(EventStructure.from_rows(*d), d_contact, report.ok)


def _outcome(call, *args):
    """A call's result, or the type and message of whatever it raised."""
    try:
        return ("ok", call(*args))
    except Exception as exc:
        return ("raised", type(exc), str(exc))


def _same(a, b, c):
    expected = _outcome(reference_amalgamate_events, _rows(a), _rows(b), _rows(c))
    assert _outcome(amalgamate_events, a, b, c) == expected, (a, b, c)
    return expected


def _same_rows(a, b, c):
    """Sides given as rows, each built through the row constructor.  A
    side it rejects is one the reference rejected as a raw side: the same
    exception type, and the same message but for the law check's wording,
    which is now the one EventStructure.build gives.  A side it builds has
    the reference's checked dual, and valid sides are compared whole."""
    values = []
    for side in (a, b, c):
        built = _outcome(EventStructure.from_rows, *side)
        expected = _outcome(reference_bottomed_dual, side)
        if built[0] == "raised":
            assert built[1] is expected[1], (side, built, expected)
            if expected[2] == LAWS_FAILED:
                assert built[2].startswith("event structure invalid: ")
            else:
                assert built[2] == expected[2]
            return built
        assert expected == ("ok", built[1].dual)
        values.append(built[1])
    return _same(*values)


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


def _renamed(side, old, new):
    names, up, conflict = side
    return tuple(new if x == old else x for x in names), up, conflict


def test_rejected_inputs_match_reference(gluings_3):
    """Carrier mismatches, sides or C disagreeing on order or conflict,
    raw sides with asymmetric conflict or an order that is not
    reflexive, antisymmetric or transitive, and the reserved name."""
    rng = random.Random(5102)
    seen = {}
    for triple in gluings_3[::3]:
        a, b, c = (_rows(x) for x in triple)
        outcomes = []
        # one order or conflict bit flipped in A, B or C; conflict also
        # both ways, which keeps it symmetric
        for which in range(3):
            parts = [a, b, c]
            names, up, conflict = parts[which]
            if not names:
                continue
            i, j = rng.randrange(len(names)), rng.randrange(len(names))
            if rng.random() < 0.5:
                parts[which] = (names, _flip(up, i, j), conflict)
                outcomes.append(_same_rows(*parts))
            else:
                parts[which] = (names, up, _flip(conflict, i, j))
                outcomes.append(_same_rows(*parts))
                if i != j:
                    parts[which] = (names, up, _flip(_flip(conflict, i, j), j, i))
                    outcomes.append(_same_rows(*parts))
        # carriers that do not meet exactly in C
        only_b = [x for x in b[0] if x not in c[0]]
        only_a = [x for x in a[0] if x not in c[0]]
        if only_a and only_b:
            outcomes.append(_same_rows(a, _renamed(b, only_b[0], only_a[0]), c))
        if c[0]:
            outcomes.append(_same_rows(a, b, _renamed(c, c[0][0], "zz")))
        # the reserved name on one side, or on all three
        if only_a:
            outcomes.append(_same_rows(_renamed(a, only_a[0], RESERVED_BOTTOM), b, c))
        if c[0]:
            shared = c[0][0]
            outcomes.append(
                _same_rows(*(_renamed(x, shared, RESERVED_BOTTOM) for x in (a, b, c)))
            )
        for outcome in outcomes:
            key = outcome[2].split(" at ")[0].split(":")[0] if outcome[0] == "raised" else "ok"
            seen[key] = seen.get(key, 0) + 1
    for message in (
        "event carriers must intersect exactly in C",
        "order disagrees with C",
        "conflict disagrees with C",
        "event structure invalid",
        "order not reflexive",
        "order not transitive",
        "antisymmetry violated",
        f"bottom name {RESERVED_BOTTOM!r} collides with an element",
        "ok",
    ):
        assert seen.get(message, 0) > 5, (message, seen)


def test_raw_sides_fail_at_the_boundary():
    """Raw sides whose rows still agree with C fail outside C's carrier,
    which the bridge found when it checked their duals.  They are now
    rejected where they are built, and the reference bridge rejected
    each of them as a side, with the same exception type.  A side whose
    order misses a reflexive bit is named too: the bottomed dual keeps
    its rows as given."""
    names = ("x", "p", "q")
    b = _rows(EventStructure.build(["x", "r"]))
    c = _rows(EventStructure.build(["x"]))
    raw = {
        "event structure invalid: symmetric": (names, (0b011, 0b010, 0b100), (0, 0b100, 0)),
        "order not transitive": (names, (0b011, 0b110, 0b100), (0, 0, 0)),
        "order not reflexive": (names, (0b011, 0b000, 0b100), (0, 0, 0)),
    }
    for message, side in raw.items():
        with pytest.raises(AxiomViolation) as err:
            EventStructure.from_rows(*side)
        assert str(err.value).startswith(message)
        for args in ((side, b, c), (b, side, c)):
            assert _outcome(reference_amalgamate_events, *args)[:2] == ("raised", AxiomViolation)
    # asymmetric conflict: the report names the failed law
    with pytest.raises(AxiomViolation) as err:
        EventStructure.from_rows(("e1", "e2"), (0b01, 0b10), (0b10, 0b00))
    assert not err.value.report.check("symmetric").passed


def _counting(monkeypatch, module, name, calls):
    if not hasattr(module, name):
        return
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
        _counting(monkeypatch, module, "_check_order_tables", calls)
    _counting(monkeypatch, events, "check_event_structure", calls)
    real = AmalgamInstance.from_parts.__func__

    def from_parts(cls, *args):
        calls["from_parts"] = calls.get("from_parts", 0) + 1
        return real(cls, *args)

    monkeypatch.setattr(amalgam.AmalgamInstance, "from_parts", classmethod(from_parts))
    return calls


def test_each_value_is_checked_once(check_counts, gluings_3):
    """Values are checked where they are built, so neither an
    amalgamate_events call nor the gluings of a pair run any axiom or
    order check; contact_to_event checks its input once."""
    structures = enumerate_event_structures(3)
    for triple in gluings_3:
        amalgamate_events(*triple)
    for a in structures:
        for b in structures:
            assert list(iter_event_gluings(a, b))
    assert check_counts == {}
    for e in structures:
        dual = event_to_contact(e)
        check_counts.clear()
        assert contact_to_event(dual) == e
        assert check_counts == {"check_bottomless_axioms": 1, "_check_order_tables": 1}


# ---------------------------------------------------------------------------
# check_event_structure: the fused row pass on the dual, then the loops


def _raw_event(rng, n):
    """A bottomed dual with random rows: position 0 is the reserved
    bottom, below everything and touching nothing, or not."""
    full = (1 << (n + 1)) - 1
    up = [full if rng.random() < 0.8 else rng.getrandbits(n + 1)]
    contact = [0 if rng.random() < 0.8 else rng.getrandbits(n + 1)]
    for i in range(1, n + 1):
        up.append(rng.getrandbits(n + 1) | 1 << i)
        contact.append(rng.getrandbits(n + 1))
    names = (RESERVED_BOTTOM,) + tuple(f"e{i}" for i in range(1, n + 1))
    return EventStructure(core.ContactStructure(names, 0, tuple(up), tuple(contact)))


def test_event_check_matches_the_loops():
    """Every event structure with at most 4 events, their one-bit
    mutants and seeded raw duals: the report of check_event_structure
    equals that of the per-law loops on the event views."""
    rng = random.Random(2311)
    valid = enumerate_event_structures(4)
    values = list(valid)
    for e in valid:
        d = e.dual
        for field in ("up", "contact"):
            i, j = rng.randrange(d.n), rng.randrange(d.n)
            values.append(EventStructure(replace(d, **{field: _flip(getattr(d, field), i, j)})))
    values += [_raw_event(rng, rng.randint(0, 4)) for _ in range(3000)]
    verdicts = {True: 0, False: 0}
    for e in values:
        report = events.check_event_structure(e)
        assert report == events._event_laws(e.events, e.up, e.conflict)
        verdicts[report.ok] += 1
    assert verdicts[True] > len(valid) and verdicts[False] > 1000
