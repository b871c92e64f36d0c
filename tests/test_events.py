import random
from itertools import permutations

import pytest

from contactposets.core import (
    BottomlessContact,
    adjoin_bottom,
    check_bottomless_axioms,
    check_contact_axioms,
)
from contactposets.enumeration import automorphisms
from contactposets.errors import AxiomViolation, PreconditionViolation, UnknownElement
from contactposets.events import (
    RESERVED_BOTTOM,
    EventStructure,
    amalgamate_events,
    check_event_structure,
    contact_to_event,
    enumerate_event_structures,
    event_to_contact,
    iter_event_gluings,
    sub_event,
)
from event_oracle import canonical_key, event_classes


class TestValidation:
    def test_valid_three_event_example(self):
        e = EventStructure.build(["e1", "e2", "e3"], [("e1", "e2")], [("e2", "e3")])
        assert check_event_structure(e).ok

    def test_diagonal_conflict_rejected(self):
        with pytest.raises(AxiomViolation):
            EventStructure.build(["e"], [], [("e", "e")])

    def test_inheritance_witnessed(self):
        with pytest.raises(AxiomViolation) as err:
            EventStructure.build(["e1", "e2", "e3"], [("e2", "e3")], [("e1", "e2")])
        assert err.value.report.check("inheritance").witness == ("e1", "e2", "e3")

    def test_reserved_name_rejected(self):
        with pytest.raises(UnknownElement):
            EventStructure.build([RESERVED_BOTTOM], [], [])

    def test_empty_carrier_reads_its_pairs(self):
        assert EventStructure.build([]) == EventStructure.from_rows((), (), ())
        with pytest.raises(UnknownElement, match="unknown event 'x' in conflict pair"):
            EventStructure.build([], [], [("x", "y")])
        with pytest.raises(UnknownElement, match="unknown element 'x' in order pair"):
            EventStructure.build([], [("x", "y")])


class TestDuality:
    def test_conflict_free_chain(self):
        e = EventStructure.build(["e1", "e2"], [("e1", "e2")])
        dual = event_to_contact(e)
        assert dual.contact == (0b11, 0b11)
        assert dual.up == (0b01, 0b11)  # dual order flips causality

    def test_single_event(self):
        e = EventStructure.build(["e"])
        dual = event_to_contact(e)
        assert dual.contact == (1,)

    def test_three_event_contact(self):
        e = EventStructure.build(["e1", "e2", "e3"], [("e1", "e2")], [("e2", "e3")])
        dual = event_to_contact(e)
        assert not dual.contact[1] >> 2 & 1
        assert not dual.contact[2] >> 1 & 1
        assert dual.contact[0] == 0b111

    def test_with_bottom(self):
        e = EventStructure.build(["e1", "e2"], [("e1", "e2")])
        s = e.dual
        assert s.names[0] == RESERVED_BOTTOM
        assert s.contact[0] == 0

    def test_round_trip_enumerated(self):
        for e in enumerate_event_structures(4):
            assert contact_to_event(event_to_contact(e)) == e

    def test_round_trip_random_relabelings(self):
        # shuffle the carrier order of enumerated structures and round-trip
        rng = random.Random(5)
        pool = enumerate_event_structures(3)
        for _ in range(20):
            e = rng.choice(pool)
            if e.n == 0:
                continue
            perm = list(range(e.n))
            rng.shuffle(perm)
            pairs = [
                (e.events[i], e.events[j])
                for i in range(e.n)
                for j in range(e.n)
                if e.up[i] >> j & 1 and i != j
            ]
            conflicts = [
                (e.events[i], e.events[j])
                for i in range(e.n)
                for j in range(e.n)
                if e.conflict[i] >> j & 1 and i < j
            ]
            rebuilt = EventStructure.build(
                [e.events[p] for p in perm], pairs, conflicts
            )
            assert contact_to_event(event_to_contact(rebuilt)) == rebuilt

    def test_missing_reflexive_contact_rejected(self):
        b = BottomlessContact(("e",), (1,), (0,))
        with pytest.raises(AxiomViolation):
            contact_to_event(b)

    def test_total_contact_on_antichain(self):
        b = BottomlessContact(("e", "f"), (0b01, 0b10), (0b11, 0b11))
        e = contact_to_event(b)
        assert e.conflict == (0, 0)

    def test_inheritance_equals_dual_extension_exhaustively(self):
        # every symmetric irreflexive table on every causal order with up
        # to 4 points: the event law holds iff the dual satisfies the
        # contact laws
        from itertools import combinations

        from contactposets.enumeration import enumerate_posets

        for n in (2, 3, 4):
            names = tuple(f"v{i}" for i in range(n))
            pairs = list(combinations(range(n), 2))
            full = (1 << n) - 1
            for up in enumerate_posets(n):
                for chosen in range(1 << len(pairs)):
                    rows = [0] * n
                    for bit, (i, j) in enumerate(pairs):
                        if chosen >> bit & 1:
                            rows[i] |= 1 << j
                            rows[j] |= 1 << i
                    try:
                        EventStructure.from_rows(names, up, tuple(rows))
                        event_ok = True
                    except AxiomViolation:
                        event_ok = False
                    down = [0] * n
                    for i in range(n):
                        for j in range(n):
                            if up[i] >> j & 1:
                                down[j] |= 1 << i
                    dual = BottomlessContact(
                        names, tuple(down), tuple(full & ~r for r in rows)
                    )
                    assert event_ok == check_bottomless_axioms(dual).ok


class TestAmalgamation:
    def test_worked_example(self):
        c = EventStructure.build(["c"])
        a = EventStructure.build(["c", "a"], [("c", "a")])
        b = EventStructure.build(["c", "b"], [], [("b", "c")])
        result = amalgamate_events(a, b, c)
        d = result.amalgam
        assert d.in_conflict("b", "c")
        assert d.in_conflict("b", "a")  # forced by inheritance through c <= a
        assert result.superamalgamation_ok
        assert d.n == 3

    def test_degenerate(self):
        c = EventStructure.build(["c", "d"], [("c", "d")])
        assert amalgamate_events(c, c, c).amalgam == c

    def test_conflict_free_stays_conflict_free(self):
        c = EventStructure.build(["c"])
        a = EventStructure.build(["c", "a"], [("c", "a")])
        b = EventStructure.build(["c", "b"], [("b", "c")])
        d = amalgamate_events(a, b, c).amalgam
        assert all(row == 0 for row in d.conflict)

    def test_carrier_mismatch_rejected(self):
        c = EventStructure.build(["c"])
        a = EventStructure.build(["c", "x"])
        b = EventStructure.build(["c", "x"])
        with pytest.raises(PreconditionViolation):
            amalgamate_events(a, b, c)

    def test_disagreement_rejected(self):
        c = EventStructure.build(["c", "d"])
        a = EventStructure.build(["c", "d"], [("c", "d")])
        b = EventStructure.build(["c", "d", "e"])
        with pytest.raises(PreconditionViolation):
            amalgamate_events(a, b, c)

    def test_exhaustive_small(self):
        for a in enumerate_event_structures(2):
            for b in enumerate_event_structures(2):
                for a2, b2, c in iter_event_gluings(a, b):
                    result = amalgamate_events(a2, b2, c)
                    d = result.amalgam
                    assert check_event_structure(d).ok
                    assert d.n == a2.n + b2.n - c.n
                    assert result.superamalgamation_ok
                    for side in (a2, b2):
                        for x in side.events:
                            for y in side.events:
                                assert d.leq(x, y) == side.leq(x, y)
                                assert d.in_conflict(x, y) == side.in_conflict(x, y)


class TestGluingHelpers:
    def test_automorphisms_of_antichain(self):
        e = EventStructure.build(["x", "y", "z"])
        assert len(automorphisms(e.dual)) == 6

    def test_sub_event(self):
        e = EventStructure.build(["e1", "e2", "e3"], [("e1", "e2")], [("e2", "e3")])
        piece = sub_event(e, [0, 2])
        assert piece.events == ("e1", "e3")
        assert piece.conflict == (0, 0)

    def test_gluing_dedup_counts(self):
        # three concurrent events against themselves: subsets dedupe to
        # one representative per size, isomorphisms to one per size too
        e = EventStructure.build(["x", "y", "z"])
        gluings = list(iter_event_gluings(e, e))
        assert len(gluings) == 4  # shared part of size 0, 1, 2, 3


def _brute_automorphisms(e):
    return [
        p for p in permutations(range(e.n))
        if all(
            (e.up[i] >> j & 1) == (e.up[p[i]] >> p[j] & 1)
            and (e.conflict[i] >> j & 1) == (e.conflict[p[i]] >> p[j] & 1)
            for i in range(e.n)
            for j in range(e.n)
        )
    ]


def _brute_gluings(a, b):
    """Every partial isomorphism from an induced piece of a onto an
    induced piece of b, as a set of (a index, b index) pairs."""
    out = []
    for mask in range(1 << a.n):
        chosen = [i for i in range(a.n) if mask >> i & 1]
        for image in permutations(range(b.n), len(chosen)):
            if all(
                (a.up[i] >> j & 1) == (b.up[image[x]] >> image[y] & 1)
                and (a.conflict[i] >> j & 1)
                == (b.conflict[image[x]] >> image[y] & 1)
                for x, i in enumerate(chosen)
                for y, j in enumerate(chosen)
            ):
                out.append(frozenset(zip(chosen, image)))
    return out


@pytest.mark.parametrize("max_events,classes", [(2, 53), (3, 1385)])
def test_gluing_dedup_is_one_per_instance_class(max_events, classes):
    # two gluings are the same instance when automorphisms of a and b
    # carry one onto the other; the orbits are found by brute force
    total = 0
    for a in enumerate_event_structures(max_events):
        for b in enumerate_event_structures(max_events):
            auts_a, auts_b = _brute_automorphisms(a), _brute_automorphisms(b)

            def orbit_key(pairs):
                return min(
                    tuple(sorted((alpha[i], beta[j]) for i, j in pairs))
                    for alpha in auts_a
                    for beta in auts_b
                )

            expected = {orbit_key(g) for g in _brute_gluings(a, b)}
            got = []
            for a2, b2, c in iter_event_gluings(a, b):
                assert (a2.up, a2.conflict) == (a.up, a.conflict)
                assert (b2.up, b2.conflict) == (b.up, b.conflict)
                assert set(a2.events) & set(b2.events) == set(c.events)
                got.append(orbit_key([
                    (a2.events.index(name), b2.events.index(name))
                    for name in c.events
                ]))
            assert len(got) == len(set(got))
            assert set(got) == expected
            total += len(expected)
    assert total == classes


def reference_dual(e):
    """The bottomless dual of e, built row by row."""
    down = [0] * e.n
    for i in range(e.n):
        for j in range(e.n):
            if e.up[i] >> j & 1:
                down[j] |= 1 << i
    full = (1 << e.n) - 1
    return BottomlessContact(
        e.events, tuple(down), tuple(full & ~row for row in e.conflict)
    )


def test_bottomed_dual_is_checked_once(monkeypatch):
    """The dual is checked once, where the value is built from rows;
    reading it then checks nothing and gives what adjoining the reserved
    bottom to the checked bottomless dual gives."""
    from contactposets import core

    calls = []
    real = core._check_order_tables

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(core, "_check_order_tables", counting)
    for e in enumerate_event_structures(3):
        calls.clear()
        rebuilt = EventStructure.from_rows(e.events, e.up, e.conflict)
        assert len(calls) == 1
        bottomed = rebuilt.dual
        assert len(calls) == 1
        assert rebuilt == e
        assert bottomed == adjoin_bottom(reference_dual(e), RESERVED_BOTTOM)


@pytest.mark.parametrize("with_bottom", [False, True])
def test_invalid_dual_keeps_its_message(with_bottom):
    # asymmetric conflict would give a dual whose contact is not symmetric;
    # the rows are rejected where the value is built, naming the failed law
    events, up = ("e1", "e2"), (0b01, 0b10)
    with pytest.raises(AxiomViolation) as err:
        EventStructure.from_rows(events, up, (0b10, 0b00))
    assert str(err.value) == "event structure invalid: symmetric('e1', 'e2')"
    assert not err.value.report.check("symmetric").passed
    # the same conflict made symmetric gives a dual with symmetric contact
    e = EventStructure.from_rows(events, up, (0b10, 0b01))
    dual = e.dual if with_bottom else event_to_contact(e)
    report = check_contact_axioms(dual) if with_bottom else check_bottomless_axioms(dual)
    assert report.ok and report.check("Sym").passed


def test_bottomed_dual_still_rejects_the_reserved_name():
    with pytest.raises(UnknownElement, match="bottom name '__bot__' collides"):
        EventStructure.from_rows((RESERVED_BOTTOM,), (0b1,), (0b0,))


def test_event_age_matches_a_brute_force_count():
    """The enumerator renames the contact catalog, so its count holds by
    construction; the oracle builds the age from the event laws alone."""
    classes = [event_classes(k) for k in range(5)]
    assert [len(c) for c in classes] == [1, 1, 3, 11, 63]
    keys = [canonical_key(e.up, e.conflict) for e in enumerate_event_structures(4)]
    assert len(keys) == len(set(keys))
    assert set(keys) == set().union(*classes)
