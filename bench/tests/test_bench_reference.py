"""The pinned counts and the reference laws the verdicts are checked by."""

import pytest

import reference as ref
from oracle import contact_classes, event_classes


@pytest.mark.parametrize("kind", ["poset", "semilattice"])
def test_pinned_contact_counts_match_brute_force(kind):
    pinned = ref.CONTACT_CLASSES[kind]
    assert {n: contact_classes(n, kind) for n in pinned} == pinned


def test_pinned_event_counts_match_brute_force():
    assert {k: event_classes(k) for k in ref.EVENT_CLASSES} == ref.EVENT_CLASSES


def chain(names, contact=()):
    leq = ref.close_order(names, list(zip(names, names[1:])))
    return ref.Rel(tuple(names), names[0], leq, ref.symmetric(contact), "poset")


def test_contact_laws():
    good = chain("0ab", [("a", "a"), ("a", "b"), ("b", "b")])
    assert ref.contact_ok(good)
    no_ext = chain("0ab", [("a", "a"), ("b", "b")])  # a C a but not a C b
    assert not ref.contact_ok(no_ext)
    touches_bottom = chain("0ab", [("a", "a"), ("a", "b"), ("b", "b"), ("0", "b")])
    assert not ref.contact_ok(touches_bottom)


def test_event_laws():
    names = ("x", "y", "z")
    leq = ref.close_order(names, [("x", "y")])
    inherited = ref.Rel(names, None, leq, ref.symmetric([("z", "x"), ("z", "y")]), "event")
    assert ref.event_ok(inherited)
    broken = ref.Rel(names, None, leq, ref.symmetric([("z", "x")]), "event")
    assert not ref.event_ok(broken)


def test_embedding_flags():
    small = chain("0a", [("a", "a")])
    big = chain("0ab", [("a", "a"), ("a", "b"), ("b", "b")])
    assert ref.is_embedding(small, big, {"0": "0", "a": "b"})
    assert not ref.is_embedding(small, big, {"0": "a", "a": "b"})
    assert not ref.is_embedding(big, big, {"0": "0", "a": "a", "b": "a"})


def test_amalgam_checks():
    c = chain("0c", [("c", "c")])
    a = chain("0ca", [("c", "c"), ("c", "a"), ("a", "a")])
    b = chain("0cb", [("c", "c"), ("c", "b"), ("b", "b")])
    names = ("0", "c", "a", "b")
    leq = ref.close_order(names, [("0", "c"), ("c", "a"), ("c", "b")])
    contact = ref.symmetric([(x, y) for x in "cab" for y in "cab"])
    d = ref.Rel(names, "0", leq, contact, "poset")
    assert ref.contact_ok(d) and ref.strong(d, a, b, c)
    assert ref.restricts_exactly(d, a) and ref.restricts_exactly(d, b)
    assert ref.cross_witnessed(d, a, b, c)
    # a <= b without passing through C: no witness
    skew = ref.Rel(names, "0", ref.close_order(names, [("0", "c"), ("c", "a"), ("a", "b")]),
                   contact, "poset")
    assert not ref.cross_witnessed(skew, a, b, c)
    assert not ref.restricts_exactly(d, chain("0cb", [("c", "c"), ("b", "b")]))


def test_canonical_separates_and_identifies():
    v1 = ref.Rel(("0", "a", "b"), "0", ref.close_order("0ab", [("0", "a"), ("0", "b")]),
                 ref.symmetric([("a", "a"), ("b", "b")]), "poset")
    v2 = ref.rename(v1, {"0": "z", "a": "q", "b": "p"})
    v3 = ref.Rel(v1.names, "0", v1.leq, v1.rel | ref.symmetric([("a", "b")]), "poset")
    assert ref.canonical(v1) == ref.canonical(v2)
    assert ref.canonical(v1) != ref.canonical(v3)
    assert ref.carrier_key(v1) == ref.carrier_key(v3)
