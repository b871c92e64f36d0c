"""Differential tests of the positional renaming of gluings.

``core._glued_apart`` renames each side of a gluing by position: C's
names at C's positions, a tagged name everywhere else, one duplicate-name
check.  The name-based renaming it replaced (a name map per side, read
back through the images, then ``rename``) is kept below as the
reference, and the two must build the same sides or raise the same
error.  ``AmalgamInstance`` carries C's positions on both sides,
resolved from the names when it is made; they must be the positions
the gluing chose, and they are no constructor arguments.
"""

import random
from dataclasses import replace

import pytest

from contactposets.amalgam import AmalgamInstance, contact_amalgam
from contactposets.core import (
    POSET,
    SEMILATTICE,
    ContactStructure,
    _glued_apart,
    _restriction,
)
from contactposets.enumeration import (
    AgeCatalog,
    _gluings,
    canonical_key,
    gluings_up_to_iso,
)
from contactposets.errors import PreconditionViolation, UnknownElement
from contactposets.events import (
    EventStructure,
    enumerate_event_structures,
    iter_event_gluings,
)
from contactposets.fraisse import iter_gluings, random_instance


def reference_glued_apart(a, b, c, chosen, image):
    """The name-based renaming: each side's images of C read back to C's
    names through a name map, every other name tagged."""
    sides = []
    for host, positions, tag in ((a, chosen, "a"), (b, image, "b")):
        emb = {name: host.names[j] for name, j in zip(c.names, positions)}
        back = {target: name for name, target in emb.items()}
        sides.append(host.rename({name: back.get(name, f"{tag}:{name}") for name in host.names}))
    return sides[0], sides[1], c


def _outcome(call, *args):
    try:
        return ("ok", call(*args))
    except Exception as exc:
        return ("raised", type(exc), str(exc))


def _labelled_gluings(kind, bound):
    items = AgeCatalog.build(bound, kind).items
    for a in items:
        for b in items:
            for chosen, image in _gluings(a, b, [tuple(range(a.n))], [tuple(range(b.n))]):
                yield a, b, chosen, image


@pytest.mark.parametrize("kind", [POSET, SEMILATTICE])
def test_every_labelled_gluing_to_four_matches_reference(kind):
    count = 0
    for a, b, chosen, image in _labelled_gluings(kind, 4):
        c = _restriction(a, chosen)
        glued = _glued_apart(a, b, c, chosen, image)
        assert glued == reference_glued_apart(a, b, c, chosen, image)
        inst = AmalgamInstance(*glued)
        assert inst.in_a == tuple(chosen) and inst.in_b == tuple(image)
        count += 1
    assert count > 200


def test_library_gluings_carry_the_chosen_positions():
    """iter_gluings and random_instance glue at positions of their
    choosing; the instance's positions hold C's names on both sides."""
    items = AgeCatalog.build(3, SEMILATTICE).items
    rng = random.Random(3001)
    catalog = AgeCatalog.build(5, POSET)
    instances = [inst for a in items for b in items for inst in iter_gluings(a, b)]
    instances += [random_instance(catalog, rng) for _ in range(100)]
    for inst in instances:
        assert tuple(inst.a.names[p] for p in inst.in_a) == inst.c.names
        assert tuple(inst.b.names[q] for q in inst.in_b) == inst.c.names
    assert len(instances) > 100


def test_event_gluings_of_criterion_8_pairs_to_three_match_reference():
    events = enumerate_event_structures(3)
    count = 0
    for a in events:
        for b in events:
            expected = []
            for chosen, image in gluings_up_to_iso(a.dual, b.dual):
                c = _restriction(a.dual, chosen)
                assert _glued_apart(a.dual, b.dual, c, chosen, image) == (
                    reference_glued_apart(a.dual, b.dual, c, chosen, image)
                )
                a2, b2, _ = reference_glued_apart(a.dual, b.dual, c, chosen, image)
                expected.append((EventStructure(a2), EventStructure(b2), EventStructure(c)))
            assert list(iter_event_gluings(a, b)) == expected
            count += len(expected)
    assert count > 1000


def test_tag_collisions_raise_on_both_renamings():
    """A side holding x off C and a:x on it (or y and b:y): both
    renamings give two elements one name and raise UnknownElement."""
    names = ["0", "x", "a:x", "y", "b:y"]
    rng = random.Random(3003)
    items = AgeCatalog.build(4, POSET).items
    collisions = 0
    for _ in range(1500):
        a, b = rng.choice(items), rng.choice(items)
        a = a.rename(dict(zip(a.names, ["0"] + rng.sample(names[1:], a.n - 1))))
        b = b.rename(dict(zip(b.names, ["0"] + rng.sample(names[1:], b.n - 1))))
        for chosen, image in _gluings(a, b, [tuple(range(a.n))], [tuple(range(b.n))]):
            c = _restriction(a, chosen)
            expected = _outcome(reference_glued_apart, a, b, c, chosen, image)
            assert _outcome(_glued_apart, a, b, c, chosen, image) == expected
            if expected[0] == "raised":
                assert expected[1:] == (UnknownElement, "renaming collapses element names")
                collisions += 1
    assert collisions > 50


def test_positions_are_no_arguments_and_follow_the_names():
    """No caller hands positions in; a replaced side gets its own
    positions, and a side without one of C's names is refused."""
    a, b, chosen, image = next(
        g for g in _labelled_gluings(POSET, 4)
        if len(g[2]) == 3 and g[0].n == 4 and g[2] != g[3]
    )
    glued = _glued_apart(a, b, _restriction(a, chosen), chosen, image)
    inst = AmalgamInstance(*glued)
    contact_amalgam(inst)
    with pytest.raises(TypeError):
        AmalgamInstance(*glued, chosen, image)
    moved = glued[0].relabel(list(reversed(range(a.n))))
    again = replace(inst, a=moved)
    assert again.in_a == tuple(moved.index(name) for name in inst.c.names)
    assert again.in_a != inst.in_a
    assert canonical_key(contact_amalgam(again)) == canonical_key(contact_amalgam(inst))
    off = glued[1].rename({glued[1].names[image[1]]: "b:off"})
    with pytest.raises(UnknownElement):
        AmalgamInstance(glued[0], off, glued[2])


def test_positions_stay_out_of_equality_hash_and_repr():
    c = ContactStructure(("0",), 0, (1,), (0,), POSET)
    a = ContactStructure(("x", "0"), 1, (0b01, 0b11), (0b01, 0), POSET)
    inst = AmalgamInstance(a, a, c)
    assert inst.in_a == inst.in_b == (1,)
    other = replace(inst)
    assert other == inst and hash(other) == hash(inst)
    assert repr(inst) == "AmalgamInstance(a=%r, b=%r, c=%r)" % (a, a, c)
