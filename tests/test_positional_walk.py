"""Differential tests of the limit-stage walk on table positions.

``fraisse._sweep`` yields each copy as the positions the embedding
table lists and each extension as its pattern (``fraisse._pattern``):
the points below, touching and above the fresh point as masks over the
copied item, and its joins with them.  ``fraisse._realized`` decides a
pair from one candidate mask, one up-row test and the join rows.  The
name-level check it replaced, ``embeds_extension``, and the miss-cause
helper ``_below_fresh`` are kept in ``extension_walk`` as the reference;
the walk must agree with them on every pair of the stages below, and on
a seeded sample of the 1,016-point cap-3 poset stage.
"""

import random

import pytest

from contactposets.core import POSET, SEMILATTICE, _verify_positions, bits
from contactposets.enumeration import AgeCatalog
from contactposets.errors import UnknownElement
from contactposets.fraisse import (
    _amalgamate_extension,
    _extensions,
    _pattern,
    _realized,
    _sweep,
    build_limit_stage,
)
from extension_walk import _below_fresh, embeds_extension
from join_scans import join_index


def _named(sub, copy, s, p):
    """The pair as embeds_extension reads it after the stage: (f, t,
    into), with f and into name maps."""
    f = {name: s.names[q] for name, q in zip(sub.names, copy)}
    into = {name: p.t.names[i] for name, i in zip(sub.names, p.into)}
    return f, p.t, into


STAGES = [
    # kind, catalog bound, cap, sweeps, max_elements, points, pairs, realized
    pytest.param(POSET, 3, 2, 50, 64, 64, 253, 208, id="cap-2-poset-64"),
    pytest.param(POSET, 3, 2, 64, 128, 128, 509, 425, id="cap-2-poset-128"),
    pytest.param(SEMILATTICE, 3, 2, 64, 64, 64, 127, 125, id="cap-2-semilattice-64"),
    pytest.param(POSET, 4, 3, 3, 10**6, 42, 16760, 8747, id="cap-3-poset-42"),
    pytest.param(SEMILATTICE, 4, 3, 64, 150, 150, 6559, 4259, id="cap-3-semilattice-150"),
]


@pytest.mark.parametrize(
    "kind,bound,cap,sweeps,max_elements,points,pairs,realized", STAGES
)
def test_walk_matches_the_name_level_check_on_every_pair(
    kind, bound, cap, sweeps, max_elements, points, pairs, realized
):
    catalog = AgeCatalog.build(bound, kind)
    s = build_limit_stage(kind, cap, sweeps, catalog, max_elements).structure
    assert s.n == points
    outcomes = []
    for sub, copy, p in _sweep(s, cap, catalog):
        got = _realized(s, copy, p)
        assert got == embeds_extension(s, *_named(sub, copy, s, p)), (sub, copy, p)
        outcomes.append(got)
    assert (len(outcomes), sum(outcomes)) == (pairs, realized)


def test_walk_matches_the_name_level_check_on_a_sample_of_the_cap_3_stage():
    """The stage at the end of the fourth cap-3 poset sweep has 1,016
    points and 11,446,246 pairs, too many for the reference.  Copies
    are drawn at random (the bottom on the bottom, other points
    distinct) and kept when they are embeddings; each is tried with
    every extension of its item."""
    catalog = AgeCatalog.build(4, POSET)
    s = build_limit_stage(POSET, 3, 4, catalog, 10**6).structure
    assert s.n == 1016
    items = [sub for sub in catalog.items if 2 <= sub.n <= 3]
    patterns = {sub: [_pattern(t, into) for t, into in _extensions(sub, catalog)] for sub in items}
    others = [q for q in range(s.n) if q != s.bottom]
    rng = random.Random(3110)
    copies = 0
    outcomes = []
    while copies < 300:
        sub = rng.choice(items)
        picked = iter(rng.sample(others, sub.n - 1))
        copy = tuple(s.bottom if k == sub.bottom else next(picked) for k in range(sub.n))
        report = _verify_positions(sub, s, copy).report
        if not (report.is_embedding and report.order_reflecting):
            continue
        copies += 1
        for p in patterns[sub]:
            got = _realized(s, copy, p)
            assert got == embeds_extension(s, *_named(sub, copy, s, p)), (sub, copy, p)
            outcomes.append(got)
    assert outcomes.count(True) > 100 and outcomes.count(False) > 100


@pytest.mark.parametrize("kind,bound,extensions", [(POSET, 4, 37), (SEMILATTICE, 5, 41)])
def test_patterns_match_the_name_level_reads(kind, bound, extensions):
    """Every extension of every catalog item: the below mask names the
    points _below_fresh names, touch and above read t's contact and
    order at the fresh point by name, and the joins are those of the
    fresh point with an anchored point that land on a third one, found
    by the least-upper-bound scan (join_scans)."""
    catalog = AgeCatalog.build(bound, kind)
    count = with_joins = 0
    for sub in catalog.items:
        for t, into in _extensions(sub, catalog):
            p = _pattern(t, into)
            named = dict(zip(sub.names, (t.names[i] for i in into)))
            (fresh,) = set(t.names) - set(named.values())
            assert {sub.names[k] for k in bits(p.below)} == set(_below_fresh(t, named))
            for k, name in enumerate(sub.names):
                assert p.touch >> k & 1 == t.delta(named[name], fresh)
                assert p.above >> k & 1 == t.leq(fresh, named[name])
            joins = []
            if kind == SEMILATTICE:
                x = t.index(fresh)
                for k, name in enumerate(sub.names):
                    j = t.names[join_index(t, t.index(named[name]), x)]
                    if j not in (named[name], fresh):
                        joins.append((k, list(named.values()).index(j)))
            assert p.joins == tuple(joins)
            count += 1
            with_joins += bool(joins)
    assert count == extensions
    assert (with_joins > 0) == (kind == SEMILATTICE)


def test_a_fresh_name_on_the_copy_is_refused():
    """The extension's points are renamed by position; a fresh name
    that one of the copy's points already holds would give two points
    one name, and the renaming refuses it."""
    catalog = AgeCatalog.build(3, POSET)
    s = build_limit_stage(POSET, 2, 2, catalog, 10).structure
    sub, copy, p = next((sub, copy, p) for sub, copy, p in _sweep(s, 2, catalog)
                        if sub.n == 2 and not _realized(s, copy, p))
    with pytest.raises(UnknownElement, match="renaming collapses element names"):
        _amalgamate_extension(s, copy, p.t, p.into, s.names[copy[1]])
    grown = _amalgamate_extension(s, copy, p.t, p.into, "fresh")
    assert grown.names == s.names + ("fresh",)
