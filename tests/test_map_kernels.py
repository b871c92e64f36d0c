"""Differential tests of the bitmask map and extension kernels.

``verify_map`` reads its flags off pulled-back rows, ``join_table``
answers joins by up-row lookup and ``embeds_extension`` checks the
anchored pairs once and only the fresh point per candidate.  Each is
compared here with the pairwise definition it replaced, kept below as
the reference.
"""

import random
from dataclasses import replace

import pytest

from contactposets.core import (
    POSET,
    SEMILATTICE,
    ContactStructure,
    MapReport,
    join_table,
    verify_map,
)
from contactposets.enumeration import (
    AgeCatalog,
    enumerate_distributive_lattices,
    induced_embeddings,
)
from contactposets.errors import UnknownElement
from contactposets.fraisse import build_limit_stage, one_point_extensions
from extension_walk import embeds_extension
from join_scans import join_index, least_of as _least_of


def reference_verify_map(source, target, mapping):
    """The pairwise loop verify_map used to run: every (i, j) one by one,
    names resolved with tuple.index and joins with the _least_of scan."""
    f = tuple(target.index(mapping[name]) for name in source.names)
    n = source.n
    injective = len(set(f)) == n
    bottom = f[source.bottom] == target.bottom
    order_p = order_r = True
    contact_p = contact_r = True
    for i in range(n):
        for j in range(n):
            s_leq = bool(source.up[i] >> j & 1)
            t_leq = bool(target.up[f[i]] >> f[j] & 1)
            if s_leq and not t_leq:
                order_p = False
            if t_leq and not s_leq:
                order_r = False
            s_con = bool(source.contact[i] >> j & 1)
            t_con = bool(target.contact[f[i]] >> f[j] & 1)
            if s_con and not t_con:
                contact_p = False
            if t_con and not s_con:
                contact_r = False
    join_p = None
    if source.kind == SEMILATTICE and target.kind == SEMILATTICE:
        join_p = True
        for i in range(n):
            for j in range(n):
                sj = join_index(source, i, j)
                tj = join_index(target, f[i], f[j])
                if sj is None or tj is None or f[sj] != tj:
                    join_p = False
                    break
            if not join_p:
                break
    report = MapReport(
        injective, bottom, order_p, order_r, contact_p, contact_r, join_p
    )
    return f, report


def reference_embeds_extension(stage, f, t, into):
    """One full reference map check per candidate point."""
    anchored = {into[s_name]: f[s_name] for s_name in into}
    new_point = [name for name in t.names if name not in anchored][0]
    for candidate in stage.names:
        if candidate in anchored.values():
            continue
        attempt = dict(anchored)
        attempt[new_point] = candidate
        _, report = reference_verify_map(t, stage, attempt)
        if report.is_embedding and report.order_reflecting:
            return True
    return False


def _random_mapping(rng, source, target):
    """A seeded map of one of four shapes: any function, an injection, an
    injection fixing the bottom, or an induced embedding when one exists."""
    shape = rng.randrange(4)
    names = list(target.names)
    if shape == 3:
        embeddings = list(induced_embeddings(source, target))
        if embeddings:
            return rng.choice(embeddings)
        shape = 0
    if shape == 0 or source.n > target.n:
        return {name: rng.choice(names) for name in source.names}
    images = rng.sample(names, source.n)
    if shape == 2:
        bottom = target.names[target.bottom]
        if bottom in images:
            images.remove(bottom)
        else:
            images.pop()
        images.insert(source.bottom, bottom)
    return dict(zip(source.names, images))


@pytest.mark.parametrize(
    "source_kind,target_kind",
    [(POSET, POSET), (SEMILATTICE, SEMILATTICE),
     (POSET, SEMILATTICE), (SEMILATTICE, POSET)],
)
def test_verify_map_matches_pairwise_reference(
    source_kind, target_kind, poset_catalog_6, semilattice_catalog_6
):
    catalogs = {POSET: poset_catalog_6, SEMILATTICE: semilattice_catalog_6}
    rng = random.Random(f"verify_map:{source_kind}:{target_kind}")
    flags_seen = set()
    injective_maps = collapsing_maps = 0
    for _ in range(1500):
        source = rng.choice(catalogs[source_kind].items)
        target = rng.choice(catalogs[target_kind].items)
        mapping = _random_mapping(rng, source, target)
        checked = verify_map(source, target, mapping)
        f, report = reference_verify_map(source, target, mapping)
        assert checked.mapping == f
        assert checked.report == report, (source, target, mapping)
        flags_seen.add(report)
        if report.injective:
            injective_maps += 1
        else:
            collapsing_maps += 1
    # the sample reaches both kinds of map and many distinct reports
    assert injective_maps > 100 and collapsing_maps > 100
    assert len(flags_seen) > 10
    assert any(report.is_embedding for report in flags_seen)


def test_verify_map_unknown_image_is_typed(chain3):
    mapping = {name: name for name in chain3.names}
    mapping["c"] = "nowhere"
    with pytest.raises(UnknownElement):
        verify_map(chain3, chain3, mapping)


def _join_table_agrees(s):
    table = join_table(s)
    for i in range(s.n):
        for j in range(s.n):
            mask = s.up[i] & s.up[j]
            assert table.get(mask) == _least_of(s, mask), (s, i, j)


def test_join_table_matches_least_of_on_catalogs(
    poset_catalog_6, semilattice_catalog_6
):
    missing = 0
    for s in poset_catalog_6.items + semilattice_catalog_6.items:
        _join_table_agrees(s)
        missing += sum(
            join_index(s, i, j) is None for i in range(s.n) for j in range(s.n)
        )
    # the poset catalog has pairs without a join, so None is exercised
    assert missing > 0


def test_join_table_matches_least_of_on_distributive_lattices():
    lattices = enumerate_distributive_lattices(8)
    assert lattices
    for s in lattices:
        _join_table_agrees(s)


@pytest.mark.parametrize("kind", [POSET, SEMILATTICE])
@pytest.mark.parametrize("max_elements", [32, 64])
def test_embeds_extension_matches_full_reference(kind, max_elements):
    catalog = AgeCatalog.build(3, kind)
    stage = build_limit_stage(
        kind, 2, 64, catalog=catalog, max_elements=max_elements
    ).structure
    outcomes = []
    for sub in catalog.items:
        if sub.n > 2:
            continue
        extensions = one_point_extensions(sub, catalog)
        for f in induced_embeddings(sub, stage):
            for t, into in extensions:
                got = embeds_extension(stage, f, t, into)
                assert got == reference_embeds_extension(stage, f, t, into), (
                    sub, f, t, into,
                )
                outcomes.append(got)
    assert True in outcomes and False in outcomes


def _random_anchoring(rng, stage, t):
    """A copy of t minus one point x, given as (f, into) over fresh
    sub-names: into sends them onto t's other points, f into the stage.
    f is drawn as the restriction of an embedding of t, of an embedding
    of its poset reduct (order and contact kept, joins free to move), an
    injection or any function, so anchored pairs can disagree too."""
    x = rng.randrange(t.n)
    rest = [name for k, name in enumerate(t.names) if k != x]
    sub_names = [f"s{k}" for k in range(len(rest))]
    into = dict(zip(sub_names, rest))
    shape = rng.randrange(4)
    whole = None
    if shape < 2:
        if shape == 1:
            t, stage = replace(t, kind=POSET), replace(stage, kind=POSET)
        embeddings = list(induced_embeddings(t, stage))
        if embeddings:
            whole = rng.choice(embeddings)
    if whole is not None:
        images = [whole[name] for name in rest]
    elif shape == 2 and len(rest) <= stage.n:
        images = rng.sample(list(stage.names), len(rest))
    else:
        images = [rng.choice(stage.names) for _ in rest]
    return dict(zip(sub_names, images)), into


@pytest.mark.parametrize(
    "stage_kind,t_kind",
    [(POSET, POSET), (SEMILATTICE, SEMILATTICE),
     (POSET, SEMILATTICE), (SEMILATTICE, POSET)],
)
def test_embeds_extension_matches_reference_on_random_anchors(
    stage_kind, t_kind, poset_catalog_6, semilattice_catalog_6
):
    # catalog items stand in for stages and the anchored part is seeded
    # at random, so anchored pairs and joins fail here as well, which
    # they never do on the copies a real stage offers
    catalogs = {POSET: poset_catalog_6, SEMILATTICE: semilattice_catalog_6}
    stages = [s for s in catalogs[stage_kind].items if s.n >= 3]
    targets = [s for s in catalogs[t_kind].items if 2 <= s.n <= 5]
    rng = random.Random(f"embeds_extension:{stage_kind}:{t_kind}")
    outcomes = []
    for _ in range(3000):
        stage = rng.choice(stages)
        t = rng.choice(targets)
        f, into = _random_anchoring(rng, stage, t)
        got = embeds_extension(stage, f, t, into)
        assert got == reference_embeds_extension(stage, f, t, into), (
            stage, t, f, into,
        )
        outcomes.append(got)
    assert outcomes.count(True) > 100 and outcomes.count(False) > 100


@pytest.mark.parametrize("y_touches_m", [False, True])
def test_embeds_extension_defers_a_join_onto_the_fresh_point(y_touches_m):
    # t: i v j = x with x fresh, y touches x, and a top T above x and y.
    # In the stage i' v j' = m < c.  The candidate c has x's order and
    # contact rows, but i' v j' is m, not c; m itself has x's rows only
    # when y' touches m.  So the extension is realized exactly then.
    t = ContactStructure.build(
        ["0", "i", "j", "y", "x", "T"], "0",
        [("i", "x"), ("j", "x"), ("x", "T"), ("y", "T")],
        [("y", "x")], SEMILATTICE, close=True,
    )
    stage = ContactStructure.build(
        ["0'", "i'", "j'", "y'", "m", "c", "T'"], "0'",
        [("i'", "m"), ("j'", "m"), ("m", "c"), ("c", "T'"), ("y'", "T'")],
        [("y'", "m" if y_touches_m else "c")], SEMILATTICE, close=True,
    )
    anchors = ("0", "i", "j", "y", "T")
    into = {f"s{k}": name for k, name in enumerate(anchors)}
    f = {f"s{k}": name + "'" for k, name in enumerate(anchors)}
    expected = reference_embeds_extension(stage, f, t, into)
    assert expected is y_touches_m
    assert embeds_extension(stage, f, t, into) is expected
