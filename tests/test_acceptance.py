"""Acceptance criteria, one test per criterion.

Each test prints a single verdict line (run pytest with -s or look at
captured output) and then asserts it.  Tolerances and bounds are pinned
here, not configurable.
"""

import random
import time

from contactposets.amalgam import (
    contact_amalgam,
    semilattice_amalgam,
    verify_superamalgamation,
)
from contactposets.core import (
    POSET,
    SEMILATTICE,
    bits,
    check_contact_axioms,
    overlap_relation,
)
from contactposets.enumeration import (
    AgeCatalog,
    canonical_form,
    enumerate_contact_structures,
    enumerate_posets,
    enumerate_posets_with_bottom,
    is_lattice,
)
from contactposets.events import (
    amalgamate_events,
    check_event_structure,
    contact_to_event,
    enumerate_event_structures,
    event_to_contact,
    iter_event_gluings,
)
from contactposets.fraisse import (
    build_limit_stage,
    check_extension_property,
    iter_gluings,
    random_instance,
)
from contactposets.gallery import (
    check_complement_uniqueness,
    check_distributive_amalgam_failure,
    check_distributive_overlap_additivity,
    find_additivity_failure,
    m3,
)
from contactposets.represent import (
    complete_lattice_embedding,
    is_boolean_family,
    join_preserving_embedding,
    overlap_poset_embedding,
    overlap_semilattice_embedding,
    powerset_embedding,
)
from join_scans import subset_join


def _verdict(number: int, title: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {tag}: {title}{suffix}")
    assert ok, f"criterion {number} failed: {title}{suffix}"


def _nonbelow(s, a):
    return s.full_mask & ~s.up[a]


def test_criterion_1_enumeration_baseline():
    enumerate_posets.cache_clear()
    enumerate_contact_structures.cache_clear()
    canonical_form.cache_clear()
    start = time.time()
    counts = [len(enumerate_posets_with_bottom(n)) for n in range(1, 6)]
    per_size = {
        2: len(enumerate_contact_structures(2, POSET)),
        3: len(enumerate_contact_structures(3, POSET)),
    }
    AgeCatalog.build(4, POSET)
    AgeCatalog.build(4, SEMILATTICE)
    elapsed = time.time() - start
    from contactposets.core import ContactStructure
    from contactposets.enumeration import all_contact_tables

    fork = ContactStructure.build(
        ["0", "a", "b"], "0", [], [("a", "a"), ("b", "b")]
    )
    chain = ContactStructure.build(
        ["0", "c", "1"], "0", [("0", "c"), ("c", "1")],
        [("c", "c"), ("c", "1"), ("1", "1")],
    )
    two = ContactStructure.build(["0", "1"], "0", [("0", "1")], [("1", "1")])
    ok = (
        counts == [1, 1, 2, 5, 16]
        and len(all_contact_tables(two)) == 1
        and len(all_contact_tables(fork)) == 2
        and len(all_contact_tables(chain)) == 1
        and per_size == {2: 1, 3: 3}
        and elapsed < 10.0
    )
    _verdict(
        1,
        "poset counts 1,1,2,5,16; contact relation counts 1/2/1; catalogs in time",
        ok,
        f"{elapsed:.2f}s",
    )


def test_criterion_2_overlap_embeddings(poset_catalog_4, semilattice_catalog_4):
    failures = 0
    for item in poset_catalog_4.items:
        family, total = overlap_poset_embedding(item)
        r = total.report
        if not (r.is_embedding and r.order_reflecting):
            failures += 1
        if tuple(overlap_relation(family.structure)) != family.structure.contact:
            failures += 1
    for item in semilattice_catalog_4.items:
        family, total = overlap_semilattice_embedding(item)
        r = total.report
        if not (r.is_embedding and r.order_reflecting and r.join_preserving):
            failures += 1
        if tuple(overlap_relation(family.structure)) != family.structure.contact:
            failures += 1
    _verdict(
        2,
        "overlap-family embeddings verified for every catalog structure up to 4",
        failures == 0,
        f"{len(poset_catalog_4.items)} posets, {len(semilattice_catalog_4.items)} semilattices",
    )


def test_criterion_3_join_preservation(poset_catalog_4):
    failures = 0
    checked = 0
    for item in poset_catalog_4.items:
        family, total = join_preserving_embedding(item)
        phi = [_nonbelow(item, a) for a in range(item.n)]
        for subset in range(1 << item.n):
            join = subset_join(item, subset)
            if join is None:
                continue
            checked += 1
            union = 0
            for a in bits(subset):
                union |= phi[a]
            if union != phi[join]:
                failures += 1
    _verdict(
        3,
        "existing joins map to unions of images, exhaustively over subsets",
        failures == 0,
        f"{checked} joins checked",
    )


def test_criterion_4_powerset_targets(poset_catalog_4):
    failures = 0
    for item in poset_catalog_4.items:
        family, total = powerset_embedding(item)
        r = total.report
        if not (r.is_embedding and r.order_reflecting):
            failures += 1
        if not is_boolean_family(family):
            failures += 1
        members = set(family.sets)
        full = (1 << len(family.universe)) - 1
        closed = all(
            (x | y) in members and (x & y) in members and (x & (full ^ y)) in members
            for x in members
            for y in members
        )
        if not closed:
            failures += 1
    _verdict(
        4,
        "powerset embeddings verified; targets closed with singleton atoms",
        failures == 0,
        f"{len(poset_catalog_4.items)} posets",
    )


def test_criterion_5_complete_lattice_targets(semilattice_catalog_4):
    failures = 0
    for item in semilattice_catalog_4.items:
        family, total = complete_lattice_embedding(item)
        r = total.report
        if not (r.is_embedding and r.order_reflecting and r.join_preserving):
            failures += 1
        if not is_lattice(family.structure):
            failures += 1
        if tuple(overlap_relation(family.structure)) != family.structure.contact:
            failures += 1
    _verdict(
        5,
        "completion pipeline gives bounded lattices with overlap contact",
        failures == 0,
        f"{len(semilattice_catalog_4.items)} semilattices",
    )


def _check_instance(inst) -> bool:
    d = contact_amalgam(inst)
    if not check_contact_axioms(d).ok:
        return False
    if d.n != inst.a.n + inst.b.n - inst.c.n:
        return False
    for side in (inst.a, inst.b):
        for x in side.names:
            for y in side.names:
                if d.leq(x, y) != side.leq(x, y):
                    return False
                if d.delta(x, y) != side.delta(x, y):
                    return False
    return verify_superamalgamation(inst, d).ok


def test_criterion_6_superamalgamation_suite(
    poset_catalog_4, poset_catalog_6, semilattice_catalog_4
):
    start = time.time()
    failures = 0
    exhaustive = 0
    for a in poset_catalog_4.items:
        for b in poset_catalog_4.items:
            for inst in iter_gluings(a, b):
                exhaustive += 1
                if not _check_instance(inst):
                    failures += 1
    semilattice_runs = 0
    for a in semilattice_catalog_4.items:
        for b in semilattice_catalog_4.items:
            for inst in iter_gluings(a, b):
                semilattice_runs += 1
                if not _check_instance(inst):
                    failures += 1
                result = semilattice_amalgam(inst)
                if not (
                    result.superamalgamation.ok
                    and result.from_a.report.is_embedding
                    and result.from_b.report.is_embedding
                ):
                    failures += 1
    rng = random.Random(2024)
    randomized = 0
    while randomized < 1000:
        inst = random_instance(poset_catalog_6, rng)
        if inst is None:
            continue
        randomized += 1
        if not _check_instance(inst):
            failures += 1
    elapsed = time.time() - start
    _verdict(
        6,
        "contact amalgamation exhaustive to 4 plus 1000 random instances to 6",
        failures == 0 and elapsed < 60.0,
        f"{exhaustive} poset, {semilattice_runs} semilattice, "
        f"{randomized} random, {elapsed:.1f}s",
    )


def test_criterion_7_extension_property():
    results = []
    for kind in (POSET, SEMILATTICE):
        catalog = AgeCatalog.build(3, kind)
        stage = build_limit_stage(kind, 2, 50, catalog=catalog, max_elements=64)
        report = check_extension_property(stage, 2, catalog)
        results.append(
            (kind, stage.structure.n, stage.budget_exceeded, report.fraction)
        )
    ok = all(fraction == 1.0 for _, _, _, fraction in results)
    _verdict(
        7,
        "limit stages at cap 2 reach extension fraction 1.0 for both kinds",
        ok,
        "; ".join(
            f"{kind}: size {size}, budget_exceeded {exceeded}, fraction {fraction:.4f}"
            for kind, size, exceeded, fraction in results
        ),
    )


def test_criterion_8_event_amalgamation():
    failures = 0
    instances = 0
    events = enumerate_event_structures(4)
    for e in events:
        if contact_to_event(event_to_contact(e)) != e:
            failures += 1
    for a in events:
        for b in events:
            for a2, b2, c in iter_event_gluings(a, b):
                instances += 1
                result = amalgamate_events(a2, b2, c)
                d = result.amalgam
                if not check_event_structure(d).ok:
                    failures += 1
                    continue
                if d.n != a2.n + b2.n - c.n:
                    failures += 1
                    continue
                for side in (a2, b2):
                    for x in side.events:
                        for y in side.events:
                            if d.leq(x, y) != side.leq(x, y) or d.in_conflict(
                                x, y
                            ) != side.in_conflict(x, y):
                                failures += 1
    _verdict(
        8,
        "event amalgamation valid, restriction-exact and strong; duality round-trips",
        failures == 0,
        f"{len(events)} structures, {instances} instances up to instance isomorphism",
    )


def test_criterion_9_gallery():
    w1 = find_additivity_failure(m3("overlap"))
    w2 = find_additivity_failure(m3("with_ab"))
    additive = check_distributive_overlap_additivity(5)
    uniq = check_complement_uniqueness(6)
    failure = check_distributive_amalgam_failure(8)
    ok = (
        w1 is not None
        and w2 is not None
        and additive.ok
        and uniq.ok
        and failure.ok
    )
    _verdict(
        9,
        "additivity failures, bounded lemmas, and the amalgamation failure",
        ok,
        f"witnesses {w1} / {w2}; {failure.lattices_scanned} lattices, "
        f"{failure.candidate_pairs} candidates all identified, "
        f"{failure.amalgams_found} amalgams",
    )
