"""Differential tests for jobs that had two copies and now have one.

Each replaced body is kept below as the reference, and the library must
give the same values:

- the limit-stage growth and the extension-property report, which now
  walk one sweep (``fraisse._sweep``), and the realization's instance,
  which is now built unchecked (every one must still pass
  ``AmalgamInstance.from_parts``);
- ``core.overlap_relation``, now the minimal-nonzero kernel, against the
  pairwise scan it replaced;
- ``events._rename_gluing``, now the one unchecked renaming-apart of
  every gluing, ``core._glued_apart``, on the stored duals;
- ``enumeration._carrier_positions`` and ``core._require_join_closed``,
  now sharing ``core._join_escape``;
- ``gallery._contact_embedding``, now one row compare;
- the pair walks of ``io``, now one ``_pairs`` helper;
- the per-law loops of ``check_contact_axioms``,
  ``check_bottomless_axioms`` and ``check_event_structure``, which now
  share one Sym loop, one Ref/Ref* loop and one up-set loop (Ext's second
  half, and conflict inheritance);
- ``index`` of the three carrier types, now one lookup in a name map
  each value builds once, against ``tuple.index``.

The order check of event rows, made where an event value is built, is
tested at the end.
"""

import json
import random
from itertools import combinations, product

import pytest

from contactposets import fraisse
from contactposets.amalgam import (
    AmalgamInstance,
    _grow,
    contact_amalgam,
    semilattice_amalgam,
    verify_superamalgamation,
)
from contactposets import core
from contactposets.core import (
    POSET,
    SEMILATTICE,
    AxiomCheck,
    AxiomReport,
    BottomlessContact,
    ContactStructure,
    _require_join_closed,
    bits,
    check_bottomless_axioms,
    check_contact_axioms,
    cover_pairs,
    induced_substructure,
    join_table,
    order_failure,
    overlap_relation,
    verify_map,
)
from contactposets.enumeration import (
    AgeCatalog,
    _carrier_positions,
    all_contact_tables,
    enumerate_distributive_lattices,
    enumerate_posets_with_bottom,
    gluings_up_to_iso,
    induced_embeddings,
)
from contactposets.errors import AxiomViolation, CycleError, NotJoinClosed, UnknownElement
from contactposets.events import (
    RESERVED_BOTTOM,
    EventStructure,
    check_event_structure,
    contact_to_event,
    enumerate_event_structures,
    event_to_contact,
    iter_event_gluings,
    sub_event,
)
from contactposets.fraisse import (
    ABOVE_MAXIMAL,
    UNREALIZED_AT_BUDGET,
    ExtensionMiss,
    ExtensionReport,
    LimitStage,
    Realization,
    _below_fresh,
    build_limit_stage,
    check_extension_property,
    embeds_extension,
    iter_gluings,
    one_point_extensions,
    trivial_stage,
)
from contactposets.gallery import (
    _contact_embedding,
    _lattice_zero_embeddings,
    failure_instance,
)
from contactposets.io import event_to_doc, structure_to_doc, structure_to_dot
from contactposets.represent import complete_lattice_embedding, overlap_poset_embedding


# ---------------------------------------------------------------------------
# limit stages: the two sweeps and the checked instance, as they were


def reference_build_limit_stage(kind, cap, sweeps, catalog, max_elements):
    structure = trivial_stage(kind).structure
    log = []
    fresh_counter = 0
    exceeded = False
    sweep = 0
    while sweep < sweeps and not exceeded:
        sweep += 1
        snapshot = structure
        realized_any = False
        for sub in catalog.items:
            if sub.n > cap:
                continue
            extensions = one_point_extensions(sub, catalog)
            if not extensions:
                continue
            for f in list(induced_embeddings(sub, snapshot)):
                for t, into in extensions:
                    if embeds_extension(structure, f, t, into):
                        continue
                    if structure.n >= max_elements:
                        exceeded = True
                        break
                    fresh_counter += 1
                    fresh = f"p{fresh_counter}"
                    structure, actual_fresh, extra = reference_amalgamate_extension(
                        structure, f, t, into, fresh, kind, max_elements
                    )
                    if extra:
                        exceeded = True
                        break
                    log.append(Realization(sub, tuple(sorted(f.items())), t, actual_fresh))
                    realized_any = True
                if exceeded:
                    break
            if exceeded:
                break
        if not realized_any:
            break
    return LimitStage(structure, sweep, tuple(log), kind, exceeded)


def reference_amalgamate_extension(structure, f, t, into, fresh, kind, max_elements):
    anchored = {into[s_name]: f[s_name] for s_name in into}
    free = [name for name in t.names if name not in anchored]
    rename = dict(anchored)
    rename[free[0]] = fresh
    b_side = t.rename(rename)
    c_sub = induced_substructure(structure, [f[name] for name in f])
    inst = AmalgamInstance.from_parts(structure, b_side, c_sub)
    if kind == POSET:
        grown = contact_amalgam(inst)
        return grown, fresh, grown.n > max_elements
    result = semilattice_amalgam(inst)
    family_structure = result.family.structure
    if family_structure.n > max_elements:
        return structure, fresh, True
    names = family_structure.names
    renames = {}
    used = set()
    for name, position in zip(structure.names, result.from_a.mapping):
        renames[names[position]] = name
        used.add(name)
    fresh_image = names[result.from_b.mapping[b_side.index(fresh)]]
    if fresh_image not in renames:
        renames[fresh_image] = fresh
        used.add(fresh)
    counter = 0
    for name in names:
        if name not in renames:
            counter += 1
            while f"q{counter}" in used:
                counter += 1
            renames[name] = f"q{counter}"
            used.add(f"q{counter}")
    grown = family_structure.rename(renames)
    grown = ContactStructure(grown.names, grown.bottom, grown.up, grown.contact, kind)
    return grown, fresh, False


def reference_check_extension_property(stage, cap, catalog):
    s = stage.structure
    maximal = {s.names[i] for i in range(s.n) if s.up[i] == 1 << i}
    total = realized = 0
    misses = []
    for sub in catalog.items:
        if sub.n > cap:
            continue
        extensions = [
            (t, into, tuple((name, into[name]) for name in sub.names), _below_fresh(t, into))
            for t, into in one_point_extensions(sub, catalog)
        ]
        for f in induced_embeddings(sub, s):
            for t, into, pairs, below in extensions:
                total += 1
                if embeds_extension(s, f, t, into):
                    realized += 1
                    continue
                forced = any(f[name] in maximal for name in below)
                misses.append(
                    ExtensionMiss(
                        sub,
                        tuple(f[name] for name in sub.names),
                        t,
                        pairs,
                        ABOVE_MAXIMAL if forced else UNREALIZED_AT_BUDGET,
                    )
                )
    return ExtensionReport(total, realized, tuple(misses))


# (kind, catalog bound, cap, sweeps, max_elements): criterion 7, the two
# benchmark legs, and the budgets of test_fraisse.py
STAGE_SETTINGS = [
    (POSET, 3, 2, 50, 64),
    (SEMILATTICE, 3, 2, 50, 64),
    (POSET, 3, 2, 64, 128),
    (SEMILATTICE, 3, 2, 64, 64),
    (POSET, 3, 1, 0, 64),
    (POSET, 3, 1, 1, 64),
    (POSET, 3, 1, 10, 64),
    (POSET, 3, 2, 50, 10),
    (POSET, 3, 2, 3, 24),
    (POSET, 3, 2, 1, 30),
    (POSET, 3, 2, 2, 30),
    (POSET, 3, 2, 20, 40),
    (SEMILATTICE, 3, 2, 3, 40),
    (SEMILATTICE, 3, 2, 2, 40),
]


@pytest.fixture
def checked_instances(monkeypatch):
    """Run every instance the stage builder glues through from_parts
    first; count them.  A growth step glues through the kernel _grow."""
    seen = []

    def checking(amalgamate):
        def run(inst, *args, **kwargs):
            AmalgamInstance.from_parts(inst.a, inst.b, inst.c)
            seen.append(inst)
            return amalgamate(inst, *args, **kwargs)
        return run

    monkeypatch.setattr(fraisse, "contact_amalgam", checking(contact_amalgam))
    monkeypatch.setattr(fraisse, "semilattice_amalgam", checking(semilattice_amalgam))
    monkeypatch.setattr(fraisse, "_grow", checking(_grow))
    return seen


@pytest.mark.parametrize("kind,bound,cap,sweeps,max_elements", STAGE_SETTINGS)
def test_stage_and_report_match_the_two_sweeps(
    checked_instances, kind, bound, cap, sweeps, max_elements
):
    catalog = AgeCatalog.build(bound, kind)
    stage = build_limit_stage(kind, cap, sweeps, catalog=catalog, max_elements=max_elements)
    assert len(checked_instances) >= len(stage.log)
    expected = reference_build_limit_stage(kind, cap, sweeps, catalog, max_elements)
    assert stage == expected
    assert check_extension_property(stage, cap, catalog) == (
        reference_check_extension_property(stage, cap, catalog)
    )


# ---------------------------------------------------------------------------
# overlap: the kernel against the pairwise scan


def reference_overlap(s):
    """Row i relates j iff a nonzero element lies below both."""
    down = s.down_masks()
    nonzero = ~(1 << s.bottom)
    rows = []
    for i in range(s.n):
        row = 0
        if i != s.bottom:
            for j in range(s.n):
                if j != s.bottom and down[j] & down[i] & nonzero:
                    row |= 1 << j
        rows.append(row)
    return tuple(rows)


def _assert_overlap_matches(s):
    rows = overlap_relation(s)
    assert rows == reference_overlap(s)
    assert check_contact_axioms(s.with_contact(rows)).ok


def test_overlap_on_every_carrier_to_seven():
    count = 0
    for up in (up for n in range(1, 8) for up in enumerate_posets_with_bottom(n)):
        n = len(up)
        carrier = ContactStructure(tuple(f"e{i}" for i in range(n)), 0, up, (0,) * n)
        _assert_overlap_matches(carrier)
        count += 1
    assert count == 1 + 1 + 2 + 5 + 16 + 63 + 318


def test_overlap_on_distributive_lattices_and_cut_lattices():
    for lattice in enumerate_distributive_lattices(8):
        _assert_overlap_matches(lattice)
    for s in AgeCatalog.build(6, SEMILATTICE).items:
        completion, _ = complete_lattice_embedding(s)
        _assert_overlap_matches(completion.structure)


def test_overlap_on_final_stages():
    for kind in (POSET, SEMILATTICE):
        stage = build_limit_stage(kind, 2, 50, catalog=AgeCatalog.build(3, kind))
        _assert_overlap_matches(stage.structure)


def test_stage_one_contact_is_overlap():
    """The value powerset_embedding no longer re-checks."""
    for s in AgeCatalog.build(6, POSET).items:
        family, _ = overlap_poset_embedding(s)
        q = family.structure
        assert overlap_relation(q) == reference_overlap(q) == q.contact


# ---------------------------------------------------------------------------
# renaming a gluing apart


def reference_rename_gluing(a, b, c, mapping):
    c_names = c.events
    a_rename = {name: (name if name in c_names else f"a:{name}") for name in a.events}
    b_rename = {}
    for k, name in enumerate(c_names):
        b_rename[b.events[mapping[k]]] = name
    for name in b.events:
        if name not in b_rename:
            b_rename[name] = f"b:{name}"
    renamed_a = EventStructure.from_rows([a_rename[name] for name in a.events], a.up, a.conflict)
    renamed_b = EventStructure.from_rows([b_rename[name] for name in b.events], b.up, b.conflict)
    return renamed_a, renamed_b, c


def glued_apart_events(a, b, c, chosen, mapping):
    """The renamed-apart event triple: core._glued_apart on the stored
    duals, c being a's events at the indices chosen and mapping[k] b's
    index of c's k-th event."""
    a2, b2, c2 = core._glued_apart(
        a.dual, b.dual, c.dual, [0] + [i + 1 for i in chosen], [0] + [j + 1 for j in mapping]
    )
    return EventStructure(a2), EventStructure(b2), EventStructure(c2)


def test_rename_gluing_on_every_gluing_to_three():
    events = enumerate_event_structures(3)
    count = 0
    for a in events:
        for b in events:
            for chosen, image in gluings_up_to_iso(a.dual, b.dual):
                chosen = [i - 1 for i in chosen[1:]]
                c = sub_event(a, chosen)
                mapping = [j - 1 for j in image[1:]]
                assert glued_apart_events(a, b, c, chosen, mapping) == (
                    reference_rename_gluing(a, b, c, mapping)
                )
                count += 1
    assert count > 100


def test_rename_gluing_on_seeded_gluings_to_four():
    """Side names drawn from a pool that holds x and y with their tagged
    names a:x and b:y.  Where the reference renaming gives two events one
    name, which EventStructure.from_rows rejects, the builder raises."""
    rng = random.Random(1313)
    events = enumerate_event_structures(4)
    pool = ["e1", "e2", "e3", "e4", "x", "y", "a:x", "b:y"]
    collisions = 0
    for _ in range(2000):
        a, b = rng.choice(events), rng.choice(events)
        a = EventStructure.from_rows(rng.sample(pool, a.n), a.up, a.conflict)
        b = EventStructure.from_rows(rng.sample(pool, b.n), b.up, b.conflict)
        size = rng.randint(0, min(a.n, b.n))
        chosen = sorted(rng.sample(range(a.n), size))
        c = sub_event(a, chosen)
        mapping = rng.sample(range(b.n), size)
        try:
            expected = reference_rename_gluing(a, b, c, mapping)
        except UnknownElement as exc:
            assert str(exc).startswith("duplicate element name")
            with pytest.raises(UnknownElement, match="renaming collapses element names"):
                glued_apart_events(a, b, c, chosen, mapping)
            collisions += 1
            continue
        assert glued_apart_events(a, b, c, chosen, mapping) == expected
    assert collisions > 50


def test_tagged_name_collisions_raise_on_contact_and_event_gluings():
    """A side holding x off the common part and its tagged name on it
    would give two elements one name: contact and event gluings raise
    alike, and so do the caller's maps, and event rows with a repeated
    name are rejected where the value is built."""
    message = "renaming collapses element names"
    for tagged, ours, theirs in [
        (["0", "a:x", "x"], ["0", "a:x"], ["0", "y"]),
        (["0", "b:y"], ["0", "b:y"], ["0", "z", "y"]),
    ]:
        a = ContactStructure.build(tagged, "0", contact=[(x, x) for x in tagged[1:]])
        b = ContactStructure.build(theirs, "0", contact=[(x, x) for x in theirs[1:]])
        with pytest.raises(UnknownElement, match=message):
            list(iter_gluings(a, b))
        c = induced_substructure(a, ours)
        into_b = dict(zip(ours, ["0", theirs[1]]))
        with pytest.raises(UnknownElement, match=message):
            AmalgamInstance.from_embeddings(a, b, c, {x: x for x in ours}, into_b)
        e = EventStructure.build(tagged[1:])
        f = EventStructure.build(theirs[1:])
        with pytest.raises(UnknownElement, match=message):
            list(iter_event_gluings(e, f))
    with pytest.raises(UnknownElement, match="duplicate element name 'x'"):
        EventStructure.from_rows(["x", "x"], (0b01, 0b10), (0, 0))


# ---------------------------------------------------------------------------
# join closure: one scan for the subset walk and the check


def reference_carrier_positions(t, size, kind):
    others = [i for i in range(t.n) if i != t.bottom]
    if kind == SEMILATTICE:
        joins, up = join_table(t), t.up
    for rest in combinations(others, size - 1):
        chosen = (t.bottom,) + rest
        if kind == SEMILATTICE:
            mask = 0
            for i in chosen:
                mask |= 1 << i
            if any(
                (j := joins.get(up[a] & up[b])) is None or not mask >> j & 1
                for a in chosen
                for b in chosen
            ):
                continue
        yield tuple(sorted(chosen))


def reference_require_join_closed(s, chosen):
    mask = 0
    for i in chosen:
        mask |= 1 << i
    joins, up = join_table(s), s.up
    for a in chosen:
        for b in chosen:
            j = joins.get(up[a] & up[b])
            if j is None or not mask >> j & 1:
                raise NotJoinClosed(f"join of {s.names[a]!r} and {s.names[b]!r} escapes the subset")


def test_carrier_positions_on_every_semilattice_to_seven():
    for t in AgeCatalog.build(7, SEMILATTICE).items:
        for size in range(1, t.n + 1):
            for kind in (POSET, SEMILATTICE):
                assert list(_carrier_positions(t, size, kind)) == list(
                    reference_carrier_positions(t, size, kind)
                )


def _raised(fn, *args):
    try:
        fn(*args)
    except NotJoinClosed as exc:
        return str(exc)
    return None


def test_join_closure_message_on_every_open_subset_to_six():
    open_subsets = 0
    for kind in (POSET, SEMILATTICE):
        for s in AgeCatalog.build(6, kind).items:
            for mask in range(1, 1 << s.n):
                chosen = list(bits(mask))
                expected = _raised(reference_require_join_closed, s, chosen)
                assert _raised(_require_join_closed, s, chosen) == expected
                open_subsets += expected is not None
    assert open_subsets > 1000


# ---------------------------------------------------------------------------
# the gallery's contact compare


def reference_contact_embedding(a, d, assignment):
    for i in range(a.n):
        for j in range(a.n):
            have = bool(a.contact[i] >> j & 1)
            got = bool(d.contact[assignment[i]] >> assignment[j] & 1)
            if have != got:
                return False
    return True


def test_contact_embedding_on_every_failure_candidate():
    inst = failure_instance(SEMILATTICE)
    hits = misses = 0
    for lattice in enumerate_distributive_lattices(8):
        maps = [
            (side, f)
            for side in (inst.a, inst.b)
            for f in _lattice_zero_embeddings(side, lattice)
        ]
        for table in all_contact_tables(lattice):
            target = lattice.with_contact(table)
            for side, f in maps:
                got = _contact_embedding(side, target, f)
                assert got == reference_contact_embedding(side, target, f)
                hits += got
                misses += not got
    assert hits and misses


# ---------------------------------------------------------------------------
# io: the pair walks


def reference_structure_to_doc(s):
    pairs = []
    for i in range(s.n):
        for j in bits(s.contact[i]):
            if j >= i:
                pairs.append([s.names[i], s.names[j]])
    return {
        "kind": s.kind,
        "elements": list(s.names),
        "bottom": s.names[s.bottom],
        "order": [[s.names[i], s.names[j]] for i, j in s.cover_pairs()],
        "contact": pairs,
    }


def reference_event_to_doc(e):
    cover = [[e.events[i], e.events[j]] for i, j in cover_pairs(e.up)]
    pairs = []
    for i in range(e.n):
        for j in bits(e.conflict[i]):
            if j > i:
                pairs.append([e.events[i], e.events[j]])
    return {"kind": "event", "elements": list(e.events), "order": cover, "conflict": pairs}


def reference_structure_to_dot(s, contact_mode):
    if isinstance(s, EventStructure):
        names, extra_rows, baseline, style = s.events, s.conflict, [0] * s.n, "conflict"
    else:
        names, extra_rows, style = s.names, s.contact, "contact"
        baseline = list(overlap_relation(s)) if contact_mode == "extra" else [0] * s.n
    lines = ["digraph structure {", "  rankdir=BT;"]
    for name in names:
        lines.append(f'  "{name}";')
    for low, high in cover_pairs(s.up):
        lines.append(f'  "{names[low]}" -> "{names[high]}";')
    if contact_mode != "none":
        for i, name in enumerate(names):
            for j in bits(extra_rows[i]):
                if j <= i or baseline[i] >> j & 1:
                    continue
                lines.append(
                    f'  "{name}" -> "{names[j]}" [dir=none, style=dashed, class={style}];'
                )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dump(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


def test_documents_and_dot_are_byte_identical():
    structures = [s for kind in (POSET, SEMILATTICE) for s in AgeCatalog.build(5, kind).items]
    events = enumerate_event_structures(4)
    for s in structures:
        assert _dump(structure_to_doc(s)) == _dump(reference_structure_to_doc(s))
    for e in events:
        assert _dump(event_to_doc(e)) == _dump(reference_event_to_doc(e))
    for value in structures + list(events):
        for mode in ("full", "extra", "none"):
            assert structure_to_dot(value, mode) == reference_structure_to_dot(value, mode)


# ---------------------------------------------------------------------------
# the order is checked where an event value is built, and on the way in


def test_event_rows_reject_a_non_transitive_order():
    # x <= p <= q but not x <= q; the indices are the bottomed dual's
    with pytest.raises(AxiomViolation, match="order not transitive at indices 3, 2"):
        EventStructure.from_rows(("x", "p", "q"), (0b011, 0b110, 0b100), (0, 0, 0))


def test_event_rows_reject_a_cycle():
    with pytest.raises(CycleError, match="antisymmetry violated at indices 1, 2"):
        EventStructure.from_rows(("x", "y"), (0b11, 0b11), (0, 0))


# contact_to_event checks b's order through adjoin_bottom, on the bottomed
# table: the indices are b's positions plus one


def test_contact_to_event_rejects_a_non_reflexive_order():
    b = BottomlessContact(("x", "p"), (0b01, 0b00), (0b01, 0b10))
    with pytest.raises(AxiomViolation, match="order not reflexive at index 2"):
        contact_to_event(b)


def test_contact_to_event_rejects_a_non_transitive_order():
    b = BottomlessContact(("x", "p", "q"), (0b001, 0b011, 0b110), (0b111,) * 3)
    with pytest.raises(AxiomViolation, match="order not transitive at indices 3, 2"):
        contact_to_event(b)


def test_valid_round_trips_are_unchanged():
    for e in enumerate_event_structures(4):
        dual = event_to_contact(e)
        assert contact_to_event(dual) == e
        assert event_to_contact(contact_to_event(dual)) == dual


# ---------------------------------------------------------------------------
# the per-law loops, as they were: three Sym loops, two Ref/Ref* loops


def reference_contact_witnesses(s):
    n, names = s.n, s.names
    checks = []

    sym = None
    for i in range(n):
        for j in bits(s.contact[i]):
            if not s.contact[j] >> i & 1:
                sym = (names[i], names[j])
                break
        if sym:
            break
    checks.append(AxiomCheck("Sym", sym is None, sym))

    emp = None
    if s.contact[s.bottom]:
        emp = (names[s.bottom], names[next(bits(s.contact[s.bottom]))])
    else:
        for i in range(n):
            if s.contact[i] >> s.bottom & 1:
                emp = (names[i], names[s.bottom])
                break
    checks.append(AxiomCheck("Emp", emp is None, emp))

    ext = None
    for a in range(n):
        for a1 in bits(s.up[a]):
            if s.contact[a] & ~s.contact[a1]:
                b = next(bits(s.contact[a] & ~s.contact[a1]))
                ext = (names[a], names[b], names[a1], names[b])
                break
        if ext:
            break
    if ext is None:
        for a in range(n):
            for b in bits(s.contact[a]):
                if s.up[b] & ~s.contact[a]:
                    b1 = next(bits(s.up[b] & ~s.contact[a]))
                    ext = (names[a], names[b], names[a], names[b1])
                    break
            if ext:
                break
    checks.append(AxiomCheck("Ext", ext is None, ext))

    ref = None
    for i in range(n):
        if i != s.bottom and not s.contact[i] >> i & 1:
            ref = (names[i],)
            break
    checks.append(AxiomCheck("Ref", ref is None, ref))

    inh = None
    for m in range(n):
        if m == s.bottom:
            continue
        for a in bits(s.up[m]):
            if s.up[m] & ~s.contact[a]:
                b = next(bits(s.up[m] & ~s.contact[a]))
                inh = (names[m], names[a], names[b])
                break
        if inh:
            break
    checks.append(AxiomCheck("Inh", inh is None, inh))
    return checks


def reference_bottomless_witnesses(b):
    n, names = b.n, b.names
    checks = []
    sym = None
    for i in range(n):
        for j in bits(b.contact[i]):
            if not b.contact[j] >> i & 1:
                sym = (names[i], names[j])
                break
        if sym:
            break
    checks.append(AxiomCheck("Sym", sym is None, sym))
    ext = None
    for a in range(n):
        for a1 in bits(b.up[a]):
            if b.contact[a] & ~b.contact[a1]:
                k = next(bits(b.contact[a] & ~b.contact[a1]))
                ext = (names[a], names[k], names[a1], names[k])
                break
        if ext is None:
            for k in bits(b.contact[a]):
                if b.up[k] & ~b.contact[a]:
                    k1 = next(bits(b.up[k] & ~b.contact[a]))
                    ext = (names[a], names[k], names[a], names[k1])
                    break
        if ext:
            break
    checks.append(AxiomCheck("Ext", ext is None, ext))
    ref = None
    for i in range(n):
        if not b.contact[i] >> i & 1:
            ref = (names[i],)
            break
    checks.append(AxiomCheck("Ref*", ref is None, ref))
    return checks


def reference_check_event_structure(names, up, conflict):
    n = len(names)
    checks = []
    irr = None
    for i in range(n):
        if conflict[i] >> i & 1:
            irr = (names[i],)
            break
    checks.append(AxiomCheck("irreflexive", irr is None, irr))
    sym = None
    for i in range(n):
        for j in bits(conflict[i]):
            if not conflict[j] >> i & 1:
                sym = (names[i], names[j])
                break
        if sym:
            break
    checks.append(AxiomCheck("symmetric", sym is None, sym))
    inh = None
    for i in range(n):
        for j in bits(conflict[i]):
            if up[j] & ~conflict[i]:
                k = next(bits(up[j] & ~conflict[i]))
                inh = (names[i], names[j], names[k])
                break
        if inh:
            break
    checks.append(AxiomCheck("inheritance", inh is None, inh))
    return AxiomReport(tuple(checks))


def _labelled_orders(n):
    """Every partial order on positions 0..n-1, as up-rows."""
    rows = [[mask for mask in range(1 << n) if mask >> i & 1] for i in range(n)]
    for up in product(*rows):
        if order_failure(up) is None:
            yield up


def _relation_tables(n):
    for cells in range(1 << (n * n)):
        yield tuple(cells >> (i * n) & ((1 << n) - 1) for i in range(n))


def test_labelled_orders_are_counted():
    assert [sum(1 for _ in _labelled_orders(n)) for n in range(4)] == [1, 1, 3, 19]


def test_shared_law_loops_on_every_table_to_three():
    """Every labelled partial order with at most 3 elements, with every
    relation table: the same reports, witnesses included, from all three
    checkers.  The reference loops run on every table, so an all-pass
    report from the fused row pass is compared with theirs too."""
    failing = {"contact": 0, "bottomless": 0, "event": 0}
    for n in range(4):
        names = tuple("xyz"[:n])
        for up in _labelled_orders(n):
            for rows in _relation_tables(n):
                if n:
                    s = ContactStructure(names, 0, up, rows, POSET)
                    expected = AxiomReport(tuple(reference_contact_witnesses(s)))
                    assert check_contact_axioms(s) == expected, (up, rows)
                    failing["contact"] += not expected.ok
                b = BottomlessContact(names, up, rows)
                expected = AxiomReport(tuple(reference_bottomless_witnesses(b)))
                assert check_bottomless_axioms(b) == expected, (up, rows)
                failing["bottomless"] += not expected.ok
                expected = reference_check_event_structure(names, up, rows)
                try:
                    got = check_event_structure(EventStructure.from_rows(names, up, rows))
                except AxiomViolation as exc:
                    got = exc.report
                assert got == expected, (up, rows)
                failing["event"] += not expected.ok
    assert min(failing.values()) > 9000


def reference_index(names, name, noun):
    try:
        return names.index(name)
    except ValueError:
        raise UnknownElement(f"unknown {noun} {name!r}") from None


def _index_outcome(fn, name):
    try:
        return ("ok", fn(name))
    except UnknownElement as exc:
        return ("raised", str(exc))


def test_index_matches_tuple_index_on_all_three_types():
    """The first position on raw values with duplicate names, and the
    same UnknownElement text on a miss."""
    for names in [("x", "y", "x"), ("x", "x"), ("a", "b", "c", "b", "a"), ()]:
        n = len(names)
        rows = tuple(1 << i for i in range(n))
        dual = tuple(1 << i for i in range(n + 1))
        values = [
            (ContactStructure(names, 0, rows, rows, POSET), "element"),
            (BottomlessContact(names, rows, rows), "element"),
            (EventStructure(ContactStructure((RESERVED_BOTTOM,) + names, 0, dual, dual)), "event"),
        ]
        for value, noun in values:
            for name in set(names) | {"q", "", 0, None}:
                expected = _index_outcome(lambda x: reference_index(names, x, noun), name)
                assert _index_outcome(value.index, name) == expected
            assert _index_outcome(value.index, ["x"])[0] == "raised"


def test_each_value_builds_its_name_map_once(monkeypatch):
    """Lookups read the value's own map: fetched on the first lookup,
    never by a value that is not looked up, and once per value however
    many callers look it up.  Values with equal names share one map, so
    index_map runs once per distinct names tuple."""
    fetched, built = [], []
    shared, real = core._shared_index_map, core.index_map
    shared.cache_clear()
    monkeypatch.setattr(core, "_shared_index_map", lambda names: fetched.append(names) or shared(names))
    monkeypatch.setattr(core, "index_map", lambda names: built.append(names) or real(names))
    items = AgeCatalog.build(4, POSET).items
    t = items[-1]
    s = ContactStructure(t.names, t.bottom, t.up, t.contact, t.kind)
    assert fetched == []
    identity = {name: name for name in s.names}
    for name in s.names:
        s.index(name)
    verify_map(s, s, identity)
    induced_substructure(s, s.names)
    assert fetched == built == [s.names]
    copy = ContactStructure(t.names, t.bottom, t.up, t.contact, t.kind)
    assert copy.index(t.names[-1]) == t.n - 1
    assert fetched == [s.names] * 2 and built == [s.names]
    instances = [inst for a in items[::3] for b in items[::3] for inst in iter_gluings(a, b)]
    assert len(instances) > 50
    for inst in instances:
        verify_superamalgamation(inst, contact_amalgam(inst))
    for inst in instances:
        fetched.clear()
        d = contact_amalgam(inst)
        verify_superamalgamation(inst, d)
        verify_map(inst.c, d, {name: name for name in inst.c.names})
        assert fetched == [d.names]
    assert len(built) == len(set(built))
