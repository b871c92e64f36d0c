"""Differential tests for jobs that had two copies and now have one.

Each replaced body is kept below as the reference, and the library must
give the same values:

- the limit-stage growth and the extension-property report, which now
  walk one sweep (``fraisse._sweep``), and the realization's instance,
  which is now built unchecked (every one must still pass
  ``AmalgamInstance.from_parts``);
- ``core.overlap_relation``, now the minimal-nonzero kernel, against the
  pairwise scan it replaced;
- ``events._rename_gluing``, now two calls to ``core._fresh_names``;
- ``enumeration._carrier_positions`` and ``core._require_join_closed``,
  now sharing ``core._join_escape``;
- ``gallery._contact_embedding``, now one row compare;
- the pair walks of ``io``, now one ``_pairs`` helper.

The event bridge's order check, which the one-sided paths used to skip,
is tested at the end.
"""

import json
import random
from itertools import combinations

import pytest

from contactposets import fraisse
from contactposets.amalgam import AmalgamInstance, contact_amalgam, semilattice_amalgam
from contactposets.core import (
    POSET,
    SEMILATTICE,
    BottomlessContact,
    ContactStructure,
    _require_join_closed,
    bits,
    check_contact_axioms,
    cover_pairs,
    induced_substructure,
    join_table,
    overlap_relation,
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
from contactposets.errors import AxiomViolation, CycleError, NotJoinClosed
from contactposets.events import (
    EventStructure,
    _rename_gluing,
    contact_to_event,
    enumerate_event_structures,
    event_to_contact,
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
    result = semilattice_amalgam(inst, exhaustive_joins=False)
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
    first; count them."""
    seen = []

    def checking(amalgamate):
        def run(inst, *args, **kwargs):
            AmalgamInstance.from_parts(inst.a, inst.b, inst.c)
            seen.append(inst)
            return amalgamate(inst, *args, **kwargs)
        return run

    monkeypatch.setattr(fraisse, "contact_amalgam", checking(contact_amalgam))
    monkeypatch.setattr(fraisse, "semilattice_amalgam", checking(semilattice_amalgam))
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


@pytest.mark.filterwarnings("ignore:poset enumeration")
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
    renamed_a = EventStructure(tuple(a_rename[name] for name in a.events), a.up, a.conflict)
    renamed_b = EventStructure(tuple(b_rename[name] for name in b.events), b.up, b.conflict)
    return renamed_a, renamed_b, c


def test_rename_gluing_on_every_gluing_to_three():
    events = enumerate_event_structures(3)
    count = 0
    for a in events:
        ca = event_to_contact(a, with_bottom=True)
        for b in events:
            cb = event_to_contact(b, with_bottom=True)
            for chosen, image in gluings_up_to_iso(ca, cb):
                c = sub_event(a, [i - 1 for i in chosen[1:]])
                mapping = [j - 1 for j in image[1:]]
                assert _rename_gluing(a, b, c, mapping) == (
                    reference_rename_gluing(a, b, c, mapping)
                )
                count += 1
    assert count > 100


def test_rename_gluing_on_seeded_gluings_to_four():
    rng = random.Random(1313)
    events = enumerate_event_structures(4)
    pool = ["e1", "e2", "e3", "e4", "x", "y", "a:x", "b:y"]
    for _ in range(2000):
        a, b = rng.choice(events), rng.choice(events)
        a = EventStructure(tuple(rng.sample(pool, a.n)), a.up, a.conflict)
        b = EventStructure(tuple(rng.sample(pool, b.n)), b.up, b.conflict)
        size = rng.randint(0, min(a.n, b.n))
        c = sub_event(a, sorted(rng.sample(range(a.n), size)))
        mapping = rng.sample(range(b.n), size)
        assert _rename_gluing(a, b, c, mapping) == reference_rename_gluing(a, b, c, mapping)


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


@pytest.mark.filterwarnings("ignore:poset enumeration")
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
# the event bridge checks the order on its one-sided paths


def test_event_to_contact_rejects_a_non_transitive_order():
    # x <= p <= q but not x <= q
    e = EventStructure(("x", "p", "q"), (0b011, 0b110, 0b100), (0, 0, 0))
    with pytest.raises(AxiomViolation, match="order not transitive at indices 0, 1"):
        event_to_contact(e)
    with pytest.raises(AxiomViolation, match="order not transitive"):
        event_to_contact(e, with_bottom=True)


def test_event_to_contact_rejects_a_cycle():
    e = EventStructure(("x", "y"), (0b11, 0b11), (0, 0))
    with pytest.raises(CycleError, match="antisymmetry violated at indices 0, 1"):
        event_to_contact(e)


def test_contact_to_event_rejects_a_non_reflexive_order():
    b = BottomlessContact(("x", "p"), (0b01, 0b00), (0b01, 0b10))
    with pytest.raises(AxiomViolation, match="order not reflexive at index 1"):
        contact_to_event(b)


def test_contact_to_event_rejects_a_non_transitive_order():
    b = BottomlessContact(("x", "p", "q"), (0b001, 0b011, 0b110), (0b111,) * 3)
    with pytest.raises(AxiomViolation, match="order not transitive at indices 2, 1"):
        contact_to_event(b)


def test_valid_round_trips_are_unchanged():
    for e in enumerate_event_structures(4):
        dual = event_to_contact(e)
        assert contact_to_event(dual) == e
        assert event_to_contact(contact_to_event(dual)) == dual
