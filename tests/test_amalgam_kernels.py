"""Differential tests of the bit-row kernels on the amalgamation path.

The axiom checks run a fused row pass before their per-law loops, the
order and contact amalgams lift rows into union positions, the
superamalgamation witness is a lowest bit, ``cor3``'s join check reads
the family's joins in one memoised subset sweep and the event bridge
compares pulled-back rows.  The instance boundary checks each gluing
once: ``from_parts`` compares C's rows with each side's,
``from_embeddings`` verifies the caller's maps before it, the library's
own gluings are renamed apart unchecked, and ``contact_amalgam`` reads
its inclusions off rows.  Each is compared
here with the loop it replaced, or with a plain count, kept below as
the reference.
"""

import random
from dataclasses import make_dataclass, replace

import pytest

from contactposets import amalgam, events, represent
from contactposets.amalgam import (
    AmalgamInstance,
    CrossWitness,
    contact_amalgam,
    order_amalgam,
    semilattice_amalgam,
    verify_superamalgamation,
)
from contactposets.core import (
    POSET,
    SEMILATTICE,
    AxiomCheck,
    AxiomReport,
    ContactStructure,
    bits,
    check_bottomless_axioms,
    check_contact_axioms,
    drop_bottom,
    induced_substructure,
    join_table,
    restrict,
    verify_map,
)
from contactposets.enumeration import AgeCatalog, carrier_subsets
from contactposets.errors import (
    AddOnPoset,
    AxiomViolation,
    ContactError,
    MissingBottom,
    NotJoinClosed,
    NotSemilattice,
    PreconditionViolation,
    UnknownElement,
)
from contactposets.events import (
    EventStructure,
    amalgamate_events,
    enumerate_event_structures,
    iter_event_gluings,
)
from contactposets.fraisse import iter_gluings, random_instance
from join_scans import existing_join_misses, join_index, subset_join
from test_embedding_search import reference_induced_embeddings
from test_lattice_kernels import _is_partial_order


# ---------------------------------------------------------------------------
# references: the loops the kernels replaced


def reference_contact_report(s, require_add=False):
    """check_contact_axioms as a per-law loop over every structure."""
    if require_add and s.kind != SEMILATTICE:
        raise AddOnPoset("additivity is not expressible without joins")
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
    if require_add:
        add = None
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    j = join_index(s, b, c)
                    if j is None:
                        raise NotSemilattice("missing join during Add check")
                    if (
                        s.contact[a] >> j & 1
                        and not s.contact[a] >> b & 1
                        and not s.contact[a] >> c & 1
                    ):
                        add = (names[a], names[b], names[c])
                        break
                if add:
                    break
            if add:
                break
        checks.append(AxiomCheck("Add", add is None, add))
    return AxiomReport(tuple(checks))


def reference_bottomless_report(b):
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
    return AxiomReport(tuple(checks))


def reference_induced_rows(s, subset):
    """induced_substructure's carrier and tables, shrunk bit by bit, with
    join-closure tested by join_index."""
    chosen = sorted({s.index(name) for name in subset})
    if s.bottom not in chosen:
        raise MissingBottom("substructure carrier must contain the bottom")
    mask = 0
    for i in chosen:
        mask |= 1 << i
    if s.kind == SEMILATTICE:
        for a in chosen:
            for b in chosen:
                j = join_index(s, a, b)
                if j is None or not mask >> j & 1:
                    raise NotJoinClosed(
                        f"join of {s.names[a]!r} and {s.names[b]!r} escapes the subset"
                    )
    pos = {i: k for k, i in enumerate(chosen)}

    def shrink(row):
        out = 0
        for j in bits(row & mask):
            out |= 1 << pos[j]
        return out

    return (
        tuple(s.names[i] for i in chosen),
        pos[s.bottom],
        tuple(shrink(s.up[i]) for i in chosen),
        tuple(shrink(s.contact[i]) for i in chosen),
    )


def reference_from_parts_agrees(a, b, c):
    """The old comparison: each piece relabelled into C's order."""
    for host in (a, b):
        piece = induced_substructure(host, c.names)
        perm = [list(c.names).index(name) for name in piece.names]
        aligned = piece.relabel(perm)
        if aligned.up != c.up or aligned.contact != c.contact:
            return False
    return True


def reference_order_amalgam(inst):
    a, b, c = inst.a, inst.b, inst.c
    names = list(a.names) + [name for name in b.names if name not in set(c.names)]
    pos = {name: i for i, name in enumerate(names)}
    n = len(names)
    up = [1 << i for i in range(n)]
    for side in (a, b):
        for i in range(side.n):
            for j in bits(side.up[i]):
                up[pos[side.names[i]]] |= 1 << pos[side.names[j]]
    shared = set(c.names)
    for side_one, side_two in ((a, b), (b, a)):
        for i in range(side_one.n):
            for mid in bits(side_one.up[i]):
                mid_name = side_one.names[mid]
                if mid_name not in shared:
                    continue
                k = side_two.index(mid_name)
                for j in bits(side_two.up[k]):
                    up[pos[side_one.names[i]]] |= 1 << pos[side_two.names[j]]
    for i in range(n):
        for j in bits(up[i]):
            if j != i and up[j] >> i & 1:
                raise AxiomViolation("antisymmetry")
            if up[i] | up[j] != up[i]:
                raise AxiomViolation("transitivity")
    for side in (a, b):
        side_set = set(side.names)
        for i in range(side.n):
            restricted = 0
            for j in bits(up[pos[side.names[i]]]):
                if names[j] in side_set:
                    restricted |= 1 << side.index(names[j])
            if restricted != side.up[i]:
                raise AxiomViolation("side disturbed")
    return tuple(names), tuple(up)


def reference_contact_amalgam(inst):
    """The amalgam's contact by the n^2 scan over reach and down-sets."""
    names, up = reference_order_amalgam(inst)
    pos = {name: i for i, name in enumerate(names)}
    n = len(names)
    down = [0] * n
    for i in range(n):
        for j in bits(up[i]):
            down[j] |= 1 << i
    reach = [0] * n
    for side in (inst.a, inst.b):
        side_positions = [pos[name] for name in side.names]
        for d in range(n):
            row = 0
            for i in range(side.n):
                if down[d] >> side_positions[i] & 1:
                    row |= side.contact[i]
            for j in bits(row):
                reach[d] |= 1 << side_positions[j]
    contact = [0] * n
    for d in range(n):
        for e in range(n):
            if reach[d] & down[e]:
                contact[d] |= 1 << e
    return ContactStructure(
        tuple(names), pos[inst.c.names[inst.c.bottom]], tuple(up), tuple(contact), POSET
    )


def _first_mid(inst, low_side, high_side, low, high):
    for mid in inst.c.names:
        if low_side.leq(low, mid) and high_side.leq(mid, high):
            return mid
    return None


def reference_superamalgamation(inst, amalgam_structure):
    witnesses = []
    for low_side, high_side in ((inst.a, inst.b), (inst.b, inst.a)):
        for low in low_side.names:
            for high in high_side.names:
                if amalgam_structure.leq(low, high):
                    found = _first_mid(inst, low_side, high_side, low, high)
                    witnesses.append(CrossWitness(low, high, found))
    return tuple(witnesses)


def reference_super_through_maps(inst, target, from_a, from_b):
    witnesses = []
    pairs = ((inst.a, inst.b, from_a, from_b), (inst.b, inst.a, from_b, from_a))
    for low_side, high_side, low_map, high_map in pairs:
        for low in low_side.names:
            for high in high_side.names:
                if target.leq(low_map.apply(low), high_map.apply(high)):
                    found = _first_mid(inst, low_side, high_side, low, high)
                    witnesses.append(CrossWitness(low, high, found))
    return tuple(witnesses)


def reference_join_miss(s, target, image):
    """The first subset, by a plain count, whose join in s is not sent
    to the target's join of its images: the names, or None."""
    t_joins = join_table(target)
    for subset in range(1 << s.n):
        j = subset_join(s, subset)
        if j is None:
            continue
        t_ub = target.full_mask
        for a in bits(subset):
            t_ub &= target.up[image[a]]
        if t_joins.get(t_ub) != image[j]:
            return [s.names[a] for a in bits(subset)]
    return None


def reference_first_disagreement(host, part):
    for x in part.events:
        for y in part.events:
            if host.leq(x, y) != part.leq(x, y):
                return ("order", x, y)
            if host.in_conflict(x, y) != part.in_conflict(x, y):
                return ("conflict", x, y)
    return None


# ---------------------------------------------------------------------------
# helpers


def _outcome(call, *args, **kwargs):
    """A call's result, or its exception's type and message."""
    try:
        return ("ok", call(*args, **kwargs))
    except ContactError as exc:
        return ("raised", type(exc), str(exc))


def _flip(rows, rng):
    rows = list(rows)
    i = rng.randrange(len(rows))
    rows[i] ^= 1 << rng.randrange(len(rows))
    return tuple(rows)


def _mutants(s, rng, count, fields=("contact", "up")):
    """Seeded single-bit flips of the given tables, taken in turn."""
    for k in range(count):
        field = fields[k % len(fields)]
        yield replace(s, **{field: _flip(getattr(s, field), rng)})


@pytest.fixture(scope="module")
def catalogs_6():
    return {kind: AgeCatalog.build(6, kind) for kind in (POSET, SEMILATTICE)}


@pytest.fixture(scope="module")
def small_gluings():
    out = []
    for kind in (POSET, SEMILATTICE):
        items = AgeCatalog.build(4, kind).items
        for a in items:
            for b in items:
                out.extend((kind, inst) for inst in iter_gluings(a, b))
    return out


@pytest.fixture(scope="module")
def random_gluings(catalogs_6):
    rng = random.Random(4417)
    out = []
    for k in range(500):
        kind = (POSET, SEMILATTICE)[k % 2]
        inst = random_instance(catalogs_6[kind], rng)
        if inst is not None:
            out.append((kind, inst))
    return out


# ---------------------------------------------------------------------------
# axiom reports


@pytest.mark.parametrize("kind", [POSET, SEMILATTICE])
def test_contact_reports_match_reference(kind, catalogs_6):
    rng = random.Random(991 if kind == POSET else 992)
    failing = 0
    for item in catalogs_6[kind].items:
        assert check_contact_axioms(item) == reference_contact_report(item)
        for mutant in _mutants(item, rng, 6):
            expected = reference_contact_report(mutant)
            assert check_contact_axioms(mutant) == expected
            failing += not expected.ok
    assert failing > len(catalogs_6[kind].items)


def test_additivity_reports_match_reference(catalogs_6):
    """Joins come from join_table, which agrees with join_index on a
    partial order, so only contact is mutated.  A missing join is still
    met: the poset catalog's items re-tagged as semilattices."""
    rng = random.Random(993)
    raised = 0
    items = catalogs_6[SEMILATTICE].items + tuple(
        replace(item, kind=SEMILATTICE) for item in catalogs_6[POSET].items[::5]
    )
    for item in items:
        for s in [item, *_mutants(item, rng, 4, ("contact",))]:
            expected = _outcome(reference_contact_report, s, require_add=True)
            assert _outcome(check_contact_axioms, s, require_add=True) == expected
            raised += expected[0] == "raised"
    assert raised > 0
    with pytest.raises(AddOnPoset):
        check_contact_axioms(catalogs_6[POSET].items[-1], require_add=True)


def test_bottomless_reports_match_reference(catalogs_6):
    rng = random.Random(994)
    failing = 0
    for item in catalogs_6[POSET].items:
        if item.n < 2:
            continue
        b = drop_bottom(item)
        assert check_bottomless_axioms(b) == reference_bottomless_report(b)
        for _ in range(6):
            field = rng.choice(("up", "contact"))
            mutant = replace(b, **{field: _flip(getattr(b, field), rng)})
            expected = reference_bottomless_report(mutant)
            assert check_bottomless_axioms(mutant) == expected
            failing += not expected.ok
    assert failing > 1000


def test_induced_substructure_matches_reference():
    for kind in (POSET, SEMILATTICE):
        for item in AgeCatalog.build(5, kind).items:
            for subset in range(1 << item.n):
                names = [item.names[i] for i in bits(subset)]
                expected = _outcome(reference_induced_rows, item, names)
                got = _outcome(induced_substructure, item, names)
                if expected[0] == "ok":
                    piece = got[1]
                    assert (piece.names, piece.bottom, piece.up, piece.contact) == expected[1]
                else:
                    assert got == expected


# ---------------------------------------------------------------------------
# amalgams and witnesses


def _check_instance(kind, inst):
    assert order_amalgam(inst) == reference_order_amalgam(inst)
    d = contact_amalgam(inst)
    assert d == reference_contact_amalgam(inst)
    report = verify_superamalgamation(inst, d)
    assert report.witnesses == reference_superamalgamation(inst, d)
    if kind == SEMILATTICE:
        result = semilattice_amalgam(inst)
        expected = reference_super_through_maps(
            inst, result.family.structure, result.from_a, result.from_b
        )
        assert result.superamalgamation.witnesses == expected


def test_amalgams_match_reference_on_small_gluings(small_gluings):
    assert len(small_gluings) > 2000
    for kind, inst in small_gluings:
        _check_instance(kind, inst)


def test_amalgams_match_reference_on_random_gluings(random_gluings):
    assert len(random_gluings) > 400
    for kind, inst in random_gluings:
        _check_instance(kind, inst)


def test_witnesses_match_reference_on_foreign_orders(small_gluings):
    """Against an order other than the amalgam's, so that misses and
    late witnesses occur: the order amalgam with a random relation of
    cross pairs added."""
    rng = random.Random(995)
    misses = 0
    for _, inst in small_gluings[::7]:
        d = contact_amalgam(inst)
        up = list(d.up)
        for i in range(d.n):
            up[i] |= rng.getrandbits(d.n)
        foreign = replace(d, up=tuple(up))
        report = verify_superamalgamation(inst, foreign)
        assert report.witnesses == reference_superamalgamation(inst, foreign)
        misses += len(report.misses())
    assert misses > 0


# ---------------------------------------------------------------------------
# the superamalgamation verdict: one mask test per low row


def _routed_everywhere(witnesses):
    return all(w.through is not None for w in witnesses)


def _foreign(s, rng):
    """s with a random relation of extra pairs added to its order."""
    return replace(s, up=tuple(row | rng.getrandbits(s.n) for row in s.up))


def test_verdict_matches_reference(small_gluings, random_gluings):
    """ok is read before the witnesses, so the mask test decides it; it
    must say whether every cross pair of the reference search has a
    witness.  Each gluing is checked against its amalgam and against a
    foreign order with extra pairs, which has misses; a semilattice
    gluing also through its maps into the family, as built and with
    extra pairs added to the family's order."""
    rng = random.Random(4431)
    verdicts = {True: 0, False: 0}
    for kind, inst in small_gluings + random_gluings:
        d = contact_amalgam(inst)
        for target in (d, _foreign(d, rng)):
            ok = verify_superamalgamation(inst, target).ok
            assert ok == _routed_everywhere(reference_superamalgamation(inst, target))
            verdicts[ok] += 1
        if kind == SEMILATTICE:
            result = semilattice_amalgam(inst)
            ok = result.superamalgamation.ok
            expected = reference_super_through_maps(
                inst, result.family.structure, result.from_a, result.from_b
            )
            assert ok == _routed_everywhere(expected) is True
            foreign = _foreign(result.family.structure, rng)
            ok = amalgam._cross_witnesses(
                inst, foreign.up, result.from_a.mapping, result.from_b.mapping
            ).ok
            expected = reference_super_through_maps(
                inst, foreign, result.from_a, result.from_b
            )
            assert ok == _routed_everywhere(expected)
            verdicts[ok] += 1
    assert verdicts[True] > 3000 and verdicts[False] > 1000


def test_event_verdicts_match_reference():
    """Every gluing of event structures with at most 3 events: the
    bridge's verdict against the reference search on the bottomed duals."""
    structures = enumerate_event_structures(3)
    glued = 0
    for a in structures:
        for b in structures:
            for a2, b2, c in iter_event_gluings(a, b):
                result = amalgamate_events(a2, b2, c)
                inst = AmalgamInstance.from_parts(
                    *(x.dual for x in (a2, b2, c))
                )
                expected = reference_superamalgamation(inst, result.contact_amalgam)
                assert result.superamalgamation_ok == _routed_everywhere(expected)
                glued += 1
    assert glued > 1000


def test_witnesses_are_built_on_first_read(monkeypatch, small_gluings):
    """A caller that reads only ok runs no witness search; the first read
    of the witnesses runs it once.  ==, hash and repr are those of the
    frozen dataclass whose one field is the witness tuple."""
    searches = []
    search = amalgam._witness_search

    def counted(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(amalgam, "_witness_search", counted)
    frozen = make_dataclass(
        "SuperamalgamationReport", [("witnesses", tuple)], frozen=True
    )
    for _, inst in small_gluings[::50]:
        searches.clear()
        d = contact_amalgam(inst)
        report = verify_superamalgamation(inst, d)
        assert report.ok
        assert searches == []
        witnesses = report.witnesses
        assert report.witnesses is witnesses and report.misses() == ()
        assert len(searches) == 1
        expected = frozen(reference_superamalgamation(inst, d))
        assert repr(report) == repr(expected)
        assert hash(report) == hash(expected)
        assert report == verify_superamalgamation(inst, d)
        assert report != expected


def test_verdict_names_an_element_missing_from_the_target(small_gluings):
    """A target that lacks one of A's or B's names raises the typed
    UnknownElement, not a bare KeyError."""
    raised = 0
    for _, inst in small_gluings[::25]:
        d = contact_amalgam(inst)
        for side in (inst.a, inst.b):
            name = side.names[-1]
            target = d.rename({x: x + "'" if x == name else x for x in d.names})
            with pytest.raises(UnknownElement, match=repr(name)):
                verify_superamalgamation(inst, target)
            raised += 1
    assert raised > 100


def test_from_parts_matches_reference(small_gluings):
    rng = random.Random(996)
    rejected = 0
    for _, inst in small_gluings[::3]:
        for c in [inst.c, *_mutants(inst.c, rng, 4)]:
            got = _outcome(AmalgamInstance.from_parts, inst.a, inst.b, c)
            if got[0] == "ok":
                assert reference_from_parts_agrees(inst.a, inst.b, c)
            else:
                expected = _outcome(reference_from_parts_agrees, inst.a, inst.b, c)
                assert expected[0] == "raised" or expected[1] is False
                rejected += 1
    assert rejected > 100


# ---------------------------------------------------------------------------
# existing joins


def test_join_misses_match_reference(monkeypatch):
    """cor3's join check, against a plain count over the family's joins.
    Each family gets single up-row bit flips, kept while the rows stay a
    partial order, so that misses occur; the error must name the same
    first miss.  Unperturbed, neither check nor the replaced walk
    (existing_join_misses) finds a miss."""
    rng = random.Random(997)
    flips = missed = 0
    for kind in (POSET, SEMILATTICE):
        for item in AgeCatalog.build(6, kind).items:
            family, total = represent.join_preserving_embedding(item)
            t = family.structure
            assert represent._bound_sweep(item, t, total.mapping, False) is None
            assert existing_join_misses(item) == []
            for _ in range(3):
                i, j = rng.randrange(t.n), rng.randrange(t.n)
                up = list(t.up)
                up[i] ^= 1 << j
                if not _is_partial_order(up):
                    continue
                doctored = replace(family, structure=replace(t, up=tuple(up)))
                with monkeypatch.context() as patch:
                    patch.setattr(
                        represent, "_image_embedding", lambda *args: (doctored, total)
                    )
                    got = _outcome(represent.join_preserving_embedding, item)
                want = reference_join_miss(item, doctored.structure, total.mapping)
                if want is None:
                    assert got == ("ok", (doctored, total))
                else:
                    message = f"existing joins not preserved: {want}"
                    assert got == ("raised", AxiomViolation, message)
                    missed += 1
                flips += 1
    assert missed > 100, (missed, flips)


# ---------------------------------------------------------------------------
# the event bridge


def _event_flips(e, rng):
    """e with one order bit, or one conflict pair both ways, flipped (e
    itself when empty).  Values are checked where they are built, so
    flips are drawn until the row constructor accepts one; None when 20
    draws are all rejected."""
    if not e.n:
        return e
    for _ in range(20):
        i, j = rng.randrange(e.n), rng.randrange(e.n)
        up, conflict = list(e.up), list(e.conflict)
        if rng.random() < 0.5:
            up[i] ^= 1 << j
        else:
            conflict[i] ^= 1 << j
            conflict[j] ^= (i != j) << i
        built = _outcome(EventStructure.from_rows, e.events, up, conflict)
        if built[0] == "ok":
            return built[1]
    return None


def test_event_row_compare_matches_reference():
    rng = random.Random(998)
    structures = enumerate_event_structures(3)
    disagreements = 0
    for a in structures[::2]:
        for b in structures[::3]:
            for a2, b2, c in iter_event_gluings(a, b):
                d = amalgamate_events(a2, b2, c).amalgam
                for side in (a2, b2):
                    assert events._restricts_exactly(d, side)
                    mutant = _event_flips(d, rng)
                    if mutant is None:
                        continue
                    expected = reference_first_disagreement(mutant, side)
                    assert events._restricts_exactly(mutant, side) == (expected is None)
                    disagreements += expected is not None
                host = _event_flips(a2, rng)
                if host is None:
                    continue
                expected = reference_first_disagreement(host, c)
                got = _outcome(events._require_common_part, host, c)
                if expected is None:
                    assert got == ("ok", None)
                else:
                    what, x, y = expected
                    message = f"{what} disagrees with C at ({x!r}, {y!r})"
                    assert got[2] == message
    assert disagreements > 100


# ---------------------------------------------------------------------------
# the instance boundary


def reference_from_parts(a, b, c):
    """from_parts as it was: a validated induced substructure of each
    side, compared with C through C's positions in it."""
    shared = set(a.names) & set(b.names)
    if shared != set(c.names):
        raise PreconditionViolation("carriers of A and B must intersect exactly in C")
    if a.names[a.bottom] != c.names[c.bottom] or b.names[b.bottom] != c.names[c.bottom]:
        raise PreconditionViolation("bottoms must coincide on C")
    for host in (a, b):
        piece = induced_substructure(host, c.names)
        f = [piece.index(name) for name in c.names]
        if restrict(f, piece.up, piece.contact) != [c.up, c.contact]:
            raise PreconditionViolation("C is not an induced substructure of both sides")
    return AmalgamInstance(a, b, c)


def reference_from_embeddings(a, b, c, into_a, into_b):
    """from_embeddings as it was: both maps verified first."""
    for host, emb in ((a, into_a), (b, into_b)):
        checked = verify_map(c, host, emb)
        if not (checked.report.is_embedding and checked.report.order_reflecting):
            raise PreconditionViolation("the given maps are not embeddings")
    rename_a = {image: name for name, image in into_a.items()}
    rename_b = {image: name for name, image in into_b.items()}
    fresh_a = {name: rename_a.get(name, f"a:{name}") for name in a.names}
    fresh_b = {name: rename_b.get(name, f"b:{name}") for name in b.names}
    return reference_from_parts(a.rename(fresh_a), b.rename(fresh_b), c)


def reference_checked_amalgam(inst):
    """contact_amalgam's checks as they were, on the n^2-scan amalgam:
    the axioms, then each inclusion through verify_map.  The order half
    runs first, so its failures read as the library's."""
    order_amalgam(inst)
    d = reference_contact_amalgam(inst)
    report = check_contact_axioms(d)
    if not report.ok:
        raise AxiomViolation("amalgamated contact failed the axioms", report)
    for side in (inst.a, inst.b):
        inclusion = verify_map(
            replace(side, kind=POSET), d, {name: name for name in side.names}
        )
        if not (inclusion.report.is_embedding and inclusion.report.order_reflecting):
            raise AxiomViolation("inclusion into the amalgam is not an embedding")
    return d


def _any_outcome(call, *args):
    """A call's result, or the type and message of whatever it raised."""
    try:
        return ("ok", call(*args))
    except Exception as exc:
        return ("raised", type(exc), str(exc))


def _same_gluing(a, b, c, into_a, into_b):
    """The old and new path agree on the instance and on the amalgam;
    returns the instance outcome."""
    expected = _any_outcome(reference_from_embeddings, a, b, c, into_a, into_b)
    got = _any_outcome(AmalgamInstance.from_embeddings, a, b, c, into_a, into_b)
    assert got == expected, (a, b, c, into_a, into_b)
    if got[0] == "ok":
        _same_parts(got[1].a, got[1].b, c)
        _same_amalgam(got[1])
    return got


def _same_parts(a, b, c):
    expected = _any_outcome(reference_from_parts, a, b, c)
    assert _any_outcome(AmalgamInstance.from_parts, a, b, c) == expected, (a, b, c)
    return expected


def _same_amalgam(inst):
    expected = _any_outcome(reference_checked_amalgam, inst)
    assert _any_outcome(contact_amalgam, inst) == expected, inst
    return expected


def _raw_gluings(a, b):
    """iter_gluings's inputs: (C, the embedding of C into b)."""
    for size in range(1, min(a.n, b.n) + 1):
        for subset in carrier_subsets(a, size, kind=a.kind):
            try:
                c = induced_substructure(a, subset)
            except NotJoinClosed:
                continue
            for emb in reference_induced_embeddings(c, b):
                yield c, emb


def _draw(catalog, rng, max_tries=50):
    """random_instance's draws, kept step for step: (a, b, c, emb)."""
    for _ in range(max_tries):
        a = rng.choice(catalog.items)
        b = rng.choice(catalog.items)
        size = rng.randint(1, min(a.n, b.n))
        subsets = list(carrier_subsets(a, size, kind=a.kind))
        if not subsets:
            continue
        subset = rng.choice(subsets)
        try:
            c = induced_substructure(a, subset)
        except NotJoinClosed:
            continue
        embeddings = list(reference_induced_embeddings(c, b))
        if not embeddings:
            continue
        return a, b, c, rng.choice(embeddings)
    return None


@pytest.mark.parametrize("kind", [POSET, SEMILATTICE])
def test_instance_boundary_matches_reference_on_small_gluings(kind):
    items = AgeCatalog.build(4, kind).items
    glued = 0
    for a in items:
        for b in items:
            for c, emb in _raw_gluings(a, b):
                identity = {name: name for name in c.names}
                assert _same_gluing(a, b, c, identity, emb)[0] == "ok"
                glued += 1
            assert [
                (inst.a, inst.b, inst.c) for inst in iter_gluings(a, b)
            ] == [
                (i.a, i.b, i.c)
                for c, emb in _raw_gluings(a, b)
                for i in [reference_from_embeddings(
                    a, b, c, {name: name for name in c.names}, emb
                )]
            ]
    assert glued > 200


def test_instance_boundary_matches_reference_on_random_draws(catalogs_6):
    """2,000 seeded draws, 1,000 per kind; random_instance must draw the
    same gluing as the old steps from the same seed."""
    drawn = 0
    for kind in (POSET, SEMILATTICE):
        catalog = catalogs_6[kind]
        rng_new, rng_old = random.Random(4421), random.Random(4421)
        for _ in range(1000):
            inst = random_instance(catalog, rng_new)
            raw = _draw(catalog, rng_old)
            assert (inst is None) is (raw is None)
            if raw is None:
                continue
            a, b, c, emb = raw
            got = _same_gluing(a, b, c, {name: name for name in c.names}, emb)
            assert got == ("ok", inst)
            drawn += 1
    assert drawn > 1900


def _flipped(rows, i, j):
    rows = list(rows)
    rows[i] ^= 1 << j
    return tuple(rows)


def test_instance_boundary_matches_reference_on_rejected_inputs(small_gluings):
    """Mutated C rows, C not join-closed in a semilattice side, bottoms
    that do not coincide, maps that are not injective or not embeddings,
    and sides that disagree on C handed straight to contact_amalgam."""
    rng = random.Random(4423)
    seen = {}

    def tally(outcome):
        key = outcome[1].__name__ if outcome[0] == "raised" else "ok"
        seen[key] = seen.get(key, 0) + 1

    for kind, inst in small_gluings[::5]:
        a, b, c = inst.a, inst.b, inst.c
        identity = {name: name for name in c.names}
        # C's rows mutated: for from_parts and for both maps
        for field in ("up", "contact"):
            i, j = rng.randrange(c.n), rng.randrange(c.n)
            mutant = replace(c, **{field: _flipped(getattr(c, field), i, j)})
            tally(_same_parts(a, b, mutant))
            tally(_same_gluing(a, b, mutant, identity, identity))
        # the bottoms apart: a side relabelled so its bottom moves
        if c.n >= 2:
            other = c.names[(c.bottom + 1) % c.n]
            swap = {c.names[c.bottom]: other, other: c.names[c.bottom]}
            moved = {name: swap.get(name, name) for name in c.names}
            tally(_same_gluing(a, b, c, moved, identity))
            tally(_same_parts(a.rename(swap), b, c))
            tally(_same_amalgam(AmalgamInstance(a.rename(swap), b, c)))
        # maps that collapse two points, or miss the host
        if c.n >= 2:
            collapsed = dict(identity)
            collapsed[c.names[-1]] = c.names[0]
            tally(_same_gluing(a, b, c, identity, collapsed))
            tally(_same_gluing(a, b, c, {**identity, c.names[-1]: "nowhere"}, identity))
        tally(_same_gluing(a, b, c, {}, identity))
        # a side that disagrees with C on contact, past from_parts
        for side in ("a", "b"):
            host = getattr(inst, side)
            k = host.index(c.names[rng.randrange(c.n)])
            m = host.index(c.names[rng.randrange(c.n)])
            if host.bottom in (k, m) or k == m:
                continue
            broken = replace(host, contact=_flipped(_flipped(host.contact, k, m), m, k))
            tally(_same_amalgam(replace(inst, **{side: broken})))
            # the same side handed to from_parts, the other side agreeing
            parts = {"a": inst.a, "b": inst.b, side: broken}
            tally(_same_parts(parts["a"], parts["b"], c))
        # a map into b that is injective but not an embedding
        if c.n >= 2 and b.n > c.n:
            shuffled = dict(zip(c.names, rng.sample(list(b.names), c.n)))
            tally(_same_gluing(a, b, c, identity, shuffled))
    # C's carrier not join-closed in a semilattice side
    for a in AgeCatalog.build(5, SEMILATTICE).items:
        for size in range(2, a.n):
            for subset in carrier_subsets(a, size, kind=POSET):
                piece = induced_substructure(replace(a, kind=POSET), subset)
                c = replace(piece, kind=SEMILATTICE)
                identity = {name: name for name in c.names}
                apart = {name: f"b:{name}" for name in a.names if name not in identity}
                tally(_same_gluing(a, a, c, identity, identity))
                tally(_same_parts(a, a.rename(apart), c))
                # C's carrier order reversed, so that the escaping pair
                # named is the host's first, not C's
                order = [c.bottom] + [i for i in reversed(range(c.n)) if i != c.bottom]
                backwards = c.relabel([order.index(i) for i in range(c.n)])
                tally(_same_parts(a, a.rename(apart), backwards))
    # a C name that renaming apart also gives a host element: "a:x" is
    # C's, and x is not an image, so the renamed host holds "a:x" at x
    # (and "b:x" likewise on side b)
    vee = ContactStructure.build(["0", "x", "y"], "0", [("0", "x"), ("0", "y")],
                                 [("x", "x"), ("y", "y")])
    for tag in ("a", "b"):
        c = ContactStructure(("0", f"{tag}:x"), 0, (0b11, 0b10), (0, 0b10), POSET)
        good = {"0": "0", f"{tag}:x": "y"}
        for bad in ({"0": "0", f"{tag}:x": "nowhere"}, {"0": "0", f"{tag}:x": "0"}):
            maps = (bad, good) if tag == "a" else (good, bad)
            assert _same_gluing(vee, vee, c, *maps)[0] == "raised"
    # a side whose bottom s is not C's, where the amalgam passes the axioms
    side = ContactStructure(("s", "0"), 0, (0b01, 0b10), (0b01, 0), POSET)
    pair = ContactStructure(("0", "t"), 0, (0b11, 0b10), (0, 0b10), POSET)
    point = ContactStructure(("0",), 0, (1,), (0,), POSET)
    outcome = _same_amalgam(AmalgamInstance(side, pair, point))
    assert outcome[1:] == (AxiomViolation, "inclusion into the amalgam is not an embedding")
    assert seen.get("PreconditionViolation", 0) > 300
    assert seen.get("NotJoinClosed", 0) > 10
    assert seen.get("AxiomViolation", 0) > 50
    assert seen.get("UnknownElement", 0) > 50
    assert "KeyError" not in seen
    assert seen.get("UnknownElement", 0) > 50
    assert seen.get("ok", 0) > 100
