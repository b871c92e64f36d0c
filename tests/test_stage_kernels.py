"""Differential tests of the kernels on the limit-stage path.

The fused axiom pass checks Sym with one half walk and leaves the second
half of Ext to Sym plus the first half, the two order-table checks share
``core.order_failure``, ``is_semilattice_order`` reads a join table, and
set families (cut lattices included) build their inclusion and small
overlap tables from holder masks.  Each is compared here with the loop
it replaced, kept below as the reference.  A digest pins the outputs of
both limit-stage legs.

A growth step of a limit stage goes through ``amalgam._grow``, which
builds the fresh point's row and column only and checks only the tuples
that hold it.  It is compared with ``contact_amalgam`` on every
one-point gluing of at most 4 points and on every growth step of the
stages below, and its checks with ``contact_amalgam``'s on its result
with one bit flipped.
"""

import hashlib
import random

import pytest

from contactposets import amalgam, fraisse, represent
from contactposets.core import (
    POSET,
    SEMILATTICE,
    BottomlessContact,
    ContactStructure,
    _check_order_tables,
    _contact_witnesses,
    _rows_valid,
    bits,
    check_bottomless_axioms,
    check_contact_axioms,
    is_semilattice_order,
    order_failure,
)
from contactposets.enumeration import AgeCatalog, enumerate_posets_with_bottom
from contactposets.errors import AxiomViolation, CycleError
from contactposets.events import enumerate_event_structures, event_to_contact
from contactposets.fraisse import (
    build_limit_stage,
    check_extension_property,
    iter_gluings,
)
from contactposets.represent import (
    complete_lattice_embedding,
    join_preserving_embedding,
    overlap_of_family,
    overlap_poset_embedding,
    overlap_semilattice_embedding,
    powerset_embedding,
)
from join_scans import join_index


# ---------------------------------------------------------------------------
# references: the loops the kernels replaced


def reference_rows_valid(up, contact, bottom):
    """The fused pass before the half walk: Sym and the second half of
    Ext in one loop over every contact bit."""
    if bottom is not None and contact[bottom]:
        return False
    for i, row in enumerate(contact):
        if i == bottom:
            continue
        if not row >> i & 1:
            return False
        need = row | up[i]
        for a1 in bits(up[i]):
            if need & ~contact[a1]:
                return False
        for j in bits(row):
            if not contact[j] >> i & 1 or up[j] & ~row:
                return False
    return True


def reference_bottomless_all_pass(b):
    """Sym, both halves of Ext and Ref*, one law at a time."""
    n = b.n
    sym = all(b.contact[j] >> i & 1 for i in range(n) for j in bits(b.contact[i]))
    ext_up = all(
        not b.contact[a] & ~b.contact[a1] for a in range(n) for a1 in bits(b.up[a])
    )
    ext_rows = all(
        not b.up[k] & ~b.contact[a] for a in range(n) for k in bits(b.contact[a])
    )
    ref = all(b.contact[i] >> i & 1 for i in range(n))
    return sym and ext_up and ext_rows and ref


def reference_check_order_tables(up, bottom):
    n = len(up)
    full = (1 << n) - 1
    for i in range(n):
        if not up[i] >> i & 1:
            raise AxiomViolation(f"order not reflexive at index {i}")
        for j in bits(up[i]):
            if j != i and up[j] >> i & 1:
                raise CycleError(f"antisymmetry violated at indices {i}, {j}")
            if up[i] | up[j] != up[i]:
                raise AxiomViolation(f"order not transitive at indices {i}, {j}")
    if up[bottom] != full:
        raise AxiomViolation("bottom is not below every element")


def reference_assert_partial_order(up, names):
    for i, row in enumerate(up):
        above = row
        while above:
            low = above & -above
            j = low.bit_length() - 1
            if j != i and up[j] >> i & 1:
                raise AxiomViolation(
                    f"amalgam order not antisymmetric at {names[i]!r}, {names[j]!r}"
                )
            if row | up[j] != row:
                raise AxiomViolation(
                    f"amalgam order not transitive at {names[i]!r}, {names[j]!r}"
                )
            above ^= low


def reference_is_semilattice_order(s):
    return all(
        join_index(s, i, j) is not None
        for i in range(s.n)
        for j in range(i + 1, s.n)
    )


def reference_inclusion(sets):
    m = len(sets)
    up = [0] * m
    for i, small in enumerate(sets):
        for j, big in enumerate(sets):
            if small & ~big == 0:
                up[i] |= 1 << j
    return up


def reference_overlap(sets):
    """The direct witness scan of overlap_of_family's small branch."""
    m = len(sets)
    rows = [0] * m
    for i in range(m):
        for j in range(i, m):
            both = sets[i] & sets[j]
            if both and any(q and q & ~both == 0 for q in sets):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def raised(check, *args):
    """(type, message) of what check raises, or None."""
    try:
        check(*args)
    except (AxiomViolation, CycleError) as exc:
        return type(exc), str(exc)
    return None


# ---------------------------------------------------------------------------
# inputs


@pytest.fixture(scope="module")
def final_stages():
    """Both limit-stage legs at their benchmark settings: cap 2, 64
    sweeps, catalogs up to 3 elements, poset to 128 and semilattice to
    64 elements."""
    out = {}
    for kind, max_elements in ((POSET, 128), (SEMILATTICE, 64)):
        catalog = AgeCatalog.build(3, kind)
        stage = build_limit_stage(kind, 2, 64, catalog=catalog,
                                  max_elements=max_elements)
        out[kind] = (stage, check_extension_property(stage, 2, catalog=catalog))
    return out


@pytest.fixture(scope="module")
def contact_items():
    return (
        AgeCatalog.build(6, POSET).items
        + AgeCatalog.build(7, SEMILATTICE).items
    )


@pytest.fixture(scope="module")
def event_duals():
    return [event_to_contact(e) for e in enumerate_event_structures(4)]


def flipped(rows, rng, symmetric):
    """rows with one random bit flipped, or with two: a symmetric pair
    (i, j) and (j, i) when symmetric, else a second random bit."""
    rows = list(rows)
    n = len(rows)
    i, j = rng.randrange(n), rng.randrange(n)
    rows[i] ^= 1 << j
    if symmetric is None:
        return rows
    if symmetric:
        if i != j:
            rows[j] ^= 1 << i
    else:
        k, m = rng.randrange(n), rng.randrange(n)
        rows[k] ^= 1 << m
    return rows


# ---------------------------------------------------------------------------
# the stage path end to end


STAGE_DIGESTS = {
    # sha256 of repr(stage) and of (total, realized, (sub, image,
    # extension) per miss), recorded before the kernels on this path
    # were rewritten.
    POSET: "7642b59cf677a2c4ff77f3b41e95a5d1b83b1b7fdc091e58a44df703cc0307bc",
    SEMILATTICE: "408211dd78027cef0c6d251790677ea94a06dae87b8100fcb9c0af538ce3f4ed",
}


@pytest.mark.parametrize("kind", [POSET, SEMILATTICE])
def test_stage_outputs_unchanged(final_stages, kind):
    stage, report = final_stages[kind]
    misses = tuple((m.sub, m.image, m.extension) for m in report.misses)
    text = repr(stage) + "\n" + repr((report.total, report.realized, misses))
    assert hashlib.sha256(text.encode()).hexdigest() == STAGE_DIGESTS[kind]


def test_stage_path_builds_no_provenance(monkeypatch):
    """The limit stages and the semilattice amalgam read a family's
    masks and rows only.  With represent.Origin refusing to be built, a
    semilattice stage grows to 32 elements and every gluing of
    semilattices up to 3 elements amalgamates; reading a family's
    provenance then fails, so the refusal is in force."""

    def refuse(*args):
        raise AssertionError("provenance built")

    monkeypatch.setattr(represent, "Origin", refuse)
    catalog = AgeCatalog.build(3, SEMILATTICE)
    stage = build_limit_stage(SEMILATTICE, 2, 64, catalog=catalog, max_elements=32)
    assert (stage.structure.n, len(stage.log), stage.budget_exceeded) == (32, 31, True)
    amalgams = []
    for a in catalog.items:
        for b in catalog.items:
            for inst in iter_gluings(a, b):
                amalgams.append(amalgam.semilattice_amalgam(inst))
    assert len(amalgams) == 19
    assert all(result.superamalgamation.ok for result in amalgams)
    with pytest.raises(AssertionError, match="provenance built"):
        amalgams[-1].family.provenance


def test_semilattice_amalgam_validates_the_amalgam_once(monkeypatch):
    """contact_amalgam checks d; the family builder does not check it
    again, while the public join_preserving_embedding still checks its
    own input."""
    catalog = AgeCatalog.build(3, SEMILATTICE)
    a, b = catalog.items[-1], catalog.items[-2]
    inst = next(iter_gluings(a, b))
    expected = amalgam.semilattice_amalgam(inst)

    def refuse(s):
        raise AssertionError("re-validated an amalgam")

    monkeypatch.setattr(represent, "_require_valid", refuse)
    assert amalgam.semilattice_amalgam(inst) == expected
    with pytest.raises(AssertionError):
        join_preserving_embedding(expected.poset_amalgam)


# ---------------------------------------------------------------------------
# the fused axiom pass


def test_rows_valid_on_catalogs(contact_items):
    for s in contact_items:
        assert all(c.passed for c in _contact_witnesses(s))
        assert _rows_valid(s.up, s.contact, s.bottom)
        assert reference_rows_valid(s.up, s.contact, s.bottom)


def test_rows_valid_on_event_duals(event_duals):
    assert len(event_duals) == 79
    for b in event_duals:
        assert reference_bottomless_all_pass(b)
        assert _rows_valid(b.up, b.contact, None)


def test_rows_valid_on_final_stages(final_stages):
    sizes = []
    for stage, _ in final_stages.values():
        s = stage.structure
        sizes.append(s.n)
        assert all(c.passed for c in _contact_witnesses(s))
        assert _rows_valid(s.up, s.contact, s.bottom)
    assert sorted(sizes) == [64, 128]


def test_rows_valid_on_seeded_flips(contact_items, event_duals, final_stages):
    """One- and two-bit contact flips: the pass says yes exactly when the
    per-law loops all pass.  Half the structures are relabelled first, so
    the bottom sits at every position."""
    rng = random.Random(7007)
    stages = [stage.structure for stage, _ in final_stages.values()]
    verdicts = {True: 0, False: 0}
    sym_only_failures = 0
    for trial in range(6000):
        symmetric = (None, True, False)[trial % 3]
        if trial % 10 == 9:
            b = rng.choice([b for b in event_duals if b.n])
            contact = flipped(b.contact, rng, symmetric)
            mutant = BottomlessContact(b.names, b.up, tuple(contact))
            expected = reference_bottomless_all_pass(mutant)
            assert _rows_valid(mutant.up, mutant.contact, None) == expected
            assert check_bottomless_axioms(mutant).ok == expected
        else:
            s = rng.choice(stages) if trial % 100 == 0 else rng.choice(contact_items)
            if trial % 2:
                perm = list(range(s.n))
                rng.shuffle(perm)
                s = s.relabel(perm)
            mutant = s.with_contact(flipped(s.contact, rng, symmetric))
            expected = all(c.passed for c in _contact_witnesses(mutant))
            assert _rows_valid(mutant.up, mutant.contact, mutant.bottom) == expected
            assert reference_rows_valid(
                mutant.up, mutant.contact, mutant.bottom) == expected
            assert check_contact_axioms(mutant).ok == expected
            failed = [c.axiom for c in _contact_witnesses(mutant) if not c.passed]
            sym_only_failures += "Sym" not in failed and bool(failed)
        verdicts[expected] += 1
    assert verdicts[True] > 200 and verdicts[False] > 3000
    assert sym_only_failures > 500


# ---------------------------------------------------------------------------
# one order-table checker


def test_order_failure_matches_both_loops():
    tables = []
    for n in range(1, 7):
        for up in enumerate_posets_with_bottom(n):
            tables.append(list(up))
            for i in range(n):
                for j in range(n):
                    mutant = list(up)
                    mutant[i] ^= 1 << j
                    tables.append(mutant)
    kinds = {None: 0, "reflexive": 0, "antisymmetric": 0, "transitive": 0}
    for up in tables:
        failure = order_failure(up)
        kinds[None if failure is None else failure[2]] += 1
        assert raised(_check_order_tables, up, 0) == raised(
            reference_check_order_tables, up, 0)
        names = [f"x{i}" for i in range(len(up))]
        if all(row >> i & 1 for i, row in enumerate(up)):
            assert raised(amalgam._assert_partial_order, up, names) == raised(
                reference_assert_partial_order, up, names)
    assert len(tables) > 2500
    assert all(count > 50 for count in kinds.values())


# ---------------------------------------------------------------------------
# semilattice orders by join table


def test_is_semilattice_order_matches_join_index():
    seen = {True: 0, False: 0}
    for n in range(1, 8):
        for up in enumerate_posets_with_bottom(n):
            names = tuple(f"e{i}" for i in range(n))
            s = ContactStructure(names, 0, up, (0,) * n, POSET)
            verdict = is_semilattice_order(s)
            assert verdict == reference_is_semilattice_order(s)
            seen[verdict] += 1
    assert seen[True] > 50 and seen[False] > 300


# ---------------------------------------------------------------------------
# set families by rows


def _families():
    """Every family the prop2, cor3 and 4a constructions build over the
    poset catalog (4a up to 4 elements) and prop2 over the semilattice
    catalog up to 6 elements."""
    for s in AgeCatalog.build(5, POSET).items:
        yield overlap_poset_embedding(s)[0]
        yield join_preserving_embedding(s)[0]
        if s.n <= 4:
            yield powerset_embedding(s)[0]
    for s in AgeCatalog.build(6, SEMILATTICE).items:
        yield overlap_semilattice_embedding(s)[0]


def test_family_tables_match_scans():
    rng = random.Random(11)
    small = 0
    for family in _families():
        sets = list(family.sets)
        assert list(family.structure.up) == reference_inclusion(sets)
        if len(sets) <= 64:
            small += 1
            assert list(family.structure.contact) == reference_overlap(sets)
            assert overlap_of_family(sets) == reference_overlap(sets)
            rng.shuffle(sets)
            assert overlap_of_family(sets) == reference_overlap(sets)
    assert small > 200


def test_cut_family_inclusion_matches_scan():
    """The completions by cuts (4b) build their order from holder masks
    too; their least cut need not be empty."""
    for s in AgeCatalog.build(6, SEMILATTICE).items:
        family = complete_lattice_embedding(s)[0]
        assert list(family.structure.up) == reference_inclusion(list(family.sets))


# ---------------------------------------------------------------------------
# the one-point growth kernel


def test_grow_matches_contact_amalgam_on_one_point_gluings():
    """Every labelled gluing of at most 4 points of both kinds in which
    B has one point outside C."""
    seen = {POSET: 0, SEMILATTICE: 0}
    for kind in seen:
        items = AgeCatalog.build(4, kind).items
        for a in items:
            for b in items:
                for inst in iter_gluings(a, b):
                    if inst.b.n == inst.c.n + 1:
                        assert amalgam._grow(inst) == amalgam.contact_amalgam(inst)
                        seen[kind] += 1
    assert seen == {POSET: 896, SEMILATTICE: 86}


GROWTH_SETTINGS = [
    # kind, catalog bound, cap, sweeps, max_elements, final size
    pytest.param(POSET, 3, 2, 50, 64, 64, id="criterion-7-poset"),
    pytest.param(SEMILATTICE, 3, 2, 50, 64, 64, id="criterion-7-semilattice"),
    pytest.param(POSET, 3, 2, 64, 128, 128, id="bench-poset"),
    pytest.param(SEMILATTICE, 3, 2, 64, 64, 64, id="bench-semilattice"),
    pytest.param(POSET, 3, 2, 9, 10_000, 370, id="sweep-chain-cap-2"),
    pytest.param(POSET, 4, 3, 3, 10_000, 42, id="sweep-chain-cap-3"),
]


@pytest.mark.parametrize("kind,bound,cap,sweeps,max_elements,size", GROWTH_SETTINGS)
def test_grow_matches_contact_amalgam_on_growth_steps(
    monkeypatch, kind, bound, cap, sweeps, max_elements, size
):
    steps = []

    def compared(inst):
        grown = amalgam._grow(inst)
        assert grown == amalgam.contact_amalgam(inst)
        steps.append(inst)
        return grown

    monkeypatch.setattr(fraisse, "_grow", compared)
    catalog = AgeCatalog.build(bound, kind)
    stage = build_limit_stage(kind, cap, sweeps, catalog=catalog,
                              max_elements=max_elements)
    assert stage.structure.n == size
    assert len(steps) == len(stage.log) == size - 1


def reference_amalgam_checks(inst, names, up, contact):
    """contact_amalgam's checks after _glue on the rows given, the
    inclusions read by name: the first order failure, then the axioms,
    then both sides' rows and bottoms at their names."""
    amalgam._assert_partial_order(up, names)
    bottom = inst.a.index(inst.c.names[inst.c.bottom])
    result = ContactStructure(tuple(names), bottom, tuple(up), tuple(contact), POSET)
    report = check_contact_axioms(result)
    if not report.ok:
        raise AxiomViolation("amalgamated contact failed the axioms", report)
    for side in (inst.a, inst.b):
        at = [result.index(name) for name in side.names]
        if at[side.bottom] != bottom or any(
            (up[at[i]] >> at[j] & 1) != (side.up[i] >> j & 1)
            or (contact[at[i]] >> at[j] & 1) != (side.contact[i] >> j & 1)
            for i in range(side.n)
            for j in range(side.n)
        ):
            raise AxiomViolation(INCLUSION)
    return result


INCLUSION = "inclusion into the amalgam is not an embedding"


def raised_with_report(check, *args):
    """(type, message, report) of the AxiomViolation check raises, or
    None."""
    try:
        check(*args)
    except AxiomViolation as exc:
        return type(exc), str(exc), exc.report
    return None


def _growth_steps(monkeypatch, kind, max_elements, count, seed):
    """count seeded growth steps of a cap-2 stage, as (instance, grown),
    chosen among the steps onto at least 8 points."""
    steps = []

    def kept(inst):
        grown = amalgam._grow(inst)
        steps.append((inst, grown))
        return grown

    monkeypatch.setattr(fraisse, "_grow", kept)
    build_limit_stage(kind, 2, 64, catalog=AgeCatalog.build(3, kind),
                      max_elements=max_elements)
    monkeypatch.undo()
    return random.Random(seed).sample(steps[7:], count)


def test_grow_checks_match_contact_amalgam_on_flipped_bits(monkeypatch):
    """Each bit of x's up row, x's up column (an S up-row at x's bit),
    x's contact row and x's contact column, flipped alone on seeded
    growth steps, and each pair of x's contact row and column flipped
    together, which passes Sym and so reaches the later laws: _grown
    raises exactly what contact_amalgam's checks raise on the same
    rows, and each x-tuple check says no exactly when the full check
    does.  A flip of an S row off x's bit breaks S's own tuples, which
    the x-tuple checks skip: both raise, and mostly the inclusion
    compare is what catches it."""
    outcomes = {}
    steps = (_growth_steps(monkeypatch, POSET, 128, 4, 2711)
             + _growth_steps(monkeypatch, SEMILATTICE, 64, 4, 2712))
    rng = random.Random(2713)
    for inst, grown in steps:
        names, x, bottom = grown.names, grown.n - 1, grown.bottom
        into_b = [grown.index(name) for name in inst.b.names]
        flips = [
            (target, table, row, column)
            for target, table, lines in (
                ("up row", "up", [(x, j) for j in range(grown.n)]),
                ("up column", "up", [(i, x) for i in range(x)]),
                ("contact row", "contact", [(x, j) for j in range(grown.n)]),
                ("contact column", "contact", [(i, x) for i in range(x)]),
                ("contact pair", "contact", [(x, j) for j in range(x)]),
                ("S row", rng.choice(["up", "contact"]),
                 [(rng.randrange(x), rng.randrange(x)) for _ in range(4)]),
            )
            for row, column in lines
        ]
        for target, table, row, column in flips:
            rows = {"up": list(grown.up), "contact": list(grown.contact)}
            rows[table][row] ^= 1 << column
            if target == "contact pair":
                rows[table][column] ^= 1 << row
            up, contact = rows["up"], rows["contact"]
            expected = raised_with_report(reference_amalgam_checks, inst, names, up, contact)
            got = raised_with_report(amalgam._grown, inst, names, up, contact, into_b)
            if target == "S row":
                assert expected is not None and got is not None
            else:
                assert got == expected
                order = amalgam._order_through(up, x)
                assert order == (order_failure(up) is None)
                if order:
                    assert amalgam._laws_through(up, contact, x, bottom) == (
                        _rows_valid(up, contact, bottom))
            key = (target, None if got is None else got[1].split(" at ")[0])
            outcomes[key] = outcomes.get(key, 0) + 1
    for target in ("up row", "up column", "contact row", "contact column", "contact pair"):
        assert outcomes.get((target, None), 0) < sum(
            count for (t, _), count in outcomes.items() if t == target)
    messages = {message for _, message in outcomes}
    assert messages >= {
        None,
        "amalgam order not reflexive",
        "amalgam order not antisymmetric",
        "amalgam order not transitive",
        "amalgamated contact failed the axioms",
        INCLUSION,
    }
    assert outcomes[("S row", INCLUSION)] > 16
