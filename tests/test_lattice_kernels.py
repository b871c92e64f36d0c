"""Differential tests of the table-driven lattice kernels.

``core.meet_table`` answers meets by down-row lookup; the enumeration's
lattice predicates read the join and meet of every pair off one table
pair, and the gallery's lattice embeddings are the memoised embedding
table of the contact-free orders, filtered by meets; the additive embedding
search kept in ``additive_search`` walks ``induced_embeddings``; and
``represent._check_cut_bounds`` walks the subsets depth-first, carrying
bounds on both sides.  Each is compared here with the per-call scan it
replaced, kept below as the reference.
"""

import random
from dataclasses import replace
from itertools import combinations, permutations

import pytest

import additive_search
from contactposets.core import (
    POSET,
    SEMILATTICE,
    ContactStructure,
    bits,
    join_table,
    meet_table,
    overlap_relation,
    verify_map,
)
from contactposets.enumeration import (
    AgeCatalog,
    enumerate_distributive_lattices,
    is_distributive,
    is_lattice,
    lattice_operations,
)
from contactposets.errors import AxiomViolation
from contactposets.gallery import (
    _lattice_zero_embeddings,
    check_distributive_amalgam_failure,
    failure_instance,
    m3,
)
from contactposets.represent import (
    _check_cut_bounds,
    macneille_completion,
    overlap_semilattice_embedding,
)
from additive_search import _search_embedding, search_additive_overlap_embeddings
from join_scans import join_index, subset_join
from sublattice_oracle import _is_m3_or_n5, is_distributive_by_sublattices


# ---------------------------------------------------------------------------
# the references: the per-call scans the tables replaced


def reference_meet_index(s, i, j):
    """The greatest common lower bound, rebuilding the down-rows."""
    down = s.down_masks()
    common = down[i] & down[j]
    for k in bits(common):
        if common & ~down[k] == 0:
            return k
    return None


def reference_is_lattice(s):
    return all(
        join_index(s, i, j) is not None and reference_meet_index(s, i, j) is not None
        for i in range(s.n)
        for j in range(i + 1, s.n)
    )


def reference_is_distributive(s):
    if not reference_is_lattice(s):
        return False
    meet = reference_meet_index
    for a in range(s.n):
        for b in range(s.n):
            for c in range(s.n):
                left = meet(s, a, join_index(s, b, c))
                right = join_index(s, meet(s, a, b), meet(s, a, c))
                if left != right:
                    return False
    return True


def reference_is_distributive_by_sublattices(s):
    if not reference_is_lattice(s):
        return False
    for quint in combinations(range(s.n), 5):
        closed = all(
            join_index(s, a, b) in quint and reference_meet_index(s, a, b) in quint
            for a in quint
            for b in quint
        )
        if not closed:
            continue
        sub = [[bool(s.up[a] >> b & 1) for b in quint] for a in quint]
        if _is_m3_or_n5(sub):
            return False
    return True


def reference_full_lattice_check(a, d, assignment):
    for i in range(a.n):
        for j in range(a.n):
            ja, ma = join_index(a, i, j), reference_meet_index(a, i, j)
            if ja is None or ma is None:
                return False
            if join_index(d, assignment[i], assignment[j]) != assignment[ja]:
                return False
            if reference_meet_index(d, assignment[i], assignment[j]) != assignment[ma]:
                return False
    return len(set(assignment)) == a.n and assignment[a.bottom] == d.bottom


def reference_lattice_zero_embeddings(a, d):
    slots = [i for i in range(a.n) if i != a.bottom]
    others = [i for i in range(d.n) if i != d.bottom]
    for image in permutations(others, len(slots)):
        assignment = [d.bottom] * a.n
        for slot, target in zip(slots, image):
            assignment[slot] = target
        if reference_full_lattice_check(a, d, assignment):
            yield tuple(assignment)


def permutation_lattice_zero_embeddings(a, d):
    """The search as a loop over itertools.permutations of the targets,
    each candidate checked on every pair by table lookups."""
    operations = lattice_operations(a)
    if operations is None:
        return
    a_join, a_meet = operations
    d_joins, d_meets = join_table(d), meet_table(d)
    d_up, d_down = d.up, d.down_masks()
    pairs = [
        (i, j, a_join[i][j], a_meet[i][j])
        for i in range(a.n)
        for j in range(i + 1, a.n)
    ]
    slots = [i for i in range(a.n) if i != a.bottom]
    others = [i for i in range(d.n) if i != d.bottom]
    for image in permutations(others, len(slots)):
        f = [d.bottom] * a.n
        for slot, target in zip(slots, image):
            f[slot] = target
        if all(
            d_joins.get(d_up[f[i]] & d_up[f[j]]) == f[join]
            and d_meets.get(d_down[f[i]] & d_down[f[j]]) == f[meet]
            for i, j, join, meet in pairs
        ):
            yield tuple(f)


def reference_search_embedding(source, target):
    for image in permutations(range(target.n), source.n):
        mapping = {source.names[i]: target.names[image[i]] for i in range(source.n)}
        if verify_map(source, target, mapping).report.is_embedding:
            return True
    return False


def _greatest_of(rows, mask):
    for i in bits(mask):
        if mask & ~rows[i] == 0:
            return i
    return None


def reference_cut_bounds(s, family, down, meet_in_target=True):
    """The subset_join scan over every subset in increasing mask order.

    With meet_in_target the meet half compares the target's meet of the
    images with the image of the source's meet.  Without it, it is the
    old meet half, which compared the source's own down-rows with each
    other and so could never fail.
    """
    target = family.structure
    t_down = target.down_masks()
    pos = {mask: i for i, mask in enumerate(family.sets)}
    for subset in range(1 << s.n):
        chosen = list(bits(subset))
        join = subset_join(s, subset)
        if join is not None:
            images = 0
            for a in chosen:
                images |= 1 << pos[down[a]]
            if subset_join(target, images) != pos[down[join]]:
                raise AxiomViolation(
                    f"completion lost the join of {[s.names[a] for a in chosen]}"
                )
        lb = s.full_mask
        for a in chosen:
            lb &= down[a]
        meet = _greatest_of(down, lb)
        if meet is None or not chosen:
            continue
        if meet_in_target:
            t_lb = target.full_mask
            for a in chosen:
                t_lb &= t_down[pos[down[a]]]
            lost = _greatest_of(t_down, t_lb) != pos[down[meet]]
        else:
            lost = lb != down[meet]
        if lost:
            raise AxiomViolation(
                f"completion lost the meet of {[s.names[a] for a in chosen]}"
            )


def _outcome(check, *args, **kwargs):
    try:
        check(*args, **kwargs)
    except AxiomViolation as exc:
        return str(exc)
    return None


# ---------------------------------------------------------------------------
# carriers


def _carriers(*catalogs):
    """One structure per distinct order table: meets and the lattice
    predicates read only the order."""
    seen = {}
    for catalog in catalogs:
        for item in catalog.items:
            seen.setdefault(item.up, item)
    return list(seen.values())


@pytest.fixture(scope="module")
def carriers(poset_catalog_6, semilattice_catalog_6):
    out = _carriers(poset_catalog_6, semilattice_catalog_6)
    out += list(enumerate_distributive_lattices(8))
    out += [m3("overlap")]
    return out


# ---------------------------------------------------------------------------
# meet_table


def test_meet_table_matches_scan_on_catalogs(carriers):
    missing = 0
    for s in carriers:
        table, down = meet_table(s), s.down_masks()
        for i in range(s.n):
            for j in range(s.n):
                want = reference_meet_index(s, i, j)
                assert table.get(down[i] & down[j]) == want
                missing += want is None
    assert missing > 0  # non-lattices, where a meet is missing, are covered


def test_meet_table_keeps_lowest_index_on_duplicate_rows():
    s = ContactStructure(("p", "q"), 0, (0b11, 0b11), (0, 0), POSET)
    assert meet_table(s) == {0b11: 0}


# ---------------------------------------------------------------------------
# lattice predicates


def test_lattice_predicates_match_scans(carriers):
    lattices = distributive = 0
    for s in carriers:
        lattice = reference_is_lattice(s)
        assert is_lattice(s) == lattice
        assert is_distributive(s) == reference_is_distributive(s)
        assert is_distributive_by_sublattices(s) == (
            reference_is_distributive_by_sublattices(s)
        )
        lattices += lattice
        distributive += is_distributive(s)
    assert 0 < distributive < lattices < len(carriers)


# ---------------------------------------------------------------------------
# the gallery's lattice-embedding search


@pytest.mark.parametrize("side", ["a", "b"])
def test_lattice_zero_embeddings_match_scan(side):
    source = getattr(failure_instance(SEMILATTICE), side)
    found = 0
    for lattice in enumerate_distributive_lattices(8):
        got = list(_lattice_zero_embeddings(source, lattice))
        assert got == list(reference_lattice_zero_embeddings(source, lattice))
        found += len(got)
    assert found > 0


def test_lattice_zero_embeddings_match_scan_from_every_small_lattice(
    semilattice_catalog_6,
):
    """Every lattice <= 5 as the source, against the distributive
    lattices <= 6 and the three-atom lattice."""
    sources = [
        s
        for s in _carriers(semilattice_catalog_6)
        if s.n <= 5 and reference_is_lattice(s)
    ]
    targets = list(enumerate_distributive_lattices(6)) + [m3("overlap")]
    found = 0
    for source in sources:
        for target in targets:
            got = list(_lattice_zero_embeddings(source, target))
            assert got == list(reference_lattice_zero_embeddings(source, target))
            found += len(got)
    assert found > 0


def test_pruned_search_matches_permutation_loop_on_gallery_lattices():
    """Every lattice pair the gallery scans at bound 6 and failure bound
    8: both sides of the failure instance and every distributive lattice
    <= 6 as the source, every distributive lattice <= 8 as the target.
    Same tuples in the same order."""
    targets = enumerate_distributive_lattices(8)
    sources = [
        failure_instance(SEMILATTICE).a,
        failure_instance(SEMILATTICE).b,
        *enumerate_distributive_lattices(6),
    ]
    found = 0
    for source in sources:
        for target in targets:
            got = list(_lattice_zero_embeddings(source, target))
            assert got == list(permutation_lattice_zero_embeddings(source, target))
            found += len(got)
    assert found > 1000


def test_lattice_zero_embeddings_of_a_non_lattice_is_empty(v_overlap):
    for lattice in enumerate_distributive_lattices(5):
        assert list(_lattice_zero_embeddings(v_overlap, lattice)) == []
        assert list(reference_lattice_zero_embeddings(v_overlap, lattice)) == []


def test_distributive_amalgam_failure_counts_pinned():
    report = check_distributive_amalgam_failure(8)
    assert (
        report.lattices_scanned,
        report.candidate_pairs,
        report.identifications,
        report.amalgams_found,
    ) == (36, 50, 50, 0)
    assert report.ok


# ---------------------------------------------------------------------------
# the additive embedding search


def test_search_embedding_matches_verify_map_scan(semilattice_catalog_6):
    """Seeded pairs of semilattices, sources <= 5 and targets <= 6 with
    their catalog contact or their overlap contact."""
    sources = [item for item in semilattice_catalog_6.items if item.n <= 5]
    targets = list(semilattice_catalog_6.items)
    targets += [t.with_contact(overlap_relation(t)) for t in targets]
    pairs = [(s, t) for s in sources for t in targets if s.n <= t.n]
    hits = 0
    for source, target in random.Random(6).sample(pairs, 300):
        want = reference_search_embedding(source, target)
        assert _search_embedding(source, target) == want
        hits += want
    assert 0 < hits < 300


@pytest.mark.parametrize("bounds", [(3, 5), (4, 6)])
def test_additive_search_reports_unchanged(bounds, monkeypatch):
    got = search_additive_overlap_embeddings(*bounds)
    monkeypatch.setattr(additive_search, "_search_embedding", reference_search_embedding)
    assert got == search_additive_overlap_embeddings(*bounds)


# ---------------------------------------------------------------------------
# the cut-bound check


@pytest.fixture(scope="module")
def completions(semilattice_catalog_6):
    """(source, completion): for every semilattice <= 6 the stage-one
    structure and its completion, as complete_lattice_embedding builds
    them, then every poset <= 5 completed directly."""
    out = []
    for item in semilattice_catalog_6.items:
        family, _ = overlap_semilattice_embedding(item)
        completion, _ = macneille_completion(family.structure)
        out.append((family.structure, completion))
    for item in AgeCatalog.build(5, POSET).items:
        out.append((item, macneille_completion(item)[0]))
    return out


def test_cut_check_accepts_every_completion(completions):
    for s, completion in completions:
        down = s.down_masks()
        assert _outcome(_check_cut_bounds, s, completion, down) is None
        assert _outcome(reference_cut_bounds, s, completion, down) is None


def _is_partial_order(up):
    for i, row in enumerate(up):
        if not row >> i & 1:
            return False
        for j in bits(row & ~(1 << i)):
            if up[j] >> i & 1 or up[j] & ~row:
                return False
    return True


def _perturbed(completion, rng):
    """The completion with its target doctored: one up-row bit flipped
    (kept only while the rows stay a partial order) or two non-bottom
    positions swapped, which leaves a lattice whose rows no longer sit
    at the positions of their cuts."""
    t = completion.structure
    if rng.random() < 0.5:
        i, j = rng.randrange(t.n), rng.randrange(t.n)
        up = list(t.up)
        up[i] ^= 1 << j
        if not _is_partial_order(up):
            return None
        doctored = replace(t, up=tuple(up))
    else:
        if t.n < 3:
            return None
        i, j = rng.sample(range(1, t.n), 2)
        perm = list(range(t.n))
        perm[i], perm[j] = j, i
        doctored = t.relabel(perm)
    return replace(completion, structure=doctored)


def test_cut_check_matches_reference_on_perturbed_targets(completions):
    """On a target whose rows are a partial order the row lookups and the
    least/greatest-element scans answer the same question, so the two
    checks must report the same first failure."""
    rng = random.Random(20240606)
    seen = {"join": 0, "meet": 0, None: 0}
    for _ in range(3000):
        s, completion = rng.choice(completions)
        doctored = _perturbed(completion, rng)
        if doctored is None:
            continue
        down = s.down_masks()
        got = _outcome(_check_cut_bounds, s, doctored, down)
        assert got == _outcome(reference_cut_bounds, s, doctored, down)
        seen[got and got.split()[3]] += 1
    assert min(seen.values()) > 0, seen


def test_cut_check_reads_the_target_meet(v_overlap):
    """A doctored target in which a < b: the meet of the images of a and
    b is then a's image, not the bottom's.  No join of a subset of the V
    is touched, so the old meet half, which compared the source with
    itself, let it through."""
    completion, _ = macneille_completion(v_overlap)
    t = completion.structure
    a = completion.position_of(0b011)
    b = completion.position_of(0b101)
    up = list(t.up)
    up[a] |= 1 << b
    doctored = replace(completion, structure=replace(t, up=tuple(up)))
    down = v_overlap.down_masks()
    assert _outcome(
        reference_cut_bounds, v_overlap, doctored, down, meet_in_target=False
    ) is None
    with pytest.raises(AxiomViolation, match=r"completion lost the meet of \['a', 'b'\]"):
        _check_cut_bounds(v_overlap, doctored, down)
