import pytest

from contactposets import core, fraisse
from contactposets.core import (
    POSET,
    SEMILATTICE,
    ContactStructure,
    induced_substructure,
    verify_map,
)
from contactposets.enumeration import (
    AgeCatalog,
    canonical_key,
    canonical_table_key,
    carrier_subsets,
    induced_embeddings,
)
from contactposets.fraisse import (
    ABOVE_MAXIMAL,
    MISS_CAUSES,
    UNREALIZED_AT_BUDGET,
    build_limit_stage,
    check_class_properties,
    check_extension_property,
    generated_subsemilattice,
    one_point_extensions,
    stage_embeds_previous,
    trivial_stage,
)
from contactposets.gallery import m3


def reference_one_point_extensions(s, catalog):
    """Every embedding of s into each one-point-larger item, kept when
    the canonical key of the item with the copy marked pointwise is
    new."""
    out = []
    seen = set()
    for t in catalog.items:
        if t.n != s.n + 1:
            continue
        for mapping in induced_embeddings(s, t):
            colors = [0] * t.n
            for position, name in enumerate(s.names):
                colors[t.index(mapping[name])] = position + 1
            key = canonical_table_key(t.n, (t.up, t.contact), tuple(colors))[0]
            if key not in seen:
                seen.add(key)
                out.append((t, mapping))
    return out


@pytest.fixture(scope="module")
def poset_catalog_3():
    return AgeCatalog.build(3, POSET)


@pytest.fixture(scope="module")
def semilattice_catalog_3():
    return AgeCatalog.build(3, SEMILATTICE)


class TestOnePointExtensions:
    def test_two_chain_extension_classes(self, poset_catalog_3):
        two_chain = poset_catalog_3.by_size(2)[0]
        extensions = one_point_extensions(two_chain, poset_catalog_3)
        # oracle, counted by hand: the three-chain extends the copy at its
        # bottom pair and at its outer pair (inequivalent), each fork
        # target contributes one class per contact relation
        assert len(extensions) == 4
        assert len({canonical_key(t) for t, _ in extensions}) == 3

    def test_trivial_extends_to_everything_of_size_two(self, poset_catalog_3):
        trivial = poset_catalog_3.by_size(1)[0]
        extensions = one_point_extensions(trivial, poset_catalog_3)
        assert len(extensions) == 1

    def test_maximal_size_has_none(self, poset_catalog_3):
        for item in poset_catalog_3.by_size(3):
            assert one_point_extensions(item, poset_catalog_3) == []

    @pytest.mark.parametrize("kind,cap,types", [(POSET, 4, 302), (SEMILATTICE, 5, 284)])
    def test_orbits_match_marked_keys(self, kind, cap, types):
        """The same (t, into) list, in the same order, as the dedup by
        marked canonical keys it replaced."""
        catalog = AgeCatalog.build(cap + 1, kind)
        found = 0
        for s in catalog.items:
            if s.n <= cap:
                got = one_point_extensions(s, catalog)
                assert got == reference_one_point_extensions(s, catalog), s
                found += len(got)
        assert found == types


class TestStageBuilding:
    @pytest.mark.parametrize(
        "kind,max_elements,expected",
        [(POSET, 128, (128, True, 509, 425)), (SEMILATTICE, 64, (64, True, 127, 125))],
    )
    def test_pinned_stage_outputs(self, kind, max_elements, expected):
        # sizes, flags and pair counts of the stages the benchmark grows,
        # measured before the incremental extension check replaced the
        # per-candidate map check; neither kernel may move them
        catalog = AgeCatalog.build(3, kind)
        stage = build_limit_stage(kind, 2, 64, catalog=catalog, max_elements=max_elements)
        report = check_extension_property(stage, 2, catalog)
        got = (stage.structure.n, stage.budget_exceeded, report.total, report.realized)
        assert got == expected

    def test_zero_sweeps_is_trivial(self, poset_catalog_3):
        stage = build_limit_stage(POSET, 1, 0, catalog=poset_catalog_3)
        assert stage.structure.n == 1
        assert stage.log == ()

    def test_cap_one_single_sweep(self, poset_catalog_3):
        # the only size-1 item extends to the single 2-element structure
        stage = build_limit_stage(POSET, 1, 1, catalog=poset_catalog_3)
        assert stage.structure.n == 2
        assert len(stage.log) == 1

    def test_cap_one_reaches_fixpoint(self, poset_catalog_3):
        stage = build_limit_stage(POSET, 1, 10, catalog=poset_catalog_3)
        assert not stage.budget_exceeded
        report = check_extension_property(stage, 1, poset_catalog_3)
        assert report.fraction == 1.0

    def test_budget_flag(self, poset_catalog_3):
        stage = build_limit_stage(POSET, 2, 50, catalog=poset_catalog_3, max_elements=10)
        assert stage.budget_exceeded
        assert stage.structure.n <= 11

    def test_determinism(self, poset_catalog_3):
        one = build_limit_stage(POSET, 2, 3, catalog=poset_catalog_3, max_elements=24)
        two = build_limit_stage(POSET, 2, 3, catalog=poset_catalog_3, max_elements=24)
        assert one.structure == two.structure
        assert one.log == two.log

    def test_stages_grow_monotonically(self, poset_catalog_3):
        previous = build_limit_stage(POSET, 2, 1, catalog=poset_catalog_3, max_elements=30)
        current = build_limit_stage(POSET, 2, 2, catalog=poset_catalog_3, max_elements=30)
        assert stage_embeds_previous(previous, current)
        assert len(current.log) >= len(previous.log)

    def test_realizations_are_verifiable(self, poset_catalog_3):
        from contactposets.core import verify_map

        stage = build_limit_stage(POSET, 2, 2, catalog=poset_catalog_3, max_elements=30)
        for entry in stage.log:
            f = dict(entry.embedding)
            checked = verify_map(entry.sub, stage.structure, f)
            assert checked.report.is_embedding

    def test_semilattice_stage_stays_semilattice(self, semilattice_catalog_3):
        from contactposets.enumeration import is_semilattice

        stage = build_limit_stage(
            SEMILATTICE, 2, 3, catalog=semilattice_catalog_3, max_elements=40
        )
        assert stage.kind == SEMILATTICE
        assert is_semilattice(stage.structure)


class TestExtensionProperty:
    def test_trivial_stage_misses(self, poset_catalog_3):
        report = check_extension_property(trivial_stage(POSET), 1, poset_catalog_3)
        assert report.fraction < 1.0
        assert report.misses

    def test_misses_name_the_copy(self, poset_catalog_3):
        stage = build_limit_stage(POSET, 2, 1, catalog=poset_catalog_3, max_elements=30)
        report = check_extension_property(stage, 2, poset_catalog_3)
        for miss in report.misses:
            assert all(name in stage.structure.names for name in miss.image)

    def test_maximal_elements_block_full_fraction(self, poset_catalog_3):
        # a finite poset stage has a maximal element, whose two-chain copy
        # cannot realize the extension adding a strictly larger point
        stage = build_limit_stage(POSET, 2, 20, catalog=poset_catalog_3, max_elements=40)
        report = check_extension_property(stage, 2, poset_catalog_3)
        assert report.fraction < 1.0

    @pytest.mark.parametrize("kind, counts", [(POSET, (17, 28)), (SEMILATTICE, (1, 1))])
    def test_miss_causes_at_criterion_7_settings(self, kind, counts):
        catalog = AgeCatalog.build(3, kind)
        stage = build_limit_stage(kind, 2, 50, catalog=catalog, max_elements=64)
        report = check_extension_property(stage, 2, catalog)
        assert report.misses_by_cause() == dict(zip(MISS_CAUSES, counts))
        s = stage.structure
        maximal = {s.names[i] for i in range(s.n) if s.up[i] == 1 << i}
        for miss in report.misses:
            into = dict(miss.into)
            assert tuple(into) == miss.sub.names
            copy = verify_map(miss.sub, miss.extension, into)
            assert copy.report.is_embedding and copy.report.order_reflecting
            (fresh,) = set(miss.extension.names) - set(into.values())
            image = dict(zip(miss.sub.names, miss.image))
            forced = any(
                miss.extension.leq(into[name], fresh) and image[name] in maximal
                for name in miss.sub.names
            )
            assert miss.cause == (ABOVE_MAXIMAL if forced else UNREALIZED_AT_BUDGET)


class TestLocalFiniteness:
    def test_generated_subsemilattice_bound(self, semilattice_catalog_3):
        """k generators give at most 2^k elements with the bottom.  A
        stage of this size is a chain, where no closure adds a join, so
        the bound is also run on the 32-element Boolean lattice, where
        k atoms reach it."""
        from itertools import combinations

        from test_closures import _boolean_lattice

        stage = build_limit_stage(
            SEMILATTICE, 2, 2, catalog=semilattice_catalog_3, max_elements=40
        )
        for s, pool in ((stage.structure, 6), (_boolean_lattice(5), None)):
            nonbottom = [n for n in s.names if n != s.names[s.bottom]]
            largest = {}
            for k in (1, 2, 3):
                for chosen in combinations(nonbottom[:pool], k):
                    closure = generated_subsemilattice(s, chosen)
                    assert len(closure) <= 2 ** k
                    largest[k] = max(largest.get(k, 0), len(closure))
        assert largest == {1: 2, 2: 4, 3: 8}


class TestClassProperties:
    def test_poset_age_to_three(self, poset_catalog_3):
        report = check_class_properties(poset_catalog_3, ap_exhaustive_bound=3)
        assert report.ok
        assert report.ap_instances > 0

    def test_semilattice_age_to_three(self, semilattice_catalog_3):
        report = check_class_properties(semilattice_catalog_3, ap_exhaustive_bound=3)
        assert report.ok

    @pytest.mark.parametrize("kind", [POSET, SEMILATTICE])
    def test_hp_runs_no_axiom_check(self, monkeypatch, kind):
        """The HP pieces are unchecked restrictions: with the amalgam
        pipelines stubbed out, the whole report runs 0 axiom checks and
        comes out as before."""
        catalog = AgeCatalog.build(4, kind)
        want = check_class_properties(catalog)
        calls = []
        real = core.check_contact_axioms

        def counting(s, *args, **kwargs):
            calls.append(s)
            return real(s, *args, **kwargs)

        monkeypatch.setattr(core, "check_contact_axioms", counting)
        monkeypatch.setattr(fraisse, "_run_instance", lambda inst, kind: None)
        assert check_class_properties(catalog) == want
        assert calls == []

    def test_hp_failures_keep_their_message(self, poset_catalog_4):
        """A catalog without the 2-chains fails HP on every item that
        holds one, named as the checked pieces named it."""
        items = tuple(item for item in poset_catalog_4.items if item.n != 2)
        catalog = AgeCatalog(4, POSET, items)
        want = []
        for item in items:
            for size in range(1, item.n + 1):
                for subset in carrier_subsets(item, size):
                    if catalog.find(induced_substructure(item, subset)) is None:
                        want.append(
                            f"substructure {subset} of {canonical_key(item)} not in catalog"
                        )
        report = check_class_properties(catalog, ap_exhaustive_bound=0, ap_samples=0)
        assert not report.hp_ok
        assert report.hp_failures == tuple(want)
        assert "substructure ('0', 'e1') of " in want[0]

    def test_hp_witness_chain_inside_m3(self, poset_catalog_4):
        from contactposets.core import induced_substructure

        piece = induced_substructure(m3("overlap"), ["0", "a", "1"])
        poset_piece = ContactStructure(
            piece.names, piece.bottom, piece.up, piece.contact, POSET
        )
        assert poset_catalog_4.find(poset_piece) is not None

    def test_jep_sizes(self, poset_catalog_3):
        # joint embedding never identifies anything beyond the bottom
        from contactposets.amalgam import AmalgamInstance, contact_amalgam

        two_chain = poset_catalog_3.by_size(2)[0]
        fork = poset_catalog_3.by_size(3)[1]
        c = ContactStructure(("0",), 0, (1,), (0,), POSET)
        inst = AmalgamInstance.from_embeddings(
            two_chain, fork, c, {"0": "0"}, {"0": "0"}
        )
        assert contact_amalgam(inst).n == 4
