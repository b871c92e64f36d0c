"""Finite approximation of the homogeneous limits and the class checks.

Stages grow by amalgamating one-point extensions over embedded copies of
small substructures.  The limits themselves are infinite; a stage only
witnesses which extensions have been realized so far, and the extension
property check reports the honest fraction over the current structure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

from .amalgam import (
    AmalgamInstance,
    _grow,
    _grow_semilattice,
    contact_amalgam,
    semilattice_amalgam,
    verify_superamalgamation,
)
from .core import (
    POSET,
    SEMILATTICE,
    ContactStructure,
    _glued_apart,
    _restriction,
    bits,
    close_under,
    join_table,
    verify_map,
)
from .enumeration import (
    AgeCatalog,
    _carrier_positions,
    _embedding_table,
    _gluings,
    _rows,
    automorphisms,
    canonical_key,
)
from .errors import PreconditionViolation


# ---------------------------------------------------------------------------
# one-point extensions


def one_point_extensions(
    s: ContactStructure, catalog: AgeCatalog
) -> list[tuple[ContactStructure, dict[str, str]]]:
    """All ways to extend s by one point, up to isomorphism over s.

    Pairs (t, into) with t a catalog item one element larger and into an
    embedding of s onto an induced substructure of t, as a name map: the
    name view of _extensions.
    """
    return [
        (t, {name: t.names[j] for name, j in zip(s.names, into)})
        for t, into in _extensions(s, catalog)
    ]


def _extensions(
    s: ContactStructure, catalog: AgeCatalog
) -> list[tuple[ContactStructure, tuple[int, ...]]]:
    """one_point_extensions with into as positions: into[k] is t's
    position of s's k-th point.  Two pairs count as the same extension
    when an isomorphism of the targets commutes with the inclusions.
    Catalog items are pairwise non-isomorphic, so that isomorphism is an
    automorphism of t, and the first index map of each orbit under
    automorphisms(t) is kept, in _embedding_table's order.
    """
    out = []
    s_rows = _rows(s, s.kind)
    for t in catalog.items:
        if t.n != s.n + 1:
            continue
        maps = _embedding_table(s_rows, _rows(t, s.kind))
        if not maps:
            continue
        group = automorphisms(t)
        seen = set()
        for f in maps:
            if f in seen:
                continue
            seen.update(tuple([alpha[j] for j in f]) for alpha in group)
            out.append((t, f))
    return out


class _Pattern(NamedTuple):
    """An extension (t, into) of a catalog item sub, with t's fresh
    point x read as masks over sub's points: bit k of below, touch and
    above is set when sub's k-th point, t's into[k], lies below x,
    touches x or lies above x.  joins lists, for a semilattice t, each
    (k, m) with into[k] v x = into[m] in t, a join that is neither
    point."""

    t: ContactStructure
    into: tuple[int, ...]
    below: int
    touch: int
    above: int
    joins: tuple[tuple[int, int], ...]


def _pattern(t: ContactStructure, into: tuple[int, ...]) -> _Pattern:
    """The pattern of one extension, its joins found in join_table(t).
    Every point of t but x is anchored, so the join of x with an
    anchored point is x, that point or another anchored one."""
    (x,) = set(range(t.n)) - set(into)
    below = touch = above = 0
    for k, i in enumerate(into):
        below |= (t.up[i] >> x & 1) << k
        touch |= (t.contact[i] >> x & 1) << k
        above |= (t.up[x] >> i & 1) << k
    joins = []
    if t.kind == SEMILATTICE:
        t_joins = join_table(t)
        for k, i in enumerate(into):
            j = t_joins[t.up[i] & t.up[x]]
            if j != i and j != x:
                joins.append((k, into.index(j)))
    return _Pattern(t, into, below, touch, above, tuple(joins))


def _realized(stage: ContactStructure, copy: Sequence[int], p: _Pattern) -> bool:
    """Does the copy of sub at the stage positions copy extend to all of
    p.t?  True iff some stage point c off the copy stands in for x: c
    lies above, touches and lies below the copy's points as x does, and
    keeps the joins of x with them.

    One candidate mask is cut from the up and contact rows at the copy's
    points; each candidate then gets one up-row test (the points above
    it) and one test per join, by rows (see core.join_table).  Nothing
    else can fail: the copy is an embedding from the table (a grown
    stage keeps the stage it grew from as a substructure) and into one
    from _extensions, so injectivity, the bottom, the pairs and joins of
    the copy's points hold; the stage is a checked value, so Sym gives
    c's contact row from its column; and c, off the copy, is not the
    bottom, so Ref gives both diagonals.
    """
    _, _, below, touch, above, joins = p
    up, contact = stage.up, stage.contact
    image = over = 0
    candidates = stage.full_mask
    for k, q in enumerate(copy):
        bit = 1 << q
        image |= bit
        if above >> k & 1:
            over |= bit
        candidates &= up[q] if below >> k & 1 else ~up[q]
        candidates &= contact[q] if touch >> k & 1 else ~contact[q]
    rows = [(up[copy[k]], up[copy[m]]) for k, m in joins]
    for c in bits(candidates & ~image):
        row = up[c]
        if row & image == over and all(rm == rk & row for rk, rm in rows):
            return True
    return False


# ---------------------------------------------------------------------------
# stages


@dataclass(frozen=True)
class Realization:
    """One log entry: where a copy sat, what was glued on, and the name
    the fresh point received."""

    sub: ContactStructure
    embedding: tuple[tuple[str, str], ...]
    extension: ContactStructure
    fresh_name: str


@dataclass(frozen=True)
class LimitStage:
    structure: ContactStructure
    stage: int
    log: tuple[Realization, ...]
    kind: str
    budget_exceeded: bool = False


ABOVE_MAXIMAL = "above-maximal"
UNREALIZED_AT_BUDGET = "unrealized-at-budget"
MISS_CAUSES = (ABOVE_MAXIMAL, UNREALIZED_AT_BUDGET)


@dataclass(frozen=True)
class ExtensionMiss:
    """A (copy, extension) pair the stage does not realize.

    image lists the stage points of the copy of sub, in sub's carrier
    order; into is the extension's copy of sub as (sub name, extension
    name) pairs in the same order.  cause is ABOVE_MAXIMAL when the
    extension's fresh point lies strictly above an anchored point whose
    stage image is maximal: no point of this stage can stand in for it,
    so every finite stage has such misses.  Otherwise it is
    UNREALIZED_AT_BUDGET: the stage stopped growing before it realized
    the pair.
    """

    sub: ContactStructure
    image: tuple[str, ...]
    extension: ContactStructure
    into: tuple[tuple[str, str], ...]
    cause: str


@dataclass(frozen=True)
class ExtensionReport:
    total: int
    realized: int
    misses: tuple[ExtensionMiss, ...]

    @property
    def fraction(self) -> float:
        return 1.0 if self.total == 0 else self.realized / self.total

    def misses_by_cause(self) -> dict[str, int]:
        """The number of misses of each cause, every cause listed."""
        counts = dict.fromkeys(MISS_CAUSES, 0)
        for miss in self.misses:
            counts[miss.cause] += 1
        return counts


def trivial_stage(kind: str) -> LimitStage:
    structure = ContactStructure(("0",), 0, (1,), (0,), kind)
    return LimitStage(structure, 0, (), kind)


def _sweep(
    s: ContactStructure, cap: int, catalog: AgeCatalog
) -> Iterator[tuple[ContactStructure, tuple[int, ...], _Pattern]]:
    """Every (copy, extension) pair over s, as (sub, copy, pattern): each
    catalog item sub of at most cap points with a one-point extension,
    each copy of sub in s as the positions _embedding_table lists, each
    extension of sub as its pattern, computed once per sub.  The copies
    are those in s, so a caller may grow a stage from s while it walks
    them: s is a value and does not grow."""
    for sub in catalog.items:
        if sub.n > cap:
            continue
        patterns = [_pattern(t, into) for t, into in _extensions(sub, catalog)]
        if patterns:
            for copy in _embedding_table(_rows(sub, sub.kind), _rows(s, sub.kind)):
                for p in patterns:
                    yield sub, copy, p


def build_limit_stage(
    kind: str,
    cap: int,
    sweeps: int,
    catalog: AgeCatalog | None = None,
    max_elements: int = 64,
) -> LimitStage:
    """Sweep over embedded copies of substructures up to the size cap,
    amalgamating every unrealized one-point extension.

    Each sweep walks the copies in the stage it started from (_sweep),
    each mapped into the grown stage by name: a semilattice stage
    re-sorts its points on every growth step.  Stops at a fixpoint
    sweep, after the sweep budget, or with the budget_exceeded flag once
    the carrier would outgrow max_elements.  Deterministic for a fixed
    catalog.
    """
    if catalog is None:
        catalog = AgeCatalog.build(cap + 1, kind)
    structure = trivial_stage(kind).structure
    log: list[Realization] = []
    exceeded = False
    sweep = 0
    while sweep < sweeps and not exceeded:
        sweep += 1
        grown_from = len(log)
        start = structure
        for sub, f, p in _sweep(start, cap, catalog):
            names = [start.names[q] for q in f]
            copy = [structure.index(name) for name in names]
            if _realized(structure, copy, p):
                continue
            exceeded = structure.n >= max_elements
            if exceeded:
                break
            fresh = f"p{len(log) + 1}"
            grown = _amalgamate_extension(structure, copy, p.t, p.into, fresh)
            exceeded = grown.n > max_elements
            if exceeded:
                break
            structure = grown
            log.append(Realization(sub, tuple(sorted(zip(sub.names, names))), p.t, fresh))
        if len(log) == grown_from:
            break
    return LimitStage(structure, sweep, tuple(log), kind, exceeded)


def _amalgamate_extension(
    stage: ContactStructure,
    copy: Sequence[int],
    t: ContactStructure,
    into: Sequence[int],
    fresh: str,
) -> ContactStructure:
    """Glue one extension onto the stage; returns the grown stage.

    The copy's k-th point sits at stage position copy[k] and at t's
    position into[k].  The instance is built unchecked: C is the stage
    restricted to the copy (core._restriction), and t is renamed by
    position, into[k] to the name at copy[k] and its one other point to
    fresh.  Its poset amalgam d is amalgam._grow's, which builds only
    the fresh point's row and column and checks only the tuples that
    hold it: the stage was checked when it was built, and the inclusion
    compare, which matches both sides' rows with the amalgam's, shows
    its rows come back unchanged.  That compare is the one check of the
    instance.  A semilattice stage grows into the subsemilattice that
    the stage and t generate in the union-closed image family of d
    (amalgam._grow_semilattice), built by rows from d without the
    family: the stage's points keep their names and the fresh point its
    own, and each point added for a join missing in d is named qN.
    Each grown stage carries its own name map.
    """
    names = [fresh] * t.n
    for q, i in zip(copy, into):
        names[i] = stage.names[q]
    b_side = t.rename(dict(zip(t.names, names)))
    inst = AmalgamInstance(stage, b_side, _restriction(stage, sorted(copy)))
    grown = _grow(inst)
    if stage.kind == POSET:
        return grown
    return _grow_semilattice(inst, grown)


def check_extension_property(
    stage: LimitStage, cap: int, catalog: AgeCatalog | None = None
) -> ExtensionReport:
    """Fraction of (copy, extension) pairs realized inside the stage.

    Quantifies over every embedding of every catalog item of size at
    most cap into the stage structure and every one-point extension of
    that item (_sweep, the walk growth makes); a finite stage cannot
    realize extensions above its maximal elements, so fractions below
    1.0 are expected and reported honestly.  Each miss records its copy
    and its cause (ExtensionMiss), read off the pattern's below mask.
    """
    if catalog is None:
        catalog = AgeCatalog.build(cap + 1, stage.kind)
    s = stage.structure
    maximal = 0
    for i, row in enumerate(s.up):
        if row == 1 << i:
            maximal |= row
    total = realized = 0
    misses = []
    for sub, copy, p in _sweep(s, cap, catalog):
        total += 1
        if _realized(s, copy, p):
            realized += 1
            continue
        forced = any(maximal >> copy[k] & 1 for k in bits(p.below))
        misses.append(
            ExtensionMiss(
                sub,
                tuple(s.names[q] for q in copy),
                p.t,
                tuple(zip(sub.names, (p.t.names[i] for i in p.into))),
                ABOVE_MAXIMAL if forced else UNREALIZED_AT_BUDGET,
            )
        )
    return ExtensionReport(total, realized, tuple(misses))


def stage_embeds_previous(previous: LimitStage, current: LimitStage) -> bool:
    """Stages keep old element names; the inclusion must be an embedding."""
    mapping = {name: name for name in previous.structure.names}
    checked = verify_map(previous.structure, current.structure, mapping)
    return checked.report.is_embedding and checked.report.order_reflecting


# ---------------------------------------------------------------------------
# class properties


@dataclass(frozen=True)
class ClassPropertiesReport:
    hp_ok: bool
    jep_ok: bool
    ap_ok: bool
    hp_failures: tuple[str, ...]
    jep_failures: tuple[str, ...]
    ap_failures: tuple[str, ...]
    ap_instances: int

    @property
    def ok(self) -> bool:
        return self.hp_ok and self.jep_ok and self.ap_ok


def iter_gluings(
    a: ContactStructure, b: ContactStructure
) -> Iterator[AmalgamInstance]:
    """Every way of gluing b onto a along a common induced substructure:
    _gluings with the identity groups, renamed apart unchecked.  C is
    built once per carrier subset, by _gluings, and shared by its
    gluings."""
    for chosen, c, image in _gluings(a, b, [tuple(range(a.n))], [tuple(range(b.n))]):
        yield AmalgamInstance(*_glued_apart(a, b, c, chosen, image))


def _run_instance(inst: AmalgamInstance, kind: str) -> str | None:
    """Run an instance through the right pipeline; None means success."""
    try:
        if kind == SEMILATTICE:
            if not semilattice_amalgam(inst).superamalgamation.ok:
                return "superamalgamation failed in the semilattice target"
        elif not verify_superamalgamation(inst, contact_amalgam(inst)).ok:
            return "superamalgamation witness missing"
    except PreconditionViolation as exc:
        return f"precondition: {exc}"
    return None


def check_class_properties(
    catalog: AgeCatalog,
    ap_exhaustive_bound: int = 4,
    ap_samples: int = 200,
    seed: int = 2024,
) -> ClassPropertiesReport:
    """Hereditariness, joint embedding and amalgamation over the age.

    HP and JEP are exhaustive over the catalog.  AP is exhaustive over
    gluings of items up to ap_exhaustive_bound elements and sampled with
    a seeded generator above that.  An HP piece is a restriction of a
    valid item to carrier positions (core._restriction), valid without
    an axiom check.
    """
    hp_failures = []
    for item in catalog.items:
        for size in range(1, item.n + 1):
            for chosen in _carrier_positions(item, size, item.kind):
                if catalog.find(_restriction(item, chosen)) is None:
                    subset = tuple(item.names[i] for i in chosen)
                    hp_failures.append(
                        f"substructure {subset} of {canonical_key(item)} not in catalog"
                    )
    jep_failures = []
    for a in catalog.items:
        c = _restriction(a, [a.bottom])
        for b in catalog.items:
            inst = AmalgamInstance(*_glued_apart(a, b, c, [a.bottom], [b.bottom]))
            problem = _run_instance(inst, catalog.kind)
            if problem:
                jep_failures.append(problem)
    ap_failures = []
    ap_instances = 0
    small = [item for item in catalog.items if item.n <= ap_exhaustive_bound]
    for a in small:
        for b in small:
            for inst in iter_gluings(a, b):
                ap_instances += 1
                problem = _run_instance(inst, catalog.kind)
                if problem:
                    ap_failures.append(problem)
    large = [item for item in catalog.items if item.n > ap_exhaustive_bound]
    if large:
        rng = random.Random(seed)
        for _ in range(ap_samples):
            inst = random_instance(catalog, rng)
            if inst is None:
                continue
            ap_instances += 1
            problem = _run_instance(inst, catalog.kind)
            if problem:
                ap_failures.append(problem)
    return ClassPropertiesReport(
        not hp_failures,
        not jep_failures,
        not ap_failures,
        tuple(hp_failures),
        tuple(jep_failures),
        tuple(ap_failures),
        ap_instances,
    )


def random_instance(
    catalog: AgeCatalog, rng: random.Random, max_tries: int = 50
) -> AmalgamInstance | None:
    """A random gluing of two catalog items along a random common part."""
    for _ in range(max_tries):
        a = rng.choice(catalog.items)
        b = rng.choice(catalog.items)
        size = rng.randint(1, min(a.n, b.n))
        subsets = list(_carrier_positions(a, size, a.kind))
        if not subsets:
            continue
        chosen = rng.choice(subsets)
        c = _restriction(a, chosen)
        maps = _embedding_table(_rows(c, c.kind), _rows(b, c.kind))
        if not maps:
            continue
        return AmalgamInstance(*_glued_apart(a, b, c, chosen, rng.choice(maps)))
    return None


def generated_subsemilattice(
    s: ContactStructure, generators: Iterable[str]
) -> tuple[str, ...]:
    """Closure of the generators plus bottom under binary joins.  In a
    semilattice each member is the join of some generators, reached one
    generator at a time (core.close_under); a missing join adds nothing."""
    joins, up = join_table(s), s.up
    chosen = [s.index(name) for name in generators] + [s.bottom]
    closed = close_under(chosen, chosen, lambda i, j: joins.get(up[i] & up[j], i))
    return tuple(s.names[i] for i in sorted(closed))
