"""Finite approximation of the homogeneous limits and the class checks.

Stages grow by amalgamating one-point extensions over embedded copies of
small substructures.  The limits themselves are infinite; a stage only
witnesses which extensions have been realized so far, and the extension
property check reports the honest fraction over the current structure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator

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
    mask_image,
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
    induced_embeddings,
)
from .errors import PreconditionViolation


# ---------------------------------------------------------------------------
# one-point extensions


def one_point_extensions(
    s: ContactStructure, catalog: AgeCatalog
) -> list[tuple[ContactStructure, dict[str, str]]]:
    """All ways to extend s by one point, up to isomorphism over s.

    Pairs (t, into) with t a catalog item one element larger and into an
    embedding of s onto an induced substructure of t; two pairs count as
    the same extension when an isomorphism of the targets commutes with
    the inclusions.  Catalog items are pairwise non-isomorphic, so that
    isomorphism is an automorphism of t, and the first index map of each
    orbit under automorphisms(t) is kept, in _embedding_table's order.
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
            out.append((t, {name: t.names[j] for name, j in zip(s.names, f)}))
    return out


def embeds_extension(
    stage: ContactStructure,
    f: dict[str, str],
    t: ContactStructure,
    into: dict[str, str],
) -> bool:
    """Does the embedding f of the common part extend to all of t?

    True iff some stage point c outside the image of f makes the map
    t -> stage (anchored points as f says, t's one other point x to c)
    an order-reflecting embedding, as verify_map judges it.

    Checked once per call, on the anchored points: injectivity, the
    bottom, and order and contact in both directions.  x's column (a <=
    x, a touches x, for anchored a) is folded into one candidate mask
    before the loop; its row and its diagonal are checked per candidate.
    t's joins are found once, in join_table(t), and each candidate scans
    them all: the map keeps the join k of i and j iff up[g[k]] ==
    up[g[i]] & up[g[j]] in the stage (see core.join_table).  A diagonal
    pair joins to itself on both sides, so it is skipped.
    """
    anchored = {into[s_name]: f[s_name] for s_name in into}
    free = [name for name in t.names if name not in anchored]
    x = t.index(free[0])
    rest = [i for i in range(t.n) if i != x]
    g = [0] * t.n
    image = 0
    for i in rest:
        g[i] = stage.index(anchored[t.names[i]])
        image |= 1 << g[i]
    if image.bit_count() != len(rest):
        return False
    up, contact = stage.up, stage.contact

    def pushed(row: int) -> int:
        return mask_image(row & ~(1 << x), g)

    candidates = stage.full_mask & ~image
    if t.bottom == x:
        candidates &= 1 << stage.bottom
    elif g[t.bottom] != stage.bottom:
        return False
    for i in rest:
        if up[g[i]] & image != pushed(t.up[i]):
            return False
        if contact[g[i]] & image != pushed(t.contact[i]):
            return False
        candidates &= up[g[i]] if t.up[i] >> x & 1 else ~up[g[i]]
        candidates &= contact[g[i]] if t.contact[i] >> x & 1 else ~contact[g[i]]
    row_up, row_contact = pushed(t.up[x]), pushed(t.contact[x])
    self_up, self_contact = t.up[x] >> x & 1, t.contact[x] >> x & 1

    joins = []
    if t.kind == SEMILATTICE and stage.kind == SEMILATTICE:
        t_joins = join_table(t)
        for i in range(t.n):
            for j in range(i + 1, t.n):
                k = t_joins.get(t.up[i] & t.up[j])
                if k is None:
                    return False
                joins.append((i, j, k))
    for c in bits(candidates):
        row = up[c]
        if (
            row & image != row_up
            or contact[c] & image != row_contact
            or (row >> c & 1) != self_up
            or (contact[c] >> c & 1) != self_contact
        ):
            continue
        g[x] = c
        if all(up[g[k]] == up[g[i]] & up[g[j]] for i, j, k in joins):
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
) -> Iterator[tuple[ContactStructure, dict, ContactStructure, dict]]:
    """Every (copy, extension) pair over s, as (sub, f, t, into): each
    catalog item sub of at most cap points with a one-point extension,
    each copy f of sub in s, each extension (t, into) of sub.  The
    copies are those in s, so a caller may grow a stage from s while it
    walks them: s is a value and does not grow."""
    for sub in catalog.items:
        if sub.n > cap:
            continue
        extensions = one_point_extensions(sub, catalog)
        if extensions:
            for f in induced_embeddings(sub, s):
                for t, into in extensions:
                    yield sub, f, t, into


def build_limit_stage(
    kind: str,
    cap: int,
    sweeps: int,
    catalog: AgeCatalog | None = None,
    max_elements: int = 64,
) -> LimitStage:
    """Sweep over embedded copies of substructures up to the size cap,
    amalgamating every unrealized one-point extension.

    Each sweep walks the copies in the stage it started from (_sweep).
    Stops at a fixpoint sweep, after the sweep budget, or with the
    budget_exceeded flag once the carrier would outgrow max_elements.
    Deterministic for a fixed catalog.
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
        for sub, f, t, into in _sweep(structure, cap, catalog):
            if embeds_extension(structure, f, t, into):
                continue
            exceeded = structure.n >= max_elements
            if exceeded:
                break
            fresh = f"p{len(log) + 1}"
            grown = _amalgamate_extension(structure, f, t, into, fresh)
            exceeded = grown.n > max_elements
            if exceeded:
                break
            structure = grown
            log.append(Realization(sub, tuple(sorted(f.items())), t, fresh))
        if len(log) == grown_from:
            break
    return LimitStage(structure, sweep, tuple(log), kind, exceeded)


def _amalgamate_extension(
    stage: ContactStructure,
    f: dict[str, str],
    t: ContactStructure,
    into: dict[str, str],
    fresh: str,
) -> ContactStructure:
    """Glue one extension onto the stage; returns the grown stage.

    The instance is built unchecked: C is the stage restricted to the
    copy (core._restriction), and t is renamed onto the copy's names
    plus fresh.  Its poset amalgam d is amalgam._grow's, which builds
    only the fresh point's row and column and checks only the tuples
    that hold it: the stage was checked when it was built, and the
    inclusion compare, which matches both sides' rows with the
    amalgam's, shows its rows come back unchanged.  That compare is the
    one check of the instance.  A semilattice stage grows into the
    subsemilattice that the stage and t generate in the union-closed
    image family of d (amalgam._grow_semilattice), built by rows from d
    without the family: the stage's points keep their names and the
    fresh point its own, and each point added for a join missing in d
    is named qN.  Each grown stage carries its own name map.
    """
    rename = {into[s_name]: f[s_name] for s_name in into}
    (free,) = set(t.names) - set(rename)
    rename[free] = fresh
    b_side = t.rename(rename)
    copy = sorted(stage.index(name) for name in f.values())
    inst = AmalgamInstance(stage, b_side, _restriction(stage, copy))
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
    and its cause (ExtensionMiss).
    """
    if catalog is None:
        catalog = AgeCatalog.build(cap + 1, stage.kind)
    s = stage.structure
    maximal = {s.names[i] for i in range(s.n) if s.up[i] == 1 << i}
    total = realized = 0
    misses = []
    for sub, f, t, into in _sweep(s, cap, catalog):
        total += 1
        if embeds_extension(s, f, t, into):
            realized += 1
            continue
        forced = any(f[name] in maximal for name in _below_fresh(t, into))
        misses.append(
            ExtensionMiss(
                sub,
                tuple(f[name] for name in sub.names),
                t,
                tuple((name, into[name]) for name in sub.names),
                ABOVE_MAXIMAL if forced else UNREALIZED_AT_BUDGET,
            )
        )
    return ExtensionReport(total, realized, tuple(misses))


def _below_fresh(t: ContactStructure, into: dict[str, str]) -> tuple[str, ...]:
    """The points of the copy, by their names in the copied structure,
    that lie strictly below the extension's fresh point.  A miss is
    ABOVE_MAXIMAL when one of them sits on a maximal stage point."""
    (fresh,) = set(t.names) - set(into.values())
    return tuple(name for name, t_name in into.items() if t.leq(t_name, fresh))


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
    built once per carrier subset and shared by its gluings."""
    last = None
    for chosen, image in _gluings(a, b, [tuple(range(a.n))], [tuple(range(b.n))]):
        if chosen != last:
            last, c = chosen, _restriction(a, chosen)
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
