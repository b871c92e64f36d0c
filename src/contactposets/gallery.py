"""Machine-checked counterexamples and bounded lemma scans.

Nothing here is hard-coded: fixtures are rebuilt from generators and
every claim is recomputed on each run.  Bounded searches record their
bound; the amalgamation failure additionally certifies the mechanism
that forces the failure at every size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .amalgam import AmalgamInstance, contact_amalgam, semilattice_amalgam, verify_superamalgamation
from .core import (
    POSET,
    SEMILATTICE,
    ContactStructure,
    _additivity_check,
    check_contact_axioms,
    close_contact,
    normalize_order,
    overlap_relation,
    restrict,
)
from .enumeration import (
    _embedding_table,
    _rows,
    all_contact_tables,
    enumerate_distributive_lattices,
    lattice_operations,
)
from .errors import BudgetExceeded, NotSemilattice


def m3(variant: str = "overlap") -> ContactStructure:
    """The five-element modular lattice with three atoms.

    variant "overlap" carries the overlap contact; "with_ab" adds the
    single atom pair (a, b) and closes.
    """
    order = [("0", x) for x in ("a", "b", "c")] + [(x, "1") for x in ("a", "b", "c")]
    bare = ContactStructure(
        ("0", "a", "b", "c", "1"),
        0,
        normalize_order(order, ("0", "a", "b", "c", "1"), "0"),
        (0, 0, 0, 0, 0),
        SEMILATTICE,
    )
    base = bare.with_contact(overlap_relation(bare))
    if variant == "overlap":
        return base
    if variant == "with_ab":
        return close_contact(base, [("a", "b")])
    raise ValueError(f"unknown variant {variant!r}")


def find_additivity_failure(s: ContactStructure) -> tuple[str, str, str] | None:
    """A triple (x, y, z) with x touching y + z but neither y nor z: the
    first witness of the Add check, which raises NotSemilattice at a
    missing join."""
    if s.kind != SEMILATTICE:
        raise NotSemilattice("additivity needs joins")
    return _additivity_check(s).witness


# ---------------------------------------------------------------------------
# bounded lemma scans


@dataclass(frozen=True)
class ScanReport:
    name: str
    bound: int
    scanned: int
    ok: bool
    details: tuple[str, ...] = ()


def check_distributive_overlap_additivity(bound: int) -> ScanReport:
    """Every distributive lattice up to the bound is additive under its
    overlap contact; a counterexample would be a library bug."""
    scanned = 0
    problems = []
    for lattice in enumerate_distributive_lattices(bound):
        s = lattice.with_contact(overlap_relation(lattice))
        scanned += 1
        witness = find_additivity_failure(s)
        if witness is not None:
            problems.append(f"additivity failed on {witness}")
    return ScanReport(
        "distributive overlap additivity", bound, scanned, not problems, tuple(problems)
    )


def complements(s: ContactStructure, x: int) -> list[int]:
    top = next((i for i in range(s.n) if _is_top(s, i)), None)
    if top is None:
        return []
    up, down = s.up, s.down_masks()
    return [
        y
        for y in range(s.n)
        if up[top] == up[x] & up[y] and down[s.bottom] == down[x] & down[y]
    ]


def _is_top(s: ContactStructure, i: int) -> bool:
    return all(s.up[j] >> i & 1 for j in range(s.n))


def check_complement_uniqueness(bound: int) -> ScanReport:
    """At most one complement per element across the bounded distributive
    lattices; the counts per lattice land in the details."""
    scanned = 0
    problems = []
    details = []
    for lattice in enumerate_distributive_lattices(bound):
        scanned += 1
        complemented = 0
        for x in range(lattice.n):
            found = complements(lattice, x)
            if len(found) > 1:
                problems.append(
                    f"{lattice.names[x]!r} has complements "
                    f"{[lattice.names[y] for y in found]}"
                )
            if found:
                complemented += 1
        details.append(f"size {lattice.n}: {complemented} complemented elements")
    return ScanReport(
        "complement uniqueness",
        bound,
        scanned,
        not problems,
        tuple(problems) if problems else tuple(details),
    )


# ---------------------------------------------------------------------------
# the distributive amalgamation failure


def failure_instance(kind: str) -> AmalgamInstance:
    """The chain with two fresh complements: one side overlap only, the
    other with the new element touching the middle."""
    c = ContactStructure.build(
        ["0", "c", "1"],
        "0",
        [("0", "c"), ("c", "1")],
        [("c", "c"), ("c", "1"), ("1", "1")],
        kind,
    )
    a_bare = ContactStructure.build(
        ["0", "c", "1", "a"],
        "0",
        [("0", "c"), ("c", "1"), ("0", "a"), ("a", "1")],
        [],
        kind,
        close=True,
    )
    b_bare = ContactStructure.build(
        ["0", "c", "1", "b"],
        "0",
        [("0", "c"), ("c", "1"), ("0", "b"), ("b", "1")],
        [],
        kind,
        close=True,
    )
    b_side = close_contact(b_bare, [("b", "c")])
    return AmalgamInstance.from_parts(a_bare, b_side, c)


@dataclass(frozen=True)
class FailureReport:
    bound: int
    lattices_scanned: int
    candidate_pairs: int
    identifications: int
    amalgams_found: int
    poset_contrast_ok: bool
    semilattice_contrast_ok: bool

    @property
    def ok(self) -> bool:
        return (
            self.amalgams_found == 0
            and self.identifications == self.candidate_pairs
            and self.poset_contrast_ok
            and self.semilattice_contrast_ok
        )


def _lattice_zero_embeddings(
    a: ContactStructure, d: ContactStructure
) -> list[tuple[int, ...]]:
    """Injections preserving bottom, binary joins and meets, ascending,
    which is the order itertools.permutations gives the non-bottom
    targets.

    An injection that keeps the bottom and the joins is an embedding of
    a's contact-free rows onto a join-closed subset of d's, so the maps
    are the memoised embedding table of those rows
    (enumeration._embedding_table, both searched as semilattices), kept
    when they carry each meet of a to the meet in d, tested by d's
    down-rows (see core.meet_table).
    A source that is not a lattice has no such map.
    """
    operations = lattice_operations(a)
    if operations is None:
        return []
    a_meet = operations[1]
    d_down = d.down_masks()
    meets = [(i, j, a_meet[i][j]) for i in range(a.n) for j in range(i + 1, a.n)]
    a_rows, d_rows = (_rows(x.with_contact([0] * x.n), SEMILATTICE) for x in (a, d))
    return sorted(
        f
        for f in _embedding_table(a_rows, d_rows)
        if all(d_down[f[k]] == d_down[f[i]] & d_down[f[j]] for i, j, k in meets)
    )


def check_distributive_amalgam_failure(bound: int) -> FailureReport:
    """No distributive contact lattice amalgamates the failure instance.

    The search runs over every distributive lattice up to the bound,
    every valid contact relation on it, and every pair of lattice
    embeddings of the two sides agreeing on the chain.  The mechanism is
    certified separately: every contact-free candidate pair identifies
    the two fresh complements, which the contact requirements then
    contradict, so the bounded search is decisive for every size.  A
    bound too small to hold any candidate pair refutes nothing and
    raises BudgetExceeded.
    """
    inst = failure_instance(SEMILATTICE)
    a, b, c = inst.a, inst.b, inst.c
    c_positions_a = [a.index(name) for name in c.names]
    c_positions_b = [b.index(name) for name in c.names]
    a_new = a.index("a")
    b_new = b.index("b")
    scanned = 0
    candidate_pairs = 0
    identifications = 0
    amalgams = 0
    for lattice in enumerate_distributive_lattices(bound):
        scanned += 1
        f_maps = list(_lattice_zero_embeddings(a, lattice))
        g_maps = list(_lattice_zero_embeddings(b, lattice))
        agreeing = [
            (f, g)
            for f in f_maps
            for g in g_maps
            if all(
                f[c_positions_a[k]] == g[c_positions_b[k]]
                for k in range(c.n)
            )
        ]
        candidate_pairs += len(agreeing)
        identifications += sum(1 for f, g in agreeing if f[a_new] == g[b_new])
        for table in all_contact_tables(lattice):
            contact_target = lattice.with_contact(table)
            for f, g in agreeing:
                if _contact_embedding(a, contact_target, f) and _contact_embedding(
                    b, contact_target, g
                ):
                    amalgams += 1
    if not candidate_pairs:
        raise BudgetExceeded(
            f"no candidate pair of embeddings in a distributive lattice with at "
            f"most {bound} elements; the failure search needs a larger bound"
        )
    poset_inst = failure_instance(POSET)
    d = contact_amalgam(poset_inst)
    poset_ok = verify_superamalgamation(poset_inst, d).ok
    sem = semilattice_amalgam(failure_instance(SEMILATTICE))
    sem_ok = sem.superamalgamation.ok
    return FailureReport(
        bound, scanned, candidate_pairs, identifications, amalgams, poset_ok, sem_ok
    )


def _contact_embedding(
    a: ContactStructure, d: ContactStructure, assignment: Sequence[int]
) -> bool:
    """Does the assignment carry a's contact exactly onto d's?"""
    return restrict(assignment, d.contact)[0] == a.contact


# ---------------------------------------------------------------------------
# the full gallery


@dataclass(frozen=True)
class GalleryReport:
    entries: tuple[tuple[str, bool, str], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.entries)


def run_gallery(bound: int = 6, failure_bound: int = 8) -> GalleryReport:
    """Every gallery claim, recomputed: the additivity failures on the
    three-atom lattice, the bounded lemma scans, and the distributive
    amalgamation failure with its two positive contrasts."""
    entries = []
    overlap_variant = m3("overlap")
    with_ab = m3("with_ab")
    entries.append(
        (
            "m3 fixtures valid",
            check_contact_axioms(overlap_variant).ok and check_contact_axioms(with_ab).ok,
            "both variants pass the contact axioms",
        )
    )
    w1 = find_additivity_failure(overlap_variant)
    entries.append(
        (
            "m3 overlap additivity failure",
            w1 is not None,
            f"witness {w1}",
        )
    )
    w2 = find_additivity_failure(with_ab)
    entries.append(
        (
            "m3 with pair additivity failure",
            w2 is not None,
            f"witness {w2}",
        )
    )
    add = check_distributive_overlap_additivity(min(bound, 5))
    entries.append(
        (add.name, add.ok, f"{add.scanned} lattices scanned up to size {add.bound}")
    )
    uniq = check_complement_uniqueness(bound)
    entries.append(
        (uniq.name, uniq.ok, f"{uniq.scanned} lattices scanned up to size {uniq.bound}")
    )
    failure = check_distributive_amalgam_failure(failure_bound)
    entries.append(
        (
            "distributive amalgamation failure",
            failure.ok,
            f"{failure.lattices_scanned} lattices, {failure.candidate_pairs} candidate "
            f"pairs, {failure.identifications} forced identifications, "
            f"{failure.amalgams_found} amalgams found; poset contrast "
            f"{failure.poset_contrast_ok}, semilattice contrast "
            f"{failure.semilattice_contrast_ok}",
        )
    )
    return GalleryReport(tuple(entries))
