"""Finite contact structures: carriers, axioms, overlap, maps.

A structure is a finite poset with a designated bottom element plus a
contact relation.  Orders and contact relations are stored as fully
closed boolean tables, one bitmask row per element: bit j of ``up[i]``
says i <= j, bit j of ``contact[i]`` says i and j are in contact.
Element names are the external interface; indices are internal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    AxiomViolation,
    AddOnPoset,
    BottomInSeed,
    CycleError,
    MissingBottom,
    NotJoinClosed,
    NotSemilattice,
    UnknownElement,
)

POSET = "poset"
SEMILATTICE = "semilattice"
KINDS = (POSET, SEMILATTICE)


def bits(mask: int):
    """Yield the set bit positions of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def transpose(rows: Sequence[int]) -> tuple[int, ...]:
    """The transposed table: bit i of out[j] is bit j of rows[i].  Of
    up-rows this gives the down-rows.  Like mask_image, it walks bits
    inline: both run on every row of every table they serve."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= bit
            row ^= low
    return tuple(out)


def cover_pairs(up: Sequence[int]) -> list[tuple[int, int]]:
    """Hasse diagram edges (i, j) of an order table, j covering i."""
    down = transpose(up)
    out = []
    for i, row in enumerate(up):
        strict = row & ~(1 << i)
        for j in bits(strict):
            if strict & down[j] & ~(1 << j) == 0:
                out.append((i, j))
    return out


def mask_image(mask: int, perm: Sequence[int]) -> int:
    """The image of a set of positions under perm: bit perm[i] for each
    bit i of mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def relabel_rows(rows: Sequence[int], perm: Sequence[int]) -> tuple[int, ...]:
    """A table with position i moved to perm[i]: out[perm[i]] is the
    image of rows[i] under perm."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        out[perm[i]] = mask_image(row, perm)
    return tuple(out)


def close_under(
    start: Iterable[int], generators: Sequence[int], op: Callable[[int, int], int]
) -> set[int]:
    """The least set holding start and closed under x -> op(x, g) for
    every generator g.  Semi-naive: each value is paired with each
    generator once, when it is first found (Bancilhon and Ramakrishnan,
    SIGMOD 1986).  For an associative, commutative op, the closure of a
    family under op is close_under(family, family, op): every member is
    op over some generators, reached one generator at a time."""
    closed = set(start)
    todo = list(closed)
    while todo:
        x = todo.pop()
        for g in generators:
            y = op(x, g)
            if y not in closed:
                closed.add(y)
                todo.append(y)
    return closed


# ---------------------------------------------------------------------------
# axiom reports


@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    passed: bool
    witness: tuple[str, ...] | None = None


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple[AxiomCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[AxiomCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def check(self, axiom: str) -> AxiomCheck:
        for c in self.checks:
            if c.axiom == axiom:
                return c
        raise KeyError(axiom)


# ---------------------------------------------------------------------------
# order tables


def _index_elements(elements: Sequence[str]) -> dict[str, int]:
    idx = {}
    for name in elements:
        if name in idx:
            raise UnknownElement(f"duplicate element name {name!r}")
        idx[name] = len(idx)
    return idx


def normalize_order(
    pairs: Iterable[tuple[str, str]],
    elements: Sequence[str],
    bottom: str,
) -> tuple[int, ...]:
    """Reflexive-transitive closure of generating pairs plus bottom <= x.

    Returns one bitmask row per element in carrier order.  Raises
    CycleError if the closure is not antisymmetric, UnknownElement for
    names outside the carrier.
    """
    idx = _index_elements(elements)
    if bottom not in idx:
        raise UnknownElement(f"bottom {bottom!r} not in carrier")
    n = len(elements)
    up = [1 << i for i in range(n)]
    b = idx[bottom]
    up[b] = (1 << n) - 1
    for x, y in pairs:
        if x not in idx or y not in idx:
            missing = x if x not in idx else y
            raise UnknownElement(f"unknown element {missing!r} in order pair")
        up[idx[x]] |= 1 << idx[y]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = up[i]
            for j in bits(up[i]):
                acc |= up[j]
            if acc != up[i]:
                up[i] = acc
                changed = True
    failure = order_failure(up)
    if failure is not None:
        # the closure is reflexive and transitive, so only a cycle fails
        i, j, _ = failure
        raise CycleError(f"antisymmetry violated: {elements[i]!r} and {elements[j]!r}")
    return tuple(up)


def _symmetric_rows(pairs: Iterable, idx: Mapping, unknown: str) -> tuple[int, ...]:
    """Rows of the symmetric closure of name pairs over the positions
    idx; the first name outside idx raises UnknownElement(unknown)."""
    rows = [0] * len(idx)
    for x, y in pairs:
        if x not in idx or y not in idx:
            missing = x if x not in idx else y
            raise UnknownElement(unknown.format(missing))
        rows[idx[x]] |= 1 << idx[y]
        rows[idx[y]] |= 1 << idx[x]
    return tuple(rows)


def order_failure(up: Sequence[int]) -> tuple[int, int, str] | None:
    """First place where a table of up-rows fails to be a partial order,
    or None when it is one.

    Rows are read in order; in row i reflexivity comes first, as
    (i, i, "reflexive"), then each j in up[i], lowest first, with
    (i, j, "antisymmetric") before (i, j, "transitive").  Callers raise
    their own errors from the triple.
    """
    for i, row in enumerate(up):
        if not row >> i & 1:
            return i, i, "reflexive"
        above = row
        while above:
            low = above & -above
            j = low.bit_length() - 1
            if j != i and up[j] >> i & 1:
                return i, j, "antisymmetric"
            if row | up[j] != row:
                return i, j, "transitive"
            above ^= low
    return None


def _check_order_tables(up: Sequence[int]) -> None:
    """Raise on the first order_failure of up."""
    failure = order_failure(up)
    if failure is not None:
        i, j, law = failure
        if law == "reflexive":
            raise AxiomViolation(f"order not reflexive at index {i}")
        if law == "antisymmetric":
            raise CycleError(f"antisymmetry violated at indices {i}, {j}")
        raise AxiomViolation(f"order not transitive at indices {i}, {j}")


# ---------------------------------------------------------------------------
# the structure types


def index_map(names: Sequence[str]) -> dict[str, int]:
    """Name -> position of a carrier.  On a duplicate name the first
    position wins, as with ``tuple.index``."""
    n = len(names)
    return dict(zip(reversed(names), range(n - 1, -1, -1)))


@lru_cache(maxsize=4096)
def _shared_index_map(names: tuple[str, ...]) -> dict[str, int]:
    """index_map, one per distinct names tuple: values that carry the
    same names (renamed copies, amalgams) share one map, read only."""
    return index_map(names)


def _own_name_map(s: "_Carrier", positions: dict[str, int]) -> None:
    """Give s its own name -> position map, positions, which must equal
    index_map(s.names): a builder that has the map at hand hands it
    over, and it stays out of the shared memo.  A limit stage's names
    tuple is new at every growth step, so a memo entry per step would
    hold one map per stage size, memory quadratic in the stage."""
    object.__setattr__(s, "_positions", positions)


class _Carrier:
    """What ContactStructure and BottomlessContact share: names, order
    rows and contact rows.  The name -> position map is fetched on a
    value's first lookup, not when it is made: most values are never
    looked up."""

    _positions = None

    @property
    def n(self) -> int:
        return len(self.names)

    def _name_map(self) -> dict[str, int]:
        # a cache, not a field, so set past the frozen dataclass; not a
        # cached_property, whose __dict__ write slows every later read
        positions = self._positions
        if positions is None:
            positions = _shared_index_map(self.names)
            object.__setattr__(self, "_positions", positions)
        return positions

    def index(self, name: str) -> int:
        try:
            return self._name_map()[name]
        except (KeyError, TypeError):
            raise UnknownElement(f"unknown element {name!r}") from None

    def leq(self, x: str, y: str) -> bool:
        return bool(self.up[self.index(x)] >> self.index(y) & 1)

    def _restricted(self, chosen: Sequence[int]) -> tuple[tuple, tuple, tuple]:
        """Names and both tables at the chosen positions, in that order."""
        up, contact = restrict(chosen, self.up, self.contact)
        return tuple(self.names[i] for i in chosen), up, contact


@dataclass(frozen=True)
class ContactStructure(_Carrier):
    """A finite poset with bottom and a contact relation.

    kind is a tag: SEMILATTICE additionally promises that every pair of
    elements has a least upper bound (joins are computed from the order,
    never stored).
    """

    names: tuple[str, ...]
    bottom: int
    up: tuple[int, ...]
    contact: tuple[int, ...]
    kind: str = POSET

    @classmethod
    def build(
        cls,
        elements: Sequence[str],
        bottom: str,
        order: Iterable[tuple[str, str]] = (),
        contact: Iterable[tuple[str, str]] = (),
        kind: str = POSET,
        close: bool = False,
    ) -> "ContactStructure":
        """Normalize and validate a structure from generating pairs.

        The order is closed reflexively and transitively; contact pairs
        get their symmetric closure.  With close=False the result must
        already satisfy the contact axioms; with close=True the least
        valid contact relation containing overlap and the given pairs is
        computed instead.
        """
        if kind not in KINDS:
            raise AxiomViolation(f"unknown kind {kind!r}")
        up = normalize_order(order, elements, bottom)
        idx = _index_elements(elements)
        seed_pairs = list(contact)
        rows = _symmetric_rows(seed_pairs, idx, "unknown element {!r} in contact pair")
        skeleton = cls(tuple(elements), idx[bottom], up, rows, kind)
        if kind == SEMILATTICE and not is_semilattice_order(skeleton):
            raise NotSemilattice("not every pair has a least upper bound")
        if close:
            return close_contact(skeleton, seed_pairs)
        _require_laws(check_contact_axioms(skeleton), "contact axioms fail")
        return skeleton

    # -- carrier helpers ----------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def delta(self, x: str, y: str) -> bool:
        return bool(self.contact[self.index(x)] >> self.index(y) & 1)

    def down_masks(self) -> tuple[int, ...]:
        return transpose(self.up)

    def cover_pairs(self) -> list[tuple[int, int]]:
        """Hasse diagram edges (i, j) with j covering i."""
        return cover_pairs(self.up)

    def with_contact(self, table: Sequence[int]) -> "ContactStructure":
        return replace(self, contact=tuple(table))

    def relabel(self, perm: Sequence[int]) -> "ContactStructure":
        """Move element i to position perm[i], keeping names attached."""
        names = [""] * self.n
        for i, name in enumerate(self.names):
            names[perm[i]] = name
        return ContactStructure(
            tuple(names),
            perm[self.bottom],
            relabel_rows(self.up, perm),
            relabel_rows(self.contact, perm),
            self.kind,
        )

    def rename(self, mapping: Mapping[str, str]) -> "ContactStructure":
        names = tuple(mapping.get(name, name) for name in self.names)
        if len(set(names)) != len(names):
            raise UnknownElement("renaming collapses element names")
        return replace(self, names=names)


# ---------------------------------------------------------------------------
# joins and meets


def join_table(s: ContactStructure) -> dict[int, int]:
    """Map each element's up-row to the element: {up[k]: k}.

    The common upper bounds of i and j form the up-set up[i] & up[j].
    It is the principal up-set up[k] exactly when k is their join: k is
    then an upper bound below every upper bound, and conversely the
    least upper bound k lies in the set and everything above k bounds
    both.  So join(i, j) == table.get(up[i] & up[j]), None when the join
    is missing.  On a duplicate row the lowest index is kept.  The table
    is built only to find a join: a known k is tested by its row, as
    up[k] == up[i] & up[j].
    """
    table: dict[int, int] = {}
    for k, row in enumerate(s.up):
        table.setdefault(row, k)
    return table


def meet_table(s: ContactStructure) -> dict[int, int]:
    """Map each element's down-row to the element: {down[k]: k}.

    The dual of join_table.  The common lower bounds of i and j form the
    down-set down[i] & down[j].  It is the principal down-set down[k]
    exactly when k is their meet: k is then a lower bound above every
    lower bound, and conversely the greatest lower bound k lies in the
    set and everything below k bounds both.  So meet(i, j) ==
    table.get(down[i] & down[j]), None when the meet is missing.  On a
    duplicate row the lowest index is kept.  A known k is tested by its
    row, as down[k] == down[i] & down[j].
    """
    table: dict[int, int] = {}
    for k, row in enumerate(s.down_masks()):
        table.setdefault(row, k)
    return table


def is_semilattice_order(s: ContactStructure) -> bool:
    """Does every pair have a join?  One join_table lookup per pair; the
    table answers every join of a reflexive, transitive table."""
    joins, up, n = join_table(s), s.up, s.n
    return all(up[i] & up[j] in joins for i in range(n) for j in range(i + 1, n))


# ---------------------------------------------------------------------------
# axioms


def _rows_valid(up: Sequence[int], contact: Sequence[int], bottom: int | None) -> bool:
    """One fused row pass: do Sym, Emp, Ext, Ref and Inh all hold?
    bottom is None for a bottomless structure, where Ref is Ref* (every
    element touches itself) and there is no Emp.

    Sym walks half the contact bits.  Row i's bits above the diagonal
    are mirrored into per-column masks: bit i of mirror[j] says i touches
    j, for i < j.  When the pass reaches row j every row above it has
    been mirrored, so Sym holds iff each row's part below the diagonal
    equals its mirror: both say, for each i < j, whether the pair (i, j)
    is related in the other direction.

    Ext has two halves: contact rows grow along the order (contact[i]
    lies inside contact[a1] for every a1 >= i), and every contact row is
    an up-set (up[j] lies inside contact[i] for every j touching i).
    Given Sym the second follows from the first: if j touches i and
    a1 >= j, then i is in contact[j], hence in contact[a1], and by Sym
    a1 is in contact[i].  So only the first half is walked, in one loop
    over up[i] shared with Inh at m = i (up[i] lies inside contact[a1]
    for every a1 >= i).  The pass still says yes exactly when every law
    holds.

    Emp is contact[bottom] == 0 plus an empty bottom column; Sym covers
    the column, since a row holding the bottom needs the bottom's row to
    hold it back.  Inh is folded in for every element off the bottom,
    bottomless ones included: it follows from Ref and Ext, so it turns
    no structure away that passes them.  Bits are walked inline, lowest
    first, without a generator.
    """
    if bottom is not None and contact[bottom]:
        return False
    mirror = [0] * len(contact)
    for i, row in enumerate(contact):
        bit = 1 << i
        if row & (bit - 1) != mirror[i]:
            return False
        if i == bottom:
            continue
        if not row & bit:
            return False
        need = row | up[i]
        above = up[i]
        while above:
            low = above & -above
            if need & ~contact[low.bit_length() - 1]:
                return False
            above ^= low
        later = row >> i + 1
        while later:
            low = later & -later
            mirror[i + low.bit_length()] |= bit
            later ^= low
    return True


def check_contact_axioms(s: ContactStructure, require_add: bool = False) -> AxiomReport:
    """One pass/fail entry per Sym, Emp, Ext, Ref plus derived Inh.

    With require_add the additivity law is checked as well; that is only
    expressible when joins exist, so a non-semilattice raises AddOnPoset.

    A fused row pass (_rows_valid) runs first.  It answers exactly
    whether all five laws hold, so when it says yes the all-pass report
    is returned as it stands: the same five entries, all passed, no
    witnesses.  Only a structure that fails some law goes on to the
    per-law loops (_contact_witnesses), which find each law's first
    failure in the same order as ever, so every witness is unchanged.
    Add is not part of the fast pass; it always runs its own loop.
    """
    if require_add and s.kind != SEMILATTICE:
        raise AddOnPoset("additivity is not expressible without joins")
    laws = ("Sym", "Emp", "Ext", "Ref", "Inh")
    checks = _law_checks(s, s.bottom, laws, _contact_witnesses)
    if require_add:
        checks += (_additivity_check(s),)
    return AxiomReport(checks)


def _law_checks(x: _Carrier, bottom: int | None, laws: tuple, witnesses: Callable) -> tuple:
    """All laws passed if the fused row pass (_rows_valid) says so, else witnesses(x)."""
    if _rows_valid(x.up, x.contact, bottom):
        return tuple(AxiomCheck(law, True) for law in laws)
    return witnesses(x)


def _law(axiom: str, witness: tuple[str, ...] | None) -> AxiomCheck:
    return AxiomCheck(axiom, witness is None, witness)


def _require_valid(s: ContactStructure, what: str) -> None:
    """AxiomViolation(what, report) unless s passes the contact axioms:
    the one check of a structure where it is built."""
    report = check_contact_axioms(s)
    if not report.ok:
        raise AxiomViolation(what, report)


def _require_laws(report: AxiomReport, what: str) -> None:
    """AxiomViolation naming each failed law and its witness, after what."""
    if not report.ok:
        bad = ", ".join(f"{c.axiom}{c.witness or ''}" for c in report.failures())
        raise AxiomViolation(f"{what}: {bad}", report)


def _sym_witness(rows: Sequence[int], names: Sequence[str]) -> tuple[str, str] | None:
    """Sym, of contact or conflict: the first (x, y) with y in x's row, x not in y's."""
    for i, row in enumerate(rows):
        for j in bits(row):
            if not rows[j] >> i & 1:
                return names[i], names[j]
    return None


def _ref_witness(rows: Sequence[int], names: Sequence, bottom: int | None) -> tuple | None:
    """Ref, or Ref* when bottom is None: the first x off the bottom not in its row."""
    for i, row in enumerate(rows):
        if i != bottom and not row >> i & 1:
            return (names[i],)
    return None


def _upset_witness(rows: Sequence[int], up: Sequence[int], names: Sequence) -> tuple | None:
    """The first row that is not an up-set of up, as (x, y, z): y in x's
    row, z >= y not.  Ext's second half on contact, inheritance on conflict."""
    for i, row in enumerate(rows):
        for j in bits(row):
            if up[j] & ~row:
                return names[i], names[j], names[next(bits(up[j] & ~row))]
    return None


def _contact_witnesses(s: ContactStructure) -> tuple[AxiomCheck, ...]:
    """The per-law loops: each law's first failing witness, or a pass."""
    n, names = s.n, s.names

    emp = None
    if s.contact[s.bottom]:
        emp = (names[s.bottom], names[next(bits(s.contact[s.bottom]))])
    else:
        for i in range(n):
            if s.contact[i] >> s.bottom & 1:
                emp = (names[i], names[s.bottom])
                break

    ext = None
    for a in range(n):
        for a1 in bits(s.up[a]):
            if s.contact[a] & ~s.contact[a1]:
                b = next(bits(s.contact[a] & ~s.contact[a1]))
                ext = (names[a], names[b], names[a1], names[b])
                break
        if ext:
            break
    if ext is None and (escape := _upset_witness(s.contact, s.up, names)):
        ext = (escape[0], escape[1], escape[0], escape[2])

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
    return (
        _law("Sym", _sym_witness(s.contact, names)),
        _law("Emp", emp),
        _law("Ext", ext),
        _law("Ref", _ref_witness(s.contact, names, s.bottom)),
        _law("Inh", inh),
    )


def _additivity_check(s: ContactStructure) -> AxiomCheck:
    """Add: a touching b v c touches b or c.  Joins come from one
    join_table, which gives every join of a partial order.  Triples run
    in (a, b, c) order, so the first witness, and the NotSemilattice
    raised at a missing join met before any witness, are the ones a
    per-triple join scan finds (the tests keep one as the reference)."""
    n, names, up, contact = s.n, s.names, s.up, s.contact
    joins = join_table(s)
    for a in range(n):
        row = contact[a]
        for b in range(n):
            for c in range(n):
                j = joins.get(up[b] & up[c])
                if j is None:
                    raise NotSemilattice("missing join during Add check")
                if row >> j & 1 and not row >> b & 1 and not row >> c & 1:
                    return AxiomCheck("Add", False, (names[a], names[b], names[c]))
    return AxiomCheck("Add", True)


def overlap_relation(s: ContactStructure) -> tuple[int, ...]:
    """Contact table relating a, b iff a nonzero n lies below both.

    A nonzero n below both has a minimal nonzero element below it, so a
    and b overlap iff both lie above one minimal nonzero m: each m ORs
    its up-row into the rows of its members.  The bottom lies above no
    m, so its row stays empty.  Overlap is a valid contact relation on
    every partial order with a bottom, so the table is not checked here;
    each caller that builds a structure from it checks that structure.
    """
    rows = [0] * s.n
    nonzero = ~(1 << s.bottom)
    for m, below in enumerate(s.down_masks()):
        if below & nonzero == 1 << m:
            for a in bits(s.up[m]):
                rows[a] |= s.up[m]
    return tuple(rows)


def close_contact(
    s: ContactStructure, seeds: Iterable[tuple[str, str]]
) -> ContactStructure:
    """Least valid contact relation containing overlap and the seeds.

    The closure is the upward closure (in both coordinates) of the
    symmetrized seed set united with the overlap relation; one pass
    suffices and the operation is idempotent.
    """
    n = s.n
    seeded = [0] * n
    for x, y in seeds:
        i, j = s.index(x), s.index(y)
        if s.bottom in (i, j):
            raise BottomInSeed(f"seed pair ({x!r}, {y!r}) touches bottom")
        seeded[i] |= 1 << j
        seeded[j] |= 1 << i
    rows = list(overlap_relation(s))
    for a in range(n):
        for b in bits(seeded[a]):
            for a1 in bits(s.up[a]):
                rows[a1] |= s.up[b]
    out = s.with_contact(rows)
    _require_valid(out, "contact closure failed self-check")
    return out


# ---------------------------------------------------------------------------
# closure operators


@dataclass(frozen=True)
class ClosureOperator:
    """An isotone, idempotent, extensive self-map of a poset.

    The base structure's contact table is ignored; only its order is
    used.  image[i] is the index of the closure of element i.
    """

    base: ContactStructure
    image: tuple[int, ...]

    @classmethod
    def build(cls, base: ContactStructure, mapping: Mapping[str, str]) -> "ClosureOperator":
        image = _image_positions(base, base, mapping)
        op = cls(base, image)
        up = base.up
        for i in range(base.n):
            k = image[i]
            if not up[i] >> k & 1:
                raise AxiomViolation(
                    f"closure not extensive at {base.names[i]!r}"
                )
            if image[k] != k:
                raise AxiomViolation(
                    f"closure not idempotent at {base.names[i]!r}"
                )
            for j in bits(up[i]):
                if not up[k] >> image[j] & 1:
                    raise AxiomViolation(
                        f"closure not isotone on {base.names[i]!r} <= {base.names[j]!r}"
                    )
        return op

    def closed_elements(self) -> tuple[str, ...]:
        return tuple(
            self.base.names[i] for i in range(self.base.n) if self.image[i] == i
        )


def contact_from_closure(op: ClosureOperator) -> ContactStructure:
    """Contact via the closure: a and b touch iff a nonzero n lies below
    both closures.

    The result is validated strictly; a closure operator that moves the
    bottom produces bottom-in-contact pairs and is rejected with the
    failing report attached.
    """
    s = op.base
    down = s.down_masks()
    nonzero_down = tuple(d & ~(1 << s.bottom) for d in down)
    rows = [0] * s.n
    for a in range(s.n):
        for b in range(s.n):
            if nonzero_down[op.image[a]] & nonzero_down[op.image[b]]:
                rows[a] |= 1 << b
    out = s.with_contact(rows)
    _require_valid(out, "closure-induced contact fails the axioms")
    return out


# ---------------------------------------------------------------------------
# substructures


def induced_substructure(s: ContactStructure, subset: Iterable[str]) -> ContactStructure:
    """Restriction of order and contact to a carrier subset.

    The subset must contain the bottom, and be closed under joins when
    the structure is a semilattice.
    """
    chosen = [s.index(name) for name in subset]
    chosen = sorted(set(chosen))
    if s.bottom not in chosen:
        raise MissingBottom("substructure carrier must contain the bottom")
    if s.kind == SEMILATTICE:
        _require_join_closed(s, chosen)
    out = _restriction(s, chosen)
    _require_valid(out, "induced substructure failed self-check")
    return out


def _restriction(s: ContactStructure, chosen: Sequence[int]) -> ContactStructure:
    """induced_substructure on positions that hold the bottom (and are
    join-closed in a semilattice), in the order given, unchecked: the
    axioms are universal, so a restriction of a valid s is valid."""
    names, up, contact = s._restricted(chosen)
    return ContactStructure(names, chosen.index(s.bottom), up, contact, s.kind)


def _require_join_closed(s: ContactStructure, chosen: Sequence[int]) -> None:
    """NotJoinClosed unless the join in s of every pair of the chosen
    positions (ascending) exists and is chosen; the message names the
    first pair that escapes."""
    escape = _join_escape(join_table(s), s.up, chosen)
    if escape is not None:
        a, b = escape
        raise NotJoinClosed(f"join of {s.names[a]!r} and {s.names[b]!r} escapes the subset")


def _join_escape(
    joins: Mapping[int, int], up: Sequence[int], chosen: Sequence[int]
) -> tuple[int, int] | None:
    """The first pair (a, b) of chosen positions, in the given order,
    whose join (read in joins, a join_table) is missing or not chosen;
    None when the chosen positions are join-closed."""
    mask = 0
    for i in chosen:
        mask |= 1 << i
    for a in chosen:
        for b in chosen:
            j = joins.get(up[a] & up[b])
            if j is None or not mask >> j & 1:
                return a, b
    return None


# ---------------------------------------------------------------------------
# structure maps


@dataclass(frozen=True)
class MapReport:
    injective: bool
    bottom_preserving: bool
    order_preserving: bool
    order_reflecting: bool
    contact_preserving: bool
    contact_reflecting: bool
    join_preserving: bool | None

    @property
    def is_embedding(self) -> bool:
        flags = (
            self.injective
            and self.bottom_preserving
            and self.order_preserving
            and self.contact_preserving
            and self.contact_reflecting
        )
        if self.join_preserving is not None:
            flags = flags and self.join_preserving
        return flags


@dataclass(frozen=True)
class StructureMap:
    source: ContactStructure
    target: ContactStructure
    mapping: tuple[int, ...]
    report: MapReport

    @property
    def name_map(self) -> dict[str, str]:
        return {
            self.source.names[i]: self.target.names[self.mapping[i]]
            for i in range(self.source.n)
        }

    def apply(self, name: str) -> str:
        return self.target.names[self.mapping[self.source.index(name)]]


def _fresh_names(
    names: Sequence[str], positions: Sequence[int], common: Sequence[str], tag: str
) -> tuple[str, ...]:
    """A carrier's names renamed apart from another along a common part:
    position positions[k] takes common[k], the common part's k-th name,
    and every other name is prefixed with tag.  UnknownElement when two
    positions end with one name (a tagged name that is also a common
    one).  Used by _glued_apart and from_embeddings only."""
    fresh = [f"{tag}:{name}" for name in names]
    for p, name in zip(positions, common):
        fresh[p] = name
    if len(set(fresh)) != len(fresh):
        raise UnknownElement("renaming collapses element names")
    return tuple(fresh)


def _glued_apart(
    a: ContactStructure,
    b: ContactStructure,
    c: ContactStructure,
    chosen: Sequence[int],
    image: Sequence[int],
) -> tuple[ContactStructure, ContactStructure, ContactStructure]:
    """The renamed-apart triple (a', b', c) of a gluing, unchecked: c is a
    restricted to the positions chosen, and b's position image[k] holds
    c's k-th element.  Each side keeps its rows and positions: C's names
    go to chosen in a and to image in b, every other name is tagged
    (_fresh_names, which raises UnknownElement when a side holds x off c
    and its tagged name on c).  The amalgam the triple goes to checks
    it, by contact_amalgam's inclusion check."""
    sides = [
        ContactStructure(
            _fresh_names(host.names, positions, c.names, tag),
            host.bottom,
            host.up,
            host.contact,
            host.kind,
        )
        for host, positions, tag in ((a, chosen, "a"), (b, image, "b"))
    ]
    return sides[0], sides[1], c


def _image_positions(source: _Carrier, target: _Carrier, mapping: Mapping) -> tuple:
    """Target positions of source's images; UnknownElement names the first miss."""
    try:
        return tuple(target.index(mapping[name]) for name in source.names)
    except KeyError:
        missing = next(name for name in source.names if name not in mapping)
        raise UnknownElement(f"element {missing!r} is not mapped") from None


def _runs(f: Sequence[int]) -> list[tuple[int, int, int]]:
    """Cut a map into maximal runs of consecutive source indices sent to
    consecutive target indices: (source start, target start, width mask).
    An inclusion that keeps the carrier order is a single run."""
    runs = []
    start = 0
    n = len(f)
    for j in range(1, n + 1):
        if j == n or f[j] != f[j - 1] + 1:
            runs.append((start, f[start], (1 << (j - start)) - 1))
            start = j
    return runs


def _pull_back(row: int, runs: Sequence[tuple[int, int, int]]) -> int:
    """Source mask of a target row: bit j is set iff row holds f[j].
    One shift per run; exact for every map, injective or not."""
    out = 0
    for source_start, target_start, width in runs:
        out |= (row >> target_start & width) << source_start
    return out


def restrict(f: Sequence[int], *tables: Sequence[int]) -> list[tuple[int, ...]]:
    """Each table's rows at the positions f, pulled back through f: bit m
    of row k is set iff rows[f[k]] holds f[m].  With f the sorted
    positions of a subset this gives the induced substructure's tables;
    with f the positions of a named part it compares that part row by
    row.  The runs of f are cut once for all tables."""
    runs = _runs(f)
    return [tuple(_pull_back(rows[i], runs) for i in f) for rows in tables]


def verify_map(
    source: ContactStructure,
    target: ContactStructure,
    mapping: Mapping[str, str],
) -> StructureMap:
    """Compute the full property report of a carrier map.

    The map is an embedding when it is injective, bottom-preserving,
    order-preserving and contact-preserving and -reflecting, plus
    join-preserving when both sides are semilattices.  Order reflection
    is reported separately.

    Each flag is read off bitmask rows.  The target row of f[i] is
    pulled back through f: its bit j says whether the target relates
    f[i] to f[j].  So the map preserves a relation iff each source row
    lies inside its pulled-back row, and reflects it iff the reverse
    inclusion holds.  This decides every pair (i, j) as the pairwise
    definition does, for every map, injective or not.  Join
    preservation is one _preserves_joins scan.
    """
    return _verify_positions(source, target, _image_positions(source, target, mapping))


def _verify_positions(
    source: ContactStructure, target: ContactStructure, f: Sequence[int]
) -> StructureMap:
    """verify_map of the map sending source position i to target
    position f[i]."""
    n = source.n
    injective = len(set(f)) == n
    bottom = f[source.bottom] == target.bottom
    runs = _runs(f)
    order_p = order_r = True
    contact_p = contact_r = True
    for i in range(n):
        row = source.up[i]
        back = _pull_back(target.up[f[i]], runs)
        order_p = order_p and not row & ~back
        order_r = order_r and not back & ~row
        row = source.contact[i]
        back = _pull_back(target.contact[f[i]], runs)
        contact_p = contact_p and not row & ~back
        contact_r = contact_r and not back & ~row
    join_p: bool | None = None
    if source.kind == SEMILATTICE and target.kind == SEMILATTICE:
        join_p = _preserves_joins(source, target, f)
    report = MapReport(
        injective, bottom, order_p, order_r, contact_p, contact_r, join_p
    )
    return StructureMap(source, target, f, report)


def _preserves_joins(
    source: ContactStructure, target: ContactStructure, f: Sequence[int]
) -> bool:
    """Whether the positions f send every join of source to the join of
    the images; a pair of source without a join fails.  Each join is
    found in the source's join table (see join_table), and its image is
    tested by its row: f[k] is the join of f[i] and f[j] iff its up-row
    is the intersection of theirs.  Both are symmetric in i and j, so
    the pairs i <= j decide it."""
    source_joins = join_table(source)
    s_up, t_up = source.up, target.up
    n = source.n
    return all(
        (sj := source_joins.get(s_up[i] & s_up[j])) is not None
        and t_up[f[sj]] == t_up[f[i]] & t_up[f[j]]
        for i in range(n)
        for j in range(i, n)
    )


def compose_maps(first: StructureMap, second: StructureMap) -> StructureMap:
    """Verified composition, source of first into target of second, on
    positions (_verify_positions): each image of first is looked up by
    name in second's source, so the target's name map is never built."""
    middle, lookup = first.target.names, second.source
    f = tuple(second.mapping[lookup.index(middle[j])] for j in first.mapping)
    return _verify_positions(first.source, second.target, f)


# ---------------------------------------------------------------------------
# structures without a bottom


@dataclass(frozen=True)
class BottomlessContact(_Carrier):
    """A poset with contact but no designated bottom.

    Validity means symmetry, upward extension and reflexivity of contact
    on every element.
    """

    names: tuple[str, ...]
    up: tuple[int, ...]
    contact: tuple[int, ...]


def check_bottomless_axioms(b: BottomlessContact) -> AxiomReport:
    """One pass/fail entry per Sym, Ext and Ref*.

    As in check_contact_axioms, the fused row pass (_rows_valid with no
    bottom) decides validity exactly and yields the all-pass report; a
    failing structure goes on to the per-law loops below, whose first
    witnesses are unchanged.
    """
    return AxiomReport(_law_checks(b, None, ("Sym", "Ext", "Ref*"), _bottomless_witnesses))


def _bottomless_witnesses(b: BottomlessContact) -> tuple[AxiomCheck, ...]:
    """The per-law loops.  Ext checks both its halves per element, so its
    first witness can differ from the one _contact_witnesses finds."""
    n, names = b.n, b.names
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
    return (
        _law("Sym", _sym_witness(b.contact, names)),
        _law("Ext", ext),
        _law("Ref*", _ref_witness(b.contact, names, None)),
    )


def adjoin_bottom(
    b: BottomlessContact, bottom_name: str = "0", kind: str = POSET
) -> ContactStructure:
    """Add a fresh bottom below everything, in contact with nothing."""
    _require_laws(check_bottomless_axioms(b), "bottomless axioms fail")
    return _adjoin_checked_bottom(b, bottom_name, kind)


def _adjoin_checked_bottom(
    b: BottomlessContact, bottom_name: str, kind: str = POSET
) -> ContactStructure:
    """adjoin_bottom for a b whose bottomless axioms have been checked.
    b's order rows are checked as given: reflexivity is not supplied."""
    if bottom_name in b.names:
        raise UnknownElement(f"bottom name {bottom_name!r} collides with an element")
    n = b.n
    names = (bottom_name,) + b.names
    up = [(1 << (n + 1)) - 1]
    contact = [0]
    for i in range(n):
        up.append(b.up[i] << 1)
        contact.append(b.contact[i] << 1)
    out = ContactStructure(names, 0, tuple(up), tuple(contact), kind)
    _check_order_tables(out.up)
    return out


def drop_bottom(s: ContactStructure) -> BottomlessContact:
    """Remove the bottom; the inverse of adjoin_bottom on its image."""
    return BottomlessContact(*s._restricted([i for i in range(s.n) if i != s.bottom]))
