"""Re-embedding additive contact semilattices into additive overlap
semilattices, an exploratory harness kept with the tests.

It asserts nothing: sources that a bounded target pool cannot absorb are
listed as unresolved, and no claim either way is made.  The tests check
that it runs and that its embedding test agrees with a ``verify_map``
scan.
"""

from dataclasses import dataclass

from contactposets.core import (
    SEMILATTICE,
    ContactStructure,
    check_contact_axioms,
    overlap_relation,
)
from contactposets.enumeration import AgeCatalog, canonical_key, induced_embeddings


@dataclass(frozen=True)
class AdditiveSearchReport:
    source_bound: int
    target_bound: int
    additive_sources: int
    embeddable: int
    unresolved: tuple[str, ...]


def search_additive_overlap_embeddings(
    source_bound: int = 4, target_bound: int = 6
) -> AdditiveSearchReport:
    """Try to re-embed additive contact semilattices into additive
    overlap semilattices within a bounded target pool."""
    catalog = AgeCatalog.build(source_bound, SEMILATTICE)
    sources = [
        item
        for item in catalog.items
        if check_contact_axioms(item, require_add=True).ok
    ]
    pool: dict[tuple, ContactStructure] = {}
    for carrier in AgeCatalog.build(target_bound, SEMILATTICE).items:
        s = carrier.with_contact(overlap_relation(carrier))
        if check_contact_axioms(s, require_add=True).ok:
            pool.setdefault(canonical_key(s), s)
    targets = list(pool.values())
    embeddable = 0
    unresolved = []
    for source in sources:
        hit = any(
            target.n >= source.n and _search_embedding(source, target)
            for target in targets
        )
        if hit:
            embeddable += 1
        else:
            unresolved.append(str(canonical_key(source)))
    return AdditiveSearchReport(
        source_bound, target_bound, len(sources), embeddable, tuple(unresolved)
    )


def _search_embedding(source: ContactStructure, target: ContactStructure) -> bool:
    """Whether some embedding source -> target exists (verify_map's
    is_embedding).  Between semilattices an injective join-preserving
    map reflects the order (f(x) <= f(y) gives f(x v y) = f(y), so
    x v y = y), so the embeddings are exactly the isomorphisms onto
    join-closed induced substructures that contain the bottom, which
    enumeration.induced_embeddings finds."""
    return next(induced_embeddings(source, target), None) is not None
