"""The name-level extension check the limit stages ran before their
walk read positions, kept as the reference the walk is held to.

``embeds_extension`` takes the copy and the extension's inclusion as
name maps, resolves every anchored point by name, re-checks the anchored
pairs and finds t's joins per call.  ``_below_fresh`` names the copy's
points below the fresh point, from which a miss's cause was read.  Both
are as they stood in ``fraisse``; the positional walk
(``fraisse._realized`` over ``fraisse._pattern``) must agree with them.
"""

from contactposets.core import SEMILATTICE, ContactStructure, bits, join_table, mask_image


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


def _below_fresh(t: ContactStructure, into: dict[str, str]) -> tuple[str, ...]:
    """The points of the copy, by their names in the copied structure,
    that lie strictly below the extension's fresh point.  A miss is
    ABOVE_MAXIMAL when one of them sits on a maximal stage point."""
    (fresh,) = set(t.names) - set(into.values())
    return tuple(name for name, t_name in into.items() if t.leq(t_name, fresh))
