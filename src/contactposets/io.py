"""Structure files, result bundles and DOT export.

The file format is a single JSON document.  Contact files carry
elements, bottom, order generators, contact pairs and a kind; event
files use conflict instead of contact and have no bottom.  Orders are
closed on load, contact gets its symmetric closure, and validation is
strict unless closing is requested.
"""

from __future__ import annotations

import json
from typing import Any, Sequence

from .core import (
    POSET,
    SEMILATTICE,
    ContactStructure,
    bits,
    cover_pairs,
    overlap_relation,
)
from .errors import ContactError, ParseError
from .events import EventStructure
from .represent import SetFamilyStructure

EVENT = "event"


# ---------------------------------------------------------------------------
# documents


def _pairs(names: Sequence[str], rows: Sequence[int], offset: int) -> list[list[str]]:
    """The pairs [x, y] of a symmetric table with y at least offset
    places after x: offset 0 keeps the diagonal, 1 drops it."""
    return [[names[i], names[j]]
            for i, row in enumerate(rows) for j in bits(row) if j >= i + offset]


def structure_to_doc(s: ContactStructure) -> dict[str, Any]:
    return {
        "kind": s.kind,
        "elements": list(s.names),
        "bottom": s.names[s.bottom],
        "order": [[s.names[i], s.names[j]] for i, j in s.cover_pairs()],
        "contact": _pairs(s.names, s.contact, 0),
    }


def event_to_doc(e: EventStructure) -> dict[str, Any]:
    return {
        "kind": EVENT,
        "elements": list(e.events),
        "order": [[e.events[i], e.events[j]] for i, j in cover_pairs(e.up)],
        "conflict": _pairs(e.events, e.conflict, 1),
    }


def doc_to_structure(doc: Any, close: bool = False) -> ContactStructure | EventStructure:
    """Parse a document; malformed shapes raise ParseError, axiom
    failures raise their library errors."""
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    kind = doc.get("kind", POSET)
    if kind == EVENT:
        return _parse_event(doc)
    if kind not in (POSET, SEMILATTICE):
        raise ParseError(f"unknown kind {kind!r}")
    elements = _name_list(doc, "elements")
    bottom = doc.get("bottom")
    if not isinstance(bottom, str):
        raise ParseError("bottom must be an element name")
    order = _pair_list(doc, "order")
    contact = _pair_list(doc, "contact")
    return ContactStructure.build(elements, bottom, order, contact, kind, close=close)


def _parse_event(doc: dict) -> EventStructure:
    elements = _name_list(doc, "elements")
    order = _pair_list(doc, "order")
    conflict = _pair_list(doc, "conflict")
    if "bottom" in doc:
        raise ParseError("event files have no bottom")
    return EventStructure.build(elements, order, conflict)


def _name_list(doc: dict, field: str) -> list[str]:
    value = doc.get(field)
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ParseError(f"{field} must be a list of names")
    return value


def _pair_list(doc: dict, field: str) -> list[tuple[str, str]]:
    value = doc.get(field, [])
    if not isinstance(value, list):
        raise ParseError(f"{field} must be a list of pairs")
    out = []
    for entry in value:
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(isinstance(x, str) for x in entry)
        ):
            raise ParseError(f"{field} entries must be pairs of names")
        out.append((entry[0], entry[1]))
    return out


def load_structure(path: str, close: bool = False) -> ContactStructure | EventStructure:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    return doc_to_structure(doc, close=close)


def save_structure(path: str, s: ContactStructure | EventStructure) -> None:
    doc = event_to_doc(s) if isinstance(s, EventStructure) else structure_to_doc(s)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def family_to_doc(family: SetFamilyStructure) -> dict[str, Any]:
    """Set families serialize with their provenance annotations."""
    doc = structure_to_doc(family.structure)
    doc["universe"] = list(family.universe)
    doc["sets"] = {
        family.structure.names[i]: list(family.members(i))
        for i in range(len(family.sets))
    }
    doc["provenance"] = {
        family.structure.names[i]: [
            {"type": origin.kind, "of": list(origin.refs)}
            for origin in family.provenance[i]
        ]
        for i in range(len(family.sets))
    }
    return doc


# ---------------------------------------------------------------------------
# DOT export


def structure_to_dot(
    s: ContactStructure | EventStructure, contact_mode: str = "full"
) -> str:
    """Hasse diagram with optional dashed contact (or conflict) pairs.

    Solid edges point cover-upward; mode "extra" dashes only contact
    pairs beyond overlap, "none" suppresses them.  Reflexive pairs are
    never drawn.
    """
    if contact_mode not in ("full", "extra", "none"):
        raise ParseError(f"unknown contact mode {contact_mode!r}")
    if isinstance(s, EventStructure):
        names, rows, style = s.events, s.conflict, "conflict"
    else:
        names, rows, style = s.names, s.contact, "contact"
        if contact_mode == "extra":
            rows = [row & ~base for row, base in zip(rows, overlap_relation(s))]
    lines = ["digraph structure {", "  rankdir=BT;"]
    for name in names:
        lines.append(f'  "{name}";')
    for low, high in cover_pairs(s.up):
        lines.append(f'  "{names[low]}" -> "{names[high]}";')
    if contact_mode != "none":
        for x, y in _pairs(names, rows, 1):
            lines.append(f'  "{x}" -> "{y}" [dir=none, style=dashed, class={style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def report_lines(entries: list[tuple[str, bool, str]]) -> str:
    width = max((len(name) for name, _, _ in entries), default=0)
    out = []
    for name, ok, detail in entries:
        tag = "PASS" if ok else "FAIL"
        out.append(f"{tag}  {name.ljust(width)}  {detail}")
    return "\n".join(out)


def exit_code_for(exc: ContactError) -> int:
    """Exit-code contract: 1 verification, 2 parse, 3 budget."""
    from .errors import BudgetExceeded, ParseError as PE

    if isinstance(exc, PE):
        return 2
    if isinstance(exc, BudgetExceeded):
        return 3
    return 1
