"""Command-line surface.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 parse or format error, 3 exhausted budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from . import amalgam as am
from . import events as ev
from . import fraisse as fr
from . import gallery as ga
from . import io as formats
from . import represent as rp
from .core import POSET, SEMILATTICE, ContactStructure, check_contact_axioms
from .enumeration import AgeCatalog, enumerate_contact_structures
from .errors import ContactError, KindMismatch

THEOREM_CHOICES = ("prop2", "cor3", "4a", "4b")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ContactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return formats.exit_code_for(exc)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contactposets",
        description="Finite contact posets: axiom checks, representation "
        "embeddings, superamalgamation, limit stages and the gallery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate a structure file")
    p_check.add_argument("path")
    p_check.add_argument("--add", action="store_true", help="also require additivity")
    p_check.add_argument("--kind", choices=(POSET, SEMILATTICE, formats.EVENT))
    p_check.add_argument(
        "--close", action="store_true", help="close the contact relation instead of validating strictly"
    )
    p_check.set_defaults(handler=cmd_check)

    p_embed = sub.add_parser("embed", help="run a representation construction")
    p_embed.add_argument("path")
    p_embed.add_argument("--theorem", choices=THEOREM_CHOICES, required=True)
    p_embed.add_argument("--out")
    p_embed.add_argument("--close", action="store_true")
    p_embed.set_defaults(handler=cmd_embed)

    p_am = sub.add_parser("amalgamate", help="amalgamate A and B over C")
    p_am.add_argument("path_a")
    p_am.add_argument("path_b")
    p_am.add_argument("path_c")
    p_am.add_argument("--kind", choices=(POSET, SEMILATTICE, formats.EVENT), default=POSET)
    p_am.add_argument("--out")
    p_am.set_defaults(handler=cmd_amalgamate)

    p_fr = sub.add_parser("fraisse", help="build a limit stage")
    p_fr.add_argument("--kind", choices=(POSET, SEMILATTICE), default=POSET)
    p_fr.add_argument("--cap", type=int, default=2, help="substructure size cap")
    p_fr.add_argument("--budget", type=int, default=8, help="number of sweeps")
    p_fr.add_argument("--max-elements", type=int, default=64)
    p_fr.add_argument("--out")
    p_fr.set_defaults(handler=cmd_fraisse)

    p_en = sub.add_parser("enumerate", help="catalog structures up to isomorphism")
    p_en.add_argument("--size", type=_positive_int, required=True)
    p_en.add_argument("--kind", choices=(POSET, SEMILATTICE), default=POSET)
    p_en.add_argument("--out", help="directory for one catalog file per size")
    p_en.set_defaults(handler=cmd_enumerate)

    p_ga = sub.add_parser("gallery", help="run every gallery check")
    p_ga.add_argument("--bound", type=int, default=6)
    p_ga.add_argument("--failure-bound", type=int, default=8)
    p_ga.set_defaults(handler=cmd_gallery)

    p_dot = sub.add_parser("export-dot", help="Hasse diagram as DOT text")
    p_dot.add_argument("path")
    p_dot.add_argument("--contact", choices=("full", "extra", "none"), default="full")
    p_dot.add_argument("--out")
    p_dot.set_defaults(handler=cmd_export_dot)

    return parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


# ---------------------------------------------------------------------------
# handlers


def cmd_check(args: argparse.Namespace) -> int:
    loaded = formats.load_structure(args.path, close=args.close)
    if args.kind and _kind_of(loaded) != args.kind:
        print(f"kind mismatch: file holds {_kind_of(loaded)}", file=sys.stderr)
        return 1
    if isinstance(loaded, ev.EventStructure):
        report = ev.check_event_structure(loaded)
    else:
        report = check_contact_axioms(loaded, require_add=args.add)
    for check in report.checks:
        tag = "PASS" if check.passed else "FAIL"
        witness = f"  witness {check.witness}" if check.witness else ""
        print(f"{tag}  {check.axiom}{witness}")
    return 0 if report.ok else 1


def _kind_of(loaded: Any) -> str:
    return formats.EVENT if isinstance(loaded, ev.EventStructure) else loaded.kind


def cmd_embed(args: argparse.Namespace) -> int:
    loaded = formats.load_structure(args.path, close=args.close)
    if isinstance(loaded, ev.EventStructure):
        raise KindMismatch("representation constructions need a contact structure")
    family, total = _dispatch_embedding(args.theorem, loaded)
    bundle = {
        "construction": args.theorem,
        "source": formats.structure_to_doc(loaded),
        "target": formats.family_to_doc(family),
        "map": total.name_map,
        "report": _report_doc(total),
    }
    _emit(bundle, args.out)
    return 0 if total.report.is_embedding else 1


def _dispatch_embedding(theorem: str, s: ContactStructure):
    if theorem == "prop2":
        if s.kind == SEMILATTICE:
            return rp.overlap_semilattice_embedding(s)
        return rp.overlap_poset_embedding(s)
    if theorem == "cor3":
        return rp.join_preserving_embedding(s)
    if theorem == "4a":
        return rp.powerset_embedding(s)
    if theorem == "4b":
        if s.kind != SEMILATTICE:
            raise KindMismatch("the completion construction needs a semilattice")
        return rp.complete_lattice_embedding(s)
    raise KindMismatch(f"unknown construction {theorem!r}")


def _super_doc(report) -> dict[str, Any]:
    return {
        "ok": report.ok,
        "witnesses": [
            {"lower": w.lower, "upper": w.upper, "through": w.through}
            for w in report.witnesses
        ],
    }


def _report_doc(total) -> dict[str, Any]:
    report = total.report
    return {
        "injective": report.injective,
        "bottom_preserving": report.bottom_preserving,
        "order_preserving": report.order_preserving,
        "order_reflecting": report.order_reflecting,
        "contact_preserving": report.contact_preserving,
        "contact_reflecting": report.contact_reflecting,
        "join_preserving": report.join_preserving,
        "is_embedding": report.is_embedding,
    }


def cmd_amalgamate(args: argparse.Namespace) -> int:
    if args.kind == formats.EVENT:
        return _amalgamate_events(args)
    a = _load_contact(args.path_a, args.kind)
    b = _load_contact(args.path_b, args.kind)
    c = _load_contact(args.path_c, args.kind)
    inst = am.AmalgamInstance.from_parts(a, b, c)
    if args.kind == SEMILATTICE:
        result = am.semilattice_amalgam(inst)
        d = result.poset_amalgam
        super_report = result.superamalgamation
        bundle = {
            "kind": SEMILATTICE,
            "amalgam": formats.structure_to_doc(d),
            "semilattice_target": formats.family_to_doc(result.family),
            "map_a": result.from_a.name_map,
            "map_b": result.from_b.name_map,
            "report_a": _report_doc(result.from_a),
            "report_b": _report_doc(result.from_b),
            "superamalgamation": _super_doc(super_report),
        }
        ok = (
            super_report.ok
            and result.from_a.report.is_embedding
            and result.from_b.report.is_embedding
        )
    else:
        d = am.contact_amalgam(inst)
        super_report = am.verify_superamalgamation(inst, d)
        bundle = {
            "kind": POSET,
            "amalgam": formats.structure_to_doc(d),
            "superamalgamation": _super_doc(super_report),
        }
        ok = super_report.ok
    ok = ok and d.n == a.n + b.n - c.n
    bundle["strong"] = d.n == a.n + b.n - c.n
    _emit(bundle, args.out)
    return 0 if ok else 1


def _amalgamate_events(args: argparse.Namespace) -> int:
    a = _load_event(args.path_a)
    b = _load_event(args.path_b)
    c = _load_event(args.path_c)
    result = ev.amalgamate_events(a, b, c)
    bundle = {
        "kind": formats.EVENT,
        "amalgam": formats.event_to_doc(result.amalgam),
        "superamalgamation_ok": result.superamalgamation_ok,
    }
    _emit(bundle, args.out)
    return 0 if result.superamalgamation_ok else 1


def _load_contact(path: str, kind: str) -> ContactStructure:
    loaded = formats.load_structure(path)
    if isinstance(loaded, ev.EventStructure):
        raise KindMismatch(f"{path} holds an event structure")
    if kind == SEMILATTICE and loaded.kind != SEMILATTICE:
        raise KindMismatch(f"{path} is not a semilattice")
    return loaded


def _load_event(path: str) -> ev.EventStructure:
    loaded = formats.load_structure(path)
    if not isinstance(loaded, ev.EventStructure):
        raise KindMismatch(f"{path} does not hold an event structure")
    return loaded


def cmd_fraisse(args: argparse.Namespace) -> int:
    stage = fr.build_limit_stage(
        args.kind, args.cap, args.budget, max_elements=args.max_elements
    )
    report = fr.check_extension_property(stage, args.cap)
    bundle = {
        "kind": args.kind,
        "stage": formats.structure_to_doc(stage.structure),
        "sweeps": stage.stage,
        "budget_exceeded": stage.budget_exceeded,
        "log": [
            {
                "substructure": formats.structure_to_doc(entry.sub),
                "embedding": dict(entry.embedding),
                "extension": formats.structure_to_doc(entry.extension),
                "fresh": entry.fresh_name,
            }
            for entry in stage.log
        ],
        "extension_property": {
            "cap": args.cap,
            "fraction": report.fraction,
            "total": report.total,
            "misses": len(report.misses),
            "misses_by_cause": report.misses_by_cause(),
        },
    }
    _emit(bundle, args.out)
    print(
        f"stage size {stage.structure.n}, sweeps {stage.stage}, "
        f"extension fraction {report.fraction:.4f}",
        file=sys.stderr,
    )
    return 3 if stage.budget_exceeded else 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    items = enumerate_contact_structures(args.size, args.kind)
    print(f"{len(items)} structures of size {args.size} ({args.kind})")
    if args.out:
        directory = Path(args.out)
        directory.mkdir(parents=True, exist_ok=True)
        catalog = AgeCatalog.build(args.size, args.kind)
        for n in range(1, args.size + 1):
            payload = [
                formats.structure_to_doc(item) for item in catalog.by_size(n)
            ]
            target = directory / f"catalog-{args.kind}-{n}.json"
            target.write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        print(f"catalog written to {directory}")
    return 0


def cmd_gallery(args: argparse.Namespace) -> int:
    report = ga.run_gallery(bound=args.bound, failure_bound=args.failure_bound)
    print(formats.report_lines(list(report.entries)))
    return 0 if report.ok else 1


def cmd_export_dot(args: argparse.Namespace) -> int:
    loaded = formats.load_structure(args.path)
    text = formats.structure_to_dot(loaded, contact_mode=args.contact)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return 0


def _emit(bundle: dict[str, Any], out: str | None) -> None:
    text = json.dumps(bundle, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


if __name__ == "__main__":
    sys.exit(main())
