"""Command-line surface.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 parse or format error, 3 exhausted budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple

from . import amalgam as am
from . import events as ev
from . import fraisse as fr
from . import gallery as ga
from . import io as formats
from . import represent as rp
from .core import POSET, SEMILATTICE, ContactStructure, check_contact_axioms
from .enumeration import AgeCatalog, enumerate_contact_structures
from .errors import BudgetExceeded, ContactError, KindMismatch, ParseError

THEOREM_CHOICES = ("prop2", "cor3", "4a", "4b")
CONTACT_KINDS = (POSET, SEMILATTICE)
ALL_KINDS = (*CONTACT_KINDS, formats.EVENT)
STDOUT = "stdout"
# The largest `enumerate --size` per kind.  Posets of size 8 start with
# a 7-atom carrier of 2^21 free-pair up-sets and 5,040 automorphisms,
# minutes of orbit filtering; semilattices of size 8 take seconds.
ENUMERATE_BOUNDS = {POSET: 7, SEMILATTICE: 8}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        code = args.handler(args)
        with _writing(STDOUT):
            sys.stdout.flush()
        return code
    except ContactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return formats.exit_code_for(exc)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand in ``COMMANDS``, or of ``command``
    alone, which parses and reports that command's argv identically."""
    parser = argparse.ArgumentParser(
        prog="contactposets",
        description="Finite contact posets: axiom checks, representation "
        "embeddings, superamalgamation, limit stages and the gallery.",
    )
    # The metavar keeps a one-command parser's usage line naming every
    # subcommand; on the full parser it would replace "command" in errors.
    metavar = "{" + ",".join(COMMANDS) + "}" if command else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in [command] if command else COMMANDS:
        spec = COMMANDS[name]
        p = sub.add_parser(name, help=spec.help)
        for flags, kwargs in spec.arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(handler=spec.handler)
    return parser


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


# ---------------------------------------------------------------------------
# handlers


def cmd_check(args: argparse.Namespace) -> int:
    loaded = formats.load_structure(args.path, close=args.close)
    if args.kind and _kind_of(loaded) != args.kind:
        raise KindMismatch(f"kind mismatch: file holds {_kind_of(loaded)}")
    if isinstance(loaded, ev.EventStructure):
        report = ev.check_event_structure(loaded)
    else:
        report = check_contact_axioms(loaded, require_add=args.add)
    lines = []
    for check in report.checks:
        tag = "PASS" if check.passed else "FAIL"
        witness = f"  witness {check.witness}" if check.witness else ""
        lines.append(f"{tag}  {check.axiom}{witness}")
    _print("\n".join(lines))
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
    return {**asdict(report), "is_embedding": report.is_embedding}


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
    bound = ENUMERATE_BOUNDS[args.kind]
    if args.size > bound:
        raise BudgetExceeded(
            f"enumerating {args.kind} structures of size {args.size} exceeds "
            f"the bound of size {bound}"
        )
    items = enumerate_contact_structures(args.size, args.kind)
    _print(f"{len(items)} structures of size {args.size} ({args.kind})")
    if args.out:
        directory = Path(args.out)
        with _writing(directory):
            directory.mkdir(parents=True, exist_ok=True)
        catalog = AgeCatalog.build(args.size, args.kind)
        for n in range(1, args.size + 1):
            payload = [formats.structure_to_doc(item) for item in catalog.by_size(n)]
            _emit(payload, directory / f"catalog-{args.kind}-{n}.json")
        _print(f"catalog written to {directory}")
    return 0


def cmd_gallery(args: argparse.Namespace) -> int:
    report = ga.run_gallery(bound=args.bound, failure_bound=args.failure_bound)
    _print(formats.report_lines(list(report.entries)))
    return 0 if report.ok else 1


def cmd_export_dot(args: argparse.Namespace) -> int:
    loaded = formats.load_structure(args.path)
    text = formats.structure_to_dot(loaded, contact_mode=args.contact)
    if args.out:
        with _writing(args.out):
            Path(args.out).write_text(text, encoding="utf-8")
    else:
        _print(text, end="")
    return 0


def _emit(bundle: Any, out: str | Path | None) -> None:
    text = json.dumps(bundle, indent=2, sort_keys=True)
    if out:
        with _writing(out):
            Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        _print(text)


def _print(text: str, end: str = "\n") -> None:
    with _writing(STDOUT):
        print(text, end=end)


@contextmanager
def _writing(path: str | Path) -> Iterator[None]:
    """Report a failed write to ``path`` as a ParseError (exit 2), as
    ``load_structure`` reports a failed read.  After a failed stdout
    write, whatever is still buffered for stdout goes to the null
    device, so the interpreter's flush at exit cannot fail again."""
    try:
        yield
    except OSError as exc:
        if path == STDOUT:
            _discard_stdout()
        raise ParseError(f"cannot write {path}: {exc}") from exc


def _discard_stdout() -> None:
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


# ---------------------------------------------------------------------------
# the subcommand table


class Command(NamedTuple):
    help: str
    handler: Callable[[argparse.Namespace], int]
    arguments: tuple[tuple[tuple[str, ...], dict[str, Any]], ...]


def _arg(*flags: str, **kwargs: Any) -> tuple[tuple[str, ...], dict[str, Any]]:
    return flags, kwargs


_OUT = _arg("--out")

COMMANDS: dict[str, Command] = {
    "check": Command("validate a structure file", cmd_check, (
        _arg("path"),
        _arg("--add", action="store_true", help="also require additivity"),
        _arg("--kind", choices=ALL_KINDS),
        _arg("--close", action="store_true",
             help="close the contact relation instead of validating strictly"),
    )),
    "embed": Command("run a representation construction", cmd_embed, (
        _arg("path"),
        _arg("--theorem", choices=THEOREM_CHOICES, required=True),
        _OUT,
        _arg("--close", action="store_true"),
    )),
    "amalgamate": Command("amalgamate A and B over C", cmd_amalgamate, (
        _arg("path_a"),
        _arg("path_b"),
        _arg("path_c"),
        _arg("--kind", choices=ALL_KINDS, default=POSET),
        _OUT,
    )),
    "fraisse": Command("build a limit stage", cmd_fraisse, (
        _arg("--kind", choices=CONTACT_KINDS, default=POSET),
        _arg("--cap", type=_positive_int, default=2, help="substructure size cap"),
        _arg("--budget", type=_positive_int, default=8, help="number of sweeps"),
        _arg("--max-elements", type=_positive_int, default=64),
        _OUT,
    )),
    "enumerate": Command("catalog structures up to isomorphism", cmd_enumerate, (
        _arg("--size", type=_positive_int, required=True),
        _arg("--kind", choices=CONTACT_KINDS, default=POSET),
        _arg("--out", help="directory for one catalog file per size"),
    )),
    "gallery": Command("run every gallery check", cmd_gallery, (
        _arg("--bound", type=_positive_int, default=6),
        _arg("--failure-bound", type=_positive_int, default=8),
    )),
    "export-dot": Command("Hasse diagram as DOT text", cmd_export_dot, (
        _arg("path"),
        _arg("--contact", choices=("full", "extra", "none"), default="full"),
        _OUT,
    )),
}


if __name__ == "__main__":
    sys.exit(main())
