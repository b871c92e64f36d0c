"""The four benchmark workloads.

Each workload has three parts.  ``setup`` turns the seed into inputs
(catalogs, instance lists, files); only those inputs reach the library.
``run_pass`` makes the library calls of one pass and times them; every
library call's time belongs to exactly one verdict, and each pass
starts with the library's memo caches cleared, as a fresh process
would.  ``check`` decides every verdict of a pass against the
independent reference in ``reference.py``.  ``known_failures`` names
the verdicts, by label and exception type, that the library is known
to raise on; any other raised verdict makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import json
import random
import shutil
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path

import reference as ref
from meter import elapsed_ms, mark


@dataclass
class Verdict:
    """One unit of checked work: its label, the milliseconds of library
    time it took (CPU time at the meter's reference speed), the
    library's output and the exception it raised."""

    label: str
    ms: float
    output: object = None
    error: str | None = None


def _names(rng: random.Random, count: int) -> list[str]:
    """Distinct seeded element names."""
    letters = "abcdefghijkmnpqrstuvwxyz"
    return [
        "".join(rng.choice(letters) for _ in range(3)) + str(k)
        for k in range(count)
    ]


def _renamed(r: ref.Rel, rng: random.Random) -> ref.Rel:
    return ref.rename(r, dict(zip(r.names, _names(rng, len(r.names)))))


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    for file in sorted(path.rglob("*")) if path.is_dir() else [path]:
        if file.is_file():
            h.update(file.name.encode())
            h.update(file.read_bytes())
    return h.hexdigest()


def _size(path: Path) -> int:
    if path.is_dir():
        return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())
    return path.stat().st_size if path.exists() else 0


def _group_statuses(verdicts, check_group) -> list[bool]:
    """Statuses for verdicts that come in labelled batches; a batch whose
    global properties (counts, distinctness) fail is wrong as a whole."""
    statuses = [False] * len(verdicts)
    groups: dict[str, list[int]] = {}
    for k, v in enumerate(verdicts):
        if v.error is None:
            groups.setdefault(v.label, []).append(k)
    for label, members in groups.items():
        outcome = check_group(label, [verdicts[k].output for k in members])
        for k, ok in zip(members, outcome):
            statuses[k] = ok
    return statuses


def _distinct_by(items, key) -> bool:
    keys = [key(x) for x in items]
    return len(set(keys)) == len(keys)


# ---------------------------------------------------------------------------
# catalog


class Catalog:
    """Cold enumeration of the catalogs every sweep leans on.  A verdict
    is one class produced and validated; classes come out of one library
    call per request, so each gets that call's time divided evenly."""

    name = "catalog"
    known_failures: frozenset = frozenset()
    REQUESTS = (
        [("contact", "poset", n) for n in range(1, 7)]
        + [("contact", "semilattice", n) for n in range(1, 8)]
        + [("distributive", "semilattice", 8), ("events", "event", 4)]
    )

    def setup(self, lib, seed: int, workdir: Path):
        requests = list(self.REQUESTS)
        random.Random(seed).shuffle(requests)
        return requests

    def run_pass(self, lib, requests) -> list[Verdict]:
        lib.clear_caches()
        verdicts = []
        for what, kind, n in requests:
            label = f"{what}:{kind}:{n}"
            start = mark()
            try:
                if what == "contact":
                    items = lib.enumeration.enumerate_contact_structures(n, kind)
                elif what == "distributive":
                    items = lib.enumeration.enumerate_distributive_lattices(n)
                else:
                    items = lib.events.enumerate_event_structures(n)
            except Exception as exc:  # one failed verdict for the request
                verdicts.append(Verdict(label, elapsed_ms(start), None, repr(exc)))
                continue
            ms = elapsed_ms(start)
            verdicts.extend(Verdict(label, ms / max(len(items), 1), item)
                            for item in items)
        return verdicts

    def check(self, requests, verdicts) -> list[bool]:
        return _group_statuses(verdicts, self._check_group)

    def _check_group(self, label, items) -> list[bool]:
        what, kind, n = label.split(":")
        n = int(n)
        if what == "events":
            rels = [ref.from_event(e) for e in items]
            valid = [ref.event_ok(r) and r.kind == "event" for r in rels]
            sizes = {k: sum(1 for r in rels if len(r.names) == k)
                     for k in range(n + 1)}
            whole = sizes == ref.EVENT_CLASSES
        elif what == "distributive":
            rels = [ref.from_contact(s) for s in items]
            valid = [s.kind == "semilattice" and not r.rel
                     and ref.order_ok(r) and ref.is_distributive(r)
                     for s, r in zip(items, rels)]
            sizes = {k: sum(1 for r in rels if len(r.names) == k)
                     for k in range(1, n + 1)}
            whole = sizes == ref.DISTRIBUTIVE_LATTICES
        else:
            rels = [ref.from_contact(s) for s in items]
            valid = [len(r.names) == n and r.kind == kind and ref.contact_ok(r)
                     for r in rels]
            carriers = len({ref.carrier_key(r) for r in rels})
            table = ref.POSETS_WITH_BOTTOM if kind == "poset" else ref.LATTICES
            whole = carriers == table[n]
            pinned = ref.CONTACT_CLASSES[kind].get(n)
            if pinned is not None:
                whole = whole and len(rels) == pinned
        whole = whole and _distinct_by(rels, ref.canonical)
        return [ok and whole for ok in valid]

    def fingerprint(self, verdict):
        return verdict.output


# ---------------------------------------------------------------------------
# gluing_sweep


def _amalgamate(lib, kind, inst):
    if kind == "semilattice":
        result = lib.amalgam.semilattice_amalgam(inst)
        return (inst, result.poset_amalgam, result.superamalgamation.ok, result)
    d = lib.amalgam.contact_amalgam(inst)
    return (inst, d, lib.amalgam.verify_superamalgamation(inst, d).ok, None)


def _drain(gluings, label: str, amalgamate, verdicts: list) -> int:
    """One verdict per instance the iterator yields, timed together with
    its amalgamation; the time the iterator takes to finish counts toward
    its last verdict.  Returns the number of verdicts added."""
    added = 0
    while True:
        start = mark()
        try:
            item = next(gluings)
        except StopIteration:
            if added:
                verdicts[-1].ms += elapsed_ms(start)
            return added
        except Exception as exc:
            verdicts.append(Verdict(label, elapsed_ms(start), None, repr(exc)))
            return added + 1
        try:
            output, error = amalgamate(item), None
        except Exception as exc:
            output, error = None, repr(exc)
        verdicts.append(Verdict(label, elapsed_ms(start), output, error))
        added += 1


class GluingSweep:
    """Many amalgamations of small instances: every gluing of poset and
    semilattice catalog items up to 4 elements, seeded random gluings of
    items up to 6, and every event gluing of seeded event pairs up to 4
    events.  A verdict is one instance amalgamated and re-checked; the
    instance's construction counts toward it."""

    name = "gluing_sweep"
    known_failures: frozenset = frozenset()
    RANDOM_DRAWS = 200      # per kind
    EVENT_GLUINGS = 1000    # event pairs are drawn until this many gluings

    def setup(self, lib, seed: int, workdir: Path):
        en = lib.enumeration
        rng = random.Random(seed)
        events = lib.events.enumerate_event_structures(4)
        return {
            "small": {k: en.AgeCatalog.build(4, k).items
                      for k in ("poset", "semilattice")},
            "large": {k: en.AgeCatalog.build(6, k)
                      for k in ("poset", "semilattice")},
            "draw_seed": rng.randrange(2**32),
            "event_pairs": [(rng.choice(events), rng.choice(events))
                            for _ in range(500)],
        }

    def run_pass(self, lib, inputs) -> list[Verdict]:
        lib.clear_caches()
        verdicts: list[Verdict] = []
        for kind, items in inputs["small"].items():
            for a in items:
                for b in items:
                    _drain(lib.fraisse.iter_gluings(a, b), f"glue:{kind}",
                           lambda inst: _amalgamate(lib, kind, inst), verdicts)
        for kind, catalog in inputs["large"].items():
            rng = random.Random(inputs["draw_seed"])
            for _ in range(self.RANDOM_DRAWS):
                start = mark()
                try:
                    inst = lib.fraisse.random_instance(catalog, rng)
                    output, error = _amalgamate(lib, kind, inst), None
                except Exception as exc:
                    output, error = None, repr(exc)
                verdicts.append(Verdict(f"random:{kind}", elapsed_ms(start),
                                        output, error))
        glued = 0
        for a, b in inputs["event_pairs"]:
            if glued >= self.EVENT_GLUINGS:
                break
            glued += _drain(lib.events.iter_event_gluings(a, b), "event",
                            lambda triple: (triple, lib.events.amalgamate_events(*triple)),
                            verdicts)
        return verdicts

    def check(self, inputs, verdicts) -> list[bool]:
        return [v.error is None and self._check_one(v) for v in verdicts]

    def _check_one(self, v: Verdict) -> bool:
        if v.label == "event":
            (a, b, c), result = v.output
            sides = [ref.from_event(x) for x in (a, b, c)]
            d = ref.from_event(result.amalgam)
            valid = ref.event_ok(d)
            flag = result.superamalgamation_ok
        else:
            inst, amalgam, flag, sem = v.output
            sides = [ref.from_contact(x) for x in (inst.a, inst.b, inst.c)]
            d = ref.from_contact(amalgam)
            valid = ref.contact_ok(d)
            if sem is not None:
                target = ref.from_contact(sem.family.structure)
                valid = valid and all(
                    ref.is_embedding(side, target, m.name_map, joins=True)
                    for side, m in ((sides[0], sem.from_a), (sides[1], sem.from_b))
                )
        a, b, c = sides
        witnessed = ref.cross_witnessed(d, a, b, c)
        return (
            valid
            and ref.restricts_exactly(d, a)
            and ref.restricts_exactly(d, b)
            and ref.strong(d, a, b, c)
            and witnessed
            and flag == witnessed
        )

    def fingerprint(self, verdict):
        if verdict.label == "event":
            return verdict.output[1]
        inst, amalgam, flag, sem = verdict.output
        return (inst, amalgam, flag, None if sem is None else sem.family.structure)


# ---------------------------------------------------------------------------
# limit_stage


class LimitStage:
    """Two finite limit stages and their extension-property reports.  A
    verdict is one realization glued or one (copy, extension) pair
    decided; both come out of one library call per leg, so each gets
    that call's time divided evenly."""

    name = "limit_stage"
    known_failures: frozenset = frozenset()
    CAP = 2
    SWEEPS = 64
    LEGS = (("poset", 128), ("semilattice", 64))

    def setup(self, lib, seed: int, workdir: Path):
        rng = random.Random(seed)
        catalogs = {}
        for kind, _ in self.LEGS:
            built = lib.enumeration.AgeCatalog.build(self.CAP + 1, kind)
            items = tuple(
                item.rename(dict(zip(item.names, _names(rng, item.n))))
                for item in built.items
            )
            catalogs[kind] = lib.enumeration.AgeCatalog(built.bound, kind, items)
        return catalogs

    def run_pass(self, lib, catalogs) -> list[Verdict]:
        lib.clear_caches()
        fr = lib.fraisse
        verdicts = []
        for kind, max_elements in self.LEGS:
            catalog = catalogs[kind]
            start = mark()
            try:
                stage = fr.build_limit_stage(kind, self.CAP, self.SWEEPS,
                                             catalog=catalog,
                                             max_elements=max_elements)
            except Exception as exc:
                verdicts.append(Verdict(f"stage:{kind}", elapsed_ms(start),
                                        None, repr(exc)))
                continue
            ms = elapsed_ms(start) / max(len(stage.log), 1)
            verdicts.extend(Verdict(f"stage:{kind}", ms, (stage, k))
                            for k in range(len(stage.log)))
            start = mark()
            try:
                report = fr.check_extension_property(stage, self.CAP, catalog=catalog)
            except Exception as exc:
                verdicts.append(Verdict(f"pairs:{kind}", elapsed_ms(start),
                                        None, repr(exc)))
                continue
            ms = elapsed_ms(start) / max(report.total, 1)
            verdicts.extend(Verdict(f"pairs:{kind}", ms, (stage, report))
                            for _ in range(report.total))
        return verdicts

    def check(self, catalogs, verdicts) -> list[bool]:
        return _group_statuses(
            verdicts, lambda label, outputs: self._check_group(catalogs, label, outputs))

    def _check_group(self, catalogs, label, outputs) -> list[bool]:
        what, kind = label.split(":")
        stage = outputs[0][0]
        s = ref.from_contact(stage.structure)
        joins = kind == "semilattice"
        if not (ref.contact_ok(s) and s.kind == kind):
            return [False] * len(outputs)
        if what == "stage":
            return [self._realized(s, stage.log[k], joins) for _, k in outputs]
        report = outputs[0][1]
        items = [ref.from_contact(x) for x in catalogs[kind].items]
        sizes = {n: sum(1 for r in items if len(r.names) == n)
                 for n in range(1, self.CAP + 2)}
        pinned = {n: ref.CONTACT_CLASSES[kind][n] for n in sizes}
        if sizes != pinned or not all(ref.contact_ok(r) for r in items):
            return [False] * len(outputs)
        total, misses = _extension_pairs(s, items, self.CAP, joins)
        got = sorted(
            (m.image, ref.canonical(ref.from_contact(m.extension)))
            for m in report.misses
        )
        agree = (
            report.total == total == len(outputs)
            and report.realized == total - len(misses)
            and got == sorted(misses)
        )
        return [agree] * len(outputs)

    @staticmethod
    def _realized(s: ref.Rel, entry, joins: bool) -> bool:
        """The logged extension sits in the final stage on the copy's
        image plus the fresh point, extending the logged copy."""
        sub = ref.from_contact(entry.sub)
        ext = ref.from_contact(entry.extension)
        f = dict(entry.embedding)
        image = [f[x] for x in sub.names]
        if entry.fresh_name in image or entry.fresh_name not in s.names:
            return False
        targets = image + [entry.fresh_name]
        return any(
            ref.is_embedding(ext, s, g, joins)
            and ref.is_embedding(sub, ext, {x: inv[f[x]] for x in sub.names})
            for g in _bijections(ext.names, targets)
            for inv in [{v: k for k, v in g.items()}]
        )

    def fingerprint(self, verdict):
        stage, detail = verdict.output
        if isinstance(detail, int):
            return (stage.structure, stage.log[detail])
        return (detail.total, detail.realized, detail.misses)


def _bijections(domain, targets):
    for perm in permutations(targets):
        yield dict(zip(domain, perm))


def _extension_pairs(s: ref.Rel, items, cap: int, joins: bool):
    """Every (copy, one-point extension) pair over items of size <= cap,
    extensions taken up to isomorphism over the copy; returns the total
    and the misses as (image, canonical extension) pairs."""
    total = 0
    misses = []
    for sub in items:
        if len(sub.names) > cap:
            continue
        extensions = _one_point_extensions(sub, items, joins)
        others = [x for x in s.names if x != s.bottom]
        rest = [x for x in sub.names if x != sub.bottom]
        for chosen in permutations(others, len(rest)):
            f = dict(zip(rest, chosen))
            f[sub.bottom] = s.bottom
            if not ref.is_embedding(sub, s, f, joins):
                continue
            image = tuple(f[x] for x in sub.names)
            for ext, into in extensions:
                total += 1
                if not _realizable(s, f, ext, into, joins):
                    misses.append((image, ref.canonical(ext)))
    return total, misses


def _one_point_extensions(sub: ref.Rel, items, joins: bool):
    """(t, into) with t one element larger than sub and into an embedding
    of sub, one per class of isomorphism over sub."""
    out = []
    for t in items:
        if len(t.names) != len(sub.names) + 1:
            continue
        for into in _maps_into(sub, t):
            if not ref.is_embedding(sub, t, into, joins):
                continue
            if not any(_same_extension(t, into, t2, into2) for t2, into2 in out):
                out.append((t, into))
    return out


def _maps_into(sub: ref.Rel, t: ref.Rel):
    for image in permutations(t.names, len(sub.names)):
        yield dict(zip(sub.names, image))


def _same_extension(t, into, t2, into2) -> bool:
    if len(t.names) != len(t2.names):
        return False
    return any(
        ref.is_embedding(t, t2, h) and all(h[into[x]] == into2[x] for x in into)
        for h in _bijections(t.names, list(t2.names))
    )


def _realizable(s: ref.Rel, f: dict, ext: ref.Rel, into: dict, joins: bool) -> bool:
    anchored = {into[x]: f[x] for x in into}
    new = [x for x in ext.names if x not in anchored]
    used = set(anchored.values())
    for candidate in s.names:
        if candidate in used:
            continue
        g = dict(anchored)
        g[new[0]] = candidate
        if ref.is_embedding(ext, s, g, joins):
            return True
    return False


# ---------------------------------------------------------------------------
# cli


@dataclass
class Invocation:
    argv: list
    codes: tuple        # exit codes the contract allows for this input
    kind: str           # how the result is checked
    out: Path | None = None
    detail: object = None
    label: str = ""     # the verdict's label; the subcommand by default

    def __post_init__(self):
        self.label = self.label or self.argv[0]


class Cli:
    """In-process ``cli.main`` over a fixed script of subcommands,
    writing bundles and reading them back.  A verdict is one invocation
    with an allowed exit code and an output that checks out.  Caches are
    cleared before every invocation, as each would be its own process."""

    name = "cli"
    CHAIN = 65  # members past 64 take the family-overlap table path
    PROBE = f"embed-chain{CHAIN}"
    # The family-overlap table overflows past 64 members (an open defect).
    known_failures = frozenset({(PROBE, "OverflowError")})

    def setup(self, lib, seed: int, workdir: Path):
        rng = random.Random(seed)
        en = lib.enumeration
        inputs = workdir / "in"
        outputs = workdir / "out"
        for d in (inputs, outputs):
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir(parents=True)
        script: list[Invocation] = []

        def write(name, r: ref.Rel) -> Path:
            path = inputs / f"{name}.json"
            path.write_text(json.dumps(ref.to_doc(r)), encoding="utf-8")
            return path

        def out(name) -> Path:
            return outputs / name

        for k, item in enumerate(en.AgeCatalog.build(5, "poset").items):
            r = _renamed(ref.from_contact(item), rng)
            path = write(f"poset{k}", r)
            script.append(Invocation(["check", str(path)], (0,), "check"))
            dot = out(f"poset{k}.dot")
            script.append(Invocation(["export-dot", str(path), "--out", str(dot)],
                                     (0,), "dot", dot, r))
            theorems = ["prop2", "cor3"] + (["4a"] if len(r.names) <= 4 else [])
            for theorem in theorems:
                bundle = out(f"poset{k}-{theorem}.json")
                script.append(Invocation(
                    ["embed", str(path), "--theorem", theorem, "--out", str(bundle)],
                    (0,), "embed", bundle, (theorem, r)))
        for k, item in enumerate(en.AgeCatalog.build(6, "semilattice").items):
            r = _renamed(ref.from_contact(item), rng)
            path = write(f"semilattice{k}", r)
            for theorem in ("prop2", "4b"):
                bundle = out(f"semilattice{k}-{theorem}.json")
                script.append(Invocation(
                    ["embed", str(path), "--theorem", theorem, "--out", str(bundle)],
                    (0,), "embed", bundle, (theorem, r)))

        fixtures = Path(lib.root) / "fixtures"
        a, b, c = (ref.from_doc(json.loads((fixtures / f"amalgam_{x}.json").read_text()))
                   for x in "abc")
        poset_paths = [str(fixtures / f"amalgam_{x}.json") for x in "abc"]
        lattice_paths = [
            str(write(f"lattice_{tag}", ref.Rel(r.names, r.bottom, r.leq, r.rel,
                                                "semilattice")))
            for tag, r in zip("abc", (a, b, c))
        ]
        ea = ref.from_doc(json.loads((fixtures / "events3.json").read_text()))
        ec = ref.induced(ea, ea.names[:2])
        fresh = "f" + _names(rng, 1)[0]
        eb = ref.Rel(
            ec.names + (fresh,), None,
            ec.leq | {(fresh, fresh), (ec.names[0], fresh)},
            ec.rel | {(fresh, ec.names[1]), (ec.names[1], fresh)}, "event",
        )
        event_paths = [str(write(f"event_{tag}", r))
                       for tag, r in zip("abc", (ea, eb, ec))]
        for kind, paths, sides in (
            ("poset", poset_paths, (a, b, c)),
            ("semilattice", lattice_paths, (a, b, c)),
            ("event", event_paths, (ea, eb, ec)),
        ):
            bundle = out(f"amalgam-{kind}.json")
            script.append(Invocation(
                ["amalgamate", *paths, "--kind", kind, "--out", str(bundle)],
                (0,), "amalgamate", bundle, (kind, sides)))

        catalog_dir = out("catalog")
        script.append(Invocation(["enumerate", "--size", "6", "--out", str(catalog_dir)],
                                 (0,), "enumerate", catalog_dir))
        script.append(Invocation(["gallery", "--bound", "6", "--failure-bound", "8"],
                                 (0,), "gallery"))

        bad_json = inputs / "bad.json"
        bad_json.write_text("{\"elements\": [", encoding="utf-8")
        bad_shape = inputs / "shape.json"
        bad_shape.write_text(json.dumps({"elements": "0", "bottom": "0"}),
                             encoding="utf-8")
        first = str(inputs / "poset0.json")
        script += [
            Invocation(["check", str(bad_json)], (2,), "error"),
            Invocation(["check", str(bad_shape)], (2,), "error"),
            Invocation(["embed", first, "--theorem", "5c"], (2,), "error"),
            Invocation(["check", str(fixtures / "m3_overlap.json"), "--add"],
                       (1,), "error"),
            Invocation(["amalgamate", poset_paths[0], poset_paths[1], poset_paths[0]],
                       (1,), "error"),
            Invocation(["embed", str(inputs / "poset4.json"), "--theorem", "4b"],
                       (1,), "error"),
        ]

        # A chain past 64 members: prop2 must end in a contract code.
        names = _names(rng, self.CHAIN)
        chain = ref.Rel(
            tuple(names), names[0],
            ref.close_order(names, list(zip(names, names[1:]))), frozenset(), "poset",
        )
        chain_path = write("chain", chain)
        overlap = frozenset((x, y) for x in names[1:] for y in names[1:])
        bundle = out("chain-prop2.json")
        script.append(Invocation(
            ["embed", str(chain_path), "--theorem", "prop2", "--close",
             "--out", str(bundle)],
            (0, 3), "embed", bundle,
            ("prop2", ref.Rel(chain.names, chain.bottom, chain.leq, overlap, "poset")),
            self.PROBE))

        rng.shuffle(script)
        return script

    def run_pass(self, lib, script) -> list[Verdict]:
        verdicts = []
        for inv in script:
            lib.clear_caches()
            if inv.out is not None and inv.out.is_dir():
                shutil.rmtree(inv.out)
            elif inv.out is not None:
                inv.out.unlink(missing_ok=True)
            stdout, stderr = stdio.StringIO(), stdio.StringIO()
            error = None
            start = mark()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    try:
                        code = lib.cli.main(list(inv.argv))
                    except SystemExit as exc:
                        code = exc.code
            except Exception as exc:  # an escaped exception is a failed verdict
                code, error = None, repr(exc)
            took = elapsed_ms(start) / 1000
            written = _size(inv.out) if inv.out is not None else 0
            digest = _digest(inv.out) if inv.out is not None and inv.out.exists() else None
            verdicts.append(Verdict(inv.label, 1000 * took,
                                    (code, stdout.getvalue(), digest, written), error))
        return verdicts

    def layer_counts(self, script, verdicts) -> dict:
        """The ``io`` and ``cli`` counters of one pass: bytes the script's
        commands wrote and exit codes outside what the contract allows."""
        return {
            "io.bytes_written": sum(v.output[3] for v in verdicts),
            "cli.exit_code_mismatches": sum(
                v.output[0] not in inv.codes for inv, v in zip(script, verdicts)),
        }

    def fingerprint(self, verdict):
        return verdict.output

    def check(self, script, verdicts) -> list[bool]:
        return [
            v.error is None and v.output[0] in inv.codes and self._check_one(inv, v)
            for inv, v in zip(script, verdicts)
        ]

    def _check_one(self, inv: Invocation, v: Verdict) -> bool:
        code, stdout, _, _ = v.output
        if inv.kind == "error":
            return True
        if inv.kind == "check":
            lines = stdout.splitlines()
            return bool(lines) and all(line.startswith("PASS") for line in lines)
        if inv.kind == "gallery":
            lines = stdout.splitlines()
            return len(lines) == 6 and all(line.startswith("PASS") for line in lines)
        if code != 0:
            return True  # an allowed non-zero code writes no bundle
        if inv.kind == "dot":
            return _check_dot(inv.detail, inv.out.read_text(encoding="utf-8"))
        if inv.kind == "enumerate":
            return _check_catalog_files(inv.out, stdout)
        bundle = json.loads(inv.out.read_text(encoding="utf-8"))
        if inv.kind == "embed":
            theorem, source = inv.detail
            return _check_embed(theorem, source, bundle)
        kind, sides = inv.detail
        return _check_amalgamate(kind, sides, bundle)


def _covers(r: ref.Rel) -> set:
    strict = {(x, y) for x, y in r.leq if x != y}
    return {
        (x, y) for x, y in strict
        if not any((x, z) in strict and (z, y) in strict for z in r.names)
    }


def _check_dot(r: ref.Rel, text: str) -> bool:
    nodes, solid, dashed = set(), set(), set()
    for line in text.splitlines():
        parts = line.strip().rstrip(";").split('"')
        if len(parts) == 3:
            nodes.add(parts[1])
        elif len(parts) == 5 and "style=dashed" in parts[4]:
            dashed.add(frozenset((parts[1], parts[3])))
        elif len(parts) == 5:
            solid.add((parts[1], parts[3]))
    contact = {frozenset(p) for p in r.rel if p[0] != p[1]}
    return nodes == set(r.names) and solid == _covers(r) and dashed == contact


def _family(doc: dict):
    """The set family of a target document, rebuilt from its members:
    inclusion order and overlap contact (some member other than the
    least one lies inside both) recomputed, then compared with the
    document's own order and contact."""
    sets = {name: frozenset(members) for name, members in doc["sets"].items()}
    names = tuple(doc["elements"])
    if set(names) != set(sets) or len(set(sets.values())) != len(sets):
        return None
    universe = frozenset(doc["universe"])
    if any(not s <= universe for s in sets.values()):
        return None
    least = [x for x in names if all(sets[x] <= s for s in sets.values())]
    if len(least) != 1:
        return None
    powerset = len(sets) == 2 ** len(universe)
    witnesses = [s for x, s in sets.items() if x != least[0]]
    leq = frozenset((x, y) for x in names for y in names if sets[x] <= sets[y])
    if powerset:
        rel = frozenset((x, y) for x in names for y in names if sets[x] & sets[y])
    else:
        rel = frozenset(
            (x, y) for x in names for y in names
            if any(m <= sets[x] & sets[y] for m in witnesses)
        )
    stated = ref.from_doc(doc)
    if stated.bottom != least[0] or stated.leq != leq or stated.rel != rel:
        return None
    return ref.Rel(names, least[0], leq, rel, doc["kind"]), sets, powerset


def _same(a: ref.Rel, b: ref.Rel) -> bool:
    return (a.names, a.bottom, a.leq, a.rel, a.kind) == (b.names, b.bottom, b.leq,
                                                         b.rel, b.kind)


def _check_embed(theorem: str, source: ref.Rel, bundle: dict) -> bool:
    if bundle.get("construction") != theorem:
        return False
    if not _same(ref.from_doc(bundle["source"]), source):
        return False
    family = _family(bundle["target"])
    if family is None:
        return False
    target, sets, powerset = family
    f = bundle["map"]
    values = set(sets.values())
    union_closed = all(x | y in values for x in values for y in values)
    if theorem == "4a":
        return powerset and ref.is_embedding(source, target, f)
    if theorem == "4b":
        complete = (
            frozenset().union(*values) in values
            and all(x & y in values for x in values for y in values)
        )
        return complete and ref.is_embedding(source, target, f, joins=True)
    if theorem == "cor3":
        joins_to_unions = all(
            sets[f[j]] == sets[f[x]] | sets[f[y]]
            for x in source.names for y in source.names
            for j in [ref.join(source, x, y)] if j is not None
        )
        return (union_closed and joins_to_unions
                and ref.is_embedding(source, target, f))
    if source.kind == "semilattice":
        return union_closed and ref.is_embedding(source, target, f, joins=True)
    return ref.is_embedding(source, target, f)


def _check_amalgamate(kind: str, sides, bundle: dict) -> bool:
    a, b, c = sides
    d = ref.from_doc(bundle["amalgam"])
    witnessed = ref.cross_witnessed(d, a, b, c)
    ok = (
        ref.restricts_exactly(d, a) and ref.restricts_exactly(d, b)
        and ref.strong(d, a, b, c) and witnessed
    )
    if kind == "event":
        return ok and ref.event_ok(d) and bundle["superamalgamation_ok"] is witnessed
    ok = ok and ref.contact_ok(d) and bundle["strong"] is True
    ok = ok and bundle["superamalgamation"]["ok"] is witnessed
    if kind == "semilattice":
        family = _family(bundle["semilattice_target"])
        if family is None:
            return False
        target = family[0]
        ok = ok and all(
            ref.is_embedding(ref.Rel(s.names, s.bottom, s.leq, s.rel, "semilattice"),
                             target, bundle[key], joins=True)
            for s, key in ((a, "map_a"), (b, "map_b"))
        )
    return ok


def _check_catalog_files(directory: Path, stdout: str) -> bool:
    files = sorted(p.name for p in directory.iterdir())
    if files != [f"catalog-poset-{n}.json" for n in range(1, 7)]:
        return False
    for n in range(1, 7):
        docs = json.loads((directory / f"catalog-poset-{n}.json").read_text())
        rels = [ref.from_doc(doc) for doc in docs]
        if not all(len(r.names) == n and ref.contact_ok(r) for r in rels):
            return False
        if len({ref.carrier_key(r) for r in rels}) != ref.POSETS_WITH_BOTTOM[n]:
            return False
        pinned = ref.CONTACT_CLASSES["poset"].get(n)
        if pinned is not None and len(rels) != pinned:
            return False
        if not _distinct_by(rels, ref.canonical):
            return False
        if n == 6 and not stdout.startswith(f"{len(rels)} structures of size 6"):
            return False
    return True


WORKLOADS = {w.name: w for w in (Catalog(), GluingSweep(), LimitStage(), Cli())}
