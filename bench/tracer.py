"""Layer spans for the traced run, installed from outside the library.

Every public function and public class/static method of each layer
module is replaced, in every ``contactposets`` namespace that binds it,
by a wrapper that records a span: layer, function, start, end and the
span that was open when it started.  Generators get one span per
resumption.  Self time is a span's duration minus the time its child
spans cover.  ``core.bits`` (one resumption per set bit) and instance
methods and properties (per-element accessors) stay unwrapped; their
time counts toward the self time of the span that calls them.  Spans
are timed in CPU seconds, as verdicts are, and are not scaled.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import Counter

from meter import clock

LAYERS = ("core", "enumeration", "represent", "amalgam", "fraisse",
          "events", "gallery", "io", "cli")
UNWRAPPED = {"core.bits"}
SPAN_CAP = 200_000
# Costs of one event amalgamation, to set beside the baselines measured
# by profiling: the checks it runs and its inclusive time.
WATCHED = "events.amalgamate_events"
WATCHED_CHECKS = ("core.check_bottomless_axioms", "core.check_contact_axioms",
                  "core.verify_map")


class Tracer:
    """Span stack, per-layer totals and counters for one process."""

    def __init__(self):
        self.clock = clock  # CPU time, as the verdicts are timed
        self.stack: list[list] = []  # [span id, layer, key, start, child time]
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.errors: Counter = Counter()
        self.counters: Counter = Counter()
        self.covered_s = 0.0
        self._name_ids: dict[str, int] = {}
        self.span_id = array("l")
        self.span_parent = array("l")
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._next_id = 0
        self._watched_open = 0

    def enter(self, layer: str, key: str) -> list:
        self._next_id += 1
        if key == WATCHED:
            self._watched_open += 1
        frame = [self._next_id, layer, key, self.clock(), 0.0]
        self.stack.append(frame)
        return frame

    def leave(self, frame: list, failed: bool) -> None:
        end = self.clock()
        self.stack.pop()
        span_id, layer, key, start, child = frame
        duration = end - start
        self.self_s[layer] += duration - child
        if key == WATCHED:
            self._watched_open -= 1
            self.counters[WATCHED + ".inclusive_s"] += duration
        elif self._watched_open and key in WATCHED_CHECKS:
            self.counters[key + ".under_watched"] += 1
        if failed:
            self.errors[layer] += 1
        if self.stack:
            self.stack[-1][4] += duration
            parent = self.stack[-1][0]
        else:
            self.covered_s += duration
            parent = 0
        if len(self.span_start) < SPAN_CAP:
            self.span_id.append(span_id)
            self.span_parent.append(parent)
            self.span_name.append(self._name_ids.setdefault(key, len(self._name_ids)))
            self.span_start.append(start)
            self.span_end.append(end)

    def write_spans(self, path) -> int:
        """Write the kept spans as CSV (parent 0: no enclosing span)."""
        names = list(self._name_ids)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,parent,name,start_s,end_s\n")
            for k in range(len(self.span_start)):
                handle.write("%d,%d,%s,%.9f,%.9f\n" % (
                    self.span_id[k], self.span_parent[k], names[self.span_name[k]],
                    self.span_start[k], self.span_end[k]))
        return len(self.span_start)


# ---------------------------------------------------------------------------
# observers: counters read off a call's result


def _observers() -> dict:
    """Extra counters per wrapped function, keyed like the spans: each
    maps a call's result, and whether it missed the memo cache, to the
    amounts to add."""
    return {
        "enumeration.all_contact_tables": lambda r, m: {
            "enumeration.all_contact_tables.tables": len(r)},
        "enumeration.enumerate_contact_structures": lambda r, m: {
            "enumeration.classes": len(r) if m else 0},
        "represent.family_structure": lambda r, m: {
            "represent.family_sets": len(r.sets)},
        "amalgam.contact_amalgam": lambda r, m: {"amalgam.amalgam_elements": r.n},
        "amalgam.verify_superamalgamation": lambda r, m: {
            "amalgam.cross_witnesses": len(r.witnesses)},
        "amalgam.semilattice_amalgam": lambda r, m: {
            "amalgam.cross_witnesses": len(r.superamalgamation.witnesses)},
        "fraisse.embeds_extension": lambda r, m: {
            "fraisse.embeds_extension.hits": bool(r)},
        "gallery.check_distributive_overlap_additivity": lambda r, m: {
            "gallery.lattices_scanned": r.scanned},
        "gallery.check_complement_uniqueness": lambda r, m: {
            "gallery.lattices_scanned": r.scanned},
        "gallery.check_distributive_amalgam_failure": lambda r, m: {
            "gallery.lattices_scanned": r.lattices_scanned,
            "gallery.candidate_pairs": r.candidate_pairs},
    }


# ---------------------------------------------------------------------------
# wrappers


def _wrap(tracer: Tracer, layer: str, key: str, fn, observe):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def traced_generator(*args, **kwargs):
            tracer.calls[key] += 1
            inner = fn(*args, **kwargs)
            while True:
                frame = tracer.enter(layer, key)
                try:
                    item = next(inner)
                except StopIteration:
                    tracer.leave(frame, False)
                    return
                except BaseException:
                    tracer.leave(frame, True)
                    raise
                tracer.leave(frame, False)
                tracer.counters[key + ".yielded"] += 1
                yield item

        return traced_generator

    cache_info = getattr(fn, "cache_info", None)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.calls[key] += 1
        misses = cache_info().misses if cache_info else 0
        frame = tracer.enter(layer, key)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.leave(frame, True)
            raise
        tracer.leave(frame, False)
        missed = False
        if cache_info:
            missed = cache_info().misses > misses
            tracer.counters[key + ".misses"] += missed
        if observe:
            tracer.counters.update(observe(result, missed))
        return result

    return traced


def install(lib) -> Tracer:
    """Wrap every layer's public callables in all package namespaces."""
    tracer = Tracer()
    observers = _observers()
    namespaces = [module for name, module in sys.modules.items()
                  if name == "contactposets" or name.startswith("contactposets.")]
    for layer in LAYERS:
        module = getattr(lib, layer)
        for name, obj in list(vars(module).items()):
            if name.startswith("_"):
                continue
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                _wrap_methods(tracer, layer, obj, observers)
                continue
            key = f"{layer}.{name}"
            if key in UNWRAPPED or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            wrapped = _wrap(tracer, layer, key, obj, observers.get(key))
            for namespace in namespaces:
                for bound_name, bound in list(vars(namespace).items()):
                    if bound is obj:
                        setattr(namespace, bound_name, wrapped)
    return tracer


def _wrap_methods(tracer: Tracer, layer: str, cls, observers) -> None:
    for name, attr in list(vars(cls).items()):
        if name.startswith("_") or not isinstance(attr, (classmethod, staticmethod)):
            continue
        key = f"{layer}.{name}"
        wrapped = _wrap(tracer, layer, f"{layer}.{cls.__name__}.{name}",
                        attr.__func__, observers.get(key))
        setattr(cls, name, type(attr)(wrapped))


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(tracer: Tracer, passes: int, verdicts: int) -> dict:
    """Per-pass figures for every layer plus the named counters, from
    ``passes`` traced passes holding ``verdicts`` verdicts in all."""
    c = tracer.calls
    n = tracer.counters
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = sum(v for k, v in c.items()
                                    if k.split(".")[0] == layer) / passes
        out[f"{layer}.self_s"] = tracer.self_s[layer] / passes
        out[f"{layer}.errors"] = tracer.errors[layer] / passes

    def calls(key):
        return c[key] / passes

    checks = (c["core.check_contact_axioms"] + c["core.check_bottomless_axioms"]
              + c["core.verify_map"])
    out.update({
        "core.check_contact_axioms.calls": calls("core.check_contact_axioms"),
        "core.check_bottomless_axioms.calls": calls("core.check_bottomless_axioms"),
        "core.verify_map.calls": calls("core.verify_map"),
        "core.induced_substructure.calls": calls("core.induced_substructure"),
        "core.checks_per_verdict": checks / max(verdicts, 1),
        "enumeration.canonical_form.calls": calls("enumeration.canonical_form"),
        "enumeration.canonical_form.misses":
            n["enumeration.canonical_form.misses"] / passes,
        "enumeration.canonical_table_key.calls":
            calls("enumeration.canonical_table_key"),
        "enumeration.all_contact_tables.tables":
            n["enumeration.all_contact_tables.tables"] / passes,
        "enumeration.classes_per_table": _ratio(
            n["enumeration.classes"], n["enumeration.all_contact_tables.tables"]),
        "enumeration.isomorphisms.calls": calls("enumeration.isomorphisms"),
        "enumeration.induced_embeddings.yielded":
            n["enumeration.induced_embeddings.yielded"] / passes,
        "represent.family_structure.calls": calls("represent.family_structure"),
        "represent.overlap_of_family.calls": calls("represent.overlap_of_family"),
        "represent.family_sets": n["represent.family_sets"] / passes,
        "amalgam.contact_amalgam.calls": calls("amalgam.contact_amalgam"),
        "amalgam.amalgam_elements": n["amalgam.amalgam_elements"] / passes,
        "amalgam.verify_superamalgamation.calls":
            calls("amalgam.verify_superamalgamation"),
        "amalgam.cross_witnesses": n["amalgam.cross_witnesses"] / passes,
        "amalgam.semilattice_amalgam.calls": calls("amalgam.semilattice_amalgam"),
        "amalgam.from_parts.calls": calls("amalgam.AmalgamInstance.from_parts"),
        "fraisse.embeds_extension.calls": calls("fraisse.embeds_extension"),
        "fraisse.embeds_extension.hit_ratio": _ratio(
            n["fraisse.embeds_extension.hits"], c["fraisse.embeds_extension"]),
        "fraisse.one_point_extensions.calls": calls("fraisse.one_point_extensions"),
        "fraisse.random_instance.calls": calls("fraisse.random_instance"),
        "fraisse.iter_gluings.yielded": n["fraisse.iter_gluings.yielded"] / passes,
        "events.iter_event_gluings.yielded":
            n["events.iter_event_gluings.yielded"] / passes,
        "events.amalgamate_events.calls": calls("events.amalgamate_events"),
        "events.event_to_contact.calls": calls("events.event_to_contact"),
        "events.contact_to_event.calls": calls("events.contact_to_event"),
        "gallery.lattices_scanned": n["gallery.lattices_scanned"] / passes,
        "gallery.candidate_pairs": n["gallery.candidate_pairs"] / passes,
        "io.load_structure.calls": calls("io.load_structure"),
        # Workloads that run the cli script replace these two.
        "io.bytes_written": 0,
        "cli.main.calls": calls("cli.main"),
        "cli.exit_code_mismatches": 0,
    })
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def amalgamate_events_costs(tracer: Tracer) -> dict | None:
    """Per-call figures of ``events.amalgamate_events``: mean inclusive
    milliseconds and the axiom and map checks run beneath it."""
    calls = tracer.calls[WATCHED]
    if not calls:
        return None
    out = {"calls": calls,
           "mean_ms": 1000 * tracer.counters[WATCHED + ".inclusive_s"] / calls}
    for key in WATCHED_CHECKS:
        out[key.split(".")[1]] = tracer.counters[key + ".under_watched"] / calls
    return out
