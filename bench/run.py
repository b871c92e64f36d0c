"""Run one benchmark workload against the library in ``src/`` and print
its metrics, one per line with its unit, then one JSON object as the
last line of standard output.

    python3 bench/run.py --workload gluing_sweep --seed 1 --seconds 20 --trace 0

The run is a closed loop: one client in one single-threaded process
issues the next library call only when the previous one returned.
The measured phase runs whole passes of the workload for about
``--seconds``; the first pass is checked verdict by verdict against the
independent reference, later passes must reproduce its outputs exactly.
A run is correct when no verdict disagreed with the reference and none
raised, apart from the workload's known failures.  Set-up (a fresh
import plus input generation) runs once before the first pass and, with
tracing off, again after every pass, outside the measured time; its
median is reported, so that it is sampled over the whole run as the
pass timings are.

Times are CPU times of the library.  With tracing off they are scaled
to a reference machine speed by the calibration slices ``meter.py``
runs beside them, so that the phases of a shared machine cancel.

With ``--trace 0`` the end-to-end metrics are reported.  With
``--trace 1`` the first third of the time runs untraced passes, the
rest runs passes with every layer wrapped (see ``tracer.py``), and the
per-layer metrics are reported; the first spans of the traced passes
are written to ``.bench_trace/<workload>.spans.csv`` at exit.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import tracer as tracing
from meter import METER
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACE_DIR = ROOT / ".bench_trace"
MIN_PASSES = 2
wall_clock = time.perf_counter


@dataclass
class Library:
    """The freshly imported layer modules plus their memo caches."""

    root: Path
    caches: list
    core: object
    enumeration: object
    represent: object
    amalgam: object
    fraisse: object
    events: object
    gallery: object
    io: object
    cli: object

    def clear_caches(self) -> None:
        for cached in self.caches:
            cached.cache_clear()


def _package_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name == "contactposets" or name.startswith("contactposets.")}


def load_library() -> Library:
    """Import the package from the checkout's ``src`` afresh, so module
    state and memo caches start empty."""
    for name in _package_modules():
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("contactposets")
    if Path(package.__file__).resolve().parent != (SRC / "contactposets").resolve():
        raise ImportError(f"contactposets imported from {package.__file__}")
    modules = {layer: importlib.import_module(f"contactposets.{layer}")
               for layer in tracing.LAYERS}
    caches = {}
    for module in modules.values():
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear") and \
                    getattr(obj, "__module__", "").startswith("contactposets"):
                caches[id(obj)] = obj
    return Library(ROOT, list(caches.values()), **modules)


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile (inclusive method)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * p / 100
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


@dataclass
class Timing:
    """What is kept of a pass once it is checked: its library time, the
    time of each verdict and the machine speed over the pass."""

    busy_s: float
    times: list
    speed: float | None


class Runner:
    """Passes of one workload, their checks and their tallies."""

    def __init__(self, workload, lib, inputs):
        self.workload = workload
        self.lib = lib
        self.inputs = inputs
        self.passes = []
        self.first = None
        self.first_ok = None
        self.last = []
        self.attempted = self.failed = self.wrong = self.unexpected = 0
        self.failures: Counter = Counter()
        self.check_s = 0.0

    @property
    def correct(self) -> bool:
        """No verdict disagreed and none raised except a known failure."""
        return self.unexpected == 0

    def _known(self, verdict) -> bool:
        kind = verdict.error.partition("(")[0]
        return (verdict.label, kind) in self.workload.known_failures

    def one_pass(self) -> float:
        """Run and check one pass; returns its wall time including the check."""
        start = wall_clock()
        mark = METER.mark()
        verdicts = self.workload.run_pass(self.lib, self.inputs)
        speed = METER.speed_since(mark)
        fingerprint = self.workload.fingerprint
        if self.first is None:
            checked = wall_clock()
            statuses = self.workload.check(self.inputs, verdicts)
            self.check_s = wall_clock() - checked
            self.first = [None if v.error else fingerprint(v) for v in verdicts]
            self.first_ok = statuses
        else:
            same = len(verdicts) == len(self.first)
            statuses = [
                same and v.error is None and self.first_ok[k]
                and fingerprint(v) == self.first[k]
                for k, v in enumerate(verdicts)
            ]
        raised = [v for v in verdicts if v.error is not None]
        wrong = sum(1 for v, ok in zip(verdicts, statuses) if v.error is None and not ok)
        for v, ok in zip(verdicts, statuses):
            if v.error is not None:
                known = " (known failure)" if self._known(v) else ""
                self.failures[f"{v.label}: {v.error}{known}"] += 1
            elif not ok:
                self.failures[f"{v.label}: disagrees with the reference"] += 1
        self.attempted += len(verdicts)
        self.failed += len(raised) + wrong
        self.wrong += wrong
        self.unexpected += wrong + sum(1 for v in raised if not self._known(v))
        self.last = verdicts
        times = [v.ms for v in verdicts]
        self.passes.append(Timing(sum(times) / 1000, times, speed))
        return wall_clock() - start


def run_phase(runner: Runner, until: float, at_least: int, between=None) -> list:
    """Passes until the next one would end after ``until``; ``between``
    runs after each pass, and its time moves ``until`` back."""
    done = []
    while True:
        cost = runner.one_pass()
        done.append(runner.passes[-1])
        if between is not None:
            start = wall_clock()
            between()
            until += wall_clock() - start
        if len(done) >= at_least and wall_clock() + cost > until:
            return done


def end_to_end(workload, runner: Runner, setup_times: list[float]) -> tuple[dict, list]:
    """Timings from each verdict's median time over the run's passes."""
    same = [p.times for p in runner.passes if len(p.times) == len(runner.passes[0].times)]
    times = [statistics.median(samples) for samples in zip(*same)]
    wall = sum(times) / 1000
    tail = 100 * max(1 - 10 / len(times), 0)  # the highest with 10 samples beyond
    notes = [f"verdict_tail_ms is p{tail:.4g} over {len(times)} verdicts, "
             f"each the median of {len(same)} passes",
             f"setup_s is the median of {len(setup_times)} set-ups: "
             + " ".join(f"{t:.3f}" for t in setup_times),
             "scaled library seconds per pass: "
             + " ".join(f"{p.busy_s:.3f}" for p in runner.passes),
             "calibration slices per CPU second over each pass: "
             + " ".join(f"{p.speed:.0f}" for p in runner.passes if p.speed)]
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "verdicts_per_s": len(times) / wall,
        "verdict_p50_ms": percentile(times, 50),
        "verdict_tail_ms": percentile(times, tail),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "verified_ratio": (runner.attempted - runner.failed) / runner.attempted,
    }
    return values, notes


def per_layer(workload, runner: Runner, untraced: list, traced: list,
              tracer: tracing.Tracer) -> tuple[dict, list]:
    verdicts = sum(len(p.times) for p in traced)
    busy = sum(p.busy_s for p in traced)
    values = tracing.layer_metrics(tracer, len(traced), verdicts)
    # Passes repeat exactly, so the last traced pass stands for each.
    if hasattr(workload, "layer_counts"):
        values.update(workload.layer_counts(runner.inputs, runner.last))
    values["trace.overhead_ratio"] = (
        statistics.median(p.busy_s for p in traced)
        / statistics.median(p.busy_s for p in untraced))
    values["trace.unattributed_ratio"] = max(busy - tracer.covered_s, 0.0) / busy
    path = TRACE_DIR / f"{workload.name}.spans.csv"
    written = tracer.write_spans(path)
    notes = [f"{len(untraced)} untraced and {len(traced)} traced passes; "
             f"the first {written} spans written to {path.relative_to(ROOT)}"]
    costs = tracing.amalgamate_events_costs(tracer)
    if costs:
        notes.append(
            "amalgamate_events per call: {mean_ms:.3f} ms inclusive, "
            "{check_bottomless_axioms:.2f} check_bottomless_axioms, "
            "{check_contact_axioms:.2f} check_contact_axioms, "
            "{verify_map:.2f} verify_map (over {calls} calls)".format(**costs))
    return values, notes


def set_up(workload, seed: int, workdir: Path):
    """A fresh import and the workload's inputs, with the time taken."""
    mark = METER.mark()
    lib = load_library()
    inputs = workload.setup(lib, seed, workdir)
    return lib, inputs, METER.elapsed_ms(mark) / 1000


def measure(workload, args, workdir: Path) -> int:
    lib, inputs, took = set_up(workload, args.seed, workdir)
    setup_times = [took]
    runner = Runner(workload, lib, inputs)

    def set_up_again() -> None:
        """Time another set-up, then give the package's module names back
        to the import the passes use: the library imports some names
        inside its functions, and those must come from that import."""
        kept = _package_modules()
        setup_times.append(set_up(workload, args.seed, workdir)[2])
        sys.modules.update(kept)
        # The discarded import's modules sit in reference cycles; left to
        # the collector's schedule, they would make the peak RSS (and the
        # work of collections during the passes) depend on when a full
        # collection happened to run.
        gc.collect()

    phase_start = wall_clock()
    deadline = phase_start + args.seconds
    if args.trace:
        untraced = run_phase(runner, phase_start + args.seconds / 3, 1)
        tracer = tracing.install(lib)
        traced = run_phase(runner, deadline, 1)
        values, notes = per_layer(workload, runner, untraced, traced, tracer)
    else:
        run_phase(runner, deadline, MIN_PASSES, set_up_again)
        values, notes = end_to_end(workload, runner, setup_times)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in declared}

    per_pass = len(runner.passes[0].times)
    print(f"workload {workload.name}, seed {args.seed}, {len(runner.passes)} passes "
          f"of {per_pass} verdicts, {runner.failed} of {runner.attempted} verdicts "
          f"failed ({runner.wrong} disagreed with the reference, "
          f"{runner.unexpected} not known failures)")
    print(f"the reference check of the first pass took {runner.check_s:.2f} s")
    print(f"failed_ratio = {runner.failed / runner.attempted:.6g} ratio "
          "(verified_ratio is 1 minus this)")
    for failure, times in runner.failures.most_common():
        print(f"failed {times}x: {failure}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "contactposets" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'contactposets'}", file=sys.stderr)
        return 2
    warnings.filterwarnings("ignore", message="poset enumeration beyond")
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    if not args.trace:
        METER.start()
    try:
        return measure(WORKLOADS[args.workload], args, workdir)
    finally:
        METER.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
