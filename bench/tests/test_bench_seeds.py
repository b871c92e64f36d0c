"""Seed handling: the same seed gives the same inputs, verdicts and
outputs; a held-out seed gives a different input set that still checks
out.  Also: outputs that disagree with the reference are caught, a
verdict that raises makes the run incorrect unless it is a known
failure, and the runner refuses to run without the library source."""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS

HELD_OUT_SEED = 20231
SEED = 7


def digest_inputs(workload, inputs, workdir: Path):
    """A summary of everything a workload hands the library.  Values are
    compared through repr: each setup imports the library afresh, and
    instances of two imports of one dataclass never compare equal."""
    if workload.name == "cli":
        files = {p.name: p.read_text() for p in sorted((workdir / "in").iterdir())}
        return repr([inv.argv for inv in inputs]), files
    if workload.name == "limit_stage":
        return repr({kind: catalog.items for kind, catalog in inputs.items()})
    if workload.name == "gluing_sweep":
        return repr((inputs["draw_seed"], inputs["event_pairs"], inputs["small"],
                     inputs["large"]))
    return repr(inputs)


def one_pass(workload, seed, workdir):
    lib = run.load_library()
    inputs = workload.setup(lib, seed, workdir)
    summary = digest_inputs(workload, inputs, workdir)
    verdicts = workload.run_pass(lib, inputs)
    return inputs, summary, verdicts


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_reproduces_and_held_out_seed_differs(name, tmp_path):
    workload = WORKLOADS[name]
    _, first_inputs, first = one_pass(workload, SEED, tmp_path / "a")
    _, again_inputs, again = one_pass(workload, SEED, tmp_path / "a")
    assert again_inputs == first_inputs
    assert len(again) == len(first)
    assert [v.error for v in again] == [v.error for v in first]
    assert [repr(workload.fingerprint(v)) for v in again if v.error is None] == \
        [repr(workload.fingerprint(v)) for v in first if v.error is None]

    inputs, other_inputs, other = one_pass(workload, HELD_OUT_SEED, tmp_path / "b")
    assert other_inputs != first_inputs
    statuses = workload.check(inputs, other)
    failures = [v.label for v, ok in zip(other, statuses) if not ok]
    expected = [workload.PROBE] if name == "cli" else []
    assert failures == expected


def test_gluing_sweep_check_rejects_a_swapped_amalgam(tmp_path):
    workload = WORKLOADS["gluing_sweep"]
    lib = run.load_library()
    small = {"poset": lib.enumeration.AgeCatalog.build(3, "poset").items}
    inputs = {"small": small, "large": {}, "draw_seed": 0, "event_pairs": []}
    verdicts = workload.run_pass(lib, inputs)
    assert all(workload.check(inputs, verdicts))
    big = max(verdicts, key=lambda v: v.output[1].n)
    small_one = min(verdicts, key=lambda v: v.output[1].n)
    inst, _, flag, sem = big.output
    big.output = (inst, small_one.output[1], flag, sem)
    assert not workload.check(inputs, [big])[0]


def raising(name):
    def fail(*args, **kwargs):
        raise RuntimeError(f"{name} failed")
    return fail


def test_a_raised_verdict_makes_the_run_incorrect():
    workload = WORKLOADS["catalog"]
    lib = run.load_library()
    requests = [("contact", "poset", 3), ("events", "event", 4)]
    runner = run.Runner(workload, lib, requests)
    runner.one_pass()
    assert runner.correct and runner.failed == 0
    lib.events.enumerate_event_structures = raising("enumerate_event_structures")
    runner = run.Runner(workload, lib, requests)
    runner.one_pass()
    assert runner.failed == 1 and runner.wrong == 0 and not runner.correct


def test_only_the_known_probe_failure_keeps_the_run_correct(tmp_path):
    workload = WORKLOADS["cli"]
    lib = run.load_library()
    script = workload.setup(lib, SEED, tmp_path)
    probe = next(inv for inv in script if inv.label == workload.PROBE)
    check = next(inv for inv in script if inv.argv[0] == "check" and inv.codes == (0,))
    runner = run.Runner(workload, lib, [probe, check])
    runner.one_pass()
    assert runner.failed == 1 and runner.correct  # the probe overflows today
    main = lib.cli.main
    lib.cli.main = lambda argv: raising("check")() if argv[0] == "check" else main(argv)
    runner.one_pass()
    assert runner.failed == 3 and not runner.correct


def test_runner_fails_without_library_source(tmp_path):
    repo = Path(run.__file__).resolve().parent.parent
    shutil.copytree(repo / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(repo / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    spec = json.loads((repo / "BENCHMARK.json").read_text())
    done = subprocess.run(
        spec["command"] + ["--workload", "catalog", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
