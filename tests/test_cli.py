import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import contactposets
from contactposets import cli
from contactposets.cli import COMMANDS, build_parser, main
from contactposets.core import POSET, ContactStructure
from contactposets.errors import ParseError
from contactposets.events import EventStructure
from contactposets.gallery import m3
from contactposets.io import (
    doc_to_structure,
    load_structure,
    save_structure,
    structure_to_dot,
)


@pytest.fixture
def m3_overlap_file(tmp_path):
    path = tmp_path / "m3_overlap.json"
    save_structure(str(path), m3("overlap"))
    return str(path)


class TestRoundTrip:
    def test_catalog_round_trips(self, tmp_path, poset_catalog_4, semilattice_catalog_4):
        for pos, item in enumerate(
            poset_catalog_4.items + semilattice_catalog_4.items
        ):
            path = tmp_path / f"s{pos}.json"
            save_structure(str(path), item)
            assert load_structure(str(path)) == item

    def test_event_round_trip(self, tmp_path):
        e = EventStructure.build(
            ["e1", "e2", "e3"], [("e1", "e2")], [("e2", "e3")]
        )
        path = tmp_path / "events.json"
        save_structure(str(path), e)
        assert load_structure(str(path)) == e

    def test_malformed_doc(self):
        with pytest.raises(ParseError):
            doc_to_structure(["not", "an", "object"])
        with pytest.raises(ParseError):
            doc_to_structure({"kind": "nonsense", "elements": []})
        with pytest.raises(ParseError):
            doc_to_structure(
                {"kind": "event", "elements": ["e"], "order": [], "conflict": [], "bottom": "e"}
            )

    def test_close_flag_fills_overlap(self, tmp_path):
        doc = {
            "kind": POSET,
            "elements": ["0", "a"],
            "bottom": "0",
            "order": [["0", "a"]],
            "contact": [],
        }
        path = tmp_path / "open.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(Exception):
            load_structure(str(path))
        loaded = load_structure(str(path), close=True)
        assert loaded.delta("a", "a")


class TestCheckCommand:
    def test_valid_fixture(self, m3_overlap_file, capsys):
        assert main(["check", m3_overlap_file]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_add_flag_fails_on_m3(self, m3_overlap_file, capsys):
        assert main(["check", m3_overlap_file, "--add"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "Add" in out

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["check", str(path)]) == 2

    def test_kind_mismatch(self, m3_overlap_file):
        assert main(["check", m3_overlap_file, "--kind", "event"]) == 1

    def test_removed_seed_flag_is_a_parse_error(self, m3_overlap_file, capsys):
        # the global --seed flag was read by nothing and is gone
        with pytest.raises(SystemExit) as info:
            main(["--seed", "1", "check", m3_overlap_file])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err


class TestEmbedCommand:
    def test_prop2_on_v_contact(self, tmp_path, v_contact, capsys):
        path = tmp_path / "v.json"
        save_structure(str(path), v_contact)
        out_path = tmp_path / "bundle.json"
        assert main(["embed", str(path), "--theorem", "prop2", "--out", str(out_path)]) == 0
        bundle = json.loads(out_path.read_text())
        assert len(bundle["target"]["sets"]) == 4
        assert bundle["report"]["is_embedding"] is True

    def test_4a_on_chain(self, tmp_path, chain3):
        path = tmp_path / "chain.json"
        save_structure(str(path), chain3)
        assert main(["embed", str(path), "--theorem", "4a"]) == 0

    def test_4b_requires_semilattice(self, tmp_path, v_overlap, capsys):
        path = tmp_path / "v.json"
        save_structure(str(path), v_overlap)
        assert main(["embed", str(path), "--theorem", "4b"]) == 1

    def test_cor3(self, tmp_path, v_overlap):
        path = tmp_path / "v.json"
        save_structure(str(path), v_overlap)
        assert main(["embed", str(path), "--theorem", "cor3"]) == 0

    def test_4b_bundle_carries_cut_provenance(self, tmp_path, chain3_semilattice):
        path = tmp_path / "chain.json"
        save_structure(str(path), chain3_semilattice)
        out_path = tmp_path / "bundle.json"
        assert main(["embed", str(path), "--theorem", "4b", "--out", str(out_path)]) == 0
        bundle = json.loads(out_path.read_text())
        kinds = {
            origin["type"]
            for origins in bundle["target"]["provenance"].values()
            for origin in origins
        }
        assert "cut" in kinds and "element-image" in kinds


class TestAmalgamateCommand:
    def test_poset_instance(self, tmp_path, capsys):
        a = ContactStructure.build(
            ["0", "c", "1", "a"], "0",
            [("0", "c"), ("c", "1"), ("0", "a"), ("a", "1")],
            [], POSET, close=True,
        )
        b = ContactStructure.build(
            ["0", "c", "1"], "0", [("0", "c"), ("c", "1")], [], POSET, close=True
        )
        c = b
        paths = []
        for tag, s in (("a", a), ("b", b), ("c", c)):
            path = tmp_path / f"{tag}.json"
            save_structure(str(path), s)
            paths.append(str(path))
        out_path = tmp_path / "out.json"
        assert main(["amalgamate", *paths, "--out", str(out_path)]) == 0
        bundle = json.loads(out_path.read_text())
        assert len(bundle["amalgam"]["elements"]) == 4
        assert bundle["strong"] is True

    def test_event_instance(self, tmp_path):
        c = EventStructure.build(["c"])
        a = EventStructure.build(["c", "a"], [("c", "a")])
        b = EventStructure.build(["c", "b"], [], [("b", "c")])
        paths = []
        for tag, s in (("a", a), ("b", b), ("c", c)):
            path = tmp_path / f"{tag}.json"
            save_structure(str(path), s)
            paths.append(str(path))
        assert main(["amalgamate", *paths, "--kind", "event"]) == 0

    def test_precondition_failure(self, tmp_path, v_overlap, v_contact, capsys):
        paths = []
        for tag, s in (("a", v_overlap), ("b", v_contact), ("c", v_overlap)):
            path = tmp_path / f"{tag}.json"
            save_structure(str(path), s)
            paths.append(str(path))
        assert main(["amalgamate", *paths]) == 1


class TestEnumerateCommand:
    def test_size_three_count(self, capsys):
        assert main(["enumerate", "--size", "3"]) == 0
        assert "3 structures" in capsys.readouterr().out

    def test_catalog_files(self, tmp_path, capsys):
        out = tmp_path / "catalog"
        assert main(["enumerate", "--size", "3", "--out", str(out)]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == [
            "catalog-poset-1.json", "catalog-poset-2.json", "catalog-poset-3.json",
        ]
        docs = json.loads((out / "catalog-poset-3.json").read_text())
        assert len(docs) == 3

    @pytest.mark.parametrize("size", ["0", "-2"])
    def test_size_below_one_is_a_parse_error(self, size, capsys):
        with pytest.raises(SystemExit) as info:
            main(["enumerate", "--size", size])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "must be at least 1" in err
        assert "Traceback" not in err


class TestFraisseCommand:
    def test_cap_one_fixpoint(self, tmp_path, capsys):
        out_path = tmp_path / "stage.json"
        code = main(["fraisse", "--cap", "1", "--budget", "5", "--out", str(out_path)])
        assert code == 0
        bundle = json.loads(out_path.read_text())
        assert bundle["extension_property"]["fraction"] == 1.0

    def test_cap_two_budget(self, tmp_path, capsys):
        out_path = tmp_path / "stage.json"
        code = main([
            "fraisse", "--cap", "2", "--budget", "20",
            "--max-elements", "16", "--out", str(out_path),
        ])
        assert code == 3
        bundle = json.loads(out_path.read_text())
        assert bundle["budget_exceeded"] is True

    def test_misses_counted_by_cause(self, tmp_path, capsys):
        out_path = tmp_path / "stage.json"
        code = main(["fraisse", "--cap", "2", "--budget", "3", "--out", str(out_path)])
        assert code == 0
        report = json.loads(out_path.read_text())["extension_property"]
        by_cause = report["misses_by_cause"]
        assert set(by_cause) == {"above-maximal", "unrealized-at-budget"}
        assert by_cause["above-maximal"] > 0
        assert sum(by_cause.values()) == report["misses"] > 0


class TestGalleryCommand:
    def test_small_bounds(self, capsys):
        assert main(["gallery", "--bound", "5", "--failure-bound", "6"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    @pytest.mark.parametrize("failure_bound", [1, 2, 3])
    def test_failure_bound_without_candidates_exits_3(self, failure_bound, capsys):
        # the smallest lattice holding a candidate pair has 4 elements, so
        # a search below it refutes nothing
        argv = ["gallery", "--bound", "1", "--failure-bound", str(failure_bound)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert "FAIL" not in captured.out
        assert captured.err.startswith("error: no candidate pair")
        assert f"at most {failure_bound} elements" in captured.err


class TestExportDot:
    def test_chain_edges(self, tmp_path, chain3):
        path = tmp_path / "chain.json"
        save_structure(str(path), chain3)
        text = structure_to_dot(chain3, "extra")
        solid = [line for line in text.splitlines() if "->" in line and "dashed" not in line]
        dashed = [line for line in text.splitlines() if "dashed" in line]
        assert len(solid) == 2
        assert len(dashed) == 0

    def test_m3_with_ab(self):
        # cover edges computed from the order: three atoms hang off the
        # bottom and feed the top, six covers in all; one extra contact
        s = m3("with_ab")
        text = structure_to_dot(s, "extra")
        solid = [line for line in text.splitlines() if "->" in line and "dashed" not in line]
        dashed = [line for line in text.splitlines() if "dashed" in line]
        assert len(solid) == 6
        assert len(dashed) == 1
        assert '"a" -> "b"' in dashed[0]

    def test_none_mode(self):
        s = m3("with_ab")
        text = structure_to_dot(s, "none")
        assert "dashed" not in text

    def test_full_mode_counts(self, v_contact):
        text = structure_to_dot(v_contact, "full")
        dashed = [line for line in text.splitlines() if "dashed" in line]
        assert len(dashed) == 1  # the single nonreflexive pair

    def test_cli_export(self, tmp_path, chain3, capsys):
        path = tmp_path / "chain.json"
        save_structure(str(path), chain3)
        assert main(["export-dot", str(path), "--contact", "none"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")

    def test_event_export(self, tmp_path):
        e = EventStructure.build(["e1", "e2"], [("e1", "e2")], [])
        text = structure_to_dot(e, "full")
        assert '"e1" -> "e2"' in text


FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
M3 = str(FIXTURES / "m3_overlap.json")
CHAIN = str(FIXTURES / "chain3.json")
EVENTS = str(FIXTURES / "events3.json")
SIDES = [str(FIXTURES / f"amalgam_{x}.json") for x in "abc"]


def _id(argv):
    return " ".join(argv).replace(str(FIXTURES) + os.sep, "") or "empty"


def _outcome(parser, argv):
    """The Namespace a parse gives, or its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return parser.parse_args(list(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


class _Built(Exception):
    pass


def _command_main_builds(monkeypatch, argv):
    """The ``command`` argument ``main`` passes to ``build_parser``."""

    def spy(command=None):
        raise _Built(command)

    monkeypatch.setattr(cli, "build_parser", spy)
    with pytest.raises(_Built) as info:
        main(list(argv))
    monkeypatch.undo()
    return info.value.args[0]


VALID_ARGV = [
    ["check", M3],
    ["check", M3, "--add", "--kind", "poset", "--close"],
    ["embed", CHAIN, "--theorem", "4b", "--out", "b.json", "--close"],
    ["embed", CHAIN, "--theo", "cor3"],
    ["amalgamate", *SIDES],
    ["amalgamate", *SIDES, "--kind", "event", "--out", "d.json"],
    ["fraisse"],
    ["fraisse", "--kind", "semilattice", "--cap", "3", "--budget", "2",
     "--max-elements", "9", "--out", "s.json"],
    ["enumerate", "--size", "3"],
    ["enumerate", "--size", "2", "--kind", "semilattice", "--out", "cat"],
    ["gallery"],
    ["gallery", "--bound", "5", "--failure-bound", "7"],
    ["export-dot", M3],
    ["export-dot", M3, "--contact", "extra", "--out", "m3.dot"],
]

REJECTED_ARGV = [
    *([name, "-h"] for name in COMMANDS),
    ["embed", CHAIN, "--theorem", "5c"],
    ["embed", CHAIN],
    ["amalgamate", SIDES[0], SIDES[1]],
    ["fraisse", "--cap", "0"],
    ["embed", CHAIN, "--theorem", "prop2", "extra"],
    ["check", M3, "-h", "--kind", "event"],
]

TOP_LEVEL_ARGV = [[], ["-h"], ["--help"], ["bogus"], ["-h", "check"], ["--seed", "1", "check", M3]]


class TestParserDifferential:
    """``main`` builds only the invoked subcommand's parser; it must parse
    and report exactly as the parser of every subcommand does."""

    def test_every_subcommand_is_covered(self):
        assert {argv[0] for argv in VALID_ARGV} == set(COMMANDS)

    @pytest.mark.parametrize("argv", VALID_ARGV, ids=_id)
    def test_valid_argv_gives_equal_namespaces(self, argv, monkeypatch):
        command = _command_main_builds(monkeypatch, argv)
        assert command == argv[0]
        one = _outcome(build_parser(command), argv)
        full = _outcome(build_parser(), argv)
        assert one == full
        assert one.handler is COMMANDS[argv[0]].handler

    @pytest.mark.parametrize("argv", REJECTED_ARGV, ids=_id)
    def test_help_and_errors_are_byte_identical(self, argv, monkeypatch):
        command = _command_main_builds(monkeypatch, argv)
        assert command == argv[0]
        one = _outcome(build_parser(command), argv)
        full = _outcome(build_parser(), argv)
        assert isinstance(one, tuple)
        assert one == full

    @pytest.mark.parametrize("argv", TOP_LEVEL_ARGV, ids=_id)
    def test_top_level_uses_the_full_parser(self, argv, monkeypatch):
        assert _command_main_builds(monkeypatch, argv) is None
        full = _outcome(build_parser(), argv)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as info:
                main(list(argv))
        assert (info.value.code, out.getvalue(), err.getvalue()) == full

    def test_errors_name_the_command_argument(self):
        code, _, err = _outcome(build_parser(), [])
        assert code == 2
        assert err.endswith("error: the following arguments are required: command\n")
        code, _, err = _outcome(build_parser(), ["bogus"])
        assert code == 2
        assert "argument command: invalid choice: 'bogus'" in err


# (argv with {name} holes filled in per test, exit code, stderr prefix)
CONTRACT = [
    (["check", "{missing}"], 2, "error: cannot read"),
    (["check", "{directory}"], 2, "error: cannot read"),
    (["check", "{malformed}"], 2, "error: invalid JSON"),
    (["check"], 2, "usage:"),
    (["check", M3, "--kind", "lattice"], 2, "usage:"),
    (["check", M3, "--kind", "event"], 1, "error: kind mismatch"),
    (["embed", "{missing}", "--theorem", "prop2"], 2, "error: cannot read"),
    (["embed", "{malformed}", "--theorem", "prop2"], 2, "error: invalid JSON"),
    (["embed", CHAIN, "--theorem", "5c"], 2, "usage:"),
    (["embed", CHAIN], 2, "usage:"),
    (["embed", EVENTS, "--theorem", "prop2"], 1, "error:"),
    (["embed", SIDES[0], "--theorem", "4b"], 1, "error:"),
    (["embed", CHAIN, "--theorem", "prop2", "--out", "{no_dir}"], 2, "error: cannot write"),
    (["embed", CHAIN, "--theorem", "prop2", "--out", "{directory}"], 2, "error: cannot write"),
    (["amalgamate", "{missing}", SIDES[1], SIDES[2]], 2, "error: cannot read"),
    (["amalgamate", SIDES[0], "{malformed}", SIDES[2]], 2, "error: invalid JSON"),
    (["amalgamate", SIDES[0], SIDES[1]], 2, "usage:"),
    (["amalgamate", *SIDES, "--kind", "lattice"], 2, "usage:"),
    (["amalgamate", EVENTS, SIDES[1], SIDES[2]], 1, "error:"),
    (["amalgamate", *SIDES, "--kind", "semilattice"], 1, "error:"),
    (["amalgamate", *SIDES, "--kind", "event"], 1, "error:"),
    (["amalgamate", *SIDES, "--out", "{no_dir}"], 2, "error: cannot write"),
    (["fraisse", "--kind", "event"], 2, "usage:"),
    (["fraisse", "--cap", "0"], 2, "usage:"),
    (["fraisse", "--cap", "-2"], 2, "usage:"),
    (["fraisse", "--budget", "-1"], 2, "usage:"),
    (["fraisse", "--max-elements", "0"], 2, "usage:"),
    (["fraisse", "--cap", "two"], 2, "usage:"),
    (["fraisse", "--cap", "1", "--budget", "1", "--out", "{no_dir}"], 2, "error: cannot write"),
    (["enumerate"], 2, "usage:"),
    (["enumerate", "--size", "0"], 2, "usage:"),
    (["enumerate", "--size", "3", "--kind", "event"], 2, "usage:"),
    (["enumerate", "--size", "2", "--out", "{a_file}"], 2, "error: cannot write"),
    (["enumerate", "--size", "2", "--out", "{a_file}/sub"], 2, "error: cannot write"),
    (["enumerate", "--size", "8"], 3,
     "error: enumerating poset structures of size 8 exceeds the bound of size 7"),
    (["enumerate", "--size", "9", "--kind", "semilattice"], 3,
     "error: enumerating semilattice structures of size 9 exceeds the bound of size 8"),
    (["gallery", "--bound", "0"], 2, "usage:"),
    (["gallery", "--failure-bound", "-1"], 2, "usage:"),
    (["gallery", "--bound", "six"], 2, "usage:"),
    (["export-dot", "{missing}"], 2, "error: cannot read"),
    (["export-dot", "{malformed}"], 2, "error: invalid JSON"),
    (["export-dot", M3, "--contact", "some"], 2, "usage:"),
    (["export-dot", M3, "--out", "{no_dir}"], 2, "error: cannot write"),
]


# one successful run per subcommand that writes to stdout
STDOUT_ARGV = [
    ["check", M3],
    ["embed", CHAIN, "--theorem", "prop2"],
    ["amalgamate", *SIDES],
    ["fraisse", "--cap", "1", "--budget", "1"],
    ["enumerate", "--size", "3"],
    ["gallery", "--bound", "2", "--failure-bound", "4"],
    ["export-dot", M3],
]


class _FailingStdout(io.TextIOBase):
    """A stdout whose writes, or else its flushes, raise exc."""

    def __init__(self, exc, on_write=True):
        self.exc, self.on_write = exc, on_write

    def write(self, text):
        if self.on_write:
            raise self.exc
        return len(text)

    def flush(self):
        raise self.exc


class TestExitCodeContract:
    """Every error path of every subcommand ends in its contracted exit
    code and a one-line diagnosis, never in a traceback."""

    def test_every_subcommand_is_covered(self):
        assert {argv[0] for argv, _, _ in CONTRACT} == set(COMMANDS)
        assert {argv[0] for argv in STDOUT_ARGV} == set(COMMANDS)

    @pytest.mark.parametrize("argv", STDOUT_ARGV, ids=_id)
    @pytest.mark.parametrize("on_write", [True, False], ids=["write", "flush"])
    @pytest.mark.parametrize(
        "exc",
        [BrokenPipeError(32, "Broken pipe"), OSError(28, "No space left on device")],
        ids=["EPIPE", "ENOSPC"],
    )
    def test_failed_stdout_write(self, argv, on_write, exc, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdout", _FailingStdout(exc, on_write))
        assert main(list(argv)) == 2
        err = capsys.readouterr().err
        # fraisse reports its stage on stderr before the final flush
        assert err.endswith(f"error: cannot write stdout: {exc}\n")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, code, prefix", CONTRACT, ids=[_id(c[0]) for c in CONTRACT]
    )
    def test_error_path(self, argv, code, prefix, tmp_path, capsys):
        (tmp_path / "broken.json").write_text("{not json")
        (tmp_path / "plain-file").write_text("")
        holes = {
            "missing": tmp_path / "absent.json",
            "directory": tmp_path,
            "malformed": tmp_path / "broken.json",
            "no_dir": tmp_path / "no-such-dir" / "out",
            "a_file": tmp_path / "plain-file",
        }
        argv = [arg.format(**holes) for arg in argv]
        try:
            got = main(argv)
        except SystemExit as exc:
            got = exc.code
        err = capsys.readouterr().err
        assert got == code
        assert err.startswith(prefix)
        assert err.startswith(("usage:", "error:"))
        assert "Traceback" not in err

    def test_event_file_without_elements_reads_its_conflict(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        doc = {"kind": "event", "elements": [], "order": [], "conflict": [["x", "y"]]}
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: unknown event 'x' in conflict pair")

    def test_parse_errors_name_the_bound(self, capsys):
        with pytest.raises(SystemExit):
            main(["gallery", "--bound", "0"])
        assert "argument --bound: must be at least 1, got 0" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["fraisse", "--cap", "two"])
        assert "argument --cap: invalid int value: 'two'" in capsys.readouterr().err


def _module_env():
    src = str(Path(contactposets.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def test_broken_pipe_exits_2_without_a_shutdown_error():
    # the reader is gone before the buffered output is flushed, as in
    # `contactposets enumerate --size 4 | head -0`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "contactposets", "enumerate", "--size", "4"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=_module_env(), timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 2
    assert done.stderr == "error: cannot write stdout: [Errno 32] Broken pipe\n"


def test_package_runs_as_a_module():
    done = subprocess.run(
        [sys.executable, "-m", "contactposets", "check", M3],
        capture_output=True, text=True, env=_module_env(), timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("PASS")
