import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import contactposets
from contactposets import cli
from contactposets.cli import COMMANDS, build_parser, main
from contactposets.core import POSET, SEMILATTICE, ContactStructure
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

    def test_prop2_with_commas_in_names(self, tmp_path):
        """Element "a,b" beside a, b and c: the family's members are
        named apart, so {0,a,b,c} names one member."""
        nonzero = ["a", "b", "a,b", "c"]
        s = ContactStructure.build(
            ["0", *nonzero], "0", [("0", x) for x in nonzero],
            [(x, y) for x in nonzero for y in nonzero],
        )
        path = tmp_path / "commas.json"
        save_structure(str(path), s)
        out_path = tmp_path / "bundle.json"
        assert main(["embed", str(path), "--theorem", "prop2", "--out", str(out_path)]) == 0
        bundle = json.loads(out_path.read_text())
        assert bundle["report"]["is_embedding"] is True

    @pytest.mark.parametrize("theorem", ["prop2", "cor3"])
    def test_empty_bottom_name(self, tmp_path, theorem):
        """A 2-chain whose bottom is named "": the member holding only the
        bottom is named apart from the empty member, so both embed."""
        s = ContactStructure.build(["", "a"], "", [("", "a")], [("a", "a")], SEMILATTICE)
        path = tmp_path / "chain.json"
        save_structure(str(path), s)
        out_path = tmp_path / "bundle.json"
        assert main(["embed", str(path), "--theorem", theorem, "--out", str(out_path)]) == 0
        bundle = json.loads(out_path.read_text())
        assert bundle["report"]["is_embedding"] is True

    def test_4a_on_chain(self, tmp_path, chain3):
        path = tmp_path / "chain.json"
        save_structure(str(path), chain3)
        assert main(["embed", str(path), "--theorem", "4a"]) == 0

    def test_4a_on_semilattice_files(self, tmp_path, semilattice_catalog_4, capsys):
        """Theorem 4a is a poset theorem: a semilattice-tagged file is
        embedded as its poset reduct, so no join is asked to survive,
        and the bundle's source is still the file's structure."""
        items = semilattice_catalog_4.items
        assert len(items) == 6
        for k, s in enumerate(items):
            path = tmp_path / f"s{k}.json"
            save_structure(str(path), s)
            out_path = tmp_path / f"bundle{k}.json"
            assert main(["embed", str(path), "--theorem", "4a", "--out", str(out_path)]) == 0
            bundle = json.loads(out_path.read_text())
            assert bundle["source"]["kind"] == "semilattice"
            assert bundle["report"]["is_embedding"] is True
            assert bundle["report"]["join_preserving"] is None

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

    @pytest.mark.parametrize("theorem", ["cor3", "4b"])
    def test_long_chain_exits_quickly(self, tmp_path, theorem):
        """A 40-element chain with full contact on its nonzero elements.
        The subset sweeps of cor3 and 4b visit a polynomial number of
        bound states on it, where a plain walk would visit 2^40 subsets."""
        names = [str(i) for i in range(40)]
        nonzero = names[1:]
        chain = ContactStructure.build(
            names,
            "0",
            zip(names, nonzero),
            [(a, b) for a in nonzero for b in nonzero],
            SEMILATTICE,
        )
        path = tmp_path / "chain.json"
        save_structure(str(path), chain)
        out_path = tmp_path / "bundle.json"
        start = time.perf_counter()
        argv = ["embed", str(path), "--theorem", theorem, "--out", str(out_path)]
        assert main(argv) == 0
        assert time.perf_counter() - start < 1
        bundle = json.loads(out_path.read_text())
        assert bundle["report"]["is_embedding"] is True


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

    # sha256 of the amalgamate bundle files for fixtures/amalgam_{a,b,c}.json
    # (poset; semilattice on copies tagged semilattice) and for the event
    # triple of test_event_instance
    PINNED_BUNDLES = {
        "poset": "26011400e679c093e54bde4206f3a7dede4a37cdd35b68fc4e85f2b21aebe47d",
        "semilattice": "6df47cd7d2581102271d9ae2938e9e5476b6f7a70471ae2ba49b93abceafeecc",
        "event": "b4c2ef373655375db484f15f52780551fd331e6b8431ba521f04c60749cbd2f1",
    }

    def test_bundles_are_pinned(self, tmp_path):
        fixtures = Path(__file__).resolve().parents[1] / "fixtures"
        inputs = {"poset": [str(fixtures / f"amalgam_{x}.json") for x in "abc"]}
        inputs["semilattice"] = []
        for x in "abc":
            doc = json.loads((fixtures / f"amalgam_{x}.json").read_text())
            doc["kind"] = "semilattice"
            path = tmp_path / f"lattice_{x}.json"
            path.write_text(json.dumps(doc))
            inputs["semilattice"].append(str(path))
        c = EventStructure.build(["c"])
        a = EventStructure.build(["c", "a"], [("c", "a")])
        b = EventStructure.build(["c", "b"], [], [("b", "c")])
        inputs["event"] = []
        for tag, s in (("a", a), ("b", b), ("c", c)):
            path = tmp_path / f"event_{tag}.json"
            save_structure(str(path), s)
            inputs["event"].append(str(path))
        for kind, paths in inputs.items():
            out_path = tmp_path / f"{kind}_bundle.json"
            assert main(["amalgamate", *paths, "--kind", kind, "--out", str(out_path)]) == 0
            data = out_path.read_bytes()
            assert hashlib.sha256(data).hexdigest() == self.PINNED_BUNDLES[kind], kind
            if kind != "event":
                report = json.loads(data)["superamalgamation"]
                assert report["ok"] is True
                assert len(report["witnesses"]) == 16

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

    @pytest.mark.parametrize("cap, budget, fixpoint, fraction", [
        ("1", "5", True, "1.0000"),
        ("2", "1", False, "0.2000"),
    ])
    def test_sweeps_spent_before_a_fixpoint_exit_0(
        self, cap, budget, fixpoint, fraction, tmp_path, capsys
    ):
        """A --budget of sweeps is not an exhausted budget: a run that
        spends it before a fixpoint exits 0 and says fixpoint false, in
        the bundle and on the summary line."""
        out_path = tmp_path / "stage.json"
        argv = ["fraisse", "--cap", cap, "--budget", budget, "--out", str(out_path)]
        assert main(argv) == 0
        bundle = json.loads(out_path.read_text())
        assert bundle["fixpoint"] is fixpoint
        assert bundle["budget_exceeded"] is False
        assert (bundle["extension_property"]["misses"] == 0) is fixpoint
        assert capsys.readouterr().err.endswith(
            f"extension fraction {fraction}, fixpoint {str(fixpoint).lower()}\n")

    def test_semilattice_stage_past_64_points(self, tmp_path, capsys):
        """A semilattice stage grows by rows past 64 points; building
        the whole image family of each amalgam ended in an
        OverflowError there."""
        out_path = tmp_path / "stage.json"
        argv = ["fraisse", "--kind", "semilattice", "--cap", "2", "--budget", "50",
                "--max-elements", "100", "--out", str(out_path)]
        start = time.perf_counter()
        assert main(argv) == 0
        assert time.perf_counter() - start < 1
        bundle = json.loads(out_path.read_text())
        assert len(bundle["stage"]["elements"]) == 100
        err = capsys.readouterr().err
        assert err.startswith("stage size 100, sweeps 50,")
        assert "Traceback" not in err


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

    def test_quotes_and_backslashes_escaped(self):
        s = ContactStructure.build(
            ["0", 'a"b', "c\\"], "0", [("0", 'a"b'), ('a"b', "c\\")], [], close=True
        )
        lines = structure_to_dot(s, "none").splitlines()
        assert lines[2:] == [
            '  "0";', '  "a\\"b";', '  "c\\\\";',
            '  "0" -> "a\\"b";', '  "a\\"b" -> "c\\\\";', "}",
        ]

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


def _main_outcome(monkeypatch, argv):
    """What ``main`` makes of argv, with every handler replaced by a
    recorder, and the parsers it built on the way: the name passed to
    each ``command_parser`` call, None for each ``build_parser`` call.
    The outcome is the Namespace the handler got, or the exit code,
    stdout and stderr of a parse that exits.  The handlers stay
    replaced, so a full parser built afterwards in the same test hands
    out the same recorder."""
    seen, built = [], []

    def record(args):
        seen.append(args)
        return 0

    one, full = cli.command_parser, cli.build_parser
    monkeypatch.setattr(cli, "COMMANDS", {
        name: spec._replace(handler=record) for name, spec in COMMANDS.items()})
    monkeypatch.setattr(cli, "command_parser", lambda name: built.append(name) or one(name))
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(None) or full())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            assert main(list(argv)) == 0
        except SystemExit as exc:
            outcome = exc.code, out.getvalue(), err.getvalue()
        else:
            [outcome] = seen
    return outcome, built


VALID_ARGV = [
    ["check", M3],
    ["check", M3, "--add", "--kind", "poset", "--close"],
    ["check", "--", M3],
    ["check", "--kind=event", M3],
    ["embed", CHAIN, "--theorem", "4b", "--out", "b.json", "--close"],
    ["embed", CHAIN, "--theo", "cor3"],
    ["embed", CHAIN, "--theorem=4a", "--out=-"],
    ["amalgamate", *SIDES],
    ["amalgamate", *SIDES, "--kind", "event", "--out", "d.json"],
    ["fraisse"],
    ["fraisse", "--kind", "semilattice", "--cap", "3", "--budget", "2",
     "--max-elements", "9", "--out", "s.json"],
    ["fraisse", "--max", "3", "--cap=2"],
    ["enumerate", "--size", "3"],
    ["enumerate", "--size", "2", "--kind", "semilattice", "--out", "cat"],
    ["gallery"],
    ["gallery", "--bound", "5", "--failure-bound", "7"],
    ["export-dot", M3],
    ["export-dot", M3, "--contact", "extra", "--out", "m3.dot"],
]

# argv that the one-command parser leaves with unrecognized arguments,
# so main hands them on to the full parser
FALLBACK_ARGV = [
    ["embed", CHAIN, "--theorem", "prop2", "extra"],
    ["check", M3, "--bogus"],
    ["fraisse", "-x", "1"],
    ["gallery", "--", "--bound", "5"],
]

REJECTED_ARGV = [
    *([name, "-h"] for name in COMMANDS),
    ["embed", CHAIN, "--theorem", "5c"],
    ["embed", CHAIN],
    ["amalgamate", SIDES[0], SIDES[1]],
    ["fraisse", "--cap", "0"],
    ["check", M3, "-h", "--kind", "event"],
    ["check", M3, "--k", "lattice"],
    ["fraisse", "--cap"],
    *FALLBACK_ARGV,
]

TOP_LEVEL_ARGV = [[], ["-h"], ["--help"], ["bogus"], ["-h", "check"], ["--seed", "1", "check", M3]]


class TestParserDifferential:
    """``main`` parses a known command with that command's parser alone;
    it must parse and report exactly as the parser of every subcommand
    does."""

    def test_every_subcommand_is_covered(self):
        assert {argv[0] for argv in VALID_ARGV} == set(COMMANDS)

    @pytest.mark.parametrize("argv", VALID_ARGV, ids=_id)
    def test_valid_argv_gives_equal_namespaces(self, argv, monkeypatch):
        one, built = _main_outcome(monkeypatch, argv)
        assert built == [argv[0]]
        full = _outcome(build_parser(), argv)
        assert isinstance(one, argparse.Namespace)
        assert one == full
        assert one.handler is cli.COMMANDS[argv[0]].handler

    @pytest.mark.parametrize("argv", REJECTED_ARGV, ids=_id)
    def test_help_and_errors_are_byte_identical(self, argv, monkeypatch):
        one, built = _main_outcome(monkeypatch, argv)
        fallback = [None] if argv in FALLBACK_ARGV else []
        assert built == [argv[0], *fallback]
        full = _outcome(build_parser(), argv)
        assert isinstance(one, tuple)
        assert one == full

    @pytest.mark.parametrize("argv", TOP_LEVEL_ARGV, ids=_id)
    def test_top_level_uses_the_full_parser(self, argv, monkeypatch):
        one, built = _main_outcome(monkeypatch, argv)
        assert built == [None]
        assert one == _outcome(build_parser(), argv)

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
    (["check", EVENTS, "--add"], 1,
     "error: additivity is not expressible on an event structure\n"),
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
    (["fraisse", "--kind", "poset", "--cap", "6", "--budget", "1", "--max-elements", "2"], 3,
     "error: a poset limit stage with cap 6 exceeds the bound of cap 5"),
    (["fraisse", "--kind", "semilattice", "--cap", "7"], 3,
     "error: a semilattice limit stage with cap 7 exceeds the bound of cap 6"),
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

    @pytest.mark.parametrize("argv", [["check"], ["embed", "--theorem", "prop2"]], ids=_id)
    def test_duplicate_contact_name(self, argv, tmp_path, capsys):
        """A duplicate element name is a verification failure, as in an
        event file (INVALID_EVENT_FILES)."""
        path = tmp_path / "duplicate.json"
        path.write_text(json.dumps({
            "kind": POSET, "elements": ["0", "x", "x"], "bottom": "0",
            "order": [["0", "x"]], "contact": [["x", "x"]],
        }))
        assert main([argv[0], str(path), *argv[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: duplicate element name 'x'\n"
        assert captured.out == ""

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


def _event_doc(events, order=(), conflict=()):
    return {"kind": "event", "elements": list(events),
            "order": [list(p) for p in order], "conflict": [list(p) for p in conflict]}


_WIDE = [f"e{i}" for i in range(70)]
_EVERY_PAIR = [(x, y) for i, x in enumerate(_WIDE) for y in _WIDE[i + 1:]]

# (event document, the one error line), for both check and export-dot
INVALID_EVENT_FILES = {
    "duplicate": (_event_doc(["e", "e"]), "error: duplicate element name 'e'\n"),
    "reserved": (_event_doc(["__bot__"]), "error: '__bot__' is reserved, not an event name\n"),
    "two-cycle": (_event_doc(["x", "y"], [("x", "y"), ("y", "x")]),
                  "error: antisymmetry violated: 'x' and 'y'\n"),
    "uninherited": (_event_doc(["e1", "e2", "e3"], [("e2", "e3")], [("e1", "e2")]),
                    "error: event structure invalid: inheritance('e1', 'e2', 'e3')\n"),
    "self-conflict": (_event_doc(["e"], (), [("e", "e")]),
                      "error: event structure invalid: irreflexive('e',)\n"),
    "unknown": (_event_doc(["e"], (), [("e", "zz")]),
                "error: unknown event 'zz' in conflict pair\n"),
}


class TestEventFiles:
    """Event files are checked where they are read.  The 70-event files
    are the first event inputs whose bottomed dual has more than 64
    elements (71)."""

    @pytest.mark.parametrize("command", ["check", "export-dot"])
    @pytest.mark.parametrize("case", INVALID_EVENT_FILES)
    def test_invalid_file_is_one_error_line(self, case, command, tmp_path, capsys):
        doc, message = INVALID_EVENT_FILES[case]
        path = tmp_path / "event.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == message
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["check", "export-dot"])
    @pytest.mark.parametrize("doc", [
        _event_doc(_WIDE, (), _EVERY_PAIR),
        _event_doc(_WIDE, zip(_WIDE, _WIDE[1:])),
    ], ids=["antichain-full-conflict", "chain"])
    def test_seventy_events(self, doc, command, tmp_path, capsys):
        path = tmp_path / "event.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if command == "check":
            assert captured.out == "PASS  irreflexive\nPASS  symmetric\nPASS  inheritance\n"
        else:
            assert captured.out.count("class=conflict") == len(doc["conflict"])

    def test_amalgamate_two_71_event_sides(self, tmp_path):
        a = ["c"] + [f"a{i}" for i in range(70)]
        b = ["c"] + [f"b{i}" for i in range(70)]
        docs = {
            "a": _event_doc(a, (), [(x, y) for i, x in enumerate(a) for y in a[i + 1:]]),
            "b": _event_doc(b, zip(b, b[1:])),
            "c": _event_doc(["c"]),
        }
        paths = []
        for tag, doc in docs.items():
            paths.append(tmp_path / f"{tag}.json")
            paths[-1].write_text(json.dumps(doc))
        out = tmp_path / "bundle.json"
        assert main(["amalgamate", *map(str, paths), "--kind", "event", "--out", str(out)]) == 0
        bundle = json.loads(out.read_text())
        assert bundle["superamalgamation_ok"] is True
        assert len(bundle["amalgam"]["elements"]) == 141
        # c is in conflict with every a, and conflict is inherited up b's chain
        assert len(bundle["amalgam"]["conflict"]) == 71 * 70 // 2 + 70 * 70
