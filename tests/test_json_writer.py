"""Differential tests of ``io.dumps``, the one writer of structure
files and bundles: its text must be ``json.dumps(doc, indent=2,
sort_keys=True)`` byte for byte, on the bundles every subcommand writes
and on hand-made documents that reach each of its branches."""

import json
import math
from pathlib import Path

import pytest

from contactposets import cli
from contactposets.cli import main
from contactposets.core import POSET, SEMILATTICE, ContactStructure
from contactposets.events import EventStructure
from contactposets.io import dumps, load_structure, save_structure

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def _reference(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


@pytest.fixture
def written(monkeypatch):
    """Every document io writes, each checked against the reference as
    it is written."""
    docs = []

    def checked(doc):
        text = dumps(doc)
        assert text == _reference(doc)
        docs.append(doc)
        return text

    monkeypatch.setattr(cli.formats, "dumps", checked)
    return docs


def _save(tmp_path, name, s):
    path = tmp_path / f"{name}.json"
    save_structure(str(path), s)
    return str(path)


def test_embed_bundles_of_the_catalogs_to_four(
    tmp_path, written, poset_catalog_4, semilattice_catalog_4
):
    theorems = {POSET: ("prop2", "cor3", "4a"), SEMILATTICE: ("prop2", "cor3", "4b")}
    runs = 0
    for catalog in (poset_catalog_4, semilattice_catalog_4):
        for k, s in enumerate(catalog.items):
            path = _save(tmp_path, f"{s.kind}{k}", s)
            for theorem in theorems[s.kind]:
                assert main(["embed", path, "--theorem", theorem]) == 0
                runs += 1
    bundles = [doc for doc in written if "construction" in doc]
    assert len(bundles) == runs == 66


def test_embed_bundle_with_escaped_names(tmp_path, written, capsys):
    names = ["0", "é", 'say "hi"', "back\\slash", "日本", "tab\tand\nnewline"]
    s = ContactStructure.build(
        names, "0", [("0", x) for x in names[1:]] + [(names[1], names[2])],
        [(names[2], names[3]), (names[4], names[4])], POSET, close=True,
    )
    path = _save(tmp_path, "escaped", s)
    assert load_structure(path) == s
    written.clear()
    for theorem in ("prop2", "cor3", "4a"):
        assert main(["embed", path, "--theorem", theorem]) == 0
    assert capsys.readouterr().out == "".join(_reference(d) + "\n" for d in written)


def _semilattice_copy(tmp_path, tag):
    doc = json.loads((FIXTURES / f"amalgam_{tag}.json").read_text())
    doc["kind"] = SEMILATTICE
    path = tmp_path / f"lattice_{tag}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_amalgamate_bundles_of_the_three_kinds(tmp_path, written):
    posets = [str(FIXTURES / f"amalgam_{x}.json") for x in "abc"]
    lattices = [_semilattice_copy(tmp_path, x) for x in "abc"]
    a = load_structure(str(FIXTURES / "events3.json"))
    c = EventStructure.build(["e1", "e2"], [("e1", "e2")])
    b = EventStructure.build(["e1", "e2", "f"], [("e1", "e2"), ("e1", "f")],
                             [("f", "e2")])
    events = [_save(tmp_path, tag, e) for tag, e in zip("abc", (a, b, c))]
    written.clear()
    for kind, paths in ((POSET, posets), (SEMILATTICE, lattices), ("event", events)):
        assert main(["amalgamate", *paths, "--kind", kind]) == 0
    assert [doc["kind"] for doc in written] == [POSET, SEMILATTICE, "event"]


def test_fraisse_bundle_holds_a_float(written, capsys):
    assert main(["fraisse", "--cap", "2", "--budget", "1"]) in (0, 3)
    [bundle] = written
    assert isinstance(bundle["extension_property"]["fraction"], float)


@pytest.mark.parametrize("kind", [POSET, SEMILATTICE])
def test_enumerate_catalog_docs(tmp_path, written, kind, capsys):
    assert main(["enumerate", "--size", "4", "--kind", kind,
                 "--out", str(tmp_path / "catalog")]) == 0
    assert [len(docs) > 0 for docs in written] == [True] * 4


HAND_MADE = [
    "plain",
    "é and 日本 and \U0001f600",
    'quote " and backslash \\ and \t\n\r\x00\x1f\x7f',
    "",
    0, -1, 1, 10 ** 30, -(10 ** 30),
    0.0, -0.0, 0.1, 1e300, 1e-300, 2.5e-7,
    math.nan, math.inf, -math.inf,
    True, False, None,
    [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[], {}, [[[]]]],
    ["x", "y"], ("x", "y"), [("x", "y"), ("z", "w")], [["x", "y"], ["é", '"']],
    ["x", 1, None, [], "y"],
    {"b": 1, "a": [1, 2.5, "s"], "c": {"nested": {"deeper": [True, None]}}},
    {"é": "x", 'k"ey': "v", "back\\": ("t", "u"), "": ""},
    {1: "one", 2: ["two"]},
    {"outer": {3: "int key", 1: [{}]}, "list": [{2: None, 0: 0}]},
    {True: "t", False: "f"},
    {None: "n"},
    {2.5: "float key"},
    [{"a": {"b": [1, {"c": ()}]}}, ({"d": "e"},)],
]


@pytest.mark.parametrize("doc", HAND_MADE, ids=repr)
def test_hand_made_documents(doc):
    assert dumps(doc) == _reference(doc)


def test_save_structure_writes_through_dumps(tmp_path, chain3):
    path = _save(tmp_path, "chain", chain3)
    text = Path(path).read_text(encoding="utf-8")
    assert text == _reference(json.loads(text)) + "\n"
