import json

import pytest

from contactposets.cli import main
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


class TestGalleryCommand:
    def test_small_bounds(self, capsys):
        assert main(["gallery", "--bound", "5", "--failure-bound", "6"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out


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
