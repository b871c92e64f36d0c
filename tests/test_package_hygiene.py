"""Static checks over the package source, read with ``ast``.

The package is stdlib-only: every import names a standard-library module
or the package itself.  And no module other than ``__init__`` (whose
imports are its re-exports) imports a name it never uses, so code that
is deleted takes its imports with it.

Likewise every module-level private function or class is referenced
somewhere in the package outside its own definition, so code that is
deleted takes its helpers with it.

And JSON is written in one place: only ``io`` calls ``json.dump`` or
``json.dumps``, so every file and bundle goes through ``io.dumps``.

And names are looked up one way: only ``core`` calls ``index_map``
(each value builds its own map once, on its first lookup), and no
module scans a carrier with ``.names.index`` or ``.events.index``.

And gluings are renamed apart one way: ``_fresh_names`` is called only
by ``core._glued_apart``, the unchecked builder of every generated
gluing, and by ``AmalgamInstance.from_embeddings``, which checks the
maps a caller supplies.

And a set family's provenance is built on read: ``Origin`` is called
only by the provenance builders in ``represent``, which a family runs
the first time its provenance is read, so the mask path builds none.

And a join or meet table is built only to find a join or meet: an
element already known is tested by its row (k is the join of i and j
iff ``up[k] == up[i] & up[j]``, their meet iff ``down[k] == down[i] &
down[j]``).  So the calls of ``join_table`` and ``meet_table`` are
counted per caller: each map check builds the table of its source
only, and the gallery builds none.  A new caller is a decision to be
made here, not a table that comes back unnoticed.

And an amalgam's rows are built two ways, each with one caller set:
``_glue`` builds every row and serves ``order_amalgam`` and
``contact_amalgam``, which check the result in full; the one-point
kernel ``_grow`` builds only the new point's row and column and checks
only the tuples that hold it, which is sound only when A is a stage the
library built and checked.  So ``_grow`` is called by
``fraisse._amalgamate_extension`` alone: a second caller would be a
second code path that trusts its A unchecked.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "contactposets"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imports(tree):
    """(top-level module or None for a relative import, bound names) per
    import statement, wherever it sits in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield alias.name.split(".")[0], [bound]
        elif isinstance(node, ast.ImportFrom):
            top = None if node.level else node.module.split(".")[0]
            yield top, [alias.asname or alias.name for alias in node.names]


def test_modules_found():
    assert {path.name for path in MODULES} >= {"__init__.py", "core.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_imports_are_stdlib_or_the_package(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    foreign = [
        top
        for top, _ in _imports(tree)
        if top is not None
        and top != "contactposets"
        and top not in sys.stdlib_module_names
    ]
    assert foreign == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda path: path.name
)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imported = [
        name
        for top, names in _imports(tree)
        if top != "__future__"
        for name in names
    ]
    assert [name for name in imported if name not in used] == []


def _references(node):
    """Names a tree refers to: loaded names, attributes and names
    imported from a module."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def test_every_private_definition_is_referenced():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in MODULES]
    everywhere = Counter(name for tree in trees for name in _references(tree))
    definitions = [
        node
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
    ]
    assert definitions
    unreferenced = [
        node.name
        for node in definitions
        if everywhere[node.name] == Counter(_references(node))[node.name]
    ]
    assert unreferenced == []


def _json_writes(tree):
    """Calls of json.dump or json.dumps, however json or the function
    was imported."""
    aliases = {"json"}
    writers = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names if a.name == "json"}
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            writers |= {a.asname or a.name for a in node.names
                        if a.name in ("dump", "dumps")}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr in ("dump", "dumps")
                and isinstance(func.value, ast.Name) and func.value.id in aliases):
            yield node.lineno
        elif isinstance(func, ast.Name) and func.id in writers:
            yield node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_io_writes_json(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = list(_json_writes(tree))
    if path.name == "io.py":
        assert found
    else:
        assert found == []


def _name_lookups(tree):
    """Calls of index_map, and of .index on a .names or .events tuple."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "index_map":
            yield "index_map", node.lineno
        elif isinstance(func, ast.Attribute) and func.attr == "index_map":
            yield "index_map", node.lineno
        elif (isinstance(func, ast.Attribute) and func.attr == "index"
                and isinstance(func.value, ast.Attribute)
                and func.value.attr in ("names", "events")):
            yield f".{func.value.attr}.index", node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_one_name_lookup_path(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = list(_name_lookups(tree))
    if path.name == "core.py":
        assert [kind for kind, _ in found] == ["index_map"]
    else:
        assert found == []


def _callers(tree, callee):
    """(module-level function or class.method, line) of each call of callee."""
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            scopes = [(top.name, top)]
        elif isinstance(top, ast.ClassDef):
            scopes = [(f"{top.name}.{node.name}", node) for node in top.body
                      if isinstance(node, ast.FunctionDef)]
        else:
            scopes = [(None, top)]
        for scope, node in scopes:
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if (isinstance(func, ast.Name) and func.id == callee
                        or isinstance(func, ast.Attribute) and func.attr == callee):
                    yield scope, call.lineno


def _callers_everywhere(callee):
    return {
        (path.name, scope)
        for path in MODULES
        for scope, _ in _callers(ast.parse(path.read_text(encoding="utf-8")), callee)
    }


def test_one_renaming_apart():
    assert _callers_everywhere("_fresh_names") == {
        ("core.py", "_glued_apart"),
        ("amalgam.py", "AmalgamInstance.from_embeddings"),
    }


def test_origins_only_in_the_provenance_builders():
    assert _callers_everywhere("Origin") == {
        ("represent.py", "_image_origins"),
        ("represent.py", "_powerset_origins"),
        ("represent.py", "_cut_origins"),
    }


def test_one_map_search():
    """Every map search reads the memoised embedding table: it is the one
    caller of isomorphisms, and tables are canonicalised raw only inside
    enumeration."""
    assert _callers_everywhere("isomorphisms") == {("enumeration.py", "_embedding_table")}
    assert {name for name, _ in _callers_everywhere("canonical_table_key")} == {
        "enumeration.py"
    }


def _call_counts(callee):
    return Counter(
        (path.name, scope)
        for path in MODULES
        for scope, _ in _callers(ast.parse(path.read_text(encoding="utf-8")), callee)
    )


def test_join_and_meet_tables_only_find():
    """Known joins and meets are tested by their rows, so no target-side
    table is built: _preserves_joins and _bound_sweep build the source's
    tables only, and embeds_extension t's (the extension, not the stage)."""
    assert _call_counts("join_table") == Counter({
        ("core.py", "is_semilattice_order"): 1,
        ("core.py", "_additivity_check"): 1,
        ("core.py", "_require_join_closed"): 1,
        ("core.py", "_preserves_joins"): 1,
        ("enumeration.py", "lattice_operations"): 1,
        ("enumeration.py", "_carrier_positions"): 1,
        ("fraisse.py", "embeds_extension"): 1,
        ("fraisse.py", "generated_subsemilattice"): 1,
        ("represent.py", "_bound_sweep"): 1,
    })
    assert _call_counts("meet_table") == Counter({
        ("enumeration.py", "lattice_operations"): 1,
        ("represent.py", "_bound_sweep"): 1,
    })


def test_two_row_builders_with_fixed_callers():
    assert _callers_everywhere("_glue") == {
        ("amalgam.py", "order_amalgam"),
        ("amalgam.py", "contact_amalgam"),
    }
    assert _callers_everywhere("_grow") == {("fraisse.py", "_amalgamate_extension")}
