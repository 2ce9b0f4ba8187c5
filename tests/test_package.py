"""The package's public surface: every library module's ``__all__``, re-exported,
and no module reaching past another's ``__all__`` to its ``_`` names."""

from __future__ import annotations

import ast
import importlib
import re
import shlex
import sys
from pathlib import Path

import pytest

import joinscout
from joinscout.cli import EXIT_OK, main

REPO = Path(__file__).resolve().parents[1]

LIBRARY_MODULES = [
    "catalog",
    "errors",
    "executor",
    "fuzzgen",
    "graph",
    "matching",
    "similarity",
    "validation",
]


def test_all_is_the_modules_all_in_order():
    expected = [
        name
        for module in LIBRARY_MODULES
        for name in importlib.import_module(f"joinscout.{module}").__all__
    ]
    assert joinscout.__all__ == expected
    assert len(set(expected)) == len(expected)


@pytest.mark.parametrize("module", LIBRARY_MODULES)
def test_module_names_exist_and_are_the_top_level_objects(module):
    mod = importlib.import_module(f"joinscout.{module}")
    for name in mod.__all__:
        assert hasattr(mod, name), f"joinscout.{module}.__all__ lists missing {name!r}"
        assert getattr(joinscout, name) is getattr(mod, name), name


PUBLIC_NAMES = [
    # catalog
    "Catalog", "Column", "ColumnRef", "Database", "ForeignKey", "Table", "TableRef",
    "fk_edges", "load_catalog", "save_catalog",
    # errors
    "ConfigError", "DanglingForeignKeyError", "GraphFormatError", "JoinScoutError",
    "ManifestParseError", "MissingFileError", "SchemaMismatchError", "UnknownTableError",
    # executor
    "ResultTable", "execute_path", "write_csv",
    # fuzzgen
    "DiscoveryReport", "FuzzConfig", "evaluate_discovery", "generate_catalog",
    "load_ground_truth",
    # graph
    "EdgeKind", "JoinEdge", "JoinGraph", "JoinPath", "build_graph", "discover",
    "export_dot", "graph_from_json", "graph_to_json", "shortest_path",
    # matching
    "ColumnMatch", "MatchConfig", "candidate_pairs", "filter_candidates", "load_config",
    "score_pair",
    # similarity
    "gestalt_ratio", "name_signal_bounds", "semantic_sim", "sorted_token_form",
    "token_overlap",
    # validation
    "ValidationResult", "sample_distinct", "validate_many",
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 50
    assert joinscout.__all__ == PUBLIC_NAMES


def raised_names(source: str) -> set[str]:
    """The names ``source`` raises directly: ``raise X`` or ``raise X(...)``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                found.add(exc.id)
    return found


def test_every_error_class_is_raised():
    # JoinScoutError is the base class a caller catches; every other class
    # in errors.__all__ must be one the package actually raises.
    sources = sorted((REPO / "src" / "joinscout").glob("*.py"))
    raised = set().union(*(raised_names(path.read_text(encoding="utf-8")) for path in sources))
    unused = set(joinscout.errors.__all__) - {"JoinScoutError"} - raised
    assert unused == set()


def joinscout_imports(source: str) -> list[tuple[str, str]]:
    """Every ``(module, name)`` of a ``from joinscout... import name`` in ``source``."""
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and not node.level
        and (node.module or "").split(".")[0] == "joinscout"
        for alias in node.names
    ]


@pytest.mark.parametrize(
    "source,imports",
    [
        ("from joinscout.validation import value_score as vs", [("joinscout.validation", "value_score")]),
        ("from joinscout import graph, discover", [("joinscout", "graph"), ("joinscout", "discover")]),
        ("def f():\n    from joinscout.fuzzgen import generate_catalog", [("joinscout.fuzzgen", "generate_catalog")]),
        ("from .errors import ConfigError\nfrom tracing import Tracer", []),
    ],
)
def test_joinscout_imports_finds_each_form(source, imports):
    assert joinscout_imports(source) == imports


def test_benchmark_imports_exist():
    # perfbench/ is the benchmark's own code and changes only with the
    # benchmark, so a name it imports must not disappear from the package.
    imports = sorted(
        (path.name, module, name)
        for path in (REPO / "perfbench").glob("*.py")
        for module, name in joinscout_imports(path.read_text(encoding="utf-8"))
    )
    assert ("ops.py", "joinscout.validation", "value_score") in imports
    missing = [
        (file, module, name) for file, module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def imported_top_level_names(source: str) -> set[str]:
    """The top-level package of every absolute import in ``source``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add((node.module or "").split(".")[0])
    return found


@pytest.mark.parametrize(
    "source,names",
    [
        ("import os.path, numpy as np", {"os", "numpy"}),
        ("from joinscout.similarity import normalize", {"joinscout"}),
        ("from . import similarity\nfrom .errors import ConfigError", set()),
        ("def f():\n    import hypothesis", {"hypothesis"}),
    ],
)
def test_imported_top_level_names_finds_each_form(source, names):
    assert imported_top_level_names(source) == names


def test_library_imports_only_the_standard_library_and_numpy():
    # numpy is the one runtime dependency; nothing else can be installed.
    allowed = set(sys.stdlib_module_names) | {"numpy", "joinscout"}
    sources = sorted((REPO / "src" / "joinscout").glob("*.py"))
    assert sources
    found = {
        path.name: sorted(imported_top_level_names(path.read_text(encoding="utf-8")) - allowed)
        for path in sources
    }
    assert {name: extra for name, extra in found.items() if extra} == {}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(source: str) -> list[str]:
    """Every place ``source`` reads a ``_`` name of another joinscout module:
    ``from .m import _x``, or ``m._x`` where ``m`` was imported as a module."""
    tree = ast.parse(source)
    modules: set[str] = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "joinscout"
        ):
            for alias in node.names:
                if _is_private(alias.name):
                    found.append(f"line {node.lineno}: import of {alias.name}")
                elif node.module in (None, "joinscout"):
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("joinscout.") and alias.asname:
                    modules.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _is_private(node.attr)):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    sources = sorted((REPO / "src" / "joinscout").glob("*.py"))
    assert sources
    found = {path.name: private_reads(path.read_text(encoding="utf-8")) for path in sources}
    assert {name: reads for name, reads in found.items() if reads} == {}


@pytest.mark.parametrize(
    "source,reads",
    [
        ("from . import similarity\nsimilarity._embedding('a')", ["line 2: similarity._embedding"]),
        ("from joinscout import graph as g\ng._oriented", ["line 2: g._oriented"]),
        ("import joinscout.matching as m\nm._BOUND_SLACK", ["line 2: m._BOUND_SLACK"]),
        ("from .similarity import _dots", ["line 1: import of _dots"]),
        ("from . import catalog\ncatalog.__all__\ncatalog.load_catalog", []),
        ("from .catalog import Catalog\nCatalog._x", []),
    ],
)
def test_private_reads_finds_each_form(source, reads):
    assert private_reads(source) == reads


def test_readme_quickstart_runs(tmp_path, monkeypatch):
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", readme, re.S)
    assert block is not None
    monkeypatch.chdir(tmp_path)
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert (tmp_path / "result.csv").read_text(encoding="utf-8").count("\n") > 1


def test_readme_tour_runs(tmp_path, monkeypatch, capsys):
    # The five commands of "Five-minute tour", as README writes them: each
    # exits 0, every line `path` prints is a whole line of README, and every
    # line of the `discover` excerpt but its "..." is a line `discover` prints.
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    tour = re.search(r"## Five-minute tour\n\n```sh\n(.*?)```", readme, re.S)
    excerpt = re.search(r"`discover` prints what it found:\n\n```\n(.*?)```", readme, re.S)
    assert tour is not None and excerpt is not None
    commands = [line for line in tour.group(1).splitlines() if line.startswith("joinscout ")]
    assert len(commands) == 5
    expected = [line for line in excerpt.group(1).splitlines() if line.strip() != "..."]
    assert expected
    readme_lines = set(readme.splitlines())
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert main(shlex.split(command)[1:]) == EXIT_OK, command
        printed = capsys.readouterr().out.splitlines()
        if command.startswith("joinscout path "):
            assert printed
            assert [line for line in printed if line not in readme_lines] == []
        if command.startswith("joinscout discover "):
            assert [line for line in expected if line not in printed] == []
