"""End-to-end command-line behavior: pipelines, exit codes, determinism."""

from __future__ import annotations

import csv
import io
import json
import shutil
import subprocess
from pathlib import Path

import pytest

from joinscout import __version__
from joinscout.cli import EXIT_DATA, EXIT_NO_PATH, EXIT_OK, EXIT_USAGE, main
from joinscout.graph import EdgeKind, JoinEdge, JoinGraph, edge_weight, graph_to_json
from joinscout.catalog import TableRef


@pytest.fixture(scope="module")
def workspace(tmp_path_factory) -> dict[str, Path]:
    """One generated catalog with its discovered join graph, shared read-only."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    graph = root / "join_graph.json"
    assert main(["generate", "--out", str(data), "--seed", "42"]) == EXIT_OK
    assert (
        main(["discover", str(data / "manifest.json"), "--graph-out", str(graph)])
        == EXIT_OK
    )
    return {"root": root, "data": data, "manifest": data / "manifest.json", "graph": graph}


class TestGenerate:
    def test_writes_catalog(self, tmp_path, capsys):
        code = main(["generate", "--out", str(tmp_path / "cat"), "--seed", "7"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "4 databases, 14 tables" in out
        assert (tmp_path / "cat" / "manifest.json").is_file()
        assert (tmp_path / "cat" / "ground_truth.json").is_file()

    def test_bad_scale_is_a_usage_error(self, tmp_path, capsys):
        code = main(["generate", "--out", str(tmp_path / "cat"), "--scale", "99"])
        assert code == EXIT_USAGE
        assert "argument --scale: must be 1 to 13, got 99" in capsys.readouterr().err
        assert not (tmp_path / "cat").exists()


class TestDiscover:
    def test_summary_output(self, workspace, tmp_path, capsys):
        graph_out = tmp_path / "g.json"
        code = main(
            ["discover", str(workspace["manifest"]), "--graph-out", str(graph_out)]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "8 candidate column pair(s)" in out
        assert "validated 3 pair(s)" in out
        assert out.count("~") == 3  # one line per fuzzy edge
        assert graph_out.is_file()

    def test_graph_bytes_are_deterministic(self, workspace, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["discover", str(workspace["manifest"]), "--graph-out", str(a)])
        main(["discover", str(workspace["manifest"]), "--graph-out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() == workspace["graph"].read_bytes()

    def test_missing_manifest(self, tmp_path, capsys):
        code = main(["discover", str(tmp_path / "nope.json")])
        assert code == EXIT_DATA
        assert "error" in capsys.readouterr().err

    def test_invalid_config(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"alpha": 2.0}', encoding="utf-8")
        code = main(
            [
                "discover", str(workspace["manifest"]),
                "--config", str(cfg),
                "--graph-out", str(tmp_path / "g.json"),
            ]
        )
        assert code == EXIT_DATA

    @pytest.mark.parametrize(
        "body",
        [
            '{"alpha": NaN, "beta": 0.3, "gamma": 0.3}',
            '{"epsilon": NaN}',
            '{"epsilon": Infinity}',
        ],
    )
    def test_non_finite_config(self, workspace, tmp_path, capsys, body):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(body, encoding="utf-8")
        graph_out = tmp_path / "g.json"
        code = main(
            [
                "discover", str(workspace["manifest"]),
                "--config", str(cfg),
                "--graph-out", str(graph_out),
            ]
        )
        assert code == EXIT_DATA
        assert "finite" in capsys.readouterr().err
        assert not graph_out.exists()


def _two_table_graph(tmp_path: Path, left: TableRef, right: TableRef) -> str:
    """Write a graph of two tables joined by one fuzzy edge; return its path."""
    edge = JoinEdge(
        left=left, right=right, kind=EdgeKind.FUZZY, join_columns=(("k", "k"),),
        overlap_s=0.5, weight=edge_weight(0.5),
    )
    path = tmp_path / "graph.json"
    path.write_text(graph_to_json(JoinGraph(nodes=(left, right), edges=(edge,))), encoding="utf-8")
    return str(path)


class TestPath:
    def test_doctor_to_survey_via_clinics(self, workspace, capsys):
        code = main(
            [
                "path", str(workspace["graph"]),
                "hospital_db.Doctors", "public_info_db.Hospital_Survey",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "2 hop(s)" in out
        assert "[fk]" in out and "[fuzzy]" in out
        assert "hospital_db.Clinics" in out

    def test_bare_table_names_resolve(self, workspace, capsys):
        assert main(["path", str(workspace["graph"]), "Doctors", "Hospital_Survey"]) == EXIT_OK
        assert "2 hop(s)" in capsys.readouterr().out

    def test_isolated_component_has_no_path(self, workspace, capsys):
        code = main(
            [
                "path", str(workspace["graph"]),
                "insurance_db.Claims", "public_info_db.Drug_Watchlist",
            ]
        )
        assert code == EXIT_NO_PATH
        assert "no join path" in capsys.readouterr().err

    def test_unknown_table(self, workspace, capsys):
        code = main(["path", str(workspace["graph"]), "Doctors", "Nonexistent"])
        assert code == EXIT_DATA
        assert "Nonexistent" in capsys.readouterr().err

    def test_ambiguous_bare_name(self, tmp_path, capsys):
        path = _two_table_graph(tmp_path, TableRef("d1", "Stats"), TableRef("d2", "Stats"))
        code = main(["path", path, "Stats", "d2.Stats"])
        assert code == EXIT_DATA
        assert "ambiguous" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "left, right, names, printed",
        [
            pytest.param(
                TableRef("sales.v2", "Items"), TableRef("sales.v2", "Orders"),
                ["sales.v2.Orders", "sales.v2.Items"], "sales.v2.Orders -> sales.v2.Items",
                id="dotted-database-qualified",
            ),
            pytest.param(
                TableRef("d1", "T.2024"), TableRef("d2", "B"),
                ["T.2024", "B"], "d1.T.2024 -> d2.B",
                id="dotted-table-bare",
            ),
        ],
    )
    def test_dotted_names_resolve(self, tmp_path, capsys, left, right, names, printed):
        assert main(["path", _two_table_graph(tmp_path, left, right), *names]) == EXIT_OK
        assert printed in capsys.readouterr().out

    def test_two_tables_printed_alike_are_ambiguous(self, tmp_path, capsys):
        path = _two_table_graph(tmp_path, TableRef("a", "b.T"), TableRef("a.b", "T"))
        assert main(["path", path, "a.b.T", "a.b.T"]) == EXIT_DATA
        assert "'a.b.T' is ambiguous" in capsys.readouterr().err

    def test_corrupt_graph_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken", encoding="utf-8")
        assert main(["path", str(bad), "A", "B"]) == EXIT_DATA

    def test_graph_file_without_epsilon(self, workspace, tmp_path, capsys):
        doc = json.loads(workspace["graph"].read_text(encoding="utf-8"))
        del doc["epsilon"]
        path = tmp_path / "old_format.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["path", str(path), "Doctors", "Hospital_Survey"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "epsilon" in err and "joinscout discover" in err

    def test_edited_s_sets_the_weight(self, workspace, tmp_path, capsys):
        doc = json.loads(workspace["graph"].read_text(encoding="utf-8"))
        (edge,) = [e for e in doc["edges"] if e["columns"] == [["clinic_name", "hospital_name"]]]
        edge["s"] = 0.01
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["path", str(path), "Doctors", "Hospital_Survey"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "(s=0.010, weight=6.6437)" in out
        assert "retains ~0.9% of rows" in out

    @pytest.mark.parametrize("value_score", [float("nan"), float("inf"), 1.5])
    def test_out_of_range_value_score_graph_file(self, tmp_path, capsys, value_score):
        a, b = TableRef("d1", "A"), TableRef("d2", "B")
        edge = JoinEdge(
            left=a, right=b, kind=EdgeKind.FUZZY, join_columns=(("k", "k"),),
            overlap_s=0.5, weight=edge_weight(0.5), value_score=value_score,
        )
        path = tmp_path / "bad_value_score.json"
        path.write_text(graph_to_json(JoinGraph(nodes=(a, b), edges=(edge,))), encoding="utf-8")
        assert main(["path", str(path), "A", "B"]) == EXIT_DATA
        assert "value_score" in capsys.readouterr().err


class TestJoin:
    def test_join_to_file(self, workspace, tmp_path, capsys):
        out_csv = tmp_path / "joined.csv"
        code = main(
            [
                "join", str(workspace["graph"]), str(workspace["manifest"]),
                "hospital_db.Doctors", "public_info_db.Hospital_Survey",
                "--out", str(out_csv),
            ]
        )
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert "row(s) total" in captured.err
        with out_csv.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        header, data = rows[0], rows[1:]
        assert header[0] == "doctor_id"
        assert "_fuzzy_score_2" in header
        assert len(data) > 0
        score_at = header.index("_fuzzy_score_2")
        assert all(float(r[score_at]) >= 0.5 for r in data)

    def test_join_to_stdout_with_limit(self, workspace, capsys):
        code = main(
            [
                "join", str(workspace["graph"]), str(workspace["manifest"]),
                "Doctors", "Hospital_Survey", "--limit", "5",
            ]
        )
        assert code == EXIT_OK
        captured = capsys.readouterr()
        rows = list(csv.reader(io.StringIO(captured.out)))
        assert len(rows) == 6  # header + 5

    @pytest.mark.parametrize("limit", [[], ["--limit", "2"]], ids=["all", "limit2"])
    def test_join_to_stdout_matches_file(self, workspace, tmp_path, capsys, limit):
        out_csv = tmp_path / "joined.csv"
        ends = [str(workspace["graph"]), str(workspace["manifest"]), "Doctors", "Hospital_Survey"]
        assert main(["join", *ends, "--out", str(out_csv), *limit]) == EXIT_OK
        capsys.readouterr()
        assert main(["join", *ends, "--out", "-", *limit]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert stdout.encode("utf-8") == out_csv.read_bytes()
        if limit:
            assert stdout.count("\r\n") == 3  # header + 2
        else:
            assert '"' in stdout  # some rows hold a comma and take csv.writer

    def test_source_equals_target_copies_the_table(self, workspace, tmp_path):
        out_csv = tmp_path / "copy.csv"
        code = main(
            [
                "join", str(workspace["graph"]), str(workspace["manifest"]),
                "Doctors", "Doctors", "--out", str(out_csv),
            ]
        )
        assert code == EXIT_OK
        with out_csv.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 41  # header + all 40 doctors

    def test_no_path_exit_code(self, workspace, capsys):
        code = main(
            [
                "join", str(workspace["graph"]), str(workspace["manifest"]),
                "Claims", "Drug_Watchlist",
            ]
        )
        assert code == EXIT_NO_PATH
        assert "no join path" in capsys.readouterr().err

    def test_join_column_missing_from_catalog(self, workspace, tmp_path, capsys):
        graph = tmp_path / "bad_column.json"
        text = workspace["graph"].read_text(encoding="utf-8")
        assert '"clinic_name"' in text
        graph.write_text(text.replace('"clinic_name"', '"nope"'), encoding="utf-8")
        code = main(
            ["join", str(graph), str(workspace["manifest"]), "Doctors", "Hospital_Survey"]
        )
        assert code == EXIT_DATA
        assert "'nope'" in capsys.readouterr().err


class TestGraphCommand:
    def test_dot_to_stdout(self, workspace, capsys):
        assert main(["graph", str(workspace["graph"])]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("graph join_graph {")
        assert "subgraph cluster_" in out

    def test_dot_to_file(self, workspace, tmp_path, capsys):
        out_dot = tmp_path / "g.dot"
        assert main(["graph", str(workspace["graph"]), "--out", str(out_dot)]) == EXIT_OK
        text = out_dot.read_text(encoding="utf-8")
        assert text.count("{") == text.count("}")
        assert "style=dashed" in text


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate"],
            ["generate"],                       # --out is required
            ["discover"],                       # manifest is required
            ["path", "g.json", "OnlyOne"],
            ["join", "g.json", "m.json", "A", "B", "--limit", "-3"],
            ["join", "g.json", "m.json", "A", "B", "--limit", "many"],
            ["generate", "--out", "d", "--scale", "0"],
            ["generate", "--out", "d", "--scale", "-1"],
            ["generate", "--out", "d", "--scale", "14"],
        ],
    )
    def test_exit_one(self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        capsys.readouterr()

    def test_version(self, capsys):
        assert main(["--version"]) == EXIT_OK
        assert f"joinscout {__version__}" in capsys.readouterr().out


def test_console_script_is_installed():
    exe = shutil.which("joinscout")
    assert exe, "console script should be on PATH after an editable install"
    proc = subprocess.run(
        [exe, "--version"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == EXIT_OK
    assert __version__ in proc.stdout
