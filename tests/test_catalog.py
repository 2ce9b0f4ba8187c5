"""Catalog loading, validation, and round-trip behaviour."""

from __future__ import annotations

import json

import pytest

from joinscout.catalog import (
    Catalog,
    ColumnRef,
    TableRef,
    fk_edges,
    load_catalog,
    save_catalog,
)
from joinscout.errors import (
    DanglingForeignKeyError,
    ManifestParseError,
    MissingFileError,
    SchemaMismatchError,
    UnknownTableError,
)

from conftest import write_catalog_files


def test_load_basic(tiny_manifest):
    cat = load_catalog(tiny_manifest)
    assert [db.name for db in cat.databases] == ["alpha", "beta"]
    users = cat.table(TableRef("alpha", "Users"))
    assert users.column_names == ("user_id", "user_name", "city")
    assert users.row_count == 3
    assert users.column("user_name").values == ("John Smith", "Mary Jones", "Alice Brown")
    assert users.primary_key == ("user_id",)
    orders = cat.table(TableRef("alpha", "Orders"))
    assert orders.foreign_keys[0].ref_table == "Users"


def test_rows_iterates_in_order(tiny_manifest):
    cat = load_catalog(tiny_manifest)
    rows = list(cat.table(TableRef("beta", "People")).rows())
    assert rows[0] == ("P1", "Smith John", "Springfield")
    assert len(rows) == 3


def test_distinct_values_drop_empties(tmp_path):
    manifest = write_catalog_files(
        tmp_path,
        {"d": {"T": {"columns": ["a"], "rows": [["x"], [""], ["x"], ["y"]]}}},
    )
    col = load_catalog(manifest).column(ColumnRef("d", "T", "a"))
    assert col.values == ("x", "", "x", "y")
    assert col.distinct_values == frozenset({"x", "y"})


def test_short_rows_padded(tmp_path):
    manifest = write_catalog_files(
        tmp_path,
        {"d": {"T": {"columns": ["a", "b", "c"], "rows": [["1"], ["1", "2"]]}}},
    )
    table = load_catalog(manifest).table(TableRef("d", "T"))
    assert list(table.rows()) == [("1", "", ""), ("1", "2", "")]


def test_long_row_rejected(tmp_path):
    manifest = write_catalog_files(
        tmp_path, {"d": {"T": {"columns": ["a"], "rows": [["1", "2"]]}}}
    )
    with pytest.raises(SchemaMismatchError, match="2 cells"):
        load_catalog(manifest)


def test_long_row_line_number_counts_physical_lines(tmp_path):
    manifest = write_catalog_files(tmp_path, {"d": {"T": {"columns": ["a", "b"], "rows": []}}})
    # The quoted cell spans lines 2-3, so the three-cell row is on line 4.
    (tmp_path / "d__T.csv").write_text('a,b\r\n"multi\nline",x\r\n1,2,3\r\n', newline="")
    with pytest.raises(SchemaMismatchError, match="line 4 has 3 cells"):
        load_catalog(manifest)


@pytest.mark.parametrize(
    "body",
    ["id,name\r\n1,a\r\n\r\n2,b\r\n", "id,name\r\n1,a\r\n2,b\r\n\r\n"],
    ids=["blank-line-in-middle", "blank-line-at-end"],
)
def test_blank_lines_are_not_rows(tmp_path, body):
    manifest = write_catalog_files(tmp_path, {"d": {"T": {"columns": ["id", "name"], "rows": []}}})
    (tmp_path / "d__T.csv").write_text(body, newline="")
    table = load_catalog(manifest).table(TableRef("d", "T"))
    assert table.row_count == 2
    assert list(table.rows()) == [("1", "a"), ("2", "b")]


def test_bom_prefixed_csv_loads(tmp_path):
    manifest = write_catalog_files(tmp_path, {"d": {"T": {"columns": ["id", "name"], "rows": []}}})
    # Excel's "CSV UTF-8" starts the file with a byte-order mark; only that one is dropped.
    body = "\ufeffid,name\r\n\ufeff1,caf\u00e9\r\n"
    (tmp_path / "d__T.csv").write_text(body, encoding="utf-8", newline="")
    table = load_catalog(manifest).table(TableRef("d", "T"))
    assert table.column_names == ("id", "name")
    assert list(table.rows()) == [("\ufeff1", "caf\u00e9")]


def test_bom_prefixed_manifest_loads(tmp_path):
    manifest = write_catalog_files(tmp_path, {"d": {"T": {"columns": ["a"], "rows": [["x"]]}}})
    manifest.write_bytes(b"\xef\xbb\xbf" + manifest.read_bytes())
    assert list(load_catalog(manifest).table(TableRef("d", "T")).rows()) == [("x",)]


def test_header_mismatch_rejected(tmp_path):
    path = write_catalog_files(tmp_path, {"d": {"T": {"columns": ["a", "b"], "rows": []}}})
    doc = json.loads(path.read_text())
    doc["databases"][0]["tables"][0]["columns"] = ["a", "x"]
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaMismatchError, match="header"):
        load_catalog(path)


def test_empty_csv_rejected(tmp_path):
    path = write_catalog_files(tmp_path, {"d": {"T": {"columns": ["a"], "rows": []}}})
    (tmp_path / "d__T.csv").write_text("")
    with pytest.raises(SchemaMismatchError, match="empty"):
        load_catalog(path)


def test_missing_manifest():
    with pytest.raises(MissingFileError):
        load_catalog("/nonexistent/manifest.json")


def test_missing_csv(tmp_path):
    path = write_catalog_files(tmp_path, {"d": {"T": {"columns": ["a"], "rows": []}}})
    (tmp_path / "d__T.csv").unlink()
    with pytest.raises(MissingFileError):
        load_catalog(path)


def test_invalid_json(tmp_path):
    bad = tmp_path / "manifest.json"
    bad.write_text("{not json")
    with pytest.raises(ManifestParseError, match="JSON"):
        load_catalog(bad)


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda d: d.pop("databases"), "databases"),
        (lambda d: d.update(databases=[]), "databases"),
        (lambda d: d["databases"][0].pop("name"), "name"),
        (lambda d: d["databases"][0].update(tables=[]), "tables"),
        (lambda d: d["databases"][0]["tables"][0].pop("file"), "file"),
        (lambda d: d["databases"][0]["tables"][0].update(columns=[]), "columns"),
        (
            lambda d: d["databases"].append(dict(d["databases"][0])),
            "duplicate database",
        ),
    ],
)
def test_manifest_structure_errors(tmp_path, mutate, message):
    path = write_catalog_files(tmp_path, {"d": {"T": {"columns": ["a"], "rows": []}}})
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestParseError, match=message):
        load_catalog(path)


def test_duplicate_columns_rejected(tmp_path):
    (tmp_path / "t.csv").write_text("a,a\r\n")
    (tmp_path / "manifest.json").write_text(
        json.dumps(
            {
                "databases": [
                    {"name": "d", "tables": [{"name": "T", "file": "t.csv", "columns": ["a", "a"]}]}
                ]
            }
        )
    )
    with pytest.raises(ManifestParseError, match="duplicate column"):
        load_catalog(tmp_path / "manifest.json")


def _with_fk(tmp_path, fk, pk=None):
    layout = {
        "d": {
            "A": {
                "columns": ["id", "b_id"],
                "rows": [["1", "x"]],
                "foreign_keys": [fk],
                **({"primary_key": pk} if pk else {}),
            },
            "B": {"columns": ["id"], "rows": [["x"]]},
        }
    }
    return write_catalog_files(tmp_path, layout)


def test_fk_ok(tmp_path):
    path = _with_fk(tmp_path, {"columns": ["b_id"], "ref_table": "B", "ref_columns": ["id"]})
    cat = load_catalog(path)
    assert fk_edges(cat) == [(TableRef("d", "A"), TableRef("d", "B"), [("b_id", "id")])]


def test_fk_unknown_ref_table(tmp_path):
    path = _with_fk(tmp_path, {"columns": ["b_id"], "ref_table": "Z", "ref_columns": ["id"]})
    with pytest.raises(DanglingForeignKeyError, match="unknown table"):
        load_catalog(path)


def test_fk_unknown_ref_column(tmp_path):
    path = _with_fk(tmp_path, {"columns": ["b_id"], "ref_table": "B", "ref_columns": ["zzz"]})
    with pytest.raises(DanglingForeignKeyError, match="zzz"):
        load_catalog(path)


def test_fk_unknown_local_column(tmp_path):
    path = _with_fk(tmp_path, {"columns": ["nope"], "ref_table": "B", "ref_columns": ["id"]})
    with pytest.raises(DanglingForeignKeyError, match="nope"):
        load_catalog(path)


def test_fk_arity_mismatch(tmp_path):
    path = _with_fk(
        tmp_path, {"columns": ["b_id"], "ref_table": "B", "ref_columns": ["id", "id"]}
    )
    with pytest.raises(ManifestParseError, match="arity"):
        load_catalog(path)


def test_dangling_primary_key(tmp_path):
    path = _with_fk(
        tmp_path,
        {"columns": ["b_id"], "ref_table": "B", "ref_columns": ["id"]},
        pk=["ghost"],
    )
    with pytest.raises(DanglingForeignKeyError, match="ghost"):
        load_catalog(path)


def test_accessor_errors(tiny_manifest):
    cat = load_catalog(tiny_manifest)
    with pytest.raises(UnknownTableError):
        cat.database("nope")
    with pytest.raises(UnknownTableError):
        cat.table(TableRef("alpha", "Nope"))
    with pytest.raises(UnknownTableError):
        cat.column(ColumnRef("alpha", "Users", "nope"))


def test_refs_iteration(tiny_manifest):
    cat = load_catalog(tiny_manifest)
    assert list(cat.table_refs()) == [
        TableRef("alpha", "Users"),
        TableRef("alpha", "Orders"),
        TableRef("beta", "People"),
    ]


class TestRoundTrip:
    def test_save_load_equal(self, tiny_manifest, tmp_path):
        cat = load_catalog(tiny_manifest)
        out = tmp_path / "copy"
        manifest = save_catalog(cat, out)
        assert manifest == out / "manifest.json"
        assert load_catalog(manifest) == cat

    def test_awkward_cells_survive(self, tmp_path):
        rows = [
            ['with,comma', 'with "quotes"', "multi\nline"],
            ["", "trailing space ", "ünïcode ✓"],
        ]
        manifest = write_catalog_files(
            tmp_path, {"d": {"T": {"columns": ["a", "b", "c"], "rows": rows}}}
        )
        cat = load_catalog(manifest)
        out = save_catalog(cat, tmp_path / "again")
        reloaded = load_catalog(out)
        assert list(reloaded.table(TableRef("d", "T")).rows()) == [tuple(r) for r in rows]
        assert reloaded == cat

    def test_one_column_empty_cell_survives(self, tmp_path):
        # csv.writer writes a lone empty cell as "", not as a blank line.
        manifest = write_catalog_files(
            tmp_path, {"d": {"T": {"columns": ["a"], "rows": [["x"], [""], [""]]}}}
        )
        cat = load_catalog(manifest)
        out = save_catalog(cat, tmp_path / "again")
        assert (tmp_path / "again" / "d" / "T.csv").read_bytes() == b'a\r\nx\r\n""\r\n""\r\n'
        reloaded = load_catalog(out)
        assert reloaded.column(ColumnRef("d", "T", "a")).values == ("x", "", "")
        assert reloaded == cat

    def test_crlf_line_endings(self, tiny_manifest, tmp_path):
        cat = load_catalog(tiny_manifest)
        save_catalog(cat, tmp_path / "out")
        raw = (tmp_path / "out" / "alpha" / "Users.csv").read_bytes()
        assert b"\r\n" in raw

    def test_fk_metadata_preserved(self, tiny_manifest, tmp_path):
        cat = load_catalog(tiny_manifest)
        reloaded = load_catalog(save_catalog(cat, tmp_path / "out"))
        orders = reloaded.table(TableRef("alpha", "Orders"))
        assert orders.primary_key == ("order_id",)
        assert orders.foreign_keys[0].columns == ("user_id",)


def test_fk_edges_order(tmp_path):
    layout = {
        "d": {
            "A": {"columns": ["id"], "rows": [["1"]]},
            "B": {
                "columns": ["id", "a1", "a2"],
                "rows": [["1", "1", "1"]],
                "foreign_keys": [
                    {"columns": ["a1"], "ref_table": "A", "ref_columns": ["id"]},
                    {"columns": ["a2"], "ref_table": "A", "ref_columns": ["id"]},
                ],
            },
        }
    }
    cat = load_catalog(write_catalog_files(tmp_path, layout))
    edges = fk_edges(cat)
    assert [cols for _, _, cols in edges] == [[("a1", "id")], [("a2", "id")]]


def test_catalog_equality_ignores_nothing_visible(memory_catalog):
    # Frozen dataclasses: equality is cell-for-cell over names and values.
    assert memory_catalog == Catalog(databases=memory_catalog.databases)
