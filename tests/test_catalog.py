"""Catalog loading, validation, and round-trip behaviour."""

from __future__ import annotations

import csv
import io
import json
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from joinscout.catalog import (
    _BLOCK_ROWS,
    Catalog,
    Column,
    ColumnRef,
    Database,
    ForeignKey,
    Table,
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


def test_oversized_cell_rejected(tmp_path):
    # csv's default field size limit is 131,072 characters; the loader leaves
    # it alone, since csv.field_size_limit is global to the process.
    path = write_catalog_files(tmp_path, {"d": {"T": {"columns": ["a"], "rows": []}}})
    (tmp_path / "d__T.csv").write_text("a\r\nx\r\n" + "y" * 131_073 + "\r\n", newline="")
    with pytest.raises(SchemaMismatchError, match=r"d\.T: d__T\.csv line 3: field larger than field limit"):
        load_catalog(path)


def test_csv_that_is_not_utf8_rejected(tmp_path):
    path = write_catalog_files(tmp_path, {"d": {"T": {"columns": ["a"], "rows": []}}})
    (tmp_path / "d__T.csv").write_bytes(b"a\r\ncaf\xe9\r\n")
    with pytest.raises(SchemaMismatchError, match=r"d__T\.csv is not UTF-8"):
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


def test_manifest_that_is_not_utf8_rejected(tmp_path):
    bad = tmp_path / "manifest.json"
    bad.write_bytes(b'{"databases": "caf\xe9"}')
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


_FK = {"columns": ["b_id"], "ref_table": "B", "ref_columns": ["id"]}


@pytest.mark.parametrize(
    "a_entry,b_entry,error,message",
    [
        # A rule a constructor enforces gets the manifest location once.
        (
            {"foreign_keys": [{**_FK, "ref_columns": ["id", "id"]}]},
            {},
            ManifestParseError,
            "d.A: foreign key to 'B': arity mismatch (1 vs 2)",
        ),
        (
            {"foreign_keys": [_FK]},
            {"primary_key": ["ghost"]},
            DanglingForeignKeyError,
            "d.B: table 'B': primary key column 'ghost' does not exist",
        ),
        # load_catalog locates these itself; they are not prefixed again.
        (
            {"columns": []},
            {},
            ManifestParseError,
            "d.A: 'columns' must be a non-empty list of strings",
        ),
        (
            {"foreign_keys": [{**_FK, "ref_table": 7}]},
            {},
            ManifestParseError,
            "d.A: 'ref_table' must be a string",
        ),
    ],
    ids=["fk-arity", "pk-ghost", "columns-empty", "fk-ref-table-type"],
)
def test_load_errors_name_their_table_once(tmp_path, a_entry, b_entry, error, message):
    path = write_catalog_files(
        tmp_path,
        {
            "d": {
                "A": {"columns": ["id", "b_id"], "rows": [["1", "x"]]},
                "B": {"columns": ["id"], "rows": [["x"]]},
            }
        },
    )
    doc = json.loads(path.read_text())
    doc["databases"][0]["tables"][0].update(a_entry)
    doc["databases"][0]["tables"][1].update(b_entry)
    path.write_text(json.dumps(doc))
    with pytest.raises(error) as excinfo:
        load_catalog(path)
    assert str(excinfo.value) == message


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


def _one_table_catalog(db_name: str, table_name: str) -> Catalog:
    table = Table(table_name, (Column("a", ("x",)),))
    return Catalog((Database(db_name, (table,)),))


@pytest.mark.parametrize(
    "db_name, table_name, offender",
    [
        ("..", "escaped", ".."),
        (".", "T", "."),
        ("a/b", "T", "a/b"),
        ("a\\b", "T", "a\\b"),
        ("a\0b", "T", "a\0b"),
        ("d", "../escaped", "../escaped"),
        ("d", "T\\", "T\\"),
        ("d", "T\0", "T\0"),
        ("manifest.json", "T", "manifest.json"),
    ],
    ids=["db-dotdot", "db-dot", "db-slash", "db-backslash", "db-nul",
         "table-dotdot-slash", "table-backslash", "table-nul", "db-manifest-json"],
)
def test_save_rejects_names_that_leave_their_directory(tmp_path, db_name, table_name, offender):
    # Before, a database named ".." wrote its tables into the parent of out.
    out = tmp_path / "nested" / "out"
    with pytest.raises(ValueError, match=re.escape(repr(offender))):
        save_catalog(_one_table_catalog(db_name, table_name), out)
    assert list(tmp_path.iterdir()) == []


def _table(name: str, *columns: str) -> Table:
    return Table(name, tuple(Column(c, ("x",)) for c in columns))


def _dangling_fk() -> Database:
    table = Table("A", (Column("b_id", ("x",)),), foreign_keys=(ForeignKey(("b_id",), "B", ("id",)),))
    return Database("d", (table,))


@pytest.mark.parametrize(
    "build, error, offender",
    [
        (lambda: Catalog(()), ManifestParseError, "catalog has no databases"),
        (lambda: Catalog((Database("d", ()),)), ManifestParseError, "database 'd' has no tables"),
        (lambda: Catalog((Database("d", (_table("T"),)),)), ManifestParseError, "table 'T' has no columns"),
        (
            lambda: Catalog((Database("", (_table("T", "a"),)),)),
            ManifestParseError,
            "catalog has an empty database name",
        ),
        (
            lambda: Catalog((Database("d", (_table("", "a"),)),)),
            ManifestParseError,
            "database 'd' has an empty table name",
        ),
        (
            lambda: Catalog((Database("d", (_table("T", ""),)),)),
            ManifestParseError,
            "table 'T' has an empty column name",
        ),
        (
            lambda: Catalog((Database("d", (_table("T", "a"),)), Database("d", (_table("T", "b"),)))),
            ManifestParseError,
            "catalog has a duplicate database name 'd'",
        ),
        (
            lambda: Catalog((Database("d", (_table("T", "a"), _table("T", "b"))),)),
            ManifestParseError,
            "database 'd' has a duplicate table name 'T'",
        ),
        (
            lambda: Catalog((Database("d", (_table("T", "a", "a"),)),)),
            ManifestParseError,
            "table 'T' has a duplicate column name 'a'",
        ),
        (
            lambda: Table("T", (Column("a", ("1", "2", "3")), Column("b", ("x",)))),
            ManifestParseError,
            "table 'T' has columns of different lengths [1, 3]",
        ),
        (_dangling_fk, DanglingForeignKeyError, "d.A: foreign key references unknown table 'B'"),
    ],
    ids=["no-databases", "no-tables", "no-columns", "empty-database", "empty-table",
         "empty-column", "two-databases", "two-tables", "two-columns", "unequal-lengths",
         "dangling-foreign-key"],
)
def test_save_rejects_catalogs_that_load_rejects(tmp_path, build, error, offender):
    # The constructors refuse each of these with the error load_catalog
    # raises, so save_catalog never receives one.  A table with columns of
    # unequal length would have no row count, and save only as many rows as
    # its shortest column.
    with pytest.raises(error, match=re.escape(offender)):
        save_catalog(build(), tmp_path / "out")
    assert list(tmp_path.iterdir()) == []


# Dots and slashes in file names, and cells that csv must quote.
FILE_NAMES = st.sampled_from([".", "..", "a.", "..b"]) | st.text(alphabet="ab./", min_size=1, max_size=3)
COLUMN_NAMES = st.text(alphabet='ab.,"\r\n', min_size=1, max_size=3)
CELLS = st.text(alphabet='ab.,"\r\n ', max_size=4)


@st.composite
def catalogs(draw) -> Catalog:
    """A catalog the constructors accept, with a foreign key per later table."""
    databases = []
    for db_name in draw(st.lists(FILE_NAMES, min_size=1, max_size=3, unique=True)):
        tables: list[Table] = []
        for tab_name in draw(st.lists(FILE_NAMES, min_size=1, max_size=3, unique=True)):
            names = draw(st.lists(COLUMN_NAMES, min_size=1, max_size=3, unique=True))
            n_rows = draw(st.integers(0, 3))
            columns = tuple(Column(name, tuple(draw(st.lists(CELLS, min_size=n_rows, max_size=n_rows))))
                            for name in names)
            fks = ()
            if tables and draw(st.booleans()):
                first = tables[0]
                fks = (ForeignKey((names[0],), first.name, (first.column_names[0],)),)
            primary_key = draw(st.sampled_from([None, (names[-1],)]))
            tables.append(Table(tab_name, columns, primary_key=primary_key, foreign_keys=fks))
        databases.append(Database(db_name, tuple(tables)))
    return Catalog(tuple(databases))


@given(catalogs())
@settings(max_examples=150, deadline=None)
def test_every_catalog_saves_and_loads_back_or_is_refused_by_name(catalog):
    names = [db.name for db in catalog.databases]
    names += [tab.name for db in catalog.databases for tab in db.tables]
    plain = all("/" not in name for name in names) and not {".", ".."} & {db.name for db in catalog.databases}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        if plain:
            assert load_catalog(save_catalog(catalog, out)) == catalog
        else:
            with pytest.raises(ValueError, match="not a plain file name"):
                save_catalog(catalog, out)
            assert not out.exists()


def test_save_keeps_dotted_names(tmp_path):
    cat = _one_table_catalog("a.b", "..T.")
    manifest = save_catalog(cat, tmp_path / "out")
    assert (tmp_path / "out" / "a.b" / "..T..csv").is_file()
    assert load_catalog(manifest) == cat


# Every character csv.writer treats specially, a space and a non-ASCII letter.
WRITER_TEXT = st.one_of(st.just(""), st.text(alphabet=["a", ",", '"', "\r", "\n", "\x00", " ", "é"], max_size=4))


@st.composite
def writer_tables(draw) -> list[Table]:
    """One to three tables of one to four columns, with cells and names
    that exercise every branch of ``write_rows``."""
    tables = []
    for k in range(draw(st.integers(1, 3))):
        names = draw(st.lists(WRITER_TEXT.filter(bool), min_size=1, max_size=4, unique=True))
        n_rows = draw(st.integers(0, 6))
        columns = tuple(
            Column(name, tuple(draw(st.lists(WRITER_TEXT, min_size=n_rows, max_size=n_rows))))
            for name in names
        )
        tables.append(Table(f"t{k}", columns))
    return tables


def csv_writer_files(tables: list[Table]) -> tuple[dict[str, str], tuple[type, str] | None]:
    """What ``csv.writer`` writes for each table, in order, and the error
    that stops it, if one does: the files a save should leave behind."""
    files = {}
    for tab in tables:
        buf = io.StringIO()
        try:
            writer = csv.writer(buf)
            writer.writerow(tab.column_names)
            writer.writerows(tab.rows())
        except Exception as exc:  # the oracle compares any error
            files[f"{tab.name}.csv"] = buf.getvalue()
            return files, (type(exc), str(exc))
        files[f"{tab.name}.csv"] = buf.getvalue()
    return files, None


@given(writer_tables(), st.sampled_from([1, 2, _BLOCK_ROWS]))
# csv.writer writes a lone empty cell as "", which a plain join would not.
@example([Table("t0", (Column("a", ("", "a", "")),))], 1)
@settings(max_examples=300, deadline=None)
def test_save_writes_the_bytes_of_csv_writer(tables, block_rows):
    with tempfile.TemporaryDirectory() as tmp, mock.patch("joinscout.catalog._BLOCK_ROWS", block_rows):
        out = Path(tmp)
        try:
            save_catalog(Catalog((Database("d", tuple(tables)),)), out)
            error = None
        except Exception as exc:  # the oracle compares any error
            error = (type(exc), str(exc))
        written = {
            path.name: path.read_bytes().decode("utf-8") for path in sorted((out / "d").glob("*.csv"))
        }
    assert (written, error) == csv_writer_files(tables)


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
