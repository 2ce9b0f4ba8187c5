"""Multi-database catalogs: CSV data files described by a JSON manifest.

A manifest looks like::

    {
      "databases": [
        {
          "name": "hospital_db",
          "tables": [
            {
              "name": "Doctors",
              "file": "hospital_db/Doctors.csv",
              "columns": ["doctor_id", "doctor_name", "clinic_id"],
              "primary_key": ["doctor_id"],
              "foreign_keys": [
                {"columns": ["clinic_id"],
                 "ref_table": "Clinics",
                 "ref_columns": ["clinic_id"]}
              ]
            }
          ]
        }
      ]
    }

``file`` paths are resolved relative to the manifest.  Every cell is text;
empty string means missing.  Foreign keys stay inside their own database —
cross-database links are exactly what the rest of the package discovers.

The constructors enforce every manifest rule beyond JSON syntax, so no
invalid catalog can be built, loaded or generated.  A bad shape raises
:class:`ManifestParseError`: no columns, tables or databases; an empty or
repeated name; columns of different lengths; a key with no columns or
unequal arity.  A primary or foreign key naming a column or table that
does not exist raises :class:`DanglingForeignKeyError`.

Catalogs are immutable: safe to share across threads.  A column's
``distinct_values`` is computed on first read; two threads that read it
at once may both compute the same set, and one of them is kept.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterator, Sequence, TypeVar

from .errors import (
    DanglingForeignKeyError,
    ManifestParseError,
    MissingFileError,
    SchemaMismatchError,
    UnknownTableError,
)

__all__ = [
    "Catalog",
    "Column",
    "ColumnRef",
    "Database",
    "ForeignKey",
    "Table",
    "TableRef",
    "fk_edges",
    "load_catalog",
    "save_catalog",
]


@dataclass(frozen=True, order=True)
class TableRef:
    """Fully qualified table name."""

    database: str
    table: str

    def __str__(self) -> str:
        return f"{self.database}.{self.table}"


@dataclass(frozen=True, order=True)
class ColumnRef:
    """Fully qualified column name."""

    database: str
    table: str
    column: str

    @property
    def table_ref(self) -> TableRef:
        return TableRef(self.database, self.table)

    def __str__(self) -> str:
        return f"{self.database}.{self.table}.{self.column}"


@dataclass(frozen=True)
class ForeignKey:
    """A declared intra-database reference to another table's key."""

    columns: tuple[str, ...]
    ref_table: str
    ref_columns: tuple[str, ...]

    def __post_init__(self) -> None:
        where = f"foreign key to {self.ref_table!r}"
        _require(bool(self.columns), f"{where} has no columns")
        _require(
            len(self.columns) == len(self.ref_columns),
            f"{where}: arity mismatch ({len(self.columns)} vs {len(self.ref_columns)})",
        )


@dataclass(frozen=True)
class Column:
    name: str
    values: tuple[str, ...]

    @cached_property
    def distinct_values(self) -> frozenset[str]:
        """Distinct non-empty values; empty string means missing."""
        return frozenset(v for v in self.values if v)


@dataclass(frozen=True)
class Table:
    name: str
    columns: tuple[Column, ...]
    primary_key: tuple[str, ...] | None = None
    foreign_keys: tuple[ForeignKey, ...] = ()

    def __post_init__(self) -> None:
        owner, names = f"table {self.name!r}", self.column_names
        _check_names(names, "column", owner)
        lengths = sorted({len(c.values) for c in self.columns})
        _require(len(lengths) == 1, f"{owner} has columns of different lengths {lengths}")
        _require(self.primary_key != (), f"{owner} has a primary key with no columns")
        keys = [("primary key", self.primary_key or ())]
        keys += [("foreign key", fk.columns) for fk in self.foreign_keys]
        for what, columns in keys:
            for col in columns:
                if col not in names:
                    raise DanglingForeignKeyError(f"{owner}: {what} column {col!r} does not exist")

    @property
    def row_count(self) -> int:
        return len(self.columns[0].values)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise KeyError(f"table {self.name!r} has no column {name!r}")

    def rows(self) -> Iterator[tuple[str, ...]]:
        return zip(*(c.values for c in self.columns))


@dataclass(frozen=True)
class Database:
    name: str
    tables: tuple[Table, ...]

    def __post_init__(self) -> None:
        _check_names([tab.name for tab in self.tables], "table", f"database {self.name!r}")
        for tab in self.tables:
            for fk in tab.foreign_keys:
                try:
                    target = self.table(fk.ref_table)
                except UnknownTableError:
                    raise DanglingForeignKeyError(
                        f"{self.name}.{tab.name}: foreign key references unknown table {fk.ref_table!r}"
                    ) from None
                for col in fk.ref_columns:
                    if col not in target.column_names:
                        raise DanglingForeignKeyError(
                            f"{self.name}.{tab.name}: foreign key references "
                            f"{fk.ref_table}.{col} which does not exist"
                        )

    def table(self, name: str) -> Table:
        for tab in self.tables:
            if tab.name == name:
                return tab
        raise UnknownTableError(f"no table {name!r} in database {self.name!r}")


@dataclass(frozen=True)
class Catalog:
    databases: tuple[Database, ...]

    def __post_init__(self) -> None:
        _check_names([db.name for db in self.databases], "database", "catalog")

    def database(self, name: str) -> Database:
        for db in self.databases:
            if db.name == name:
                return db
        raise UnknownTableError(f"no database named {name!r}")

    def table(self, ref: TableRef) -> Table:
        return self.database(ref.database).table(ref.table)

    def column(self, ref: ColumnRef) -> Column:
        try:
            return self.table(ref.table_ref).column(ref.column)
        except KeyError as exc:
            raise UnknownTableError(str(exc)) from None

    def table_refs(self) -> Iterator[TableRef]:
        for db in self.databases:
            for tab in db.tables:
                yield TableRef(db.name, tab.name)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ManifestParseError(message)


def _check_names(names: Sequence[str], kind: str, owner: str) -> None:
    """Reject no names at all, an empty name and a repeated name."""
    _require(bool(names), f"{owner} has no {kind}s")
    seen: set[str] = set()
    for name in names:
        _require(bool(name), f"{owner} has an empty {kind} name")
        _require(name not in seen, f"{owner} has a duplicate {kind} name {name!r}")
        seen.add(name)


def _parse_key(raw: object, what: str) -> tuple[str, ...]:
    _require(
        isinstance(raw, list) and all(isinstance(c, str) for c in raw),
        f"{what} must be a list of column names",
    )
    return tuple(raw)  # type: ignore[arg-type]


def _parse_foreign_key(raw: object, where: str) -> ForeignKey:
    _require(isinstance(raw, dict), f"{where}: foreign key must be an object")
    assert isinstance(raw, dict)
    unknown = set(raw) - {"columns", "ref_table", "ref_columns"}
    _require(not unknown, f"{where}: unexpected foreign key fields {sorted(unknown)}")
    columns = _parse_key(raw.get("columns"), f"{where}: foreign key 'columns'")
    ref_columns = _parse_key(raw.get("ref_columns"), f"{where}: foreign key 'ref_columns'")
    ref_table = raw.get("ref_table")
    _require(isinstance(ref_table, str), f"{where}: 'ref_table' must be a string")
    return _located(where, ForeignKey, columns=columns, ref_table=ref_table, ref_columns=ref_columns)


_Built = TypeVar("_Built")


def _located(where: str, make: Callable[..., _Built], **fields: object) -> _Built:
    """``make(**fields)``, with ``where`` put in front of the message of a
    catalog rule that the constructor finds broken."""
    try:
        return make(**fields)
    except (ManifestParseError, DanglingForeignKeyError) as exc:
        raise type(exc)(f"{where}: {exc}") from None


def _read_csv_table(path: Path, expect_columns: list[str], where: str) -> list[tuple[str, ...]]:
    """Read one CSV file and return per-column value tuples.

    Text that is not UTF-8 and a cell over csv's field size limit raise
    :class:`SchemaMismatchError`; ``csv.field_size_limit`` is global to the
    process, so the limit stays at its default.
    """
    # utf-8-sig drops the byte-order mark that Excel's "CSV UTF-8" writes.
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise SchemaMismatchError(f"{where}: {path} is empty (no header row)")
            if header != expect_columns:
                raise SchemaMismatchError(
                    f"{where}: header of {path.name} is {header!r}, manifest declares {expect_columns!r}"
                )
            ncols = len(expect_columns)
            rows: list[list[str]] = []
            for row in reader:
                width = len(row)
                if width < ncols:
                    # A blank line is no row, as in csv.DictReader; save_catalog never writes one.
                    if not width:
                        continue
                    row += [""] * (ncols - width)
                elif width > ncols:
                    raise SchemaMismatchError(
                        f"{where}: {path.name} line {reader.line_num} has {width} cells, expected at most {ncols}"
                    )
                rows.append(row)
        except csv.Error as exc:
            raise SchemaMismatchError(f"{where}: {path.name} line {reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise SchemaMismatchError(f"{where}: {path.name} is not UTF-8 text: {exc}") from exc
    return list(zip(*rows)) if rows else [()] * ncols


def load_catalog(manifest_path: str | Path) -> Catalog:
    """Load and fully validate a catalog from its manifest file.

    Raises
    ------
    ManifestParseError
        Malformed JSON (bytes that are not UTF-8 included), a missing or
        mistyped field, or a catalog that a constructor rejects (see the
        module docstring): no databases, tables or columns, an empty or
        repeated name, a key with no columns or unequal arity.
    MissingFileError
        A referenced CSV file does not exist.
    SchemaMismatchError
        A CSV header or row does not match the declared columns, or a CSV
        file is not UTF-8 or holds a cell over the csv field size limit.
    DanglingForeignKeyError
        A foreign key references a table or column that does not exist,
        including primary keys naming unknown columns.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise MissingFileError(f"manifest not found: {manifest_path}")
    try:
        doc = json.loads(manifest_path.read_text(encoding="utf-8-sig"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ManifestParseError(f"manifest is not valid JSON: {exc}") from exc

    _require(isinstance(doc, dict), "manifest root must be an object")
    raw_dbs = doc.get("databases")
    _require(isinstance(raw_dbs, list), "manifest needs a 'databases' list")

    databases: list[Database] = []
    for raw_db in raw_dbs:
        _require(isinstance(raw_db, dict), "each database entry must be an object")
        db_name = raw_db.get("name")
        _require(isinstance(db_name, str), "database 'name' must be a string")
        raw_tables = raw_db.get("tables")
        _require(isinstance(raw_tables, list), f"database {db_name!r} needs a 'tables' list")

        tables: list[Table] = []
        for raw_tab in raw_tables:
            _require(isinstance(raw_tab, dict), f"database {db_name!r}: table entry must be an object")
            tab_name = raw_tab.get("name")
            _require(isinstance(tab_name, str), f"database {db_name!r}: table 'name' must be a string")
            where = f"{db_name}.{tab_name}"

            raw_columns = raw_tab.get("columns")
            _require(
                isinstance(raw_columns, list) and bool(raw_columns) and all(isinstance(c, str) for c in raw_columns),
                f"{where}: 'columns' must be a non-empty list of strings",
            )
            assert isinstance(raw_columns, list)

            rel_file = raw_tab.get("file")
            _require(isinstance(rel_file, str) and bool(rel_file), f"{where}: 'file' must be a non-empty string")
            csv_path = manifest_path.parent / rel_file
            if not csv_path.exists():
                raise MissingFileError(f"{where}: data file not found: {csv_path}")
            grid = _read_csv_table(csv_path, raw_columns, where)

            primary_key: tuple[str, ...] | None = None
            if raw_tab.get("primary_key") is not None:
                primary_key = _parse_key(raw_tab["primary_key"], f"{where}: 'primary_key'")

            fks: list[ForeignKey] = []
            if raw_tab.get("foreign_keys") is not None:
                raw_fks = raw_tab["foreign_keys"]
                _require(isinstance(raw_fks, list), f"{where}: 'foreign_keys' must be a list")
                fks = [_parse_foreign_key(raw_fk, where) for raw_fk in raw_fks]

            columns = tuple(Column(name, vals) for name, vals in zip(raw_columns, grid))
            tables.append(
                _located(where, Table, name=tab_name, columns=columns, primary_key=primary_key, foreign_keys=tuple(fks))
            )
        databases.append(Database(name=db_name, tables=tuple(tables)))
    return Catalog(databases=tuple(databases))


def save_catalog(catalog: Catalog, out_dir: str | Path) -> Path:
    """Write ``catalog`` as one CSV per table plus a manifest.

    Layout: ``<out_dir>/<database>/<table>.csv`` and
    ``<out_dir>/manifest.json``.  Returns the manifest path.  A catalog
    saved here and loaded back compares equal cell for cell.

    Raises :class:`ValueError` naming the offender before anything is
    written if a name cannot be one file name inside ``out_dir``: a
    database named ``.``, ``..`` or ``manifest.json``, or a database or
    table name holding ``/``, ``\\`` or NUL.  Every other rule that
    ``load_catalog`` checks, the constructors have already enforced.
    """
    for db in catalog.databases:
        named = [("database", db.name)] + [("table", tab.name) for tab in db.tables]
        for kind, name in named:
            reserved = kind == "database" and name in (".", "..", "manifest.json")
            if reserved or any(ch in name for ch in "/\\\0"):
                raise ValueError(f"cannot save {kind} {name!r}: not a plain file name")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"databases": []}
    for db in catalog.databases:
        db_dir = out_dir / db.name
        db_dir.mkdir(parents=True, exist_ok=True)
        db_entry: dict = {"name": db.name, "tables": []}
        for tab in db.tables:
            rel = f"{db.name}/{tab.name}.csv"
            with (out_dir / rel).open("w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(tab.column_names)
                writer.writerows(tab.rows())
            entry: dict = {
                "name": tab.name,
                "file": rel,
                "columns": list(tab.column_names),
            }
            if tab.primary_key is not None:
                entry["primary_key"] = list(tab.primary_key)
            if tab.foreign_keys:
                entry["foreign_keys"] = [
                    {
                        "columns": list(fk.columns),
                        "ref_table": fk.ref_table,
                        "ref_columns": list(fk.ref_columns),
                    }
                    for fk in tab.foreign_keys
                ]
            db_entry["tables"].append(entry)
        manifest["databases"].append(db_entry)
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return manifest_path


def fk_edges(catalog: Catalog) -> list[tuple[TableRef, TableRef, list[tuple[str, str]]]]:
    """All declared foreign keys as ``(from, to, [(column, ref_column)])``.

    Order follows the catalog: databases, then tables, then declaration
    order inside each table.
    """
    edges: list[tuple[TableRef, TableRef, list[tuple[str, str]]]] = []
    for db in catalog.databases:
        for tab in db.tables:
            for fk in tab.foreign_keys:
                edges.append(
                    (
                        TableRef(db.name, tab.name),
                        TableRef(db.name, fk.ref_table),
                        list(zip(fk.columns, fk.ref_columns)),
                    )
                )
    return edges
