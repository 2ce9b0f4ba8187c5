"""Shared fixtures: small hand-written catalogs, on disk and in memory."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

from joinscout.catalog import Catalog, Column, ColumnRef, Database, ForeignKey, Table
from joinscout.matching import MatchConfig

# Every field differs from its default, so a step that is not handed the
# config and falls back to MatchConfig() changes the output.  sample_cap=20
# binds on fuzzgen columns, so values with an exact partner on the other
# side can fall out of the samples.
NON_DEFAULT_CONFIG = MatchConfig(
    alpha=0.2, beta=0.45, gamma=0.35, column_threshold=0.45, row_threshold=0.6,
    sample_cap=20, epsilon=1e-3, seed=7,
)


def write_catalog_files(root: Path, layout: dict) -> Path:
    """Write CSVs and a manifest from a nested dict description.

    ``layout`` maps database name -> table name -> a dict with ``columns``,
    ``rows``, and optional ``primary_key`` / ``foreign_keys`` entries (the
    latter already in manifest shape).  Returns the manifest path.
    """
    manifest: dict = {"databases": []}
    for db_name, tables in layout.items():
        db_entry: dict = {"name": db_name, "tables": []}
        for tab_name, tab in tables.items():
            rel = f"{db_name}__{tab_name}.csv"
            with (root / rel).open("w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(tab["columns"])
                writer.writerows(tab.get("rows", []))
            entry = {"name": tab_name, "file": rel, "columns": tab["columns"]}
            for key in ("primary_key", "foreign_keys"):
                if key in tab:
                    entry[key] = tab[key]
            db_entry["tables"].append(entry)
        manifest["databases"].append(db_entry)
    path = root / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    return path


def cross_database_pairs(catalog: Catalog) -> list[tuple[ColumnRef, ColumnRef]]:
    """Every cross-database column pair, written as plain nested loops:
    database i before database j > i, then left table and column, then
    right table and column, each in catalog order.  ``candidate_pairs``
    yields a subsequence of this list."""
    dbs = catalog.databases
    return [
        (ColumnRef(ldb.name, ltab.name, lcol.name), ColumnRef(rdb.name, rtab.name, rcol.name))
        for i, ldb in enumerate(dbs)
        for rdb in dbs[i + 1 :]
        for ltab in ldb.tables
        for lcol in ltab.columns
        for rtab in rdb.tables
        for rcol in rtab.columns
    ]


def make_table(name: str, columns: dict[str, list[str]], pk=None, fks=()) -> Table:
    return Table(
        name=name,
        columns=tuple(Column(c, tuple(vals)) for c, vals in columns.items()),
        primary_key=tuple(pk) if pk else None,
        foreign_keys=tuple(fks),
    )


@pytest.fixture
def tiny_layout() -> dict:
    """Two small databases with one declared foreign key and fuzzy overlap."""
    return {
        "alpha": {
            "Users": {
                "columns": ["user_id", "user_name", "city"],
                "rows": [
                    ["U1", "John Smith", "Springfield"],
                    ["U2", "Mary Jones", "Shelbyville"],
                    ["U3", "Alice Brown", "Ogdenville"],
                ],
                "primary_key": ["user_id"],
            },
            "Orders": {
                "columns": ["order_id", "user_id", "item"],
                "rows": [
                    ["O1", "U1", "widget"],
                    ["O2", "U1", "gadget"],
                    ["O3", "U2", "sprocket"],
                    ["O4", "U9", "doohickey"],
                ],
                "primary_key": ["order_id"],
                "foreign_keys": [
                    {"columns": ["user_id"], "ref_table": "Users", "ref_columns": ["user_id"]}
                ],
            },
        },
        "beta": {
            "People": {
                "columns": ["person_id", "full_name", "town"],
                "rows": [
                    ["P1", "Smith John", "Springfield"],
                    ["P2", "Mary Jones", "Shelbyville"],
                    ["P3", "Carol White", "Capital City"],
                ],
                "primary_key": ["person_id"],
            },
        },
    }


@pytest.fixture
def tiny_manifest(tmp_path: Path, tiny_layout: dict) -> Path:
    return write_catalog_files(tmp_path, tiny_layout)


@pytest.fixture
def memory_catalog() -> Catalog:
    """In-memory two-database catalog, no files involved."""
    users = make_table(
        "Users",
        {
            "user_id": ["U1", "U2", "U3"],
            "user_name": ["John Smith", "Mary Jones", "Alice Brown"],
        },
        pk=["user_id"],
    )
    orders = make_table(
        "Orders",
        {
            "order_id": ["O1", "O2", "O3", "O4"],
            "user_id": ["U1", "U1", "U2", "U9"],
            "item": ["widget", "gadget", "sprocket", "doohickey"],
        },
        pk=["order_id"],
        fks=[ForeignKey(("user_id",), "Users", ("user_id",))],
    )
    people = make_table(
        "People",
        {
            "person_id": ["P1", "P2", "P3"],
            "full_name": ["Smith John", "Mary Jones", "Carol White"],
        },
        pk=["person_id"],
    )
    return Catalog(
        databases=(
            Database(name="alpha", tables=(users, orders)),
            Database(name="beta", tables=(people,)),
        )
    )
