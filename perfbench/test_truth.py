"""The ground-truth scorer on a hand-built catalog with one known wrong match.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from joinscout.catalog import Catalog, Column, ColumnRef, Database, Table, TableRef
from joinscout.executor import execute_path
from joinscout.graph import EdgeKind, JoinEdge, JoinPath

import truth

DRUGS = TableRef("pharmacy_db", "Drugs")
WATCH = TableRef("public_info_db", "Drug_Watchlist")

# "Asprin" is a logged fuzz of "Aspirin" and "Ibuprofen" is copied
# verbatim.  "Naproxin" is a watched drug of its own, so the executor's
# best match for "Naproxen" (similarity 0.875) is the one wrong match.
CATALOG = Catalog((
    Database("pharmacy_db", (
        Table("Drugs", (Column("drug_name", ("Aspirin", "Ibuprofen", "Naproxen", "")),)),
    )),
    Database("public_info_db", (
        Table("Drug_Watchlist", (Column("medication_name", ("Asprin", "Ibuprofen", "Naproxin")),)),
    )),
))
TRUTH = {
    "joinable_pairs": [{
        "left": {"db": "pharmacy_db", "table": "Drugs", "column": "drug_name"},
        "right": {"db": "public_info_db", "table": "Drug_Watchlist", "column": "medication_name"},
    }],
    "fuzzified": [{
        "db": "public_info_db", "table": "Drug_Watchlist", "column": "medication_name",
        "original": "Aspirin", "value": "Asprin", "transform": "remove_chars",
    }],
}


def _hop(source: TableRef, target: TableRef, columns: tuple[str, str]) -> JoinPath:
    edge = JoinEdge(DRUGS, WATCH, EdgeKind.FUZZY, (columns,), 0.5, 1.0)
    return JoinPath((source, target), (edge,), 1.0, 0.5)


def _score(path: JoinPath) -> truth.Tally:
    return truth.match_tally(path, execute_path(path, CATALOG), CATALOG, TRUTH)


def test_one_wrong_match_costs_precision_not_recall():
    tally = _score(_hop(DRUGS, WATCH, ("drug_name", "medication_name")))
    assert (tally.hits, tally.emitted, tally.expected) == (2, 3, 2)
    assert tally.precision == 2 / 3
    assert tally.recall == 1.0


def test_scoring_is_the_same_in_the_reverse_direction():
    tally = _score(_hop(WATCH, DRUGS, ("drug_name", "medication_name")))
    assert (tally.hits, tally.emitted, tally.expected) == (2, 3, 2)


def test_rows_of_a_pair_with_no_true_partners_are_all_wrong():
    truth_doc = {**TRUTH, "joinable_pairs": []}
    path = _hop(DRUGS, WATCH, ("drug_name", "medication_name"))
    tally = truth.match_tally(path, execute_path(path, CATALOG), CATALOG, truth_doc)
    assert (tally.hits, tally.emitted, tally.expected) == (0, 3, 0)
    assert tally.precision == 0.0


def test_discovery_tally_counts_an_unexpected_pair():
    right = ColumnRef("public_info_db", "Drug_Watchlist", "medication_name")
    found = [
        (ColumnRef("pharmacy_db", "Drugs", "drug_name"), right),
        (ColumnRef("pharmacy_db", "Drugs", "manufacturer"), right),
    ]
    tally = truth.discovery_tally(found, TRUTH)
    assert (tally.hits, tally.emitted, tally.expected) == (1, 2, 1)
    assert tally.precision == 0.5
    assert tally.recall == 1.0
