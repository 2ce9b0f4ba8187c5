"""Scores joinscout's output against the ``ground_truth.json`` sidecar.

Discovery is scored by ``fuzzgen.evaluate_discovery``.  A fuzzy row match
is scored by mapping each side's value to the entity it stands for: a
value listed in the ``fuzzified`` log stands for its ``original``, any
other value stands for itself.  A matched row is right when both sides
stand for the same entity, and a left row is expected to match when the
right column holds some value standing for its entity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from joinscout.catalog import Catalog, ColumnRef
from joinscout.executor import ResultTable
from joinscout.fuzzgen import evaluate_discovery
from joinscout.graph import JoinPath


@dataclass
class Tally:
    """Hits among emitted items, and among expected ones."""

    hits: int = 0
    emitted: int = 0
    expected: int = 0

    def add(self, other: "Tally") -> None:
        self.hits += other.hits
        self.emitted += other.emitted
        self.expected += other.expected

    @property
    def precision(self) -> float:
        return self.hits / self.emitted if self.emitted else 1.0

    @property
    def recall(self) -> float:
        return self.hits / self.expected if self.expected else 1.0


def discovery_tally(found: Iterable[object], truth: Mapping) -> Tally:
    report = evaluate_discovery(found, truth)
    return Tally(
        hits=len(report.found) - len(report.unexpected),
        emitted=len(report.found),
        expected=len(report.expected),
    )


def _ref(raw: Mapping) -> ColumnRef:
    return ColumnRef(raw["db"], raw["table"], raw["column"])


def _entity_map(truth: Mapping, left: ColumnRef, right: ColumnRef) -> dict[ColumnRef, dict[str, str]] | None:
    """Per column, fuzzed value -> original; ``None`` if not a joinable pair."""
    for pair in truth["joinable_pairs"]:
        if {_ref(pair["left"]), _ref(pair["right"])} == {left, right}:
            maps: dict[ColumnRef, dict[str, str]] = {left: {}, right: {}}
            for entry in truth["fuzzified"]:
                ref = _ref(entry)
                if ref in maps:
                    maps[ref][entry["value"]] = entry["original"]
            return maps
    return None


def match_tally(path: JoinPath, result: ResultTable, catalog: Catalog, truth: Mapping) -> Tally:
    """Row-level score of a one-hop fuzzy join's output."""
    (edge,) = path.edges
    src, dst = path.tables
    ((lcol, rcol),) = edge.columns_from(src)
    left = ColumnRef(src.database, src.table, lcol)
    right = ColumnRef(dst.database, dst.table, rcol)
    li = result.columns.index((src, lcol))
    ri = result.columns.index((dst, rcol))
    maps = _entity_map(truth, left, right)
    if maps is None:
        # No true partner exists on either side, so every emitted row is wrong.
        return Tally(hits=0, emitted=result.row_count, expected=0)
    lmap, rmap = maps[left], maps[right]
    hits = sum(1 for row in result.rows if lmap.get(row[li], row[li]) == rmap.get(row[ri], row[ri]))
    right_entities = {rmap.get(v, v) for v in catalog.column(right).values if v}
    expected = sum(
        1 for v in catalog.column(left).values if v and lmap.get(v, v) in right_entities
    )
    return Tally(hits=hits, emitted=result.row_count, expected=expected)
