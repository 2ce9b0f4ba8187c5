"""Join graphs: tables as nodes, joinable column pairs as weighted edges.

Two edge kinds.  ``fk`` edges come from declared foreign keys; ``fuzzy``
edges come from validated cross-database column matches.  Either way an
edge carries the overlap strength ``s`` of its join columns and the
weight::

    weight = max(0, -log2(min(s + epsilon, 1)))

so strong joins are cheap and weak joins are expensive.  Because weights
are additive in log space, minimizing a path's total weight maximizes the
product of its overlaps, and ``2 ** -total_weight`` estimates the fraction
of rows a multi-hop join retains end to end.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .catalog import Catalog, TableRef, fk_edges
from .errors import GraphFormatError, UnknownTableError
from .matching import MatchConfig
from .validation import ValidationResult

__all__ = [
    "EdgeKind",
    "JoinEdge",
    "JoinGraph",
    "JoinPath",
    "build_graph",
    "edge_weight",
    "export_dot",
    "graph_from_json",
    "graph_to_json",
    "shortest_path",
]


class EdgeKind(str, Enum):
    FK = "fk"
    FUZZY = "fuzzy"


@dataclass(frozen=True)
class JoinEdge:
    """An undirected join opportunity between two tables.

    Endpoints are stored in sorted order; ``join_columns`` pairs are
    oriented left-to-right.
    """

    left: TableRef
    right: TableRef
    kind: EdgeKind
    join_columns: tuple[tuple[str, str], ...]
    overlap_s: float
    weight: float
    value_score: float | None = None

    def other(self, ref: TableRef) -> TableRef:
        if ref == self.left:
            return self.right
        if ref == self.right:
            return self.left
        raise ValueError(f"{ref} is not an endpoint of {self.left} -- {self.right}")

    def columns_from(self, ref: TableRef) -> tuple[tuple[str, str], ...]:
        """Join columns oriented so the first of each pair belongs to ``ref``."""
        if ref == self.left:
            return self.join_columns
        if ref == self.right:
            return tuple((r, l) for l, r in self.join_columns)
        raise ValueError(f"{ref} is not an endpoint of {self.left} -- {self.right}")


@dataclass(frozen=True)
class JoinGraph:
    nodes: tuple[TableRef, ...]
    edges: tuple[JoinEdge, ...]
    epsilon: float = MatchConfig.epsilon  # build_graph weighs edges by edge_weight(s, epsilon)

    @cached_property
    def node_set(self) -> frozenset[TableRef]:
        return frozenset(self.nodes)

    @cached_property
    def adjacency(self) -> Mapping[TableRef, tuple[JoinEdge, ...]]:
        adj: dict[TableRef, list[JoinEdge]] = {node: [] for node in self.nodes}
        for edge in self.edges:
            adj[edge.left].append(edge)
            if edge.right != edge.left:
                adj[edge.right].append(edge)
        return {
            node: tuple(sorted(edges, key=lambda e: (e.left, e.right, e.kind.value)))
            for node, edges in adj.items()
        }


@dataclass(frozen=True)
class JoinPath:
    """A concrete table sequence with the edges that connect it."""

    tables: tuple[TableRef, ...]
    edges: tuple[JoinEdge, ...]
    total_weight: float
    retained_percentage: float

    @property
    def hops(self) -> int:
        return len(self.edges)


def edge_weight(s: float, epsilon: float = MatchConfig.epsilon) -> float:
    """Cost of joining across an overlap of strength ``s``.

    ``-log2(min(s + epsilon, 1))``, floored at zero.  ``epsilon`` keeps a
    zero overlap finite.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"overlap s must be in [0, 1], got {s}")
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    return max(0.0, -math.log2(min(s + epsilon, 1.0)))


def _classical_jaccard(left: frozenset, right: frozenset) -> float:
    union = len(left | right)
    if union == 0:
        return 0.0
    return len(left & right) / union


def _fk_key_sets(catalog: Catalog, ref: TableRef, columns: Sequence[str]) -> frozenset:
    """Distinct key tuples of ``columns`` in a table, dropping partial keys."""
    table = catalog.table(ref)
    cols = [table.column(name).values for name in columns]
    return frozenset(key for key in zip(*cols) if all(part for part in key))


def build_graph(
    catalog: Catalog,
    validated: Iterable[ValidationResult] = (),
    config: MatchConfig | None = None,
) -> JoinGraph:
    """Assemble the join graph for a catalog.

    Foreign keys become ``fk`` edges weighted by the classical Jaccard
    overlap of the actual key values.  Validated column matches become
    ``fuzzy`` edges weighted by their soft overlap; each table pair gets at
    most one edge per kind, on its strongest columns (ties go to the
    smaller column pair).
    """
    cfg = config or MatchConfig()
    nodes = tuple(sorted(catalog.table_refs()))

    # (left, right, kind) -> list of (s, join_columns, value_score)
    grouped: dict[
        tuple[TableRef, TableRef, EdgeKind],
        list[tuple[float, tuple[tuple[str, str], ...], float | None]],
    ] = {}

    for src, dst, col_pairs in fk_edges(catalog):
        left, right = src, dst
        pairs = tuple(col_pairs)
        if right < left:
            left, right = right, left
            pairs = tuple((r, l) for l, r in pairs)
        s = _classical_jaccard(
            _fk_key_sets(catalog, left, [l for l, _ in pairs]),
            _fk_key_sets(catalog, right, [r for _, r in pairs]),
        )
        grouped.setdefault((left, right, EdgeKind.FK), []).append((s, pairs, None))

    for result in validated:
        match = result.match
        left_ref = match.left.table_ref
        right_ref = match.right.table_ref
        pairs = ((match.left.column, match.right.column),)
        if right_ref < left_ref:
            left_ref, right_ref = right_ref, left_ref
            pairs = ((match.right.column, match.left.column),)
        grouped.setdefault((left_ref, right_ref, EdgeKind.FUZZY), []).append(
            (result.overlap_s, pairs, result.value_score)
        )

    edges: list[JoinEdge] = []
    for (left, right, kind), options in grouped.items():
        best_s, best_pairs, best_vs = min(options, key=lambda opt: (-opt[0], opt[1]))
        edges.append(
            JoinEdge(
                left=left,
                right=right,
                kind=kind,
                join_columns=best_pairs,
                overlap_s=best_s,
                weight=edge_weight(best_s, cfg.epsilon),
                value_score=best_vs,
            )
        )
    edges.sort(key=lambda e: (e.left, e.right, e.kind.value))
    return JoinGraph(nodes=nodes, edges=tuple(edges), epsilon=cfg.epsilon)


def shortest_path(graph: JoinGraph, source: TableRef, target: TableRef) -> JoinPath | None:
    """Cheapest join path from ``source`` to ``target``, or ``None``.

    Dijkstra over non-negative edge weights.  Ties break on fewer hops,
    then on the lexicographically smallest sequence of qualified table
    names, so equal-cost graphs always yield the same path.
    """
    if source not in graph.node_set:
        raise UnknownTableError(f"unknown table {source}")
    if target not in graph.node_set:
        raise UnknownTableError(f"unknown table {target}")

    counter = 0
    heap: list[tuple] = [(0.0, 0, (source,), counter, ())]
    settled: set[TableRef] = set()
    while heap:
        weight, hops, tables, _, edges = heapq.heappop(heap)
        node = tables[-1]
        if node in settled:
            continue
        settled.add(node)
        if node == target:
            return JoinPath(
                tables=tables,
                edges=edges,
                total_weight=weight,
                retained_percentage=2.0 ** -weight,
            )
        for edge in graph.adjacency[node]:
            nxt = edge.other(node)
            if nxt in settled or nxt == node:
                continue
            counter += 1
            heapq.heappush(
                heap,
                (weight + edge.weight, hops + 1, tables + (nxt,), counter, edges + (edge,)),
            )
    return None


# ---------------------------------------------------------------------------
# serialization

def _ref_to_json(ref: TableRef) -> dict:
    return {"db": ref.database, "table": ref.table}


def graph_to_json(graph: JoinGraph) -> str:
    """Serialize a graph to the JSON handoff format (stable bytes)."""
    doc = {
        "epsilon": graph.epsilon,
        "nodes": [_ref_to_json(n) for n in graph.nodes],
        "edges": [
            {
                "left": _ref_to_json(e.left),
                "right": _ref_to_json(e.right),
                "kind": e.kind.value,
                "columns": [list(pair) for pair in e.join_columns],
                "s": e.overlap_s,
                "value_score": e.value_score,
            }
            for e in graph.edges
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _ref_from_json(raw: object, where: str) -> TableRef:
    if (
        not isinstance(raw, dict)
        or not isinstance(raw.get("db"), str)
        or not isinstance(raw.get("table"), str)
    ):
        raise GraphFormatError(f"{where}: expected {{'db': ..., 'table': ...}}")
    return TableRef(raw["db"], raw["table"])


def _columns_from_json(raw: object, where: str, kind: EdgeKind) -> tuple[tuple[str, str], ...]:
    if not isinstance(raw, list) or not raw:
        raise GraphFormatError(f"{where}: 'columns' must be a non-empty list")
    # The executor matches a fuzzy hop on one column's values.
    if kind is EdgeKind.FUZZY and len(raw) != 1:
        raise GraphFormatError(f"{where}: a fuzzy join needs exactly one column pair")
    pairs = []
    for item in raw:
        if not (
            isinstance(item, list)
            and len(item) == 2
            and all(isinstance(c, str) for c in item)
        ):
            raise GraphFormatError(f"{where}: column pairs must be [left, right]")
        pairs.append((item[0], item[1]))
    return tuple(pairs)


def _number(raw: object, where: str, key: str, optional: bool = False) -> float | None:
    if raw is None and optional:
        return None
    # graph_from_json parses every JSON number as a float, and true as a bool.
    if not isinstance(raw, float):
        raise GraphFormatError(f"{where}: {key!r} must be a number, got {raw!r}")
    return raw


def _fraction(raw: object, where: str, key: str, optional: bool = False) -> float | None:
    # NaN fails both comparisons, so it is rejected with the rest.
    x = _number(raw, where, key, optional)
    if x is not None and not 0.0 <= x <= 1.0:
        raise GraphFormatError(f"{where}: {key!r} must be in [0, 1], got {x}")
    return x


def graph_from_json(text: str) -> JoinGraph:
    """Parse a graph from its JSON handoff format."""
    # A JSON integer past float range becomes inf and fails the range checks.
    try:
        doc = json.loads(text, parse_int=float)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"graph file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphFormatError("graph root must be an object")
    raw_nodes = doc.get("nodes")
    raw_edges = doc.get("edges")
    if not isinstance(raw_nodes, list) or not isinstance(raw_edges, list):
        raise GraphFormatError("graph needs 'nodes' and 'edges' lists")
    if "epsilon" not in doc:
        raise GraphFormatError("graph has no 'epsilon'; regenerate it with `joinscout discover`")
    # Each edge weight is derived from it; NaN fails both comparisons.
    epsilon = _number(doc["epsilon"], "graph", "epsilon")
    if not 0.0 < epsilon < math.inf:  # type: ignore[operator]
        raise GraphFormatError(f"graph: 'epsilon' must be positive and finite, got {epsilon}")

    nodes = tuple(_ref_from_json(raw, f"nodes[{i}]") for i, raw in enumerate(raw_nodes))
    node_set = set(nodes)
    if len(node_set) < len(nodes):
        twice = next(node for i, node in enumerate(nodes) if node in nodes[:i])
        raise GraphFormatError(f"node {twice} is listed more than once")
    edges = []
    for i, raw in enumerate(raw_edges):
        where = f"edges[{i}]"
        if not isinstance(raw, dict):
            raise GraphFormatError(f"{where}: expected an object")
        left = _ref_from_json(raw.get("left"), where)
        right = _ref_from_json(raw.get("right"), where)
        if left not in node_set or right not in node_set:
            raise GraphFormatError(f"{where}: endpoint not in node list")
        kind_raw = raw.get("kind")
        try:
            kind = EdgeKind(kind_raw)
        except ValueError:
            raise GraphFormatError(f"{where}: unknown edge kind {kind_raw!r}") from None
        s = _fraction(raw.get("s"), where, "s")
        edges.append(
            JoinEdge(
                left=left,
                right=right,
                kind=kind,
                join_columns=_columns_from_json(raw.get("columns"), where, kind),
                overlap_s=s,  # type: ignore[arg-type]
                weight=edge_weight(s, epsilon),  # type: ignore[arg-type]
                value_score=_fraction(raw.get("value_score"), where, "value_score", optional=True),
            )
        )
    return JoinGraph(nodes=nodes, edges=tuple(edges), epsilon=epsilon)


# ---------------------------------------------------------------------------
# DOT export

_CLUSTER_COLORS = (
    "lightsteelblue",
    "palegoldenrod",
    "palegreen",
    "lightpink",
    "lightsalmon",
    "plum",
)


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(graph: JoinGraph) -> str:
    """Render the graph as Graphviz DOT.

    One cluster per database, solid edges for foreign keys, dashed edges
    for fuzzy matches, labels showing the join columns and overlap.
    Output is fully sorted so identical graphs give identical bytes.
    """
    lines = ["graph join_graph {", "  node [shape=box, style=filled];"]
    databases = sorted({node.database for node in graph.nodes})
    for i, db in enumerate(databases):
        color = _CLUSTER_COLORS[i % len(_CLUSTER_COLORS)]
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f"    label={_quote(db)};")
        for node in sorted(n for n in graph.nodes if n.database == db):
            lines.append(f"    {_quote(str(node))} [fillcolor={_quote(color)}];")
        lines.append("  }")
    for edge in sorted(graph.edges, key=lambda e: (e.left, e.right, e.kind.value)):
        cols = ", ".join(
            f"{l} {'=' if edge.kind is EdgeKind.FK else '~'} {r}"
            for l, r in edge.join_columns
        )
        cols = cols.replace("\\", "\\\\").replace('"', '\\"')
        # \n inside the quotes is Graphviz's own line-break escape.
        label = f'"{cols}\\ns={edge.overlap_s:.2f}"'
        style = "solid" if edge.kind is EdgeKind.FK else "dashed"
        color = "gray25" if edge.kind is EdgeKind.FK else "mediumblue"
        lines.append(
            f"  {_quote(str(edge.left))} -- {_quote(str(edge.right))} "
            f"[style={style}, color={color}, label={label}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
