"""The operations the benchmark runs through joinscout's public API.

``discover`` does what ``joinscout discover`` does with the default
``--jobs 1``.  ``traced_discover`` does the same work with a span around
every call, and builds validation out of ``sample_distinct`` ->
``value_score`` -> ``fuzzy_jaccard`` so each step can be timed; the caller
asserts that its results equal ``validate_many``'s.  Each operation has a
check of its output that returns the problems it finds.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path

from joinscout.catalog import Catalog, TableRef, load_catalog
from joinscout.executor import ResultTable, execute_path, write_csv
from joinscout.graph import (
    EdgeKind,
    JoinGraph,
    JoinPath,
    build_graph,
    graph_from_json,
    graph_to_json,
    shortest_path,
)
from joinscout.matching import (
    ColumnMatch,
    MatchConfig,
    candidate_pairs,
    filter_candidates,
    score_pair,
)
from joinscout.similarity import sorted_token_form
from joinscout.validation import (
    ValidationResult,
    fuzzy_jaccard,
    sample_distinct,
    validate_many,
    value_score,
)

from tracing import Tracer

# The CLI's defaults.
CONFIG = MatchConfig()


class NullTracer:
    """Stands in for :class:`Tracer` when a run is not traced."""

    def span(self, name: str) -> contextlib.AbstractContextManager:
        return contextlib.nullcontext()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class Discovery:
    catalog: Catalog
    validated: list[ValidationResult]
    graph: JoinGraph
    graph_json: str


def discover(manifest: Path, graph_out: Path) -> Discovery:
    catalog = load_catalog(manifest)
    scored = (score_pair(left, right, CONFIG) for left, right in candidate_pairs(catalog))
    candidates = filter_candidates(scored, CONFIG)
    validated = validate_many(candidates, catalog, CONFIG, jobs=1)
    graph = build_graph(catalog, validated, CONFIG)
    text = graph_to_json(graph)
    graph_out.write_text(text, encoding="utf-8")
    return Discovery(catalog, validated, graph, text)


@dataclass
class CandidateTrace:
    """One candidate's trip through the decomposed ``validate``."""

    match: ColumnMatch
    left_sample: list[str]
    right_sample: list[str]
    score: float | None
    result: ValidationResult | None
    seconds: float = 0.0


@dataclass
class TracedDiscovery:
    discovery: Discovery
    pairs: int
    candidates: list[CandidateTrace]


def _traced_validate(match: ColumnMatch, catalog: Catalog, tracer: Tracer) -> CandidateTrace:
    """``validation.validate`` step by step; must agree with it exactly."""
    with tracer.span("validation.validate") as span:
        with tracer.span("validation.sample"):
            left = sample_distinct(
                catalog.column(match.left).values, CONFIG.sample_cap, f"{CONFIG.seed}:{match.left}"
            )
            right = sample_distinct(
                catalog.column(match.right).values, CONFIG.sample_cap, f"{CONFIG.seed}:{match.right}"
            )
        out = CandidateTrace(match, left, right, None, None)
        if left and right:
            with tracer.span("validation.value_score"):
                out.score = value_score(left, right)
            if out.score >= CONFIG.row_threshold:
                with tracer.span("validation.fuzzy_jaccard"):
                    s = fuzzy_jaccard(left, right, CONFIG.row_threshold)
                out.result = ValidationResult(match, out.score, s, len(left), len(right))
    out.seconds = span.duration
    return out


def traced_discover(manifest: Path, graph_out: Path, tracer: Tracer) -> TracedDiscovery:
    with tracer.span("catalog.load"):
        catalog = load_catalog(manifest)
    with tracer.span("matching.score"):
        pairs = list(candidate_pairs(catalog))
        candidates = filter_candidates([score_pair(l, r, CONFIG) for l, r in pairs], CONFIG)
    ordered = sorted(candidates, key=lambda m: (m.left, m.right))
    traces = [_traced_validate(m, catalog, tracer) for m in ordered]
    validated = [t.result for t in traces if t.result is not None]
    with tracer.span("graph.build"):
        graph = build_graph(catalog, validated, CONFIG)
    with tracer.span("graph.json"):
        text = graph_to_json(graph)
        graph_out.write_text(text, encoding="utf-8")
    return TracedDiscovery(Discovery(catalog, validated, graph, text), len(pairs), traces)


def value_score_cells(trace: CandidateTrace) -> int:
    """Distinct left forms without an exact right partner, times |right|."""
    if trace.score is None:
        return 0
    exact = {sorted_token_form(v) for v in trace.right_sample}
    forms = {sorted_token_form(v) for v in trace.left_sample} - exact
    return len(forms) * len(trace.right_sample)


def fuzzy_jaccard_cells(trace: CandidateTrace) -> int:
    if trace.result is None:
        return 0
    return len(trace.left_sample) * len(trace.right_sample)


def full_data_gap(trace: CandidateTrace, catalog: Catalog) -> float:
    """|sampled s - s on every distinct value| of an accepted pair."""
    assert trace.result is not None
    left = sorted(catalog.column(trace.match.left).distinct_values)
    right = sorted(catalog.column(trace.match.right).distinct_values)
    if len(left) == len(trace.left_sample) and len(right) == len(trace.right_sample):
        return 0.0
    return abs(trace.result.overlap_s - fuzzy_jaccard(left, right, CONFIG.row_threshold))


def check_graph(text: str) -> list[str]:
    if graph_to_json(graph_from_json(text)) != text:
        return ["graph JSON does not round-trip through graph_from_json"]
    return []


def edge_paths(graph: JoinGraph) -> list[JoinPath]:
    """Every edge as its own one-hop path, in both directions."""
    paths = []
    for edge in graph.edges:
        for a, b in ((edge.left, edge.right), (edge.right, edge.left)):
            paths.append(JoinPath((a, b), (edge,), edge.weight, 2.0 ** -edge.weight))
    return paths


def path_key(path: JoinPath) -> str:
    return ">".join(str(t) for t in path.tables)


def hop_span(path: JoinPath) -> str:
    return "executor.fuzzy_hop" if path.edges[0].kind is EdgeKind.FUZZY else "executor.fk_hop"


@dataclass
class Query:
    path: JoinPath
    result: ResultTable
    csv_text: str
    written: int


def execute(
    path: JoinPath,
    catalog: Catalog,
    tracer: Tracer | NullTracer,
    span: str = "executor.execute_path",
) -> Query:
    """``execute_path``, then ``write_csv`` to memory."""
    with tracer.span(span):
        result = execute_path(path, catalog, CONFIG)
    buf = io.StringIO()
    with tracer.span("executor.write_csv"):
        written = write_csv(result, buf)
    return Query(path, result, buf.getvalue(), written)


def join(
    graph: JoinGraph,
    source: TableRef,
    target: TableRef,
    catalog: Catalog,
    tracer: Tracer | NullTracer,
) -> Query:
    """What ``joinscout join`` does once the graph and catalog are loaded."""
    with tracer.span("graph.shortest_path"):
        path = shortest_path(graph, source, target)
    return execute(path, catalog, tracer)


def check_query(query: Query) -> list[str]:
    problems = []
    rows = list(csv.reader(io.StringIO(query.csv_text)))
    if len(rows) - 1 != query.result.row_count or query.written != query.result.row_count:
        problems.append(
            f"{path_key(query.path)}: CSV has {len(rows) - 1} data rows, "
            f"row_count is {query.result.row_count}"
        )
    names = [name for _, name in query.result.columns]
    for score_name in query.result.fuzzy_score_columns:
        i = names.index(score_name)
        low = [row[i] for row in query.result.rows if float(row[i]) < CONFIG.row_threshold]
        if low:
            problems.append(f"{path_key(query.path)}: {score_name} {low[0]} < {CONFIG.row_threshold}")
    return problems


def realised_retention(query: Query, catalog: Catalog) -> float:
    """Share of the first table's distinct rows present in the output."""
    start = catalog.table(query.path.tables[0])
    width = len(start.column_names)
    rows = set(start.rows())
    kept = {row[:width] for row in query.result.rows}
    return len(kept) / len(rows) if rows else 1.0


def fuzzy_cells(path: JoinPath, catalog: Catalog) -> int:
    """|distinct left values| x |distinct right values| of a one-hop fuzzy path."""
    src, dst = path.tables
    ((lcol, rcol),) = path.edges[0].columns_from(src)
    left = catalog.table(src).column(lcol).distinct_values
    right = catalog.table(dst).column(rcol).distinct_values
    return len(left) * len(right)
