"""Join-graph construction, weighting, shortest paths, and serialization.

The shortest-path oracle enumerates every simple path by DFS and sums edge
weights in path order — the same association order Dijkstra uses, so the
floats are directly comparable.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from joinscout.catalog import ColumnRef, TableRef
from joinscout.errors import GraphFormatError, UnknownTableError
from joinscout.graph import (
    EdgeKind,
    JoinEdge,
    JoinGraph,
    build_graph,
    edge_weight,
    export_dot,
    graph_from_json,
    graph_to_json,
    shortest_path,
)
from joinscout.matching import ColumnMatch, MatchConfig
from joinscout.validation import ValidationResult

# A well-formed graph file with one fuzzy edge.
_FUZZY_EDGE = """
{"epsilon": 1e-06,
 "nodes": [{"db": "d1", "table": "A"}, {"db": "d2", "table": "B"}],
 "edges": [{"left": {"db": "d1", "table": "A"}, "right": {"db": "d2", "table": "B"},
            "kind": "fuzzy", "columns": [["k", "k"]], "s": 0.5}]}
"""


class TestEdgeWeight:
    def test_perfect_overlap_costs_nothing(self):
        assert edge_weight(1.0) == 0.0

    def test_zero_overlap_costs_log_epsilon(self):
        assert edge_weight(0.0, 1e-6) == pytest.approx(-math.log2(1e-6), abs=1e-12)

    def test_half(self):
        assert edge_weight(0.5, 1e-6) == pytest.approx(-math.log2(0.500001), abs=1e-12)

    def test_epsilon_cannot_push_past_one(self):
        assert edge_weight(0.9999999, 1e-6) == 0.0

    @pytest.mark.parametrize("s", [-0.1, 1.1])
    def test_s_out_of_range(self, s):
        with pytest.raises(ValueError):
            edge_weight(s)

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            edge_weight(0.5, 0.0)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf])
    def test_non_finite_epsilon(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            edge_weight(0.5, epsilon)

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    def test_monotone_nonincreasing(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert edge_weight(hi) <= edge_weight(lo)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_nonnegative(self, s):
        assert edge_weight(s) >= 0.0


def _edge(l, r, kind=EdgeKind.FUZZY, s=0.5, cols=(("a", "b"),)):
    return JoinEdge(
        left=l, right=r, kind=kind, join_columns=tuple(cols),
        overlap_s=s, weight=edge_weight(s),
    )


class TestJoinEdge:
    L = TableRef("d1", "A")
    R = TableRef("d2", "B")

    def test_other(self):
        e = _edge(self.L, self.R)
        assert e.other(self.L) == self.R
        assert e.other(self.R) == self.L
        with pytest.raises(ValueError):
            e.other(TableRef("x", "Y"))

    def test_columns_from_orients(self):
        e = _edge(self.L, self.R, cols=(("a", "b"),))
        assert e.columns_from(self.L) == (("a", "b"),)
        assert e.columns_from(self.R) == (("b", "a"),)


class TestBuildGraph:
    def _validation(self, left, right, s, vs=0.9):
        match = ColumnMatch(
            left=left, right=right, name_sim=0.8, semantic_sim=0.8,
            token_overlap=0.8, total_score=0.8,
        )
        return ValidationResult(
            match=match, value_score=vs, overlap_s=s, sampled_left=3, sampled_right=3
        )

    def test_fk_edge_weight_from_key_overlap(self, memory_catalog):
        graph = build_graph(memory_catalog)
        fk = [e for e in graph.edges if e.kind is EdgeKind.FK]
        assert len(fk) == 1
        edge = fk[0]
        # Orders.user_id {U1,U2,U9} vs Users.user_id {U1,U2,U3}: 2 of 4.
        assert edge.overlap_s == pytest.approx(2 / 4, abs=1e-12)
        assert edge.weight == pytest.approx(-math.log2(0.5 + 1e-6), abs=1e-12)
        assert edge.left == TableRef("alpha", "Orders")
        assert edge.right == TableRef("alpha", "Users")
        assert edge.join_columns == (("user_id", "user_id"),)

    def test_nodes_sorted(self, memory_catalog):
        graph = build_graph(memory_catalog)
        assert list(graph.nodes) == sorted(graph.nodes)
        assert len(graph.nodes) == 3

    def test_fuzzy_edge_canonical_orientation(self, memory_catalog):
        v = self._validation(
            ColumnRef("beta", "People", "full_name"),
            ColumnRef("alpha", "Users", "user_name"),
            s=0.5,
        )
        graph = build_graph(memory_catalog, [v])
        fuzzy = [e for e in graph.edges if e.kind is EdgeKind.FUZZY]
        assert len(fuzzy) == 1
        edge = fuzzy[0]
        assert edge.left == TableRef("alpha", "Users")
        assert edge.right == TableRef("beta", "People")
        assert edge.join_columns == (("user_name", "full_name"),)
        assert edge.value_score == 0.9

    @pytest.mark.parametrize(
        "weak_s, winner",
        [
            pytest.param(0.2, ("user_name", "full_name"), id="stronger-s"),
            # Equal s: the smaller column pair wins.
            pytest.param(0.7, ("user_id", "person_id"), id="tie-smaller-columns"),
        ],
    )
    def test_strongest_pair_wins(self, memory_catalog, weak_s, winner):
        weak = self._validation(
            ColumnRef("alpha", "Users", "user_id"),
            ColumnRef("beta", "People", "person_id"),
            s=weak_s,
        )
        strong = self._validation(
            ColumnRef("alpha", "Users", "user_name"),
            ColumnRef("beta", "People", "full_name"),
            s=0.7,
        )
        # On a tie the winner comes second, so input order cannot pick it.
        graph = build_graph(memory_catalog, [strong, weak])
        fuzzy = [e for e in graph.edges if e.kind is EdgeKind.FUZZY]
        assert len(fuzzy) == 1
        assert fuzzy[0].join_columns == (winner,)
        assert fuzzy[0].overlap_s == 0.7
        # No foreign key uses person_id, so only a kept runner-up could name it.
        assert ("person_id" in graph_to_json(graph)) == (winner[1] == "person_id")

    def test_fk_and_fuzzy_can_coexist(self, memory_catalog):
        v = self._validation(
            ColumnRef("alpha", "Orders", "user_id"),
            ColumnRef("beta", "People", "person_id"),
            s=0.1,
        )
        graph = build_graph(memory_catalog, [v])
        kinds = {(e.left, e.right, e.kind) for e in graph.edges}
        assert len(kinds) == len(graph.edges) == 2


def _simple_graph():
    a, b, c, d = (TableRef("db", t) for t in "ABCD")
    edges = (
        _edge(a, b, s=0.5),          # weight ~1
        _edge(b, c, s=0.5),          # A-B-C total ~2
        _edge(a, c, s=0.125),        # direct, weight ~3
        _edge(c, d, s=1.0),
    )
    return JoinGraph(nodes=(a, b, c, d), edges=edges), (a, b, c, d)


class TestShortestPath:
    def test_multi_hop_beats_weak_direct(self):
        graph, (a, b, c, d) = _simple_graph()
        path = shortest_path(graph, a, c)
        assert path is not None
        assert path.tables == (a, b, c)
        assert path.total_weight == pytest.approx(
            edge_weight(0.5) * 2, abs=1e-12
        )

    def test_source_equals_target(self):
        graph, (a, *_ ) = _simple_graph()
        path = shortest_path(graph, a, a)
        assert path.tables == (a,)
        assert path.edges == ()
        assert path.total_weight == 0.0
        assert path.retained_percentage == 1.0

    def test_unreachable_returns_none(self):
        a, b, z = TableRef("d", "A"), TableRef("d", "B"), TableRef("d", "Z")
        graph = JoinGraph(nodes=(a, b, z), edges=(_edge(a, b),))
        assert shortest_path(graph, a, z) is None

    def test_unknown_table_raises(self):
        graph, (a, *_ ) = _simple_graph()
        with pytest.raises(UnknownTableError):
            shortest_path(graph, a, TableRef("nope", "X"))
        with pytest.raises(UnknownTableError):
            shortest_path(graph, TableRef("nope", "X"), a)

    def test_tie_prefers_fewer_hops(self):
        a, b, c = (TableRef("d", t) for t in "ABC")
        direct = _edge(a, c, s=0.25)                 # weight 2w'
        graph = JoinGraph(
            nodes=(a, b, c),
            edges=(_edge(a, b, s=0.5), _edge(b, c, s=0.5), direct),
        )
        # 2 * w(0.5) vs w(0.25): not exactly equal because of epsilon, so
        # force an exact tie with hand-made weights.
        e1 = JoinEdge(a, b, EdgeKind.FUZZY, (("x", "x"),), 0.5, 1.0)
        e2 = JoinEdge(b, c, EdgeKind.FUZZY, (("x", "x"),), 0.5, 1.0)
        e3 = JoinEdge(a, c, EdgeKind.FUZZY, (("x", "x"),), 0.25, 2.0)
        graph = JoinGraph(nodes=(a, b, c), edges=(e1, e2, e3))
        path = shortest_path(graph, a, c)
        assert path.tables == (a, c)
        assert path.hops == 1

    def test_tie_prefers_lexicographic_tables(self):
        a = TableRef("d", "A")
        m1, m2, z = TableRef("d", "M1"), TableRef("d", "M2"), TableRef("d", "Z")
        edges = (
            JoinEdge(a, m2, EdgeKind.FUZZY, (("x", "x"),), 0.5, 1.0),
            JoinEdge(m2, z, EdgeKind.FUZZY, (("x", "x"),), 0.5, 1.0),
            JoinEdge(a, m1, EdgeKind.FUZZY, (("x", "x"),), 0.5, 1.0),
            JoinEdge(m1, z, EdgeKind.FUZZY, (("x", "x"),), 0.5, 1.0),
        )
        graph = JoinGraph(nodes=(a, m1, m2, z), edges=edges)
        path = shortest_path(graph, a, z)
        assert path.tables == (a, m1, z)

    def test_retained_matches_weight(self):
        graph, (a, b, c, d) = _simple_graph()
        path = shortest_path(graph, a, d)
        assert path.retained_percentage == 2.0 ** -path.total_weight


def brute_force_paths(graph: JoinGraph, source, target):
    """Every simple path with weight accumulated in traversal order."""
    adjacency = graph.adjacency
    out = []

    def walk(node, seen, tables, edges, weight):
        if node == target:
            out.append((weight, len(edges), tables, edges))
            return
        for edge in adjacency[node]:
            nxt = edge.other(node)
            if nxt in seen or nxt == node:
                continue
            walk(nxt, seen | {nxt}, tables + (nxt,), edges + (edge,), weight + edge.weight)

    walk(source, {source}, (source,), (), 0.0)
    return out


def random_graph(rng: random.Random) -> JoinGraph:
    n = rng.randint(2, 7)
    nodes = tuple(TableRef(f"db{i % 3}", f"T{i}") for i in range(n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.45:
                s = rng.choice([0.0, rng.random(), 1.0])
                kind = rng.choice([EdgeKind.FK, EdgeKind.FUZZY])
                edges.append(_edge(nodes[i], nodes[j], kind=kind, s=s))
    return JoinGraph(nodes=nodes, edges=tuple(edges))


def test_dijkstra_matches_exhaustive_enumeration():
    rng = random.Random(20240817)
    for trial in range(60):
        graph = random_graph(rng)
        source, target = rng.sample(graph.nodes, 2)
        best = shortest_path(graph, source, target)
        all_paths = brute_force_paths(graph, source, target)
        if not all_paths:
            assert best is None
            continue
        min_weight = min(w for w, *_ in all_paths)
        assert best is not None
        assert best.total_weight == pytest.approx(min_weight, abs=1e-12)
        # Among exact-weight ties the path must be the deterministic winner.
        ties = [
            (hops, tables) for w, hops, tables, _ in all_paths if w == best.total_weight
        ]
        assert (best.hops, best.tables) == min(ties)


class TestSerialization:
    def _graph(self, memory_catalog, config=None):
        v = ValidationResult(
            match=ColumnMatch(
                left=ColumnRef("alpha", "Users", "user_name"),
                right=ColumnRef("beta", "People", "full_name"),
                name_sim=0.7, semantic_sim=0.6, token_overlap=0.5, total_score=0.62,
            ),
            value_score=0.88, overlap_s=0.5, sampled_left=3, sampled_right=3,
        )
        return build_graph(memory_catalog, [v], config)

    def test_json_round_trip(self, memory_catalog):
        graph = self._graph(memory_catalog)
        assert graph_from_json(graph_to_json(graph)) == graph

    def test_file_stores_epsilon_not_weights(self, memory_catalog):
        doc = json.loads(graph_to_json(self._graph(memory_catalog)))
        assert doc["epsilon"] == 1e-6
        assert all("weight" not in edge for edge in doc["edges"])

    def test_build_graph_epsilon_round_trips(self, memory_catalog):
        graph = self._graph(memory_catalog, MatchConfig(epsilon=1e-3))
        assert graph.epsilon == 1e-3
        assert all(e.weight == edge_weight(e.overlap_s, 1e-3) for e in graph.edges)
        assert graph_from_json(graph_to_json(graph)) == graph

    def test_json_stable_bytes(self, memory_catalog):
        graph = self._graph(memory_catalog)
        assert graph_to_json(graph) == graph_to_json(self._graph(memory_catalog))

    # Ids leave out the "epsilon" that each document past the list checks needs.
    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param("{not json", "not valid JSON", id="{not json"),
            pytest.param("[]", "root must be an object", id="[]"),
            pytest.param(
                '{"epsilon": 1e-06, "nodes": {}, "edges": []}',
                "needs 'nodes' and 'edges' lists",
                id='{"nodes": {}, "edges": []}',
            ),
            pytest.param(
                '{"epsilon": 1e-06, "nodes": [], "edges": [{"left": {"db": "a", "table": "T"}}]}',
                r"edges\[0\]: expected \{'db'",
                id='{"nodes": [], "edges": [{"left": {"db": "a", "table": "T"}}]}',
            ),
            pytest.param(
                '{"epsilon": 1e-06, "nodes": [{"db": "a"}], "edges": []}',
                r"nodes\[0\]: expected \{'db'",
                id='{"nodes": [{"db": "a"}], "edges": []}',
            ),
            pytest.param(
                '{"epsilon": 1e-06, "nodes": [{"db": "a", "table": "T"}, {"db": "a", "table": "T"}],'
                ' "edges": []}',
                "node a.T is listed more than once",
                id="node-listed-twice",
            ),
            # A fuzzy edge joins on one column pair.
            pytest.param(
                _FUZZY_EDGE.replace('[["k", "k"]]', '[["k", "k"], ["m", "m"]]', 1),
                r"edges\[0\]: a fuzzy join needs exactly one column pair",
                id="fuzzy-edge-with-two-pairs",
            ),
        ],
    )
    def test_malformed_rejected(self, text, message):
        with pytest.raises(GraphFormatError, match=message):
            graph_from_json(text)

    def test_missing_epsilon_asks_for_a_new_graph(self):
        text = _FUZZY_EDGE.replace('"epsilon": 1e-06,', "", 1)
        with pytest.raises(GraphFormatError, match=r"no 'epsilon'.*joinscout discover"):
            graph_from_json(text)

    @pytest.mark.parametrize(
        "raw",
        [
            "null", '"1e-06"', "true", "0", "0.0", "-1e-06", "NaN", "Infinity",
            pytest.param("1" + "0" * 400, id="400-digit-integer"),
        ],
    )
    def test_epsilon_must_be_a_positive_finite_number(self, raw):
        text = _FUZZY_EDGE.replace('"epsilon": 1e-06', f'"epsilon": {raw}', 1)
        with pytest.raises(GraphFormatError, match="'epsilon' must be"):
            graph_from_json(text)

    @pytest.mark.parametrize("s", [0.0, 0.5, 0.99, 1.0])
    def test_weight_is_derived_from_s_and_epsilon(self, s):
        text = _FUZZY_EDGE.replace('"epsilon": 1e-06', '"epsilon": 0.25', 1)
        text = text.replace('"s": 0.5', f'"s": {s}', 1)
        graph = graph_from_json(text)
        assert graph.epsilon == 0.25
        assert graph.edges[0].weight == edge_weight(s, 0.25)

    @pytest.mark.parametrize(
        "stray",
        [
            pytest.param('"weight": -5.0', id="weight"),
            # Graph files once stored runner-up column pairs here.
            pytest.param('"alternates": [{"columns": [["j", "j"]], "s": 0.4}]', id="alternates"),
        ],
    )
    def test_stored_weight_is_ignored(self, stray):
        # Only s and epsilon decide a weight; a stray key cannot override them.
        text = _FUZZY_EDGE.replace('"s": 0.5', f'"s": 0.5, {stray}', 1)
        assert graph_from_json(text) == graph_from_json(_FUZZY_EDGE)
        assert graph_from_json(text).edges[0].weight == edge_weight(0.5)

    def test_unknown_kind_rejected(self, memory_catalog):
        doc = graph_to_json(self._graph(memory_catalog)).replace('"fk"', '"magic"')
        with pytest.raises(GraphFormatError, match="kind"):
            graph_from_json(doc)

    def test_endpoint_must_be_listed(self):
        text = """
        {"epsilon": 1e-06, "nodes": [{"db": "a", "table": "T"}],
         "edges": [{"left": {"db": "a", "table": "T"},
                    "right": {"db": "zz", "table": "Q"},
                    "kind": "fk", "columns": [["x", "y"]], "s": 0.5}]}
        """
        with pytest.raises(GraphFormatError, match="endpoint"):
            graph_from_json(text)

    def test_integer_past_float_range_is_a_format_error(self):
        text = _FUZZY_EDGE.replace('"s": 0.5', '"s": 1' + "0" * 400, 1)
        with pytest.raises(GraphFormatError, match="'s' must be in"):
            graph_from_json(text)

    @pytest.mark.parametrize("s", [1.5, -0.1, math.nan])
    def test_edge_s_must_be_in_unit_interval(self, memory_catalog, s):
        graph = self._graph(memory_catalog)
        edges = tuple(replace(e, overlap_s=s) for e in graph.edges)
        with pytest.raises(GraphFormatError, match="'s' must be in"):
            graph_from_json(graph_to_json(replace(graph, edges=edges)))

    @pytest.mark.parametrize("value_score", [math.nan, math.inf, -math.inf, -0.1, 1.5])
    def test_edge_value_score_must_be_in_unit_interval(self, memory_catalog, value_score):
        graph = self._graph(memory_catalog)
        edges = tuple(
            replace(e, value_score=value_score) if e.kind is EdgeKind.FUZZY else e
            for e in graph.edges
        )
        with pytest.raises(GraphFormatError, match=r"edges\[\d+\]: 'value_score' must be in"):
            graph_from_json(graph_to_json(replace(graph, edges=edges)))

    @pytest.mark.parametrize("value_score", [0.0, 1.0, None])
    def test_value_score_bounds_and_absence_load(self, value_score):
        a, b = TableRef("d1", "A"), TableRef("d2", "B")
        edge = JoinEdge(
            left=a, right=b, kind=EdgeKind.FUZZY, join_columns=(("k", "k"),),
            overlap_s=0.5, weight=edge_weight(0.5), value_score=value_score,
        )
        graph = JoinGraph(nodes=(a, b), edges=(edge,))
        assert graph_from_json(graph_to_json(graph)) == graph


class TestExportDot:
    def test_structure(self, memory_catalog):
        v = ValidationResult(
            match=ColumnMatch(
                left=ColumnRef("alpha", "Users", "user_name"),
                right=ColumnRef("beta", "People", "full_name"),
                name_sim=0.7, semantic_sim=0.6, token_overlap=0.5, total_score=0.62,
            ),
            value_score=0.88, overlap_s=0.5, sampled_left=3, sampled_right=3,
        )
        graph = build_graph(memory_catalog, [v])
        dot = export_dot(graph)
        assert dot.startswith("graph join_graph {")
        assert dot.count("{") == dot.count("}")
        assert dot.count("subgraph cluster_") == 2           # one per database
        assert dot.count(" -- ") == len(graph.edges)
        assert dot.count("style=solid") == 1                 # the fk edge
        assert dot.count("style=dashed") == 1                # the fuzzy edge
        assert '"alpha.Users"' in dot
        assert "s=0.50" in dot
        assert "user_name ~ full_name" in dot
        assert "user_id = user_id" in dot

    def test_deterministic(self, memory_catalog):
        assert export_dot(build_graph(memory_catalog)) == export_dot(
            build_graph(memory_catalog)
        )

    def test_quoting(self):
        weird = TableRef('d"b', 'Ta"ble')
        other = TableRef("x", "Y")
        graph = JoinGraph(nodes=(weird, other), edges=(_edge(weird, other),))
        dot = export_dot(graph)
        assert '\\"' in dot
        assert dot.count("{") == dot.count("}")
