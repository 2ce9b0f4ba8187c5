"""Acceptance gate: seven end-to-end checks, one PASS/FAIL line each.

Each test prints ``CRITERION n PASS/FAIL`` through the capture-disabled
channel so the verdicts are visible in a plain ``pytest -v`` run.
"""

from __future__ import annotations

import csv
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from joinscout import similarity
from joinscout.catalog import TableRef, load_catalog
from joinscout.cli import EXIT_OK, main
from joinscout.fuzzgen import evaluate_discovery, generate_catalog, load_ground_truth
from joinscout.graph import (
    EdgeKind,
    JoinEdge,
    JoinGraph,
    build_graph,
    edge_weight,
    graph_from_json,
    shortest_path,
)
from joinscout.matching import MatchConfig, candidate_pairs, filter_candidates, score_pair
from joinscout.similarity import (
    gestalt_ratio,
    indel_ratio,
    semantic_sim,
    token_overlap,
    token_sort_ratio,
)
from joinscout.validation import validate_many, value_score

EPSILON = 1e-6
ROW_THRESHOLD = 0.5


@pytest.fixture
def announce(capsys):
    def _announce(criterion: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            verdict = "PASS" if ok else "FAIL"
            print(f"\nCRITERION {criterion} {verdict}: {detail}")

    return _announce


def _discover(tmp_path: Path, seed: int) -> tuple[Path, Path]:
    data = tmp_path / f"data{seed}"
    graph = tmp_path / f"graph{seed}.json"
    assert main(["generate", "--out", str(data), "--seed", str(seed)]) == EXIT_OK
    assert (
        main(["discover", str(data / "manifest.json"), "--graph-out", str(graph)])
        == EXIT_OK
    )
    return data, graph


def test_criterion_1_scenario_reproduction(tmp_path, announce):
    started = time.perf_counter()
    try:
        data, graph_file = _discover(tmp_path, seed=42)
        graph = graph_from_json(graph_file.read_text(encoding="utf-8"))
        path = shortest_path(
            graph,
            TableRef("hospital_db", "Doctors"),
            TableRef("public_info_db", "Hospital_Survey"),
        )
        assert path is not None
        assert path.tables == (
            TableRef("hospital_db", "Doctors"),
            TableRef("hospital_db", "Clinics"),
            TableRef("public_info_db", "Hospital_Survey"),
        )
        first, second = path.edges
        assert first.kind is EdgeKind.FK
        assert first.columns_from(path.tables[0]) == (("clinic_id", "clinic_id"),)
        assert second.kind is EdgeKind.FUZZY
        assert second.columns_from(path.tables[1]) == (("clinic_name", "hospital_name"),)
        assert main(["path", str(graph_file), "Doctors", "Hospital_Survey"]) == EXIT_OK

        out_csv = tmp_path / "scenario.csv"
        code = main(
            [
                "join", str(graph_file), str(data / "manifest.json"),
                "Doctors", "Hospital_Survey", "--out", str(out_csv),
            ]
        )
        assert code == EXIT_OK
        with out_csv.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        assert len(body) > 0
        name_at = header.index("clinic_name")
        score_at = header.index("_fuzzy_score_2")
        truth = load_ground_truth(data / "ground_truth.json")
        fuzzed_names = {
            e["original"] for e in truth["fuzzified"] if e["table"] == "Hospital_Survey"
        }
        fuzzed_rows = unfuzzed_rows = 0
        for row in body:
            score_text, score = row[score_at], float(row[score_at])
            if row[name_at] in fuzzed_names:
                fuzzed_rows += 1
                assert ROW_THRESHOLD <= score < 1.0, row
            else:
                unfuzzed_rows += 1
                assert score_text == "1.000", row
        assert fuzzed_rows > 0 and unfuzzed_rows > 0
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0
    except BaseException:
        announce(1, False, "scenario path or score bands broke; see traceback")
        raise
    announce(
        1,
        True,
        f"fk+fuzzy 2-hop path; {unfuzzed_rows} exact rows at 1.000, "
        f"{fuzzed_rows} fuzzed rows in [0.5, 1); {elapsed:.2f}s < 30s",
    )


def test_criterion_2_weight_retained_identity(announce):
    started = time.perf_counter()
    try:
        rng = random.Random(777)
        worst = 0.0
        totals = []
        products = []
        for _ in range(1000):
            scores = [
                rng.choice([0.0, 1.0, rng.random(), rng.random()])
                for _ in range(rng.randint(1, 8))
            ]
            total = 0.0
            product = 1.0
            for s in scores:
                total += edge_weight(s, EPSILON)
                product *= min(s + EPSILON, 1.0)
            worst = max(worst, abs(2.0 ** -total - product))
            totals.append(total)
            products.append(product)
        assert worst < 1e-9
        by_weight = sorted(range(1000), key=lambda i: totals[i])
        for a, b in zip(by_weight, by_weight[1:]):
            assert products[a] >= products[b] - 1e-15
        by_retained = sorted(range(1000), key=lambda i: -products[i])
        for a, b in zip(by_retained, by_retained[1:]):
            assert totals[a] <= totals[b] + 1e-12
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0
    except BaseException:
        announce(2, False, "2^-W diverged from the retained product; see traceback")
        raise
    announce(
        2,
        True,
        f"1000 paths, max |2^-W - product| = {worst:.2e} < 1e-9, "
        f"orderings mirror each other; {elapsed:.3f}s < 1s",
    )


def _random_graph(rng: random.Random) -> JoinGraph:
    n = rng.randint(2, 8)
    nodes = tuple(TableRef(f"db{i % 3}", f"T{i}") for i in range(n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                s = rng.choice([0.0, 1.0, rng.random()])
                edges.append(
                    JoinEdge(
                        left=nodes[i], right=nodes[j],
                        kind=rng.choice([EdgeKind.FK, EdgeKind.FUZZY]),
                        join_columns=(("a", "b"),),
                        overlap_s=s, weight=edge_weight(s),
                    )
                )
    return JoinGraph(nodes=nodes, edges=tuple(edges))


def _enumerate_paths(graph: JoinGraph, source, target) -> list[float]:
    weights = []

    def walk(node, seen, weight):
        if node == target:
            weights.append(weight)
            return
        for edge in graph.adjacency[node]:
            nxt = edge.other(node)
            if nxt not in seen:
                walk(nxt, seen | {nxt}, weight + edge.weight)

    walk(source, {source}, 0.0)
    return weights


def test_criterion_3_dijkstra_oracle(announce):
    started = time.perf_counter()
    try:
        rng = random.Random(4242)
        reachable = 0
        for _ in range(200):
            graph = _random_graph(rng)
            source, target = rng.sample(graph.nodes, 2)
            best = shortest_path(graph, source, target)
            all_weights = _enumerate_paths(graph, source, target)
            if not all_weights:
                assert best is None
                continue
            reachable += 1
            assert best is not None
            assert abs(best.total_weight - min(all_weights)) <= 1e-12
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0
    except BaseException:
        announce(3, False, "Dijkstra disagreed with exhaustive enumeration")
        raise
    announce(
        3,
        True,
        f"200 random graphs ({reachable} reachable) match exhaustive minima "
        f"within 1e-12; {elapsed:.2f}s < 10s",
    )


def test_criterion_4_value_score_oracle(announce):
    started = time.perf_counter()
    try:
        rng = random.Random(31337)
        vocab = [
            "amber", "birch", "cedar", "delta", "ember", "frost", "grove",
            "haze", "iris", "jade", "keel", "lumen", "mirth", "north",
        ]

        def column(max_values: int) -> list[str]:
            return [
                " ".join(rng.sample(vocab, rng.randint(1, 3)))
                for _ in range(rng.randint(1, max_values))
            ]

        for _ in range(100):
            left, right = column(50), column(50)
            expected = sum(
                max(token_sort_ratio(l, r) for r in right) for l in left
            ) / len(left)
            assert value_score(left, right) == expected
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0
    except BaseException:
        announce(4, False, "value_score diverged from the full-matrix oracle")
        raise
    announce(
        4,
        True,
        f"100 column pairs equal the brute-force max-then-mean exactly; "
        f"{elapsed:.2f}s < 10s",
    )


def test_criterion_5_fuzzy_edge_recovery(tmp_path, announce):
    started = time.perf_counter()
    try:
        config = MatchConfig()
        assert config.sample_cap == 500
        reports = []
        for seed in range(5):
            out = tmp_path / f"seed{seed}"
            catalog = generate_catalog(out, seed=seed)
            scored = (
                score_pair(l, r, config) for l, r in candidate_pairs(catalog, config)
            )
            validated = validate_many(
                filter_candidates(scored, config), catalog, config
            )
            truth = load_ground_truth(out / "ground_truth.json")
            report = evaluate_discovery(validated, truth)
            assert report.precision >= 0.75, (seed, report)
            assert report.recall == 1.0, (seed, report)
            reports.append(report)
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0
    except BaseException:
        announce(5, False, "discovery missed ground-truth pairs; see traceback")
        raise
    announce(
        5,
        True,
        f"seeds 0-4: precision {min(r.precision for r in reports):.2f}..1.00 "
        f">= 0.75, recall 1.0 on all; {elapsed:.1f}s < 120s",
    )


def _dp_lcs(a: str, b: str) -> int:
    prev = [0] * (len(b) + 1)
    for ch in a:
        cur = [0]
        for j, other in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if ch == other else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def test_criterion_6_similarity_suite(announce):
    try:
        # Exact expectations.
        assert gestalt_ratio("abc", "abc") == 1.0
        assert gestalt_ratio("", "abc") == 0.0
        assert indel_ratio("kitten", "kitten") == 1.0
        assert indel_ratio("ab", "cd") == 0.0
        assert token_sort_ratio("John Smith", "Smith John") == 1.0
        assert token_sort_ratio("a", "a") == 1.0
        assert token_overlap("drug_name", "drug_name") == 1.0
        assert token_overlap("clinic_id", "drug_name") == 0.0

        def embed(text):
            return similarity._embedding(text)[0]

        assert not np.any(embed("x"))
        assert np.array_equal(embed("clinic"), embed("clinic"))
        assert semantic_sim("medication", "medication") == 1.0
        assert semantic_sim("ab", "cd") == 0.0

        # Pre-computed oracles, to 1e-12.
        assert abs(gestalt_ratio("doctor_name", "assigned_doctor_name") - 22 / 31) <= 1e-12
        lcs = _dp_lcs("amoxicillin", "amoksillin")
        assert abs(indel_ratio("Amoxicillin", "Amoksillin") - 2 * lcs / 21) <= 1e-12
        sorted_lcs = _dp_lcs("allen and blair reed", "allen blair reed")
        assert (
            abs(
                token_sort_ratio("Reed, Blair and Allen", "Allen Reed Blair")
                - 2 * sorted_lcs / 36
            )
            <= 1e-12
        )
        assert abs(token_overlap("doctor_name", "assigned_doctor_name") - 1.0) <= 1e-12
        va = embed("drug_name")
        vb = embed("medication_name")
        cosine = float(np.dot(va, vb) / (np.linalg.norm(va) * np.linalg.norm(vb)))
        assert abs(semantic_sim("drug_name", "medication_name") - cosine) <= 1e-12
    except BaseException:
        announce(6, False, "a pinned similarity value drifted; see traceback")
        raise
    announce(6, True, "all pinned similarity examples match their oracles to 1e-12")


def test_criterion_7_pipeline_determinism(tmp_path, announce):
    try:
        artifacts = []
        for run in ("first", "second"):
            root = tmp_path / run
            root.mkdir()
            data, graph_file = _discover(root, seed=99)
            out_csv = root / "join.csv"
            assert main(["path", str(graph_file), "Doctors", "Hospital_Survey"]) == EXIT_OK
            code = main(
                [
                    "join", str(graph_file), str(data / "manifest.json"),
                    "Doctors", "Hospital_Survey", "--out", str(out_csv),
                ]
            )
            assert code == EXIT_OK
            catalog_files = {
                str(p.relative_to(data)): p.read_bytes()
                for p in sorted(data.rglob("*"))
                if p.is_file()
            }
            artifacts.append(
                {
                    "catalog": catalog_files,
                    "graph": graph_file.read_bytes(),
                    "csv": out_csv.read_bytes(),
                }
            )
        first, second = artifacts
        assert first["catalog"].keys() == second["catalog"].keys()
        for name in first["catalog"]:
            assert first["catalog"][name] == second["catalog"][name], name
        assert first["graph"] == second["graph"]
        assert first["csv"] == second["csv"]
    except BaseException:
        announce(7, False, "repeat runs produced different bytes; see traceback")
        raise
    announce(
        7,
        True,
        f"two seeded runs byte-identical across {len(first['catalog'])} catalog "
        "files, graph JSON, and join CSV",
    )
