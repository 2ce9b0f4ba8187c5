"""joinscout benchmark: discovery and joins on generated catalogs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree that holds ``src/joinscout``.  The
seed makes the inputs: ``fuzzgen`` catalogs that the program sees only as
files.  Set-up (generating them, and for ``join-all-pairs`` discovering
its graph) runs here several times, half before the timed work and half
after it.  The timed work runs for
``--seconds`` in a fresh worker process, which also gives the peak RSS.
With ``--trace 0`` the last line of output holds the end-to-end metrics,
with ``--trace 1`` the per-layer ones from spans around every call.
Every operation's output is checked; outputs and work counters must also
repeat exactly across runs of the same code and seed, which is checked
against a ledger under ``.perfbench/``.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"
sys.path.insert(0, str(ROOT / "src"))

try:
    import numpy
    from joinscout.catalog import load_catalog
    from joinscout.fuzzgen import generate_catalog, load_ground_truth
    from joinscout.graph import EdgeKind, graph_from_json, shortest_path

    import ops
    import truth
    from tracing import Tracer, clock
except ImportError as exc:
    sys.exit(f"error: cannot import joinscout from {ROOT / 'src'}: {exc}")

# Why each workload exists is in NOTES.md.  Set-up runs ``setups`` times
# and ``setup_s`` is the median: many times where one set-up is a fraction
# of a second, 3 times where it includes a 2 s discovery.
WORKLOADS = {
    "discover-small": {"scale": 1, "catalogs": 12, "setups": 20},
    "discover-large": {"scale": 13, "catalogs": 1, "setups": 20},
    "join-all-pairs": {"scale": 4, "catalogs": 1, "setups": 3},
}
# Set-up and worker together stay within the 180 s a run may take.
WORKER_TIMEOUT_S = 175
NULL = ops.NullTracer()


def tail(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it."""
    pct = int(100 * (1 - 10 / len(values)))
    if pct < 50:
        return None
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Checks:
    """Counts operations and failed checks, and remembers outputs that
    must come out the same each time they are made."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.ledger: dict[str, object] = {}

    def record(self, key: str, value: object, problems: list[str]) -> None:
        self.attempted += 1
        if self.ledger.setdefault(key, value) != value:
            problems = problems + [f"{key}: differs from the first time it was made"]
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def merge(self, other: dict) -> None:
        """Take in another process's counts and outputs."""
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.problems.extend(other["problems"])
        for key, value in other["ledger"].items():
            if self.ledger.setdefault(key, value) != value:
                self.failed += 1
                self.problems.append(f"{key}: differs between set-up and worker")


# ---------------------------------------------------------------------------
# untraced worker: the end-to-end samples

def _hop_pass(index: int, catalog, graph, truth_doc: dict, run: Checks, tracer=NULL):
    """Every edge of ``graph`` as a one-hop join, both ways."""
    queries, seconds, match = [], [], truth.Tally()
    for path in ops.edge_paths(graph):
        t0 = clock()
        query = ops.execute(path, catalog, tracer, span=ops.hop_span(path))
        seconds.append(clock() - t0)
        run.record(f"hop:{index}:{ops.path_key(path)}", ops.digest(query.csv_text), ops.check_query(query))
        if path.edges[0].kind is EdgeKind.FUZZY:
            match.add(truth.match_tally(path, query.result, catalog, truth_doc))
        queries.append(query)
    return queries, seconds, match


def untraced_discover(spec: dict, run: Checks) -> dict:
    manifests = [Path(m) for m in spec["manifests"]]
    graph_out = Path(spec["work"]) / "graph.json"
    discover_s: list[float] = []
    join_s: list[float] = []
    query_s: list[float] = []
    discovery, match = truth.Tally(), truth.Tally()
    deadline = time.perf_counter() + spec["seconds"]
    # Whole cycles over the catalogs, so each weighs the same in the
    # medians; each catalog's joins follow its discover, so both sets of
    # samples spread over the whole run.
    cycle = 0
    while not cycle or time.perf_counter() < deadline:
        for i, manifest in enumerate(manifests):
            t0 = clock()
            disc = ops.discover(manifest, graph_out)
            discover_s.append(clock() - t0)
            run.record(f"graph:{i}", ops.digest(disc.graph_json), ops.check_graph(disc.graph_json))
            truth_doc = load_ground_truth(spec["truths"][i])
            _, seconds, tally = _hop_pass(i, disc.catalog, disc.graph, truth_doc, run)
            join_s.append(statistics.fmean(seconds))
            query_s.extend(seconds)
            if not cycle:
                discovery.add(truth.discovery_tally(disc.validated, truth_doc))
                match.add(tally)
        cycle += 1
    return {
        "samples": {"discover_s": discover_s, "join_s": join_s, "query_s": query_s},
        "discovery": discovery,
        "match": match,
    }


def reachable_pairs(graph) -> list[tuple]:
    return [
        (s, t)
        for s, t in itertools.permutations(graph.nodes, 2)
        if shortest_path(graph, s, t) is not None
    ]


def untraced_join(spec: dict, run: Checks) -> dict:
    manifest = Path(spec["manifests"][0])
    catalog = load_catalog(manifest)
    graph = graph_from_json(Path(spec["graph"]).read_text(encoding="utf-8"))
    ends = reachable_pairs(graph)
    join_s: list[float] = []
    query_s: list[float] = []
    deadline = time.perf_counter() + spec["seconds"]
    while not join_s or time.perf_counter() < deadline:
        seconds = []
        for source, target in ends:
            t0 = clock()
            query = ops.join(graph, source, target, catalog, NULL)
            seconds.append(clock() - t0)
            run.record(f"join:{ops.path_key(query.path)}", ops.digest(query.csv_text), ops.check_query(query))
        join_s.append(statistics.fmean(seconds))
        query_s.extend(seconds)
    _, _, match = _hop_pass(0, catalog, graph, load_ground_truth(spec["truths"][0]), run)
    return {"samples": {"join_s": join_s, "query_s": query_s}, "match": match}


# ---------------------------------------------------------------------------
# traced worker: the per-layer metrics

class Layers:
    """Per-operation values whose median is reported, ratios summed over
    every operation, and work counters summed over distinct inputs."""

    def __init__(self) -> None:
        self.per_op: dict[str, list[float]] = {}
        self.ratio: dict[str, list[float]] = {}
        self.counters: dict[str, float] = {}
        self.gaps: list[float] = []
        self.margins: list[float] = []
        self.s_gaps: list[float] = []
        self.overhead = [0.0, 0.0]

    def op(self, name: str, value: float) -> None:
        self.per_op.setdefault(name, []).append(value)

    def add_ratio(self, name: str, num: float, den: float) -> None:
        acc = self.ratio.setdefault(name, [0.0, 0.0])
        acc[0] += num
        acc[1] += den

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def exact(self) -> dict[str, float]:
        """The values that depend only on the inputs, never on timing."""
        return {
            **self.counters,
            "validation.min_margin": min(self.margins),
            "validation.s_gap": max(self.s_gaps),
            "graph.retention_gap_max": max(self.gaps),
            "graph.retention_gap_median": statistics.median(self.gaps),
        }

    def metrics(self, run: Checks) -> dict[str, float]:
        """Every per-layer metric; the exact ones also go to the ledger."""
        exact = self.exact()
        run.ledger.update({f"layer:{name}": value for name, value in exact.items()})
        out = {name: statistics.median(values) for name, values in self.per_op.items()}
        out.update({name: num / den for name, (num, den) in self.ratio.items()})
        out.update(exact)
        out["trace.overhead_share"] = self.overhead[1] / self.overhead[0] - 1.0
        return out


DISCOVERY_SPANS = (
    "catalog.load",
    "matching.score",
    "validation.sample",
    "validation.value_score",
    "validation.fuzzy_jaccard",
    "graph.build",
    "graph.json",
)


def _traced_discovery(index: int, manifest: Path, graph_out: Path, tracer: Tracer,
                      layers: Layers, run: Checks, first_visit: bool) -> ops.Discovery:
    """Discover untraced, then traced; check the two agree; record layers."""
    t0 = clock()
    ref = ops.discover(manifest, graph_out)
    untraced = clock() - t0
    with tracer.operation("discover") as root:
        traced = ops.traced_discover(manifest, graph_out, tracer)
    layers.overhead[0] += untraced
    layers.overhead[1] += root.duration
    disc = traced.discovery
    problems = ops.check_graph(disc.graph_json)
    if disc.validated != ref.validated or disc.graph_json != ref.graph_json:
        problems.append(f"catalog {index}: traced validation differs from validate_many")

    self_times = tracer.self_times(root.trace_id)
    for name in DISCOVERY_SPANS:
        layers.op(f"{name}_s", self_times.get(name, 0.0))
    per_candidate = [c.seconds for c in traced.candidates]
    if per_candidate:
        layers.op("validation.validate_max_share", max(per_candidate) / sum(per_candidate))
    vs_cells = sum(ops.value_score_cells(c) for c in traced.candidates)
    fj_cells = sum(ops.fuzzy_jaccard_cells(c) for c in traced.candidates)
    kernel_s = self_times.get("validation.value_score", 0.0) + self_times.get("validation.fuzzy_jaccard", 0.0)
    layers.add_ratio("validation.cells_per_s", vs_cells + fj_cells, kernel_s)

    accepted = sum(c.result is not None for c in traced.candidates)
    fuzzy_edges = sum(e.kind is EdgeKind.FUZZY for e in disc.graph.edges)
    counters = {
        "matching.pairs": traced.pairs,
        "matching.candidates": len(traced.candidates),
        "validation.value_score_cells": vs_cells,
        "validation.fuzzy_jaccard_cells": fj_cells,
        "validation.accepted": accepted,
        "validation.rejected": len(traced.candidates) - accepted,
        "graph.fk_edges": len(disc.graph.edges) - fuzzy_edges,
        "graph.fuzzy_edges": fuzzy_edges,
    }
    run.record(f"graph:{index}", ops.digest(disc.graph_json), problems)
    run.record(f"counters:{index}", counters, [])
    if first_visit:
        for name, value in counters.items():
            layers.count(name, value)
        layers.margins.extend(
            abs(c.score - ops.CONFIG.row_threshold) for c in traced.candidates if c.score is not None
        )
        layers.s_gaps.extend(
            ops.full_data_gap(c, disc.catalog) for c in traced.candidates if c.result is not None
        )
    return disc


def _traced_hops(index: int, disc: ops.Discovery, truth_doc: dict, tracer: Tracer,
                 layers: Layers, run: Checks) -> float:
    """Per-edge hops, traced; returns the pass's write_csv time."""
    with tracer.operation("hop_pass") as root:
        queries, _, _ = _hop_pass(index, disc.catalog, disc.graph, truth_doc, run, tracer)
    self_times = tracer.self_times(root.trace_id)
    layers.op("executor.fuzzy_hop_s", self_times.get("executor.fuzzy_hop", 0.0))
    layers.op("executor.fk_hop_s", self_times.get("executor.fk_hop", 0.0))
    cells = sum(ops.fuzzy_cells(q.path, disc.catalog) for q in queries if q.path.edges[0].kind is EdgeKind.FUZZY)
    layers.count("executor.fuzzy_cells", cells)
    layers.add_ratio("executor.fuzzy_cells_per_s", cells, self_times.get("executor.fuzzy_hop", 0.0))
    layers.count("executor.rows_out", sum(q.result.row_count for q in queries))
    layers.gaps.extend(
        abs(q.path.retained_percentage - ops.realised_retention(q, disc.catalog)) for q in queries
    )
    return self_times.get("executor.write_csv", 0.0)


def traced_discover(spec: dict, run: Checks, tracer: Tracer) -> dict:
    manifests = [Path(m) for m in spec["manifests"]]
    graph_out = Path(spec["work"]) / "graph.json"
    layers = Layers()
    visited: set[int] = set()
    shortest: list[float] = []
    deadline = time.perf_counter() + spec["seconds"]
    while not visited or time.perf_counter() < deadline:
        for i, manifest in enumerate(manifests):
            disc = _traced_discovery(i, manifest, graph_out, tracer, layers, run, i not in visited)
            if i in visited:
                continue
            visited.add(i)
            truth_doc = load_ground_truth(spec["truths"][i])
            layers.op("executor.write_csv_s", _traced_hops(i, disc, truth_doc, tracer, layers, run))
            with tracer.operation("path_pass") as root:
                for source, target in itertools.permutations(disc.graph.nodes, 2):
                    with tracer.span("graph.shortest_path"):
                        shortest_path(disc.graph, source, target)
            shortest.extend(tracer.durations(root.trace_id, "graph.shortest_path"))
    layers.per_op["graph.shortest_path_s"] = shortest
    return {"layers": layers.metrics(run)}


def traced_join(spec: dict, run: Checks, tracer: Tracer) -> dict:
    deadline = time.perf_counter() + spec["seconds"]
    manifest = Path(spec["manifests"][0])
    layers = Layers()
    disc = _traced_discovery(0, manifest, Path(spec["work"]) / "graph.json", tracer, layers, run, True)
    graph = graph_from_json(Path(spec["graph"]).read_text(encoding="utf-8"))
    _traced_hops(0, disc, load_ground_truth(spec["truths"][0]), tracer, layers, run)
    catalog = disc.catalog
    ends = reachable_pairs(graph)
    shortest: list[float] = []
    passes = 0
    while not passes or time.perf_counter() < deadline:
        write_csv_s = 0.0
        for source, target in ends:
            t0 = clock()
            ops.join(graph, source, target, catalog, NULL)
            layers.overhead[0] += clock() - t0
            with tracer.operation("join") as root:
                query = ops.join(graph, source, target, catalog, tracer)
            layers.overhead[1] += root.duration
            self_times = tracer.self_times(root.trace_id)
            write_csv_s += self_times["executor.write_csv"]
            shortest.append(self_times["graph.shortest_path"])
            key = f"join:{ops.path_key(query.path)}"
            run.record(key, ops.digest(query.csv_text), ops.check_query(query))
            if not passes:
                layers.count("executor.rows_out", query.result.row_count)
        layers.op("executor.write_csv_s", write_csv_s)
        passes += 1
    layers.per_op["graph.shortest_path_s"] = shortest
    return {"layers": layers.metrics(run)}


def worker_main(spec_path: Path) -> int:
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    run = Checks()
    joins = spec["workload"] == "join-all-pairs"
    if spec["trace"]:
        tracer = Tracer()
        out = (traced_join if joins else traced_discover)(spec, run, tracer)
        Path(spec["trace_out"]).write_text(json.dumps(tracer.to_json()), encoding="utf-8")
    else:
        out = (untraced_join if joins else untraced_discover)(spec, run)
        for key in ("discovery", "match"):
            if key in out:
                tally = out[key]
                out[key] = [tally.hits, tally.emitted, tally.expected]
    out.update(
        attempted=run.attempted,
        failed=run.failed,
        problems=run.problems[:20],
        ledger=run.ledger,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    Path(spec["result"]).write_text(json.dumps(out), encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# the entry process: set-up, one worker, ledger, report

def set_up(name: str, seed: int, base: Path, run: Checks, times: dict[str, list[float]]) -> dict:
    """Make the workload's inputs under ``base``, timing it into ``times``."""
    shape = WORKLOADS[name]
    t0 = clock()
    manifests = []
    for j in range(shape["catalogs"]):
        generate_catalog(base / f"catalog{j}", seed=seed * 1000 + j, scale=shape["scale"])
        manifests.append(base / f"catalog{j}" / "manifest.json")
    made = {
        "manifests": [str(m) for m in manifests],
        "truths": [str(m.parent / "ground_truth.json") for m in manifests],
        "graph": None,
    }
    if name == "join-all-pairs":
        t1 = clock()
        disc = ops.discover(manifests[0], base / "graph.json")
        times["discover_s"].append(clock() - t1)
        made["graph"] = str(base / "graph.json")
    times["setup_s"].append(clock() - t0)
    if name == "join-all-pairs":
        run.record("graph:0", ops.digest(disc.graph_json), ops.check_graph(disc.graph_json))
        made["discovery"] = truth.discovery_tally(disc.validated, load_ground_truth(made["truths"][0]))
    return made


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "joinscout").glob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    commit = None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        out = []
    if len(out) == 2 and Path(out[0]).resolve() == ROOT:
        commit = out[1]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_digest": source_digest(),
    }


def check_ledger(key: str, entries: dict, run: Checks) -> None:
    """Outputs and counters must match earlier runs of the same code and seed."""
    path = STATE / "ledger" / source_digest() / f"{key}.json"
    old = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for name, value in entries.items():
        if name in old and old[name] != value:
            run.failed += 1
            run.problems.append(f"{name}: differs from an earlier run of this code and seed")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps({**old, **entries}, sort_keys=True), encoding="utf-8")
    tmp.replace(path)


def end_to_end(made: dict, times: dict, result: dict) -> tuple[dict, list[str]]:
    """Metric name -> (value, sample count); and the printed tails.

    A tail is printed where the sample count supports one, and kept out
    of the result line: on the workloads with few, slow operations it
    rests on too few samples to be bounded.
    """
    samples = {**times, **result["samples"]}
    values = {"setup_s": (statistics.median(times["setup_s"]), len(times["setup_s"]))}
    tails = []
    for name, per in (("discover_s", "discover_s"), ("join_s", "query_s")):
        values[name] = (statistics.median(samples[name]), len(samples[name]))
        found = tail(samples[per])
        tails.append(
            f"{name}.p{found[0]} {found[1]:.6g} s (n={len(samples[per])})" if found
            else f"{name}: {len(samples[per])} samples support no tail percentile"
        )
    values["peak_rss_mb"] = (result["peak_rss_mb"], 1)
    discovery = truth.Tally(*result["discovery"]) if "discovery" in result else made["discovery"]
    match = truth.Tally(*result["match"])
    values["discovery_precision"] = (discovery.precision, discovery.emitted)
    values["discovery_recall"] = (discovery.recall, discovery.expected)
    values["match_precision"] = (match.precision, match.emitted)
    values["match_recall"] = (match.recall, match.expected)
    return values, tails


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is None and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.worker:
        return worker_main(Path(args.worker))
    env = environment()
    print("environment:", json.dumps(env, sort_keys=True), flush=True)
    run = Checks()
    work = STATE / "work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    times: dict[str, list[float]] = {"setup_s": [], "discover_s": []}
    reps = WORKLOADS[args.workload]["setups"]
    try:
        for rep in range(reps - reps // 2):
            made = set_up(args.workload, args.seed, work / f"setup{rep}", run, times)
        spec = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "work": str(work),
            "result": str(work / "result.json"),
            "trace_out": str(STATE / "traces" / f"{args.workload}-s{args.seed}.json"),
            **{k: made[k] for k in ("manifests", "truths", "graph")},
        }
        (STATE / "traces").mkdir(exist_ok=True)
        (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        # One thread, and the same string hashing in every run.
        child_env = {
            **os.environ,
            "PYTHONHASHSEED": "0",
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        }
        proc = subprocess.run(
            [sys.executable, __file__, "--worker", str(work / "spec.json")],
            env=child_env, timeout=deadline - time.monotonic(),
        )
        if proc.returncode != 0:
            print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
        # The other set-ups run after the worker, so that setup_s, like the
        # timed medians, samples the machine over the whole run.  A traced
        # run reports no setup_s.
        for rep in range(reps - reps // 2, reps if not args.trace else reps - reps // 2):
            set_up(args.workload, args.seed, work / f"setup{rep}", run, times)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    run.merge(result)
    check_ledger(f"{args.workload}-s{args.seed}", run.ledger, run)

    if args.trace:
        values = {name: (value, None) for name, value in result["layers"].items()}
        tails = []
    else:
        values, tails = end_to_end(made, times, result)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {}
    for m in declared["per_layer" if args.trace else "end_to_end"]:
        value, n = values[m["name"]]
        print(f"{m['name']:32s} {value:14.6g} {m['unit']}" + (f"  (n={n})" if n else ""))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for line in tails:
        print("tail:", line)
    for problem in run.problems:
        print("problem:", problem, file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
