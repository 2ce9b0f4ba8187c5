"""Command-line pipeline.

Subcommands::

    joinscout generate --out DIR [--seed N] [--scale N]
    joinscout discover MANIFEST [--config FILE] [--graph-out FILE]
    joinscout path GRAPH SOURCE TARGET
    joinscout join GRAPH MANIFEST SOURCE TARGET [--out FILE] [--config FILE] [--limit N]
    joinscout graph GRAPH [--out FILE]

Tables are addressed as ``db.Table``, or a bare table name when unique.

Exit codes: 0 success, 1 usage error, 2 data error (missing or malformed
files, unknown tables), 3 no join path exists.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .catalog import TableRef, load_catalog
from .errors import GraphFormatError, JoinScoutError, UnknownTableError
from .executor import execute_path, write_csv
from .fuzzgen import MAX_SCALE, generate_catalog
from .graph import (
    EdgeKind,
    JoinGraph,
    JoinPath,
    discover,
    export_dot,
    graph_from_json,
    graph_to_json,
    shortest_path,
)
from .matching import MatchConfig, load_config

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NO_PATH = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this pipeline reserves 2 for
    data problems, so usage errors are remapped to 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None


def _non_negative_int(text: str) -> int:
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def _scale(text: str) -> int:
    value = _integer(text)
    if not 1 <= value <= MAX_SCALE:
        raise argparse.ArgumentTypeError(f"must be 1 to {MAX_SCALE}, got {value}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="joinscout", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic benchmark catalog")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--seed", type=int, default=42)
    p_gen.add_argument(
        "--scale", type=_scale, default=1, help=f"fact-table size multiplier, 1 to {MAX_SCALE}"
    )

    p_disc = sub.add_parser("discover", help="find joinable columns, write the join graph")
    p_disc.add_argument("manifest", help="catalog manifest.json")
    p_disc.add_argument("--config", help="scoring configuration JSON")
    p_disc.add_argument("--graph-out", default="join_graph.json", help="where to write the graph")

    p_path = sub.add_parser("path", help="cheapest join path between two tables")
    p_path.add_argument("graph", help="join graph JSON from 'discover'")
    p_path.add_argument("source")
    p_path.add_argument("target")

    p_join = sub.add_parser("join", help="execute the cheapest join path, emit CSV")
    p_join.add_argument("graph", help="join graph JSON from 'discover'")
    p_join.add_argument("manifest", help="catalog manifest.json")
    p_join.add_argument("source")
    p_join.add_argument("target")
    p_join.add_argument("--out", default="-", help="output CSV path, '-' for stdout")
    p_join.add_argument("--config", help="scoring configuration JSON")
    p_join.add_argument("--limit", type=_non_negative_int, help="write at most N rows")

    p_dot = sub.add_parser("graph", help="render the join graph as Graphviz DOT")
    p_dot.add_argument("graph", help="join graph JSON from 'discover'")
    p_dot.add_argument("--out", default="-", help="output DOT path, '-' for stdout")
    return parser


def _resolve_table(graph: JoinGraph, text: str) -> TableRef:
    # A database or table name may hold a dot, so match the printed name whole.
    hits = [node for node in graph.nodes if str(node) == text]
    hits = hits or [node for node in graph.nodes if node.table == text]
    if not hits:
        raise UnknownTableError(f"no table {text!r} in the graph")
    if len(hits) > 1:
        names = ", ".join(str(h) for h in sorted(hits))
        raise UnknownTableError(f"table name {text!r} is ambiguous: {names}")
    return hits[0]


def _find_path(graph: JoinGraph, source_text: str, target_text: str) -> JoinPath | None:
    """The cheapest path between two named tables, or None after saying on
    stderr that there is none."""
    source = _resolve_table(graph, source_text)
    target = _resolve_table(graph, target_text)
    path = shortest_path(graph, source, target)
    if path is None:
        print(f"no join path between {source} and {target}", file=sys.stderr)
    return path


def _read_graph(path: str) -> JoinGraph:
    """The join graph in the file at ``path``; a file that is not UTF-8
    raises :class:`GraphFormatError` naming it."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"graph file {path} is not UTF-8 text: {exc}") from exc
    return graph_from_json(text)


def _load_match_config(path: str | None) -> MatchConfig:
    return load_config(path) if path else MatchConfig()


def _print_path(path: JoinPath) -> None:
    print(f"path with {path.hops} hop(s), total weight {path.total_weight:.4f}, "
          f"retains ~{path.retained_percentage:.1%} of rows")
    for i, edge in enumerate(path.edges):
        left, right = path.tables[i], path.tables[i + 1]
        cols = ", ".join(f"{l} -> {r}" for l, r in edge.columns_from(left))
        print(f"  {i + 1}. {left} -> {right}  [{edge.kind.value}]  on {cols}  "
              f"(s={edge.overlap_s:.3f}, weight={edge.weight:.4f})")


def cmd_generate(args: argparse.Namespace) -> int:
    catalog = generate_catalog(args.out, seed=args.seed, scale=args.scale)
    tables = sum(len(db.tables) for db in catalog.databases)
    rows = sum(t.row_count for db in catalog.databases for t in db.tables)
    print(f"wrote {len(catalog.databases)} databases, {tables} tables, {rows} rows")
    print(f"manifest: {Path(args.out) / 'manifest.json'}")
    print(f"ground truth: {Path(args.out) / 'ground_truth.json'}")
    return EXIT_OK


def cmd_discover(args: argparse.Namespace) -> int:
    config = _load_match_config(args.config)
    candidates, validated, graph = discover(load_catalog(args.manifest), config)
    print(f"{len(candidates)} candidate column pair(s) above threshold "
          f"{config.column_threshold}")
    Path(args.graph_out).write_text(graph_to_json(graph), encoding="utf-8")
    fuzzy = [e for e in graph.edges if e.kind is EdgeKind.FUZZY]
    fk = [e for e in graph.edges if e.kind is EdgeKind.FK]
    print(f"validated {len(validated)} pair(s); graph has {len(graph.nodes)} tables, "
          f"{len(fk)} fk edge(s), {len(fuzzy)} fuzzy edge(s)")
    for edge in fuzzy:
        l, r = edge.join_columns[0]
        print(f"  {edge.left}.{l} ~ {edge.right}.{r}  s={edge.overlap_s:.3f} "
              f"weight={edge.weight:.4f}")
    print(f"graph written to {args.graph_out}")
    return EXIT_OK


def cmd_path(args: argparse.Namespace) -> int:
    graph = _read_graph(args.graph)
    path = _find_path(graph, args.source, args.target)
    if path is None:
        return EXIT_NO_PATH
    _print_path(path)
    return EXIT_OK


def cmd_join(args: argparse.Namespace) -> int:
    graph = _read_graph(args.graph)
    config = _load_match_config(args.config)
    catalog = load_catalog(args.manifest)
    path = _find_path(graph, args.source, args.target)
    if path is None:
        return EXIT_NO_PATH
    result = execute_path(path, catalog, config)
    if args.out == "-":
        written = write_csv(result, sys.stdout, limit=args.limit)
    else:
        written = write_csv(result, args.out, limit=args.limit)
        print(f"wrote {written} row(s) to {args.out}")
    print(f"joined {path.hops} hop(s); {result.row_count} row(s) total, "
          f"estimated retention {path.retained_percentage:.1%}", file=sys.stderr)
    return EXIT_OK


def cmd_graph(args: argparse.Namespace) -> int:
    graph = _read_graph(args.graph)
    dot = export_dot(graph)
    if args.out == "-":
        sys.stdout.write(dot)
    else:
        Path(args.out).write_text(dot, encoding="utf-8")
        print(f"DOT written to {args.out}")
    return EXIT_OK


_COMMANDS = {
    "generate": cmd_generate,
    "discover": cmd_discover,
    "path": cmd_path,
    "join": cmd_join,
    "graph": cmd_graph,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (JoinScoutError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
