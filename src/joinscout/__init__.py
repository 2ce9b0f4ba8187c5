"""joinscout: discover and execute fuzzy join paths across tabular databases.

The pipeline, end to end:

1. :mod:`joinscout.catalog` loads a multi-database catalog (CSV files plus a
   JSON manifest).
2. :mod:`joinscout.matching` scores cross-database column pairs by name,
   semantics, and token overlap.
3. :mod:`joinscout.validation` checks surviving pairs against actual row
   values and estimates how much of the data the join would retain.
4. :mod:`joinscout.graph` assembles foreign-key and fuzzy edges into a
   weighted join graph and finds cheapest join paths.
5. :mod:`joinscout.executor` materializes a path as a result table.

:mod:`joinscout.fuzzgen` generates synthetic catalogs with known ground
truth for benchmarking, and :mod:`joinscout.cli` wires everything into a
command-line pipeline.
"""

from .catalog import (
    Catalog,
    Column,
    ColumnRef,
    Database,
    ForeignKey,
    Table,
    TableRef,
    fk_edges,
    load_catalog,
    save_catalog,
)
from .errors import (
    ConfigError,
    DanglingForeignKeyError,
    EmptyColumnError,
    GraphFormatError,
    JoinScoutError,
    ManifestParseError,
    MissingFileError,
    SchemaMismatchError,
    SingleTokenError,
    UnknownTableError,
    ValueTooShortError,
)
from .fuzzgen import (
    DiscoveryReport,
    FuzzConfig,
    evaluate_discovery,
    generate_catalog,
    inject_synonym,
    load_ground_truth,
    remove_chars,
    reorder_name,
    vary_label,
)
from .graph import (
    EdgeKind,
    JoinEdge,
    JoinGraph,
    JoinPath,
    build_graph,
    edge_weight,
    export_dot,
    graph_from_json,
    graph_to_json,
    shortest_path,
)
from .matching import (
    ColumnMatch,
    MatchConfig,
    candidate_pairs,
    filter_candidates,
    load_config,
    score_pair,
)
from .executor import ResultTable, execute_path, write_csv
from .similarity import (
    SemanticProvider,
    TrigramProvider,
    gestalt_ratio,
    indel_ratio,
    semantic_sim,
    token_overlap,
    token_sort_ratio,
    trigram_embed,
)
from .validation import (
    ValidationResult,
    fuzzy_jaccard,
    sample_distinct,
    validate,
    validate_many,
    value_score,
)

__version__ = "0.1.0"

__all__ = [
    "Catalog",
    "Column",
    "ColumnMatch",
    "ColumnRef",
    "ConfigError",
    "Database",
    "DanglingForeignKeyError",
    "DiscoveryReport",
    "EdgeKind",
    "EmptyColumnError",
    "ForeignKey",
    "FuzzConfig",
    "GraphFormatError",
    "JoinEdge",
    "JoinGraph",
    "JoinPath",
    "JoinScoutError",
    "ManifestParseError",
    "MatchConfig",
    "MissingFileError",
    "ResultTable",
    "SchemaMismatchError",
    "SemanticProvider",
    "SingleTokenError",
    "Table",
    "TableRef",
    "TrigramProvider",
    "UnknownTableError",
    "ValidationResult",
    "ValueTooShortError",
    "build_graph",
    "candidate_pairs",
    "edge_weight",
    "evaluate_discovery",
    "execute_path",
    "export_dot",
    "filter_candidates",
    "fk_edges",
    "fuzzy_jaccard",
    "generate_catalog",
    "gestalt_ratio",
    "graph_from_json",
    "graph_to_json",
    "indel_ratio",
    "inject_synonym",
    "load_catalog",
    "load_config",
    "load_ground_truth",
    "remove_chars",
    "reorder_name",
    "sample_distinct",
    "save_catalog",
    "score_pair",
    "semantic_sim",
    "shortest_path",
    "token_overlap",
    "token_sort_ratio",
    "trigram_embed",
    "validate",
    "validate_many",
    "value_score",
    "vary_label",
    "write_csv",
]
