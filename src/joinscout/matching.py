"""Cross-database column matching.

Every column in one database is compared against every column in every
*other* database (intra-database links are already covered by declared
foreign keys).  Each pair gets a weighted composite of three signals::

    total = alpha * name_sim + beta * semantic_sim + gamma * token_overlap

where ``name_sim`` is the gestalt ratio of the raw column names,
``semantic_sim`` is the cosine of their trigram embeddings, and
``token_overlap`` is the token-set overlap coefficient.  Pairs at or above
``column_threshold`` move on to row-level validation.

Scoring is filter-and-verify (Xiao et al., "PPJoin", WWW 2008; Chaudhuri,
Ganti & Kaushik, ICDE 2006).  :func:`candidate_pairs` computes a cheap upper
bound on ``total`` for every pair of distinct names and yields only the
pairs whose bound reaches ``column_threshold``; :func:`score_pair`, the one
exact scorer, then runs on those alone.  The bound, from
:func:`similarity.name_signal_bounds`, swaps ``name_sim`` for difflib's
``quick_ratio``, which no gestalt ratio exceeds, and keeps the other two
signals exact, so no pair that reaches the threshold is left out.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import similarity
from .catalog import Catalog, ColumnRef
from .errors import ConfigError

__all__ = [
    "ColumnMatch",
    "MatchConfig",
    "candidate_pairs",
    "filter_candidates",
    "load_config",
    "score_pair",
]


# What each declared field type of MatchConfig accepts; the annotations are
# strings under ``from __future__ import annotations``.
_FIELD_TYPES = {"int": int, "float": (int, float)}


@dataclass(frozen=True)
class MatchConfig:
    """Knobs for matching, validation, and graph weighting.

    Each field must have its declared type: an ``int`` field takes no float
    and a ``float`` field takes an int but no str; neither takes a bool.
    Every number must be finite.  ``alpha``, ``beta``, ``gamma`` must be
    non-negative and sum to 1.
    """

    alpha: float = 0.4
    beta: float = 0.3
    gamma: float = 0.3
    column_threshold: float = 0.6
    row_threshold: float = 0.5
    epsilon: float = 1e-6
    sample_cap: int = 500
    seed: int = 42

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
                raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be a finite number, got {value}")
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ConfigError("weights must be non-negative")
        if abs(self.alpha + self.beta + self.gamma - 1.0) > 1e-9:
            raise ConfigError(
                f"weights must sum to 1, got {self.alpha + self.beta + self.gamma}"
            )
        if not 0.0 <= self.column_threshold <= 1.0:
            raise ConfigError("column_threshold must be in [0, 1]")
        if not 0.0 <= self.row_threshold <= 1.0:
            raise ConfigError("row_threshold must be in [0, 1]")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        if self.sample_cap <= 0:
            raise ConfigError("sample_cap must be positive")


def load_config(path: str | Path) -> MatchConfig:
    """Read a :class:`MatchConfig` from a JSON file.

    The file holds a flat object; unknown keys are rejected, missing keys
    keep their defaults.  A file that cannot be read, is not UTF-8 JSON or
    holds a bad value raises :class:`ConfigError`.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    known = set(MatchConfig.__dataclass_fields__)
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return replace(MatchConfig(), **doc)


@dataclass(frozen=True)
class ColumnMatch:
    """One scored cross-database column pair."""

    left: ColumnRef
    right: ColumnRef
    name_sim: float
    semantic_sim: float
    token_overlap: float
    total_score: float


def candidate_pairs(
    catalog: Catalog, config: MatchConfig | None = None
) -> Iterator[tuple[ColumnRef, ColumnRef]]:
    """The cross-database column pairs whose score can reach the threshold.

    Pairs come in catalog order: the left column always comes from the
    database that appears earlier in the catalog, so each unordered pair is
    produced at most once.  Pairs already covered by a declared foreign key
    never occur here because foreign keys cannot cross databases.

    A pair is left out only if an upper bound on its ``total_score`` under
    ``config`` is below ``column_threshold``, so ``filter_candidates`` over
    the :func:`score_pair` of these pairs equals it over every pair, float
    for float.  A ``column_threshold`` of 0 yields every pair.
    """
    cfg = config or MatchConfig()
    refs = [
        [ColumnRef(db.name, tab.name, col.name) for tab in db.tables for col in tab.columns]
        for db in catalog.databases
    ]
    names = list(dict.fromkeys(ref.column for cols in refs for ref in cols))
    index = {name: i for i, name in enumerate(names)}
    reach = _score_bound(names, cfg) >= cfg.column_threshold
    ids = [np.array([index[ref.column] for ref in cols], dtype=np.intp) for cols in refs]
    for i, left_cols in enumerate(refs):
        for j in range(i + 1, len(refs)):
            # np.nonzero walks the block row by row: nested-loop order.
            rows, cols = np.nonzero(reach[np.ix_(ids[i], ids[j])])
            for a, b in zip(rows.tolist(), cols.tolist()):
                yield left_cols[a], refs[j][b]


# Added to every bound, so that float rounding in its matrices cannot put a
# pair that reaches the threshold below it; each term is off by ~1e-16.
_BOUND_SLACK = 1e-9


def _score_bound(names: list[str], cfg: MatchConfig) -> np.ndarray:
    """An upper bound on ``score_pair``'s ``total_score`` for every pair of ``names``."""
    quick, cosine, overlap = similarity.name_signal_bounds(names)
    return cfg.alpha * quick + cfg.beta * cosine + cfg.gamma * overlap + _BOUND_SLACK


def score_pair(left: ColumnRef, right: ColumnRef, config: MatchConfig | None = None) -> ColumnMatch:
    """Score one column pair by name, semantics, and token overlap."""
    cfg = config or MatchConfig()
    name = similarity.gestalt_ratio(left.column, right.column)
    sem = similarity.semantic_sim(left.column, right.column)
    tok = similarity.token_overlap(left.column, right.column)
    total = cfg.alpha * name + cfg.beta * sem + cfg.gamma * tok
    return ColumnMatch(
        left=left,
        right=right,
        name_sim=name,
        semantic_sim=sem,
        token_overlap=tok,
        total_score=total,
    )


def filter_candidates(
    matches: Iterable[ColumnMatch],
    config: MatchConfig | None = None,
) -> list[ColumnMatch]:
    """Keep matches scoring at or above the column threshold.

    Sorted by descending total score; ties fall back to the pair of
    qualified names so the order is reproducible.
    """
    cfg = config or MatchConfig()
    kept = [m for m in matches if m.total_score >= cfg.column_threshold]
    kept.sort(key=lambda m: (-m.total_score, m.left, m.right))
    return kept
