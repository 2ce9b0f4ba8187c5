"""Row-level validation of candidate column pairs.

Column names can agree by accident, so every candidate pair must also
survive a look at the data:

* ``value_score`` — for each left-side value, the best token-sort
  similarity against any right-side value, averaged over the left side.
  High when most left values have *some* plausible partner.
* ``fuzzy_jaccard`` — a soft intersection size from greedy one-to-one
  matching of value pairs at or above the row threshold, plugged into the
  Jaccard formula ``m / (|L| + |R| - m)``.  This is the edge strength the
  join graph consumes.

Columns are compared on distinct values only; large columns are first cut
down to a seeded deterministic sample of ``sample_cap`` values.  ``validate``
builds one ``token_sort_matrix`` per candidate and reads both scores from it.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .catalog import Catalog
from .errors import EmptyColumnError
from .matching import ColumnMatch, MatchConfig
from .similarity import token_sort_matrix

__all__ = [
    "ValidationResult",
    "fuzzy_jaccard",
    "sample_distinct",
    "validate",
    "validate_many",
    "value_score",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ValidationResult:
    """A candidate pair that survived row-level validation."""

    match: ColumnMatch
    value_score: float
    overlap_s: float
    sampled_left: int
    sampled_right: int


def value_score(left_values: Sequence[str], right_values: Sequence[str]) -> float:
    """Mean over left values of the best token-sort similarity on the right.

    Empty strings are dropped first; raises :class:`EmptyColumnError` if
    either side has nothing left.
    """
    lefts = [v for v in left_values if v]
    rights = [v for v in right_values if v]
    if not lefts or not rights:
        raise EmptyColumnError("value_score needs non-empty values on both sides")
    return _value_score(token_sort_matrix(lefts, rights))


def fuzzy_jaccard(
    left_values: Iterable[str],
    right_values: Iterable[str],
    row_threshold: float,
) -> float:
    """Jaccard overlap where "equal" means token-sort similarity ≥ threshold.

    Every cross pair at or above the threshold is considered, best first,
    and greedily locked into a one-to-one matching; the matched count ``m``
    then plays the intersection in ``m / (|L| + |R| - m)``.  Ties are taken
    in the order of the sorted value pair, which makes the result symmetric
    in its arguments.
    """
    lefts = sorted({v for v in left_values if v})
    rights = sorted({v for v in right_values if v})
    if not lefts or not rights:
        raise EmptyColumnError("fuzzy_jaccard needs non-empty values on both sides")
    return _fuzzy_jaccard(token_sort_matrix(lefts, rights), row_threshold)


def _value_score(sims: np.ndarray) -> float:
    """Mean of the row maxima of ``sims``, summed in row order."""
    return sum(sims.max(axis=1).tolist()) / len(sims)


def _fuzzy_jaccard(sims: np.ndarray, row_threshold: float) -> float:
    """Greedy fuzzy Jaccard of two sorted lists of distinct values.

    ``sims`` is their ``token_sort_matrix``.  Cells at or above the
    threshold are taken by descending similarity, ties in (left, right)
    order.  The greedy loop takes a cell unless an earlier cell shares its
    left or its right value, so the matching depends only on the order of
    cells that share a value, and on those the (left, right) order and the
    order of the sorted value pair agree.
    """
    # nonzero lists cells in (left, right) order; a stable sort keeps it.
    rows, cols = (sims >= row_threshold).nonzero()
    order = np.argsort(-sims[rows, cols], kind="stable")

    n_left, n_right = sims.shape
    used_left = [False] * n_left
    used_right = [False] * n_right
    matched = 0
    for i, j in zip(rows[order].tolist(), cols[order].tolist()):
        if used_left[i] or used_right[j]:
            continue
        used_left[i] = used_right[j] = True
        matched += 1
    return matched / (n_left + n_right - matched)


def sample_distinct(values: Iterable[str], cap: int, seed_key: str) -> list[str]:
    """Deterministic sample of distinct non-empty values, at most ``cap``.

    Values are deduplicated and sorted before sampling, so the result
    depends only on the value *set* and the seed key, never on row order.
    """
    distinct = sorted({v for v in values if v})
    if len(distinct) <= cap:
        return distinct
    rng = random.Random(seed_key)
    return sorted(rng.sample(distinct, cap))


def validate(
    match: ColumnMatch,
    catalog: Catalog,
    config: MatchConfig | None = None,
) -> ValidationResult | None:
    """Check a candidate column pair against the actual row values.

    Returns ``None`` when the pair is rejected: either side has no usable
    values, or the value score falls below ``row_threshold``.
    """
    cfg = config or MatchConfig()
    left_sample = sample_distinct(
        catalog.column(match.left).distinct_values, cfg.sample_cap, f"{cfg.seed}:{match.left}"
    )
    right_sample = sample_distinct(
        catalog.column(match.right).distinct_values, cfg.sample_cap, f"{cfg.seed}:{match.right}"
    )
    if not left_sample or not right_sample:
        log.debug("rejected %s ~ %s: empty side", match.left, match.right)
        return None
    sims = token_sort_matrix(left_sample, right_sample)
    score = _value_score(sims)
    if score < cfg.row_threshold:
        log.debug(
            "rejected %s ~ %s: value score %.3f < %.3f",
            match.left,
            match.right,
            score,
            cfg.row_threshold,
        )
        return None
    s = _fuzzy_jaccard(sims, cfg.row_threshold)
    return ValidationResult(
        match=match,
        value_score=score,
        overlap_s=s,
        sampled_left=len(left_sample),
        sampled_right=len(right_sample),
    )


def validate_many(
    matches: Iterable[ColumnMatch],
    catalog: Catalog,
    config: MatchConfig | None = None,
    jobs: int = 1,
) -> list[ValidationResult]:
    """Validate candidates and drop the rejected ones.

    Candidates are processed in sorted pair order and results keep that
    order, so the output does not depend on the input order.

    ``jobs`` must be 1; any other value raises :class:`ValueError`.  The
    parameter stays only because the benchmark's ``perfbench/ops.py``
    passes ``jobs=1``; ROADMAP item 2's benchmark change deletes the
    parameter together with that call.
    """
    if jobs != 1:
        raise ValueError(f"validate_many runs in one process; jobs must be 1, got {jobs}")
    cfg = config or MatchConfig()
    ordered = sorted(matches, key=lambda m: (m.left, m.right))
    results = (validate(m, catalog, cfg) for m in ordered)
    return [r for r in results if r is not None]
