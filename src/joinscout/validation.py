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
down to a seeded deterministic sample of ``sample_cap`` values.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .catalog import Catalog
from .errors import EmptyColumnError
from .matching import ColumnMatch, MatchConfig
from .similarity import similarity_matrix, sorted_token_form

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
    lefts = [sorted_token_form(v) for v in left_values if v]
    rights = sorted({sorted_token_form(v) for v in right_values if v})
    if not lefts or not rights:
        raise EmptyColumnError("value_score needs non-empty values on both sides")

    forms = sorted(set(lefts))
    best = dict(zip(forms, similarity_matrix(forms, rights).max(axis=1).tolist()))
    return sum(best[form] for form in lefts) / len(lefts)


def fuzzy_jaccard(
    left_values: Iterable[str],
    right_values: Iterable[str],
    row_threshold: float,
) -> float:
    """Jaccard overlap where "equal" means token-sort similarity ≥ threshold.

    Every cross pair at or above the threshold is considered, best first,
    and greedily locked into a one-to-one matching; the matched count ``m``
    then plays the intersection in ``m / (|L| + |R| - m)``.  Tie-breaking
    uses the sorted value pair, which makes the result symmetric in its
    arguments.
    """
    lefts = sorted({v for v in left_values if v})
    rights = sorted({v for v in right_values if v})
    if not lefts or not rights:
        raise EmptyColumnError("fuzzy_jaccard needs non-empty values on both sides")

    sims = similarity_matrix(
        [sorted_token_form(v) for v in lefts], [sorted_token_form(v) for v in rights]
    )
    rows, cols = (sims >= row_threshold).nonzero()
    scored: list[tuple[float, str, str, str, str]] = []
    for i, j, sim in zip(rows.tolist(), cols.tolist(), sims[rows, cols].tolist()):
        lv, rv = lefts[i], rights[j]
        a, b = (lv, rv) if lv <= rv else (rv, lv)
        scored.append((-sim, a, b, lv, rv))
    scored.sort()

    used_left: set[str] = set()
    used_right: set[str] = set()
    matched = 0
    for _, _, _, lv, rv in scored:
        if lv in used_left or rv in used_right:
            continue
        used_left.add(lv)
        used_right.add(rv)
        matched += 1
    return matched / (len(lefts) + len(rights) - matched)


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
    score = value_score(left_sample, right_sample)
    if score < cfg.row_threshold:
        log.debug(
            "rejected %s ~ %s: value score %.3f < %.3f",
            match.left,
            match.right,
            score,
            cfg.row_threshold,
        )
        return None
    s = fuzzy_jaccard(left_sample, right_sample, cfg.row_threshold)
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
    passes ``jobs=1``; ROADMAP item 6's benchmark change deletes the
    parameter together with that call.
    """
    if jobs != 1:
        raise ValueError(f"validate_many runs in one process; jobs must be 1, got {jobs}")
    cfg = config or MatchConfig()
    ordered = sorted(matches, key=lambda m: (m.left, m.right))
    results = (validate(m, catalog, cfg) for m in ordered)
    return [r for r in results if r is not None]
