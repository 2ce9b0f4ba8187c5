"""Row-level validation of candidate column pairs.

Column names can agree by accident, so every candidate pair must also
survive a look at the data:

* the value score — for each left-side value, the best token-sort
  similarity against any right-side value, averaged over the left side.
  High when most left values have *some* plausible partner.
* the fuzzy Jaccard ``s`` — a soft intersection size from greedy one-to-one
  matching of value pairs at or above the row threshold, plugged into the
  Jaccard formula ``m / (|L| + |R| - m)``.  This is the edge strength the
  join graph consumes.

Columns are compared on distinct values only; large columns are first cut
down to a seeded deterministic sample of ``sample_cap`` values.
``validate_many`` is the one validation loop.  Per call it samples each
column once and puts each distinct sampled value in sorted-token form
once.  It groups the candidates by right column and matches exact forms
first: a left value whose form equals a free right form scores 1.0 and is
matched to it, since the kernel scores equal forms, and only those, 1.0.
``similarity_matrix`` then runs once per right column, on the distinct
left forms of its candidates that are left over × the right forms.  Both
scores come out as they would from each candidate's full matrix.
``value_score`` and ``fuzzy_jaccard`` score one pair of value lists on
its full matrix; they are not in ``__all__``, and the benchmark and the
tests call them to time and check each score on its own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .catalog import Catalog, ColumnRef
from .matching import ColumnMatch, MatchConfig
from .similarity import similarity_matrix, sorted_token_form

__all__ = ["ValidationResult", "sample_distinct", "validate_many"]


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

    Empty strings are dropped first; raises :class:`ValueError` if either
    side has nothing left.
    """
    lefts = [sorted_token_form(v) for v in left_values if v]
    rights = [sorted_token_form(v) for v in right_values if v]
    if not lefts or not rights:
        raise ValueError("value_score needs non-empty values on both sides")
    return _value_score(similarity_matrix(lefts, rights))


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
    in its arguments.  Raises :class:`ValueError` if either side has no
    non-empty value.
    """
    lefts = [sorted_token_form(v) for v in sorted({v for v in left_values if v})]
    rights = [sorted_token_form(v) for v in sorted({v for v in right_values if v})]
    if not lefts or not rights:
        raise ValueError("fuzzy_jaccard needs non-empty values on both sides")
    matched = _greedy_matches(similarity_matrix(lefts, rights), row_threshold)
    return matched / (len(lefts) + len(rights) - matched)


def _value_score(sims: np.ndarray) -> float:
    """Mean of the row maxima of ``sims``, summed in row order."""
    return sum(sims.max(axis=1).tolist()) / len(sims)


def _greedy_matches(
    sims: np.ndarray, row_threshold: float, used_right: Iterable[int] = ()
) -> int:
    """Size of the greedy one-to-one matching over the cells of ``sims``.

    ``sims`` holds token-sort similarities of left rows × right values;
    the right indices in ``used_right`` are matched already.  Cells at or
    above the threshold are taken by descending similarity, ties in (left,
    right) order.  The greedy loop takes a cell unless an earlier cell
    shares its left or its right value, so the matching depends only on
    the order of cells that share a value, and on those the (left, right)
    order and the order of the sorted value pair agree.
    """
    # nonzero lists cells in (left, right) order; a stable sort keeps it.
    rows, cols = (sims >= row_threshold).nonzero()
    order = np.argsort(-sims[rows, cols], kind="stable")

    n_left, n_right = sims.shape
    used_left = [False] * n_left
    used = [False] * n_right
    for j in used_right:
        used[j] = True
    matched = 0
    for i, j in zip(rows[order].tolist(), cols[order].tolist()):
        if used_left[i] or used[j]:
            continue
        used_left[i] = used[j] = True
        matched += 1
    return matched


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


def validate_many(
    matches: Iterable[ColumnMatch],
    catalog: Catalog,
    config: MatchConfig | None = None,
    jobs: int = 1,
) -> list[ValidationResult]:
    """Check candidate column pairs against the actual row values.

    A candidate is rejected when either side has no usable values, or when
    its value score falls below ``row_threshold``.  Each column is sampled
    once per call, however many candidates it is in, and each distinct
    sampled value is token-formed once.  Candidates are grouped by right
    column, and the kernel runs once per group on the left forms without
    an exact partner.  Results are in sorted pair order, so the output
    does not depend on the input order.

    ``jobs`` must be 1; any other value raises :class:`ValueError`.  The
    parameter stays only because the benchmark's ``perfbench/ops.py``
    passes ``jobs=1``; ROADMAP item 2's benchmark change deletes the
    parameter together with that call.
    """
    if jobs != 1:
        raise ValueError(f"validate_many runs in one process; jobs must be 1, got {jobs}")
    cfg = config or MatchConfig()
    ordered = sorted(matches, key=lambda m: (m.left, m.right))
    form_of: dict[str, str] = {}
    forms: dict[ColumnRef, list[str]] = {}
    for ref in dict.fromkeys(ref for m in ordered for ref in (m.left, m.right)):
        sample = sample_distinct(
            catalog.column(ref).distinct_values, cfg.sample_cap, f"{cfg.seed}:{ref}"
        )
        for value in sample:
            if value not in form_of:
                form_of[value] = sorted_token_form(value)
        forms[ref] = [form_of[value] for value in sample]

    by_right: dict[ColumnRef, list[int]] = {}
    for k, match in enumerate(ordered):
        if forms[match.left] and forms[match.right]:
            by_right.setdefault(match.right, []).append(k)
    results: dict[int, ValidationResult] = {}
    for right, group in by_right.items():
        rights = forms[right]
        slots: dict[str, list[int]] = {}
        for j, form in enumerate(rights):
            slots.setdefault(form, []).append(j)
        pending: dict[str, int] = {}
        exact = [(k, *_exact_phase(forms[ordered[k].left], slots, pending)) for k in group]
        sims = similarity_matrix(list(pending), rights) if pending else np.empty((0, len(rights)))
        best = sims.max(axis=1).tolist()
        for k, used, rows in exact:
            score = sum(1.0 if p is None else best[p] for p in rows) / len(rows)
            if score < cfg.row_threshold:
                continue
            residual = sims[[p for p in rows if p is not None]]
            matched = len(used) + _greedy_matches(residual, cfg.row_threshold, used)
            s = matched / (len(rows) + len(rights) - matched)
            results[k] = ValidationResult(ordered[k], score, s, len(rows), len(rights))
    return [results[k] for k in sorted(results)]


def _exact_phase(
    lefts: list[str], slots: dict[str, list[int]], pending: dict[str, int]
) -> tuple[list[int], list[int | None]]:
    """Give each left form, in row order, the first free right index of an
    equal form.

    ``slots`` maps each right form to its indices.  Returns the right
    indices taken and, for each left row, ``None`` if it took one, else
    the index of its form in ``pending``, which gains the form if it is
    new.  Equal forms, and only they, score 1.0, and the greedy takes the
    1.0 cells first in (left, right) order: it would take these same cells.
    """
    taken: dict[str, int] = {}
    used: list[int] = []
    rows: list[int | None] = []
    for form in lefts:
        free = slots.get(form, ())
        n = taken.get(form, 0)
        if n < len(free):
            taken[form] = n + 1
            used.append(free[n])
            rows.append(None)
        else:
            rows.append(pending.setdefault(form, len(pending)))
    return used, rows
