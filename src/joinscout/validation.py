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
down to a seeded deterministic sample of ``sample_cap`` values.  A value
whose sorted-token form is empty, one without a letter or digit such as
``"--"``, is no value: it matches nothing, as an empty cell does.
One matcher computes both scores.  It matches exact forms first: a left
value whose form equals a free right form scores 1.0 and is matched to
it, since the kernel scores equal forms, and only those, 1.0.
``similarity_matrix`` then runs once, on the distinct left forms that are
left over × the right forms, and the greedy matching works on the rows of
that matrix.  Both scores come out as they would from a full matrix.
``validate_many`` is the one validation loop.  Per call it samples each
column once, puts each distinct sampled value in sorted-token form once
and drops the values whose form is empty.  It groups the candidates by
right column and runs the matcher once per group, on the left forms of
all its candidates.  ``value_score`` and ``fuzzy_jaccard`` run the same
matcher on one pair of value lists; they are not in ``__all__``, and the
benchmark and the tests call them to time and check each score on its
own.
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

    Values whose sorted-token form is empty are dropped first; raises
    :class:`ValueError` if either side has nothing left.
    """
    lefts = _nonempty_forms(left_values)
    rights = _nonempty_forms(right_values)
    if not lefts or not rights:
        raise ValueError("value_score needs non-empty values on both sides")
    _, [(score, _, _)] = _match([lefts], rights)
    return score


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
    in its arguments.  Distinct values whose sorted-token form is empty are
    dropped first; raises :class:`ValueError` if either side has nothing
    left.
    """
    lefts = _nonempty_forms(sorted(set(left_values)))
    rights = _nonempty_forms(sorted(set(right_values)))
    if not lefts or not rights:
        raise ValueError("fuzzy_jaccard needs non-empty values on both sides")
    sims, [(_, used, rows)] = _match([lefts], rights)
    return _greedy_jaccard(sims, rows, used, row_threshold)


def _nonempty_forms(values: Iterable[str]) -> list[str]:
    """The sorted-token forms of ``values`` that are not empty, in order."""
    return [form for form in map(sorted_token_form, values) if form]


def _match(
    left_lists: Iterable[list[str]], rights: list[str]
) -> tuple[np.ndarray, list[tuple[float, list[int], list[int | None]]]]:
    """Match each list of left forms against ``rights``, exact forms first.

    Each left form, in row order, takes the first right index of an equal
    form that its list has not taken yet.  Equal forms, and only they,
    score 1.0, and the greedy takes the 1.0 cells first in (left, right)
    order: it would take these same cells.  The kernel then runs once, on
    the distinct forms of the rows of every list that took no index ×
    ``rights``, and not at all if there are none.  Returns that matrix and,
    for each left list, its value score (each row's best similarity, 1.0
    if it took an index, averaged in row order), the right indices it took
    and, for each row, ``None`` if it took one, else its row of the matrix.
    """
    slots: dict[str, list[int]] = {}
    for j, form in enumerate(rights):
        slots.setdefault(form, []).append(j)
    pending: dict[str, int] = {}
    per_list = []
    for lefts in left_lists:
        taken: dict[str, int] = {}
        used: list[int] = []
        rows: list[int | None] = []
        for form in lefts:
            n = taken[form] = taken.get(form, -1) + 1
            free = slots.get(form, ())
            if n < len(free):
                used.append(free[n])
                rows.append(None)
            else:
                rows.append(pending.setdefault(form, len(pending)))
        per_list.append((used, rows))
    sims = similarity_matrix(list(pending), rights) if pending else np.empty((0, len(rights)))
    best = sims.max(axis=1).tolist()
    return sims, [
        (sum(1.0 if p is None else best[p] for p in rows) / len(rows), used, rows)
        for used, rows in per_list
    ]


def _greedy_jaccard(
    sims: np.ndarray, rows: list[int | None], used_right: list[int], row_threshold: float
) -> float:
    """Fuzzy Jaccard ``s`` of one left list of :func:`_match`, ``m / (|L| + |R| - m)``.

    ``m`` is the size of a greedy one-to-one matching.  The right indices
    in ``used_right`` are matched already, to the rows that are ``None``;
    the other rows are rows of ``sims``.  Their cells at or above the
    threshold are taken by descending similarity, ties in (left, right)
    order.  The greedy loop takes a cell unless an earlier cell shares its
    left or its right value, so the matching depends only on the order of
    cells that share a value, and on those the (left, right) order and the
    order of the sorted value pair agree.
    """
    residual = sims[[p for p in rows if p is not None]]
    # nonzero lists cells in (left, right) order; a stable sort keeps it.
    lefts, cols = (residual >= row_threshold).nonzero()
    order = np.argsort(-residual[lefts, cols], kind="stable")

    used_left = [False] * len(residual)
    used = [False] * sims.shape[1]
    for j in used_right:
        used[j] = True
    matched = len(used_right)
    for i, j in zip(lefts[order].tolist(), cols[order].tolist()):
        if not (used_left[i] or used[j]):
            used_left[i] = used[j] = True
            matched += 1
    return matched / (len(rows) + len(used) - matched)


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

    A candidate is rejected when either side has no value with a non-empty
    sorted-token form, or when its value score falls below
    ``row_threshold``.  Each column is sampled once per call, however many
    candidates it is in, and each distinct sampled value is token-formed
    once.  A value whose form is empty is dropped from a sample after it
    is drawn, so it does not change which values are drawn.  Candidates
    are grouped by right column, and the matcher runs once per group, so
    the kernel scores a left form without an exact partner once per right
    column, however many candidates hold it.  Results are in sorted pair
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
    form_of: dict[str, str] = {}
    forms: dict[ColumnRef, list[str]] = {}
    for ref in dict.fromkeys(ref for m in ordered for ref in (m.left, m.right)):
        sample = sample_distinct(
            catalog.column(ref).distinct_values, cfg.sample_cap, f"{cfg.seed}:{ref}"
        )
        for value in sample:
            if value not in form_of:
                form_of[value] = sorted_token_form(value)
        forms[ref] = [form_of[value] for value in sample if form_of[value]]

    by_right: dict[ColumnRef, list[int]] = {}
    for k, match in enumerate(ordered):
        if forms[match.left] and forms[match.right]:
            by_right.setdefault(match.right, []).append(k)
    results: dict[int, ValidationResult] = {}
    for right, group in by_right.items():
        rights = forms[right]
        sims, scored = _match((forms[ordered[k].left] for k in group), rights)
        for k, (score, used, rows) in zip(group, scored):
            if score >= cfg.row_threshold:
                s = _greedy_jaccard(sims, rows, used, cfg.row_threshold)
                results[k] = ValidationResult(ordered[k], score, s, len(rows), len(rights))
    return [results[k] for k in sorted(results)]
