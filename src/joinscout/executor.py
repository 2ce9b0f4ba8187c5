"""Materialize a join path as a concrete result table.

Foreign-key hops are exact inner equi-joins; the right side's copy of the
key columns is dropped since it duplicates values already present.  Fuzzy
hops match each left value to its single best right value by token-sort
similarity, keep matches at or above the row threshold, and append a
``_fuzzy_score_<hop>`` column recording the match strength.

A fuzzy hop runs exact first, through
:func:`~joinscout.similarity.token_sort_best`.  A left value whose
sorted-token form equals the form of a right value is matched to the
smallest such right value with score 1.0 by a hash lookup, and only the
other left values go through the similarity kernel.  The output bytes are
those of scoring every pair: a score is 1.0 exactly when the two forms are
equal, so the first maximum of the full row is that same right value;
``1.0`` prints as ``1.000``; and a row threshold is at most 1, so an exact
match always passes it.

Everything stays text, so a result round-trips through CSV unchanged.
Output row order is deterministic: accumulated rows keep their order and
multiple foreign-key matches expand in right-table row order.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import IO

from .catalog import Catalog, Table, TableRef
from .errors import UnknownTableError
from .graph import EdgeKind, JoinPath
from .matching import MatchConfig
from .similarity import token_sort_best

__all__ = ["ResultTable", "execute_path", "write_csv"]


@dataclass
class ResultTable:
    """Join output: origin-tagged columns and all-text rows."""

    columns: list[tuple[TableRef, str]]
    rows: list[tuple[str, ...]]
    fuzzy_score_columns: list[str] = field(default_factory=list)

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def header(self) -> list[str]:
        """Column names, qualified just enough to be unambiguous."""
        by_name = Counter(name for _, name in self.columns)
        by_table = Counter((ref.table, name) for ref, name in self.columns)
        out = []
        for ref, name in self.columns:
            if by_name[name] == 1:
                out.append(name)
            elif by_table[(ref.table, name)] == 1:
                out.append(f"{ref.table}.{name}")
            else:
                out.append(f"{ref.database}.{ref.table}.{name}")
        return out


def execute_path(
    path: JoinPath,
    catalog: Catalog,
    config: MatchConfig | None = None,
) -> ResultTable:
    """Run the joins along ``path`` and return the combined table.

    Raises :class:`UnknownTableError` if the path mentions tables or join
    columns the catalog does not have, and :class:`ValueError`, before any
    join, if its edges do not link its tables in order.
    """
    cfg = config or MatchConfig()
    if not path.tables:
        raise UnknownTableError("path has no tables")
    _check_hops(path)
    start_ref = path.tables[0]
    start = catalog.table(start_ref)
    columns: list[tuple[TableRef, str]] = [(start_ref, n) for n in start.column_names]
    acc_rows: list[tuple[str, ...]] = list(start.rows())
    # Raw row of the most recently joined table, aligned with acc_rows.
    # Join columns are read from here, so it does not matter whether the
    # visible output dropped them.
    last_rows = acc_rows
    score_columns: list[str] = []

    for hop, edge in enumerate(path.edges, start=1):
        left_ref = path.tables[hop - 1]
        right_ref = path.tables[hop]
        pairs = edge.columns_from(left_ref)
        left_table = catalog.table(left_ref)
        right_table = catalog.table(right_ref)
        left_key = itemgetter(*_positions(left_table, left_ref, [l for l, _ in pairs]))
        right_pos = _positions(right_table, right_ref, [r for _, r in pairs])
        right_key = itemgetter(*right_pos)
        # Each right row that can match, with the cells it appends to an
        # output row, projected once however many rows it joins.
        matches: dict[str | tuple[str, ...], list[tuple[tuple[str, ...], tuple[str, ...]]]] = {}

        if edge.kind is EdgeKind.FK:
            dropped = set(right_pos)
            keep = [i for i in range(len(right_table.column_names)) if i not in dropped]
            # itemgetter of one index returns a bare value, and of none it
            # raises, so those two take a slice, which returns a tuple.
            if len(keep) > 1:
                project = itemgetter(*keep)
            else:
                project = itemgetter(slice(keep[0], keep[0] + 1) if keep else slice(0))
            composite = len(right_pos) > 1
            for rrow in right_table.rows():
                key = right_key(rrow)
                # No indexed key has a blank part, so neither can a match.
                if all(key) if composite else key:
                    matches.setdefault(key, []).append((project(rrow), rrow))
            columns.extend((right_ref, right_table.column_names[i]) for i in keep)
        else:
            first_row_of: dict[str, tuple[str, ...]] = {}
            for rrow in right_table.rows():
                value = right_key(rrow)
                if value and value not in first_row_of:
                    first_row_of[value] = rrow
            right_values = sorted(first_row_of)
            left_values = [v for v in dict.fromkeys(map(left_key, last_rows)) if v]
            if right_values:
                # The first best right value is the smallest tied one.
                best = token_sort_best(left_values, right_values)
                for lval, ridx, score in zip(left_values, *best):
                    if score >= cfg.row_threshold:
                        rrow = first_row_of[right_values[ridx]]
                        matches[lval] = [(rrow + (f"{score:.3f}",), rrow)]
            score_name = f"_fuzzy_score_{hop}"
            columns.extend((right_ref, n) for n in right_table.column_names)
            columns.append((right_ref, score_name))
            score_columns.append(score_name)

        new_acc: list[tuple[str, ...]] = []
        new_last: list[tuple[str, ...]] = []
        for arow, key in zip(acc_rows, map(left_key, last_rows)):
            for tail, rrow in matches.get(key, ()):
                new_acc.append(arow + tail)
                new_last.append(rrow)
        acc_rows = new_acc
        last_rows = new_last

    return ResultTable(columns=columns, rows=acc_rows, fuzzy_score_columns=score_columns)


def _check_hops(path: JoinPath) -> None:
    """Raise ``ValueError`` unless edge ``i`` joins tables ``i`` and ``i + 1``."""
    if len(path.tables) != len(path.edges) + 1:
        raise ValueError(
            f"a path of {len(path.edges)} edge(s) needs {len(path.edges) + 1} tables, "
            f"got {len(path.tables)}"
        )
    for hop, edge in enumerate(path.edges, start=1):
        left, right = path.tables[hop - 1], path.tables[hop]
        if (left, right) not in ((edge.left, edge.right), (edge.right, edge.left)):
            raise ValueError(
                f"edge {hop} joins {edge.left} -- {edge.right}, not {left} -> {right}"
            )


def _positions(table: Table, ref: TableRef, names: list[str]) -> list[int]:
    """The position of each of ``names`` among the table's columns."""
    known = table.column_names
    for name in names:
        if name not in known:
            raise UnknownTableError(f"no column {name!r} in table {ref}")
    return [known.index(name) for name in names]


def write_csv(
    result: ResultTable,
    destination: str | Path | IO[str],
    limit: int | None = None,
) -> int:
    """Write the result as CSV; returns the number of data rows written.

    The bytes are those of :func:`csv.writer` with its default dialect
    (excel: comma-separated, a field quoted only when it needs it, ``"``
    doubled, CRLF line ends).  A data row whose cells are all ``str`` and
    hold no ``,``, ``"``, ``\\r``, ``\\n`` or NUL, and that has at least
    two cells, is written as its cells joined with commas, which is what
    ``csv.writer`` writes for it; every other row, and the header, goes
    through ``csv.writer`` itself.  Rows are written in blocks of a few
    thousand, so the output is never held twice in memory.

    ``limit`` truncates the output for previews; header always included.
    """
    rows = result.rows if limit is None else result.rows[: max(limit, 0)]
    if hasattr(destination, "write"):
        _write_rows(destination, result.header(), rows)  # type: ignore[arg-type]
    else:
        with Path(destination).open("w", newline="", encoding="utf-8") as fh:
            _write_rows(fh, result.header(), rows)
    return len(rows)


# Data rows per block of joined lines: enough to make each write() call
# cheap per row, few enough that a block is small next to the result.
_BLOCK_ROWS = 4096


def _write_rows(fh: IO[str], header: list[str], rows: list[tuple[str, ...]]) -> None:
    writer = csv.writer(fh)
    writer.writerow(header)
    join = ",".join
    for start in range(0, len(rows), _BLOCK_ROWS):
        lines = []
        for row in rows[start : start + _BLOCK_ROWS]:
            # ",".join raises TypeError on a cell that is not a str.  A row
            # of fewer than two cells takes csv.writer, which writes a lone
            # empty cell as "".  A comma count other than one less than the
            # cells means a cell holds a comma.
            try:
                line = join(row) if len(row) > 1 else None
            except TypeError:
                line = None
            if (
                line is None
                or line.count(",") != len(row) - 1
                or '"' in line
                or "\r" in line
                or "\n" in line
                or "\x00" in line
            ):
                # Write the lines before it first, so a row csv.writer
                # rejects leaves the same output behind as csv.writer would.
                _write_lines(fh, lines)
                lines = []
                writer.writerow(row)
            else:
                lines.append(line)
        _write_lines(fh, lines)


def _write_lines(fh: IO[str], lines: list[str]) -> None:
    """Write each of ``lines`` followed by CRLF, in one call."""
    if lines:
        lines.append("")
        fh.write("\r\n".join(lines))
