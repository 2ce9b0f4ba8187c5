"""Join execution: FK hops, fuzzy hops, multi-hop paths, CSV output.

``reference_join`` is a brute-force oracle written without the similarity
kernel: nested loops over rows and one ``token_sort_ratio`` per pair.
``reference_csv`` is the plain ``csv.writer`` over every row that
``write_csv``'s joined-line path must match byte for byte.
"""

from __future__ import annotations

import csv
import io
import itertools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from joinscout import executor, similarity
from joinscout.catalog import _BLOCK_ROWS, Catalog, Database, ForeignKey, TableRef
from joinscout.errors import UnknownTableError
from joinscout.executor import ResultTable, execute_path, write_csv
from joinscout.fuzzgen import generate_catalog
from joinscout.graph import EdgeKind, JoinEdge, JoinPath, discover, edge_weight, shortest_path
from joinscout.matching import MatchConfig
from joinscout.similarity import sorted_token_form, token_sort_ratio

from conftest import make_table


def make_path(catalog_tables, edges):
    total = sum(e.weight for e in edges)
    return JoinPath(
        tables=tuple(catalog_tables),
        edges=tuple(edges),
        total_weight=total,
        retained_percentage=2.0 ** -total,
    )


def edge(left, right, kind, cols, s=0.5, value_score=None):
    return JoinEdge(
        left=left, right=right, kind=kind, join_columns=tuple(cols),
        overlap_s=s, weight=edge_weight(s), value_score=value_score,
    )


ORDERS = TableRef("alpha", "Orders")
USERS = TableRef("alpha", "Users")
PEOPLE = TableRef("beta", "People")

FK_EDGE = edge(ORDERS, USERS, EdgeKind.FK, [("user_id", "user_id")])
FUZZY_EDGE = edge(USERS, PEOPLE, EdgeKind.FUZZY, [("user_name", "full_name")])


class TestForeignKeyHop:
    def test_orders_to_users(self, memory_catalog):
        path = make_path([ORDERS, USERS], [FK_EDGE])
        result = execute_path(path, memory_catalog)
        # Right-side copy of the key is dropped; U9 dangles and vanishes.
        assert result.header() == ["order_id", "user_id", "item", "user_name"]
        assert result.rows == [
            ("O1", "U1", "widget", "John Smith"),
            ("O2", "U1", "gadget", "John Smith"),
            ("O3", "U2", "sprocket", "Mary Jones"),
        ]
        assert result.fuzzy_score_columns == []

    def test_users_to_orders_expands_in_right_row_order(self, memory_catalog):
        path = make_path([USERS, ORDERS], [FK_EDGE])
        result = execute_path(path, memory_catalog)
        assert result.header() == ["user_id", "user_name", "order_id", "item"]
        assert result.rows == [
            ("U1", "John Smith", "O1", "widget"),
            ("U1", "John Smith", "O2", "gadget"),
            ("U2", "Mary Jones", "O3", "sprocket"),
        ]

    def test_rows_with_blank_keys_are_skipped(self):
        left = make_table("L", {"k": ["1", "", "2"], "val": ["a", "b", "c"]})
        right = make_table("R", {"k": ["1", "2", ""], "tag": ["x", "y", "z"]})
        cat = Catalog(databases=(Database("d", (left, right)),))
        lr, rr = TableRef("d", "L"), TableRef("d", "R")
        path = make_path([lr, rr], [edge(lr, rr, EdgeKind.FK, [("k", "k")])])
        result = execute_path(path, cat)
        assert result.rows == [("1", "a", "x"), ("2", "c", "y")]

    def test_composite_key(self):
        left = make_table(
            "L", {"k1": ["a", "a"], "k2": ["1", "2"], "v": ["p", "q"]}
        )
        right = make_table("R", {"k1": ["a", "a"], "k2": ["2", "9"], "w": ["y", "n"]})
        cat = Catalog(databases=(Database("d", (left, right)),))
        lr, rr = TableRef("d", "L"), TableRef("d", "R")
        path = make_path(
            [lr, rr],
            [edge(lr, rr, EdgeKind.FK, [("k1", "k1"), ("k2", "k2")])],
        )
        result = execute_path(path, cat)
        assert result.header() == ["k1", "k2", "v", "w"]
        assert result.rows == [("a", "2", "q", "y")]


class TestFuzzyHop:
    def test_reordered_names_match_perfectly(self, memory_catalog):
        path = make_path([USERS, PEOPLE], [FUZZY_EDGE])
        result = execute_path(path, memory_catalog)
        assert result.header() == [
            "user_id", "user_name", "person_id", "full_name", "_fuzzy_score_1",
        ]
        assert result.fuzzy_score_columns == ["_fuzzy_score_1"]
        by_user = {r[0]: r for r in result.rows}
        assert by_user["U1"][2:] == ("P1", "Smith John", "1.000")
        assert by_user["U2"][2:] == ("P2", "Mary Jones", "1.000")

    def test_threshold_is_inclusive(self):
        # "ab" vs "axbyzw": LCS 2 of 2+6 chars -> exactly 0.5.
        left = make_table("L", {"name": ["ab", "xx"]})
        right = make_table("R", {"label": ["axbyzw"]})
        cat = Catalog(databases=(Database("d", (left, right)),))
        lr, rr = TableRef("d", "L"), TableRef("d", "R")
        path = make_path(
            [lr, rr], [edge(lr, rr, EdgeKind.FUZZY, [("name", "label")])]
        )
        result = execute_path(path, cat)
        assert result.rows == [("ab", "axbyzw", "0.500")]

    def test_custom_row_threshold(self):
        left = make_table("L", {"name": ["ab"]})
        right = make_table("R", {"label": ["axbyzw"]})
        cat = Catalog(databases=(Database("d", (left, right)),))
        lr, rr = TableRef("d", "L"), TableRef("d", "R")
        path = make_path(
            [lr, rr], [edge(lr, rr, EdgeKind.FUZZY, [("name", "label")])]
        )
        strict = MatchConfig(row_threshold=0.6)
        assert execute_path(path, cat, strict).rows == []

    def test_tie_breaks_to_lexicographically_smaller_value(self):
        left = make_table("L", {"name": ["alpha beta"]})
        # Both right values token-sort to "alpha beta" and score 1.0.
        right = make_table("R", {"label": ["beta alpha", "Alpha Beta"], "id": ["r1", "r2"]})
        cat = Catalog(databases=(Database("d", (left, right)),))
        lr, rr = TableRef("d", "L"), TableRef("d", "R")
        path = make_path(
            [lr, rr], [edge(lr, rr, EdgeKind.FUZZY, [("name", "label")])]
        )
        result = execute_path(path, cat)
        assert result.rows == [("alpha beta", "Alpha Beta", "r2", "1.000")]

    def test_duplicate_right_value_resolves_to_first_row(self):
        left = make_table("L", {"name": ["same text"]})
        right = make_table("R", {"label": ["same text", "same text"], "id": ["first", "second"]})
        cat = Catalog(databases=(Database("d", (left, right)),))
        lr, rr = TableRef("d", "L"), TableRef("d", "R")
        path = make_path(
            [lr, rr], [edge(lr, rr, EdgeKind.FUZZY, [("name", "label")])]
        )
        result = execute_path(path, cat)
        assert result.rows == [("same text", "same text", "first", "1.000")]

    def test_blank_values_never_match(self):
        left = make_table("L", {"name": ["", "real"]})
        right = make_table("R", {"label": ["", "real"]})
        cat = Catalog(databases=(Database("d", (left, right)),))
        lr, rr = TableRef("d", "L"), TableRef("d", "R")
        path = make_path(
            [lr, rr], [edge(lr, rr, EdgeKind.FUZZY, [("name", "label")])]
        )
        result = execute_path(path, cat)
        assert result.rows == [("real", "real", "1.000")]

    def test_values_whose_form_is_empty_never_match(self):
        # "«—»", "_·_" and "--" have no letter or digit, so their forms are
        # empty, and a value whose form is empty is no value.
        left = make_table("L", {"name": ["«—»", "--", "b a"]})
        right = make_table("R", {"label": ["_·_", "a b", "-"]})
        cat, path = one_fuzzy_hop(left, right)
        result = execute_path(path, cat, MatchConfig(row_threshold=0.0))
        assert result.rows == [("b a", "a b", "1.000")]
        assert result == reference_join(path, cat, 0.0)

    def test_accented_and_other_script_values_match_exactly(self):
        left = make_table("L", {"name": ["José Müller", "Иван Петров", "Zoë"]})
        right = make_table("R", {"label": ["Zoe", "Muller, Jose", "ПЕТРОВ Иван", "张伟"]})
        cat, path = one_fuzzy_hop(left, right)
        result = execute_path(path, cat)
        assert result.rows == [
            ("José Müller", "Muller, Jose", "1.000"),
            ("Иван Петров", "ПЕТРОВ Иван", "1.000"),
            ("Zoë", "Zoe", "1.000"),
        ]
        assert result == reference_join(path, cat, MatchConfig().row_threshold)

    def test_scores_format_to_three_decimals(self, memory_catalog):
        path = make_path([USERS, PEOPLE], [FUZZY_EDGE])
        result = execute_path(path, memory_catalog)
        for row in result.rows:
            score = row[-1]
            assert score == f"{float(score):.3f}"


class TestMultiHop:
    def test_fuzzy_join_reads_columns_dropped_from_output(self):
        # Hop 1 drops Mid's key column, shifting every later Mid column one
        # slot left in the visible row.  Hop 2 joins on Mid.label, so it must
        # read the raw Mid row, not the accumulated one.
        start = make_table("Start", {"order_id": ["O1"], "ref": ["B1"]})
        mid = make_table(
            "Mid",
            {"mid_id": ["B1"], "label": ["target text"]},
            fks=[ForeignKey(("mid_id",), "Start", ("ref",))],
        )
        end = make_table("End", {"end_id": ["E1"], "name": ["target text"]})
        cat = Catalog(
            databases=(Database("d1", (start, mid)), Database("d2", (end,)))
        )
        s, m, e = TableRef("d1", "Start"), TableRef("d1", "Mid"), TableRef("d2", "End")
        path = make_path(
            [s, m, e],
            [
                edge(s, m, EdgeKind.FK, [("ref", "mid_id")]),
                edge(m, e, EdgeKind.FUZZY, [("label", "name")]),
            ],
        )
        result = execute_path(path, cat)
        assert result.header() == [
            "order_id", "ref", "label", "end_id", "name", "_fuzzy_score_2",
        ]
        assert result.rows == [
            ("O1", "B1", "target text", "E1", "target text", "1.000")
        ]
        assert result.fuzzy_score_columns == ["_fuzzy_score_2"]

    def test_three_tables_through_shared_user(self, memory_catalog):
        path = make_path(
            [ORDERS, USERS, PEOPLE], [FK_EDGE, FUZZY_EDGE]
        )
        result = execute_path(path, memory_catalog)
        assert result.header() == [
            "order_id", "user_id", "item", "user_name",
            "person_id", "full_name", "_fuzzy_score_2",
        ]
        items = {r[2]: r[5] for r in result.rows}
        assert items == {
            "widget": "Smith John",
            "gadget": "Smith John",
            "sprocket": "Mary Jones",
        }

    def test_single_table_path_is_a_copy(self, memory_catalog):
        path = make_path([USERS], [])
        result = execute_path(path, memory_catalog)
        assert result.header() == ["user_id", "user_name"]
        assert result.row_count == 3


class TestHeaderQualification:
    def test_table_level_when_name_collides(self):
        t1 = make_table("T1", {"name": ["a"], "x": ["1"]})
        t2 = make_table("T2", {"name": ["a"], "y": ["2"]})
        cat = Catalog(databases=(Database("d", (t1, t2)),))
        r1, r2 = TableRef("d", "T1"), TableRef("d", "T2")
        path = make_path(
            [r1, r2], [edge(r1, r2, EdgeKind.FUZZY, [("name", "name")])]
        )
        result = execute_path(path, cat)
        assert result.header() == ["T1.name", "x", "T2.name", "y", "_fuzzy_score_1"]

    def test_database_level_when_table_also_collides(self):
        s1 = make_table("Stats", {"k": ["a"], "value": ["1"]})
        s2 = make_table("Stats", {"k": ["a"], "value": ["2"]})
        cat = Catalog(databases=(Database("d1", (s1,)), Database("d2", (s2,))))
        r1, r2 = TableRef("d1", "Stats"), TableRef("d2", "Stats")
        path = make_path([r1, r2], [edge(r1, r2, EdgeKind.FUZZY, [("k", "k")])])
        result = execute_path(path, cat)
        assert result.header() == [
            "d1.Stats.k", "d1.Stats.value", "d2.Stats.k", "d2.Stats.value",
            "_fuzzy_score_1",
        ]


class TestErrors:
    def test_unknown_table_in_path(self, memory_catalog):
        ghost = TableRef("alpha", "Ghost")
        path = make_path([ghost], [])
        with pytest.raises(UnknownTableError):
            execute_path(path, memory_catalog)

    @pytest.mark.parametrize("kind", [EdgeKind.FK, EdgeKind.FUZZY])
    @pytest.mark.parametrize(
        "pair, table",
        [(("ghost", "user_id"), "alpha.Orders"), (("user_id", "ghost"), "alpha.Users")],
        ids=["left", "right"],
    )
    def test_unknown_join_column(self, memory_catalog, kind, pair, table):
        path = make_path([ORDERS, USERS], [edge(ORDERS, USERS, kind, [pair])])
        with pytest.raises(UnknownTableError, match=f"'ghost' in table {table}"):
            execute_path(path, memory_catalog)

    def test_empty_path(self, memory_catalog):
        path = JoinPath(tables=(), edges=(), total_weight=0.0, retained_percentage=1.0)
        with pytest.raises(UnknownTableError):
            execute_path(path, memory_catalog)

    def test_edge_of_another_hop_is_rejected(self):
        # R1 and R2 both have a "k", so joining L -> R2 on the L -- R1 edge
        # would find rows.
        left = make_table("L", {"k": ["1"]})
        r1 = make_table("R1", {"k": ["1"], "a": ["x"]})
        r2 = make_table("R2", {"k": ["1"], "b": ["y"]})
        cat = Catalog(databases=(Database("d", (left, r1, r2)),))
        lr, r1r, r2r = TableRef("d", "L"), TableRef("d", "R1"), TableRef("d", "R2")
        path = make_path([lr, r2r], [edge(lr, r1r, EdgeKind.FK, [("k", "k")])])
        with pytest.raises(ValueError, match=r"edge 1 joins d\.L -- d\.R1, not d\.L -> d\.R2"):
            execute_path(path, cat)

    def test_trailing_table_is_rejected(self, memory_catalog):
        path = make_path([ORDERS, USERS, PEOPLE], [FK_EDGE])
        with pytest.raises(ValueError, match="1 edge"):
            execute_path(path, memory_catalog)

    def test_too_few_tables_are_rejected(self, memory_catalog):
        path = make_path([ORDERS, USERS], [FK_EDGE, FUZZY_EDGE])
        with pytest.raises(ValueError, match="2 edge"):
            execute_path(path, memory_catalog)


# Cells that csv.writer quotes (comma, quote, CR, LF), NUL, which it
# rejects on Python 3.10 and writes bare on 3.11+, and cells it leaves
# bare although they look awkward (space, é, U+0085, U+2028).
_CELLS = st.one_of(
    st.just(""),
    st.text(alphabet=["a", ",", '"', "\r", "\n", "\x00", " ", "\u00e9", "\u0085", "\u2028"], max_size=4),
)


def reference_csv(result: ResultTable, fh, limit: int | None = None) -> int:
    """``write_csv`` as it was written before rows were joined in C:
    ``csv.writer`` over the header and every row."""
    rows = result.rows if limit is None else result.rows[: max(limit, 0)]
    writer = csv.writer(fh)
    writer.writerow(result.header())
    writer.writerows(rows)
    return len(rows)


def csv_outcome(write, result: ResultTable, limit: int | None = None):
    """What ``write`` returns and leaves in a buffer, or what it raises."""
    buf = io.StringIO()
    try:
        return write(result, buf, limit), buf.getvalue()
    except Exception as exc:  # the oracle compares any error
        return type(exc), str(exc), buf.getvalue()


class TestWriteCsv:
    @pytest.fixture
    def result(self, memory_catalog):
        path = make_path([ORDERS, USERS], [FK_EDGE])
        return execute_path(path, memory_catalog)

    def test_round_trips_through_reader(self, result, tmp_path):
        out = tmp_path / "join.csv"
        written = write_csv(result, out)
        assert written == 3
        with out.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == result.header()
        assert [tuple(r) for r in rows[1:]] == result.rows

    def test_crlf_line_endings(self, result, tmp_path):
        out = tmp_path / "join.csv"
        write_csv(result, out)
        assert out.read_bytes().count(b"\r\n") == 4

    def test_limit(self, result):
        buf = io.StringIO()
        assert write_csv(result, buf, limit=2) == 2
        lines = buf.getvalue().splitlines()
        assert len(lines) == 3  # header + 2 rows

    def test_limit_zero_and_negative(self, result):
        for limit in (0, -5):
            buf = io.StringIO()
            assert write_csv(result, buf, limit=limit) == 0
            assert len(buf.getvalue().splitlines()) == 1

    def test_accepts_string_path(self, result, tmp_path):
        out = tmp_path / "by_name.csv"
        write_csv(result, str(out))
        assert out.exists()

    def test_quotes_awkward_cells(self, tmp_path):
        table = ResultTable(
            columns=[(USERS, "a"), (USERS, "b")],
            rows=[('say "hi"', "one,two")],
        )
        out = tmp_path / "quoted.csv"
        write_csv(table, out)
        with out.open(newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh))[1] == ['say "hi"', "one,two"]

    @given(
        st.lists(st.lists(_CELLS, max_size=4).map(tuple), max_size=8),
        st.sampled_from([None, -1, 0, 1, 3]),
        st.sampled_from([1, 2, _BLOCK_ROWS]),
    )
    @settings(max_examples=500)
    def test_matches_csv_writer_on_random_rows(self, rows, limit, block_rows):
        table = ResultTable(columns=[(USERS, "a"), (USERS, "b")], rows=rows)
        with mock.patch("joinscout.catalog._BLOCK_ROWS", block_rows):
            assert csv_outcome(write_csv, table, limit) == csv_outcome(reference_csv, table, limit)

    @pytest.mark.parametrize(
        "row", [("",), (), ("", ""), ("a", 1), (None, "b"), ("a", "b"), ("a,b", "c")]
    )
    def test_matches_csv_writer_on_pinned_rows(self, row):
        table = ResultTable(columns=[(USERS, "a"), (USERS, "b")], rows=[("x", "y"), row, ("z", "w")])
        assert csv_outcome(write_csv, table) == csv_outcome(reference_csv, table)

    @pytest.mark.parametrize("block_rows", [1, 2])
    def test_block_boundaries(self, monkeypatch, block_rows):
        monkeypatch.setattr("joinscout.catalog._BLOCK_ROWS", block_rows)
        rows = [("a", "b"), ("c,d", "e"), ("f", "g"), ("h", "i"), ("j", "k"), ('"', "l"), ("m", "n")]
        table = ResultTable(columns=[(USERS, "a"), (USERS, "b")], rows=rows)
        for limit in (None, 1, 2, 3, 4, 5):
            assert csv_outcome(write_csv, table, limit) == csv_outcome(reference_csv, table, limit)

    def test_matches_csv_writer_on_every_reachable_pair(self, generated):
        catalog, cfg, paths = generated
        quoted = 0
        for path in paths:
            result = execute_path(path, catalog, cfg)
            written, text = csv_outcome(write_csv, result)
            assert (written, text) == csv_outcome(reference_csv, result)
            quoted += '"' in text
        # Some outputs quote a cell, so both paths of the writer are exercised.
        assert quoted > 0


def reference_join(path: JoinPath, catalog: Catalog, threshold: float) -> ResultTable:
    """Brute-force ``execute_path``: a nested-loop equi-join for each FK hop,
    and ``token_sort_ratio`` of every left row against every right row for
    each fuzzy hop, the best score winning and ties going to the smallest
    right value, then to its first row.  A value whose sorted-token form
    is empty matches nothing."""
    start = catalog.table(path.tables[0])
    columns = [(path.tables[0], n) for n in start.column_names]
    # Each output row, with the raw row of the table joined last.
    rows = [(tuple(r), tuple(r)) for r in start.rows()]
    score_columns = []
    for hop, e in enumerate(path.edges, start=1):
        left, right = catalog.table(path.tables[hop - 1]), catalog.table(path.tables[hop])
        pairs = e.columns_from(path.tables[hop - 1])
        lpos = [left.column_names.index(l) for l, _ in pairs]
        rpos = [right.column_names.index(r) for _, r in pairs]
        right_rows = [tuple(r) for r in right.rows()]
        joined = []
        if e.kind is EdgeKind.FK:
            keep = [i for i in range(len(right.column_names)) if i not in rpos]
            for out, last in rows:
                lkey = [last[p] for p in lpos]
                for rrow in right_rows:
                    if all(lkey) and lkey == [rrow[p] for p in rpos]:
                        joined.append((out + tuple(rrow[i] for i in keep), rrow))
            columns += [(path.tables[hop], right.column_names[i]) for i in keep]
        else:
            (lp,), (rp,) = lpos, rpos
            for out, last in rows:
                best = None
                for rrow in right_rows:
                    if sorted_token_form(last[lp]) and sorted_token_form(rrow[rp]):
                        key = (-token_sort_ratio(last[lp], rrow[rp]), rrow[rp])
                        if best is None or key < best[0]:
                            best = (key, rrow)
                if best is not None and -best[0][0] >= threshold:
                    joined.append((out + best[1] + (f"{-best[0][0]:.3f}",), best[1]))
            score_columns.append(f"_fuzzy_score_{hop}")
            columns += [(path.tables[hop], n) for n in right.column_names]
            columns.append((path.tables[hop], score_columns[-1]))
        rows = joined
    return ResultTable(columns, [out for out, _ in rows], score_columns)


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """A scale-1 seed-0 ``fuzzgen`` catalog and the join path of each of its
    reachable ordered table pairs, discovered with the default config."""
    catalog = generate_catalog(tmp_path_factory.mktemp("generated"), seed=0, scale=1)
    cfg = MatchConfig()
    _, _, graph = discover(catalog, cfg)
    refs = sorted({e.left for e in graph.edges} | {e.right for e in graph.edges}, key=str)
    paths = [shortest_path(graph, source, target) for source, target in itertools.permutations(refs, 2)]
    return catalog, cfg, [path for path in paths if path is not None]


class TestBruteForceOracle:
    def test_every_reachable_pair_of_a_generated_catalog(self, generated):
        catalog, cfg, paths = generated
        kinds = set()
        for path in paths:
            source, target = path.tables[0], path.tables[-1]
            kinds.update(e.kind for e in path.edges)
            got = execute_path(path, catalog, cfg)
            want = reference_join(path, catalog, cfg.row_threshold)
            assert got.columns == want.columns
            assert got.rows == want.rows, (source, target)
            assert got.fuzzy_score_columns == want.fuzzy_score_columns
        assert kinds == {EdgeKind.FK, EdgeKind.FUZZY}

    def test_composite_key_with_a_blank_part_on_the_right(self):
        # The right table holds the same blank-part keys as the left; only
        # the complete key may match.
        left = make_table("L", {"k1": ["a", "a", ""], "k2": ["", "1", "2"], "v": ["p", "q", "r"]})
        right = make_table(
            "R", {"k1": ["a", "", "a"], "k2": ["", "2", "1"], "w": ["blank k2", "blank k1", "ok"]}
        )
        cat = Catalog(databases=(Database("d", (left, right)),))
        lr, rr = TableRef("d", "L"), TableRef("d", "R")
        path = make_path([lr, rr], [edge(lr, rr, EdgeKind.FK, [("k1", "k1"), ("k2", "k2")])])
        result = execute_path(path, cat)
        assert result.rows == [("a", "1", "q", "ok")]
        assert result == reference_join(path, cat, MatchConfig().row_threshold)


# Raw values that share a sorted-token form ("b a", "A, B"), whose form is
# empty ("--"), or whose form takes two or three uint64 words (over 64 or
# over 128 characters), among random ones.
_VALUES = st.one_of(
    st.sampled_from(["b a", "A, B", "a b", "--", "", "x" * 70, "b " * 40, "Ab " * 30]),
    st.text(alphabet="abAB ,-", max_size=12),
    st.text(alphabet="ab c", min_size=60, max_size=80),
    st.text(alphabet="ab c", min_size=130, max_size=200),
)
_KEYS = st.sampled_from(["", "1", "2", "3"])
LEFT, FUZZY_RIGHT, FK_RIGHT = TableRef("d", "L"), TableRef("d", "R"), TableRef("d", "F")
LEFT_TO_FUZZY = edge(LEFT, FUZZY_RIGHT, EdgeKind.FUZZY, [("name", "label")])
LEFT_TO_FK = edge(LEFT, FK_RIGHT, EdgeKind.FK, [("k", "k")])


@st.composite
def small_catalogs(draw):
    """``L(k, name)``, ``R(label, rid)`` and ``F(k, extra...)``: L meets R
    on a fuzzy edge and F on a foreign key, with 0 to 3 extra F columns."""

    def table(name, columns):
        rows = draw(st.integers(0, 5))
        return make_table(name, {col: draw(st.lists(values, min_size=rows, max_size=rows))
                                 for col, values in columns.items()})

    extras = draw(st.integers(0, 3))
    return Catalog(databases=(Database("d", (
        table("L", {"k": _KEYS, "name": _VALUES}),
        table("R", {"label": _VALUES, "rid": _KEYS}),
        table("F", {"k": _KEYS, **{f"extra{i}": _VALUES for i in range(extras)}}),
    )),))


# Both directions of each edge, alone and after the other edge.  A hop
# into F keeps F's extra columns; a hop into L keeps its one name column.
_PATHS = [
    make_path([LEFT, FUZZY_RIGHT], [LEFT_TO_FUZZY]),
    make_path([FUZZY_RIGHT, LEFT], [LEFT_TO_FUZZY]),
    make_path([LEFT, FK_RIGHT], [LEFT_TO_FK]),
    make_path([FK_RIGHT, LEFT], [LEFT_TO_FK]),
    make_path([FK_RIGHT, LEFT, FUZZY_RIGHT], [LEFT_TO_FK, LEFT_TO_FUZZY]),
    make_path([FUZZY_RIGHT, LEFT, FK_RIGHT], [LEFT_TO_FUZZY, LEFT_TO_FK]),
]


class TestAgainstReferenceJoin:
    @given(small_catalogs(), st.sampled_from(_PATHS), st.sampled_from([0.0, 0.5, 1.0]))
    @settings(max_examples=300)
    def test_random_small_catalogs(self, catalog, path, threshold):
        got = execute_path(path, catalog, MatchConfig(row_threshold=threshold))
        assert got == reference_join(path, catalog, threshold)

    def test_kernel_sees_only_left_values_without_an_exact_partner(self, kernel_calls):
        left = make_table("L", {"name": ["b a", "Carol White", "A, B", "zed", "--"]})
        right = make_table("R", {"label": ["a b", "Carol Whyte", "--", "zed q"]})
        cat, path = one_fuzzy_hop(left, right)
        result = execute_path(path, cat)
        # Right forms come in the order of their smallest raw values; "--"
        # has the empty form, which is left out on both sides.
        assert kernel_calls == [(["carol white", "zed"], ["carol whyte", "a b", "q zed"])]
        assert result == reference_join(path, cat, MatchConfig().row_threshold)

    def test_exact_forms_take_the_first_row_of_the_smallest_right_value(self, kernel_calls):
        # Every left form but the empty one has a right partner, so the
        # kernel never runs.  "B A" sorts before "a b"; "--" and "-" have
        # the empty form and match nothing.
        left = make_table("L", {"name": ["b a", "--", "A, B"]})
        right = make_table(
            "R", {"label": ["x", "a b", "--", "B A", "-", "B A"], "rid": list("123456")}
        )
        cat, path = one_fuzzy_hop(left, right)
        result = execute_path(path, cat)
        assert kernel_calls == []
        assert result.rows == [
            ("b a", "B A", "4", "1.000"),
            ("A, B", "B A", "4", "1.000"),
        ]
        assert result == reference_join(path, cat, MatchConfig().row_threshold)

    def test_kernel_sees_each_distinct_form_once(self, kernel_calls):
        # Two left values of one form with no exact partner; two right
        # forms, each held by two values.
        left = make_table("L", {"name": ["Smith, Jon", "jon smith"]})
        right = make_table(
            "R", {"label": ["jon smyth", "Doe Jane", "Smyth, Jon", "jane doe"], "rid": list("1234")}
        )
        cat, path = one_fuzzy_hop(left, right)
        result = execute_path(path, cat)
        assert kernel_calls == [(["jon smith"], ["doe jane", "jon smyth"])]
        assert result.rows == [
            ("Smith, Jon", "Smyth, Jon", "3", "0.889"),
            ("jon smith", "Smyth, Jon", "3", "0.889"),
        ]
        assert result == reference_join(path, cat, MatchConfig().row_threshold)


def one_fuzzy_hop(left, right):
    """A catalog of ``left`` and ``right`` and the path of one fuzzy hop
    from ``left``'s ``name`` column to ``right``'s ``label`` column."""
    cat = Catalog(databases=(Database("d", (left, right)),))
    lr, rr = TableRef("d", "L"), TableRef("d", "R")
    return cat, make_path([lr, rr], [edge(lr, rr, EdgeKind.FUZZY, [("name", "label")])])


@pytest.fixture
def kernel_calls(monkeypatch):
    """The left and right forms of each ``similarity_matrix`` call during
    the test.  The spy replaces the kernel both in the executor and in the
    module that defines it, so a call is recorded whichever module the
    fuzzy hop looks the kernel up in."""
    calls = []
    kernel = similarity.similarity_matrix

    def spy(left_forms, right_forms):
        calls.append((list(left_forms), list(right_forms)))
        return kernel(left_forms, right_forms)

    monkeypatch.setattr(similarity, "similarity_matrix", spy)
    monkeypatch.setattr(executor, "similarity_matrix", spy, raising=False)
    return calls
