"""Row-level validation: value scores, fuzzy Jaccard, sampling, orchestration.

Oracles here are deliberately naive re-implementations: a nested-loop
max/mean for value_score, an exhaustive optimal matching (all
permutations) for the greedy fuzzy intersection, and a sort of Python
tuples for the greedy order.
"""

from __future__ import annotations

import itertools

import pytest
from conftest import make_table
from hypothesis import example, given, settings
from hypothesis import strategies as st

from joinscout import similarity, validation
from joinscout.catalog import Catalog, ColumnRef, Database
from joinscout.fuzzgen import generate_catalog
from joinscout.graph import discover
from joinscout.matching import ColumnMatch, MatchConfig
from joinscout.similarity import similarity_matrix, sorted_token_form, token_sort_ratio
from joinscout.validation import (
    ValidationResult,
    fuzzy_jaccard,
    sample_distinct,
    validate_many,
    value_score,
)

def has_form(value):
    """Whether ``value`` has a non-empty sorted-token form: a value without
    one is no value to validation and to the fuzzy hop."""
    return sorted_token_form(value) != ""


def brute_value_score(lefts, rights):
    lefts = [v for v in lefts if has_form(v)]
    rights = [v for v in rights if has_form(v)]
    return sum(max(token_sort_ratio(l, r) for r in rights) for l in lefts) / len(lefts)


def assert_value_score_is_brute(lefts, rights):
    """``value_score`` equals the brute force, or raises when a side has
    no value whose form is non-empty."""
    if any(map(has_form, lefts)) and any(map(has_form, rights)):
        assert value_score(lefts, rights) == brute_value_score(lefts, rights)
    else:
        with pytest.raises(ValueError, match="non-empty values"):
            value_score(lefts, rights)


NAMES = ["John Smith", "Smith John", "Jon Smith", "Mary Jones", "Amoxicillin",
         "Amoksillin", "Fox-Medina", "Fox-Medina Clinic", "widget", "gadget",
         "x", "zz top", "John  Smith ", "SMITH, JOHN"]
names = st.sampled_from(NAMES)
# Values whose sorted-token form is empty: validation drops them.
FORMLESS = ["--", "-", "«—»"]


def spy_kernel(monkeypatch):
    """The (left forms, right forms) of each ``similarity_matrix`` call
    that validation makes from now on."""
    calls = []

    def spy(left_forms, right_forms):
        calls.append((list(left_forms), list(right_forms)))
        return similarity_matrix(left_forms, right_forms)

    monkeypatch.setattr(validation, "similarity_matrix", spy)
    return calls


class TestValueScore:
    def test_exact_match_scores_one(self):
        assert value_score(["John Smith"], ["Smith John"]) == 1.0

    def test_disjoint_scores_low(self):
        assert value_score(["abc"], ["xyz"]) == 0.0

    def test_left_mean_counts_duplicates(self):
        # Two copies of a perfect match and one miss: (1 + 1 + 0) / 3.
        got = value_score(["abc", "abc", "qqq"], ["abc"])
        assert got == pytest.approx(2 / 3, abs=1e-12)

    def test_asymmetric_by_design(self):
        lefts = ["John Smith", "Mary Jones"]
        rights = ["John Smith"]
        assert value_score(lefts, rights) < value_score(rights, lefts)

    def test_empty_sides_raise(self):
        with pytest.raises(ValueError, match="non-empty values"):
            value_score([], ["x"])
        with pytest.raises(ValueError, match="non-empty values"):
            value_score(["x"], ["", ""])

    def test_values_whose_form_is_empty_match_nothing(self):
        # "«—»", "_·_" and "--" have no letter or digit, so their forms are
        # empty, and a value whose form is empty is no value.
        with pytest.raises(ValueError, match="non-empty values"):
            value_score(["«—»"], ["_·_"])
        with pytest.raises(ValueError, match="non-empty values"):
            value_score(["x"], ["--", "_·_"])
        assert value_score(["«—»", "b a"], ["_·_", "a b"]) == 1.0
        assert value_score(["--", "abc"], ["-", "xyz"]) == 0.0

    def test_accented_and_other_script_values_fold(self):
        lefts = ["José Müller", "Zoë", "Иван Петров"]
        rights = ["muller jose", "ZOE", "Петров Иван", "张伟"]
        assert value_score(lefts, rights) == 1.0
        assert fuzzy_jaccard(set(lefts), set(rights), 1.0) == 3 / 4

    @given(
        st.lists(st.sampled_from(NAMES + FORMLESS), min_size=1, max_size=8),
        st.lists(st.sampled_from(NAMES + FORMLESS), min_size=1, max_size=8),
    )
    @settings(max_examples=150)
    def test_matches_brute_force_exactly(self, lefts, rights):
        # Repeated values and repeated forms: more left rows of one form
        # than right rows of it, and values whose form is empty.
        assert_value_score_is_brute(lefts, rights)

    @given(
        st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=6),
        st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=6),
    )
    @settings(max_examples=100)
    def test_arbitrary_text_matches_brute_force(self, lefts, rights):
        assert_value_score_is_brute(lefts, rights)

    @given(st.lists(names, min_size=1, max_size=8), st.lists(names, min_size=1, max_size=8))
    def test_range(self, lefts, rights):
        assert 0.0 <= value_score(lefts, rights) <= 1.0

    def test_kernel_scores_only_forms_without_an_exact_partner(self, monkeypatch):
        calls = spy_kernel(monkeypatch)
        got = value_score(["b a", "x y"], ["a b", "x z"])
        assert got == brute_value_score(["b a", "x y"], ["a b", "x z"])
        assert calls == [(["x y"], ["a b", "x z"])]

    def test_no_kernel_call_when_every_left_form_has_a_free_partner(self, monkeypatch):
        calls = spy_kernel(monkeypatch)
        assert value_score(["b a", "C", "a b"], ["c", "a b", "A, B", "x"]) == 1.0
        assert calls == []
        # A third "a b" finds both partners taken, so it is scored.
        assert value_score(["b a", "a b", "B A"], ["a b", "A, B", "x"]) == 1.0
        assert calls == [(["a b"], ["a b", "a b", "x"])]


def brute_best_matching(lefts, rights, threshold):
    """Maximum one-to-one matching size, by trying every assignment."""
    lefts, rights = sorted(set(lefts)), sorted(set(rights))
    sims = {
        (l, r): token_sort_ratio(l, r)
        for l in lefts
        for r in rights
    }
    best = 0
    smaller, larger, flip = (
        (lefts, rights, False) if len(lefts) <= len(rights) else (rights, lefts, True)
    )
    for perm in itertools.permutations(larger, len(smaller)):
        size = sum(
            1
            for a, b in zip(smaller, perm)
            if sims[(b, a) if flip else (a, b)] >= threshold
        )
        best = max(best, size)
    return best


def tuple_sort_fuzzy_jaccard(left_values, right_values, row_threshold):
    """Reference greedy order: sort ``(-sim, a, b, lv, rv)`` tuples, where
    ``(a, b)`` is the value pair in sorted order, and lock pairs in."""
    lefts = sorted(v for v in set(left_values) if has_form(v))
    rights = sorted(v for v in set(right_values) if has_form(v))
    sims = similarity_matrix(
        [sorted_token_form(v) for v in lefts], [sorted_token_form(v) for v in rights]
    )
    scored = []
    for i, lv in enumerate(lefts):
        for j, rv in enumerate(rights):
            sim = float(sims[i, j])
            if sim >= row_threshold:
                a, b = (lv, rv) if lv <= rv else (rv, lv)
                scored.append((-sim, a, b, lv, rv))
    scored.sort()
    used_left, used_right = set(), set()
    matched = 0
    for _, _, _, lv, rv in scored:
        if lv in used_left or rv in used_right:
            continue
        used_left.add(lv)
        used_right.add(rv)
        matched += 1
    return matched / (len(lefts) + len(rights) - matched)


# Raw values of one or two short tokens in either order and case: many
# share a sorted-token form ("b a", "A, B" and "a b" all sort to "a b"), so
# equal similarities, and ties in the greedy order, are the common case.
# "--" and "-" have the empty form.
tied_values = st.sampled_from(
    [
        sep.join(tokens).upper() if upper else sep.join(tokens)
        for n in (1, 2)
        for tokens in itertools.product(["a", "b", "ab", "ba", "c"], repeat=n)
        for sep in (" ", ", ")
        for upper in (False, True)
    ]
    + ["--", "-"]
)


class TestFuzzyJaccard:
    def test_known_example(self):
        got = fuzzy_jaccard({"John Smith", "Amoxicillin"}, {"Smith John", "Ibuprofen"}, 0.5)
        assert got == pytest.approx(1 / 3, abs=1e-12)

    def test_identical_sets(self):
        assert fuzzy_jaccard({"a", "b"}, {"a", "b"}, 0.9) == 1.0

    def test_no_overlap(self):
        assert fuzzy_jaccard({"abc"}, {"xyz"}, 0.5) == 0.0

    def test_threshold_inclusive(self):
        # "Amoxicillin" vs "Amoksillin" sits at exactly 16/21.
        sim = token_sort_ratio("Amoxicillin", "Amoksillin")
        assert fuzzy_jaccard({"Amoxicillin"}, {"Amoksillin"}, sim) == 1.0
        assert fuzzy_jaccard({"Amoxicillin"}, {"Amoksillin"}, sim + 1e-9) == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="non-empty values"):
            fuzzy_jaccard(set(), {"x"}, 0.5)
        with pytest.raises(ValueError, match="non-empty values"):
            fuzzy_jaccard({""}, {"x"}, 0.5)
        with pytest.raises(ValueError, match="non-empty values"):
            fuzzy_jaccard({"«—»"}, {"_·_"}, 0.5)

    def test_values_whose_form_is_empty_are_left_out(self):
        # "--" and "-" neither match each other nor count in |L| or |R|.
        assert fuzzy_jaccard({"--", "a"}, {"-", "a"}, 0.5) == 1.0
        assert fuzzy_jaccard({"--", "a"}, {"a", "b"}, 0.5) == 0.5

    @given(
        st.sets(names, min_size=1, max_size=6),
        st.sets(names, min_size=1, max_size=6),
        st.sampled_from([0.3, 0.5, 0.8]),
    )
    @settings(max_examples=150)
    def test_symmetric(self, lefts, rights, threshold):
        assert fuzzy_jaccard(lefts, rights, threshold) == fuzzy_jaccard(
            rights, lefts, threshold
        )

    @given(
        st.sets(names, min_size=1, max_size=5),
        st.sets(names, min_size=1, max_size=5),
        st.sampled_from([0.3, 0.5, 0.8]),
    )
    @settings(max_examples=60, deadline=None)
    def test_greedy_never_exceeds_optimal(self, lefts, rights, threshold):
        s = fuzzy_jaccard(lefts, rights, threshold)
        L, R = len(lefts), len(rights)
        m_greedy = round(s * (L + R) / (1 + s))
        assert m_greedy <= brute_best_matching(lefts, rights, threshold)

    def test_greedy_is_optimal_when_unambiguous(self):
        lefts = {"alpha beta", "gamma delta", "epsilon zeta"}
        rights = {"beta alpha", "delta gamma", "unrelated thing"}
        s = fuzzy_jaccard(lefts, rights, 0.95)
        assert s == pytest.approx(2 / 4, abs=1e-12)

    @given(
        st.sets(tied_values, min_size=1, max_size=12),
        st.sets(tied_values, min_size=1, max_size=12),
        st.sampled_from([0.5, 0.6, 0.8, 1.0]),
    )
    @settings(max_examples=400)
    def test_greedy_order_matches_tuple_sort(self, lefts, rights, threshold):
        if any(map(has_form, lefts)) and any(map(has_form, rights)):
            assert fuzzy_jaccard(lefts, rights, threshold) == tuple_sort_fuzzy_jaccard(
                lefts, rights, threshold
            )
        else:
            with pytest.raises(ValueError, match="non-empty values"):
                fuzzy_jaccard(lefts, rights, threshold)

    def test_kernel_scores_only_forms_without_an_exact_partner(self, monkeypatch):
        calls = spy_kernel(monkeypatch)
        got = fuzzy_jaccard(["b a", "x y"], ["a b", "x z"], 0.5)
        assert got == tuple_sort_fuzzy_jaccard(["b a", "x y"], ["a b", "x z"], 0.5) == 1.0
        assert calls == [(["x y"], ["a b", "x z"])]

    def test_no_kernel_call_when_every_left_form_has_a_free_partner(self, monkeypatch):
        calls = spy_kernel(monkeypatch)
        assert fuzzy_jaccard({"b a", "C", "a b"}, {"c", "a b", "A, B", "x"}, 0.5) == 3 / 4
        assert calls == []

    @pytest.mark.parametrize(
        "lefts, rights",
        [
            # Three cells at 2/3 in a path a - ba - b - bc: taking the middle
            # cell (b, ba) first would match one pair, not two.
            ({"a", "b"}, {"ba", "bc"}),
            # Three cells at 1/2 in a path "a b" - a - "c a" - c.
            ({"a", "c"}, {"a b", "c a"}),
        ],
    )
    def test_ties_sharing_a_value_follow_the_sorted_pair(self, lefts, rights):
        assert fuzzy_jaccard(lefts, rights, 0.5) == 1.0
        assert fuzzy_jaccard(rights, lefts, 0.5) == 1.0
        assert tuple_sort_fuzzy_jaccard(lefts, rights, 0.5) == 1.0

    def test_reduces_to_classical_jaccard(self):
        # Single-token values: similarity 1.0 happens only on equality, so
        # threshold 1.0 turns the soft overlap into plain set Jaccard.
        lefts = {"aa", "bb", "cc", "dd"}
        rights = {"cc", "dd", "ee"}
        classical = len(lefts & rights) / len(lefts | rights)
        assert fuzzy_jaccard(lefts, rights, 1.0) == pytest.approx(classical, abs=1e-12)


class TestSampleDistinct:
    def test_small_input_passthrough_sorted(self):
        assert sample_distinct(["b", "a", "b", ""], 10, "k") == ["a", "b"]

    def test_caps_size(self):
        values = [f"v{i:03d}" for i in range(100)]
        out = sample_distinct(values, 10, "seed:x")
        assert len(out) == 10
        assert out == sorted(out)
        assert set(out) <= set(values)

    def test_deterministic_per_key(self):
        values = [f"v{i:03d}" for i in range(100)]
        assert sample_distinct(values, 10, "a") == sample_distinct(values, 10, "a")
        assert sample_distinct(values, 10, "a") != sample_distinct(values, 10, "b")

    def test_row_order_irrelevant(self):
        values = [f"v{i:03d}" for i in range(50)]
        shuffled = list(reversed(values)) + values
        assert sample_distinct(values, 20, "k") == sample_distinct(shuffled, 20, "k")


def _match_for(catalog, left, right):
    return ColumnMatch(
        left=left, right=right, name_sim=1.0, semantic_sim=1.0,
        token_overlap=1.0, total_score=1.0,
    )


class TestValidate:
    def test_accepts_overlapping_names(self, memory_catalog):
        match = _match_for(
            memory_catalog,
            ColumnRef("alpha", "Users", "user_name"),
            ColumnRef("beta", "People", "full_name"),
        )
        [result] = validate_many([match], memory_catalog)
        users = ["John Smith", "Mary Jones", "Alice Brown"]
        people = ["Smith John", "Mary Jones", "Carol White"]
        assert result.value_score == brute_value_score(users, people)
        # "John Smith"~"Smith John" and "Mary Jones" exact: 2 matches of 3+3 values.
        assert result.overlap_s == pytest.approx(2 / 4, abs=1e-12)
        assert (result.sampled_left, result.sampled_right) == (3, 3)

    def test_rejects_dissimilar_values(self, memory_catalog):
        match = _match_for(
            memory_catalog,
            ColumnRef("alpha", "Orders", "item"),
            ColumnRef("beta", "People", "full_name"),
        )
        assert validate_many([match], memory_catalog) == []

    def test_rejects_empty_column(self, memory_catalog, tmp_path):
        empty = make_table("E", {"only": ["", "", ""]})
        cat = Catalog(
            databases=(
                memory_catalog.databases[0],
                Database(name="z", tables=(empty,)),
            )
        )
        match = _match_for(
            cat, ColumnRef("alpha", "Users", "user_name"), ColumnRef("z", "E", "only")
        )
        assert validate_many([match], cat) == []

    def test_rejects_columns_whose_values_have_empty_forms(self):
        # Every value on each side has the empty form, so neither side has
        # a value left.
        dashes = make_table("R", {"full_name": ["«—»", "–", "--"]})
        dots = make_table("C", {"full_name": ["·", "_·_", "…", "¿?"]})
        cat = Catalog(databases=(Database("dash", (dashes,)), Database("dot", (dots,))))
        match = _match_for(
            cat, ColumnRef("dash", "R", "full_name"), ColumnRef("dot", "C", "full_name")
        )
        assert validate_many([match], cat, MatchConfig(row_threshold=0.0)) == []

    def test_sample_cap_respected(self, memory_catalog):
        cfg = MatchConfig(sample_cap=2)
        match = _match_for(
            memory_catalog,
            ColumnRef("alpha", "Users", "user_name"),
            ColumnRef("beta", "People", "full_name"),
        )
        [result] = validate_many([match], memory_catalog, cfg)
        assert result.sampled_left == 2
        assert result.sampled_right == 2


class TestValidateMany:
    def _matches(self, catalog):
        return [
            _match_for(
                catalog,
                ColumnRef("alpha", "Users", "user_name"),
                ColumnRef("beta", "People", "full_name"),
            ),
            _match_for(
                catalog,
                ColumnRef("alpha", "Orders", "item"),
                ColumnRef("beta", "People", "full_name"),
            ),
        ]

    def test_serial_filters_rejections(self, memory_catalog):
        results = validate_many(self._matches(memory_catalog), memory_catalog)
        assert len(results) == 1
        assert results[0].match.left.column == "user_name"

    def test_only_one_job(self, memory_catalog):
        matches = self._matches(memory_catalog)
        with pytest.raises(ValueError, match="jobs"):
            validate_many(matches, memory_catalog, jobs=2)
        assert validate_many(matches, memory_catalog, jobs=1) == validate_many(
            matches, memory_catalog
        )

    def test_input_order_irrelevant(self, memory_catalog):
        matches = self._matches(memory_catalog)
        assert validate_many(matches, memory_catalog) == validate_many(
            list(reversed(matches)), memory_catalog
        )

    def test_columns_of_one_name_in_two_tables_keep_their_own_values(self, memory_catalog):
        # alpha.Staff.name and alpha.Stock.name share a column name, not
        # values; each is checked on its own sample against beta's column.
        staff = make_table("Staff", {"name": ["John Smith", "Mary Jones"]})
        stock = make_table("Stock", {"name": ["widget", "gadget", "sprocket"]})
        cat = Catalog((Database("alpha", (staff, stock)), memory_catalog.databases[1]))
        full_name = ColumnRef("beta", "People", "full_name")
        matches = [
            _match_for(cat, ColumnRef("alpha", table, "name"), full_name)
            for table in ("Stock", "Staff")
        ]
        [result] = validate_many(matches, cat)
        assert result.match is matches[1]
        people = ["Smith John", "Mary Jones", "Carol White"]
        assert result.value_score == brute_value_score(["John Smith", "Mary Jones"], people)
        assert (result.sampled_left, result.sampled_right) == (2, 3)
        assert validate_many(matches[:1], cat) == []
        assert validate_many(matches[1:], cat) == [result]


def test_each_distinct_sampled_value_is_token_formed_once_per_call(tmp_path, monkeypatch):
    # Every distinct sampled value is put in sorted-token form once, however
    # many candidate columns hold it: at seed 0, scale 1, 402 calls for the
    # 581 sampled values of the 13 columns of 8 candidates.
    calls = []

    def counting(text):
        calls.append(text)
        return sorted_token_form(text)

    monkeypatch.setattr(similarity, "sorted_token_form", counting)
    monkeypatch.setattr(validation, "sorted_token_form", counting, raising=False)
    catalog = generate_catalog(tmp_path, seed=0, scale=1)
    cfg = MatchConfig()
    candidates, _, _ = discover(catalog, cfg)
    columns = {ref for match in candidates for ref in (match.left, match.right)}
    sampled = [
        sample_distinct(catalog.column(ref).distinct_values, cfg.sample_cap, f"{cfg.seed}:{ref}")
        for ref in columns
    ]
    assert len(columns) == 13
    assert sum(map(len, sampled)) == 581
    assert sorted(calls) == sorted(set().union(*sampled))
    assert len(calls) == 402


def test_kernel_runs_once_per_right_column_on_pending_forms(tmp_path, monkeypatch):
    # At seed 0, scale 1 the 8 candidates have 5 right columns.  Left rows
    # with an exact-form partner never reach the kernel, and a form pending
    # in several candidates of one right column is scored once: 5 calls and
    # 6,450 cells, against one call and 20,268 cells over full matrices.
    calls = []

    def spy(left_forms, right_forms):
        calls.append((len(left_forms), len(right_forms)))
        return similarity_matrix(left_forms, right_forms)

    monkeypatch.setattr(similarity, "similarity_matrix", spy)
    monkeypatch.setattr(validation, "similarity_matrix", spy)
    catalog = generate_catalog(tmp_path, seed=0, scale=1)
    candidates, _, _ = discover(catalog, MatchConfig())
    assert len(candidates) == 8
    assert len({match.right for match in candidates}) == len(calls) == 5
    assert sum(rows * cols for rows, cols in calls) == 6450


def reference_validate_many(matches, catalog, cfg):
    """validate_many one candidate at a time, each on its full matrix:
    ``brute_value_score`` and ``tuple_sort_fuzzy_jaccard`` of its samples,
    less the values whose form is empty."""
    results = []
    for match in sorted(matches, key=lambda m: (m.left, m.right)):
        left, right = (
            [
                v
                for v in sample_distinct(
                    catalog.column(ref).distinct_values, cfg.sample_cap, f"{cfg.seed}:{ref}"
                )
                if has_form(v)
            ]
            for ref in (match.left, match.right)
        )
        if not left or not right:
            continue
        score = brute_value_score(left, right)
        if score < cfg.row_threshold:
            continue
        s = tuple_sort_fuzzy_jaccard(left, right, cfg.row_threshold)
        results.append(ValidationResult(match, score, s, len(left), len(right)))
    return results


# Cells of in-memory columns: raw values that share a sorted-token form
# ("b a", "A, B", "a b"), values whose form is empty ("--", "-"), near
# misses, the empty cell, which sampling drops, and values whose forms
# take one to three uint64 words: about 70 and about 140 characters.
shared_form_cells = st.sampled_from(
    ["a b", "b a", "A, B", "a", "b", "ab", "a c", "c a b", "--", "-", "",
     "jon smith", "Smith, Jon", "jon smyth", "x",
     "jon smith " * 7, "Smith, Jon, " * 7, "jon smyth " * 7 + "x",
     "jon smith " * 14, "jon smyth " * 14, "Jon Smith " * 13 + "a c"]
)


@st.composite
def shared_right_column_cases(draw):
    """A catalog of one-column tables, every left column matched against
    every right column (so several left columns share each right column),
    the matches in a drawn order, and a config."""
    column = st.lists(shared_form_cells, max_size=9)
    lefts = draw(st.lists(column, min_size=1, max_size=4))
    rights = draw(st.lists(column, min_size=1, max_size=2))
    catalog = Catalog(
        databases=tuple(
            Database(db, tuple(make_table(f"T{i}", {"v": cells}) for i, cells in enumerate(cols)))
            for db, cols in (("a", lefts), ("b", rights))
        )
    )
    matches = [
        _match_for(catalog, ColumnRef("a", f"T{i}", "v"), ColumnRef("b", f"T{j}", "v"))
        for i in range(len(lefts))
        for j in range(len(rights))
    ]
    config = MatchConfig(
        row_threshold=draw(st.sampled_from([0.0, 0.5, 0.6, 1.0])),
        sample_cap=draw(st.integers(1, 8)),
        seed=draw(st.integers(0, 3)),
    )
    return catalog, draw(st.permutations(matches)), config


def one_right_column_case(left_columns, right_cells, **config):
    catalog = Catalog(
        databases=(
            Database("a", tuple(make_table(f"T{i}", {"v": c}) for i, c in enumerate(left_columns))),
            Database("b", (make_table("T0", {"v": right_cells}),)),
        )
    )
    matches = [
        _match_for(catalog, ColumnRef("a", f"T{i}", "v"), ColumnRef("b", "T0", "v"))
        for i in range(len(left_columns))
    ]
    return catalog, matches, MatchConfig(**config)


@given(shared_right_column_cases())
# "b a" and "A, B" share the form "a b", which has one exact partner on the
# right: the second left row finds it taken and goes to the greedy.
@example(one_right_column_case([["b a", "A, B", "a c"], ["A, B", "x"]], ["a b", "c a", "x"]))
# Values whose form is empty are dropped from the samples: "--" and "-"
# match nothing, and a column of nothing else is rejected.
@example(one_right_column_case([["--", "-", "a b"]], ["-", "b a"], row_threshold=1.0))
@example(one_right_column_case([["--", "-"], ["a b", "-"]], ["-", "b a"], row_threshold=0.0))
# One left form of three uint64 words, one of two and one of one share
# the kernel call.
@example(one_right_column_case(
    [["jon smith " * 14, "jon smyth " * 7 + "x", "jon smith"]], ["jon smyth " * 14, "a b"]
))
@example(one_right_column_case([["b a", "x"]], ["a b", "x"], row_threshold=0.0))
# A cap that binds leaves some exact partners out of the right sample.
@example(one_right_column_case([["a b", "a", "x", "c a b"]], ["b a", "a", "x", "ab"], sample_cap=2))
@settings(max_examples=300, deadline=None)
def test_validate_many_equals_full_matrix_reference(case):
    catalog, matches, cfg = case
    assert validate_many(matches, catalog, cfg) == reference_validate_many(matches, catalog, cfg)


@pytest.mark.parametrize("scale", [1, 4])
def test_validate_many_equals_public_scores_on_catalogs(tmp_path, scale):
    # validate_many reads both scores off one matrix; they must equal the public
    # functions on the same samples, candidate by candidate.
    cfg = MatchConfig()
    for seed in range(12):
        catalog = generate_catalog(tmp_path / str(seed), seed=seed, scale=scale)
        candidates, validated, _ = discover(catalog, cfg)
        expected = []
        for match in sorted(candidates, key=lambda m: (m.left, m.right)):
            left = sample_distinct(
                catalog.column(match.left).values, cfg.sample_cap, f"{cfg.seed}:{match.left}"
            )
            right = sample_distinct(
                catalog.column(match.right).values, cfg.sample_cap, f"{cfg.seed}:{match.right}"
            )
            score = value_score(left, right)
            if score < cfg.row_threshold:
                continue
            s = fuzzy_jaccard(left, right, cfg.row_threshold)
            assert s == tuple_sort_fuzzy_jaccard(left, right, cfg.row_threshold)
            expected.append(ValidationResult(match, score, s, len(left), len(right)))
        assert expected
        assert repr(validated) == repr(expected)
