"""Row-level validation: value scores, fuzzy Jaccard, sampling, orchestration.

Oracles here are deliberately naive re-implementations: a nested-loop
max/mean for value_score, an exhaustive optimal matching (all
permutations) for the greedy fuzzy intersection, and a sort of Python
tuples for the greedy order.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from joinscout.catalog import ColumnRef
from joinscout.errors import EmptyColumnError
from joinscout.fuzzgen import generate_catalog
from joinscout.matching import (
    ColumnMatch,
    MatchConfig,
    candidate_pairs,
    filter_candidates,
    score_pair,
)
from joinscout.similarity import similarity_matrix, sorted_token_form, token_sort_ratio
from joinscout.validation import (
    ValidationResult,
    fuzzy_jaccard,
    sample_distinct,
    validate,
    validate_many,
    value_score,
)

def brute_value_score(lefts, rights):
    lefts = [v for v in lefts if v]
    rights = [v for v in rights if v]
    return sum(max(token_sort_ratio(l, r) for r in rights) for l in lefts) / len(lefts)


names = st.sampled_from(
    ["John Smith", "Smith John", "Jon Smith", "Mary Jones", "Amoxicillin",
     "Amoksillin", "Fox-Medina", "Fox-Medina Clinic", "widget", "gadget",
     "x", "zz top", "John  Smith ", "SMITH, JOHN"]
)


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
        with pytest.raises(EmptyColumnError):
            value_score([], ["x"])
        with pytest.raises(EmptyColumnError):
            value_score(["x"], ["", ""])

    @given(
        st.lists(names, min_size=1, max_size=8),
        st.lists(names, min_size=1, max_size=8),
    )
    @settings(max_examples=150)
    def test_matches_brute_force_exactly(self, lefts, rights):
        assert value_score(lefts, rights) == brute_value_score(lefts, rights)

    @given(
        st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=6),
        st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=6),
    )
    @settings(max_examples=100)
    def test_arbitrary_text_matches_brute_force(self, lefts, rights):
        assert value_score(lefts, rights) == brute_value_score(lefts, rights)

    @given(st.lists(names, min_size=1, max_size=8), st.lists(names, min_size=1, max_size=8))
    def test_range(self, lefts, rights):
        assert 0.0 <= value_score(lefts, rights) <= 1.0


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
    lefts = sorted({v for v in left_values if v})
    rights = sorted({v for v in right_values if v})
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
tied_values = st.sampled_from(
    [
        sep.join(tokens).upper() if upper else sep.join(tokens)
        for n in (1, 2)
        for tokens in itertools.product(["a", "b", "ab", "ba", "c"], repeat=n)
        for sep in (" ", ", ")
        for upper in (False, True)
    ]
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
        with pytest.raises(EmptyColumnError):
            fuzzy_jaccard(set(), {"x"}, 0.5)
        with pytest.raises(EmptyColumnError):
            fuzzy_jaccard({""}, {"x"}, 0.5)

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
        assert fuzzy_jaccard(lefts, rights, threshold) == tuple_sort_fuzzy_jaccard(
            lefts, rights, threshold
        )

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
        result = validate(match, memory_catalog)
        assert result is not None
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
        assert validate(match, memory_catalog) is None

    def test_rejects_empty_column(self, memory_catalog, tmp_path):
        from conftest import make_table
        from joinscout.catalog import Catalog, Database

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
        assert validate(match, cat) is None

    def test_sample_cap_respected(self, memory_catalog):
        cfg = MatchConfig(sample_cap=2)
        match = _match_for(
            memory_catalog,
            ColumnRef("alpha", "Users", "user_name"),
            ColumnRef("beta", "People", "full_name"),
        )
        result = validate(match, memory_catalog, cfg)
        if result is not None:
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


@pytest.mark.parametrize("scale", [1, 4])
def test_validate_many_equals_public_scores_on_catalogs(tmp_path, scale):
    # validate reads both scores off one matrix; they must equal the public
    # functions on the same samples, candidate by candidate.
    cfg = MatchConfig()
    for seed in range(12):
        catalog = generate_catalog(tmp_path / str(seed), seed=seed, scale=scale)
        scored = (score_pair(l, r, cfg) for l, r in candidate_pairs(catalog))
        candidates = filter_candidates(scored, cfg)
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
        assert repr(validate_many(candidates, catalog, cfg)) == repr(expected)
