"""Tests for the string-similarity primitives.

The LCS oracle here is the classic two-row dynamic program, written
independently of the bit-parallel implementation under test.
``gestalt_ratio`` is difflib's ratio, so its tests pin fixed examples only.
"""

from __future__ import annotations

import math
from difflib import SequenceMatcher

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from joinscout import similarity
from joinscout.similarity import (
    DEFAULT_SYNONYMS,
    gestalt_ratio,
    indel_ratio,
    lcs_length,
    name_signal_bounds,
    normalize,
    semantic_sim,
    similarity_matrix,
    sorted_token_form,
    token_overlap,
    token_set,
    token_sort_ratio,
)


def dp_lcs(a: str, b: str) -> int:
    """Reference LCS length: textbook two-row dynamic program."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for ca in a:
        cur = [0]
        for j, cb in enumerate(b, start=1):
            if ca == cb:
                cur.append(prev[j - 1] + 1)
            else:
                cur.append(max(prev[j], cur[-1]))
        prev = cur
    return prev[-1]


class TestNormalize:
    def test_lowercases_and_collapses(self):
        assert normalize("Hello,  World!") == "hello world"

    def test_underscores_become_spaces(self):
        assert normalize("clinic_name") == "clinic name"

    def test_strips_edges(self):
        assert normalize("__x__") == "x"

    def test_keeps_only_ascii_letters_and_digits(self):
        # "ü".isalnum() is True, yet normalisation drops every character
        # outside [0-9a-z] after lowercasing.
        assert sorted_token_form("Müller, José") == "jos ller m"
        assert token_set("patientNäme") == {"patient", "n", "me"}

    def test_empty(self):
        assert normalize("") == ""
        assert normalize("!!!") == ""

    @given(st.text(max_size=30))
    @example("İstanbul straße ΣΑΣ\x00 x😀y")
    @settings(max_examples=500)
    def test_sorted_token_form_sorts_the_normalized_tokens(self, text):
        assert sorted_token_form(text) == " ".join(sorted(normalize(text).split()))


class TestGestaltRatio:
    def test_identical(self):
        assert gestalt_ratio("abc", "abc") == 1.0

    def test_case_insensitive(self):
        assert gestalt_ratio("ABC", "abc") == 1.0

    def test_disjoint(self):
        assert gestalt_ratio("abc", "xyz") == 0.0

    def test_both_empty(self):
        assert gestalt_ratio("", "") == 1.0

    def test_one_empty(self):
        assert gestalt_ratio("", "abc") == 0.0

    def test_known_value(self):
        # 11 characters match in common blocks, lengths 11 + 20.
        got = gestalt_ratio("doctor_name", "assigned_doctor_name")
        assert got == pytest.approx(2 * 11 / 31, abs=1e-12)

    @given(st.text(max_size=30), st.text(max_size=30))
    def test_range(self, a, b):
        assert 0.0 <= gestalt_ratio(a, b) <= 1.0

    def test_asymmetric(self):
        # Block matching depends on argument order: one common character
        # one way round, two the other.
        assert gestalt_ratio("a_ac", "_ca") == 2 / 7
        assert gestalt_ratio("_ca", "a_ac") == 4 / 7

    def test_matches_difflib_past_autojunk_length(self):
        # At 200 characters difflib's autojunk would drop popular characters;
        # gestalt_ratio turns it off, so it differs from difflib's default.
        a = "patient_id_" * 20 + "x"
        b = "citizen_id__" * 19 + "patient"
        assert len(b) >= 200
        assert gestalt_ratio(a, b) != SequenceMatcher(None, a, b).ratio()

    def test_matches_difflib_when_lowercase_is_longer(self):
        # "İ".lower() is two characters, so lengths come from folded text.
        assert len("İ".lower()) == 2
        assert gestalt_ratio("İ", "i") == 2 / 3


class TestLcsLength:
    @pytest.mark.parametrize(
        "a,b,want",
        [
            ("", "", 0),
            ("a", "", 0),
            ("a", "a", 1),
            ("ab", "ba", 1),
            ("abc", "abc", 3),
            ("amoxicillin", "amoksillin", 8),
            ("abcdef", "badcfe", 3),
        ],
    )
    def test_pinned(self, a, b, want):
        assert lcs_length(a, b) == want
        assert lcs_length(b, a) == want

    @given(st.text(max_size=40), st.text(max_size=40))
    @settings(max_examples=300)
    def test_matches_dp(self, a, b):
        assert lcs_length(a, b) == dp_lcs(a, b)

    def test_long_strings(self):
        a = "abcde" * 40
        b = "edcba" * 40
        assert lcs_length(a, b) == dp_lcs(a, b)


class TestIndelRatio:
    def test_both_empty(self):
        assert indel_ratio("", "") == 1.0

    def test_known_value(self):
        # LCS("Amoxicillin", "Amoksillin") = 8, lengths 11 + 10.
        got = indel_ratio("Amoxicillin", "Amoksillin")
        assert got == pytest.approx(16 / 21, abs=1e-12)

    @given(st.text(max_size=30), st.text(max_size=30))
    def test_symmetric_and_in_range(self, a, b):
        r = indel_ratio(a, b)
        assert 0.0 <= r <= 1.0
        assert r == indel_ratio(b, a)


def dp_ratio(a: str, b: str) -> float:
    """Reference indel ratio built on :func:`dp_lcs`."""
    total = len(a) + len(b)
    return 1.0 if total == 0 else 2.0 * dp_lcs(a, b) / total


def assert_matches_dp(lefts: list[str], rights: list[str]) -> None:
    got = similarity_matrix(lefts, rights)
    assert got.shape == (len(lefts), len(rights))
    for i, a in enumerate(lefts):
        for j, b in enumerate(rights):
            assert got[i, j] == dp_ratio(a, b), (a, b)


class TestSimilarityMatrix:
    def test_empty_strings_either_side(self):
        assert_matches_dp(["", "abc", ""], ["", "abc", "xbz"])

    @pytest.mark.parametrize("length", [63, 64, 65])
    def test_lane_width_boundary(self, length):
        # 64 is the widest pattern a lane holds; 65 takes the fallback path.
        left = ("abcde" * 14)[:length]
        rights = [left, left[::-1], left[1:], "xyz", "", ("edcba" * 14)[:length]]
        assert_matches_dp([left, "ab", left[:-1]], rights)

    def test_repeated_characters(self):
        assert_matches_dp(["aaaa", "abab", "a" * 64], ["a", "aa", "baaab", "a" * 70, "bbbb"])

    def test_more_lanes_than_one_block(self):
        lefts = [f"{i:03d} smith" for i in range(70)]
        rights = [f"smith {i:02d}" for i in range(70)]
        assert len(lefts) * len(rights) > similarity._LANE_BLOCK
        assert_matches_dp(lefts, rights)

    def test_empty_lists(self):
        assert similarity_matrix([], ["a", "b"]).shape == (0, 2)
        assert similarity_matrix(["a", "b", "c" * 80], []).shape == (3, 0)
        assert similarity_matrix([], []).shape == (0, 0)

    @given(
        st.lists(st.text(alphabet="abc ", max_size=70), max_size=6),
        st.lists(st.text(alphabet="abcd ", max_size=70), max_size=6),
    )
    @settings(max_examples=150)
    def test_matches_dp(self, lefts, rights):
        assert_matches_dp(lefts, rights)

    @pytest.mark.parametrize("longest", range(22))
    def test_every_field_width(self, longest):
        # Left strings of every length up to ``longest`` share one call, so
        # the packing puts patterns of several lengths side by side in each
        # word.  Longest lengths 0-9, 11 and 15 fill a field up to its guard.
        lefts = [("abcab cabba" * 2)[:n] for n in range(longest + 1)]
        lefts += [("ba cab" * 4)[:n] for n in range(longest, -1, -1)]
        rights = ["", "a", "abc", "cab abba", "abcab cabba abcab", "ba cab" * 4, "c" * 25]
        assert_matches_dp(lefts, rights)

    def test_carries_cross_every_field(self):
        # "a" * k against "a" * 70 carries out of the top of its pattern on
        # every step past the k-th; the guard must stop it at the field.
        lefts = ["a" * k for k in range(22)] + ["ab" * 5, "ba" * 5, "a"]
        rights = ["a" * 70, "a" * 21, "a" * 22, "ab" * 35, "b" + "a" * 40, ""]
        assert_matches_dp(lefts, rights)

    def test_right_characters_no_left_has(self):
        lefts = ["abc", "cab", "", "aaa", "c b a"]
        rights = ["xyz", "axbycz", "", "q" * 30, "zzzabc", "c", "abc" + "é" * 9, "ba\x00c"]
        assert_matches_dp(lefts, rights)

    def test_more_packed_words_than_one_block(self):
        lefts = [f"{i:02d} smith and jones xyz"[:21] for i in range(12)]
        rights = [f"{j:03d} sm"[: 1 + j % 6] for j in range(700)]
        per_word = max(1, 64 // (max(map(len, lefts)) + 1))
        assert math.ceil(len(lefts) / per_word) * len(rights) > similarity._LANE_BLOCK
        assert_matches_dp(lefts, rights)

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_more_packed_words_than_the_block_size(self, monkeypatch, block):
        # Above _LANE_BLOCK words, each block of right strings is one string.
        monkeypatch.setattr(similarity, "_LANE_BLOCK", block)
        lefts = [("abcab cabba" * 2)[: n % 22] for n in range(40)] + ["a" * 40, "b" * 64]
        rights = ["", "a", "cab abba", "abcab cabba abcab", "c" * 25, "a" * 70]
        assert_matches_dp(lefts, rights)
        assert_matches_dp(lefts[:30], rights)

    @given(
        st.lists(st.text(alphabet="abc ", max_size=21), max_size=40),
        st.lists(st.text(alphabet="abcd ", max_size=24), max_size=6),
    )
    @settings(max_examples=60)
    def test_packed_matches_dp(self, lefts, rights):
        assert_matches_dp(lefts, rights)


class TestTokenSortRatio:
    def test_reorder_is_exact(self):
        assert token_sort_ratio("John Smith", "Smith John") == 1.0

    def test_case_and_punctuation_ignored(self):
        assert token_sort_ratio("smith, JOHN", "John Smith") == 1.0

    def test_known_value(self):
        # Sorted forms: "allen and blair reed" vs "allen blair reed",
        # LCS = 16, lengths 20 + 16.
        got = token_sort_ratio("Reed, Blair and Allen", "Allen Reed Blair")
        assert got == pytest.approx(32 / 36, abs=1e-12)

    def test_sorted_token_form(self):
        assert sorted_token_form("Reed, Blair and Allen") == "allen and blair reed"

    @given(
        st.lists(st.text(alphabet="abcdef", min_size=1, max_size=6), min_size=1, max_size=5),
        st.randoms(use_true_random=False),
    )
    def test_token_order_invariance(self, tokens, rng):
        shuffled = list(tokens)
        rng.shuffle(shuffled)
        assert token_sort_ratio(" ".join(tokens), " ".join(shuffled)) == 1.0


# Raw values that share a sorted-token form ("b a", "A, B"), whose form is
# empty ("--"), or whose form is over 64 characters, among random ones.
_TOKEN_VALUES = st.one_of(
    st.sampled_from(["b a", "A, B", "a b", "--", "", "x" * 70, "b " * 40, "Ab " * 30]),
    st.text(alphabet="abAB ,-", max_size=20),
    st.text(alphabet="ab c", min_size=60, max_size=90),
)


def token_sort_matrix(lefts, rights):
    """``similarity_matrix`` over the sorted-token forms, as validation runs it."""
    return similarity_matrix(
        [sorted_token_form(v) for v in lefts], [sorted_token_form(v) for v in rights]
    )


class TestTokenSortMatrix:
    @given(st.lists(_TOKEN_VALUES, max_size=8), st.lists(_TOKEN_VALUES, max_size=8))
    @settings(max_examples=200)
    def test_matches_token_sort_ratio(self, lefts, rights):
        got = token_sort_matrix(lefts, rights)
        assert got.shape == (len(lefts), len(rights))
        for i, left in enumerate(lefts):
            for j, right in enumerate(rights):
                assert got[i, j] == token_sort_ratio(left, right)


class TestTokenOverlap:
    def test_subset_scores_one(self):
        assert token_overlap("clinic_name", "name") == 1.0

    def test_half(self):
        assert token_overlap("clinic_name", "hospital_name") == 0.5

    def test_camel_case_split(self):
        assert token_overlap("drugName", "drug_name") == 1.0

    def test_empty_is_zero(self):
        assert token_overlap("", "clinic") == 0.0
        assert token_overlap("", "") == 0.0

    def test_token_set(self):
        assert token_set("patientID") == frozenset({"patient", "id"})

    @given(st.text(max_size=20), st.text(max_size=20))
    def test_range_and_symmetry(self, a, b):
        r = token_overlap(a, b)
        assert 0.0 <= r <= 1.0
        assert r == token_overlap(b, a)


class TestTrigramProvider:
    """The fixed trigram embedding behind ``semantic_sim``: ``_embedding``."""

    def test_unit_norm(self):
        vec, norm = similarity._embedding("clinic_name")
        assert vec.shape == (256,)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
        assert norm == float(np.linalg.norm(vec))

    def test_empty_is_zero_vector(self):
        # Under three characters after canonicalisation there is no trigram.
        for text in ("", "x", "ab", "_a_", "--"):
            vec, norm = similarity._embedding(text)
            assert not vec.any() and norm == 0.0

    def test_deterministic(self):
        # CRC-32 buckets of " dr", "dru", "rug", "ug ", "g i", " id", "id ":
        # the same in every process and on every platform.
        vec = similarity._embedding("drug_id")[0]
        assert np.flatnonzero(vec).tolist() == [1, 41, 65, 93, 100, 214, 233]
        assert np.allclose(vec[vec > 0], 7 ** -0.5, rtol=0, atol=1e-15)

    def test_synonyms_canonicalize(self):
        # Each token is replaced by its canonical form before hashing.
        for text, canonical in (("hospital_name", "clinic name"), ("medicationList", "drug list")):
            assert np.array_equal(similarity._embedding(text)[0], similarity._embedding(canonical)[0])
        assert semantic_sim("hospital_name", "clinic_name") == pytest.approx(1.0)

    def test_cached_vector_equals_fresh_and_is_read_only(self):
        cached = similarity._embedding("hospital_name")[0]
        assert similarity._embedding("hospital_name")[0] is cached
        assert np.array_equal(cached, similarity._embedding.__wrapped__("hospital_name")[0])
        with pytest.raises(ValueError):
            cached[0] = 1.0

    def test_cache_stays_within_its_bound(self):
        for i in range(similarity._MEMO_LIMIT + 10):
            similarity._embedding(f"column_{i}")
        info = similarity._embedding.cache_info()
        assert info.maxsize == similarity._MEMO_LIMIT
        assert info.currsize <= similarity._MEMO_LIMIT

    def test_default_lexicon_is_small_and_lowercase(self):
        for k, v in DEFAULT_SYNONYMS.items():
            assert k == k.lower() and v == v.lower()


class TestSemanticSim:
    def test_identical_text(self):
        assert semantic_sim("drug_name", "drug_name") == pytest.approx(1.0)

    def test_zero_vector_side(self):
        assert semantic_sim("", "drug_name") == 0.0

    def test_related_terms_score_high(self):
        assert semantic_sim("medication_name", "drug_name") == pytest.approx(1.0)

    @given(st.text(max_size=20), st.text(max_size=20))
    @settings(max_examples=60)
    def test_range(self, a, b):
        assert 0.0 <= semantic_sim(a, b) <= 1.0


class TestNameSignalBounds:
    @given(st.lists(st.text(alphabet="aAbiIİ_ -0", max_size=10), min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_each_bound_covers_its_signal(self, names):
        quick, cosine, overlap = name_signal_bounds(names)
        assert quick.shape == cosine.shape == overlap.shape == (len(names), len(names))
        for i, a in enumerate(names):
            for j, b in enumerate(names):
                assert quick[i, j] >= gestalt_ratio(a, b), (a, b)
                assert cosine[i, j] == pytest.approx(semantic_sim(a, b), abs=1e-12), (a, b)
                assert overlap[i, j] == token_overlap(a, b), (a, b)

    def test_two_empty_names_are_a_full_character_match(self):
        quick, _, _ = name_signal_bounds(["", ""])
        assert quick.tolist() == [[1.0, 1.0], [1.0, 1.0]]

    def test_no_names(self):
        with pytest.raises(ValueError):
            name_signal_bounds([])


def test_weight_identity_spot_check():
    # The graph module depends on these primitives being real probabilities:
    # a similarity of 1.0 must cost (almost) nothing in -log2 space.
    s = token_sort_ratio("John Smith", "Smith John")
    assert math.log2(min(s + 1e-6, 1.0)) == 0.0
