"""Column matching: config, candidate enumeration, scoring, filtering."""

from __future__ import annotations

import dataclasses
import json
import re
import zlib
from difflib import SequenceMatcher

import numpy as np
import pytest
from conftest import cross_database_pairs, make_table
from hypothesis import given, settings
from hypothesis import strategies as st

from joinscout import matching
from joinscout.catalog import Catalog, ColumnRef, Database
from joinscout.errors import ConfigError
from joinscout.matching import (
    ColumnMatch,
    MatchConfig,
    candidate_pairs,
    filter_candidates,
    load_config,
    score_pair,
)
from joinscout.fuzzgen import generate_catalog
from joinscout.similarity import (
    DEFAULT_SYNONYMS,
    gestalt_ratio,
    normalize,
    semantic_sim,
    token_overlap,
    token_set,
)


class TestMatchConfig:
    def test_defaults(self):
        cfg = MatchConfig()
        assert (cfg.alpha, cfg.beta, cfg.gamma) == (0.4, 0.3, 0.3)
        assert cfg.column_threshold == 0.6
        assert cfg.row_threshold == 0.5
        assert cfg.epsilon == 1e-6
        assert cfg.sample_cap == 500

    @pytest.mark.parametrize(
        "kw",
        [
            {"alpha": 0.5, "beta": 0.5, "gamma": 0.5},
            {"alpha": -0.1, "beta": 0.6, "gamma": 0.5},
            {"column_threshold": 1.5},
            {"row_threshold": -0.2},
            {"epsilon": 0.0},
            {"sample_cap": 0},
            {"sample_cap": 2.5},
            {"seed": 1.0},
            {"sample_cap": True},
            {"row_threshold": True},
            {"column_threshold": "0.6"},
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ConfigError):
            MatchConfig(**kw)

    def test_weights_may_be_redistributed(self):
        cfg = MatchConfig(alpha=1.0, beta=0.0, gamma=0.0)
        assert cfg.alpha == 1.0


class TestLoadConfig:
    def test_partial_file_keeps_defaults(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"column_threshold": 0.55, "seed": 7}')
        cfg = load_config(p)
        assert cfg.column_threshold == 0.55
        assert cfg.seed == 7
        assert cfg.alpha == 0.4

    def test_full_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(dataclasses.asdict(MatchConfig())))
        assert load_config(p) == MatchConfig()

    @pytest.mark.parametrize(
        "body,message",
        [
            ("{", "JSON"),
            ("[1, 2]", "object"),
            ('{"bogus": 1}', "bogus"),
            ('{"alpha": "high"}', "type"),
            ('{"sample_cap": 2.5}', "type"),
            ('{"alpha": true}', "type"),
            ('{"alpha": 0.9}', "sum to 1"),
            ('{"alpha": NaN, "beta": 0.3, "gamma": 0.3}', "alpha must be a finite"),
            ('{"alpha": Infinity}', "alpha must be a finite"),
            ('{"epsilon": NaN}', "epsilon must be a finite"),
            ('{"epsilon": Infinity}', "epsilon must be a finite"),
            ('{"row_threshold": -Infinity}', "row_threshold must be a finite"),
        ],
    )
    def test_malformed(self, tmp_path, body, message):
        p = tmp_path / "cfg.json"
        p.write_text(body)
        with pytest.raises(ConfigError, match=message):
            load_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="read"):
            load_config(tmp_path / "absent.json")

    def test_bytes_that_are_not_utf8(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_bytes(b'{"seed": 1} \xff')
        with pytest.raises(ConfigError, match="JSON"):
            load_config(p)


class TestCandidatePairs:
    # A threshold of 0 rules nothing out: every bound is at least 0.
    EVERY = MatchConfig(column_threshold=0.0)

    def test_cross_database_only(self, memory_catalog):
        pairs = list(candidate_pairs(memory_catalog, self.EVERY))
        assert all(l.database != r.database for l, r in pairs)
        # alpha has 2 + 3 columns, beta has 2 -> 10 cross pairs.
        assert len(pairs) == 10

    def test_left_side_is_earlier_database(self, memory_catalog):
        assert all(l.database == "alpha" and r.database == "beta"
                   for l, r in candidate_pairs(memory_catalog, self.EVERY))

    def test_each_unordered_pair_once(self, memory_catalog):
        pairs = list(candidate_pairs(memory_catalog, self.EVERY))
        assert len({frozenset(p) for p in pairs}) == len(pairs)

    def test_order_equals_nested_loops(self, tmp_path):
        catalog = generate_catalog(tmp_path, seed=3, scale=1)
        expected = cross_database_pairs(catalog)
        assert len(expected) == 1095
        assert list(candidate_pairs(catalog, self.EVERY)) == expected
        # At the default threshold the bound rules out every pair that
        # does not reach it on this catalog.
        reach = [p for p in expected if score_pair(*p).total_score >= 0.6]
        assert len(reach) == 8
        assert list(candidate_pairs(catalog)) == reach

    CONFIGS = [
        MatchConfig(),
        MatchConfig(alpha=1.0, beta=0.0, gamma=0.0),
        MatchConfig(column_threshold=0.3),
        MatchConfig(alpha=0.2, beta=0.5, gamma=0.3, column_threshold=0.45),
    ]

    @pytest.mark.parametrize(
        "scale,seeds", [(1, range(12)), (4, range(4)), (13, range(1))], ids=["1", "4", "13"]
    )
    def test_pruned_equals_all_pairs(self, tmp_path, scale, seeds):
        for seed in seeds:
            catalog = generate_catalog(tmp_path / str(seed), seed=seed, scale=scale)
            every = cross_database_pairs(catalog)
            for cfg in self.CONFIGS:
                pruned = list(candidate_pairs(catalog, cfg))
                want = filter_candidates((score_pair(l, r, cfg) for l, r in every), cfg)
                got = filter_candidates((score_pair(l, r, cfg) for l, r in pruned), cfg)
                assert got == want, (seed, cfg)
                assert len(pruned) < len(every), (seed, cfg)


# Names that stress the bound: mixed case, "İ" (two characters once
# lowercased), digits only, single characters, separators only, the empty
# name, and synonyms that make semantic_sim 1 between different spellings.
# A table cannot hold a column with the empty name, so tests that build a
# catalog draw from NAMES.filter(bool).
NAMES = st.one_of(
    st.text(alphabet="aAbBiIİ_ -019", min_size=1, max_size=12),
    st.text(alphabet="0123456789", min_size=1, max_size=4),
    st.sampled_from(["", "x", "İ", "i", "_", "patient_id", "citizen_ID", "clinicName",
                     "hospital_name", "drug_name", "medication_name", "Drug", "id"]),
)


@st.composite
def weighted_configs(draw):
    """A MatchConfig with random non-negative weights that sum to 1."""
    parts = draw(st.lists(st.integers(0, 10), min_size=3, max_size=3).filter(any))
    alpha, beta, gamma = (part / sum(parts) for part in parts)
    return MatchConfig(alpha=alpha, beta=beta, gamma=gamma)


class TestScoreBound:
    @given(st.lists(NAMES, min_size=1, max_size=8), weighted_configs())
    @settings(max_examples=300, deadline=None)
    def test_bound_is_at_least_the_exact_total(self, names, cfg):
        bound = matching._score_bound(names, cfg)
        for i, a in enumerate(names):
            for j, b in enumerate(names):
                exact = score_pair(ColumnRef("l", "T", a), ColumnRef("r", "S", b), cfg)
                assert bound[i, j] >= exact.total_score, (a, b)

    @given(
        st.lists(NAMES.filter(bool), min_size=1, max_size=6, unique=True),
        st.lists(NAMES.filter(bool), min_size=1, max_size=6, unique=True),
        weighted_configs(),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_threshold_at_a_pairs_exact_total_keeps_it(self, lefts, rights, weights, data):
        catalog = Catalog(databases=(
            Database("l", (make_table("T", {name: ["v"] for name in lefts}),)),
            Database("r", (make_table("S", {name: ["v"] for name in rights}),)),
        ))
        every = cross_database_pairs(catalog)
        pair = data.draw(st.sampled_from(every))
        total = score_pair(*pair, weights).total_score
        cfg = dataclasses.replace(weights, column_threshold=min(total, 1.0))
        pruned = list(candidate_pairs(catalog, cfg))
        assert pair in pruned
        assert pruned == [p for p in every if p in pruned]
        want = filter_candidates((score_pair(l, r, cfg) for l, r in every), cfg)
        assert filter_candidates((score_pair(l, r, cfg) for l, r in pruned), cfg) == want


class TestScorePair:
    LEFT = ColumnRef("a", "T", "clinic_name")
    RIGHT = ColumnRef("b", "S", "hospital_name")

    def test_components_and_composite(self):
        m = score_pair(self.LEFT, self.RIGHT)
        assert m.name_sim == gestalt_ratio("clinic_name", "hospital_name")
        assert m.semantic_sim == semantic_sim("clinic_name", "hospital_name")
        assert m.token_overlap == token_overlap("clinic_name", "hospital_name")
        want = 0.4 * m.name_sim + 0.3 * m.semantic_sim + 0.3 * m.token_overlap
        assert m.total_score == pytest.approx(want, abs=1e-15)

    def test_known_pair_crosses_threshold(self):
        # name 0.5, semantic 1.0 (synonym canonicalization), tokens 0.5.
        m = score_pair(self.LEFT, self.RIGHT)
        assert m.semantic_sim == pytest.approx(1.0, abs=1e-12)
        assert m.total_score == pytest.approx(0.65, abs=1e-9)

    def test_weights_isolate_components(self):
        only_name = MatchConfig(alpha=1.0, beta=0.0, gamma=0.0)
        m = score_pair(self.LEFT, self.RIGHT, only_name)
        assert m.total_score == m.name_sim

    def test_identical_names_score_one(self):
        m = score_pair(ColumnRef("a", "T", "code"), ColumnRef("b", "S", "code"))
        assert m.total_score == pytest.approx(1.0, abs=1e-12)

    def test_memoised_scores_equal_uncached_primitives(self, tmp_path):
        # Each name is embedded and tokenised once per run and its norm is
        # stored; every score must still equal, bit for bit, one computed
        # from scratch: difflib for the name, and norms taken at call time.
        catalog = generate_catalog(tmp_path, seed=0, scale=1)
        for left, right in cross_database_pairs(catalog):
            a, b = left.column, right.column
            name = SequenceMatcher(None, a.lower(), b.lower(), autojunk=False).ratio()
            va, vb = reference_embedding(a), reference_embedding(b)
            na, nb = float(np.linalg.norm(va)), float(np.linalg.norm(vb))
            cos = float(np.dot(va, vb) / (na * nb)) if na and nb else 0.0
            sem = min(1.0, max(0.0, cos))
            ta, tb = token_set.__wrapped__(a), token_set.__wrapped__(b)
            tok = len(ta & tb) / min(len(ta), len(tb)) if ta and tb else 0.0
            total = 0.4 * name + 0.3 * sem + 0.3 * tok
            assert score_pair(left, right) == ColumnMatch(left, right, name, sem, tok, total)


def reference_embedding(text: str) -> np.ndarray:
    """The trigram embedding written out plainly, with no memo: split on
    camelCase and non-alphanumerics, map tokens through the synonyms, pad
    with one space a side, hash each trigram into 256 buckets, normalise."""
    tokens = normalize(re.sub(r"(?<=[a-z0-9])(?=[A-Z])", " ", text)).split()
    canon = " ".join(DEFAULT_SYNONYMS.get(tok, tok) for tok in tokens)
    vec = np.zeros(256, dtype=np.float64)
    if len(canon) < 3:
        return vec
    padded = f" {canon} "
    for i in range(len(padded) - 2):
        vec[zlib.crc32(padded[i : i + 3].encode("utf-8")) % 256] += 1.0
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return vec


def _match(total: float, tag: str = "x") -> ColumnMatch:
    return ColumnMatch(
        left=ColumnRef("a", "T", tag),
        right=ColumnRef("b", "S", tag),
        name_sim=total,
        semantic_sim=total,
        token_overlap=total,
        total_score=total,
    )


class TestFilterCandidates:
    def test_threshold_is_inclusive(self):
        cfg = MatchConfig(column_threshold=0.6)
        kept = filter_candidates([_match(0.6), _match(0.59999)], cfg)
        assert [m.total_score for m in kept] == [0.6]

    def test_sorted_by_score_descending(self):
        cfg = MatchConfig(column_threshold=0.0)
        kept = filter_candidates([_match(0.3), _match(0.9), _match(0.6)], cfg)
        assert [m.total_score for m in kept] == [0.9, 0.6, 0.3]

    def test_ties_break_on_refs(self):
        cfg = MatchConfig(column_threshold=0.0)
        kept = filter_candidates([_match(0.5, "zz"), _match(0.5, "aa")], cfg)
        assert [m.left.column for m in kept] == ["aa", "zz"]

    def test_empty_ok(self):
        assert filter_candidates([], MatchConfig()) == []
