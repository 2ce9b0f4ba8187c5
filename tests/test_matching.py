"""Column matching: config, candidate enumeration, scoring, filtering."""

from __future__ import annotations

import dataclasses
import json
from difflib import SequenceMatcher

import numpy as np
import pytest

from joinscout.catalog import ColumnRef
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
    TrigramProvider,
    gestalt_ratio,
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


class TestCandidatePairs:
    def test_cross_database_only(self, memory_catalog):
        pairs = list(candidate_pairs(memory_catalog))
        assert all(l.database != r.database for l, r in pairs)
        # alpha has 2 + 3 columns, beta has 2 -> 10 cross pairs.
        assert len(pairs) == 10

    def test_left_side_is_earlier_database(self, memory_catalog):
        assert all(l.database == "alpha" and r.database == "beta"
                   for l, r in candidate_pairs(memory_catalog))

    def test_each_unordered_pair_once(self, memory_catalog):
        pairs = list(candidate_pairs(memory_catalog))
        assert len({frozenset(p) for p in pairs}) == len(pairs)

    def test_order_equals_nested_loops(self, tmp_path):
        # Reference: database i before database j > i, then left column,
        # then right table and column, each in catalog order.
        catalog = generate_catalog(tmp_path, seed=3, scale=1)
        dbs = catalog.databases
        expected = [
            (ColumnRef(ldb.name, ltab.name, lcol.name), ColumnRef(rdb.name, rtab.name, rcol.name))
            for i, ldb in enumerate(dbs)
            for rdb in dbs[i + 1 :]
            for ltab in ldb.tables
            for lcol in ltab.columns
            for rtab in rdb.tables
            for rcol in rtab.columns
        ]
        assert len(expected) == 1095
        assert list(candidate_pairs(catalog)) == expected


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

    def test_custom_provider(self):
        class Anti:
            dimension = 2

            def embed(self, text):
                return np.array([1.0, 0.0]) if text.startswith("clinic") else np.array([0.0, 1.0])

        m = score_pair(self.LEFT, self.RIGHT, provider=Anti())
        assert m.semantic_sim == 0.0

    def test_overriding_subclass_scores_with_computed_norms(self):
        # Stored norms belong to the vectors TrigramProvider made; a subclass
        # that embeds differently must have the norms of its own vectors.
        class Flat(TrigramProvider):
            def embed(self, text):
                return np.full(self.dimension, 0.01)

        m = score_pair(ColumnRef("a", "T", "drug_name"), ColumnRef("b", "S", "patient_id"),
                       provider=Flat())
        assert m.semantic_sim == pytest.approx(1.0, abs=1e-12)

    def test_memoised_scores_equal_uncached_primitives(self, tmp_path):
        # Each name is embedded and tokenised once per run and its norm is
        # stored; every score must still equal, bit for bit, one computed
        # from scratch: difflib for the name, and norms taken at call time.
        class Fresh:
            dimension = 256

            def embed(self, text):
                return TrigramProvider()._embed_uncached(text)

        catalog = generate_catalog(tmp_path, seed=0, scale=1)
        for left, right in candidate_pairs(catalog):
            a, b = left.column, right.column
            name = SequenceMatcher(None, a.lower(), b.lower(), autojunk=False).ratio()
            sem = semantic_sim(a, b, Fresh())
            ta, tb = token_set.__wrapped__(a), token_set.__wrapped__(b)
            tok = len(ta & tb) / min(len(ta), len(tb)) if ta and tb else 0.0
            total = 0.4 * name + 0.3 * sem + 0.3 * tok
            assert score_pair(left, right) == ColumnMatch(left, right, name, sem, tok, total)


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
