"""Synthetic catalog generation, value fuzzing, and discovery scoring."""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from joinscout import wordlists
from joinscout.catalog import Catalog, ColumnRef, TableRef
from joinscout.errors import SingleTokenError, ValueTooShortError
from joinscout.fuzzgen import (
    GROUND_TRUTH_FILE,
    FuzzConfig,
    evaluate_discovery,
    generate_catalog,
    inject_synonym,
    load_ground_truth,
    remove_chars,
    reorder_name,
    vary_label,
)
from joinscout.matching import ColumnMatch
from joinscout.similarity import token_sort_ratio
from joinscout.validation import ValidationResult


class TestRemoveChars:
    def test_drops_one_or_two_characters(self):
        rng = random.Random(1)
        for _ in range(50):
            out = remove_chars("Amoxicillin", rng)
            assert len(out) in (9, 10)

    def test_result_is_a_subsequence(self):
        rng = random.Random(2)
        original = "Fox-Medina Clinic"
        for _ in range(50):
            out = remove_chars(original, rng)
            it = iter(original)
            assert all(ch in it for ch in out)

    def test_only_alphanumerics_removed(self):
        rng = random.Random(3)
        original = "Fox-Medina, Ltd."
        keep = [ch for ch in original if not (ch.isascii() and ch.isalnum())]
        for _ in range(50):
            out = remove_chars(original, rng)
            assert [ch for ch in out if not (ch.isascii() and ch.isalnum())] == keep

    def test_deterministic_for_a_seed(self):
        assert remove_chars("Ibuprofen", random.Random(7)) == remove_chars(
            "Ibuprofen", random.Random(7)
        )

    def test_single_eligible_character_drops_exactly_one(self):
        out = remove_chars("a--", random.Random(0))
        assert out == "--"

    @pytest.mark.parametrize("bad", ["", "ab", "---", "  . "])
    def test_too_short_or_nothing_removable(self, bad):
        with pytest.raises(ValueTooShortError):
            remove_chars(bad, random.Random(0))

    @given(st.text(st.characters(min_codepoint=32, max_codepoint=126), min_size=3, max_size=30))
    def test_length_always_shrinks(self, value):
        rng = random.Random(11)
        if not any(ch.isascii() and ch.isalnum() for ch in value):
            with pytest.raises(ValueTooShortError):
                remove_chars(value, rng)
        else:
            out = remove_chars(value, rng)
            assert len(value) - 2 <= len(out) <= len(value) - 1


class TestReorderName:
    def test_two_tokens(self):
        assert reorder_name("John Smith") == "Smith John"

    def test_three_tokens_reverse(self):
        assert reorder_name("Anna Maria Lopez") == "Lopez Maria Anna"

    def test_double_reverse_round_trips(self):
        assert reorder_name(reorder_name("John Smith")) == "John Smith"

    def test_collapses_extra_whitespace(self):
        assert reorder_name("John   Smith") == "Smith John"

    @pytest.mark.parametrize("bad", ["Mononym", "", "   "])
    def test_single_token(self, bad):
        with pytest.raises(SingleTokenError):
            reorder_name(bad)


class TestInjectSynonym:
    def test_mapped(self):
        assert inject_synonym("Ibuprofen", {"Ibuprofen": "Ibuprofeno"}) == "Ibuprofeno"

    def test_unmapped_passes_through(self):
        assert inject_synonym("Aspirin", {"Ibuprofen": "Ibuprofeno"}) == "Aspirin"


class TestVaryLabel:
    def test_appends_a_pool_entry(self):
        out = vary_label("Fox-Medina", ("Clinic", "Hospital"), random.Random(0))
        assert out in ("Fox-Medina Clinic", "Fox-Medina Hospital")

    def test_empty_pool(self):
        with pytest.raises(ValueError):
            vary_label("Fox-Medina", (), random.Random(0))


class TestWordlists:
    def test_synonym_keys_are_real_drugs(self):
        assert set(wordlists.DRUG_SYNONYMS) <= set(wordlists.DRUG_NAMES)

    def test_synonyms_stay_above_row_threshold(self):
        # Otherwise a fuzzed drug name could never survive row validation.
        for name, variant in wordlists.DRUG_SYNONYMS.items():
            assert token_sort_ratio(name, variant) >= 0.5, (name, variant)

    def test_name_pools_do_not_overlap(self):
        assert not set(wordlists.PERSON_FIRST_NAMES) & set(wordlists.PERSON_LAST_NAMES)
        assert not set(wordlists.CLINIC_SURNAMES) & set(wordlists.PERSON_LAST_NAMES)


class TestFuzzConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fuzzify_fraction": -0.1},
            {"fuzzify_fraction": 1.5},
            {"char_removal_rate": -1.0},
            {"char_removal_rate": 2.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            FuzzConfig(**kwargs)

    def test_defaults(self):
        cfg = FuzzConfig()
        assert cfg.fuzzify_fraction == 0.3


# sha256 of every file generate_catalog writes, for the README tour's seed
# and one scale-4 catalog.  Any change to the order or number of RNG draws
# changes them, and CI checks them on every Python version it runs.
PINNED_SHA256 = {
    (42, 1): {
        "ground_truth.json": "30a4afd64655bef1462e8b1a23d1239d8aa385c26f436d61a6cccc4f044104fb",
        "hospital_db/Appointments.csv": "44429e9490a15755ced305f53e0ab9575dad9ac63df5cdf550467b301c713d3c",
        "hospital_db/Clinics.csv": "3158474388f6fb32ee5f00ee6d46b86d018af3fe29bd23b0bfa888aade17a153",
        "hospital_db/Doctors.csv": "8f73f3f8a36ca9818c4700fbfd7a040719beb1aad1c31862bd7b2e2285652e87",
        "hospital_db/Patients.csv": "e7155b47cc947454e26dfbcff5b2f2359c5940a07d7ce2384ea0094c890910c7",
        "hospital_db/Prescriptions.csv": "395c01bcac1a9634b131ea1cf4402a117bc7d2ab722c41dfb91361bc3b99bce8",
        "insurance_db/Claims.csv": "3d3646fea055af574c43c98aefde2605860e5b0d032cafd3c5c49c448bd89be7",
        "insurance_db/Insurance_Providers.csv": "98297f9a18586d1b8fc489278a50d7dc1f863ef92ba0cdfe00c826ebe04a4e46",
        "insurance_db/Insured_Patients.csv": "df161d9172da69aa88cff1466a36c25dea61eba319f6fc3dfab13e271ec52351",
        "manifest.json": "edfccf20fbf07c5d26947e546bf51e74a34a419a606a85442c5cb6eba3a243f4",
        "pharmacy_db/Drugs.csv": "ee49936c7f4d9dbfe7839cabf9a38fd6f0f96b6c4450b7df1be71ff9c90ae131",
        "pharmacy_db/Pharmacies.csv": "0885bef77bb0970c6b6c26fbcf9682c934c0437d7343a1c62678bb3e823743c1",
        "pharmacy_db/Pharmacy_Orders.csv": "7f66f4af78d36006590931a76fc2f74e5aee3065fd48166cb439731242d1cd27",
        "public_info_db/Citizen_Registry.csv": "75645123a8e1a0c758ed753344862429dda3db8bc038d5ad264ed52b0d244b32",
        "public_info_db/Drug_Watchlist.csv": "ae6a8b05cac86161026a18996a58fd0238ee2b50fdb5ad0c1a581eb677efe033",
        "public_info_db/Hospital_Survey.csv": "8ab32d31b4e77bc786cc6136cd8ffbf30506928bc90763f9c4b773d599748d25",
    },
    (0, 4): {
        "ground_truth.json": "af4580aeefb4b75fea607b8901bdd1e798411ed75b14c850c523f93e3f9b2b6e",
        "hospital_db/Appointments.csv": "bbf8430a80a6263519067478dc4736b2e91802fd1c530599d0c069e54fbfe44f",
        "hospital_db/Clinics.csv": "6f3b52520f56fdc798bc3a96b789522a37d5f3f7730e8d2520bba832e3ecb0dd",
        "hospital_db/Doctors.csv": "30811c6a466a663662f43590f73529786d55805854c5f95b10aaa622c5f379a6",
        "hospital_db/Patients.csv": "e5774b9ef64f03a57fe13b61878de4f48b2af3c9ff363bbdb89cdaacedb6582a",
        "hospital_db/Prescriptions.csv": "36c46adf796d28d9efa0238f933f6afda2e2c2562ff302bbfbd12b4ed429312a",
        "insurance_db/Claims.csv": "5bfd2d37e62e922fe409859af0ad037e9aff7c8f834c08188afa00da5d2604ab",
        "insurance_db/Insurance_Providers.csv": "4dbe81f4822b628b1afcd5eef1f4b536001494c32234dc650f0201581ad8a780",
        "insurance_db/Insured_Patients.csv": "c5be128a800224921694fd1ca0d0566fbb1993adf162f550cb30495001236d1d",
        "manifest.json": "edfccf20fbf07c5d26947e546bf51e74a34a419a606a85442c5cb6eba3a243f4",
        "pharmacy_db/Drugs.csv": "4d56c76122bca68419c49f3f19a1098aea806f9c8f4b7d6e3ed921e1720668b0",
        "pharmacy_db/Pharmacies.csv": "524a3be4d726735b7feb8c55fe0383d3a75df2c6d64a3f7c56fd2a3a8f046709",
        "pharmacy_db/Pharmacy_Orders.csv": "fad162470715ac768a75b593ed3e1ce8cc14b031d94befb0218e443c0429bd59",
        "public_info_db/Citizen_Registry.csv": "bca62a21034306ddb8242a6af343da071cda4334d56f44e3f57b28c58bf693c3",
        "public_info_db/Drug_Watchlist.csv": "c33edbeb676bca936d0533dcc861967711a4d82b67cf652547e7693da91a1378",
        "public_info_db/Hospital_Survey.csv": "a58269fc8b4453e57b5c77cea2ec6d1fe15266718621b504b248a383ff74e397",
    },
}


@pytest.fixture(scope="module")
def generated(tmp_path_factory) -> tuple[Path, Catalog]:
    out = tmp_path_factory.mktemp("gen")
    catalog = generate_catalog(out, seed=42, scale=1)
    return out, catalog


class TestGenerateCatalog:
    def test_database_layout(self, generated):
        _, catalog = generated
        names = [db.name for db in catalog.databases]
        assert names == ["hospital_db", "insurance_db", "pharmacy_db", "public_info_db"]
        assert [len(db.tables) for db in catalog.databases] == [5, 3, 3, 3]

    def test_row_counts_at_scale_one(self, generated):
        _, catalog = generated
        expected = {
            ("hospital_db", "Patients"): 60,
            ("hospital_db", "Clinics"): 24,
            ("hospital_db", "Doctors"): 40,
            ("hospital_db", "Appointments"): 120,
            ("hospital_db", "Prescriptions"): 100,
            ("insurance_db", "Insurance_Providers"): 8,
            ("insurance_db", "Insured_Patients"): 70,
            ("insurance_db", "Claims"): 90,
            ("pharmacy_db", "Pharmacies"): 10,
            ("pharmacy_db", "Drugs"): 30,
            ("pharmacy_db", "Pharmacy_Orders"): 80,
            ("public_info_db", "Citizen_Registry"): 80,
            ("public_info_db", "Hospital_Survey"): 32,
            ("public_info_db", "Drug_Watchlist"): 18,
        }
        actual = {
            (db.name, t.name): t.row_count
            for db in catalog.databases
            for t in db.tables
        }
        assert actual == expected

    def test_nine_foreign_keys(self, generated):
        _, catalog = generated
        n = sum(len(t.foreign_keys) for db in catalog.databases for t in db.tables)
        assert n == 9

    def test_primary_keys_are_distinct(self, generated):
        _, catalog = generated
        for db in catalog.databases:
            for t in db.tables:
                assert t.primary_key == (t.column_names[0],)
                ids = list(t.columns[0].values)
                assert len(set(ids)) == len(ids)

    def test_files_on_disk(self, generated):
        out, _ = generated
        assert (out / "manifest.json").is_file()
        assert (out / GROUND_TRUTH_FILE).is_file()
        assert (out / "hospital_db" / "Patients.csv").is_file()
        assert (out / "public_info_db" / "Drug_Watchlist.csv").is_file()

    def test_scale_two_grows_fact_tables(self, tmp_path):
        catalog = generate_catalog(tmp_path, seed=1, scale=2)
        rows = {
            t.name: t.row_count for db in catalog.databases for t in db.tables
        }
        assert rows["Appointments"] == 240
        assert rows["Patients"] == 120
        assert rows["Clinics"] == 26        # capped by the surname pool
        assert rows["Pharmacies"] == 10     # capped by the name pool

    @pytest.mark.parametrize("scale", [0, -1, 14])
    def test_scale_out_of_range(self, tmp_path, scale):
        with pytest.raises(ValueError):
            generate_catalog(tmp_path, scale=scale)

    def test_same_seed_reproduces_every_byte(self, tmp_path):
        for (seed, scale), pinned in PINNED_SHA256.items():
            for run in ("a", "b"):
                out = tmp_path / f"{seed}-{scale}-{run}"
                generate_catalog(out, seed=seed, scale=scale)
                digests = {
                    p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in out.rglob("*")
                    if p.is_file()
                }
                assert digests == pinned, (seed, scale, run)

    def test_different_seeds_differ(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_catalog(a, seed=1)
        generate_catalog(b, seed=2)
        assert (a / "hospital_db" / "Patients.csv").read_bytes() != (
            b / "hospital_db" / "Patients.csv"
        ).read_bytes()


TRUTH_COUNTERPART = {
    ("Citizen_Registry", "citizen_name"): ("hospital_db", "Patients", "patient_name"),
    ("Hospital_Survey", "hospital_name"): ("hospital_db", "Clinics", "clinic_name"),
    ("Drug_Watchlist", "medication_name"): ("pharmacy_db", "Drugs", "drug_name"),
}


class TestGroundTruth:
    def test_three_joinable_pairs(self, generated):
        out, _ = generated
        truth = load_ground_truth(out / GROUND_TRUTH_FILE)
        assert truth["seed"] == 42 and truth["scale"] == 1
        pairs = {
            (
                p["left"]["db"], p["left"]["table"], p["left"]["column"],
                p["right"]["db"], p["right"]["table"], p["right"]["column"],
            )
            for p in truth["joinable_pairs"]
        }
        assert pairs == {
            ("hospital_db", "Clinics", "clinic_name",
             "public_info_db", "Hospital_Survey", "hospital_name"),
            ("hospital_db", "Patients", "patient_name",
             "public_info_db", "Citizen_Registry", "citizen_name"),
            ("pharmacy_db", "Drugs", "drug_name",
             "public_info_db", "Drug_Watchlist", "medication_name"),
        }

    def test_fuzzified_values_live_where_claimed(self, generated):
        out, catalog = generated
        truth = load_ground_truth(out / GROUND_TRUTH_FILE)
        assert truth["fuzzified"], "default config should fuzz something"
        for entry in truth["fuzzified"]:
            assert entry["transform"] in {
                "remove_chars", "reorder_name", "vary_label", "inject_synonym",
            }
            assert entry["value"] != entry["original"]
            ref = TableRef(entry["db"], entry["table"])
            column = catalog.table(ref).column(entry["column"])
            assert entry["value"] in column.distinct_values
            src_db, src_tab, src_col = TRUTH_COUNTERPART[
                (entry["table"], entry["column"])
            ]
            source = catalog.table(TableRef(src_db, src_tab)).column(src_col)
            assert entry["original"] in source.distinct_values

    def test_zero_fraction_disables_fuzzing(self, tmp_path):
        catalog = generate_catalog(
            tmp_path, seed=5, fuzz=FuzzConfig(fuzzify_fraction=0.0)
        )
        truth = load_ground_truth(tmp_path / GROUND_TRUTH_FILE)
        assert truth["fuzzified"] == []
        patients = catalog.table(TableRef("hospital_db", "Patients")).column(
            "patient_name"
        )
        citizens = catalog.table(TableRef("public_info_db", "Citizen_Registry")).column(
            "citizen_name"
        )
        assert patients.distinct_values <= citizens.distinct_values

    def test_full_fraction_fuzzes_every_shared_value(self, tmp_path):
        generate_catalog(tmp_path, seed=5, fuzz=FuzzConfig(fuzzify_fraction=1.0))
        truth = load_ground_truth(tmp_path / GROUND_TRUTH_FILE)
        # 60 patient names + 24 clinic names + 18 watchlist drugs.
        assert len(truth["fuzzified"]) == 102


def _ref(db, table, column):
    return ColumnRef(db, table, column)


TRUTH_DOC = {
    "joinable_pairs": [
        {
            "left": {"db": "a", "table": "T", "column": "x"},
            "right": {"db": "b", "table": "U", "column": "y"},
        },
        {
            "left": {"db": "a", "table": "T", "column": "p"},
            "right": {"db": "b", "table": "U", "column": "q"},
        },
        {
            "left": {"db": "a", "table": "V", "column": "m"},
            "right": {"db": "b", "table": "W", "column": "n"},
        },
    ]
}


class TestEvaluateDiscovery:
    def test_perfect_discovery(self):
        found = [
            (_ref("a", "T", "x"), _ref("b", "U", "y")),
            (_ref("a", "T", "p"), _ref("b", "U", "q")),
            (_ref("a", "V", "m"), _ref("b", "W", "n")),
        ]
        report = evaluate_discovery(found, TRUTH_DOC)
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.missing == ()
        assert report.unexpected == ()

    def test_empty_found(self):
        report = evaluate_discovery([], TRUTH_DOC)
        assert report.precision == 1.0
        assert report.recall == 0.0
        assert len(report.missing) == 3

    def test_partial_with_false_positive(self):
        found = [
            (_ref("a", "T", "x"), _ref("b", "U", "y")),
            (_ref("a", "T", "x"), _ref("b", "W", "n")),  # wrong
        ]
        report = evaluate_discovery(found, TRUTH_DOC)
        assert report.precision == 0.5
        assert report.recall == pytest.approx(1 / 3)
        assert len(report.unexpected) == 1

    def test_direction_is_ignored(self):
        flipped = [(_ref("b", "U", "y"), _ref("a", "T", "x"))]
        assert evaluate_discovery(flipped, TRUTH_DOC).recall == pytest.approx(1 / 3)

    def test_duplicates_collapse(self):
        found = [
            (_ref("a", "T", "x"), _ref("b", "U", "y")),
            (_ref("b", "U", "y"), _ref("a", "T", "x")),
        ]
        report = evaluate_discovery(found, TRUTH_DOC)
        assert report.precision == 1.0
        assert len(report.found) == 1

    def test_accepts_match_and_validation_objects(self):
        match = ColumnMatch(
            left=_ref("a", "T", "x"), right=_ref("b", "U", "y"),
            name_sim=1.0, semantic_sim=1.0, token_overlap=1.0, total_score=1.0,
        )
        vr = ValidationResult(
            match=ColumnMatch(
                left=_ref("a", "T", "p"), right=_ref("b", "U", "q"),
                name_sim=1.0, semantic_sim=1.0, token_overlap=1.0, total_score=1.0,
            ),
            value_score=0.9, overlap_s=0.8, sampled_left=5, sampled_right=5,
        )
        report = evaluate_discovery([match, vr], TRUTH_DOC)
        assert report.recall == pytest.approx(2 / 3)

    def test_report_pairs_are_sorted(self):
        found = [
            (_ref("a", "V", "m"), _ref("b", "W", "n")),
            (_ref("a", "T", "x"), _ref("b", "U", "y")),
        ]
        report = evaluate_discovery(found, TRUTH_DOC)
        assert list(report.found) == sorted(report.found)
        assert all(l < r for l, r in report.found)


def test_load_ground_truth_round_trip(tmp_path):
    doc = {"seed": 3, "scale": 1, "joinable_pairs": [], "fuzzified": []}
    path = tmp_path / "gt.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert load_ground_truth(path) == doc
