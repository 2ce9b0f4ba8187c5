"""Synthetic multi-database catalogs with known cross-database overlap.

Four related databases are generated around one healthcare scenario:

* ``hospital_db`` — patients, clinics, doctors, appointments, prescriptions
* ``insurance_db`` — insurers, insured members, claims
* ``pharmacy_db`` — pharmacies, drugs, purchase orders
* ``public_info_db`` — a citizen registry, a facility survey, a drug watchlist

Three columns of ``public_info_db`` share values with a column in another
database, partly *fuzzed* — character deletions, token reordering, spelling
variants, appended labels — to mimic independently maintained data.  A
``ground_truth.json`` sidecar lists those three pairs as ``joinable_pairs``
and records every fuzzed value, so discovery quality can be scored with
:func:`evaluate_discovery`.  Four more cross-database pairs share values
but are not listed: ``Insured_Patients.policyholder`` is drawn from the
patient names and ``Prescriptions.prescribed_drug`` from
``wordlists.DRUG_NAMES``.

Everything is driven by one seeded RNG: same seed, same bytes.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from . import wordlists
from .catalog import (
    Catalog,
    Column,
    ColumnRef,
    Database,
    ForeignKey,
    Table,
    save_catalog,
)
from .errors import ManifestParseError, MissingFileError
from .matching import ColumnMatch
from .validation import ValidationResult

__all__ = [
    "DiscoveryReport",
    "FuzzConfig",
    "evaluate_discovery",
    "generate_catalog",
    "load_ground_truth",
]

GROUND_TRUTH_FILE = "ground_truth.json"
# Largest ``scale`` whose patients and citizens the person-name pools cover.
MAX_SCALE = 13


@dataclass(frozen=True)
class FuzzConfig:
    """How aggressively overlapping values get distorted.

    ``fuzzify_fraction`` of the shared values are transformed; the rest are
    copied verbatim.  ``char_removal_rate`` picks between character removal
    and the column's alternative transform (reordering for person names,
    a label from ``wordlists.FACILITY_LABELS`` for facility names).  A drug
    name takes its spelling variant from ``wordlists.DRUG_SYNONYMS`` when
    it has one and loses characters otherwise.
    """

    fuzzify_fraction: float = 0.3
    char_removal_rate: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.fuzzify_fraction <= 1.0:
            raise ValueError("fuzzify_fraction must be in [0, 1]")
        if not 0.0 <= self.char_removal_rate <= 1.0:
            raise ValueError("char_removal_rate must be in [0, 1]")


# ---------------------------------------------------------------------------
# value transforms

def remove_chars(value: str, rng: random.Random) -> str:
    """Delete 1–2 alphanumeric characters at random positions.

    Only ASCII alphanumerics are eligible: deleting punctuation or spaces
    could leave the normalized form unchanged, i.e. not fuzzed at all.
    Raises :class:`ValueError` for strings shorter than 3 characters or
    with no removable characters.
    """
    if len(value) < 3:
        raise ValueError(f"cannot remove characters from {value!r}")
    eligible = [i for i, ch in enumerate(value) if ch.isascii() and ch.isalnum()]
    if not eligible:
        raise ValueError(f"nothing removable in {value!r}")
    count = 1 if len(eligible) == 1 else rng.randint(1, 2)
    drop = set(rng.sample(eligible, count))
    return "".join(ch for i, ch in enumerate(value) if i not in drop)


def reorder_name(value: str) -> str:
    """Reverse the whitespace-separated token order: "John Smith" -> "Smith John".

    Raises :class:`ValueError` for fewer than two tokens.
    """
    tokens = value.split()
    if len(tokens) < 2:
        raise ValueError(f"cannot reorder single-token value {value!r}")
    return " ".join(reversed(tokens))


def vary_label(value: str, suffix_pool: Sequence[str], rng: random.Random) -> str:
    """Append a random label from the pool: "Fox-Medina" -> "Fox-Medina Clinic"."""
    if not suffix_pool:
        raise ValueError("suffix_pool must not be empty")
    return f"{value} {rng.choice(list(suffix_pool))}"


# ---------------------------------------------------------------------------
# catalog generation

def _distinct_ids(rng: random.Random, count: int, make: Callable[[random.Random], str]) -> list[str]:
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < count:
        candidate = make(rng)
        if candidate not in seen:
            seen.add(candidate)
            out.append(candidate)
    return out


def _hex_id(rng: random.Random) -> str:
    digits = "".join(rng.choices("0123456789abcdef", k=12))
    return f"{digits[:4]}-{digits[4:8]}-{digits[8:]}"


def _citizen_id(rng: random.Random) -> str:
    return f"C-{rng.randint(100000, 999999)}"


def _date(rng: random.Random) -> str:
    return f"{rng.randint(2024, 2025)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"


def _table(
    name: str, header: Sequence[str], rows: Sequence[Sequence[str]], *foreign_keys: ForeignKey
) -> Table:
    """A table keyed on its first column."""
    columns = tuple(
        Column(col, tuple(row[i] for row in rows)) for i, col in enumerate(header)
    )
    return Table(name, columns, primary_key=(header[0],), foreign_keys=foreign_keys)


def generate_catalog(
    out_dir: str | Path,
    seed: int = 42,
    scale: int = 1,
    fuzz: FuzzConfig | None = None,
) -> Catalog:
    """Generate a four-database catalog, write it under ``out_dir`` and return it.

    Writes one CSV per table, a ``manifest.json``, and a
    ``ground_truth.json`` sidecar.  ``scale`` multiplies the fact-table row
    counts; dimension tables are bounded by the name pools.  The returned
    catalog equals what :func:`load_catalog` reads back from the manifest:
    its constructors checked every rule the loader checks.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    if scale > MAX_SCALE:
        raise ValueError(f"scale > {MAX_SCALE} would exhaust the person-name pools")
    cfg = fuzz or FuzzConfig()
    rng = random.Random(seed)
    log: list[dict] = []

    n_patients = 60 * scale
    n_citizen_extras = 20 * scale
    n_doctors = 40 * scale
    n_clinics = min(24 * scale, 26)
    n_appointments = 120 * scale
    n_prescriptions = 100 * scale
    n_insured = 70 * scale
    n_claims = 90 * scale
    n_pharmacies = min(10 * scale, len(wordlists.PHARMACY_NAMES))
    n_orders = 80 * scale
    n_survey_extras = min(8 * scale, len(wordlists.EXTRA_FACILITIES))
    n_watchlist = min(18 * scale, 27)

    # --- people -----------------------------------------------------------
    combos = list(
        itertools.product(wordlists.PERSON_FIRST_NAMES, wordlists.PERSON_LAST_NAMES)
    )
    names = [
        f"{first} {last}"
        for first, last in rng.sample(combos, n_patients + n_citizen_extras + n_doctors)
    ]
    patient_names = names[:n_patients]
    citizen_extra_names = names[n_patients : n_patients + n_citizen_extras]
    doctor_names = [f"Dr. {n}" for n in names[n_patients + n_citizen_extras :]]

    patient_ids = _distinct_ids(rng, n_patients, _hex_id)
    patients_rows = [
        [pid, pname, str(rng.randint(1940, 2005))]
        for pid, pname in zip(patient_ids, patient_names)
    ]

    # --- clinics and doctors ----------------------------------------------
    surnames = list(wordlists.CLINIC_SURNAMES)
    rng.shuffle(surnames)
    surname_iter = iter(surnames)
    clinic_names = []
    for _ in range(n_clinics):
        if rng.random() < 0.7:
            clinic_names.append(f"{next(surname_iter)}-{next(surname_iter)}")
        else:
            a, b, c = next(surname_iter), next(surname_iter), next(surname_iter)
            clinic_names.append(f"{a}, {b} and {c}")
    clinic_ids = [f"CL-{i + 1:03d}" for i in range(n_clinics)]
    clinics_rows = [
        [cid, cname, rng.choice(wordlists.CITIES)]
        for cid, cname in zip(clinic_ids, clinic_names)
    ]

    doctor_ids = [f"DR-{i + 1:03d}" for i in range(n_doctors)]
    doctors_rows = [
        [did, dname, rng.choice(clinic_ids), rng.choice(wordlists.SPECIALTIES)]
        for did, dname in zip(doctor_ids, doctor_names)
    ]

    appointments_rows = [
        [
            f"APT-{i + 1:04d}",
            rng.choice(patient_ids),
            rng.choice(doctor_ids),
            _date(rng),
            rng.choice(wordlists.VISIT_REASONS),
        ]
        for i in range(n_appointments)
    ]
    prescriptions_rows = [
        [
            f"RX-{i + 1:04d}",
            rng.choice(patient_ids),
            rng.choice(doctor_ids),
            rng.choice(wordlists.DRUG_NAMES),
            rng.choice(["125", "250", "500", "750", "1000"]),
            _date(rng),
        ]
        for i in range(n_prescriptions)
    ]

    # --- insurance ---------------------------------------------------------
    provider_ids = [f"INS-{i + 1:02d}" for i in range(len(wordlists.INSURER_NAMES))]
    providers_rows = [
        [pid, name, rng.choice(wordlists.REGIONS)]
        for pid, name in zip(provider_ids, wordlists.INSURER_NAMES)
    ]
    member_ids = [f"M-{i + 1:05d}" for i in range(n_insured)]
    insured_rows = [
        [
            mid,
            rng.choice(patient_names),
            rng.choice(provider_ids),
            rng.choice(wordlists.PLAN_TYPES),
            f"{rng.randint(160, 900) / 2:.2f}",
        ]
        for mid in member_ids
    ]
    claims_rows = [
        [
            f"CLM-{i + 1:05d}",
            rng.choice(member_ids),
            f"{rng.randint(40, 5000)}.{rng.randint(0, 99):02d}",
            rng.choice(wordlists.CLAIM_STATUSES),
            _date(rng),
        ]
        for i in range(n_claims)
    ]

    # --- pharmacy -----------------------------------------------------------
    pharmacy_ids = [f"PH-{i + 1:02d}" for i in range(n_pharmacies)]
    pharmacies_rows = [
        [
            phid,
            wordlists.PHARMACY_NAMES[i],
            f"{rng.randint(10, 999)} {rng.choice(wordlists.STREETS)}",
        ]
        for i, phid in enumerate(pharmacy_ids)
    ]
    drug_ids = [f"D-{i + 1:03d}" for i in range(len(wordlists.DRUG_NAMES))]
    drugs_rows = [
        [
            did,
            name,
            rng.choice(wordlists.MANUFACTURERS),
            rng.choice(["50", "100", "200", "250", "400", "500", "800"]),
        ]
        for did, name in zip(drug_ids, wordlists.DRUG_NAMES)
    ]
    orders_rows = [
        [
            f"ORD-{i + 1:04d}",
            rng.choice(pharmacy_ids),
            rng.choice(drug_ids),
            str(rng.randint(1, 120)),
            _date(rng),
        ]
        for i in range(n_orders)
    ]

    # --- public info: the fuzzy side ----------------------------------------
    def fuzz_column(
        table: str, column: str, values: Iterable[str], transform: Callable[[str], tuple[str, str]]
    ) -> list[str]:
        # transform(value) gives the transform's name and the fuzzed value.
        out = []
        for value in values:
            if rng.random() < cfg.fuzzify_fraction:
                how, fuzzed = transform(value)
                log.append(
                    {
                        "db": "public_info_db",
                        "table": table,
                        "column": column,
                        "original": value,
                        "value": fuzzed,
                        "transform": how,
                    }
                )
                value = fuzzed
            out.append(value)
        return out

    def removal_or(how: str, transform: Callable[[str], str]) -> Callable[[str], tuple[str, str]]:
        return lambda value: (
            ("remove_chars", remove_chars(value, rng))
            if rng.random() < cfg.char_removal_rate
            else (how, transform(value))
        )

    def synonym_or_removal(value: str) -> tuple[str, str]:
        if value in wordlists.DRUG_SYNONYMS:
            return "inject_synonym", wordlists.DRUG_SYNONYMS[value]
        return "remove_chars", remove_chars(value, rng)

    citizen_names = fuzz_column(
        "Citizen_Registry", "citizen_name", patient_names,
        removal_or("reorder_name", reorder_name),
    ) + citizen_extra_names
    citizen_ids = _distinct_ids(rng, len(citizen_names), _citizen_id)
    citizens_rows = [
        [cid, cname, rng.choice(wordlists.DISTRICTS)]
        for cid, cname in zip(citizen_ids, citizen_names)
    ]
    rng.shuffle(citizens_rows)

    survey_names = fuzz_column(
        "Hospital_Survey", "hospital_name", clinic_names,
        removal_or("vary_label", lambda name: vary_label(name, wordlists.FACILITY_LABELS, rng)),
    ) + list(wordlists.EXTRA_FACILITIES[:n_survey_extras])
    rng.shuffle(survey_names)
    survey_rows = [
        [f"S-{i + 1:03d}", name, f"{rng.uniform(1.0, 5.0):.1f}"]
        for i, name in enumerate(survey_names)
    ]

    watched = rng.sample(wordlists.DRUG_NAMES, n_watchlist)
    watch_names = fuzz_column("Drug_Watchlist", "medication_name", watched, synonym_or_removal)
    watchlist_rows = [
        [f"W-{i + 1:03d}", name, rng.choice(wordlists.RISK_LEVELS)]
        for i, name in enumerate(watch_names)
    ]

    # --- assemble ------------------------------------------------------------
    hospital = Database(
        name="hospital_db",
        tables=(
            _table(
                "Patients",
                ["patient_id", "patient_name", "birth_year"],
                patients_rows,
            ),
            _table(
                "Clinics",
                ["clinic_id", "clinic_name", "city"],
                clinics_rows,
            ),
            _table(
                "Doctors",
                ["doctor_id", "doctor_name", "clinic_id", "specialty"],
                doctors_rows,
                ForeignKey(("clinic_id",), "Clinics", ("clinic_id",)),
            ),
            _table(
                "Appointments",
                ["appointment_id", "patient_id", "doctor_id", "appointment_date", "visit_reason"],
                appointments_rows,
                ForeignKey(("patient_id",), "Patients", ("patient_id",)),
                ForeignKey(("doctor_id",), "Doctors", ("doctor_id",)),
            ),
            _table(
                "Prescriptions",
                ["prescription_id", "patient_id", "doctor_id", "prescribed_drug", "dosage_mg", "prescription_date"],
                prescriptions_rows,
                ForeignKey(("patient_id",), "Patients", ("patient_id",)),
                ForeignKey(("doctor_id",), "Doctors", ("doctor_id",)),
            ),
        ),
    )
    insurance = Database(
        name="insurance_db",
        tables=(
            _table(
                "Insurance_Providers",
                ["provider_id", "provider_name", "region"],
                providers_rows,
            ),
            _table(
                "Insured_Patients",
                ["member_id", "policyholder", "provider_id", "plan_type", "monthly_premium"],
                insured_rows,
                ForeignKey(("provider_id",), "Insurance_Providers", ("provider_id",)),
            ),
            _table(
                "Claims",
                ["claim_id", "member_id", "claim_amount", "claim_status", "filed_on"],
                claims_rows,
                ForeignKey(("member_id",), "Insured_Patients", ("member_id",)),
            ),
        ),
    )
    pharmacy = Database(
        name="pharmacy_db",
        tables=(
            _table(
                "Pharmacies",
                ["pharmacy_id", "pharmacy_name", "street_address"],
                pharmacies_rows,
            ),
            _table(
                "Drugs",
                ["drug_id", "drug_name", "manufacturer", "strength"],
                drugs_rows,
            ),
            _table(
                "Pharmacy_Orders",
                ["order_id", "pharmacy_id", "drug_id", "quantity", "order_date"],
                orders_rows,
                ForeignKey(("pharmacy_id",), "Pharmacies", ("pharmacy_id",)),
                ForeignKey(("drug_id",), "Drugs", ("drug_id",)),
            ),
        ),
    )
    public_info = Database(
        name="public_info_db",
        tables=(
            _table(
                "Citizen_Registry",
                ["citizen_id", "citizen_name", "district"],
                citizens_rows,
            ),
            _table(
                "Hospital_Survey",
                ["survey_id", "hospital_name", "satisfaction_score"],
                survey_rows,
            ),
            _table(
                "Drug_Watchlist",
                ["watch_id", "medication_name", "risk_level"],
                watchlist_rows,
            ),
        ),
    )

    catalog = Catalog(databases=(hospital, insurance, pharmacy, public_info))
    out_dir = Path(out_dir)
    save_catalog(catalog, out_dir)

    truth = {
        "seed": seed,
        "scale": scale,
        "joinable_pairs": [
            _pair_json("hospital_db", "Clinics", "clinic_name",
                       "public_info_db", "Hospital_Survey", "hospital_name"),
            _pair_json("hospital_db", "Patients", "patient_name",
                       "public_info_db", "Citizen_Registry", "citizen_name"),
            _pair_json("pharmacy_db", "Drugs", "drug_name",
                       "public_info_db", "Drug_Watchlist", "medication_name"),
        ],
        "fuzzified": log,
    }
    (out_dir / GROUND_TRUTH_FILE).write_text(
        json.dumps(truth, indent=2) + "\n", encoding="utf-8"
    )
    return catalog


def _pair_json(ldb: str, ltab: str, lcol: str, rdb: str, rtab: str, rcol: str) -> dict:
    return {
        "left": {"db": ldb, "table": ltab, "column": lcol},
        "right": {"db": rdb, "table": rtab, "column": rcol},
    }


# ---------------------------------------------------------------------------
# scoring discovered pairs against the sidecar

def load_ground_truth(path: str | Path) -> dict:
    """Read a ``ground_truth.json`` sidecar.

    Raises :class:`MissingFileError` if the file does not exist and
    :class:`ManifestParseError` naming it if it is not UTF-8 JSON.
    """
    path = Path(path)
    if not path.exists():
        raise MissingFileError(f"ground truth not found: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ManifestParseError(f"ground truth {path} is not valid JSON: {exc}") from exc


@dataclass(frozen=True)
class DiscoveryReport:
    """Precision/recall of discovered pairs against the known answer."""

    precision: float
    recall: float
    expected: tuple[tuple[ColumnRef, ColumnRef], ...]
    found: tuple[tuple[ColumnRef, ColumnRef], ...]
    missing: tuple[tuple[ColumnRef, ColumnRef], ...]
    unexpected: tuple[tuple[ColumnRef, ColumnRef], ...]


def _as_pair(item: object) -> frozenset[ColumnRef]:
    if isinstance(item, ValidationResult):
        return frozenset((item.match.left, item.match.right))
    if isinstance(item, ColumnMatch):
        return frozenset((item.left, item.right))
    left, right = item  # type: ignore[misc]
    return frozenset((left, right))


def _sorted_pair(pair: frozenset[ColumnRef]) -> tuple[ColumnRef, ColumnRef]:
    a, b = sorted(pair)
    return a, b


def evaluate_discovery(found: Iterable[object], truth: Mapping) -> DiscoveryReport:
    """Score discovered column pairs against a ground-truth document.

    ``found`` may contain :class:`ValidationResult`, :class:`ColumnMatch`,
    or plain ``(ColumnRef, ColumnRef)`` tuples; direction is ignored.
    Precision of an empty ``found`` set is defined as 1.0.
    """
    expected = {
        frozenset(
            (
                ColumnRef(p["left"]["db"], p["left"]["table"], p["left"]["column"]),
                ColumnRef(p["right"]["db"], p["right"]["table"], p["right"]["column"]),
            )
        )
        for p in truth["joinable_pairs"]
    }
    found_set = {_as_pair(item) for item in found}
    hits = expected & found_set
    precision = len(hits) / len(found_set) if found_set else 1.0
    recall = len(hits) / len(expected) if expected else 1.0
    return DiscoveryReport(
        precision=precision,
        recall=recall,
        expected=tuple(sorted(_sorted_pair(p) for p in expected)),
        found=tuple(sorted(_sorted_pair(p) for p in found_set)),
        missing=tuple(sorted(_sorted_pair(p) for p in expected - found_set)),
        unexpected=tuple(sorted(_sorted_pair(p) for p in found_set - expected)),
    )
