"""Name pools for the synthetic catalog generator.

The pools are curated, not arbitrary: person surnames and clinic surnames
are disjoint so person-name columns never look joinable with facility-name
columns at the value level, and the drug list avoids near-duplicate pairs
that could confuse one drug's fuzzed variant with a different drug.
"""

from __future__ import annotations

PERSON_FIRST_NAMES = (
    "Valerie", "Thomas", "Patrick", "Alan", "Stephanie", "Monica", "Derek",
    "Lauren", "Marcus", "Fiona", "Gregory", "Hannah", "Isaac", "Julia",
    "Kevin", "Laura", "Martin", "Nina", "Oscar", "Paula", "Quentin",
    "Rachel", "Samuel", "Teresa", "Ulysses", "Vera", "Walter", "Xenia",
    "Yvonne", "Zachary", "Amber", "Bernard", "Carmen", "Douglas", "Elena",
    "Felix", "Gloria", "Howard", "Irene", "Jerome",
)

PERSON_LAST_NAMES = (
    "Williams", "Fleming", "Sheppard", "Mercer", "Jones", "Carter", "Novak",
    "Ramsey", "Holt", "Barron", "Caldwell", "Duran", "Ellis", "Frost",
    "Goodman", "Harper", "Ingram", "Joyce", "Keller", "Lawson", "Monroe",
    "Nash", "Osborne", "Pierce", "Quinn", "Rowe", "Sawyer", "Tate", "Upton",
    "Vaughn", "Walsh", "Xiong", "York", "Zeller", "Atkins", "Boyle",
    "Chavez", "Donovan", "Emerson", "Fuller",
)

# Clinic names are built from these; disjoint from PERSON_LAST_NAMES on
# purpose.  Sized so that even 26 three-surname clinics cannot exhaust it.
CLINIC_SURNAMES = (
    "Rodriguez", "Johnson", "Fox", "Medina", "Floyd", "Hunt", "Reed",
    "Blair", "Allen", "Vasquez", "Romero", "Ortega", "Delgado", "Marsh",
    "Whitfield", "Lockhart", "Banner", "Coleson", "Draper", "Ellington",
    "Fairbanks", "Gallagher", "Harrington", "Irwin", "Jessup", "Kingsley",
    "Loxley", "Merriweather", "Norwood", "Ogden", "Pemberton", "Quimby",
    "Radcliffe", "Sterling", "Thackeray", "Underhill", "Vance", "Wexler",
    "Yardley", "Zimmerman", "Abernathy", "Bickford", "Callaghan", "Dunmore",
    "Eastwood", "Fenwick", "Grimshaw", "Holloway", "Inglewood", "Jarvis",
    "Kendrick", "Lanford", "Mortimer", "Nightingale", "Oakhurst", "Prescott",
    "Quill", "Rothwell", "Sylvester", "Tennyson", "Ashby", "Birchall",
    "Crowley", "Davenport", "Ecclestone", "Farrow", "Goldsmith", "Hathaway",
    "Iverson", "Justice", "Kirkland", "Lambourne", "Mayfield", "Netherton",
    "Overton", "Paxton", "Quayle", "Ridgewell", "Stanhope", "Thornbury",
)

# Labels a survey may append to a clinic's name: "Fox-Medina Clinic".
FACILITY_LABELS = ("Clinic", "Hospital")

# Survey rows that do not correspond to any clinic.  No FACILITY_LABELS
# token here, so a labelled clinic name cannot drift toward an extra.
EXTRA_FACILITIES = (
    "Brightwater Medical Center",
    "St. Aurelia Medical Center",
    "Northgate Health Pavilion",
    "Silver Pines Medical Center",
    "Lakeview Regional Center",
    "Crescent Bay Medical Center",
    "Ironbridge Health Pavilion",
    "Summit Ridge Medical Center",
    "Willow Creek Health Pavilion",
    "Stonegate Regional Center",
)

# 30 generic drugs.  Curated so no two entries sit close enough in edit
# space for one drug's fuzzed variant to be mistaken for another drug.
DRUG_NAMES = (
    "Amoxicillin", "Ibuprofen", "Metformin", "Omeprazole", "Sertraline",
    "Atorvastatin", "Lisinopril", "Gabapentin", "Cetirizine", "Prednisone",
    "Azithromycin", "Warfarin", "Amlodipine", "Levothyroxine", "Simvastatin",
    "Losartan", "Albuterol", "Hydrochlorothiazide", "Tramadol", "Trazodone",
    "Montelukast", "Pantoprazole", "Furosemide", "Citalopram", "Duloxetine",
    "Clopidogrel", "Rosuvastatin", "Naproxen", "Doxycycline", "Propranolol",
)

# Spelling variants another registry might use for the same substance.
# Every variant stays within token-sort similarity 0.5 of its original
# (there is a test pinning that).
DRUG_SYNONYMS = {
    "Amoxicillin": "Amoksillin",
    "Ibuprofen": "Ibuprofeno",
    "Metformin": "Metformina",
    "Omeprazole": "Omeprazol",
    "Sertraline": "Sertralina",
    "Atorvastatin": "Atorvastatine",
    "Lisinopril": "Lizinopril",
    "Gabapentin": "Gabapentine",
    "Cetirizine": "Cetirizin",
    "Prednisone": "Prednizon",
    "Azithromycin": "Azitromycin",
    "Warfarin": "Varfarin",
}

PHARMACY_NAMES = (
    "Central Square Pharmacy", "Old Mill Pharmacy", "Harbor Point Pharmacy",
    "Greenfield Pharmacy", "Corner Stone Pharmacy", "Riverside Pharmacy",
    "Hilltop Pharmacy", "Market Street Pharmacy", "Sunrise Pharmacy",
    "Evergreen Pharmacy",
)

MANUFACTURERS = (
    "Helix Labs", "Atlas Pharma", "Cobalt Biosciences",
    "Meridian Therapeutics", "Pinnacle Biotech", "Quantum Remedies",
    "Solstice Pharma", "Titanium Health", "Umbra Laboratories",
    "Vantage Biologics",
)

INSURER_NAMES = (
    "Northwind Mutual", "Beacon Assurance", "Cornerstone Health Group",
    "Evergreen Coverage", "Keystone Benefit Society", "Praxis Underwriters",
    "Shoreline Mutual", "Granite Benefit Trust",
)

CITIES = (
    "Riverton", "Ashford", "Meadowvale", "Clearwater", "Brockton",
    "Fairmont", "Kingsport", "Ludlow", "Marion", "Newcastle", "Oakdale",
    "Pinehurst", "Quincy", "Redwood", "Salem", "Trenton",
)

DISTRICTS = (
    "Northside", "Riverbend", "Old Town", "Harbor", "Midtown", "Lakeside",
    "Westfield", "Eastgate", "Southport", "Hillcrest", "Brookside",
    "Fairview",
)

STREETS = (
    "Maple Avenue", "Oak Street", "Cedar Lane", "Birch Boulevard",
    "Elm Court", "Willow Road", "Aspen Drive", "Juniper Way",
    "Chestnut Street", "Poplar Avenue", "Sycamore Lane", "Magnolia Court",
)

SPECIALTIES = (
    "Cardiology", "Dermatology", "Neurology", "Pediatrics", "Oncology",
    "Orthopedics", "Psychiatry", "Radiology", "Urology", "Ophthalmology",
    "Endocrinology", "Family Medicine",
)

VISIT_REASONS = (
    "annual checkup", "flu symptoms", "back pain", "follow-up",
    "vaccination", "skin rash", "migraine", "lab results review",
    "physical therapy", "blood pressure check",
)

PLAN_TYPES = ("HMO", "PPO", "EPO", "HDHP")

CLAIM_STATUSES = ("approved", "denied", "pending", "under review")

RISK_LEVELS = ("low", "moderate", "high")

REGIONS = ("Northeast", "Southeast", "Midwest", "Southwest", "Northwest", "Central")
