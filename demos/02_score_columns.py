"""Score cross-database column pairs by name, meaning, and tokens.

Every column in one database is compared against every column in every
other database.  Three signals are blended:

  total = 0.4 * name similarity  (gestalt ratio on raw names)
        + 0.3 * semantic similarity (trigram-embedding cosine)
        + 0.3 * token overlap    (shared tokens / smaller token set)

Only pairs at or above the column threshold (0.6) move on to row-level
validation.  candidate_pairs yields only the pairs whose score can reach
that threshold: a cheap upper bound (difflib's quick_ratio in place of the
gestalt ratio) rules out the rest without scoring them, and never rules out
a pair that would pass.  Run 01_generate_catalog.py first.
"""

from pathlib import Path

from joinscout import MatchConfig, candidate_pairs, filter_candidates, load_catalog, score_pair

CATALOG = Path(__file__).parent / "output" / "catalog" / "manifest.json"


def main() -> None:
    catalog = load_catalog(CATALOG)
    config = MatchConfig()

    # A threshold of 0 rules nothing out, so this counts every pair.
    every = sum(1 for _ in candidate_pairs(catalog, MatchConfig(column_threshold=0.0)))
    pairs = list(candidate_pairs(catalog, config))
    print(f"{len(pairs)} of {every} cross-database pairs can reach the threshold")

    scored = [score_pair(left, right, config) for left, right in pairs]
    scored.sort(key=lambda m: -m.total_score)

    print(f"\ntop 10 of those by composite score (threshold {config.column_threshold}):\n")
    print(f"{'left':<42} {'right':<46} {'name':>5} {'sem':>5} {'tok':>5} {'total':>6}")
    for m in scored[:10]:
        marker = "*" if m.total_score >= config.column_threshold else " "
        print(
            f"{str(m.left):<42} {str(m.right):<46} "
            f"{m.name_sim:>5.2f} {m.semantic_sim:>5.2f} {m.token_overlap:>5.2f} "
            f"{m.total_score:>6.3f} {marker}"
        )

    candidates = filter_candidates(scored, config)
    print(f"\n{len(candidates)} candidates pass the name-level gate.")
    print("Note the impostors: patient_id/citizen_id score well on names")
    print("but will be killed by row validation — their value formats differ.")


if __name__ == "__main__":
    main()
