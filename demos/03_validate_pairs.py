"""Row-level validation: do the column VALUES actually line up?

Name-level scoring is cheap but gullible.  This step samples distinct
values from both columns and checks them two ways:

  value_score   mean over left values of the best token-sort similarity
                on the right (how well does each left value match at all?)
  overlap_s     fuzzy Jaccard: greedy one-to-one matching of value pairs
                above the row threshold, m / (|L| + |R| - m)

A candidate survives only if value_score >= 0.5.  Run demos 01-02 first,
or just 01 — this script re-scores from scratch.
"""

from pathlib import Path

from joinscout import (
    MatchConfig,
    candidate_pairs,
    filter_candidates,
    load_catalog,
    sample_distinct,
    score_pair,
    validate,
)

CATALOG = Path(__file__).parent / "output" / "catalog" / "manifest.json"


def main() -> None:
    catalog = load_catalog(CATALOG)
    config = MatchConfig()
    scored = (score_pair(l, r, config) for l, r in candidate_pairs(catalog, config))
    candidates = filter_candidates(scored, config)

    print(f"validating {len(candidates)} candidates at row level:\n")
    for match in candidates:
        result = validate(match, catalog, config)
        if result is None:
            left_col = catalog.column(match.left)
            right_col = catalog.column(match.right)
            left = sample_distinct(
                left_col.distinct_values, config.sample_cap,
                f"{config.seed}:{match.left}",
            )
            right = sample_distinct(
                right_col.distinct_values, config.sample_cap,
                f"{config.seed}:{match.right}",
            )
            print(f"REJECTED {match.left} ~ {match.right}")
            print(f"         sample left:  {left[:2]}")
            print(f"         sample right: {right[:2]}")
        else:
            print(f"ACCEPTED {match.left} ~ {match.right}")
            print(
                f"         value_score={result.value_score:.3f}  "
                f"overlap_s={result.overlap_s:.3f}  "
                f"({result.sampled_left}x{result.sampled_right} values)"
            )
        print()

    print("The id columns looked alike by name but their values are from")
    print("different generators (hex triples vs C-numbers), so they fail.")


if __name__ == "__main__":
    main()
