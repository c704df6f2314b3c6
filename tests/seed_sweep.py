"""Failing seeds of every verify row over seeds 0-59, as one table.

Runs `run_verify` with the first catalog profile of each tag on each corpus
kind, and `verify_structural`, at every seed, and prints per row the number
of failing seeds and the seeds themselves.  A seed fails a row when a
held-out report fails its bound (`structural`: when any report fails).  It
changes no verdict and no corpus, and the test suite does not run it (its
name does not match `test_*.py`).  About a minute on one core:

    PYTHONPATH=src python tests/seed_sweep.py
"""

from bifrac.harness import CORPUS_KINDS, TAGS, catalog_profiles, run_verify, verify_structural

SEEDS = range(60)


def _row(name: str, failing: list[int]) -> str:
    return f"| {name} | {len(failing)} | {' '.join(map(str, failing)) or '-'} |"


def main() -> None:
    print(f"Failing seeds of {SEEDS.start}-{SEEDS.stop - 1} per row\n")
    print("| row | failing | seeds |")
    print("|---|---|---|")
    for tag in TAGS:
        profile = catalog_profiles(tag)[0]
        for kind in CORPUS_KINDS:
            failing = [seed for seed in SEEDS if run_verify(profile, kind, seed)[1]["failures"]]
            print(_row(f"{tag} `{kind}`", failing), flush=True)
    failing = [seed for seed in SEEDS if not all(r.passed for r in verify_structural(seed))]
    print(_row("`structural`", failing))


if __name__ == "__main__":
    main()
