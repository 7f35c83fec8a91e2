"""Deterministic work counts: the same seed gives the same counts.

    python3 perfbench/determinism.py

For each workload, runs two traced rounds on ``FIRST_SEED`` and
requires every count metric (``sim.events``, ``net.deliveries``,
``durability.wal_bytes``, ... and ``stored_bytes_per_op``) to be
identical, then runs a round on ``SECOND_SEED`` and requires every
correctness check to pass there too.  Exits 1 on any difference or
failed check.
"""

from __future__ import annotations

import sys

from run import END_TO_END, WORKLOADS, run_round
from tracing import COUNT_METRICS

FIRST_SEED = 11
SECOND_SEED = 12


def counts(report: dict) -> dict:
    found = {name: report["layers"][name] for name in COUNT_METRICS}
    found["stored_bytes_per_op"] = END_TO_END["stored_bytes_per_op"][1](report)
    found["attempted"] = report["attempted"]
    found["failed"] = report["failed"]
    return found


def main() -> int:
    problems = []
    for workload in WORKLOADS:
        a = run_round(workload, FIRST_SEED, trace=True)
        b = run_round(workload, FIRST_SEED, trace=True)
        ca, cb = counts(a), counts(b)
        differing = sorted(n for n in ca if ca[n] != cb[n])
        for name in differing:
            problems.append(f"{workload}: {name} {ca[name]} vs {cb[name]}")
        other = run_round(workload, SECOND_SEED)
        errors = a["errors"] + b["errors"] + other["errors"]
        problems.extend(f"{workload}: {e}" for e in errors)
        if a["failed"] or other["failed"]:
            problems.append(f"{workload}: operations not committed exactly once")
        print(f"{workload}: {len(ca)} counts, {len(differing)} differ; "
              f"seed {SECOND_SEED}: {len(other['errors'])} failed checks, "
              f"{other['failed']} failed operations")
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
