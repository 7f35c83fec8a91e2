"""The repository benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload crowd --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Each round of the workload runs in a
fresh single-threaded process (``round.py``); rounds repeat the same
inputs until their timed phases add up to ``--seconds`` (or the run
has taken ``MAX_RUN_S``).  Every figure
is the median over the rounds.  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (``--trace 0``) or the per-layer metrics of
traced rounds (``--trace 1``; those rounds alternate with untraced ones,
which give the tracing overhead).  Exits 2 without a result when the
program's sources are not there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("crowd", "fanout", "durable")

#: End-to-end metrics: name -> (unit, value of one round's report).
END_TO_END = {
    "setup_s": ("s", lambda r: r["setup_s"]),
    "ops_per_s": ("ops/s", lambda r: r["main_ops"] / r["main_wall"]),
    "deliveries_per_s": ("msgs/s", lambda r: r["main_deliveries"] / r["main_wall"]),
    "faulted_ops_per_s": ("ops/s", lambda r: r["crash_ops"] / r["crash_wall"]),
    "recovery_s": ("s", lambda r: sum(r["restarts"])),
    "bootstrap_entries_per_s": ("entries/s", lambda r: r["boot_entries"] / r["boot_wall"]),
    "stored_bytes_per_op": ("B/op", lambda r: r["stored_bytes"] / r["committed_ops"]),
    "peak_rss_mb": ("MB", lambda r: r["peak_rss_mb"]),
}

#: One run must end within 180 seconds: no round may take longer than
#: this, and no round starts once the run has taken MAX_RUN_S.
ROUND_TIMEOUT_S = 150
MAX_RUN_S = 100


class RoundFailed(RuntimeError):
    pass


def run_round(workload, seed, trace=False, size="full", spans_out=None):
    """Run one round in a fresh process; returns its report."""
    command = [sys.executable, os.path.join(HERE, "round.py"),
               "--workload", workload, "--seed", str(seed), "--size", size]
    if trace:
        command.append("--trace")
    if spans_out:
        command += ["--spans-out", spans_out]
    env = dict(os.environ, PYTHONPATH=SRC)
    started = time.monotonic()  # crowdlint: disable=DET001
    proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RoundFailed(
            f"{workload} round exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["timed_start"] - started
    return report


def timed_seconds(report) -> float:
    return report["main_wall"] + report["crash_wall"] + report["boot_wall"]


def median_of(reports, value):
    return statistics.median(value(r) for r in reports)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2

    plain, traced = [], []
    measured = 0.0
    errors = []
    deadline = time.monotonic() + MAX_RUN_S  # crowdlint: disable=DET001

    def more_rounds() -> bool:
        if args.trace and not (plain and traced):
            return True
        now = time.monotonic()  # crowdlint: disable=DET001
        return measured < args.seconds and now < deadline

    try:
        while more_rounds():
            trace = bool(args.trace) and len(traced) <= len(plain)
            spans_out = None
            if trace:
                os.makedirs(OUT, exist_ok=True)
                spans_out = os.path.join(
                    OUT, f"spans-{args.workload}-{args.seed}-{len(traced)}.jsonl"
                )
            report = run_round(args.workload, args.seed, trace, spans_out=spans_out)
            (traced if trace else plain).append(report)
            measured += timed_seconds(report)
            errors.extend(report["errors"])
    except (RoundFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    reports = plain + traced
    if args.trace:
        metrics = layer_metrics(traced, plain, errors)
    else:
        metrics = {
            name: {"value": median_of(plain, value), "unit": unit}
            for name, (unit, value) in END_TO_END.items()
        }
    for error in errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def layer_metrics(traced, plain, errors):
    """Per-layer metrics: counts of the first traced round (every traced
    round must repeat them exactly), times as medians, and the tracing
    overhead as untraced over traced ``ops_per_s``."""
    from tracing import COUNT_METRICS, LAYER_METRICS

    first = traced[0]["layers"]
    for report in traced[1:]:
        for name in COUNT_METRICS:
            if name in first and report["layers"][name] != first[name]:
                errors.append(
                    f"count {name} differs between rounds of one seed: "
                    f"{first[name]} vs {report['layers'][name]}"
                )
    ops_per_s = END_TO_END["ops_per_s"][1]
    overhead = median_of(plain, ops_per_s) / median_of(traced, ops_per_s)
    metrics = {}
    for name, unit, _ in LAYER_METRICS:
        if name == "trace.overhead_ratio":
            value = overhead
        elif name in COUNT_METRICS:
            value = first[name]
        else:
            value = median_of(traced, lambda r: r["layers"][name])
        metrics[name] = {"value": value, "unit": unit}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
