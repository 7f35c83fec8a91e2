"""One round of one workload, in its own process.

    PYTHONPATH=src python3 perfbench/round.py --workload durable --seed 1 \
        [--trace] [--size small] [--spans-out FILE]

Prints one JSON object: the round's raw measurements, the check
errors, the failed-operation count and, with ``--trace``, the
per-layer metrics.  ``run.py`` starts one of these per round and
aggregates them.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import resource
import sys


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=("full", "small"))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    from checks import CHECKERS, failed_operations
    from workloads import WORKLOADS, Measures

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    measures = Measures()
    outcome = WORKLOADS[args.workload](args.seed, args.size, measures)
    if tracer is not None:
        tracer.uninstall()
    gc.collect()
    errors = CHECKERS[args.workload](outcome)
    report = dataclasses.asdict(measures)
    report.update(
        errors=errors,
        failed=failed_operations(outcome),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        report["layers"] = tracer.layer_metrics({
            "deliveries": measures.deliveries,
            "committed": measures.committed_ops,
            "wal_bytes": measures.wal_bytes,
            "pri_inserts": measures.pri_inserts,
        })
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
