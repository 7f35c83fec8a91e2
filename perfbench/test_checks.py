"""The benchmark's own tests: a smoke pass of every workload at small
size, and checkers that fail on deliberately corrupted outcomes.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json

import pytest

from checks import CHECKERS, check_collection, failed_operations
from run import run_round
from tracing import COUNT_METRICS, LAYER_METRICS
from workloads import WORKLOADS, Measures


@pytest.fixture(scope="module")
def outcomes():
    """One small round of every workload, run in this process."""
    return {name: run(3, "small", Measures()) for name, run in WORKLOADS.items()}


def corrupt_state(state: str) -> str:
    """The state of a replica that missed its last-applied row."""
    document = json.loads(state)
    document["rows"].pop()
    return json.dumps(document, sort_keys=True)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_round_is_correct(outcomes, workload):
    assert CHECKERS[workload](outcomes[workload]) == []
    assert failed_operations(outcomes[workload]) == 0


def test_crowd_replica_missing_an_operation_fails(outcomes):
    outcome = copy.deepcopy(outcomes["crowd"])
    states = outcome["collections"][0]["main"]["states"]
    worker = sorted(name for name in states if name.startswith("worker"))[0]
    states[worker] = corrupt_state(states[worker])
    assert any(worker in e for e in CHECKERS["crowd"](outcome))


def test_crowd_final_row_missing_a_vote_fails(outcomes):
    main = copy.deepcopy(outcomes["crowd"]["collections"][0]["main"])
    value = main["final_rows"][0][0]
    main["votes"].remove(["UpvoteMessage", value])
    errors = check_collection("c", main)
    assert any("committed trace gives" in e for e in errors)


def test_crowd_incomplete_collection_fails(outcomes):
    outcome = copy.deepcopy(outcomes["crowd"])
    main = outcome["collections"][0]["main"]
    main["completed"] = False
    main["final_rows"].pop()
    errors = CHECKERS["crowd"](outcome)
    assert any("did not complete" in e for e in errors)
    assert any("final rows, target" in e for e in errors)
    assert failed_operations(outcome) == 1


def test_crowd_payouts_over_budget_fail(outcomes):
    main = copy.deepcopy(outcomes["crowd"]["collections"][0]["main"])
    worker = sorted(main["payouts"])[0]
    main["payouts"][worker] += main["budget"]
    assert any("budget" in e for e in check_collection("c", main))


def test_crowd_lost_worker_operation_counts_as_failed(outcomes):
    outcome = copy.deepcopy(outcomes["crowd"])
    main = outcome["collections"][0]["main"]
    key = sorted(main["committed"])[0]
    main["committed"][key] -= 1
    assert failed_operations(outcome) == 1


def test_crowd_lost_and_duplicated_operations_do_not_cancel(outcomes):
    outcome = copy.deepcopy(outcomes["crowd"])
    committed = outcome["collections"][0]["main"]["committed"]
    worker = sorted(committed)[0].split(" ")[0]
    lost, duplicated = sorted(k for k in committed if k.startswith(worker + " "))[:2]
    committed[lost] -= 1
    committed[duplicated] += 1
    assert failed_operations(outcome) == 2


def test_fanout_sink_count_off_by_one_fails(outcomes):
    outcome = copy.deepcopy(outcomes["fanout"])
    received = outcome["main"]["received"]
    received[sorted(received)[0]] -= 1
    assert any("sinks received" in e for e in CHECKERS["fanout"](outcome))


def test_fanout_replica_divergence_and_accounting_fail(outcomes):
    outcome = copy.deepcopy(outcomes["fanout"])
    states = outcome["main"]["states"]
    replica = sorted(name for name in states if name.startswith("c"))[0]
    states[replica] = corrupt_state(states[replica])
    outcome["main"]["accounting"] = "link drop-accounting invariant violated"
    errors = CHECKERS["fanout"](outcome)
    assert any(replica in e for e in errors)
    assert any("accounting" in e for e in errors)


def test_durable_live_operation_missing_after_recovery_fails(outcomes):
    outcome = copy.deepcopy(outcomes["durable"])
    tail = outcome["tail"]
    key = sorted(tail["committed"])[0]
    tail["committed"][key] -= 1
    assert failed_operations(outcome) == 1


def test_durable_shard_differing_from_replay_fails(outcomes):
    outcome = copy.deepcopy(outcomes["durable"])
    cycle = outcome["tail"]["cycles"][0]
    cycle["shards"][cycle["endpoint"]] = corrupt_state(cycle["oracle"])
    errors = CHECKERS["durable"](outcome)
    assert any("committed-trace replay" in e for e in errors)


def test_durable_silent_crash_window_and_follower_drift_fail(outcomes):
    outcome = copy.deepcopy(outcomes["durable"])
    tail = outcome["tail"]
    tail["cycles"][-1]["window_commits"] = 0
    tail["promoted"][0][0] = corrupt_state(tail["promoted"][0][0])
    errors = CHECKERS["durable"](outcome)
    assert any("nothing committed while" in e for e in errors)
    assert any("follower" in e for e in errors)


def test_traced_round_reports_every_layer_metric():
    report = run_round("durable", 5, trace=True, size="small")
    assert report["errors"] == []
    names = {name for name, _, _ in LAYER_METRICS} - {"trace.overhead_ratio"}
    assert names <= set(report["layers"])
    again = run_round("durable", 5, trace=True, size="small")
    assert {n: report["layers"][n] for n in COUNT_METRICS if n in names} == {
        n: again["layers"][n] for n in COUNT_METRICS if n in names
    }
