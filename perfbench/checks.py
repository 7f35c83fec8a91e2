"""Checks of a round's outcome, made apart from the program.

Each checker takes the outcome document a workload returned (plain
data: canonical states, committed operations, counts) and returns a
list of error strings; an empty list means the round is correct.  The
expected values are recomputed here — the sink counts from the
benchmark's own inputs, scores by recounting the committed votes, the
replica states by a sequential replay of the committed trace — or are
properties the method must have (convergence, exactly-once commit,
payouts within budget).  None is a stored copy of earlier output.

``failed_operations`` counts the operations not committed exactly once;
they make a round's ``failed`` count, not a check error.
"""

from __future__ import annotations

import json

MIN_VOTES = 2


def score(upvotes: int, downvotes: int) -> int:
    """The workloads' scoring function, majority of three (f = u - d
    once u + d reaches the threshold)."""
    return upvotes - downvotes if upvotes + downvotes >= MIN_VOTES else 0


def exactly_once(submitted: dict, committed: dict) -> int:
    """Operations not committed exactly once (missing or duplicated)."""
    keys = set(submitted) | set(committed)
    return sum(abs(submitted.get(k, 0) - committed.get(k, 0)) for k in keys)


def converged(label: str, states: dict) -> list[str]:
    """Every replica named in *states* holds the same canonical state."""
    if not states:
        return [f"{label}: no replica states"]
    names = sorted(states)
    reference = states[names[0]]
    return [
        f"{label}: {name} differs from {names[0]}"
        for name in names[1:]
        if states[name] != reference
    ]


def check_tail(label: str, tail: dict) -> list[str]:
    errors = []
    for cycle in tail["cycles"]:
        where = f"{label} crash of {cycle['endpoint']}"
        if not cycle["quiescent"]:
            errors.append(f"{where}: traffic had not settled")
        for name, state in sorted(cycle["shards"].items()):
            if state != cycle["oracle"]:
                errors.append(f"{where}: {name} differs from the committed-trace replay")
        if cycle["window_commits"] <= 0:
            errors.append(f"{where}: nothing committed while the shard was down")
    for k, (follower, primary) in enumerate(tail["promoted"]):
        if follower != primary:
            errors.append(f"{label}: promoted follower {k} differs from the primary")
    if tail["boot_live_ops"] <= 0:
        errors.append(f"{label}: nothing committed during the bootstrap")
    errors.extend(converged(f"{label} after the tail", tail["states"]))
    return errors


def _subset(small: dict, big: dict) -> bool:
    return all(column in big and big[column] == v for column, v in small.items())


def recount(value: dict, votes: list) -> tuple[int, int]:
    """(upvotes, downvotes) of a row with *value*, from the committed
    votes: upvotes of exactly that value, downvotes of any value it
    extends (Lemma 3)."""
    up = down = 0
    for kind, voted in votes:
        if kind == "UpvoteMessage" and voted == value:
            up += 1
        elif kind == "UndoUpvoteMessage" and voted == value:
            up -= 1
        elif kind == "DownvoteMessage" and _subset(voted, value):
            down += 1
        elif kind == "UndoDownvoteMessage" and _subset(voted, value):
            down -= 1
    return up, down


def check_collection(label: str, main: dict) -> list[str]:
    errors = []
    if not main["completed"]:
        errors.append(f"{label}: the collection did not complete")
    errors.extend(converged(label, main["states"]))
    rows = main["final_rows"]
    if len(rows) != main["target_rows"]:
        errors.append(
            f"{label}: {len(rows)} final rows, target {main['target_rows']}"
        )
    keys = set()
    for value, up, down in rows:
        missing = [c for c in main["columns"] if c not in value]
        if missing:
            errors.append(f"{label}: final row {value} lacks {missing}")
        key = json.dumps([value.get(c) for c in main["key"]])
        if key in keys:
            errors.append(f"{label}: duplicate final key {key}")
        keys.add(key)
        counted = recount(value, main["votes"])
        if counted != (up, down):
            errors.append(
                f"{label}: final row {value} holds votes {(up, down)}, "
                f"the committed trace gives {counted}"
            )
        if score(*counted) <= 0:
            errors.append(f"{label}: final row {value} scores {score(*counted)}")
    payouts = main["payouts"]
    if any(p < 0 for p in payouts.values()):
        errors.append(f"{label}: negative payout")
    if sum(payouts.values()) > main["budget"] + 1e-9:
        errors.append(f"{label}: payouts exceed the budget")
    return errors


def check_crowd(outcome: dict) -> list[str]:
    errors = []
    for k, collection in enumerate(outcome["collections"]):
        errors.extend(check_collection(f"collection {k}", collection["main"]))
        errors.extend(check_tail(f"collection {k}", collection["tail"]))
    return errors


def check_fanout(outcome: dict) -> list[str]:
    main = outcome["main"]
    errors = []
    wrong = sorted(
        name for name, count in main["received"].items()
        if count != main["expected"][name]
    )
    if wrong:
        errors.append(
            f"fanout: {len(wrong)} sinks received the wrong number of "
            f"messages, first {wrong[0]}: {main['received'][wrong[0]]} "
            f"(expected {main['expected'][wrong[0]]})"
        )
    if not (main["quiescent"] and main["fully_exchanged"]):
        errors.append("fanout: the main phase did not end quiescent and exchanged")
    if main["accounting"] is not None:
        errors.append(f"fanout: {main['accounting']}")
    errors.extend(converged("fanout", main["states"]))
    errors.extend(check_tail("fanout", outcome["tail"]))
    return errors


def check_durable(outcome: dict) -> list[str]:
    return check_tail("durable", outcome["tail"])


CHECKERS = {
    "crowd": check_crowd,
    "fanout": check_fanout,
    "durable": check_durable,
}


def failed_operations(outcome: dict) -> int:
    """Operations not committed exactly once by the end of the round;
    for crowd, a collection that did not complete also counts."""
    if outcome["workload"] == "crowd":
        failed = 0
        for collection in outcome["collections"]:
            main, tail = collection["main"], collection["tail"]
            failed += exactly_once(main["submitted"], main["committed"])
            failed += 0 if main["completed"] else 1
            failed += exactly_once(tail["submitted"], tail["committed"])
        return failed
    main, tail = outcome["main"], outcome["tail"]
    return exactly_once(main["submitted"], main["committed"]) + exactly_once(
        tail["submitted"], tail["committed"]
    )
