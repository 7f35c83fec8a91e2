"""Traced runs: spans and counts at the modules' public entry points.

The tracer wraps functions of the ``repro`` package at run time, from
outside: no file under ``src/`` knows it exists.  Every wrapped call
records a span (name, start, end, parent by call nesting) and feeds
per-span and per-layer aggregates:

- inclusive time of a layer counts only its outermost spans (a core
  ``apply_batch`` that calls ``apply_insert`` is counted once);
- self time of a span is its duration minus the time its child spans
  cover, and a layer's self time is the sum over its spans.

Every span is kept in memory and written out as JSON lines when the
round ends.
"""

from __future__ import annotations

import gc
import json
import time

#: (layer, span name, module path, owner attribute or None, function).
#: ``owner`` None wraps a module-level function.  Inclusive time is kept
#: per group: the layer, except where :data:`GROUPS` names a narrower one.
ENTRY_POINTS = (
    ("sim", "sim.run", "repro.sim.kernel", "Simulator", "run"),
    ("net", "net.send", "repro.net.network", "Network", "send"),
    ("net", "net.broadcast", "repro.net.network", "Network", "broadcast"),
    # The kernel calls deliveries and deferred drains directly; without
    # these two spans their cost would read as kernel self time.
    ("net", "net.deliver", "repro.net.network", "Network", "_deliver"),
    ("server", "server.on_message", "repro.server.shard", "ShardServer", "on_message"),
    ("server", "server.ingest", "repro.server.shard", "ShardServer", "ingest"),
    ("server", "server.drain", "repro.server.shard", "ShardServer", "_drain"),
    ("server", "server.encode_exchange", "repro.server.shard", None, "encode_exchange"),
    ("server", "server.decode_exchange", "repro.server.shard", None, "decode_exchange"),
    ("core", "core.apply_batch", "repro.core.table", "CandidateTable", "apply_batch"),
    ("core", "core.apply_insert", "repro.core.table", "CandidateTable", "apply_insert"),
    ("core", "core.apply_replace", "repro.core.table", "CandidateTable", "apply_replace"),
    ("core", "core.apply_upvote", "repro.core.table", "CandidateTable", "apply_upvote"),
    ("core", "core.apply_downvote", "repro.core.table", "CandidateTable", "apply_downvote"),
    ("core", "core.apply_undo_upvote", "repro.core.table", "CandidateTable", "apply_undo_upvote"),
    ("core", "core.apply_undo_downvote", "repro.core.table", "CandidateTable", "apply_undo_downvote"),
    ("constraints", "constraints.on_message", "repro.constraints.central", "CentralClient", "on_message"),
    ("constraints", "constraints.refresh", "repro.constraints.central", "CentralClient", "refresh"),
    ("client", "client.on_message", "repro.client.worker_client", "WorkerClient", "on_message"),
    ("workers", "workers.diligent", "repro.workers.policy", "DiligentPolicy", "choose"),
    ("workers", "workers.guided", "repro.workers.policy", "GuidedPolicy", "choose"),
    ("workers", "workers.spammer", "repro.workers.policy", "SpammerPolicy", "choose"),
    ("workers", "workers.copier", "repro.workers.policy", "CopierPolicy", "choose"),
    ("pay", "pay.on_record", "repro.pay.estimator", "CompensationEstimator", "on_record"),
    ("cdc", "cdc.note", "repro.cdc.subscription", "ChangeStream", "note"),
    ("cdc", "cdc.read_chunk", "repro.cdc.subscription", "Subscription", "read_chunk"),
    ("durability", "durability.append", "repro.durability.wal", "DurableStore", "append"),
    ("durability", "durability.save_checkpoint", "repro.durability.wal", "DurableStore", "save_checkpoint"),
    # save_checkpoint only serialises a built document; the O(table)
    # capture and encoding run in the server's checkpoint step.
    ("durability", "durability.take_checkpoint", "repro.server.backend", "BackendServer", "_take_checkpoint"),
    ("durability", "durability.recover", "repro.server.shard", "ShardServer", "recover"),
)

GROUPS = {
    "server.encode_exchange": "server.codec",
    "server.decode_exchange": "server.codec",
}

#: Per-layer metrics of a traced run: (name, unit, better).
LAYER_METRICS = (
    ("sim.events", "count", "lower"),
    ("sim.pending_peak", "count", "lower"),
    ("sim.self_s", "s", "lower"),
    ("net.deliveries", "count", "lower"),
    ("net.self_s", "s", "lower"),
    ("server.ops_committed", "count", "higher"),
    ("server.drains", "count", "lower"),
    ("server.self_s", "s", "lower"),
    ("server.exchange_batches", "count", "lower"),
    ("server.exchange_codec_s", "s", "lower"),
    ("core.applies", "count", "lower"),
    ("core.apply_s", "s", "lower"),
    ("constraints.pri_inserts", "count", "lower"),
    ("constraints.self_s", "s", "lower"),
    ("client.applies", "count", "lower"),
    ("client.self_s", "s", "lower"),
    ("workers.decisions", "count", "lower"),
    ("workers.useful_ratio", "ratio", "higher"),
    ("workers.decide_s", "s", "lower"),
    ("pay.records", "count", "lower"),
    ("pay.self_s", "s", "lower"),
    ("cdc.events_noted", "count", "lower"),
    ("cdc.chunks_read", "count", "lower"),
    ("cdc.self_s", "s", "lower"),
    ("durability.wal_records", "count", "lower"),
    ("durability.wal_bytes", "B", "lower"),
    ("durability.checkpoints", "count", "lower"),
    ("durability.checkpoint_bytes", "B", "lower"),
    ("durability.append_s", "s", "lower"),
    ("durability.checkpoint_s", "s", "lower"),
    ("durability.replayed_records", "count", "lower"),
    ("durability.rebuilt_records", "count", "lower"),
    ("durability.replay_ratio", "ratio", "lower"),
    ("durability.recover_s", "s", "lower"),
    ("runtime.gc_collections", "count", "lower"),
    ("runtime.gc_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

#: Work counts and their ratios: these must repeat exactly for one seed.
#: (The collector's runs depend on the allocator, not on the program's
#: work, so ``runtime.gc_collections`` is measured, not repeated.)
COUNT_METRICS = tuple(
    name for name, unit, _ in LAYER_METRICS
    if (unit in ("count", "B") or name.endswith("_ratio"))
    and name not in ("runtime.gc_collections", "trace.overhead_ratio")
)

class _Frame:
    __slots__ = ("start", "children", "index")

    def __init__(self, start, index):
        self.start = start
        self.children = 0.0
        self.index = index


class Tracer:
    """Span recorder and per-layer aggregator for one round."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.group_inclusive: dict[str, float] = {}
        self.group_outer_calls: dict[str, int] = {}
        self.layer_self: dict[str, float] = {}
        self._depth: dict[str, int] = {}
        self._stack: list[_Frame] = []
        self.counts: dict[str, float] = {
            "sim.events": 0,
            "sim.pending_peak": 0,
            "workers.useful": 0,
            "durability.checkpoint_bytes": 0,
            "durability.replayed_records": 0,
            "durability.rebuilt_records": 0,
        }
        self.gc_collections = 0
        self.gc_s = 0.0
        self._gc_start = 0.0
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import importlib

        for layer, name, module_path, owner_name, attr in ENTRY_POINTS:
            module = importlib.import_module(module_path)
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr] if owner_name else getattr(module, attr)
            on_return = _ON_RETURN.get(name)
            group = GROUPS.get(name, layer)
            setattr(owner, attr, self._wrap(original, name, layer, group, on_return))
            self._undo.append((owner, attr, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()  # crowdlint: disable=DET001
        else:
            self.gc_collections += 1
            self.gc_s += time.perf_counter() - self._gc_start  # crowdlint: disable=DET001

    def _wrap(self, function, name, layer, group, on_return):
        tracer = self
        stack = self._stack
        depth = self._depth
        calls = self.calls
        self_s = self.self_s
        layer_self = self.layer_self
        group_inclusive = self.group_inclusive
        group_outer_calls = self.group_outer_calls
        spans = self.spans
        calls[name] = 0
        self_s[name] = 0.0
        layer_self.setdefault(layer, 0.0)
        group_inclusive.setdefault(group, 0.0)
        group_outer_calls.setdefault(group, 0)
        depth.setdefault(group, 0)
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            outer = depth[group] == 0
            depth[group] += 1
            index = len(spans)
            spans.append(None)
            frame = _Frame(perf_counter(), index)
            stack.append(frame)
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[group] -= 1
                duration = end - frame.start
                own = duration - frame.children
                calls[name] += 1
                self_s[name] += own
                layer_self[layer] += own
                if outer:
                    group_inclusive[group] += duration
                    group_outer_calls[group] += 1
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent.children += duration
                spans[index] = (
                    name,
                    frame.start,
                    end,
                    parent.index if parent is not None else -1,
                )
            if on_return is not None:
                on_return(tracer, args, result, outer)
            return result

        traced.__wrapped__ = function
        return traced

    # -- output -------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, start, end, parent]))
                handle.write("\n")

    def layer_metrics(self, rig_counts: dict[str, float]) -> dict[str, float]:
        """The per-layer metrics of this round.

        *rig_counts* holds the counts read off the round's program
        objects at its end (deliveries, committed operations, WAL and
        exchange bytes, PRI inserts)."""
        calls = self.calls
        counts = self.counts
        inclusive = self.group_inclusive
        decisions = self.group_outer_calls["workers"]
        rebuilt = counts["durability.rebuilt_records"]
        return {
            "sim.events": counts["sim.events"],
            "sim.pending_peak": counts["sim.pending_peak"],
            "sim.self_s": self.layer_self["sim"],
            "net.deliveries": rig_counts["deliveries"],
            "net.self_s": self.layer_self["net"],
            "server.ops_committed": rig_counts["committed"],
            "server.drains": calls["server.drain"],
            "server.self_s": self.layer_self["server"],
            "server.exchange_batches": calls["server.encode_exchange"],
            "server.exchange_codec_s": inclusive["server.codec"],
            "core.applies": sum(
                calls[n] for n in calls
                if n.startswith("core.") and n != "core.apply_batch"
            ),
            "core.apply_s": inclusive["core"],
            "constraints.pri_inserts": rig_counts["pri_inserts"],
            "constraints.self_s": self.layer_self["constraints"],
            "client.applies": calls["client.on_message"],
            "client.self_s": self.layer_self["client"],
            "workers.decisions": decisions,
            "workers.useful_ratio": (
                counts["workers.useful"] / decisions if decisions else 0.0
            ),
            "workers.decide_s": inclusive["workers"],
            "pay.records": calls["pay.on_record"],
            "pay.self_s": self.layer_self["pay"],
            "cdc.events_noted": calls["cdc.note"],
            "cdc.chunks_read": calls["cdc.read_chunk"],
            "cdc.self_s": self.layer_self["cdc"],
            "durability.wal_records": calls["durability.append"],
            "durability.wal_bytes": rig_counts["wal_bytes"],
            "durability.checkpoints": calls["durability.save_checkpoint"],
            "durability.checkpoint_bytes": counts["durability.checkpoint_bytes"],
            "durability.append_s": self.self_s["durability.append"],
            "durability.checkpoint_s": (
                self.self_s["durability.take_checkpoint"]
                + self.self_s["durability.save_checkpoint"]
            ),
            "durability.replayed_records": counts["durability.replayed_records"],
            "durability.rebuilt_records": rebuilt,
            "durability.replay_ratio": (
                counts["durability.replayed_records"] / rebuilt if rebuilt else 0.0
            ),
            "durability.recover_s": self.self_s["durability.recover"],
            "runtime.gc_collections": self.gc_collections,
            "runtime.gc_s": self.gc_s,
        }


# -- return hooks: counts that only the call's result or receiver carries ---


def _after_run(tracer, args, fired, outer):
    tracer.counts["sim.events"] += fired


def _after_send(tracer, args, _result, outer):
    pending = args[0].sim.pending_events
    if pending > tracer.counts["sim.pending_peak"]:
        tracer.counts["sim.pending_peak"] = pending


def _after_choose(tracer, args, action, outer):
    # A guided policy delegates to a diligent one: count the outer call.
    if outer and type(action).__name__ != "IdleAction":
        tracer.counts["workers.useful"] += 1


def _after_checkpoint(tracer, args, _result, outer):
    tracer.counts["durability.checkpoint_bytes"] += len(args[0]._checkpoint)


def _after_recover(tracer, args, replayed, outer):
    # recover() returns the WAL suffix replayed past the checkpoint; the
    # whole rebuilt history is the shard's trace afterwards.
    tracer.counts["durability.replayed_records"] += replayed
    tracer.counts["durability.rebuilt_records"] += len(args[0].trace)


_ON_RETURN = {
    "sim.run": _after_run,
    "net.send": _after_send,
    "net.broadcast": _after_send,
    "workers.diligent": _after_choose,
    "workers.guided": _after_choose,
    "workers.spammer": _after_choose,
    "workers.copier": _after_choose,
    "durability.save_checkpoint": _after_checkpoint,
    "durability.recover": _after_recover,
}
