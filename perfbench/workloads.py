"""The benchmark's three workloads, each one round in one process.

Every workload builds a durable sharded backend, runs its own main
phase, and ends with the same durability tail on the rig it built:

1. crash phase — each shard crash-stops once in turn (the Central
   Client's host last) while a write mix keeps arriving, and recovers
   from checkpoint plus WAL;
2. bootstrap phase — follower replicas bootstrap one after another from
   chunked CDC snapshot reads while the write mix continues, and are
   promoted.

What differs per workload is the main phase and so the history the
tail recovers and transfers.  Operations arrive on a schedule in
simulated time (an open loop in simulated time); the wall clock
measures how fast the program gets through them.

A workload returns its raw measurements (:class:`Measures`) and an
outcome document that :mod:`checks` verifies.
"""

from __future__ import annotations

import gc
import json
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from types import SimpleNamespace

from repro.cdc.view import canonical_state
from repro.client import WorkerClient
from repro.constraints import Template
from repro.constraints.central import CENTRAL_CLIENT_ID
from repro.core import RowValue, ThresholdScoring
from repro.core.messages import (
    DownvoteMessage,
    TraceRecord,
    InsertMessage,
    ReplaceMessage,
    UpvoteMessage,
)
from repro.core.schema import soccer_player_schema
from repro.durability import DurabilityConfig
from repro.net import (
    FaultInjector,
    FaultPlan,
    Network,
    ShardCrashWindow,
    UniformLatency,
)
from repro.server import ShardedBackend
from repro.server.backend import SERVER_NAME, BootstrapState
from repro.server.tracelog import replay_trace
from repro.sim import RngStreams, Simulator

clock = time.perf_counter
MIN_VOTES = 2
SCORING = ThresholdScoring(MIN_VOTES)

#: Simulated seconds between crash starts, and each crash's length.
CRASH_CYCLE = 10.0
CRASH_DOWN = 2.0

#: Input sizes per workload: "full" is the benchmark, "small" the smoke
#: pass of the benchmark's own tests.
SIZES = {
    # crowd's collections are a fixed corpus of (experiment seed, crew
    # size): one collection's worker-operation rate moves with its inputs
    # by about 15% from seed to seed, so a seed-drawn corpus would
    # measure the inputs rather than the program.
    "crowd": {
        "full": {"collections": ((1, 5), (2, 8), (3, 12), (4, 5), (5, 8), (6, 12)),
                 "crash_batches": 30, "followers": 4, "boot_batches": 4},
        "small": {"collections": ((1, 5),), "crash_batches": 10, "followers": 2,
                  "boot_batches": 3},
    },
    "fanout": {
        "full": {"prefill": 200, "clients": 600, "replicas": 4, "authors": 60,
                 "crash_batches": 12, "followers": 8, "boot_batches": 2},
        "small": {"prefill": 40, "clients": 40, "replicas": 2, "authors": 10,
                  "crash_batches": 5, "followers": 2, "boot_batches": 3},
    },
    "durable": {
        "full": {"batches": 1200, "crash_batches": 200, "followers": 3,
                 "boot_batches": 20},
        "small": {"batches": 100, "crash_batches": 20, "followers": 2,
                  "boot_batches": 5},
    },
}


@dataclass
class Measures:
    """Raw wall times and work counts of one round."""

    timed_start: float = 0.0  # time.monotonic() at the first timed phase
    main_wall: float = 0.0
    main_ops: int = 0
    main_deliveries: int = 0
    crash_wall: float = 0.0
    crash_ops: int = 0
    restarts: list = field(default_factory=list)
    boot_wall: float = 0.0
    boot_entries: int = 0
    stored_bytes: int = 0
    committed_ops: int = 0
    attempted: int = 0
    # Counts read off the program objects for the traced run.
    deliveries: int = 0
    wal_bytes: int = 0
    pri_inserts: int = 0

    def start_timing(self) -> None:
        if not self.timed_start:
            self.timed_start = time.monotonic()  # crowdlint: disable=DET001


# -- shared pieces ------------------------------------------------------------


def canonical(table) -> str:
    """A table's state as canonical JSON (rows, vote histories,
    superseded ids): equal states give equal strings."""
    return json.dumps(
        canonical_state(BootstrapState.capture(SimpleNamespace(table=table))),
        sort_keys=True, separators=(",", ":"),
    )


def op_key(source: str, message) -> str:
    return source + " " + json.dumps(message.to_dict(), sort_keys=True)


def committed_ops(backend) -> int:
    return sum(len(shard.commit_log) for shard in backend.shards)


def replay_committed(backend, schema):
    """A fresh table holding a sequential replay of the committed trace."""
    records = [
        TraceRecord(seq=i, timestamp=c.timestamp, worker_id=c.worker_id, message=m)
        for i, (c, m) in enumerate(backend.committed_trace())
    ]
    return replay_trace(schema, SCORING, records)


def stored_bytes(backend) -> tuple[int, int]:
    """(WAL bytes, WAL plus retained checkpoint bytes) over the shards
    that own keys (followers the tail adds are left out, so the figure
    does not grow with the number of bootstraps)."""
    wal = checkpoints = 0
    for server in backend.shards:
        store = server.durable
        wal += store.log.size_bytes
        checkpoints += len(store._checkpoint or b"")
    return wal, wal + checkpoints


def snapshot_entries(table) -> int:
    """Entries a snapshot of *table* moves: rows plus non-zero tallies."""
    return (
        len(table)
        + sum(1 for n in table.upvote_history.values() if n)
        + sum(1 for n in table.downvote_history.values() if n)
    )


class _Sink:
    """A wire-faithful client endpoint without a replica: it counts."""

    __slots__ = ("received",)

    def __init__(self) -> None:
        self.received = 0

    def on_message(self, source, payload) -> None:
        self.received += 1


def attach_sink(network, backend, name: str) -> _Sink:
    sink = _Sink()
    network.register(name, sink)
    backend.attach_client(name)
    return sink


def attach_replica(network, backend, schema, name: str, streams) -> WorkerClient:
    client = WorkerClient(name, schema, SCORING, network, streams=streams)
    client.bootstrap(backend.attach_client(name))
    return client


def soccer_value(label: str, j: int, schema) -> RowValue:
    """A complete row of the soccer schema (votes go to complete rows
    only, as in the paper's interface)."""
    value = {
        "name": f"{label} {j}",
        "nationality": f"Country {j % 20}",
        "position": ("GK", "DF", "MF", "FW")[j % 4],
        "caps": 80 + j % 20,
        "goals": j % 40,
        "dob": f"19{70 + j % 30}-0{1 + j % 9}-1{j % 10}",
    }
    return RowValue({c: value[c] for c in schema.column_names})


class WriteMix:
    """Seeded write batches: each inserts and fills a new row and up- or
    downvotes an older one.  Records every submitted operation."""

    def __init__(self, rng, sources, label: str, schema) -> None:
        self.rng = rng
        self.sources = sources
        self.label = label
        self.schema = schema
        self.count = 0
        self.submitted: Counter = Counter()

    def next_batch(self):
        j = self.count
        self.count += 1
        source = self.sources[j % len(self.sources)]
        row_id = f"{source}#{self.label}{j}"
        value = soccer_value(self.label, j, self.schema)
        messages = [
            InsertMessage(row_id=row_id),
            ReplaceMessage(
                old_id=row_id, new_id=f"{self.label}-{j}", value=value,
                column="name", filled_value=value["name"],
            ),
        ]
        if j:
            older = soccer_value(self.label, self.rng.randrange(j), self.schema)
            vote = UpvoteMessage if self.rng.random() < 0.75 else DownvoteMessage
            messages.append(vote(value=older))
        for message in messages:
            self.submitted[op_key(source, message)] += 1
        return source, messages


@dataclass
class Rig:
    sim: Simulator
    network: Network
    backend: ShardedBackend
    schema: object
    clients: dict  # full replicas: checked for convergence, rejoined after crashes
    writer: WriteMix


def committed_by(backend, sources) -> Counter:
    wanted = set(sources)
    return Counter(
        op_key(commit.worker_id, message)
        for commit, message in backend.committed_trace()
        if commit.worker_id in wanted
    )


def timed_main_phase(sim, network, backend, m: Measures) -> None:
    """Run the scheduled main phase to quiescence, timed."""
    delivered = network.stats.messages_delivered
    before = committed_ops(backend)
    gc.collect()
    m.start_timing()
    t0 = clock()
    sim.run()
    m.main_wall += clock() - t0
    m.main_deliveries += network.stats.messages_delivered - delivered
    m.main_ops += committed_ops(backend) - before


def durability_tail(rig: Rig, sizes: dict, m: Measures) -> dict:
    """Crash every shard once under continued ingest, then bootstrap and
    promote followers under continued ingest.  Returns the outcome
    document of the tail."""
    sim, backend, writer = rig.sim, rig.backend, rig.writer
    victims = backend.shards[1:] + backend.shards[:1]
    base = sim.now + 1.0
    windows = [
        ShardCrashWindow(shard.endpoint, base + k * CRASH_CYCLE,
                         base + k * CRASH_CYCLE + CRASH_DOWN)
        for k, shard in enumerate(victims)
    ]
    injector = FaultInjector(sim, rig.network, FaultPlan(crashes=tuple(windows)))
    backend.bind_faults(injector, clients=rig.clients)
    restart = backend._on_shard_restart

    def timed_restart(shard) -> None:
        t0 = clock()
        restart(shard)
        m.restarts.append(clock() - t0)

    backend._on_shard_restart = timed_restart
    injector.install()
    batches = sizes["crash_batches"]
    for window in windows:
        # Spread over the crash and the rebuild after it.
        for i in range(batches):
            at = window.start + 0.01 + (CRASH_DOWN + 1.0) * i / batches
            source, messages = writer.next_batch()
            sim.schedule_at(at, lambda s=source, b=messages: backend.ingest(s, b))
    cycles = []
    before = committed_ops(backend)
    for window in windows:
        gc.collect()
        t0 = clock()
        sim.run(until=window.start + CRASH_CYCLE - 1.0)
        m.crash_wall += clock() - t0
        cycles.append(cycle_outcome(rig, window))
    m.crash_ops += committed_ops(backend) - before

    # Bootstrap phase: followers one after another, each promoted while
    # the write mix continues (one bootstrap alone is too short to time).
    promoted = []
    before = committed_ops(backend)
    for k in range(sizes["followers"]):
        m.boot_entries += snapshot_entries(backend.primary.replica.table)
        pending = [writer.next_batch() for _ in range(sizes["boot_batches"])]
        gc.collect()
        t0 = clock()
        driver = backend.bootstrap_follower(f"follower{k}", chunk_entries=64)
        while not driver.live:
            more = driver.step()
            if pending:
                source, messages = pending.pop(0)
                backend.ingest(source, messages)
                sim.run()
            if not more:
                break
        for source, messages in pending:
            backend.ingest(source, messages)
        sim.run()
        follower = driver.promote()
        sim.run()
        m.boot_wall += clock() - t0
        promoted.append([
            canonical(follower.replica.table),
            canonical(backend.primary.replica.table),
        ])
    m.attempted += sum(writer.submitted.values())
    finish(rig, m)
    return {
        "cycles": cycles,
        "boot_live_ops": committed_ops(backend) - before,
        "promoted": promoted,
        "states": convergence_outcome(backend, rig.clients),
        "submitted": dict(writer.submitted),
        "committed": dict(committed_by(backend, writer.sources)),
    }


def cycle_outcome(rig: Rig, window) -> dict:
    """The state after one crash cycle, once its traffic has settled."""
    backend = rig.backend
    oracle = canonical(replay_committed(backend, rig.schema))
    return {
        "endpoint": window.endpoint,
        "quiescent": rig.network.quiescent() and backend.fully_exchanged(),
        "oracle": oracle,
        "shards": {s.endpoint: canonical(s.replica.table) for s in backend.shards},
        "window_commits": sum(
            1 for commit, _ in backend.committed_trace()
            if window.start <= commit.timestamp < window.end
        ),
    }


def finish(rig: Rig, m: Measures) -> None:
    """Fold the rig's end-of-round counts into *m*."""
    wal, total = stored_bytes(rig.backend)
    m.wal_bytes += wal
    m.stored_bytes += total
    m.committed_ops += committed_ops(rig.backend)
    m.deliveries += rig.network.stats.messages_delivered
    m.pri_inserts += sum(
        1 for commit, message in rig.backend.committed_trace()
        if commit.worker_id == CENTRAL_CLIENT_ID
        and isinstance(message, InsertMessage)
    )


def convergence_outcome(backend, clients: dict) -> dict:
    """Canonical state of every shard, follower and full replica."""
    states = {s.endpoint: canonical(s.replica.table) for s in backend.shards}
    states.update(
        (f.endpoint, canonical(f.replica.table)) for f in backend.followers
    )
    states.update(
        (name, canonical(c.replica.table)) for name, c in sorted(clients.items())
    )
    return states


# -- crowd ----------------------------------------------------------------


def run_crowd(seed: int, size: str, m: Measures) -> dict:
    """The paper's section 6 collection on 2 durable shards, through the
    entry points ``repro run`` uses, once per collection of the fixed
    corpus; each collection then gets the durability tail, whose write
    mix *seed* draws."""
    from repro.experiments import CrowdFillExperiment, ExperimentConfig
    from repro.pay import AllocationScheme
    from repro.session import CollectionSession

    sizes = SIZES["crowd"][size]
    session_run = CollectionSession.run
    sent: list = []  # (worker, message), keyed after the round

    def timed_run(self, *args, **kwargs):
        # Every operation a worker client puts on the wire, for the
        # exactly-once check at the end of the round.
        network_send = self.network.send

        def recording_send(source, destination, payload):
            if destination == SERVER_NAME and source in self.clients:
                sent.append((source, payload))
            network_send(source, destination, payload)

        self.network.send = recording_send
        gc.collect()
        m.start_timing()
        t0 = clock()
        try:
            return session_run(self, *args, **kwargs)
        finally:
            m.main_wall += clock() - t0

    CollectionSession.run = timed_run
    collections = []
    try:
        for k, (experiment_seed, crew) in enumerate(sizes["collections"]):
            sent.clear()
            config = ExperimentConfig(
                seed=experiment_seed, num_workers=crew, shards=2,
                checkpoint_interval=DurabilityConfig().checkpoint_interval,
            )
            experiment = CrowdFillExperiment(config)
            result = experiment.run()
            session = experiment.session
            backend = session.backend
            network = session.network
            schema = result.schema
            workers = sorted(session.clients)
            main_ops = Counter(c.worker_id for c, _ in backend.committed_trace())
            m.main_ops += sum(main_ops[w] for w in workers)
            m.main_deliveries += network.stats.messages_delivered
            main = {
                "completed": result.completed,
                "target_rows": config.target_rows,
                "columns": list(schema.column_names),
                "key": list(schema.primary_key),
                "final_rows": [
                    [dict(row.value), row.upvotes, row.downvotes]
                    for row in backend.final_rows()
                ],
                "votes": [
                    [type(msg).__name__, dict(msg.value)]
                    for _, msg in backend.committed_trace()
                    if hasattr(msg, "value") and not isinstance(msg, ReplaceMessage)
                ],
                "states": convergence_outcome(backend, session.clients),
                "payouts": result.allocation(
                    AllocationScheme.DUAL_WEIGHTED
                ).by_worker,
                "budget": config.budget,
            }
            sources = [f"live{i}" for i in range(4)]
            for name in sources:
                attach_sink(network, backend, name)
            writer = WriteMix(random.Random(seed * 100 + k), sources, "tail", schema)
            rig = Rig(session.sim, network, backend, schema, session.clients, writer)
            tail = durability_tail(rig, sizes, m)
            # Exactly-once is judged at the end of the round: what the
            # worker clients put on the wire against what was committed.
            main["submitted"] = dict(Counter(op_key(w, msg) for w, msg in sent))
            main["committed"] = dict(committed_by(backend, workers))
            m.attempted += len(sent) + 1
            collections.append({"main": main, "tail": tail})
    finally:
        CollectionSession.run = session_run
    return {"workload": "crowd", "collections": collections}


# -- fanout ---------------------------------------------------------------


def run_fanout(seed: int, size: str, m: Measures) -> dict:
    """A prefilled table, several hundred attached clients (mostly
    counting sinks, a few full replicas), and a slice of the crew
    authoring rows through bulk ingest on 4 shards."""
    sizes = SIZES["fanout"][size]
    rng = random.Random(seed)
    streams = RngStreams(seed)
    sim = Simulator()
    network = Network(sim, default_latency=UniformLatency(0.02, 0.25), streams=streams)
    schema = soccer_player_schema()
    backend = ShardedBackend(
        sim, network, schema, SCORING, Template.cardinality(4), shards=4,
        durability=DurabilityConfig(),
    )
    loaders = [f"load{i}" for i in range(4)]
    sources = [f"live{i}" for i in range(4)]
    for name in loaders + sources:
        attach_sink(network, backend, name)
    backend.start()
    prefill = WriteMix(rng, loaders, "pre", schema)
    for _ in range(sizes["prefill"]):
        source, messages = prefill.next_batch()
        value = messages[1].value
        backend.ingest(source, messages + [UpvoteMessage(value=value)] * 2)
    sim.run()
    crew = [f"c{i:04d}" for i in range(sizes["clients"])]
    step = len(crew) // sizes["replicas"]
    replica_names = set(crew[step // 2::step][: sizes["replicas"]])
    clients, sinks = {}, {}
    for name in crew:
        if name in replica_names:
            clients[name] = attach_replica(network, backend, schema, name, streams)
        else:
            sinks[name] = attach_sink(network, backend, name)
    sim.run()

    authors = sorted(rng.sample(sorted(sinks), sizes["authors"]))
    batches = []
    for j, author in enumerate(authors):
        value = RowValue({"name": f"Author {seed} {j}"})
        row_id = f"{author}#a{j}"
        batches.append((author, [
            InsertMessage(row_id=row_id),
            ReplaceMessage(old_id=row_id, new_id=f"authored-{j}", value=value,
                           column="name", filled_value=value["name"]),
        ]))
    submitted = Counter(op_key(a, msg) for a, msgs in batches for msg in msgs)
    m.attempted += sum(submitted.values())
    start = sim.now + 1.0
    for j, (author, messages) in enumerate(batches):
        sim.schedule_at(start + 0.02 * j,
                        lambda s=author, b=messages: backend.ingest(s, b))
    received_before = {name: sink.received for name, sink in sinks.items()}
    timed_main_phase(sim, network, backend, m)
    authored = Counter(a for a, msgs in batches for _ in msgs)
    total = sum(authored.values())
    try:
        network.check_accounting()
        accounting = None
    except AssertionError as exc:
        accounting = str(exc)
    main = {
        "received": {n: s.received - received_before[n] for n, s in sinks.items()},
        "expected": {n: total - authored.get(n, 0) for n in sinks},
        "quiescent": network.quiescent(),
        "fully_exchanged": backend.fully_exchanged(),
        "accounting": accounting,
        "submitted": dict(submitted),
    }
    rig = Rig(sim, network, backend, schema, clients,
              WriteMix(rng, sources, "tail", schema))
    main["states"] = convergence_outcome(backend, clients)
    tail = durability_tail(rig, sizes, m)
    main["committed"] = dict(committed_by(backend, authors))
    return {"workload": "fanout", "main": main, "tail": tail}


# -- durable --------------------------------------------------------------


def run_durable(seed: int, size: str, m: Measures) -> dict:
    """A 2-shard backend with the default durability configuration: a
    write mix spread over simulated time, then the durability tail."""
    sizes = SIZES["durable"][size]
    rng = random.Random(seed)
    streams = RngStreams(seed)
    sim = Simulator()
    network = Network(sim, default_latency=UniformLatency(0.02, 0.25), streams=streams)
    schema = soccer_player_schema()
    backend = ShardedBackend(
        sim, network, schema, SCORING, Template.cardinality(4), shards=2,
        durability=DurabilityConfig(),
    )
    writers = [f"w{i}" for i in range(8)]
    sources = [f"live{i}" for i in range(4)]
    for name in writers + sources:
        attach_sink(network, backend, name)
    backend.start()
    sim.run()
    mix = WriteMix(rng, writers, "row", schema)
    start = sim.now + 1.0
    for j in range(sizes["batches"]):
        source, messages = mix.next_batch()
        sim.schedule_at(start + 0.01 * j,
                        lambda s=source, b=messages: backend.ingest(s, b))
    timed_main_phase(sim, network, backend, m)
    m.attempted += sum(mix.submitted.values())
    main = {"submitted": dict(mix.submitted)}
    rig = Rig(sim, network, backend, schema, {}, WriteMix(rng, sources, "tail", schema))
    tail = durability_tail(rig, sizes, m)
    main["committed"] = dict(committed_by(backend, writers))
    return {"workload": "durable", "main": main, "tail": tail}


WORKLOADS = {"crowd": run_crowd, "fanout": run_fanout, "durable": run_durable}
