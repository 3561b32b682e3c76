"""The benchmark's three workloads: set-up, measured phase, recovery,
compaction, and the output checks that gate every run.

Each workload runs on a 3-node cluster with 1 KB values and Zipfian
(theta = 1.0) key choice.  Logical clients are closed-loop generators on
the virtual-time scheduler (``repro.sim.scheduler``); every operation is
queue-aware: it reaches its tablet server one request leg after it was
issued and waits there until the server's clock is free, so simulated
latencies include queueing behind other clients' work.  YCSB clients
are homed on one node each and draw keys from that node's tablets, so
every server has the same number of clients queueing on it.

Everything random derives from the ``seed`` argument, and the measured
work is a fixed number of operations, so every simulated figure of a
run is a pure function of (workload, seed).
"""

from __future__ import annotations

import gc
import random
from bisect import bisect_left
from itertools import accumulate
from dataclasses import dataclass, field
from math import ceil
from statistics import fmean

from repro.bench.adapters import GROUP, LOAD_BUFFER, TABLE, USERTABLE_SCHEMA
from repro.bench.tpcw import CART_SCHEMA, ITEM_SCHEMA, ORDERS_SCHEMA
from repro.bench.ycsb import KEY_DOMAIN, make_key
from repro.config import LogBaseConfig
from repro.core.client import Client
from repro.core.cluster import LogBaseCluster
from repro.errors import LogBaseError
from repro.obs.trace import uninstall_tracer
from repro.sim.machine import Machine
from repro.sim.scheduler import Advance, ConcurrentScheduler, Invoke
from repro.txn.mvocc import TransactionManager
from speed import SpeedProbe

N_NODES = 3
VALUE_BYTES = 1000
THETA = 1.0
REQUEST_OVERHEAD = 64  # RPC framing, as in repro.core.client
ACK_BYTES = 16
HEARTBEAT_INTERVAL = 0.01  # simulated seconds between heartbeat ticks
SCAN_END = b"\xff" * 32


class CheckFailed(Exception):
    """An output check found a wrong answer; the run must not report."""


@dataclass
class Shape:
    """The sizes that define one workload."""

    records_per_node: int  # ycsb: user records; tpcw: items and carts each
    clients_per_node: int  # ycsb: homed on the node; tpcw: any key
    ops_per_client: int
    think_ms: float  # mean of each client's exponential think time
    reads_per_client: int  # exact count per client, so totals are fixed
    heap_bytes: int | None = None  # None keeps the paper's 4 GB heap
    block_cache_chunk: int | None = None  # None keeps the 64 KB default


SHAPES = {
    "ycsb-update": Shape(
        records_per_node=500, clients_per_node=4, ops_per_client=260, think_ms=1.0,
        reads_per_client=13,
    ),
    # Read cache 51 KB and block cache 25 KB (three 8 KB chunks) per node
    # against ~250 KB of records per node.  The chunk is smaller than the
    # 64 KB default so the block cache holds more than one chunk at this
    # heap; blocks and segments keep their 64 MB size.  A cache miss
    # costs ~12.7 simulated ms; a think time near it (and a dozen
    # clients per node to keep the servers busy) spreads arrivals over
    # service periods, so waits are not whole multiples of one miss.
    "ycsb-read-verified": Shape(
        records_per_node=240, clients_per_node=12, ops_per_client=80, think_ms=5.0,
        reads_per_client=76,
        heap_bytes=256 * 1024, block_cache_chunk=8 * 1024,
    ),
    "tpcw-ordering-observed": Shape(
        records_per_node=300, clients_per_node=4, ops_per_client=250, think_ms=1.0,
        reads_per_client=125,
    ),
}

WORKLOADS = tuple(SHAPES)


def make_config(name: str) -> LogBaseConfig:
    """The cluster configuration each workload runs under."""
    shape = SHAPES[name]
    heap = {} if shape.heap_bytes is None else {"heap_bytes": shape.heap_bytes}
    if shape.block_cache_chunk is not None:
        heap["block_cache_chunk"] = shape.block_cache_chunk
    if name == "ycsb-update":
        return LogBaseConfig(**heap)  # the paper config: every gate off
    if name == "ycsb-read-verified":
        # The integrity setting every fault-tolerance preset turns on.
        return LogBaseConfig.with_read_pipeline(
            dfs_checksum_replicas=True, dfs_verify_reads=True, **heap
        )
    return LogBaseConfig(tracing=True, monitoring=True, **heap)


def value_for(key: bytes, version: int) -> bytes:
    """A distinct 1 KB payload per (key, version), so a stale or misrouted
    read can never match the model by accident."""
    head = b"%s:%09d:" % (key, version)
    return head + b"v" * (VALUE_BYTES - len(head))


# -- results ------------------------------------------------------------------------


@dataclass
class Measured:
    """What the measured phase did."""

    attempted: int = 0
    failed: int = 0
    reads: int = 0
    writes: int = 0
    user_bytes_written: int = 0
    read_latencies: list[float] = field(default_factory=list)
    update_latencies: list[float] = field(default_factory=list)
    makespan: float = 0.0
    mismatches: list[str] = field(default_factory=list)


@dataclass
class RepResult:
    """One set-up plus measured phase plus recovery plus compaction.
    Wall figures are scaled to the reference speed (see speed.py)."""

    setup_s: float
    measured: Measured
    sim: dict[str, float]
    wall: dict[str, float]
    ratios: dict[str, float]
    samples: dict[str, int]
    speed_scale: float  # reference kernel time over the median measured one


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, ceil(q * len(ordered))))
    return ordered[rank - 1]


# -- set-up ---------------------------------------------------------------------------


@dataclass
class State:
    name: str
    seed: int
    cluster: LogBaseCluster
    model: dict[tuple[str, str, bytes], bytes]
    tables: list[tuple[str, str]]
    keys: dict[str, list[bytes]] = field(default_factory=dict)
    order: dict[str, list[int]] = field(default_factory=dict)
    home_keys: list[list[bytes]] = field(default_factory=list)  # per server, hottest first
    txn: TransactionManager | None = None
    version: int = 0


def _random_keys(rng: random.Random, n: int) -> list[bytes]:
    return sorted(make_key(v) for v in rng.sample(range(KEY_DOMAIN), n))


class KeyChooser:
    """Zipfian (theta = 1.0) choice over a key list.

    Popularity rank r maps to ``keys[order[r]]``, one permutation per run,
    so every client shares one hot set.  Ranks come from the exact inverse
    CDF fed with uniform draws stratified in blocks of STRATA (one draw
    from each 1/STRATA slice of [0, 1), in shuffled order): each client's
    stream matches the distribution closely, which keeps seed-to-seed
    spreads of the simulated percentiles small.  The repository's
    scrambled generator is not used: it maps ranks onto a small part of
    the domain for many sizes (42 distinct keys of 600).
    """

    STRATA = 64

    def __init__(self, keys: list[bytes], order: list[int], seed: int) -> None:
        self._keys = keys
        self._order = order
        self._cdf = list(accumulate(1.0 / rank for rank in range(1, len(keys) + 1)))
        self._rng = random.Random(seed)
        self._block: list[float] = []

    def next(self) -> bytes:
        if not self._block:
            n = self.STRATA
            self._block = [(j + self._rng.random()) / n for j in range(n)]
            self._rng.shuffle(self._block)
        u = self._block.pop() * self._cdf[-1]
        rank = min(bisect_left(self._cdf, u), len(self._cdf) - 1)
        return self._keys[self._order[rank]]


def popularity_order(
    cluster: LogBaseCluster, table: str, keys: list[bytes], rng: random.Random
) -> list[int]:
    """Key indices from most to least popular.

    Ranks are dealt round-robin over the servers owning the keys, each
    server's keys in a seeded random order: every seed gets a different
    hot set, but each server carries the same share of it, so a seed
    cannot pile the hottest keys onto one server by chance.
    """
    master = cluster.master
    by_server: dict[str, list[int]] = {}
    for i, key in enumerate(keys):
        by_server.setdefault(master.locate(table, key)[0], []).append(i)
    lanes = [by_server[name] for name in sorted(by_server)]
    for lane in lanes:
        rng.shuffle(lane)
    order = []
    for depth in range(max(len(lane) for lane in lanes)):
        order.extend(lane[depth] for lane in lanes if depth < len(lane))
    return order


def _bulk_load(state: State, table: str, group: str, items) -> None:
    """Batched writes, one flush per LOAD_BUFFER records per server."""
    master = state.cluster.master
    buffers: dict[str, list] = {}
    for key, value in items:
        name, _ = master.locate(table, key)
        buffer = buffers.setdefault(name, [])
        buffer.append((key, {group: value}))
        state.model[(table, group, key)] = value
        if len(buffer) >= LOAD_BUFFER:
            master.server(name).write_batch(table, buffer)
            buffers[name] = []
    for name, buffer in buffers.items():
        if buffer:
            master.server(name).write_batch(table, buffer)


def setup(name: str, seed: int) -> State:
    """Build the cluster, load it, warm its caches and checkpoint it.

    The checkpoint closes set-up, so recovery later redoes exactly the
    measured phase's log tail; automatic checkpoints stay off.
    """
    shape = SHAPES[name]
    cluster = LogBaseCluster(N_NODES, make_config(name))
    rng = random.Random(seed)
    n = shape.records_per_node * N_NODES
    if name.startswith("ycsb"):
        cluster.create_table(USERTABLE_SCHEMA)
        state = State(name, seed, cluster, {}, [(TABLE, GROUP)])
        keys = _random_keys(rng, n)
        state.keys[TABLE] = keys
        state.order[TABLE] = order = popularity_order(cluster, TABLE, keys, rng)
        state.home_keys = [
            [keys[i] for i in order if cluster.master.locate(TABLE, keys[i])[0] == server.name]
            for server in cluster.servers
        ]
        # Coldest first: the LRU read cache ends set-up holding the
        # hottest records, which warms it without a read pass.
        _bulk_load(
            state, TABLE, GROUP,
            ((keys[i], value_for(keys[i], 0)) for i in reversed(order)),
        )
    else:
        for schema in (ITEM_SCHEMA, CART_SCHEMA, ORDERS_SCHEMA):
            cluster.create_table(schema)
        state = State(
            name, seed, cluster, {},
            [("item", "detail"), ("cart", "cart"), ("orders", "order")],
        )
        for table in ("item", "cart"):
            state.keys[table] = _random_keys(rng, n)
            state.order[table] = popularity_order(cluster, table, state.keys[table], rng)
        _bulk_load(state, "item", "detail", ((k, value_for(k, 0)) for k in state.keys["item"]))
        _bulk_load(state, "cart", "cart", ((k, value_for(k, 0)) for k in state.keys["cart"]))
        state.txn = TransactionManager(
            cluster.master, cluster.tso, cluster.coordination, tracing=True
        )
    for server in cluster.servers:
        cluster.checkpoints[server.name].write_checkpoint()
    cluster.reset_clocks()
    return state


def teardown(state: State) -> None:
    """Unhook process-wide observers the cluster installed."""
    cluster = state.cluster
    if cluster.monitor is not None:
        cluster.monitor.close()
    if cluster.tracer is not None:
        uninstall_tracer(cluster.tracer)


# -- measured phase ---------------------------------------------------------------------


def _client_machines(state: State) -> list[Machine]:
    network = state.cluster.config.network
    return [
        Machine(f"bench-client-{i}", network=network)
        for i in range(N_NODES * SHAPES[state.name].clients_per_node)
    ]


def _kinds(shape: Shape, rng: random.Random) -> list[bool]:
    """Exactly ``reads_per_client`` reads (True) in a seeded order."""
    kinds = [True] * shape.reads_per_client + [False] * (
        shape.ops_per_client - shape.reads_per_client
    )
    rng.shuffle(kinds)
    return kinds


def _queue_at(server, now: float, request: float) -> None:
    # The request reaches the server one leg after issue; a busy server
    # (its clock already past that) makes it wait its turn.
    server.machine.clock.advance_to(now + request)


def _closed_loop(ops, shape: Shape, rng: random.Random, out: Measured, ends: list):
    """Run one logical client: each item of ``ops`` is
    ``(op, written_bytes, reads, label)`` where ``op(now)`` returns
    ``(answer_ok, seconds)``; an op that writes nothing is a read-only op.
    An exponential think time follows every completed operation."""
    clock = 0.0
    for op, written, reads, label in ops:
        out.attempted += 1
        try:
            ok, seconds = yield Invoke(op)
        except LogBaseError:  # aborts included
            out.failed += 1
            continue
        if not ok:
            out.mismatches.append(f"{label}: not the last acknowledged value")
        if written:
            out.writes += 1
            out.user_bytes_written += written
            out.update_latencies.append(seconds)
        else:
            out.read_latencies.append(seconds)
        out.reads += reads
        think = rng.expovariate(1000.0 / shape.think_ms)
        yield Advance(think)
        clock += seconds + think
    ends.append(clock)


def _legs(machine: Machine, server, request_bytes: int, response_bytes: int):
    network = machine.network
    return (
        network.transfer_cost(request_bytes, a=machine.name, b=server.machine.name),
        network.transfer_cost(response_bytes, a=server.machine.name, b=machine.name),
    )


def _ycsb_ops(state: State, slot: int, machine: Machine, rng: random.Random):
    """Operations through the public Client API (routing, RPC framing);
    timing is taken on the serving tablet server's clock.  The client is
    homed on server ``slot % N_NODES`` and picks keys by popularity among
    that server's keys."""
    master = state.cluster.master
    client = Client(master, machine)
    home = state.home_keys[slot % N_NODES]
    chooser = KeyChooser(home, list(range(len(home))), state.seed * 1000 + slot)
    model = state.model
    for is_read in _kinds(SHAPES[state.name], rng):
        key = chooser.next()
        value = None
        if not is_read:
            state.version += 1
            value = value_for(key, state.version)

        def op(now, key=key, value=value):
            server = master.server(master.locate(TABLE, key)[0])
            request, response = _legs(
                machine, server,
                len(key) + REQUEST_OVERHEAD + (0 if value is None else len(value)),
                VALUE_BYTES if value is None else ACK_BYTES,
            )
            _queue_at(server, now, request)
            # The model changes when the op executes, not when its client
            # resumes: other clients' ops run in between.
            if value is None:
                ok = client.get_raw(TABLE, key, GROUP) == model[(TABLE, GROUP, key)]
            else:
                client.put_raw(TABLE, key, GROUP, value)
                model[(TABLE, GROUP, key)] = value
                ok = True
            return ok, server.machine.clock.now - now + response

        if value is None:
            yield op, 0, 1, f"read {key!r}"
        else:
            yield op, len(value), 0, f"update {key!r}"


def _order_key(customer: bytes, slot: int, seq: int) -> bytes:
    # Shares the customer's prefix: cart and order live in one tablet.
    return customer + b"-%02d%05d" % (slot, seq)


def _tpcw_ops(state: State, slot: int, machine: Machine, rng: random.Random):
    """Transactions straight through the transaction manager (which calls
    the tablet servers); one transaction is one queue-aware op."""
    master = state.cluster.master
    manager = state.txn
    items = KeyChooser(state.keys["item"], state.order["item"], state.seed * 1000 + slot)
    carts = KeyChooser(state.keys["cart"], state.order["cart"], state.seed * 1000 + 100 + slot)
    model = state.model
    for seq, is_browse in enumerate(_kinds(SHAPES[state.name], rng)):
        if is_browse:
            table, group, key, order = "item", "detail", items.next(), None
        else:
            table, group, key = "cart", "cart", carts.next()
            order = _order_key(key, slot, seq)

        def op(now, table=table, group=group, key=key, order=order):
            server = master.server(master.locate(table, key)[0])
            request, response = _legs(
                machine, server,
                len(key) + REQUEST_OVERHEAD + (0 if order is None else VALUE_BYTES),
                VALUE_BYTES,
            )
            _queue_at(server, now, request)
            txn = manager.begin()
            got = txn.read_raw(table, key, group)
            if order is not None:
                # The order must hold exactly the cart contents it read;
                # the post-recovery and post-compaction scans check it.
                txn.write_raw("orders", order, "order", b"order:" + got)
            txn.commit()
            if order is not None:
                model[("orders", "order", order)] = b"order:" + got
            return got == model[(table, group, key)], server.machine.clock.now - now + response

        written = 0 if order is None else len(b"order:") + VALUE_BYTES
        yield op, written, 1, f"transaction reading {table}/{key!r}"


def _heartbeat_ticker(cluster: LogBaseCluster, finished: list, n_clients: int):
    while len(finished) < n_clients:
        yield Invoke(lambda now: (cluster.heartbeat(), 0.0))
        yield Advance(HEARTBEAT_INTERVAL)


def measure(state: State) -> Measured:
    """The measured phase: every logical client to completion."""
    out = Measured()
    ends: list[float] = []
    machines = _client_machines(state)
    make_ops = _tpcw_ops if state.txn is not None else _ycsb_ops
    shape = SHAPES[state.name]
    scheduler = ConcurrentScheduler()
    for slot, machine in enumerate(machines):
        rng = random.Random(state.seed * 1000 + 500 + slot)
        ops = make_ops(state, slot, machine, rng)
        scheduler.add_client(_closed_loop(ops, shape, rng, out, ends))
    if state.cluster.config.monitoring:
        scheduler.add_client(_heartbeat_ticker(state.cluster, ends, len(machines)))
    scheduler.run()
    out.makespan = max(ends)
    return out


# -- recovery, compaction and checks ----------------------------------------------------


def recover(cluster: LogBaseCluster, victim: str):
    """Kill one tablet server and recover it from its checkpoint plus
    log tail, with every block cache empty."""
    cluster.kill_server(victim)
    cluster.dfs.drop_block_caches()
    return cluster.restart_server(victim, recover=True)


def compact(cluster: LogBaseCluster) -> tuple[float, int]:
    """Compact every server; returns (simulated makespan, bytes written)."""
    starts = {s.name: s.machine.clock.now for s in cluster.servers}
    written = 0
    for server in cluster.servers:
        written += server.compact().stats.bytes_written
    seconds = max(s.machine.clock.now - starts[s.name] for s in cluster.servers)
    return seconds, written


def check_servers(state: State, servers) -> None:
    """Scan every table on ``servers`` and compare with the model: each
    acknowledged key must come back with its last acknowledged value, and
    nothing else may come back."""
    names = {server.name for server in servers}
    # The scan compares values with the model; replica verification would
    # only re-checksum whole blocks once per chunk read.  The checks leave
    # no block-cache state behind for the next phase.
    dfs = state.cluster.dfs
    verify, dfs.verify_reads = dfs.verify_reads, False
    try:
        _check_tables(state, names, servers)
    finally:
        dfs.verify_reads = verify
        dfs.drop_block_caches()


def _check_tables(state: State, names: set[str], servers) -> None:
    master = state.cluster.master
    for table, group in state.tables:
        expected = {
            key: value
            for (t, g, key), value in state.model.items()
            if t == table and g == group and master.locate(table, key)[0] in names
        }
        found = {}
        for server in servers:
            for key, _, value in server.range_scan(table, group, b"", SCAN_END):
                found[key] = value
        if found != expected:
            missing = sorted(set(expected) - set(found))[:3]
            extra = sorted(set(found) - set(expected))[:3]
            wrong = [k for k in expected if k in found and found[k] != expected[k]][:3]
            raise CheckFailed(
                f"{table}/{group} on {sorted(names)}: missing {missing}, "
                f"unexpected {extra}, wrong values {wrong}"
            )


def _read_cache_totals(cluster: LogBaseCluster) -> tuple[int, int]:
    hits = misses = 0
    for server in cluster.servers:
        if server.read_cache is not None:
            hits += server.read_cache.hits
            misses += server.read_cache.misses
    return hits, misses


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_rep(name: str, seed: int, tracer=None, *, full: bool = True) -> RepResult:
    """Set up and run the measured phase; with ``full``, then recover one
    server and compact every server.  Outputs are checked after each step.

    With a :class:`~layers.LayerTracer` the timed phases are traced
    (set-up and the checks never are).  Every timed phase starts after a
    garbage collection, so none pays for the garbage of the last.
    """
    probe = SpeedProbe(periodic=tracer is None)
    gc.collect()
    state, setup_s = probe.timed(setup, name, seed)
    cluster = state.cluster
    if tracer is not None:
        tracer.install()

    def phase(label, fn, *args):
        if tracer is None:
            return fn(*args)
        return tracer.run_phase(label, fn, *args)

    def txn_counts():
        return (state.txn.commits, state.txn.aborts) if state.txn else (0, 0)

    try:
        counters0, cache0, txn0 = (
            cluster.total_counters(), _read_cache_totals(cluster), txn_counts()
        )
        gc.collect()
        measured, measured_s = probe.timed(phase, "measured", measure, state)
        counters1, cache1, txn1 = (
            cluster.total_counters(), _read_cache_totals(cluster), txn_counts()
        )
        if measured.mismatches:
            raise CheckFailed(
                f"{len(measured.mismatches)} wrong reads, e.g. {measured.mismatches[0]}"
            )
        if full:
            # Each server in turn is killed and recovered, so the figures
            # do not hang on how one server's log tail lies in its blocks.
            recoveries = []  # (report, scaled wall seconds)
            for victim in [server.name for server in cluster.servers]:
                gc.collect()
                recoveries.append(probe.timed(phase, "recovery", recover, cluster, victim))
            check_servers(state, cluster.servers)
            gc.collect()
            (sim_compaction_s, compaction_bytes), wall_compaction_s = probe.timed(
                phase, "compaction", compact, cluster
            )
            check_servers(state, cluster.servers)
            log_bytes = sum(server.log.total_bytes() for server in cluster.servers)
    finally:
        if tracer is not None:
            tracer.uninstall()
        teardown(state)

    def delta(name):
        return counters1.get(name, 0.0) - counters0.get(name, 0.0)

    done = measured.attempted - measured.failed
    lat_u, lat_r = measured.update_latencies, measured.read_latencies
    sim = {
        "sim_ops_per_s": _ratio(done, measured.makespan),
        "sim_update_p50_ms": 1e3 * percentile(lat_u, 0.50),
        "sim_update_p99_ms": 1e3 * percentile(lat_u, 0.99),
        "sim_read_p50_ms": 1e3 * percentile(lat_r, 0.50),
        "sim_read_p99_ms": 1e3 * percentile(lat_r, 0.99),
    }
    wall = {"wall_ops_per_s": _ratio(done, measured_s)}
    block_hits, block_misses = delta("blockcache.hits"), delta("blockcache.misses")
    read_hits, read_misses = cache1[0] - cache0[0], cache1[1] - cache0[1]
    commits, aborts = txn1[0] - txn0[0], txn1[1] - txn0[1]
    ratios = {
        "read_cache.hit_ratio": _ratio(read_hits, read_hits + read_misses),
        "block_cache.hit_ratio": _ratio(block_hits, block_hits + block_misses),
        "dfs.round_trips_per_update": _ratio(
            delta("dfs.append_round_trips"), measured.writes
        ),
        "disk.bytes_read_per_read": _ratio(delta("disk.bytes_read"), measured.reads),
        "disk.bytes_written_per_user_byte": _ratio(
            delta("disk.bytes_written"), measured.user_bytes_written
        ),
        "txn.abort_ratio": _ratio(aborts, commits + aborts),
    }
    if full:
        user_bytes = sum(len(value) for value in state.model.values())
        sim["sim_recovery_s"] = fmean(report.seconds for report, _ in recoveries)
        sim["sim_compaction_s"] = sim_compaction_s
        sim["space_amp"] = _ratio(log_bytes, user_bytes)
        wall["wall_recovery_s"] = fmean(seconds for _, seconds in recoveries)
        wall["wall_compaction_s"] = wall_compaction_s
        ratios["recovery.records_redone"] = float(
            sum(report.writes_applied + report.deletes_applied for report, _ in recoveries)
        )
        ratios["compaction.bytes_written_per_user_byte"] = _ratio(
            compaction_bytes, user_bytes
        )
    samples = {"update": len(lat_u), "read": len(lat_r)}
    return RepResult(setup_s, measured, sim, wall, ratios, samples, probe.scale())


def setup_only(name: str, seed: int) -> float:
    """One more set-up, timed (scaled) and discarded: set-up time is a median."""
    gc.collect()
    state, seconds = SpeedProbe().timed(setup, name, seed)
    teardown(state)
    return seconds
