"""Lightweight named counters attached to simulated devices and servers,
plus the frozen registry of canonical metric names.

Every PR so far added a block of counter-name constants here; keeping the
spellings in one *frozen* registry (instead of four drifting blocks) lets
any component that mints a metric name — counters, histograms, span-latency
series — check it against the canonical set with
:func:`validate_metric_name`.  Device-level names (``disk.*``, ``net.*``,
``cache.*``, ``txn.*``) and per-span latency series are registered as
prefixes: their suffixes are data-dependent, but the namespace is fixed.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator


class MetricNameRegistry:
    """The canonical metric-name set: exact names plus allowed prefixes.

    Mutable only until :meth:`freeze` is called at the end of this module;
    registering afterwards raises, which is the point — a new metric name
    must be added here, next to every other name, or it does not validate.
    """

    def __init__(self) -> None:
        self._names: set[str] = set()
        self._prefixes: set[str] = set()
        self._frozen = False

    def register(self, name: str) -> str:
        """Add an exact canonical name; returns it for constant binding."""
        if self._frozen:
            raise RuntimeError("metric-name registry is frozen")
        self._names.add(name)
        return name

    def register_prefix(self, prefix: str) -> str:
        """Add a namespace whose suffixes are data-dependent."""
        if self._frozen:
            raise RuntimeError("metric-name registry is frozen")
        self._prefixes.add(prefix)
        return prefix

    def freeze(self) -> None:
        """Seal the registry against further registration."""
        self._frozen = True

    @property
    def frozen(self) -> bool:
        return self._frozen

    def known(self, name: str) -> bool:
        """Whether ``name`` is canonical (exact or under a prefix)."""
        if name in self._names:
            return True
        return any(name.startswith(prefix) for prefix in self._prefixes)

    def validate(self, name: str) -> str:
        """Return ``name`` if canonical, else raise ``ValueError``."""
        if not self.known(name):
            raise ValueError(
                f"unknown metric name {name!r}: register it in "
                f"repro.sim.metrics before use"
            )
        return name

    def names(self) -> frozenset[str]:
        """The exact names (prefixes excluded)."""
        return frozenset(self._names)


REGISTRY = MetricNameRegistry()

# Device/process namespaces whose members are minted by the simulators
# (e.g. ``disk.seeks``, ``net.bytes_sent``, ``cache.hits``, ``txn.aborts``).
DISK_PREFIX = REGISTRY.register_prefix("disk.")
NET_PREFIX = REGISTRY.register_prefix("net.")
CACHE_PREFIX = REGISTRY.register_prefix("cache.")
TXN_PREFIX = REGISTRY.register_prefix("txn.")

# Canonical counter names for the log read pipeline (PR 1).
BLOCK_CACHE_HITS = REGISTRY.register("blockcache.hits")
BLOCK_CACHE_MISSES = REGISTRY.register("blockcache.misses")
BLOCK_CACHE_EVICTIONS = REGISTRY.register("blockcache.evictions")
BLOCK_CACHE_FILL_BYTES = REGISTRY.register("blockcache.fill_bytes")
READ_MANY_CALLS = REGISTRY.register("log.read_many.calls")
READ_MANY_RECORDS = REGISTRY.register("log.read_many.records")
READ_MANY_SPANS = REGISTRY.register("log.read_many.spans")
SCAN_PREFETCH_WINDOWS = REGISTRY.register("log.scan.prefetch_windows")

# Canonical counter names for the fault-tolerance layer (PR 2).
DFS_UNDER_REPLICATED = REGISTRY.register("dfs.under_replicated")
DFS_REREPLICATIONS = REGISTRY.register("dfs.rereplications")
DFS_READ_FAILOVERS = REGISTRY.register("dfs.read_failovers")
DFS_CORRUPT_REPLICAS = REGISTRY.register("dfs.corrupt_replicas")
CLIENT_RETRIES = REGISTRY.register("client.retries")
CHAOS_FAULTS_FIRED = REGISTRY.register("chaos.faults_fired")

# Canonical counter names for the gray-failure resilience layer (PR 3).
DFS_HEDGE_FIRED = REGISTRY.register("dfs.hedge.fired")
DFS_HEDGE_WINS = REGISTRY.register("dfs.hedge.wins")
DFS_HEDGE_LOSSES = REGISTRY.register("dfs.hedge.losses")
BREAKER_TRIPS = REGISTRY.register("breaker.trips")
BREAKER_SKIPS = REGISTRY.register("breaker.skips")
DEADLINES_EXCEEDED = REGISTRY.register("deadline.exceeded")
ADMISSION_SHED = REGISTRY.register("admission.shed")
CLIENT_BREAKER_WAITS = REGISTRY.register("client.breaker.waits")

# Canonical counter names for the compaction subsystem (PR 4).  Rewrite
# amplification is derived by reports as
# ``compaction.bytes_written / log.ingest_bytes``.
COMPACTION_BYTES_READ = REGISTRY.register("compaction.bytes_read")
COMPACTION_BYTES_WRITTEN = REGISTRY.register("compaction.bytes_written")
COMPACTION_PLANS = REGISTRY.register("compaction.plans")
COMPACTION_TOMBSTONES_CARRIED = REGISTRY.register("compaction.tombstones_carried")
LOG_INGEST_BYTES = REGISTRY.register("log.ingest_bytes")

# Canonical span names for the observability subsystem (PR 5).  The
# tracer anchors each span to one machine's clock; see repro.obs.trace.
SPAN_OP_PREFIX = REGISTRY.register_prefix("op.")  # client root ops: op.put, ...
SPAN_RPC_SERVER = REGISTRY.register("rpc.server")
SPAN_CLIENT_BREAKER_WAIT = REGISTRY.register("client.breaker_wait")
SPAN_CLIENT_RETRY = REGISTRY.register("client.retry")
SPAN_TS_WRITE = REGISTRY.register("ts.write")
SPAN_TS_WRITE_BATCH = REGISTRY.register("ts.write_batch")
SPAN_TS_READ = REGISTRY.register("ts.read")
SPAN_TS_DELETE = REGISTRY.register("ts.delete")
SPAN_TS_APPEND_TXN = REGISTRY.register("ts.append_txn")
SPAN_TXN_COMMIT = REGISTRY.register("txn.commit")
SPAN_LOG_APPEND = REGISTRY.register("log.append")
SPAN_LOG_READ = REGISTRY.register("log.read")
SPAN_LOG_READ_MANY = REGISTRY.register("log.read_many")
SPAN_DFS_APPEND = REGISTRY.register("dfs.append")
SPAN_DFS_READ = REGISTRY.register("dfs.read")
SPAN_DFS_HEDGE_WINNER = REGISTRY.register("dfs.hedge.winner")
SPAN_DFS_HEDGE_LOSER = REGISTRY.register("dfs.hedge.loser")
SPAN_COMPACTION_ROUND = REGISTRY.register("compaction.round")
SPAN_COMPACTION_PLAN = REGISTRY.register("compaction.plan")
SPAN_RECOVERY_RECOVER = REGISTRY.register("recovery.recover")
SPAN_RECOVERY_ADOPT = REGISTRY.register("recovery.adopt")

# Canonical histogram names (PR 5).  The tracer records one latency
# series per root-span name under the ``latency.`` namespace.
HIST_SPAN_LATENCY_PREFIX = REGISTRY.register_prefix("latency.")
HIST_CHAOS_READ_LATENCY = REGISTRY.register("latency.chaos.read")

# Canonical names for concurrent clients + group commit (PR 7).
# ``commit.groups`` counts flushed groups, ``commit.group_fanin`` sums the
# member submissions across them (mean fan-in = fanin / groups), and
# ``commit.acks_deferred`` counts members whose replication ack drained
# while the next group's data was already streaming (the pipeline
# overlap).  ``dfs.append_round_trips`` counts synchronous replication
# pipelines run by the DFS — the quantity group commit collapses from one
# per record to ~one per group.
COMMIT_GROUPS = REGISTRY.register("commit.groups")
COMMIT_GROUP_FANIN = REGISTRY.register("commit.group_fanin")
COMMIT_ACKS_DEFERRED = REGISTRY.register("commit.acks_deferred")
DFS_APPEND_ROUND_TRIPS = REGISTRY.register("dfs.append_round_trips")
SPAN_COMMIT_FLUSH = REGISTRY.register("commit.flush")
HIST_COMMIT_LATENCY = REGISTRY.register("latency.commit")
HIST_COMMIT_FANIN = REGISTRY.register("commit.fanin")

# Canonical names for parallel recovery (PR 8).
# ``recovery.parallel_runs`` counts restart recovery passes,
# ``recovery.tablets_recovered`` counts tablets flipped back to serving,
# ``recovery.rejected_ops`` counts client ops bounced off still-recovering
# tablets with TabletRecoveringError, ``recovery.splits_persisted`` counts
# atomically-installed split files, and ``recovery.adopt_skipped`` counts
# re-homed records an idempotent re-adoption found already applied.
RECOVERY_PARALLEL_RUNS = REGISTRY.register("recovery.parallel_runs")
RECOVERY_TABLETS_RECOVERED = REGISTRY.register("recovery.tablets_recovered")
RECOVERY_WRITES_APPLIED = REGISTRY.register("recovery.writes_applied")
RECOVERY_DELETES_APPLIED = REGISTRY.register("recovery.deletes_applied")
RECOVERY_REJECTED_OPS = REGISTRY.register("recovery.rejected_ops")
RECOVERY_SPLITS_PERSISTED = REGISTRY.register("recovery.splits_persisted")
RECOVERY_ADOPT_SKIPPED = REGISTRY.register("recovery.adopt_skipped")
SPAN_RECOVERY_TABLET = REGISTRY.register("recovery.tablet_redo")
HIST_RECOVERY_TABLET_SECONDS = REGISTRY.register("latency.recovery.tablet")

# Canonical names for live tablet migration (PR 9).
# ``migration.started/completed/aborted`` count state-machine outcomes,
# ``migration.records_caught_up`` counts records the target replayed from
# the source's shared-DFS log (catch-up plus flip delta),
# ``migration.flip_seconds`` accumulates the fenced-flip windows (the only
# unavailability a migration causes; per-flip distribution is the
# ``latency.migration.flip`` histogram), ``migration.splits`` counts
# hot-tablet splits, ``migration.balancer_moves`` counts actions the load
# balancer initiated, and ``migration.lease_rejects`` counts ops bounced
# off a server whose ownership lease had lapsed (the split-brain guard).
MIGRATION_STARTED = REGISTRY.register("migration.started")
MIGRATION_COMPLETED = REGISTRY.register("migration.completed")
MIGRATION_ABORTED = REGISTRY.register("migration.aborted")
MIGRATION_RECORDS_CAUGHT_UP = REGISTRY.register("migration.records_caught_up")
MIGRATION_FLIP_SECONDS = REGISTRY.register("migration.flip_seconds")
MIGRATION_SPLITS = REGISTRY.register("migration.splits")
MIGRATION_BALANCER_MOVES = REGISTRY.register("migration.balancer_moves")
MIGRATION_LEASE_REJECTS = REGISTRY.register("migration.lease_rejects")
SPAN_MIGRATION_MIGRATE = REGISTRY.register("migration.migrate")
SPAN_MIGRATION_CATCHUP_PHASE = REGISTRY.register("migration.catchup_phase")
SPAN_MIGRATION_FLIP_PHASE = REGISTRY.register("migration.flip_phase")
HIST_MIGRATION_FLIP = REGISTRY.register("latency.migration.flip")

# Canonical names for log-shipping read replicas (PR 10).
# ``replica.reads_served`` counts reads a follower answered,
# ``replica.redirects`` counts reads bounced back to the owner
# (FollowerLaggingError: watermark too stale, unsubscribed, or the
# needed segment was retired by compaction), ``replica.lag_records``
# accumulates records applied by follower tails (the shipped volume),
# ``replica.tail_batches`` counts tail passes that applied at least one
# record, ``replica.tail_errors`` counts tail passes cut short because
# the owner's log was unreachable (the replica lags and the next
# heartbeat retries), and ``latency.replica.lag`` is the per-heartbeat distribution
# of follower staleness in simulated seconds (owner last-commit time
# minus follower watermark).
REPLICA_READS_SERVED = REGISTRY.register("replica.reads_served")
REPLICA_REDIRECTS = REGISTRY.register("replica.redirects")
REPLICA_LAG_RECORDS = REGISTRY.register("replica.lag_records")
REPLICA_TAIL_BATCHES = REGISTRY.register("replica.tail_batches")
REPLICA_TAIL_ERRORS = REGISTRY.register("replica.tail_errors")
SPAN_FOLLOWER_TAIL = REGISTRY.register("follower.tail")
SPAN_FOLLOWER_READ = REGISTRY.register("follower.read")
HIST_REPLICA_LAG = REGISTRY.register("latency.replica.lag")

# Canonical names for the cluster monitoring plane (PR 11).  Gauges are
# point-in-time health readings sampled by the scraper on every cluster
# heartbeat; they share one schema with the stats report (see
# ``repro.obs.monitor.collect_health_gauges``) so the two can never
# disagree.  ``slo.`` series carry cumulative good/bad op counts per SLO
# objective, from which the alert engine computes burn rates.
GAUGE_SERVER_UP = REGISTRY.register("gauge.server_up")
GAUGE_RECOVERY_QUEUE = REGISTRY.register("gauge.recovery_queue")
GAUGE_LEASE_HEALTH = REGISTRY.register("gauge.lease_health")
GAUGE_ADMISSION_BACKLOG = REGISTRY.register("gauge.admission_backlog")
GAUGE_BREAKER_OPEN = REGISTRY.register("gauge.breaker_open")
GAUGE_BLOCKCACHE_HIT_RATE = REGISTRY.register("gauge.blockcache_hit_rate")
GAUGE_COMPACTION_DEBT = REGISTRY.register("gauge.compaction_debt_bytes")
GAUGE_REPLICA_LAG = REGISTRY.register("gauge.replica_lag")
GAUGE_TABLET_HEAT = REGISTRY.register("gauge.tablet_heat")
SLO_PREFIX = REGISTRY.register_prefix("slo.")

REGISTRY.freeze()


def validate_metric_name(name: str) -> str:
    """Module-level helper over the frozen registry (see
    :meth:`MetricNameRegistry.validate`)."""
    return REGISTRY.validate(name)


class Counters:
    """A bag of named integer/float counters.

    Examples of counters recorded by this library: ``disk.seeks``,
    ``disk.bytes_written``, ``net.rpcs``, ``cache.hits``, ``txn.aborts``,
    ``blockcache.hits``, ``log.read_many.spans``.
    """

    def __init__(self) -> None:
        self._values: dict[str, float] = defaultdict(float)

    def add(self, name: str, amount: float = 1.0) -> None:
        """Increment counter ``name`` by ``amount``."""
        self._values[name] += amount

    def get(self, name: str) -> float:
        """Current value of ``name`` (0 if never incremented)."""
        return self._values.get(name, 0.0)

    def merge(self, other: "Counters | dict[str, float]") -> "Counters":
        """Add every counter in ``other`` into this bag; returns self.

        Cluster-wide aggregation sums one bag per machine — this replaces
        the manual dict-summing loops call sites used to carry.
        """
        items = other._values.items() if isinstance(other, Counters) else other.items()
        for name, value in items:
            self._values[name] += value
        return self

    def reset(self) -> None:
        """Zero every counter."""
        self._values.clear()

    def snapshot(self) -> dict[str, float]:
        """A copy of all counters, for reporting."""
        return dict(self._values)

    def delta_since(self, snapshot: dict[str, float]) -> dict[str, float]:
        """Per-counter change since an earlier :meth:`snapshot`.

        Returns only counters that moved (nonzero delta).  Counters are
        monotonic in practice, but a :meth:`reset` between snapshots can
        produce negative deltas; they are reported as-is so callers can
        notice the reset instead of silently reading garbage.
        """
        delta: dict[str, float] = {}
        for name, value in self._values.items():
            change = value - snapshot.get(name, 0.0)
            if change != 0.0:
                delta[name] = change
        for name, value in snapshot.items():
            if name not in self._values and value != 0.0:
                delta[name] = -value
        return delta

    def __iter__(self) -> Iterator[tuple[str, float]]:
        return iter(sorted(self._values.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:g}" for k, v in self)
        return f"Counters({inner})"
