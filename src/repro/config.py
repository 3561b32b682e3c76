"""Configuration knobs for a LogBase deployment.

Defaults follow the paper's experimental setup (§4.1): 64 MB log segments
and DFS blocks, 3-way replication, 40 % of a 4 GB heap for in-memory
indexes, 20 % for the read cache.  Record counts are scaled down for the
simulation; byte *sizes* are kept at paper scale so cost accounting
matches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.disk import DiskModel
from repro.sim.network import NetworkModel

GiB = 1024 * 1024 * 1024
MiB = 1024 * 1024


@dataclass
class LogBaseConfig:
    """Tunable parameters for cluster, servers and storage.

    Attributes:
        replication: DFS synchronous replication factor.
        dfs_block_size: DFS block size in bytes.
        segment_size: log segment roll size in bytes.
        heap_bytes: simulated tablet-server heap.
        index_heap_fraction: share of heap reserved for in-memory indexes.
        cache_heap_fraction: share of heap for the read cache.
        checkpoint_update_threshold: updates per column group between
            automatic index flushes (0 disables automatic checkpoints).
        read_cache_enabled: whether servers keep a read buffer at all
            (it is "only an optional component", §3.6.2).
        block_cache_enabled: whether each machine keeps an LRU cache of
            block-sized chunks between the DFS reader and the simulated
            disk.  Off by default so the seed Fig. 6-10 cost-model results
            are reproduced exactly; enable it (or use
            :meth:`with_read_pipeline`) for the hot read path.
        block_cache_heap_fraction: share of heap for the DFS block cache.
        block_cache_chunk: bytes per cached chunk (the unit of cache fill
            and eviction; one miss reads one chunk from the datanode).
        read_coalesce_gap: ``None`` disables batch-read coalescing (seed
            behaviour: one DFS read per pointer).  Otherwise, pointers
            sorted by offset whose gap is at most this many bytes are
            merged into a single DFS read by ``LogRepository.read_many``.
        read_batch_size: index entries fetched per ``read_many`` window
            during range scans (only used when coalescing is enabled).
        scan_prefetch_bytes: read-ahead window for sequential segment
            scans; 0 reads the whole segment in one request (seed
            behaviour), a positive value streams the scan in windows of
            this many bytes.
        group_commit_batch: max records buffered per group-commit flush.
        group_commit: run tablet-server writes through the commit
            coordinator (:mod:`repro.wal.group_commit`): appends arriving
            while a flush is in flight join an open group (leader/follower),
            the whole group lands with one ``append_batch`` — one DFS
            replication round trip — and every member is acked on group
            durability.  Off by default so the seed figures are reproduced
            byte-identically; :meth:`with_group_commit` enables it.
        group_commit_max_delay: how long (simulated seconds) a group
            leader waits for followers before sealing its group.
        group_commit_max_bytes: byte budget per commit group (estimated
            record sizes); None removes the cap and only
            ``group_commit_batch`` bounds the group.
        group_commit_pipeline: start replicating the next group while the
            previous group's acks drain back up the pipeline; members are
            still acked only at their own group's ack-drain time.
        dfs_checksum_replicas: datanodes keep an incremental CRC-32C per
            replica (needed for read-path corruption detection).
        dfs_verify_reads: checksum-verify a replica before serving a read
            from it; on mismatch the reader fails over to another replica
            instead of returning bad bytes.  Requires
            ``dfs_checksum_replicas``.
        dfs_auto_rereplicate: the cluster heartbeat runs the namenode's
            background re-replication pass over blocks the pipeline or
            read path reported under-replicated.
        dfs_degraded_allocation: allocate new blocks on however many
            datanodes are live (queued for repair) instead of refusing
            writes when fewer than ``replication`` survive.
        client_retry_limit: times a client retries an operation that hit
            a dead server (with backoff), instead of raising immediately.
            0 keeps the seed behaviour: invalidate the cache and raise.
        client_retry_backoff: simulated seconds charged to the client
            before the first retry; doubles per attempt.
        client_retry_backoff_max: cap on one backoff wait — the doubling
            stops growing here instead of running away exponentially.
        gray_resilience: master gate for the gray-failure resilience
            layer (deadlines, hedged reads, circuit breakers, admission
            control).  Off by default so the seed figures are reproduced
            byte-identically; :meth:`with_gray_resilience` enables it.
        op_deadline: per-operation time budget in simulated seconds the
            client attaches to every call (None disables deadlines).
            Propagated server-side; deadline-aware read paths raise
            ``DeadlineExceededError`` instead of charging past it.
        hedge_reads: DFS readers fire a hedge to a second replica when
            the preferred replica's estimated cost exceeds the hedging
            delay, and take the cheaper completion.
        hedge_quantile: hedging delay as a multiple of the EWMA read
            latency (approximates "hedge past the p9x latency").
        hedge_min_delay: floor for the hedging delay in seconds
            (kept above a healthy random access so cold monitors never
            hedge ordinary reads).
        breaker_enabled: trip per-node circuit breakers on EWMA latency
            and bias routing away from open (limping) nodes.
        breaker_trip_seconds: EWMA latency that opens a breaker.
        breaker_cooldown: seconds an open breaker waits before letting a
            half-open probe through.
        breaker_min_samples: observations before a breaker may trip.
        admission_queue_depth: bounded in-flight queue per tablet server,
            in EWMA service times; requests past it are shed with
            ``ServerOverloadedError`` + retry-after (None disables).
        compaction_tier_fanout: sorted runs of one (table, group) merge
            only when at least this many similar-sized runs have
            accumulated in a size tier (the size-tiered trigger).
        compaction_max_input_bytes: I/O budget per compaction plan —
            a plan stops adding input segments past this many bytes
            (None removes the cap).
        recovery_workers: parallel redo workers (scan + per-tablet
            bring-up lanes) restart recovery multiplexes over the
            scheduler.
        live_migration: enable the live-migration subsystem
            (:mod:`repro.core.migration`): lease-based tablet ownership
            (renewed by the cluster heartbeat, checked on every client-
            facing op), the prepare/catch-up/fenced-flip state machine
            with its intent persisted in znodes, hot-tablet splitting at
            the median observed key, and the master-side heat balancer.
            Off by default so the seed figures are reproduced
            byte-identically; :meth:`with_live_migration` enables it.
        migration_lease_seconds: ownership lease TTL in simulated
            seconds.  A server whose lease lapsed (it was partitioned or
            paused and the heartbeat could not renew) rejects ops with
            ``TabletMigratingError`` instead of double-serving; a fenced
            flip against an unreachable owner must wait out at most this
            long.
        migration_flip_budget: acceptance bound (simulated seconds) on
            one migration's fenced-flip window — the only unavailability
            a live migration may cause.  Benchmarks assert flip p99 stays
            under it.
        balancer_skew_threshold: the balancer acts when the hottest
            server's heat exceeds the coldest's by this factor.
        balancer_split_fraction: a tablet carrying at least this share of
            its server's heat is split (its hotspot cannot be fixed by
            moving the whole tablet) instead of migrated.
        heat_half_life: half-life in simulated seconds for decaying the
            master-side ``tablet_heat`` of tablets that are no longer in
            the catalog's assignments (deleted or replaced by a split) —
            the balancer must never chase a ghost hotspot.
        read_replicas: enable log-shipping read replicas
            (:mod:`repro.core.follower`): non-owner servers tail the
            owner's log segments straight from the replicated DFS,
            maintain their own multiversion indexes, and serve
            bounded-staleness reads; the client spreads read traffic
            across followers and falls back to the owner on
            ``FollowerLaggingError``.  Off by default so the seed figures
            are reproduced byte-identically; :meth:`with_read_replicas`
            enables it.
        replicas_per_tablet: followers the master places per tablet (on
            distinct non-owner servers; capped by cluster size).
        replica_max_staleness: default per-read staleness bound in
            simulated seconds — a follower whose watermark is older than
            the owner's last-commit time minus this bound rejects the
            read with ``FollowerLaggingError`` (per-request override via
            the client API).
        replica_tail_batch: max log records a follower applies per tail
            pass (bounds one heartbeat's catch-up work; lag beyond it is
            worked off over subsequent passes).
        replica_read_fraction: share of eligible reads the client routes
            to followers (1.0 = all reads try a follower first); writes
            and historical ``as_of`` reads below the watermark still go
            wherever correctness requires.
        tracing: install a :class:`~repro.obs.trace.Tracer` on the
            cluster and open spans at every gated entry point (client
            ops, tablet-server calls, compaction, recovery), attributing
            each charged simulated second to the innermost open span.
            Off by default so the seed figures are reproduced
            byte-identically; :meth:`with_tracing` enables it.
        trace_ring: closed traces retained in the tracer's ring buffer.
        trace_slow_samples: worst traces kept per operation type.
        monitoring: install a :class:`~repro.obs.monitor.ClusterMonitor`
            on the cluster: every heartbeat scrapes per-machine counter
            deltas and derived health gauges into ring-buffer time
            series, evaluates the SLO/alert rules in simulated time, and
            snapshots flight-recorder post-mortems on alert fire or any
            observed fault.  Off by default so the seed figures are
            reproduced byte-identically; :meth:`with_monitoring` enables
            it.  Pure bookkeeping — no simulated cost either way.
        monitor_ring: samples retained per (entity, metric) time series.
        monitor_recorder_ring: events retained per node by the flight
            recorder.
        monitor_postmortems: post-mortem bundles retained per run
            (overflow keeps the oldest — the incident's first snapshot).
        monitor_series_tail: newest samples per series included in a
            post-mortem bundle.
        monitor_scrape_interval: minimum *simulated* seconds between
            scrape ticks — the production-style cadence that keeps the
            enabled gate's wall-clock overhead bounded.  ``0.0`` scrapes
            on every heartbeat (what the chaos detection oracle uses for
            maximum fidelity).
        slo_op_p99: per-op-class latency SLO targets in simulated
            seconds, e.g. ``{"op.put": 0.25}`` — each entry adds a
            burn-rate alert computed from the PR 6 latency histograms
            (requires ``tracing`` for the histograms to exist).
        slo_objective: fraction of ops that must meet the target (0.99 =
            p99 objective; 0.999 = availability-style, more nines).
        slo_burn_threshold: burn-rate multiple that fires the SLO alert
            (1.0 = burning budget exactly at the allowed rate).
        slo_window: lookback window in simulated seconds for burn rates.
        slo_min_samples: ops observed in the window before an SLO rule
            may fire (suppresses noise on near-empty histograms).
        index_kind: ``"blink"`` (in-memory) or ``"lsm"`` (spill to DFS).
        max_versions: versions kept per key by compaction (None = all).
        disk: device cost model for every machine.
        network: cluster interconnect cost model.
        racks: number of racks machines are spread over.
    """

    replication: int = 3
    dfs_block_size: int = 64 * MiB
    segment_size: int = 64 * MiB
    heap_bytes: int = 4 * GiB
    index_heap_fraction: float = 0.40
    cache_heap_fraction: float = 0.20
    checkpoint_update_threshold: int = 0
    read_cache_enabled: bool = True
    block_cache_enabled: bool = False
    block_cache_heap_fraction: float = 0.10
    block_cache_chunk: int = 64 * 1024
    read_coalesce_gap: int | None = None
    read_batch_size: int = 256
    scan_prefetch_bytes: int = 0
    group_commit_batch: int = 16
    group_commit: bool = False
    group_commit_max_delay: float = 0.002
    group_commit_max_bytes: int | None = None
    group_commit_pipeline: bool = True
    dfs_checksum_replicas: bool = False
    dfs_verify_reads: bool = False
    dfs_auto_rereplicate: bool = False
    dfs_degraded_allocation: bool = False
    client_retry_limit: int = 0
    client_retry_backoff: float = 0.05
    client_retry_backoff_max: float = 30.0
    gray_resilience: bool = False
    op_deadline: float | None = None
    hedge_reads: bool = False
    hedge_quantile: float = 3.0
    hedge_min_delay: float = 0.05
    breaker_enabled: bool = False
    breaker_trip_seconds: float = 0.1
    breaker_cooldown: float = 2.0
    breaker_min_samples: int = 3
    admission_queue_depth: int | None = None
    recovery_workers: int = 4
    compaction_tier_fanout: int = 4
    compaction_max_input_bytes: int | None = None
    live_migration: bool = False
    migration_lease_seconds: float = 0.5
    migration_flip_budget: float = 2.0
    balancer_skew_threshold: float = 2.0
    balancer_split_fraction: float = 0.6
    heat_half_life: float = 60.0
    read_replicas: bool = False
    replicas_per_tablet: int = 1
    replica_max_staleness: float = 5.0
    replica_tail_batch: int = 512
    replica_read_fraction: float = 1.0
    tracing: bool = False
    trace_ring: int = 512
    trace_slow_samples: int = 4
    monitoring: bool = False
    monitor_ring: int = 256
    monitor_recorder_ring: int = 64
    monitor_postmortems: int = 8
    monitor_series_tail: int = 32
    monitor_scrape_interval: float = 0.05
    slo_op_p99: dict = field(default_factory=dict)
    slo_objective: float = 0.99
    slo_burn_threshold: float = 10.0
    slo_window: float = 30.0
    slo_min_samples: int = 5
    index_kind: str = "blink"
    max_versions: int | None = None
    disk: DiskModel = field(default_factory=DiskModel)
    network: NetworkModel = field(default_factory=NetworkModel)
    racks: int = 2

    @property
    def index_budget_bytes(self) -> int:
        """Heap bytes available for in-memory indexes."""
        return int(self.heap_bytes * self.index_heap_fraction)

    @property
    def cache_budget_bytes(self) -> int:
        """Heap bytes available for the read cache."""
        return int(self.heap_bytes * self.cache_heap_fraction)

    @property
    def block_cache_budget_bytes(self) -> int:
        """Heap bytes available for the per-machine DFS block cache."""
        return int(self.heap_bytes * self.block_cache_heap_fraction)

    @classmethod
    def with_read_pipeline(cls, **overrides) -> "LogBaseConfig":
        """A config with the full log read pipeline enabled: DFS block
        cache, pointer-coalesced batch reads, and scan prefetch.

        The defaults of the plain constructor keep all three off so the
        seed benchmarks reproduce the paper's cost model unchanged; this
        preset is the production-leaning configuration the hot-path
        benchmarks (``bench_hotpath_read``) measure.
        """
        settings: dict = {
            "block_cache_enabled": True,
            "read_coalesce_gap": 64 * 1024,
            "scan_prefetch_bytes": 1 * MiB,
        }
        settings.update(overrides)
        return cls(**settings)

    @classmethod
    def with_fault_tolerance(cls, **overrides) -> "LogBaseConfig":
        """A config with the fault-tolerance layer enabled: replica
        checksums with verified, failing-over reads; heartbeat-driven
        background re-replication; and client retries over failover.

        The plain constructor keeps all of it off so the seed cost model
        and figures are reproduced byte-identically; this preset is what
        the chaos harness (``repro.chaos``) runs under, the recovery
        chaos schedules included.
        """
        settings: dict = {
            "dfs_checksum_replicas": True,
            "dfs_verify_reads": True,
            "dfs_auto_rereplicate": True,
            "dfs_degraded_allocation": True,
            "client_retry_limit": 3,
        }
        settings.update(overrides)
        return cls(**settings)

    @classmethod
    def with_gray_resilience(cls, **overrides) -> "LogBaseConfig":
        """A config with the gray-failure resilience layer enabled on top
        of the fault-tolerance layer: per-operation deadlines, hedged DFS
        replica reads, latency circuit breakers, and tablet-server
        admission control.

        The plain constructor keeps all of it off so the seed cost model
        and figures are reproduced byte-identically; this preset is what
        the gray chaos schedules (``repro.chaos.gray``) run under.
        """
        settings: dict = {
            "dfs_checksum_replicas": True,
            "dfs_verify_reads": True,
            "dfs_auto_rereplicate": True,
            "dfs_degraded_allocation": True,
            "client_retry_limit": 4,
            "gray_resilience": True,
            "op_deadline": 1.0,
            "hedge_reads": True,
            "breaker_enabled": True,
            "admission_queue_depth": 64,
        }
        settings.update(overrides)
        return cls(**settings)

    @classmethod
    def with_live_migration(cls, **overrides) -> "LogBaseConfig":
        """A config with the live-migration subsystem enabled on top of
        the fault-tolerance layer: lease-based tablet ownership, the
        prepare/catch-up/fenced-flip migration state machine (intent in
        znodes, fence epochs against stale owners), hot-tablet splitting
        and the heat balancer.  Ops that land in a flip window get the
        retryable ``TabletMigratingError``, which the client honors by
        invalidating its location cache and backing off.

        The plain constructor keeps it off so the seed cost model and
        figures are reproduced byte-identically; this preset is what the
        elasticity benchmark (``bench_migration``) and migration chaos
        schedules run under.
        """
        settings: dict = {
            "dfs_checksum_replicas": True,
            "dfs_verify_reads": True,
            "dfs_auto_rereplicate": True,
            "dfs_degraded_allocation": True,
            "client_retry_limit": 4,
            "live_migration": True,
        }
        settings.update(overrides)
        return cls(**settings)

    @classmethod
    def with_read_replicas(cls, **overrides) -> "LogBaseConfig":
        """A config with log-shipping read replicas enabled on top of the
        live-migration stack (followers are fenced through the same
        epochs a migration uses, so ownership changes and replica
        tear-down share one mechanism): the master places followers on
        non-owner servers, each follower tails the owner's log segments
        from the replicated DFS into its own index, and the client
        spreads reads across followers with owner fallback on
        ``FollowerLaggingError``.

        The plain constructor keeps it off so the seed cost model and
        figures are reproduced byte-identically; this preset is what the
        replica benchmark (``bench_replicas``) and replica chaos
        schedules run under.
        """
        settings: dict = {
            "dfs_checksum_replicas": True,
            "dfs_verify_reads": True,
            "dfs_auto_rereplicate": True,
            "dfs_degraded_allocation": True,
            "client_retry_limit": 4,
            "live_migration": True,
            "read_replicas": True,
        }
        settings.update(overrides)
        return cls(**settings)

    @classmethod
    def with_group_commit(cls, **overrides) -> "LogBaseConfig":
        """A config with group commit enabled: tablet-server writes are
        submitted to a commit coordinator that coalesces concurrent
        appends into one DFS replication round trip per group and acks
        every member on group durability (BtrLog-style leader/follower
        batching with pipelined replication).

        The plain constructor keeps it off so the seed cost model and
        figures are reproduced byte-identically; this preset is what the
        fan-in benchmark (``bench_group_commit``) measures.
        """
        settings: dict = {
            "group_commit": True,
        }
        settings.update(overrides)
        return cls(**settings)

    @classmethod
    def with_tracing(cls, **overrides) -> "LogBaseConfig":
        """A config with the observability subsystem enabled: the cluster
        installs a tracer, every charged simulated second is attributed to
        a span, and per-op latency histograms + the critical-path report
        become available through ``cluster.tracer``.

        The plain constructor keeps it off so the seed cost model and
        figures are reproduced byte-identically; this preset is what the
        trace benchmark (``bench_obs``) measures.
        """
        settings: dict = {
            "tracing": True,
        }
        settings.update(overrides)
        return cls(**settings)

    @classmethod
    def with_monitoring(cls, **overrides) -> "LogBaseConfig":
        """A config with the cluster monitoring plane enabled: the
        heartbeat-driven time-series scrape, the SLO/alert engine, and
        the chaos flight recorder, all reachable as ``cluster.monitor``.

        The plain constructor keeps it off so the seed cost model and
        figures are reproduced byte-identically; the detection oracle
        (``repro.chaos.detection``) and ``bench_monitoring`` run the
        chaos-family presets with ``monitoring=True`` layered on top.
        """
        settings: dict = {
            "monitoring": True,
        }
        settings.update(overrides)
        return cls(**settings)

    def gray_policy(self):
        """The :class:`~repro.sim.health.GrayPolicy` for this config, or
        None when the ``gray_resilience`` gate is off."""
        if not self.gray_resilience:
            return None
        from repro.sim.health import GrayPolicy

        return GrayPolicy(
            hedge_reads=self.hedge_reads,
            hedge_quantile=self.hedge_quantile,
            hedge_min_delay=self.hedge_min_delay,
            breaker_enabled=self.breaker_enabled,
            breaker_trip_seconds=self.breaker_trip_seconds,
            breaker_cooldown=self.breaker_cooldown,
            breaker_min_samples=self.breaker_min_samples,
        )

    def validate(self) -> None:
        """Raise ValueError on inconsistent settings."""
        if self.replication < 1:
            raise ValueError("replication must be >= 1")
        fractions = self.index_heap_fraction + self.cache_heap_fraction
        if self.block_cache_enabled:
            fractions += self.block_cache_heap_fraction
        if not 0.0 <= fractions <= 1.0:
            raise ValueError("heap fractions exceed the heap")
        if self.index_kind not in ("blink", "lsm"):
            raise ValueError(f"unknown index kind {self.index_kind!r}")
        if self.max_versions is not None and self.max_versions < 1:
            raise ValueError("max_versions must be >= 1 or None")
        if self.block_cache_chunk < 1:
            raise ValueError("block_cache_chunk must be >= 1")
        if self.read_coalesce_gap is not None and self.read_coalesce_gap < 0:
            raise ValueError("read_coalesce_gap must be >= 0 or None")
        if self.read_batch_size < 1:
            raise ValueError("read_batch_size must be >= 1")
        if self.scan_prefetch_bytes < 0:
            raise ValueError("scan_prefetch_bytes must be >= 0")
        if self.group_commit_batch < 1:
            raise ValueError("group_commit_batch must be >= 1")
        if self.group_commit_max_delay < 0:
            raise ValueError("group_commit_max_delay must be >= 0")
        if self.group_commit_max_bytes is not None and self.group_commit_max_bytes < 1:
            raise ValueError("group_commit_max_bytes must be >= 1 or None")
        if self.dfs_verify_reads and not self.dfs_checksum_replicas:
            raise ValueError("dfs_verify_reads requires dfs_checksum_replicas")
        if self.client_retry_limit < 0:
            raise ValueError("client_retry_limit must be >= 0")
        if self.client_retry_backoff < 0:
            raise ValueError("client_retry_backoff must be >= 0")
        if self.client_retry_backoff_max < self.client_retry_backoff:
            raise ValueError(
                "client_retry_backoff_max must be >= client_retry_backoff"
            )
        if self.op_deadline is not None and self.op_deadline <= 0:
            raise ValueError("op_deadline must be > 0 or None")
        if self.hedge_quantile <= 0:
            raise ValueError("hedge_quantile must be > 0")
        if self.hedge_min_delay < 0:
            raise ValueError("hedge_min_delay must be >= 0")
        if self.breaker_trip_seconds <= 0:
            raise ValueError("breaker_trip_seconds must be > 0")
        if self.breaker_cooldown < 0:
            raise ValueError("breaker_cooldown must be >= 0")
        if self.breaker_min_samples < 1:
            raise ValueError("breaker_min_samples must be >= 1")
        if self.admission_queue_depth is not None and self.admission_queue_depth < 1:
            raise ValueError("admission_queue_depth must be >= 1 or None")
        if self.recovery_workers < 1:
            raise ValueError("recovery_workers must be >= 1")
        if self.compaction_tier_fanout < 2:
            raise ValueError("compaction_tier_fanout must be >= 2")
        if (
            self.compaction_max_input_bytes is not None
            and self.compaction_max_input_bytes < 1
        ):
            raise ValueError("compaction_max_input_bytes must be >= 1 or None")
        if self.migration_lease_seconds <= 0:
            raise ValueError("migration_lease_seconds must be > 0")
        if self.migration_flip_budget <= 0:
            raise ValueError("migration_flip_budget must be > 0")
        if self.balancer_skew_threshold < 1.0:
            raise ValueError("balancer_skew_threshold must be >= 1")
        if not 0.0 < self.balancer_split_fraction <= 1.0:
            raise ValueError("balancer_split_fraction must be in (0, 1]")
        if self.heat_half_life <= 0:
            raise ValueError("heat_half_life must be > 0")
        if self.read_replicas and not self.live_migration:
            raise ValueError(
                "read_replicas requires live_migration (followers are "
                "fenced through migration epochs)"
            )
        if self.replicas_per_tablet < 0:
            # 0 is legal under the gate: the replica benchmark's baseline
            # arm runs the same config with no followers placed.
            raise ValueError("replicas_per_tablet must be >= 0")
        if self.replica_max_staleness <= 0:
            raise ValueError("replica_max_staleness must be > 0")
        if self.replica_tail_batch < 1:
            raise ValueError("replica_tail_batch must be >= 1")
        if not 0.0 <= self.replica_read_fraction <= 1.0:
            raise ValueError("replica_read_fraction must be in [0, 1]")
        if self.trace_ring < 1:
            raise ValueError("trace_ring must be >= 1")
        if self.trace_slow_samples < 0:
            raise ValueError("trace_slow_samples must be >= 0")
        if self.monitor_ring < 1:
            raise ValueError("monitor_ring must be >= 1")
        if self.monitor_recorder_ring < 1:
            raise ValueError("monitor_recorder_ring must be >= 1")
        if self.monitor_postmortems < 0:
            raise ValueError("monitor_postmortems must be >= 0")
        if self.monitor_series_tail < 1:
            raise ValueError("monitor_series_tail must be >= 1")
        if self.monitor_scrape_interval < 0:
            raise ValueError("monitor_scrape_interval must be >= 0")
        for op_class, target in self.slo_op_p99.items():
            if not isinstance(op_class, str) or not op_class:
                raise ValueError("slo_op_p99 keys must be op-class names")
            if target <= 0:
                raise ValueError("slo_op_p99 targets must be > 0 seconds")
        if not 0.0 < self.slo_objective < 1.0:
            raise ValueError("slo_objective must be in (0, 1)")
        if self.slo_burn_threshold <= 0:
            raise ValueError("slo_burn_threshold must be > 0")
        if self.slo_window <= 0:
            raise ValueError("slo_window must be > 0")
        if self.slo_min_samples < 1:
            raise ValueError("slo_min_samples must be >= 1")
