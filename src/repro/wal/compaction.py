"""Log compaction (§3.6.5): the MapReduce-like vacuum/sort job.

The job takes the current log segments as input, removes obsolete
versions, invalidated records and uncommitted updates, sorts the remaining
data by (table name, column group, record id, timestamp) — the paper's
priority order — and writes one run of *sorted* segments per
(table, column group) so related records are clustered for range scans.

Structure mirrors the paper's MapReduce framing:

* **map** — scan each input segment, classifying entries and collecting
  the set of committed transactions;
* **shuffle** — group surviving versions by (table, group);
* **reduce** — per group, drop deleted/obsolete versions, sort by
  (key, timestamp), and emit slim records into a new sorted segment.

The caller (tablet server) keeps serving reads and writes from the old
segments while the job runs and swaps indexes atomically afterwards.

Compaction runs incrementally: :class:`~repro.wal.planner.CompactionPlanner`
splits each round into plans, and :class:`IncrementalCompactionJob`
executes one plan.  Tail plans run the map/shuffle/reduce above over the
unsorted tail segments (on a fresh log that is the whole log), while
merge plans stream a k-way heap merge over already-sorted runs of one
(table, group), so memory is bounded by one key's versions instead of
the whole log.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterator

from repro.sim.failure import CP_COMPACTION_MID, crash_point
from repro.sim.metrics import (
    COMPACTION_BYTES_READ,
    COMPACTION_BYTES_WRITTEN,
    COMPACTION_PLANS,
    COMPACTION_TOMBSTONES_CARRIED,
)
from repro.wal.planner import CompactionPlan
from repro.wal.record import LogPointer, LogRecord, RecordType
from repro.wal.repository import LogRepository
from repro.wal.segment import LogSegmentWriter


@dataclass
class CompactionStats:
    """What the job dropped and kept (reported by benchmarks/tests)."""

    input_records: int = 0
    kept_versions: int = 0
    dropped_obsolete: int = 0
    dropped_deleted: int = 0
    dropped_uncommitted: int = 0
    dropped_unowned: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    tombstones_carried: int = 0

    def merge(self, other: "CompactionStats") -> None:
        """Accumulate another run's accounting into this one."""
        self.input_records += other.input_records
        self.kept_versions += other.kept_versions
        self.dropped_obsolete += other.dropped_obsolete
        self.dropped_deleted += other.dropped_deleted
        self.dropped_uncommitted += other.dropped_uncommitted
        self.dropped_unowned += other.dropped_unowned
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written
        self.tombstones_carried += other.tombstones_carried


@dataclass
class CompactionResult:
    """Output of one compaction run.

    Attributes:
        new_segments: file numbers of the sorted segments written.
        index_entries: ``(table, group, key, timestamp, pointer)`` for
            every surviving version, in sorted order — the tablet server
            rebuilds its in-memory indexes from this.
        retired_segments: input file numbers now safe to discard.
        touched_scopes: the (table, group) scopes whose data this run
            rewrote — the tablet server swaps only these scopes' indexes
            on an incremental run, leaving the rest alive.
        stats: drop/keep accounting.
    """

    new_segments: list[int] = field(default_factory=list)
    index_entries: list[tuple[str, str, bytes, int, LogPointer]] = field(
        default_factory=list
    )
    retired_segments: list[int] = field(default_factory=list)
    touched_scopes: set[tuple[str, str]] = field(default_factory=set)
    stats: CompactionStats = field(default_factory=CompactionStats)

    def merge(self, other: "CompactionResult") -> None:
        """Fold another plan's result in (plans have disjoint inputs)."""
        self.new_segments.extend(other.new_segments)
        self.index_entries.extend(other.index_entries)
        self.retired_segments.extend(other.retired_segments)
        self.touched_scopes.update(other.touched_scopes)
        self.stats.merge(other.stats)


def _trim_versions(
    live: list[LogRecord],
    stats: CompactionStats,
    max_versions: int | None,
    retain_after: int | None,
) -> list[LogRecord]:
    """Apply the retention policies to one key's surviving versions.

    ``retain_after`` expires history older than the cutoff but always
    keeps the key's newest version; ``max_versions`` caps the count.
    """
    if retain_after is not None and live:
        retained = [r for r in live[:-1] if r.timestamp >= retain_after] + [live[-1]]
        stats.dropped_obsolete += len(live) - len(retained)
        live = retained
    if max_versions is not None and len(live) > max_versions:
        stats.dropped_obsolete += len(live) - max_versions
        live = live[-max_versions:]
    return live


def _as_committed(record: LogRecord) -> LogRecord:
    """A copy of ``record`` stamped auto-committed (txn_id 0).

    Survivors are committed by construction, and their COMMIT records do
    not survive compaction — emitting them as auto-committed means a
    later redo scan or log split does not hold them hostage to a commit
    marker that no longer exists.
    """
    return LogRecord(
        record_type=record.record_type,
        lsn=record.lsn,
        txn_id=0,
        table=record.table,
        tablet=record.tablet,
        key=record.key,
        group=record.group,
        timestamp=record.timestamp,
        value=record.value,
    )


class IncrementalCompactionJob:
    """Execute one :class:`~repro.wal.planner.CompactionPlan`.

    Deletions need care: a plan may drop INVALIDATE markers only when no
    live segment *outside* the plan could still hold that (table,
    group)'s versions.  Otherwise it re-emits a slim tombstone at the
    key's delete high-water mark — without it a later redo scan over the
    retained runs would resurrect deleted data.  Tombstones are emitted
    before the key's surviving versions (their timestamp is lower), so
    scan order within and across runs keeps redo correct.

    A budget-capped tail plan can also split a transaction from its
    commit marker (writes inside the plan, COMMIT past the cut).  Such
    writes must not be classified uncommitted: segments holding writes of
    a transaction with no COMMIT/ABORT inside the plan are deferred to a
    later round whenever the plan does not cover the whole tail.
    """

    def __init__(
        self,
        repository: LogRepository,
        plan: CompactionPlan,
        max_versions: int | None = None,
        owned=None,
        retain_after: int | None = None,
    ) -> None:
        if max_versions is not None and max_versions < 1:
            raise ValueError("max_versions must be >= 1 or None")
        if plan.kind not in ("tail", "merge"):
            raise ValueError(f"unknown plan kind {plan.kind!r}")
        if plan.kind == "merge" and plan.scope is None:
            raise ValueError("merge plans need a scope")
        self._repo = repository
        self._plan = plan
        self._max_versions = max_versions
        self._owned = owned
        self._retain_after = retain_after

    def run(self) -> CompactionResult:
        """Execute the plan and install its output in the repository."""
        if self._plan.kind == "merge":
            result = self._run_merge()
        else:
            result = self._run_tail()
        counters = self._repo.machine.counters
        counters.add(COMPACTION_PLANS)
        counters.add(COMPACTION_BYTES_READ, result.stats.bytes_read)
        counters.add(COMPACTION_BYTES_WRITTEN, result.stats.bytes_written)
        counters.add(COMPACTION_TOMBSTONES_CARRIED, result.stats.tombstones_carried)
        # Each plan installs independently; a crash here leaves this
        # plan's new runs written but unreferenced while every record
        # stays readable through the plan's inputs.  Earlier plans in the
        # same round are already fully installed.
        crash_point(CP_COMPACTION_MID, machine=self._repo.machine.name)
        self._repo.retire_segments(result.retired_segments)
        self._repo.persist_meta()
        return result

    # -- shared helpers -----------------------------------------------------

    def _scope_covered(self, scope: tuple[str, str], input_set: set[int]) -> bool:
        """Whether no live segment outside the plan can hold ``scope``'s
        versions — only then may the scope's delete markers be dropped."""
        for file_no in self._repo.segments():
            if file_no in input_set:
                continue
            other = self._repo.segment_scope(file_no)
            if other is None or other == scope:
                return False
        return True

    def _emit_tombstone(
        self,
        segment: LogSegmentWriter,
        table: str,
        group: str,
        key: bytes,
        cutoff: int,
        lsn: int,
        stats: CompactionStats,
    ) -> None:
        marker = LogRecord(
            record_type=RecordType.INVALIDATE,
            lsn=lsn,
            txn_id=0,
            table=table,
            tablet="",
            key=key,
            group=group,
            timestamp=cutoff,
            value=None,
        )
        pointer = segment.append(marker.encode(slim=True))
        stats.bytes_written += pointer.size
        stats.tombstones_carried += 1

    def _emit_live(
        self,
        segment: LogSegmentWriter,
        table: str,
        group: str,
        live: list[LogRecord],
        result: CompactionResult,
    ) -> None:
        for record in live:
            pointer = segment.append(_as_committed(record).encode(slim=True))
            result.stats.bytes_written += pointer.size
            result.index_entries.append(
                (table, group, record.key, record.timestamp, pointer)
            )
            result.stats.kept_versions += 1

    # -- tail plans ---------------------------------------------------------

    def _run_tail(self) -> CompactionResult:
        stats = CompactionStats()
        inputs = list(self._plan.inputs)
        committed: set[int] = set()
        resolved: set[int] = set()  # txns with a COMMIT or ABORT in the plan
        data: list[tuple[int, LogRecord]] = []  # (file_no, WRITE/INVALIDATE)
        txns_by_segment: dict[int, set[int]] = defaultdict(set)
        for file_no in inputs:
            for pointer, record in self._repo.scan_segment(file_no):
                stats.input_records += 1
                stats.bytes_read += pointer.size
                if record.record_type is RecordType.COMMIT:
                    committed.add(record.txn_id)
                    resolved.add(record.txn_id)
                elif record.record_type is RecordType.ABORT:
                    resolved.add(record.txn_id)
                elif record.record_type in (RecordType.WRITE, RecordType.INVALIDATE):
                    if record.txn_id != 0:
                        txns_by_segment[file_no].add(record.txn_id)
                    data.append((file_no, record))

        # Budget-capped plans must not treat a transaction whose COMMIT
        # lies past the cut as uncommitted: defer its segments instead.
        deferred: set[int] = set()
        unsorted_live = {
            f for f in self._repo.segments() if self._repo.segment_scope(f) is None
        }
        if not unsorted_live <= set(inputs):
            dangling = set().union(*txns_by_segment.values(), set()) - resolved
            if dangling:
                deferred = {
                    f for f, txns in txns_by_segment.items() if txns & dangling
                }

        grouped: dict[tuple[str, str], dict[bytes, list[LogRecord]]] = defaultdict(
            lambda: defaultdict(list)
        )
        delete_high_water: dict[tuple[str, str, bytes], tuple[int, int]] = {}
        for file_no, record in data:
            if file_no in deferred:
                continue
            if record.txn_id != 0 and record.txn_id not in committed:
                stats.dropped_uncommitted += 1
                continue
            if self._owned is not None and not self._owned(record.table, record.key):
                stats.dropped_unowned += 1
                continue
            if record.record_type is RecordType.WRITE:
                grouped[(record.table, record.group)][record.key].append(record)
            else:
                slot = (record.table, record.group, record.key)
                mark = delete_high_water.get(slot)
                if mark is None or record.timestamp > mark[0]:
                    delete_high_water[slot] = (record.timestamp, record.lsn)

        retired = [f for f in inputs if f not in deferred]
        result = CompactionResult(stats=stats, retired_segments=retired)
        scopes = set(grouped) | {(t, g) for t, g, _ in delete_high_water}
        result.touched_scopes.update(scopes)
        # Coverage must be decided before any output segment is created
        # (a new run of the same scope must not count as "outside").
        input_set = set(retired)
        covered = {s: self._scope_covered(s, input_set) for s in scopes}
        for scope in sorted(scopes):
            table, group = scope
            per_key = grouped.get(scope, {})
            keys = set(per_key) | {
                k for t, g, k in delete_high_water if (t, g) == scope
            }
            segment: LogSegmentWriter | None = None
            for key in sorted(keys):
                versions = sorted(per_key.get(key, []), key=lambda r: r.timestamp)
                cutoff, cutoff_lsn = delete_high_water.get(
                    (table, group, key), (-1, 0)
                )
                live = [r for r in versions if r.timestamp > cutoff]
                stats.dropped_deleted += len(versions) - len(live)
                live = _trim_versions(
                    live, stats, self._max_versions, self._retain_after
                )
                carry = cutoff >= 0 and not covered[scope]
                if segment is None and (live or carry):
                    segment = self._repo.create_sorted_segment(table, group)
                if carry:
                    self._emit_tombstone(
                        segment, table, group, key, cutoff, cutoff_lsn, stats
                    )
                self._emit_live(segment, table, group, live, result)
            if segment is not None:
                segment.close()
                result.new_segments.append(segment.file_no)
        return result

    # -- merge plans --------------------------------------------------------

    def _run_merge(self) -> CompactionResult:
        table, group = self._plan.scope
        stats = CompactionStats()
        inputs = list(self._plan.inputs)
        result = CompactionResult(stats=stats, retired_segments=inputs)
        result.touched_scopes.add((table, group))
        covered = self._scope_covered((table, group), set(inputs))
        segment: LogSegmentWriter | None = None
        for key, records in self._merge_by_key(inputs, stats):
            # records arrive in timestamp order and may include carried
            # tombstones from earlier incremental rounds.
            cutoff, cutoff_lsn = -1, 0
            versions: list[LogRecord] = []
            seen_ts: set[int] = set()
            for record in records:
                if record.record_type is RecordType.INVALIDATE:
                    if record.timestamp > cutoff:
                        cutoff, cutoff_lsn = record.timestamp, record.lsn
                elif record.record_type is RecordType.WRITE:
                    if record.timestamp in seen_ts:
                        continue  # duplicate copy across runs
                    seen_ts.add(record.timestamp)
                    versions.append(record)
            if self._owned is not None and not self._owned(table, key):
                stats.dropped_unowned += len(versions)
                continue
            live = [r for r in versions if r.timestamp > cutoff]
            stats.dropped_deleted += len(versions) - len(live)
            live = _trim_versions(live, stats, self._max_versions, self._retain_after)
            carry = cutoff >= 0 and not covered
            if segment is None and (live or carry):
                segment = self._repo.create_sorted_segment(table, group)
            if carry:
                self._emit_tombstone(
                    segment, table, group, key, cutoff, cutoff_lsn, stats
                )
            self._emit_live(segment, table, group, live, result)
        if segment is not None:
            segment.close()
            result.new_segments.append(segment.file_no)
        return result

    def _merge_by_key(
        self, inputs: list[int], stats: CompactionStats
    ) -> Iterator[tuple[bytes, list[LogRecord]]]:
        """K-way heap merge over sorted runs, yielding one key's records
        at a time in (key, timestamp) order — the streaming core that
        keeps merge memory bounded by versions-per-key, not log size."""
        streams = [self._scan_counted(file_no, stats) for file_no in inputs]
        heap: list[tuple[bytes, int, int, LogRecord]] = []
        for idx, stream in enumerate(streams):
            first = next(stream, None)
            if first is not None:
                heapq.heappush(heap, (first.key, first.timestamp, idx, first))
        current_key: bytes | None = None
        bucket: list[LogRecord] = []
        while heap:
            key, _, idx, record = heapq.heappop(heap)
            nxt = next(streams[idx], None)
            if nxt is not None:
                heapq.heappush(heap, (nxt.key, nxt.timestamp, idx, nxt))
            if current_key is not None and key != current_key:
                yield current_key, bucket
                bucket = []
            current_key = key
            bucket.append(record)
        if current_key is not None:
            yield current_key, bucket

    def _scan_counted(
        self, file_no: int, stats: CompactionStats
    ) -> Iterator[LogRecord]:
        for pointer, record in self._repo.scan_segment(file_no):
            stats.input_records += 1
            stats.bytes_read += pointer.size
            yield record


class CompactionJob(IncrementalCompactionJob):
    """Former name of the compaction job, kept importable for code that
    looks it up by name (``perfbench/layers.py`` wraps this module's job
    classes).  It adds nothing: construct it exactly like
    :class:`IncrementalCompactionJob`."""
