"""Failure recovery (§3.8): redo from the last consistent checkpoint.

Recovery of a restarted tablet server (:func:`recover_server`):

1. read the checkpoint block (if a checkpoint exists);
2. scan the log tail after the checkpoint position, bucketing records
   per tablet: committed writes whose LSN exceeds the checkpointed LSN
   are re-applied to the indexes; invalidated entries re-apply their
   deletions; writes of transactions with no commit record are ignored
   (MVOCC defers all modifications to commit time, so redo-only recovery
   is sufficient — no undo);
3. bring tablets back hottest first, each reloading its own checkpointed
   index files and redoing its own bucket, and serve each one as soon as
   its redo completes.

Permanent failure of a server instead *splits* its log by tablet (the
log is in the shared DFS) so healthy servers can adopt the tablets and
recover them from the split files.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.core.checkpoint import CheckpointManager
from repro.core.tablet_server import TabletServer
from repro.dfs.filesystem import DFS
from repro.errors import RecoveryError, TabletNotFound
from repro.obs.hist import Histogram
from repro.obs.trace import root_span, span
from repro.sim.failure import (
    CP_ADOPT_MID,
    CP_RECOVERY_MID,
    CP_SPLIT_PERSIST,
    crash_point,
)
from repro.sim.machine import Machine
from repro.sim.metrics import (
    HIST_RECOVERY_TABLET_SECONDS,
    RECOVERY_ADOPT_SKIPPED,
    RECOVERY_DELETES_APPLIED,
    RECOVERY_PARALLEL_RUNS,
    RECOVERY_SPLITS_PERSISTED,
    RECOVERY_TABLETS_RECOVERED,
    RECOVERY_WRITES_APPLIED,
    SPAN_RECOVERY_ADOPT,
    SPAN_RECOVERY_RECOVER,
    SPAN_RECOVERY_TABLET,
)
from repro.sim.scheduler import ConcurrentScheduler, Invoke, measured
from repro.wal.record import LogPointer, LogRecord, RecordType
from repro.wal.repository import LogRepository


@dataclass
class RecoveryReport:
    """What a recovery pass did (asserted by tests, reported by benches).

    ``seconds`` is the recovery wall-clock: the virtual-time makespan of
    the worker fleet (workers overlap, so the makespan is what a client
    would observe as unavailability).
    """

    used_checkpoint: bool = False
    checkpoint_lsn: int = 0
    records_scanned: int = 0
    writes_applied: int = 0
    deletes_applied: int = 0
    uncommitted_ignored: int = 0
    seconds: float = 0.0
    tablets_recovered: int = 0
    skipped: int = 0  # adoption replays deduped as already applied
    tablet_seconds: dict[str, float] = field(default_factory=dict)
    tablet_ready: dict[str, float] = field(default_factory=dict)  # virtual ready time
    first_ready_seconds: float = 0.0  # earliest tablet_ready (0.0 if none)

    def to_dict(self) -> dict:
        return {
            "used_checkpoint": self.used_checkpoint,
            "checkpoint_lsn": self.checkpoint_lsn,
            "records_scanned": self.records_scanned,
            "writes_applied": self.writes_applied,
            "deletes_applied": self.deletes_applied,
            "uncommitted_ignored": self.uncommitted_ignored,
            "seconds": self.seconds,
            "tablets_recovered": self.tablets_recovered,
            "skipped": self.skipped,
            "tablet_seconds": dict(self.tablet_seconds),
            "tablet_ready": dict(self.tablet_ready),
            "first_ready_seconds": self.first_ready_seconds,
        }


def _apply(
    server: TabletServer,
    record: LogRecord,
    pointer: LogPointer,
    report: RecoveryReport,
    tombstones: dict[tuple[str, str, bytes], int],
) -> None:
    try:
        index = server.index_for(record.table, record.key, record.group)
    except TabletNotFound:
        return  # tablet now owned elsewhere
    # Incremental compaction re-homes versions into sorted runs whose
    # file order no longer matches timestamp order: a write can appear
    # *after* the tombstone that shadows it (e.g. the delete marker still
    # sits in the unsorted tail while a merge re-emitted the old version
    # into a higher-numbered run).  Timestamps disambiguate — a version at
    # or below a seen tombstone is dead regardless of scan order (the TSO
    # makes any legitimate rebirth strictly newer).
    if tombstones.get((record.table, record.group, record.key), -1) >= record.timestamp:
        return
    index.insert(record.key, record.timestamp, pointer)
    report.writes_applied += 1


def _apply_delete(
    server: TabletServer,
    record: LogRecord,
    report: RecoveryReport,
    tombstones: dict[tuple[str, str, bytes], int],
) -> None:
    slot = (record.table, record.group, record.key)
    tombstones[slot] = max(tombstones.get(slot, -1), record.timestamp)
    try:
        index = server.index_for(record.table, record.key, record.group)
    except TabletNotFound:
        return
    # An INVALIDATE kills versions at or below its timestamp, not the key
    # wholesale: incremental compaction re-emits tombstones into sorted
    # runs whose file order no longer matches timestamp order, so a redo
    # may apply a newer surviving version *before* it reaches the
    # tombstone that only shadows older ones.
    survivors = [e for e in index.versions(record.key) if e.timestamp > record.timestamp]
    index.delete_key(record.key)
    for entry in survivors:
        index.insert(entry.key, entry.timestamp, entry.pointer)
    report.deletes_applied += 1


@dataclass
class SplitLogs:
    """Output of :func:`split_log_by_tablet`."""

    paths: dict[str, str] = field(default_factory=dict)  # tablet id -> path
    # Source-log position right after the last record the scan covered;
    # a live migration's flip delta re-splits from here.
    end: LogPointer | None = None


def _atomic_write(dfs: DFS, path: str, payload: bytes, machine: Machine) -> None:
    """Install ``payload`` at ``path`` via tmp + rename (same idiom as the
    compaction manifest): readers see either the old file or the complete
    new one, never a torn prefix."""
    tmp = path + ".tmp"
    if dfs.exists(tmp):
        dfs.delete(tmp)  # stale leftover from a crashed writer
    writer = dfs.create(tmp, machine)
    writer.append(payload)
    writer.close()
    if dfs.exists(path):
        dfs.delete(path)
    dfs.rename(tmp, path)


def split_fence_path(failed_server_name: str) -> str:
    """DFS path of a failed server's split fence token."""
    return f"/logbase/splits/{failed_server_name}/FENCE"


def read_split_fence(dfs: DFS, failed_server_name: str, machine: Machine) -> int | None:
    """Current fence epoch of a server's split directory (None if unfenced)."""
    path = split_fence_path(failed_server_name)
    if not dfs.exists(path):
        return None
    return int(dfs.open(path, machine).read_all().decode())


def split_log_by_tablet(
    dfs: DFS,
    failed_server_name: str,
    splitter: Machine,
    *,
    start: LogPointer | None = None,
    locate=None,
    fence: int | None = None,
    only_tablet: str | None = None,
    out_name: str | None = None,
) -> SplitLogs:
    """Split a failed server's log into one file per tablet (§3.8).

    "The log of the failed servers, which is stored in the shared DFS, is
    scanned (from the consistent recovery starting point) and split into
    separate files for each tablet."  The adopting servers then redo from
    their tablet's split file.

    Args:
        locate: ``(table, key) -> tablet id`` used for records from
            compacted (slim) segments, whose per-record tablet field is
            stripped; the master passes its catalog lookup.
        fence: epoch token installed *after* every split file; adopters
            that were handed this epoch refuse to replay a directory
            whose fence does not match (a crashed splitter leaves the old
            fence — or none — so a retried failover re-splits under a
            fresh epoch before anyone adopts).
        only_tablet: restrict the split to one tablet id (a live
            migration catches up exactly the moving tablet; everything
            else stays where it is).
        out_name: directory name under ``/logbase/splits/`` the split
            files (and fence) are written to; defaults to
            ``failed_server_name``.  A live migration uses a
            migration-scoped name so its catch-up files never collide
            with a real failover of the same (still alive) source.
    """
    out = out_name if out_name is not None else failed_server_name
    failed_log = LogRepository.reattach(
        dfs, splitter, f"/logbase/{failed_server_name}/log"
    )
    buffers: dict[str, list[bytes]] = defaultdict(list)
    for _, record in failed_log.scan_all(start=start):
        if record.record_type in (RecordType.COMMIT, RecordType.ABORT):
            # Commit/abort markers gate every tablet's records: replicate
            # them into every split so per-tablet redo sees them.
            for buffer in buffers.values():
                buffer.append(record.encode())
            continue
        tablet = record.tablet
        if not tablet and locate is not None:
            tablet = locate(record.table, record.key)
        if only_tablet is not None and tablet != only_tablet:
            continue
        buffers[tablet].append(record.encode())
    result = SplitLogs(end=failed_log.end_pointer())
    for tablet_id, frames in sorted(buffers.items()):
        path = f"/logbase/splits/{out}/{tablet_id}/segment-00000001.log"
        tmp = path + ".tmp"
        if dfs.exists(tmp):
            dfs.delete(tmp)
        writer = dfs.create(tmp, splitter)
        writer.append(b"".join(frames))
        writer.close()
        # A crash here leaves only the tmp file: reattach skips it (not a
        # numbered segment) and an adopter still sees the previous split —
        # or nothing — never a torn one.
        crash_point(CP_SPLIT_PERSIST, server=failed_server_name, tablet=tablet_id)
        if dfs.exists(path):
            dfs.delete(path)
        dfs.rename(tmp, path)
        splitter.counters.add(RECOVERY_SPLITS_PERSISTED)
        result.paths[tablet_id] = path
    if fence is not None:
        # The fence goes in last: it vouches that every split file above
        # belongs to this epoch.  Crashing before this line leaves a
        # stale (or absent) fence and adopters refuse the directory.
        _atomic_write(dfs, split_fence_path(out), str(fence).encode(), splitter)
    return result


def adopt_split_log(
    server: TabletServer,
    dfs: DFS,
    failed_server_name: str,
    tablet_id: str,
    *,
    fence: int | None = None,
) -> RecoveryReport:
    """Redo one tablet's split-log file into an adopting server's indexes.

    The adopting server must already have the tablet assigned.  Note the
    pointers applied refer to the *split* file's repository, so the
    adopting server re-reads record payloads from the failed server's
    original log via the shared DFS; to keep pointers valid this rewrites
    the records into the adopter's own log (data is re-appended once,
    which also re-homes the tablet's data locally).

    Adoption is restartable: a write whose (key, timestamp) version is
    already in the adopter's index (a previous adoption attempt crashed
    after appending it) is skipped, so re-running never double-appends
    re-homed data.  When ``fence`` is given, the split directory's fence
    token must match it — a stale fence means the splitter crashed before
    finishing this epoch and the failover must re-split first.

    Raises:
        RecoveryError: on a fence mismatch.
    """
    if fence is not None:
        found = read_split_fence(dfs, failed_server_name, server.machine)
        if found != fence:
            raise RecoveryError(
                f"split fence mismatch for {failed_server_name}: "
                f"expected epoch {fence}, found {found}"
            )
    split_root = f"/logbase/splits/{failed_server_name}/{tablet_id}"
    split_repo = LogRepository.reattach(dfs, server.machine, split_root)
    report = RecoveryReport()
    pending: dict[int, list[LogRecord]] = defaultdict(list)
    tombstones: dict[tuple[str, str, bytes], int] = {}

    def already_adopted(record: LogRecord) -> bool:
        # TSO timestamps are unique per version, so an index entry with
        # this record's (key, timestamp) can only be a previous adoption
        # attempt's append — replaying it again would double-append.
        try:
            index = server.index_for(record.table, record.key, record.group)
        except TabletNotFound:
            return False
        return any(
            entry.timestamp == record.timestamp
            for entry in index.versions(record.key)
        )

    def as_committed(record: LogRecord) -> LogRecord:
        # Only committed records reach replay, and the commit markers
        # themselves are not rewritten into the adopter's log — re-home
        # the record as auto-committed (txn_id 0) so a later compaction
        # or redo scan of the adopter's log does not drop it as
        # uncommitted (same trick compaction plays for slim records).
        if record.txn_id == 0:
            return record
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

    def replay(record: LogRecord) -> None:
        if record.record_type is RecordType.WRITE:
            crash_point(CP_ADOPT_MID, server=server.name, tablet=tablet_id)
            if already_adopted(record):
                report.skipped += 1
                server.machine.counters.add(RECOVERY_ADOPT_SKIPPED)
                return
            pointer, stamped = server.log.append(as_committed(record))
            _apply(server, stamped, pointer, report, tombstones)
        elif record.record_type is RecordType.INVALIDATE:
            crash_point(CP_ADOPT_MID, server=server.name, tablet=tablet_id)
            # Tombstone replay is naturally idempotent (the watermark only
            # moves forward); duplicates from a restarted adoption collapse
            # at the next compaction's (key, timestamp) dedupe.
            server.log.append(as_committed(record))
            _apply_delete(server, record, report, tombstones)

    scope = (
        root_span(SPAN_RECOVERY_ADOPT, server.machine, tablet=tablet_id)
        if server.config.tracing
        else span(SPAN_RECOVERY_ADOPT, server.machine, tablet=tablet_id)
    )
    with scope:
        for _, record in split_repo.scan_all():
            report.records_scanned += 1
            if record.record_type in (RecordType.WRITE, RecordType.INVALIDATE):
                if record.txn_id == 0:
                    replay(record)
                else:
                    pending[record.txn_id].append(record)
            elif record.record_type is RecordType.COMMIT:
                for buffered in pending.pop(record.txn_id, []):
                    replay(buffered)
            elif record.record_type is RecordType.ABORT:
                pending.pop(record.txn_id, None)
    report.uncommitted_ignored = sum(len(v) for v in pending.values())
    return report


def recover_server(
    server: TabletServer,
    checkpoints: CheckpointManager,
    *,
    heat: dict[str, float] | None = None,
    workers: int | None = None,
    on_tablet_ready=None,
) -> RecoveryReport:
    """Restart recovery: partitioned redo scan, hot-first bring-up.

    Two phases, each multiplexed over ``config.recovery_workers`` virtual
    clients of the :class:`~repro.sim.scheduler.ConcurrentScheduler`:

    1. **Partitioned tail scan** — the log segments after the checkpoint
       position are scanned concurrently; records are *collected* and
       bucketed per tablet (nothing is applied yet), commit/abort markers
       are gathered globally.  Scan wall-clock is the widest worker's
       lane, not the whole log.
    2. **Hot-first bring-up** — tablets ordered by access heat (hottest
       first) are brought up concurrently: reload the tablet's checkpoint
       index files, apply its gated records in log commit order, then
       flip the tablet to serving immediately.  Until a
       tablet's own redo completes, ops on it raise the retryable
       :class:`~repro.errors.TabletRecoveringError`.

    Commit gating is resolved between the phases in plain bookkeeping: a
    transactional record applies iff a COMMIT marker with a higher LSN
    exists, and records apply in ``(commit LSN, record LSN)`` order —
    the order a single front-to-back scan would apply them — so the
    resulting index state does not depend on the worker count.

    The pass is restartable: it mutates only in-memory indexes (plus the
    max-clamped LSN cursor), so a crash at :data:`CP_RECOVERY_MID` and a
    re-run from the same checkpoint converges to the same state.

    Args:
        heat: ``tablet id -> access count`` ordering hint (the master's
            heartbeat snapshot); missing tablets count as cold.
        workers: override ``config.recovery_workers``.
        on_tablet_ready: ``(tablet_id, virtual_ready_time)`` callback
            fired as each tablet flips to serving.
    """
    machine = server.machine
    start_clock = machine.clock.now
    n_workers = max(1, workers if workers is not None else server.config.recovery_workers)
    heat = heat or {}
    report = RecoveryReport()
    redo_histogram = Histogram(HIST_RECOVERY_TABLET_SECONDS)

    scope = (
        root_span(SPAN_RECOVERY_RECOVER, machine, server=server.name)
        if server.config.tracing
        else span(SPAN_RECOVERY_RECOVER, machine, server=server.name)
    )
    with scope:
        server.begin_tablet_recovery(server.tablets.keys())

        block = None
        start: LogPointer | None = None
        min_lsn = 0
        if checkpoints.has_checkpoint():
            # Only the block is read up front; each tablet loads its own
            # index files during bring-up so cold tablets do not delay
            # hot ones.
            block = checkpoints.read_block()
            start = block.position
            min_lsn = block.lsn
            report.used_checkpoint = True
            report.checkpoint_lsn = min_lsn

        # -- phase 1: partitioned tail scan -----------------------------
        tail = [
            file_no
            for file_no in server.log.segments()
            if start is None or file_no >= start.file_no
        ]
        shared = {"max_lsn": min_lsn, "scanned": 0}
        committed: dict[int, int] = {}  # txn id -> COMMIT marker LSN
        aborted: set[int] = set()
        # tablet id -> [(record LSN, pointer, record)]; "" collects
        # records routing to no local tablet (owned elsewhere) so they
        # still count towards the uncommitted total.
        buckets: dict[str, list[tuple[int, LogPointer, LogRecord]]] = defaultdict(list)

        def scan_segment_fn(file_no: int):
            def run(now: float) -> None:
                crash_point(CP_RECOVERY_MID, server=server.name, segment=file_no)
                for pointer, record in server.log.scan_segment(file_no):
                    if (
                        start is not None
                        and file_no == start.file_no
                        and pointer.offset < start.offset
                    ):
                        continue
                    shared["scanned"] += 1
                    if record.lsn > shared["max_lsn"]:
                        shared["max_lsn"] = record.lsn
                    if record.lsn <= min_lsn:
                        continue
                    if record.record_type is RecordType.COMMIT:
                        committed[record.txn_id] = record.lsn
                    elif record.record_type is RecordType.ABORT:
                        aborted.add(record.txn_id)
                    else:
                        try:
                            tablet = server._route(record.table, record.key)
                            tablet_key = str(tablet.tablet_id)
                        except TabletNotFound:
                            tablet_key = ""
                        buckets[tablet_key].append((record.lsn, pointer, record))

            return measured(machine, run)

        def scan_worker(lane: list[int]):
            for file_no in lane:
                yield Invoke(scan_segment_fn(file_no))

        scan_sched = ConcurrentScheduler()
        for lane in (tail[i::n_workers] for i in range(n_workers)):
            if lane:
                scan_sched.add_client(scan_worker(lane))
        scan_makespan = scan_sched.run()
        report.records_scanned = shared["scanned"]
        # The cursor moves before any tablet serves, so the first
        # post-recovery append already has a fresh LSN.
        server.log.set_next_lsn(shared["max_lsn"] + 1)

        # -- commit gating (plain bookkeeping, no simulated cost) -------
        def resolve(
            bucket: list[tuple[int, LogPointer, LogRecord]],
        ) -> tuple[list[tuple[int, int, LogPointer, LogRecord]], int]:
            eligible: list[tuple[int, int, LogPointer, LogRecord]] = []
            uncommitted = 0
            for lsn, pointer, record in bucket:
                if record.txn_id == 0:
                    eligible.append((lsn, lsn, pointer, record))
                    continue
                commit_lsn = committed.get(record.txn_id)
                if commit_lsn is not None and commit_lsn > lsn:
                    # A txn's records take effect at its COMMIT marker:
                    # effective order is the marker's LSN, ties broken by
                    # append order.
                    eligible.append((commit_lsn, lsn, pointer, record))
                elif record.txn_id not in aborted:
                    uncommitted += 1
            eligible.sort(key=lambda item: (item[0], item[1]))
            return eligible, uncommitted

        foreign = buckets.pop("", None)
        if foreign is not None:
            _, uncommitted = resolve(foreign)
            report.uncommitted_ignored += uncommitted

        order = sorted(
            server.tablets.keys(), key=lambda tid: (-heat.get(tid, 0.0), tid)
        )
        resolved: dict[str, list[tuple[int, int, LogPointer, LogRecord]]] = {}
        for tablet_key in order:
            eligible, uncommitted = resolve(buckets.get(tablet_key, []))
            resolved[tablet_key] = eligible
            report.uncommitted_ignored += uncommitted

        # -- phase 2: hot-first per-tablet bring-up ---------------------
        def bring_up_fn(tablet_key: str):
            def run(now: float) -> tuple[None, float]:
                crash_point(CP_RECOVERY_MID, server=server.name, tablet=tablet_key)
                clock0 = machine.clock.now
                tablet = server.tablets[tablet_key]
                with span(SPAN_RECOVERY_TABLET, machine, tablet=tablet_key):
                    for group in tablet.schema.group_names:
                        index = server._ensure_index(tablet.tablet_id, group)
                        reopen = getattr(index, "reopen", None)
                        if reopen is not None:
                            reopen()
                    if block is not None:
                        checkpoints.load_tablet(block, tablet_key)
                    tombstones: dict[tuple[str, str, bytes], int] = {}
                    for _, _, pointer, record in resolved[tablet_key]:
                        if record.record_type is RecordType.WRITE:
                            _apply(server, record, pointer, report, tombstones)
                        else:
                            _apply_delete(server, record, report, tombstones)
                seconds = machine.clock.now - clock0
                server.finish_tablet_recovery(tablet_key)
                ready_at = now + seconds
                report.tablet_seconds[tablet_key] = seconds
                report.tablet_ready[tablet_key] = ready_at
                redo_histogram.record(seconds)
                machine.counters.add(RECOVERY_TABLETS_RECOVERED)
                if on_tablet_ready is not None:
                    on_tablet_ready(tablet_key, ready_at)
                return None, seconds

            return run

        def bring_up_worker(lane: list[str]):
            for tablet_key in lane:
                yield Invoke(bring_up_fn(tablet_key))

        bring_sched = ConcurrentScheduler()
        for lane in (order[i::n_workers] for i in range(n_workers)):
            if lane:
                bring_sched.add_client(bring_up_worker(lane), at=scan_makespan)
        total = bring_sched.run() if order else scan_makespan

    report.seconds = max(total, scan_makespan)
    report.tablets_recovered = len(order)
    if report.tablet_ready:
        report.first_ready_seconds = min(report.tablet_ready.values())
    machine.counters.add(RECOVERY_PARALLEL_RUNS)
    machine.counters.add(RECOVERY_WRITES_APPLIED, report.writes_applied)
    machine.counters.add(RECOVERY_DELETES_APPLIED, report.deletes_applied)
    server.last_recovery = report
    server.recovery_histogram = redo_histogram
    return report
