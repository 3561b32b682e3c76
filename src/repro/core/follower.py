"""Log-shipping read replicas (Taurus-style, over the shared log).

LogBase already replicates every log segment through the DFS; a follower
therefore needs no owner involvement to reconstruct a tablet's state — it
tails the owner's segment files straight from the DFS on its *own*
machine (charging its own clock and warming its own block cache), replays
them into a private :class:`MultiversionIndex` per column group, and
serves bounded-staleness reads.

Two classes:

* :class:`FollowerTablet` — the replica of one tablet on one non-owner
  server: per-group indexes, the replication watermark (highest applied
  version/commit timestamp), and ``caught_up_at`` (the follower-clock
  instant of the last fully drained tail pass, which is what bounded
  staleness is judged against).
* :class:`LogTailer` — one per (follower server, owner) pair, shared by
  every FollowerTablet that server hosts for that owner, because the
  owner keeps *a single log instance* for all its tablets (§3.4): one
  tail pass feeds them all.

Tailing protocol.  The owner's log is an append stream of unsorted
``segment-*.log`` files plus compaction-produced ``sorted-*.log`` files
(slim layout, old data re-emitted in key order).  The tailer keeps a
byte cursor over the unsorted stream — segment N+1 is only created after
N closed, so once a higher unsorted segment exists the lower one is
immutable — and scans each sorted segment exactly once when it appears.
Sorted segments matter for two reasons: they re-emit live versions under
*new* pointers (the originals are about to be retired, so the follower's
index entries would dangle), and they carry re-emitted tombstones.
Replay mirrors recovery's redo exactly: commit-gated transactional
records, immediate auto-commits, and a persistent per-tailer tombstone
map so out-of-file-order tombstones cannot resurrect deleted versions.
``insert`` replaces at (key, timestamp), so replay is idempotent — a
fresh subscriber simply resets the cursor and the whole stream replays.

A read that chases a pointer into a segment the owner retired between
tail passes raises :class:`FollowerLaggingError`; the client falls back
to the owner and the next tail pass heals the pointer from the sorted
segment that replaced it.
"""

from __future__ import annotations

from repro.config import LogBaseConfig
from repro.core.tablet import Tablet
from repro.dfs.filesystem import DFS
from repro.index.blink import BLinkTreeIndex
from repro.index.interface import MultiversionIndex
from repro.obs.trace import span
from repro.sim.machine import Machine
from repro.sim.metrics import (
    REPLICA_LAG_RECORDS,
    REPLICA_TAIL_BATCHES,
    SPAN_FOLLOWER_TAIL,
)
from repro.wal.record import LogPointer, LogRecord, RecordType
from repro.wal.repository import LogRepository


class FollowerTablet:
    """Read-only replica of one tablet on a non-owner server.

    Attributes:
        tablet: the tablet being replicated.
        owner_name: the tablet server whose log is being tailed.
        epoch: the migration fence epoch this subscription was created
            under (``fence_epochs["mig-{tablet_id}"]``).  An ownership
            change bumps the epoch, so a follower of the deposed owner is
            torn down and re-pointed rather than silently applying the
            old owner's post-fence records.
        watermark: highest version/commit timestamp applied to this
            replica.  A follower read never returns data newer than this.
        caught_up_at: follower-clock instant of the last tail pass that
            fully drained the owner's log (None until the first one).
            Bounded staleness is ``now - caught_up_at``: everything the
            owner committed before that instant is visible here.
    """

    def __init__(self, tablet: Tablet, owner_name: str, epoch: int) -> None:
        self.tablet = tablet
        self.owner_name = owner_name
        self.epoch = epoch
        self.watermark = 0
        self.caught_up_at: float | None = None
        self._indexes: dict[str, MultiversionIndex] = {
            group: BLinkTreeIndex() for group in tablet.schema.group_names
        }

    def index(self, group: str) -> MultiversionIndex:
        """The replica index for one column group."""
        index = self._indexes.get(group)
        if index is None:
            index = BLinkTreeIndex()
            self._indexes[group] = index
        return index

    def lag(self, now: float) -> float:
        """Seconds of staleness at ``now`` (inf before the first drain)."""
        if self.caught_up_at is None:
            return float("inf")
        return max(0.0, now - self.caught_up_at)

    def entry_count(self) -> int:
        """Total index entries across groups (stats/diagnostics)."""
        return sum(len(index) for index in self._indexes.values())


class LogTailer:
    """Tails one owner's log directory for all of a server's followers.

    The tailer owns a read-only :class:`LogRepository` handle reattached
    over the owner's log root on the *follower's* machine: every byte
    scanned and every pointer chased is charged to the follower's clock
    and cached in the follower's block cache — the owner is never
    involved (the whole point of log-shipping replicas).
    """

    def __init__(
        self, dfs: DFS, machine: Machine, owner_name: str, config: LogBaseConfig
    ) -> None:
        self.owner_name = owner_name
        self._machine = machine
        self.repo = LogRepository.reattach(
            dfs,
            machine,
            f"/logbase/{owner_name}/log",
            config.segment_size,
            coalesce_gap=config.read_coalesce_gap,
            scan_prefetch=config.scan_prefetch_bytes,
        )
        self.members: dict[str, FollowerTablet] = {}  # tablet id -> replica
        # Byte cursor over the unsorted append stream: next record starts
        # at offset `_cursor[1]` of segment `_cursor[0]`.
        self._cursor: tuple[int, int] = (0, 0)
        # Per-sorted-segment resume offsets and the set fully consumed.
        self._sorted_progress: dict[int, int] = {}
        self._sorted_done: set[int] = set()
        # Commit-gated transactional records buffered until their COMMIT
        # (mirrors recovery's redo), and the persistent tombstone map that
        # keeps out-of-file-order replay resurrection-safe.
        self._pending: dict[int, list[tuple[LogPointer, LogRecord]]] = {}
        self._tombstones: dict[tuple[str, str, bytes], int] = {}
        # Highest committed timestamp the stream has applied; synced into
        # every member's watermark on a fully drained pass.
        self._stream_watermark = 0

    # -- membership -----------------------------------------------------------

    def subscribe(self, follower: FollowerTablet) -> None:
        """Add a replica and restart the stream from the beginning.

        Replay is idempotent for existing members (insert replaces at
        (key, timestamp); the tombstone map is rebuilt as the stream
        re-delivers the same markers), and the reset is what lets a
        replica created mid-stream see records the shared cursor already
        passed.  Every member — not just the new one — stops serving
        until the re-replay fully drains: the batch-bounded re-replay can
        transiently re-insert a WRITE whose shadowing INVALIDATE only
        lands in a later pass, and a member still judged fresh from its
        pre-reset drain would serve that resurrected deleted version."""
        self.members[str(follower.tablet.tablet_id)] = follower
        for member in self.members.values():
            member.caught_up_at = None
        self._cursor = (0, 0)
        self._sorted_progress.clear()
        self._sorted_done.clear()
        self._pending.clear()
        self._tombstones.clear()
        self._stream_watermark = 0

    def unsubscribe(self, tablet_id: str) -> None:
        """Drop a replica (teardown on ownership change or re-placement)."""
        self.members.pop(str(tablet_id), None)

    # -- tailing ---------------------------------------------------------------

    def tail(self, batch_limit: int) -> tuple[int, bool]:
        """One tail pass: apply up to ``batch_limit`` new log records.

        Returns ``(applied, drained)`` where ``drained`` means the pass
        consumed everything the owner's log currently holds — only then do
        the members' ``caught_up_at`` (and watermark, via the stream
        watermark) advance, because bounded staleness promises a complete
        prefix, not a sample.
        """
        with span(SPAN_FOLLOWER_TAIL, self._machine, owner=self.owner_name):
            self.repo.refresh_from_dfs()
            applied = 0
            scanned = 0
            drained = True
            unsorted: list[int] = []
            sorted_segs: list[int] = []
            for file_no in self.repo.segments():
                name = self.repo.segment_path(file_no).rsplit("/", 1)[-1]
                (sorted_segs if name.startswith("sorted-") else unsorted).append(
                    file_no
                )
            # Sorted segments retired by a later compaction round drop out
            # of the bookkeeping with them.
            live_sorted = set(sorted_segs)
            self._sorted_done &= live_sorted
            for gone in [n for n in self._sorted_progress if n not in live_sorted]:
                del self._sorted_progress[gone]

            # 1. The unsorted append stream, in file order from the cursor.
            cursor_file, cursor_offset = self._cursor
            stream = [n for n in unsorted if n > cursor_file]
            if cursor_file in unsorted:
                stream.insert(0, cursor_file)
            for file_no in stream:
                start = cursor_offset if file_no == cursor_file else 0
                for pointer, record in self.repo.scan_segment(
                    file_no, start_offset=start
                ):
                    if scanned >= batch_limit:
                        drained = False
                        break
                    scanned += 1
                    applied += self._consume(pointer, record, committed=False)
                    self._cursor = (file_no, pointer.offset + pointer.size)
                if not drained:
                    break

            # 2. Sorted segments, each consumed exactly once as it appears
            # (new pointers for data whose original segments are being
            # retired, plus re-emitted tombstones).  Their content is
            # already-committed, so records apply directly.
            if drained:
                for file_no in sorted_segs:
                    if file_no in self._sorted_done:
                        continue
                    start = self._sorted_progress.get(file_no, 0)
                    complete = True
                    for pointer, record in self.repo.scan_segment(
                        file_no, start_offset=start
                    ):
                        if scanned >= batch_limit:
                            drained = False
                            complete = False
                            break
                        scanned += 1
                        applied += self._consume(pointer, record, committed=True)
                        self._sorted_progress[file_no] = (
                            pointer.offset + pointer.size
                        )
                    if complete:
                        self._sorted_done.add(file_no)
                        self._sorted_progress.pop(file_no, None)
                    if not drained:
                        break

            if drained:
                now = self._machine.clock.now
                for member in self.members.values():
                    member.watermark = max(member.watermark, self._stream_watermark)
                    member.caught_up_at = now
            if applied:
                self._machine.counters.add(REPLICA_LAG_RECORDS, applied)
                self._machine.counters.add(REPLICA_TAIL_BATCHES)
            return applied, drained

    # -- replay (mirrors recovery's redo) -------------------------------------

    def _consume(
        self, pointer: LogPointer, record: LogRecord, *, committed: bool
    ) -> int:
        """Route one scanned record; returns how many index effects landed."""
        kind = record.record_type
        if kind is RecordType.WRITE:
            if record.txn_id == 0 or committed:
                return self._apply_write(record, pointer)
            self._pending.setdefault(record.txn_id, []).append((pointer, record))
            return 0
        if kind is RecordType.INVALIDATE:
            if record.txn_id == 0 or committed:
                return self._apply_delete(record)
            self._pending.setdefault(record.txn_id, []).append((pointer, record))
            return 0
        if kind is RecordType.COMMIT:
            applied = 0
            for buffered_pointer, buffered in self._pending.pop(record.txn_id, []):
                if buffered.record_type is RecordType.WRITE:
                    applied += self._apply_write(buffered, buffered_pointer)
                else:
                    applied += self._apply_delete(buffered)
            self._stream_watermark = max(self._stream_watermark, record.timestamp)
            return applied
        if kind is RecordType.ABORT:
            self._pending.pop(record.txn_id, None)
        return 0

    def _member_for(self, table: str, key: bytes) -> FollowerTablet | None:
        for member in self.members.values():
            if member.tablet.table == table and member.tablet.covers(key):
                return member
        return None

    def _apply_write(self, record: LogRecord, pointer: LogPointer) -> int:
        member = self._member_for(record.table, record.key)
        self._stream_watermark = max(self._stream_watermark, record.timestamp)
        if member is None:
            return 0
        slot = (record.table, record.group, record.key)
        if self._tombstones.get(slot, -1) >= record.timestamp:
            return 0  # version shadowed by an already-seen tombstone
        member.index(record.group).insert(record.key, record.timestamp, pointer)
        member.watermark = max(member.watermark, record.timestamp)
        return 1

    def _apply_delete(self, record: LogRecord) -> int:
        slot = (record.table, record.group, record.key)
        self._tombstones[slot] = max(
            self._tombstones.get(slot, -1), record.timestamp
        )
        self._stream_watermark = max(self._stream_watermark, record.timestamp)
        member = self._member_for(record.table, record.key)
        if member is None:
            return 0
        index = member.index(record.group)
        # Kill versions at or below the marker's timestamp only: sorted
        # segments re-emit tombstones out of file order relative to newer
        # surviving versions (same rule as recovery's redo).
        survivors = [
            e for e in index.versions(record.key) if e.timestamp > record.timestamp
        ]
        index.delete_key(record.key)
        for entry in survivors:
            index.insert(entry.key, entry.timestamp, entry.pointer)
        member.watermark = max(member.watermark, record.timestamp)
        return 1
