"""Unit tests for the log repository: appends, reads, segments, LSNs."""

import pytest

from repro.errors import InvalidLogPointer
from repro.sim.failure import CP_META_PERSIST, FaultPlan, fault_plan
from repro.wal.compaction import IncrementalCompactionJob
from repro.wal.planner import CompactionPlanner
from repro.wal.record import LogRecord, RecordType
from repro.wal.repository import LogRepository


def write_record(key: bytes, value: bytes, ts: int = 1) -> LogRecord:
    return LogRecord(
        record_type=RecordType.WRITE,
        table="t",
        tablet="t#0",
        key=key,
        group="g",
        timestamp=ts,
        value=value,
    )


@pytest.fixture
def repo(dfs, machines):
    return LogRepository(dfs, machines[0], "/logbase/ts-0/log", segment_size=4096)


def compact(repo):
    """Compact a fresh log: the planner's tail plan covers all of it."""
    (tail,) = CompactionPlanner(repo).plan()
    return IncrementalCompactionJob(repo, tail).run()


def test_append_assigns_increasing_lsns(repo):
    _, r1 = repo.append(write_record(b"a", b"1"))
    _, r2 = repo.append(write_record(b"b", b"2"))
    assert r2.lsn == r1.lsn + 1


def test_append_then_read_back(repo):
    pointer, stamped = repo.append(write_record(b"key", b"value"))
    read = repo.read(pointer)
    assert read == stamped


def test_batch_append_is_one_dfs_write(repo, machines):
    records = [write_record(str(i).encode(), b"v") for i in range(10)]
    messages_before = machines[0].counters.get("net.messages")
    pairs = repo.append_batch(records)
    messages_after = machines[0].counters.get("net.messages")
    # One replication round for the whole batch (group commit).
    assert messages_after - messages_before == 1
    for pointer, stamped in pairs:
        assert repo.read(pointer) == stamped


def test_segments_roll_at_size(repo):
    big_value = b"x" * 1500
    for i in range(6):
        repo.append(write_record(str(i).encode(), big_value))
    assert len(repo.segments()) >= 2


def test_scan_all_returns_in_order(repo):
    appended = [repo.append(write_record(str(i).encode(), b"v"))[1] for i in range(20)]
    scanned = [record for _, record in repo.scan_all()]
    assert scanned == appended


def test_scan_from_start_pointer(repo):
    for i in range(5):
        repo.append(write_record(str(i).encode(), b"v"))
    marker = repo.end_pointer()
    repo.append(write_record(b"after", b"v"))
    tail = [record.key for _, record in repo.scan_all(start=marker)]
    assert tail == [b"after"]


def test_end_pointer_after_roll(repo):
    repo.append(write_record(b"k", b"v"))
    repo.roll()
    marker = repo.end_pointer()
    repo.append(write_record(b"post-roll", b"v"))
    tail = [record.key for _, record in repo.scan_all(start=marker)]
    assert tail == [b"post-roll"]


def test_invalid_pointer_rejected(repo):
    from repro.wal.record import LogPointer

    with pytest.raises(InvalidLogPointer):
        repo.read(LogPointer(99, 0, 10))


def test_total_bytes_grows(repo):
    before = repo.total_bytes()
    repo.append(write_record(b"k", b"v" * 100))
    assert repo.total_bytes() > before


def test_reattach_sees_existing_segments(repo, dfs, machines):
    for i in range(3):
        repo.append(write_record(str(i).encode(), b"v"))
    attached = LogRepository.reattach(dfs, machines[1], "/logbase/ts-0/log")
    assert attached.segments() == repo.segments()
    scanned = [record.key for _, record in attached.scan_all()]
    assert scanned == [b"0", b"1", b"2"]


def test_set_next_lsn_only_forward(repo):
    repo.set_next_lsn(100)
    assert repo.next_lsn == 100
    repo.set_next_lsn(50)
    assert repo.next_lsn == 100


def test_empty_batch_is_noop(repo):
    assert repo.append_batch([]) == []


# -- oversized batches ------------------------------------------------------


def test_append_batch_splits_across_rolls(repo, machines):
    """A batch bigger than one segment must split across rolls instead of
    blowing a single segment past the threshold — one DFS round trip per
    resulting segment."""
    records = [write_record(str(i).encode(), b"x" * 1000) for i in range(8)]
    before = machines[0].counters.get("net.messages")
    pairs = repo.append_batch(records)
    segments_touched = len(repo.segments())
    assert segments_touched >= 2
    for file_no in repo.segments():
        assert repo.segment_bytes(file_no) <= 4096
    assert machines[0].counters.get("net.messages") - before == segments_touched
    for pointer, stamped in pairs:
        assert repo.read(pointer) == stamped
    scanned = [record for _, record in repo.scan_all()]
    assert scanned == [stamped for _, stamped in pairs]


def test_append_batch_single_record_larger_than_segment(repo):
    pairs = repo.append_batch(
        [write_record(b"big", b"x" * 8000), write_record(b"small", b"v")]
    )
    # The oversized record goes alone; the next record opens a new segment.
    assert len(repo.segments()) == 2
    for pointer, stamped in pairs:
        assert repo.read(pointer) == stamped


# -- atomic metadata persistence --------------------------------------------


def _crash(_ctx):
    raise RuntimeError("crashed mid-persist")


def test_meta_swap_crash_leaves_complete_map(repo, dfs, machines):
    """Regression: the old code deleted ``segments.meta`` before
    re-creating it, so a crash in between lost the slim map and reads of
    sorted segments came back without table/group.  The swap now goes
    through a temp file; a crash after the temp is complete but before
    the rename must still let ``reattach`` recover the new map."""
    repo.append(write_record(b"k", b"payload"))
    plan = FaultPlan()
    plan.add(CP_META_PERSIST, _crash, machine=machines[0].name)
    with fault_plan(plan):
        with pytest.raises(RuntimeError):
            compact(repo)
    attached = LogRepository.reattach(dfs, machines[1], "/logbase/ts-0/log")
    (file_no,) = attached.segments()
    assert attached.segment_scope(file_no) == ("t", "g")
    (record,) = [record for _, record in attached.scan_segment(file_no)]
    assert record.table == "t" and record.group == "g"
    assert record.value == b"payload"


def test_reattach_ignores_torn_meta_tmp(repo, dfs, machines):
    """An unparseable temp file is a crash mid-write: reattach must fall
    back to the old complete map it never replaced."""
    repo.append(write_record(b"k", b"v"))
    compact(repo)
    expected = {f: repo.segment_scope(f) for f in repo.segments()}
    writer = dfs.create("/logbase/ts-0/log/segments.meta.tmp", machines[0])
    writer.append(b'{"torn')
    writer.close()
    attached = LogRepository.reattach(dfs, machines[1], "/logbase/ts-0/log")
    assert {f: attached.segment_scope(f) for f in attached.segments()} == expected


def test_meta_swap_cleans_up_tmp(repo, dfs):
    repo.append(write_record(b"k", b"v"))
    compact(repo)
    assert not dfs.exists("/logbase/ts-0/log/segments.meta.tmp")
    assert dfs.exists("/logbase/ts-0/log/segments.meta")
