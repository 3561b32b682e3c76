"""Unit tests for incremental compaction plan execution."""

import pytest

from repro.sim.failure import (
    CP_COMPACTION_MID,
    FailureInjector,
    FaultPlan,
    fault_plan,
    kill_action,
)
from repro.wal.compaction import IncrementalCompactionJob
from repro.wal.planner import CompactionPlan, CompactionPlanner
from repro.wal.record import LogRecord, RecordType, abort_record, commit_record
from repro.wal.repository import LogRepository


def write(key: bytes, ts: int, value: bytes, *, table="t", group="g", txn=0) -> LogRecord:
    return LogRecord(
        record_type=RecordType.WRITE,
        txn_id=txn,
        table=table,
        tablet=f"{table}#0",
        key=key,
        group=group,
        timestamp=ts,
        value=value,
    )


def delete(key: bytes, ts: int, *, table="t", group="g") -> LogRecord:
    return LogRecord(
        record_type=RecordType.INVALIDATE,
        table=table,
        tablet=f"{table}#0",
        key=key,
        group=group,
        timestamp=ts,
        value=None,
    )


@pytest.fixture
def repo(dfs, machines):
    return LogRepository(dfs, machines[0], "/logbase/ts-0/log", segment_size=1 << 20)


def run_plans(repo, **knobs):
    """Plan once over the current log and execute every plan."""
    results = []
    for plan in CompactionPlanner(repo, **knobs).plan():
        results.append(IncrementalCompactionJob(repo, plan).run())
    return results


def visible_versions(repo):
    """(table, group, key) -> live timestamps, replaying the whole log the
    way a redo scan would: INVALIDATE kills versions at or below its ts."""
    live: dict[tuple[str, str, bytes], set[int]] = {}
    committed = set()
    staged = []
    for file_no in repo.segments():
        for _, record in repo.scan_segment(file_no):
            if record.record_type is RecordType.COMMIT:
                committed.add(record.txn_id)
            staged.append(record)
    for record in staged:
        if record.txn_id != 0 and record.txn_id not in committed:
            continue
        slot = (record.table, record.group, record.key)
        if record.record_type is RecordType.WRITE:
            live.setdefault(slot, set()).add(record.timestamp)
        elif record.record_type is RecordType.INVALIDATE:
            kept = {ts for ts in live.get(slot, set()) if ts > record.timestamp}
            if kept:
                live[slot] = kept
            else:
                live.pop(slot, None)
    return live


# -- tail plans -------------------------------------------------------------


def test_tail_plan_matches_monolithic_semantics(repo):
    """A tail plan over the whole log is a full §3.6.5 compaction: sorted
    output, uncommitted writes dropped, survivors auto-committed."""
    for key, ts in ((b"b", 2), (b"a", 3), (b"b", 1), (b"a", 1)):
        repo.append(write(key, ts, b"v"))
    repo.append(write(b"c", 4, b"txn", txn=9))
    repo.append(commit_record(9, 4))
    repo.append(write(b"d", 5, b"lost", txn=10))  # never committed
    (result,) = run_plans(repo)
    order = [(key, ts) for _, _, key, ts, _ in result.index_entries]
    assert order == [(b"a", 1), (b"a", 3), (b"b", 1), (b"b", 2), (b"c", 4)]
    assert result.stats.dropped_uncommitted == 1
    assert result.touched_scopes == {("t", "g")}
    # Survivors are auto-committed slim records in sorted runs.
    for file_no in repo.segments():
        assert repo.is_sorted_segment(file_no)
        for _, record in repo.scan_segment(file_no):
            assert record.txn_id == 0


def test_tail_plan_drops_covered_deletes(repo):
    repo.append(write(b"k", 1, b"old"))
    repo.append(delete(b"k", 2))
    (result,) = run_plans(repo)
    # The plan covers the whole log, so the tombstone may be dropped.
    assert result.stats.tombstones_carried == 0
    assert visible_versions(repo) == {}


def test_tail_plan_carries_tombstone_when_not_covered(repo):
    # Sorted run holding the victim, written by an earlier round.
    repo.append(write(b"k", 1, b"victim"))
    run_plans(repo)
    run = repo.segments()[0]
    # New tail deletes it; the tail plan must not touch the sorted run
    # (below fanout), so the tombstone has to ride along.
    repo.append(delete(b"k", 5))
    repo.roll()
    results = run_plans(repo, tier_fanout=4)
    assert sum(r.stats.tombstones_carried for r in results) == 1
    assert run in repo.segments()  # sorted run untouched
    assert visible_versions(repo) == {}  # ...but the delete still wins


def test_carried_tombstone_spares_newer_write(repo):
    repo.append(write(b"k", 1, b"old"))
    run_plans(repo)
    repo.append(delete(b"k", 3))
    repo.append(write(b"k", 7, b"reborn"))
    repo.roll()
    run_plans(repo, tier_fanout=4)
    assert visible_versions(repo) == {("t", "g", b"k"): {7}}


def test_tail_plan_leaves_sorted_runs_alone(repo):
    repo.append(write(b"a", 1, b"v"))
    run_plans(repo)
    runs = list(repo.segments())
    repo.append(write(b"b", 2, b"v"))
    repo.roll()
    plans = CompactionPlanner(repo, tier_fanout=4).plan()
    assert len(plans) == 1 and plans[0].kind == "tail"
    result = IncrementalCompactionJob(repo, plans[0]).run()
    assert set(runs) <= set(repo.segments())
    assert set(result.retired_segments).isdisjoint(runs)


# -- budget cuts and dangling transactions ----------------------------------


def test_budget_cut_defers_dangling_txn_segments(repo):
    # Transaction writes land in segment A; its COMMIT lands past the
    # budget cut.  The plan must defer A rather than drop the write.
    repo.append(write(b"k", 1, b"txn-value", txn=7))
    first = repo.segments()[-1]
    repo.roll()
    repo.append(commit_record(7, 1))
    repo.roll()
    plan = CompactionPlan("tail", (first,), repo.segment_bytes(first))
    result = IncrementalCompactionJob(repo, plan).run()
    assert result.retired_segments == []
    assert result.stats.dropped_uncommitted == 0
    assert first in repo.segments()
    assert visible_versions(repo) == {("t", "g", b"k"): {1}}


def test_aborted_txn_not_deferred(repo):
    repo.append(write(b"k", 1, b"doomed", txn=7))
    repo.append(abort_record(7))
    repo.append(write(b"live", 2, b"v"))
    first = repo.segments()[-1]
    repo.roll()
    repo.append(write(b"later", 3, b"v"))
    plan = CompactionPlan("tail", (first,), repo.segment_bytes(first))
    result = IncrementalCompactionJob(repo, plan).run()
    # ABORT resolves txn 7 inside the plan: nothing dangles, the segment
    # compacts and the aborted write disappears.
    assert result.retired_segments == [first]
    kept = [key for _, _, key, _, _ in result.index_entries]
    assert kept == [b"live"]


# -- merge plans ------------------------------------------------------------


def make_runs(repo, per_run, **knobs):
    """One sorted run per entry of ``per_run`` (a list of record lists)."""
    runs = []
    for records in per_run:
        for record in records:
            repo.append(record)
        result = IncrementalCompactionJob(
            repo, CompactionPlanner(repo, **knobs).plan()[-1]
        ).run()
        runs.extend(result.new_segments)
        repo.roll()
    return runs


def test_merge_plan_streams_runs_into_one(repo):
    runs = make_runs(
        repo,
        [
            [write(b"a", 1, b"v"), write(b"c", 2, b"v")],
            [write(b"b", 3, b"v"), write(b"c", 4, b"v")],
        ],
        tier_fanout=4,
    )
    plan = CompactionPlan(
        "merge",
        tuple(runs),
        sum(repo.segment_bytes(f) for f in runs),
        ("t", "g"),
    )
    result = IncrementalCompactionJob(repo, plan).run()
    assert len(result.new_segments) == 1
    order = [(key, ts) for _, _, key, ts, _ in result.index_entries]
    assert order == [(b"a", 1), (b"b", 3), (b"c", 2), (b"c", 4)]
    assert sorted(result.retired_segments) == sorted(runs)
    for file_no in runs:
        assert file_no not in repo.segments()


def test_merge_dedupes_same_key_timestamp_across_runs(repo):
    # The same (key, ts) version can exist in two runs (e.g. after a
    # crash between install steps); the merge keeps exactly one copy.
    runs = make_runs(
        repo,
        [[write(b"k", 5, b"v")], [write(b"k", 5, b"v"), write(b"k", 6, b"w")]],
        tier_fanout=4,
    )
    plan = CompactionPlan("merge", tuple(runs), 0, ("t", "g"))
    result = IncrementalCompactionJob(repo, plan).run()
    kept = [(key, ts) for _, _, key, ts, _ in result.index_entries]
    assert kept == [(b"k", 5), (b"k", 6)]


def test_merge_applies_carried_tombstones(repo):
    # Run 1 holds the data; run 2 holds a carried tombstone + newer write.
    repo.append(write(b"k", 1, b"old"))
    run_plans(repo)
    repo.append(delete(b"k", 3))
    repo.append(write(b"k", 8, b"new"))
    repo.roll()
    run_plans(repo, tier_fanout=4)  # tail plan carries the tombstone
    runs = list(repo.segments())
    assert len(runs) == 2
    plan = CompactionPlan("merge", tuple(runs), 0, ("t", "g"))
    result = IncrementalCompactionJob(repo, plan).run()
    kept = [(key, ts) for _, _, key, ts, _ in result.index_entries]
    assert kept == [(b"k", 8)]
    # The merge covers every segment of the scope: tombstone dropped.
    assert result.stats.tombstones_carried == 0
    assert visible_versions(repo) == {("t", "g", b"k"): {8}}


def test_merge_keeps_tombstone_while_uncovered(repo):
    repo.append(write(b"k", 1, b"v"))
    run_plans(repo)  # run A: k@1
    repo.append(delete(b"k", 3))
    repo.roll()
    run_plans(repo, tier_fanout=4)  # tail plan carries the tombstone: run B
    runs = list(repo.segments())
    assert len(runs) == 2
    # An unsorted segment outside the merge could still hold b"k", so the
    # merged run must re-carry the tombstone even though k@1 dies here.
    repo.append(write(b"other", 9, b"v"))
    plan = CompactionPlan("merge", tuple(runs), 0, ("t", "g"))
    result = IncrementalCompactionJob(repo, plan).run()
    assert result.stats.tombstones_carried == 1
    assert result.index_entries == []  # k@1 was shadowed and dropped
    assert ("t", "g", b"k") not in visible_versions(repo)


def test_incremental_rounds_converge_with_model(repo):
    """Several churn rounds of incremental compaction leave exactly the
    versions a model of the write history keeps: every write not
    shadowed by a later delete."""
    expected: dict[bytes, set[int]] = {}
    ts = 0
    for round_no in range(5):
        for i in range(6):
            ts += 1
            key = b"key%d" % (i % 4)
            repo.append(write(key, ts, b"r%d" % round_no))
            expected.setdefault(key, set()).add(ts)
        if round_no == 2:
            ts += 1
            repo.append(delete(b"key0", ts))
            expected[b"key0"] = {t for t in expected[b"key0"] if t > ts}
        repo.roll()
        run_plans(repo, tier_fanout=2)
    got = visible_versions(repo)
    assert {slot[2]: tss for slot, tss in got.items()} == {
        key: tss for key, tss in expected.items() if tss
    }


# -- crash safety -----------------------------------------------------------


def test_crash_before_install_keeps_inputs_live(repo, dfs, machines):
    repo.append(write(b"a", 1, b"v"))
    repo.append(delete(b"a", 2))
    repo.append(write(b"b", 3, b"v"))
    inputs = list(repo.segments())
    injector = FailureInjector()
    injector.register(machines[0].name, machines[0])
    plan = FaultPlan()
    plan.add(
        CP_COMPACTION_MID,
        kill_action(injector, machines[0].name, RuntimeError("died")),
        machine=machines[0].name,
    )
    (compaction_plan,) = CompactionPlanner(repo).plan()
    with fault_plan(plan):
        with pytest.raises(RuntimeError):
            IncrementalCompactionJob(repo, compaction_plan).run()
    # Inputs were never retired: every record is still readable.
    assert set(inputs) <= set(repo.segments())
    machines[0].restart()
    reattached = LogRepository.reattach(dfs, machines[0], "/logbase/ts-0/log")
    assert set(inputs) <= set(reattached.segments())
    assert visible_versions(reattached)[("t", "g", b"b")] == {3}
    assert ("t", "g", b"a") not in visible_versions(reattached)


def test_validation():
    with pytest.raises(ValueError):
        IncrementalCompactionJob(None, CompactionPlan("tail", (), 0), max_versions=0)
    with pytest.raises(ValueError):
        IncrementalCompactionJob(None, CompactionPlan("sideways", (), 0))
    with pytest.raises(ValueError):
        IncrementalCompactionJob(None, CompactionPlan("merge", (), 0, scope=None))
