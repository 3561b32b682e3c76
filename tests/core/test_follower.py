"""Follower (read replica) tests: log tailing, watermarks, staleness.

The invariants under test: a follower read never observes a write past
the follower's watermark and always returns the *latest* version at or
below it; a replica beyond its staleness bound rejects instead of
serving stale; a fresh replica never serves before its first complete
tail pass; ownership changes (promotion, migration) tear replicas down;
and compaction on the owner only ever lags a follower transiently —
the next tail pass re-points retired log positions.
"""

import random

import pytest

from repro import LogBase, LogBaseConfig
from repro.chaos.replica import StalenessChecker
from repro.chaos.oracle import encode_value
from repro.errors import DataNodeDownError, FollowerLaggingError
from repro.sim.metrics import REPLICA_TAIL_ERRORS

TABLE = "events"
GROUP = "payload"
SOURCE = "ts-node-0"


def _rep_config(**overrides):
    return LogBaseConfig.with_read_replicas(segment_size=16 * 1024, **overrides)


@pytest.fixture
def rep_db(schema):
    """A 3-node cluster, one tablet on the source, followers placed and
    caught up on ``ops`` raw writes."""
    db = LogBase(n_nodes=3, config=_rep_config())
    db.create_table(schema, tablets_per_server=1, only_servers=[SOURCE])
    client = db.client(db.cluster.machines[-1])
    keys = [str(k).zfill(12).encode() for k in range(0, 2_000_000_000, 97_000_003)]
    history = {}
    for i, key in enumerate(keys):
        ts = client.put_raw(TABLE, key, GROUP, encode_value(i))
        history[key] = (ts, i)
    db.cluster.heartbeat()
    return db, keys, history


def _the_follower(db):
    """(tablet_id, follower server, FollowerTablet) of the only tablet."""
    followers = db.cluster.master.catalog.followers
    tablet_id = next(iter(followers))
    server = db.cluster.server_by_name(followers[tablet_id][0])
    return tablet_id, server, server.followers[tablet_id]


def test_follower_placed_and_caught_up(rep_db):
    db, keys, history = rep_db
    tablet_id, server, follower = _the_follower(db)
    assert server.name != SOURCE
    assert follower.owner_name == SOURCE
    assert follower.watermark > 0
    assert follower.entry_count() == len(keys)
    for key, (ts, i) in history.items():
        assert server.follower_read(TABLE, key, GROUP) == (ts, encode_value(i))


def test_follower_read_never_passes_the_watermark(rep_db):
    """Property test: across interleaved writes and tail passes, every
    successful follower read is exactly the latest version at or below
    the follower's watermark — never newer, never an older shadow."""
    db, keys, history = rep_db
    tablet_id, server, follower = _the_follower(db)
    checker = StalenessChecker()
    for key, (ts, i) in history.items():
        checker.record(key, ts, i)
    client = db.client(db.cluster.machines[-1])
    rng = random.Random(7)
    seq = len(keys)
    for round_no in range(6):
        for key in rng.sample(keys, 3):
            ts = client.put_raw(TABLE, key, GROUP, encode_value(seq))
            checker.record(key, ts, seq)
            seq += 1
        if round_no % 2 == 0:
            db.cluster.heartbeat()  # tail pass advances the watermark
        for key in keys:
            try:
                result = server.follower_read(TABLE, key, GROUP)
            except FollowerLaggingError:
                continue
            problem = checker.check(key, follower.watermark, result)
            assert problem is None, problem


def test_stale_follower_rejects_instead_of_serving(rep_db):
    db, keys, _ = rep_db
    _, server, follower = _the_follower(db)
    bound = db.cluster.config.replica_max_staleness
    server.machine.clock.advance(bound + 1.0)
    with pytest.raises(FollowerLaggingError):
        server.follower_read(TABLE, keys[0], GROUP)
    # A fresh tail pass resets the lag and the replica serves again.
    db.cluster.heartbeat()
    assert server.follower_read(TABLE, keys[0], GROUP) is not None


def test_per_request_staleness_bound_overrides_the_default(rep_db):
    db, keys, _ = rep_db
    _, server, _ = _the_follower(db)
    server.machine.clock.advance(1.0)
    # Within the 5s default, but beyond an exacting per-request bound.
    assert server.follower_read(TABLE, keys[0], GROUP) is not None
    with pytest.raises(FollowerLaggingError):
        server.follower_read(TABLE, keys[0], GROUP, max_staleness=0.5)


def test_as_of_past_the_watermark_is_rejected(rep_db):
    db, keys, _ = rep_db
    _, server, follower = _the_follower(db)
    with pytest.raises(FollowerLaggingError):
        server.follower_read(
            TABLE, keys[0], GROUP, as_of=follower.watermark + 1
        )
    # At or below the watermark, historical reads serve.
    assert (
        server.follower_read(TABLE, keys[0], GROUP, as_of=follower.watermark)
        is not None
    )


def test_fresh_replica_never_serves_before_first_tail(rep_db):
    """A just-subscribed replica has no complete tail pass behind it, so
    its staleness is unbounded — it must reject even at time zero."""
    db, keys, _ = rep_db
    tablet_id, server, _ = _the_follower(db)
    other = next(
        s
        for s in db.cluster.servers
        if s.name not in (SOURCE, server.name)
    )
    tablet = db.cluster.master._tablet_by_id(tablet_id)
    other.follow_tablet(tablet, SOURCE, 0)
    with pytest.raises(FollowerLaggingError):
        other.follower_read(TABLE, keys[0], GROUP)
    other.unfollow_tablet(tablet_id)


def test_deletes_replicate_as_tombstones(rep_db):
    db, keys, _ = rep_db
    _, server, _ = _the_follower(db)
    db.delete(TABLE, keys[0], GROUP)
    db.cluster.heartbeat()
    assert server.follower_read(TABLE, keys[0], GROUP) is None
    # The other keys are untouched.
    assert server.follower_read(TABLE, keys[1], GROUP) is not None


def test_owner_compaction_only_lags_the_follower_transiently(rep_db):
    """Compaction retires the log positions the replica's index points
    at; reads may lag until the next tail pass re-points them at the
    sorted segments, but never return wrong data."""
    db, keys, history = rep_db
    _, server, follower = _the_follower(db)
    db.cluster.server_by_name(SOURCE).compact()
    for key in keys:
        try:
            result = server.follower_read(TABLE, key, GROUP)
        except FollowerLaggingError:
            continue  # retired position: fall back to the owner
        assert result == (history[key][0], encode_value(history[key][1]))
    db.cluster.heartbeat()  # tail pass picks up the sorted segments
    for key, (ts, i) in history.items():
        assert server.follower_read(TABLE, key, GROUP) == (ts, encode_value(i))


def test_follower_scan_matches_owner_scan(rep_db):
    db, keys, history = rep_db
    _, server, _ = _the_follower(db)
    rows = server.follower_scan(TABLE, GROUP, keys[0], keys[-1] + b"\xff")
    assert [(k, v) for k, ts, v in rows] == [
        (key, encode_value(history[key][1])) for key in sorted(keys)
    ]


def test_scan_with_no_covering_replica_rejects(schema):
    """A clipped scan landing (via a stale client route) on a server that
    hosts other tablets of the table but no replica covering the range
    must raise, not silently return [] — the client would accept the
    empty slice and drop that tablet's rows from the scan result."""
    db = LogBase(n_nodes=3, config=_rep_config())
    db.create_table(schema, tablets_per_server=2, only_servers=[SOURCE])
    client = db.client(db.cluster.machines[-1])
    k0, k1 = b"000000000001", b"001000000001"
    client.put_raw(TABLE, k0, GROUP, encode_value(0))
    client.put_raw(TABLE, k1, GROUP, encode_value(1))
    db.cluster.heartbeat()
    followers = db.cluster.master.catalog.followers
    t0_id, t1_id = sorted(followers)
    # The rotation spreads the two replicas over the two non-owners.
    assert followers[t0_id] != followers[t1_id]
    t1 = db.cluster.master._tablet_by_id(t1_id)
    s0 = db.cluster.server_by_name(followers[t0_id][0])
    assert t1_id not in s0.followers
    with pytest.raises(FollowerLaggingError):
        s0.follower_scan(TABLE, GROUP, t1.key_range.start, k1 + b"\xff")
    # The server that does cover the range serves the same clipped scan.
    s1 = db.cluster.server_by_name(followers[t1_id][0])
    rows = s1.follower_scan(TABLE, GROUP, t1.key_range.start, k1 + b"\xff")
    assert [(k, v) for k, _, v in rows] == [(k1, encode_value(1))]


def test_scan_ignores_lag_of_non_intersecting_replicas(schema):
    """A lagging replica of an unrelated tablet must not fail a clipped
    scan that a fresh co-hosted replica fully covers."""
    db = LogBase(n_nodes=2, config=_rep_config())
    db.create_table(schema, tablets_per_server=2, only_servers=[SOURCE])
    client = db.client(db.cluster.machines[-1])
    k0, k1 = b"000000000001", b"001000000001"
    client.put_raw(TABLE, k0, GROUP, encode_value(0))
    client.put_raw(TABLE, k1, GROUP, encode_value(1))
    db.cluster.heartbeat()
    followers = db.cluster.master.catalog.followers
    t0_id, t1_id = sorted(followers)
    # One non-owner, so it co-hosts both replicas on one tailer.
    server = db.cluster.server_by_name(followers[t0_id][0])
    assert followers[t1_id][0] == server.name
    server.followers[t1_id].caught_up_at = None  # unrelated replica lags
    rows = server.follower_scan(TABLE, GROUP, k0, k0 + b"\xff")
    assert [(k, v) for k, _, v in rows] == [(k0, encode_value(0))]
    t1 = db.cluster.master._tablet_by_id(t1_id)
    with pytest.raises(FollowerLaggingError):
        server.follower_scan(TABLE, GROUP, t1.key_range.start, k1 + b"\xff")


def test_new_subscription_quarantines_cohosted_replicas(schema):
    """Subscribing a replica resets the shared stream; until the
    re-replay fully drains, co-hosted replicas must stop serving — a
    batch-bounded pass can transiently re-insert a WRITE whose shadowing
    INVALIDATE only lands in a later pass."""
    db = LogBase(n_nodes=2, config=_rep_config())
    db.create_table(schema, tablets_per_server=2, only_servers=[SOURCE])
    client = db.client(db.cluster.machines[-1])
    k0, k1 = b"000000000001", b"001000000001"
    client.put_raw(TABLE, k0, GROUP, encode_value(0))
    client.put_raw(TABLE, k1, GROUP, encode_value(1))
    db.delete(TABLE, k0, GROUP)
    db.cluster.heartbeat()
    followers = db.cluster.master.catalog.followers
    t0_id, t1_id = sorted(followers)
    server = db.cluster.server_by_name(followers[t0_id][0])
    assert server.follower_read(TABLE, k0, GROUP) is None
    # Re-point tablet 1's replica: the shared stream restarts from zero.
    t1 = db.cluster.master._tablet_by_id(t1_id)
    epoch = server.followers[t1_id].epoch
    server.unfollow_tablet(t1_id)
    server.follow_tablet(t1, SOURCE, epoch)
    tailer = server._tailers[SOURCE]
    with pytest.raises(FollowerLaggingError):
        server.follower_read(TABLE, k0, GROUP)
    # One-record passes re-insert k0's WRITE before its INVALIDATE is
    # re-seen; the co-hosted replica must keep rejecting mid-replay.
    drained = False
    while not drained:
        _, drained = tailer.tail(1)
        if not drained:
            with pytest.raises(FollowerLaggingError):
                server.follower_read(TABLE, k0, GROUP)
    # Fully drained: serving resumes and the delete still holds.
    assert server.follower_read(TABLE, k0, GROUP) is None
    assert server.follower_read(TABLE, k1, GROUP) is not None


def test_promotion_tears_the_replica_down(rep_db):
    db, keys, _ = rep_db
    tablet_id, server, _ = _the_follower(db)
    tablet = db.cluster.master._tablet_by_id(tablet_id)
    server.assign_tablet(tablet)
    assert tablet_id not in server.followers
    assert not server._tailers


def test_migration_fences_and_repoints_the_replica(rep_db):
    db, keys, _ = rep_db
    tablet_id, server, _ = _the_follower(db)
    target = next(
        s.name
        for s in db.cluster.servers
        if s.name not in (SOURCE, server.name)
    )
    report = db.cluster.migrate_tablet(tablet_id, target)
    assert report.completed
    # Torn down inside the flip...
    assert all(tablet_id not in s.followers for s in db.cluster.servers)
    # ...and re-placed against the new owner at the next heartbeat.
    db.cluster.heartbeat()
    _, new_server, new_follower = _the_follower(db)
    assert new_follower.owner_name == target
    assert new_server.follower_read(TABLE, keys[0], GROUP) is not None


def test_replica_routed_client_reads_every_ack(rep_db):
    db, keys, history = rep_db
    client = db.client(db.cluster.machines[-1])
    for key, (ts, i) in history.items():
        assert client.get_raw(TABLE, key, GROUP) == encode_value(i)
    served = db.cluster.total_counters().get("replica.reads_served", 0)
    assert served > 0


def test_heartbeat_reports_replica_lag(rep_db):
    db, keys, _ = rep_db
    tick = db.cluster.heartbeat()
    tablet_id, _, _ = _the_follower(db)
    assert tablet_id in tick["replica_lags"]
    assert tick["replica_lags"][tablet_id] >= 0.0


def test_unreachable_owner_log_lags_the_follower(rep_db, monkeypatch):
    """A tail pass whose source replicas are unreachable must not escape
    the heartbeat: the replica counts the error, keeps its watermark,
    stops serving until a pass drains again, and resumes afterwards."""
    db, keys, _ = rep_db
    _, server, follower = _the_follower(db)
    tailer = server._tailers[SOURCE]
    client = db.client(db.cluster.machines[-1])
    client.put_raw(TABLE, keys[0], GROUP, encode_value(999))
    watermark = follower.watermark

    def unreachable(*args, **kwargs):
        raise DataNodeDownError("all replicas of the owner's block are down")

    monkeypatch.setattr(tailer.repo, "scan_segment", unreachable)
    db.cluster.heartbeat()
    assert server.machine.counters.get(REPLICA_TAIL_ERRORS) == 1
    assert follower.watermark == watermark
    with pytest.raises(FollowerLaggingError):
        server.follower_read(TABLE, keys[0], GROUP)
    # Clients fall back to the owner and still read their own write.
    assert client.get_raw(TABLE, keys[0], GROUP) == encode_value(999)
    monkeypatch.undo()
    db.cluster.heartbeat()
    assert follower.watermark > watermark
    assert server.follower_read(TABLE, keys[0], GROUP)[1] == encode_value(999)


def test_gate_off_places_nothing(schema):
    db = LogBase(n_nodes=3, config=LogBaseConfig(segment_size=16 * 1024))
    db.create_table(schema, tablets_per_server=1, only_servers=[SOURCE])
    db.put(TABLE, b"000000000001", {GROUP: {"body": b"v"}})
    tick = db.cluster.heartbeat()
    assert tick["replica_lags"] == {}
    assert not db.cluster.master.catalog.followers
    assert all(not s.followers for s in db.cluster.servers)
