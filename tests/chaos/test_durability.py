"""End-to-end chaos runs: every schedule must uphold the durability
contract, and must actually disrupt the cluster while doing so."""

import pytest

from repro.chaos import SCHEDULES, run_chaos
from repro.config import LogBaseConfig


def test_covers_required_failure_modes():
    # The suite must keep covering the acceptance scenarios: datanode
    # death mid-append, server crash at commit, crashes during checkpoint
    # and compaction, a network partition that heals, and a kill ->
    # revive -> re-adopt cycle.
    assert len(SCHEDULES) >= 5
    for name in (
        "datanode-mid-append",
        "server-crash-at-commit",
        "crash-during-checkpoint",
        "crash-during-compaction",
        "partition-heal",
        "kill-revive-readopt",
    ):
        assert name in SCHEDULES


@pytest.mark.parametrize("scenario", sorted(SCHEDULES))
@pytest.mark.parametrize("seed", [1, 2])
def test_schedule_upholds_durability_contract(scenario, seed):
    report = run_chaos(scenario, seed=seed, ops=40)
    assert report.passed, report.violations
    # The run did real work and the schedule really interfered.
    assert report.acked > 0
    assert report.keys_checked > 0
    disruption = (
        report.faults_fired
        + report.rereplicated
        + len(report.expired_servers)
        + len(report.restarted_servers)
    )
    assert disruption > 0, f"{scenario} caused no disruption"


@pytest.mark.parametrize(
    ("scenario", "seed"),
    [
        ("partition-heal", 1),
        ("partition-heal", 2),
        ("partition-heal", 3),
        ("kill-revive-readopt", 1),
    ],
)
def test_schedule_with_read_replicas_keeps_the_heartbeat_alive(scenario, seed):
    """Followers tail their owners' logs on every heartbeat.  While a
    partition or a dead node leaves an owner's log unreachable, the
    follower must lag instead of raising out of the heartbeat, and a
    lagging follower must not serve reads the owner has since acked."""
    config = LogBaseConfig.with_fault_tolerance(
        segment_size=64 * 1024, read_replicas=True, live_migration=True
    )
    report = run_chaos(scenario, seed=seed, config=config)
    assert report.passed, report.violations
    assert report.acked > 0


def test_unknown_scenario_raises():
    with pytest.raises(KeyError):
        run_chaos("no-such-scenario")


def test_small_cluster_rejected():
    with pytest.raises(ValueError):
        run_chaos("partition-heal", n_nodes=3)


def test_report_dict_is_json_shaped():
    report = run_chaos("datanode-mid-append", seed=1, ops=20)
    data = report.to_dict()
    assert data["scenario"] == "datanode-mid-append"
    assert data["passed"] is True
    assert isinstance(data["violations"], list)
    assert data["faults_fired"] >= 1  # the mid-append kill fired
