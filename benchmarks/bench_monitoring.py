"""Monitoring-plane benchmark: detection latency and enabled-gate overhead.

Two halves, both pass/fail bars reported like a benchmark:

* **Detection oracle** (``repro.chaos.detection``): every seeded fault
  schedule across the gray, migration, recovery, and replica chaos
  families must fire its matching alert within the family's simulated-
  time budget, while the clean twin of each run — same seeded cluster,
  same config, no fault — must raise zero alerts.  The report shows the
  measured detection latency per (family, scenario).
* **Overhead bound**: a monitored cluster at the default production
  scrape cadence (``monitor_scrape_interval``) must cost less than
  :data:`OVERHEAD_BOUND` extra wall-clock time on a write/read workload
  versus the identical cluster with the gate off.  Each timing pair
  builds one cluster per arm and interleaves them op by op, alternating
  which arm goes first; the pair's ratio is its on/off wall-time sum,
  and the bar is on the median ratio over the pairs.  Both arms of a
  pair run within a fraction of a millisecond of each other, so the
  host's speed swings hit them alike instead of landing on one arm.

One row per oracle entry and a trajectory entry appended to
``BENCH_monitoring.json`` at the repo root.  Run directly
(``python benchmarks/bench_monitoring.py [--smoke]``) or via pytest.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import random
import statistics
import time

from repro.chaos.detection import (
    DETECTION_BUDGETS,
    EXPECTED_ALERTS,
    detection_matrix,
)
from repro.chaos.runner import GROUP, KEY_DOMAIN, KEY_WIDTH, SCHEMA, TABLE
from repro.config import LogBaseConfig
from repro.core.database import LogBase

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
TRAJECTORY = REPO_ROOT / "BENCH_monitoring.json"

#: maximum tolerated wall-clock overhead of the enabled gate.
OVERHEAD_BOUND = 0.05

#: overhead workload size / interleaved on-off timing pairs.
OVERHEAD_OPS = 400
OVERHEAD_PAIRS = 31
SMOKE_OVERHEAD_PAIRS = 21

#: smoke subset: one scenario per family, covering every alert shape
#: (gauge threshold, counter delta, SLO burn / staleness).
SMOKE_SCENARIOS = (
    ("gray", "limp-datanode-mid-scan"),
    ("migration", "partition-old-owner"),
    ("recovery", "crash-during-recovery"),
    ("replica", "stale-follower-reads"),
)


def _overhead_workload(monitoring: bool, ops: int, seed: int):
    """The standard write/read loop with the monitoring gate on or off
    (everything else identical), as a generator that yields after each
    operation so two arms can be timed in lock step."""
    config = LogBaseConfig.with_fault_tolerance(
        segment_size=64 * 1024, monitoring=monitoring
    )
    db = LogBase(n_nodes=4, config=config)
    db.create_table(SCHEMA, tablets_per_server=2)
    rng = random.Random(seed)
    keys = [
        str(v).zfill(KEY_WIDTH).encode()
        for v in rng.sample(range(KEY_DOMAIN), ops)
    ]
    client = db.client(db.cluster.machines[-1])
    yield  # set-up done; the timed operations follow
    for i, key in enumerate(keys):
        client.put_raw(TABLE, key, GROUP, b"v" * 64)
        if i % 3 == 0:
            client.get_raw(TABLE, keys[rng.randrange(i + 1)], GROUP)
        db.cluster.heartbeat()
        yield
    if db.cluster.monitor is not None:
        db.cluster.monitor.close()


def _timed_pair(ops: int, seed: int) -> tuple[float, float]:
    """Wall seconds of the off and on arms, run op by op in lock step."""
    arms = {
        False: _overhead_workload(False, ops, seed),
        True: _overhead_workload(True, ops, seed),
    }
    for arm in arms.values():
        next(arm)
    wall = {False: 0.0, True: 0.0}
    clock = time.perf_counter
    gc.collect()
    for i in range(ops):
        # Alternate which arm goes first so neither always runs on a
        # warmer cache than its partner.
        for monitoring in (False, True) if i % 2 == 0 else (True, False):
            start = clock()
            next(arms[monitoring])
            wall[monitoring] += clock() - start
    for arm in arms.values():
        next(arm, None)  # closes the monitor
    return wall[False], wall[True]


def measure_overhead(
    ops: int = OVERHEAD_OPS,
    pairs: int = OVERHEAD_PAIRS,
    seed: int = 1,
) -> dict:
    """Interleaved on/off pairs; the overhead is the median paired ratio."""
    timed = [_timed_pair(ops, seed) for _ in range(pairs)]
    offs = [off for off, _ in timed]
    ons = [on for _, on in timed]
    ratios = [on / off for off, on in timed]
    return {
        "ops": ops,
        "pairs": pairs,
        "wall_off_seconds": statistics.median(offs),
        "wall_on_seconds": statistics.median(ons),
        "paired_ratios": ratios,
        "overhead": statistics.median(ratios) - 1.0,
        "bound": OVERHEAD_BOUND,
    }


def run_experiment(seed: int = 1, *, smoke: bool = False) -> dict:
    """Detection matrix (full or smoke subset) plus the overhead bound."""
    scenarios = SMOKE_SCENARIOS if smoke else tuple(EXPECTED_ALERTS)
    detections = detection_matrix(seed, scenarios=scenarios)
    overhead = measure_overhead(
        pairs=SMOKE_OVERHEAD_PAIRS if smoke else OVERHEAD_PAIRS,
        seed=seed,
    )
    rows = [d.to_dict() for d in detections]
    return {
        "seed": seed,
        "smoke": smoke,
        "budgets": dict(DETECTION_BUDGETS),
        "detections": rows,
        "overhead": overhead,
        "passed": sum(1 for r in rows if r["passed"]),
        "failed": sum(1 for r in rows if not r["passed"]),
    }


def check(results: dict) -> list[str]:
    """Every bar this benchmark holds; empty means green."""
    problems = []
    for row in results["detections"]:
        tag = f"{row['family']}/{row['scenario']}"
        if not row["run_passed"]:
            problems.append(f"{tag}: underlying chaos contract violated")
        if row["detection_latency"] is None:
            problems.append(
                f"{tag}: expected alert {row['expected_alert']!r} never "
                f"fired (fired: {row['fired']})"
            )
        elif row["detection_latency"] > row["budget"]:
            problems.append(
                f"{tag}: detection took {row['detection_latency']:.4f}s "
                f"simulated, budget {row['budget']:.2f}s"
            )
        if row["clean_alerts"]:
            problems.append(
                f"{tag}: clean twin raised "
                f"{[a['alert'] for a in row['clean_alerts']]}"
            )
    overhead = results["overhead"]
    if overhead["overhead"] >= overhead["bound"]:
        problems.append(
            f"monitoring overhead {overhead['overhead']:.1%} >= "
            f"{overhead['bound']:.0%} bound "
            f"({overhead['wall_off_seconds']:.3f}s off -> "
            f"{overhead['wall_on_seconds']:.3f}s on)"
        )
    return problems


def format_report(results: dict) -> str:
    lines = [
        f"Monitoring plane ({len(results['detections'])} fault schedules, "
        f"seed {results['seed']})",
        f"{'family':<10} {'scenario':<30} {'expected alert':<20} "
        f"{'latency':>8} {'budget':>7} {'clean':>5} {'ok':>3}",
    ]
    for row in results["detections"]:
        latency = (
            f"{row['detection_latency']:.4f}"
            if row["detection_latency"] is not None
            else "never"
        )
        lines.append(
            f"{row['family']:<10} {row['scenario']:<30} "
            f"{row['expected_alert']:<20} {latency:>8} "
            f"{row['budget']:>7.2f} {len(row['clean_alerts']):>5} "
            f"{'y' if row['passed'] else 'N':>3}"
        )
    overhead = results["overhead"]
    lines.append(
        f"enabled-gate overhead: {overhead['overhead']:.2%} "
        f"(bound {overhead['bound']:.0%}; "
        f"{overhead['wall_off_seconds'] * 1000:.1f}ms off -> "
        f"{overhead['wall_on_seconds'] * 1000:.1f}ms on, "
        f"{overhead['ops']} ops, median of {overhead['pairs']} paired ratios)"
    )
    problems = check(results)
    lines.append(
        "all bars green"
        if not problems
        else "BARS FAILED:\n  " + "\n  ".join(problems)
    )
    return "\n".join(lines)


def append_trajectory(results: dict) -> None:
    history = []
    if TRAJECTORY.exists():
        history = json.loads(TRAJECTORY.read_text())
    history.append(
        {
            "timestamp": time.time(),
            "seed": results["seed"],
            "smoke": results["smoke"],
            "passed": results["passed"],
            "failed": results["failed"],
            "overhead": results["overhead"],
            "detections": [
                {
                    "family": r["family"],
                    "scenario": r["scenario"],
                    "expected_alert": r["expected_alert"],
                    "detection_latency": r["detection_latency"],
                    "passed": r["passed"],
                }
                for r in results["detections"]
            ],
            "problems": check(results),
        }
    )
    TRAJECTORY.write_text(json.dumps(history, indent=2) + "\n")


# -- pytest entry point -----------------------------------------------------


def test_monitoring_detection_and_overhead():
    results = run_experiment(smoke=True)
    problems = check(results)
    assert not problems, "\n".join(problems)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one scenario per family + fewer overhead pairs",
    )
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    results = run_experiment(seed=args.seed, smoke=args.smoke)
    print(format_report(results))
    append_trajectory(results)
    print(f"\ntrajectory appended to {TRAJECTORY}")
    if check(results):
        raise SystemExit(1)


if __name__ == "__main__":
    main()
