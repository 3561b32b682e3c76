"""Recovery-time sweep: hot-first redo on ``WORKERS`` workers vs one.

For each log size the same workload runs twice on fresh single-server
3-node clusters — once with ``recovery_workers=1`` (one lane scans the
tail and brings every tablet up in turn) and once with
``recovery_workers=WORKERS`` (redo partitioned across virtual workers,
tablets brought up hottest-first and served as each completes).  A
checkpoint lands at the quarter mark so both arms reload indexes *and*
redo a long tail, the workload heats one tablet so the hot-first
ordering has a signal, then the server is crashed and restarted through
recovery.

Reports recovery seconds per arm (simulated worker-fleet makespan), the
time until the *hot* tablet serves again on the parallel arm, and
cross-arm parity of the recovery reports and index state (the worker
count must not change the rebuilt state).  Appends a run entry to
``BENCH_recovery.json`` at the repo root.

Run directly (``python benchmarks/bench_recovery.py [--smoke]``) or via
pytest, which asserts the acceptance bars: the parallel arm beats one
worker at every size, the hot tablet serves measurably before full
recovery completes, and both arms apply identical record counts and
index contents.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import time

from conftest import RECORD_SIZE
from repro.config import LogBaseConfig
from repro.core.database import LogBase
from repro.core.schema import ColumnGroup, TableSchema
from repro.errors import TabletNotFound

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
TRAJECTORY = REPO_ROOT / "BENCH_recovery.json"

TABLE = "recov"
GROUP = "g"
SCHEMA = TableSchema(TABLE, "id", (ColumnGroup(GROUP, ("v",)),))
SERVER = "ts-node-0"
KEY_WIDTH = 8
KEY_DOMAIN = 100_000
TABLETS = 12
WORKERS = 4

SIZES = (512, 1024, 2048)
SMOKE_SIZES = (256,)
SEED = 7


def run_workload(db: LogBase, ops: int) -> tuple[list[bytes], bytes]:
    """The deterministic load both arms replay: writes with a checkpoint
    at the quarter mark (long redo tail), then reads that heat one key's
    tablet.  Returns (keys written, hot key)."""
    rng = random.Random(SEED)
    keys = [
        str(v).zfill(KEY_WIDTH).encode()
        for v in rng.sample(range(KEY_DOMAIN), ops)
    ]
    client = db.client(db.cluster.machines[-1])
    for i, key in enumerate(keys):
        client.put_raw(TABLE, key, GROUP, b"x" * RECORD_SIZE)
        if i == ops // 4:
            db.cluster.checkpoints[SERVER].write_checkpoint()
    hot_key = keys[0]
    # Enough reads that the hot tablet's heat clears the write-count
    # variance across tablets by a wide margin.
    for _ in range(max(64, ops // 8)):
        client.get_raw(TABLE, hot_key, GROUP)
    db.cluster.heartbeat()  # snapshot heat into the master-side view
    return keys, hot_key


def index_signature(db: LogBase, keys: list[bytes]) -> set:
    """(key, timestamp) of every index entry — the recovery-rebuilt state
    the two arms must agree on (pointers differ by construction)."""
    server = db.cluster.server_by_name(SERVER)
    signature = set()
    for key in keys:
        try:
            index = server.index_for(TABLE, key, GROUP)
        except TabletNotFound:
            continue
        for entry in index.versions(key):
            signature.add((key, entry.timestamp))
    return signature


def run_arm(ops: int, *, workers: int) -> tuple[dict, set]:
    """One fresh-cluster crash/recover arm.  Only ``recovery_workers``
    differs between arms — shared knobs stay at seed defaults so the
    cost models are identical and the seconds are comparable."""
    config = LogBaseConfig(segment_size=32 * 1024, recovery_workers=workers)
    db = LogBase(n_nodes=3, config=config)
    db.create_table(
        SCHEMA,
        tablets_per_server=TABLETS,
        key_domain=KEY_DOMAIN,
        key_width=KEY_WIDTH,
        only_servers=[SERVER],
    )
    keys, hot_key = run_workload(db, ops)
    hot_tablet = str(db.cluster.master.locate(TABLE, hot_key)[1].tablet_id)
    db.cluster.kill_node(SERVER)
    report = db.cluster.restart_server(SERVER)
    arm = {
        "workers": workers,
        "ops": ops,
        "recovery_seconds": report.seconds,
        "first_hot_ready_seconds": report.tablet_ready[hot_tablet],
        "hot_tablet": hot_tablet,
        "records_scanned": report.records_scanned,
        "writes_applied": report.writes_applied,
        "deletes_applied": report.deletes_applied,
        "uncommitted_ignored": report.uncommitted_ignored,
        "used_checkpoint": report.used_checkpoint,
        "tablets_recovered": report.tablets_recovered,
    }
    return arm, index_signature(db, keys)


def run_experiment(sizes=SIZES) -> dict:
    results: dict = {
        "record_size": RECORD_SIZE,
        "tablets": TABLETS,
        "workers": WORKERS,
        "curve": [],
    }
    for ops in sizes:
        single, single_signature = run_arm(ops, workers=1)
        parallel, par_signature = run_arm(ops, workers=WORKERS)
        point = {
            "ops": ops,
            "one_worker": single,
            "parallel": parallel,
            "speedup": (
                single["recovery_seconds"] / parallel["recovery_seconds"]
                if parallel["recovery_seconds"]
                else 0.0
            ),
            "index_state_identical": single_signature == par_signature,
        }
        results["curve"].append(point)
    return results


def format_report(results: dict) -> str:
    lines = [
        f"Recovery sweep ({results['tablets']} tablets, "
        f"{results['workers']} workers, {results['record_size']} B records)",
        f"{'ops':>6} {'1-wkr s':>9} {'par s':>9} {'speedup':>8} "
        f"{'first-hot s':>12} {'state':>6}",
    ]
    for point in results["curve"]:
        lines.append(
            f"{point['ops']:>6d} "
            f"{point['one_worker']['recovery_seconds']:>9.4f} "
            f"{point['parallel']['recovery_seconds']:>9.4f} "
            f"{point['speedup']:>7.1f}x "
            f"{point['parallel']['first_hot_ready_seconds']:>12.4f} "
            f"{'same' if point['index_state_identical'] else 'DIFF':>6}"
        )
    return "\n".join(lines)


def append_trajectory(results: dict) -> None:
    history = []
    if TRAJECTORY.exists():
        history = json.loads(TRAJECTORY.read_text())
    history.append({"timestamp": time.time(), **results})
    TRAJECTORY.write_text(json.dumps(history, indent=2) + "\n")


def check_acceptance(results: dict) -> list[str]:
    """The acceptance bars; returns a list of violations (empty = pass)."""
    failures = []
    for point in results["curve"]:
        ops = point["ops"]
        single, parallel = point["one_worker"], point["parallel"]
        if parallel["recovery_seconds"] >= single["recovery_seconds"]:
            failures.append(
                f"ops={ops}: parallel {parallel['recovery_seconds']:.4f}s did "
                f"not beat one worker {single['recovery_seconds']:.4f}s"
            )
        if (
            parallel["first_hot_ready_seconds"]
            > 0.9 * parallel["recovery_seconds"]
        ):
            failures.append(
                f"ops={ops}: hot tablet ready at "
                f"{parallel['first_hot_ready_seconds']:.4f}s, not measurably "
                f"before full recovery at {parallel['recovery_seconds']:.4f}s"
            )
        for field in (
            "writes_applied",
            "deletes_applied",
            "uncommitted_ignored",
            "records_scanned",
        ):
            if single[field] != parallel[field]:
                failures.append(
                    f"ops={ops}: {field} diverged "
                    f"({single[field]} vs {parallel[field]})"
                )
        if not point["index_state_identical"]:
            failures.append(f"ops={ops}: recovered index state diverged")
    return failures


# -- pytest entry point -----------------------------------------------------------


def test_recovery_sweep():
    results = run_experiment(sizes=SMOKE_SIZES)
    failures = check_acceptance(results)
    assert not failures, "; ".join(failures)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="small sizes for CI smoke runs"
    )
    args = parser.parse_args()
    sizes = SMOKE_SIZES if args.smoke else SIZES
    results = run_experiment(sizes=sizes)
    print(format_report(results))
    if not args.smoke:  # smoke runs (CI) must not pollute the trajectory
        append_trajectory(results)
        print(f"\ntrajectory appended to {TRAJECTORY}")
    failures = check_acceptance(results)
    if failures:
        raise SystemExit("ACCEPTANCE FAILED: " + "; ".join(failures))
    print("acceptance bars met")


if __name__ == "__main__":
    main()
