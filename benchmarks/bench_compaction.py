"""Steady-state compaction churn: size-tiered compaction vs a pinned
monolithic reference.

Runs a uniform-update churn workload on a single-server 3-node LogBase:
load a keyspace, then repeat ``rounds`` rounds of random overwrites
followed by ``compact_all()``.  Compaction is size-tiered: the unsorted
tail always compacts, sorted runs only merge when a tier fills.

The reference arm is the retired monolithic compaction, which rewrote
the whole log, sorted runs included, every round.  The simulation is
deterministic, so its figures on this exact workload are pinned in
``MONOLITHIC_REFERENCE`` rather than re-measured; only the two pinned
shapes (the full and the ``--smoke`` run) can be compared.

Reports cumulative compaction bytes read/written per round and the
rewrite amplification (cumulative compaction writes / cumulative ingest),
then measures post-compaction range scans to show the read-path
clustering is preserved.  Appends a run entry to ``BENCH_compaction.json``
at the repo root so the amplification trajectory is tracked across
commits.

Run directly (``python benchmarks/bench_compaction.py [--smoke]``) or via
pytest, which asserts the acceptance bars: >= 40 % fewer cumulative
compaction bytes written than the monolithic reference, strictly lower
rewrite amplification, equal ingest, and post-compaction scans within
5 % of the reference.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import time

from conftest import RECORD_SIZE
from repro.bench.adapters import LogBaseAdapter, make_logbase
from repro.config import LogBaseConfig
from repro.sim.metrics import (
    COMPACTION_BYTES_READ,
    COMPACTION_BYTES_WRITTEN,
    COMPACTION_PLANS,
    LOG_INGEST_BYTES,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
TRAJECTORY = REPO_ROOT / "BENCH_compaction.json"

DEFAULT_RECORDS = 1200
DEFAULT_ROUNDS = 10
SMOKE_RECORDS = 400
SMOKE_ROUNDS = 8  # the acceptance bar requires >= 8 churn rounds
SCANS = 16
RANGE_SIZE = 80  # tuples returned per scan, the Fig. 10 mid-range point

# The monolithic arm, measured at commit 2c04e52 (the last commit with
# the whole-log compaction) on the workload below, keyed by
# (records, rounds).  Per round: cumulative (compaction bytes
# written, compaction bytes read, ingest bytes).
MONOLITHIC_REFERENCE: dict[tuple[int, int], dict] = {
    (SMOKE_RECORDS, SMOKE_ROUNDS): {
        "rounds": [
            (617746, 632146, 632146),
            (1441492, 1460692, 842946),
            (2471238, 2495238, 1053746),
            (3706984, 3735784, 1264546),
            (5148730, 5182330, 1475346),
            (6796476, 6834876, 1686146),
            (8650222, 8693422, 1896946),
            (10709968, 10757968, 2107746),
        ],
        "compaction_plans": 24,
        "live_segments": 1,
        "scan": {"rows": 1280, "simulated_seconds": 15.32430389999992},
    },
    (DEFAULT_RECORDS, DEFAULT_ROUNDS): {
        "rounds": [
            (1853746, 1896946, 1896946),
            (4325492, 4383092, 2529346),
            (7415238, 7487238, 3161746),
            (11122984, 11209384, 3794146),
            (15448730, 15549530, 4426546),
            (20392476, 20507676, 5058946),
            (25954222, 26083822, 5691346),
            (32133968, 32277968, 6323746),
            (38931714, 39090114, 6956146),
            (46347460, 46520260, 7588546),
        ],
        "compaction_plans": 30,
        "live_segments": 1,
        "scan": {"rows": 1280, "simulated_seconds": 15.531193999999926},
    },
}


def build_adapter(records: int) -> LogBaseAdapter:
    """A single-server 3-node LogBase with small segments so each churn
    round spills several unsorted tail segments (the steady-state
    regime)."""
    total = max(records * RECORD_SIZE, 64 * 1024)
    config = LogBaseConfig(
        segment_size=max(total // 8, 16 * 1024), heap_bytes=4 * total
    )
    return make_logbase(
        3,
        records_per_node=records,
        record_size=RECORD_SIZE,
        config=config,
        single_server=True,
    )


def run_churn(
    adapter: LogBaseAdapter, records: int, rounds: int, *, seed: int = 11
) -> dict:
    """Load, then ``rounds`` rounds of uniform overwrites + compaction.

    Returns per-round cumulative compaction I/O and the final rewrite
    amplification (compaction bytes written / ingested bytes).
    """
    rng = random.Random(seed)
    keys = [f"user{i:08d}".encode() for i in range(records)]
    for key in keys:
        adapter.put(0, key, rng.randbytes(RECORD_SIZE))
    updates_per_round = records // 2
    per_round: list[dict] = []
    for _ in range(rounds):
        for _ in range(updates_per_round):
            adapter.put(0, rng.choice(keys), rng.randbytes(RECORD_SIZE))
        adapter.compact_all()
        counters = adapter.cluster.total_counters()
        per_round.append(
            {
                "compaction_bytes_written": counters.get(COMPACTION_BYTES_WRITTEN, 0.0),
                "compaction_bytes_read": counters.get(COMPACTION_BYTES_READ, 0.0),
                "ingest_bytes": counters.get(LOG_INGEST_BYTES, 0.0),
            }
        )
    counters = adapter.cluster.total_counters()
    written = counters.get(COMPACTION_BYTES_WRITTEN, 0.0)
    ingested = counters.get(LOG_INGEST_BYTES, 0.0)
    return {
        "rounds": per_round,
        "compaction_bytes_written": written,
        "compaction_bytes_read": counters.get(COMPACTION_BYTES_READ, 0.0),
        "ingest_bytes": ingested,
        "compaction_plans": counters.get(COMPACTION_PLANS, 0.0),
        "rewrite_amplification": written / ingested if ingested else 0.0,
        "live_segments": sum(
            len(server.log.segments()) for server in adapter.cluster.servers
        ),
    }


def run_scan_phase(
    adapter: LogBaseAdapter, records: int, *, seed: int = 5
) -> dict[str, float]:
    """Cold post-compaction range scans (the Fig. 10 read-path check)."""
    rng = random.Random(seed)
    keys = [f"user{i:08d}".encode() for i in range(records)]
    adapter.drop_caches()
    adapter.reset_clocks()
    simulated = 0.0
    rows = 0
    for _ in range(SCANS):
        start_idx = rng.randrange(max(1, len(keys) - RANGE_SIZE))
        start = keys[start_idx]
        end = keys[min(start_idx + RANGE_SIZE, len(keys) - 1)]
        returned, seconds = adapter.range_scan(0, start, end)
        rows += returned
        simulated += seconds
    return {"rows": rows, "simulated_seconds": simulated}


def monolithic_reference(records: int, rounds: int) -> dict:
    """The pinned monolithic arm, in the shape :func:`run_churn` returns."""
    pinned = MONOLITHIC_REFERENCE[(records, rounds)]
    per_round = [
        {
            "compaction_bytes_written": float(written),
            "compaction_bytes_read": float(read),
            "ingest_bytes": float(ingest),
        }
        for written, read, ingest in pinned["rounds"]
    ]
    last = per_round[-1]
    return {
        "rounds": per_round,
        **last,
        "compaction_plans": float(pinned["compaction_plans"]),
        "rewrite_amplification": last["compaction_bytes_written"]
        / last["ingest_bytes"],
        "live_segments": pinned["live_segments"],
        "scan": dict(pinned["scan"]),
    }


def run_experiment(records: int = DEFAULT_RECORDS, rounds: int = DEFAULT_ROUNDS) -> dict:
    """The churn run, compared with the pinned monolithic reference."""
    results: dict = {
        "records": records,
        "rounds": rounds,
        "scans": SCANS,
        "range_size": RANGE_SIZE,
        "monolithic": monolithic_reference(records, rounds),
    }
    adapter = build_adapter(records)
    arm = run_churn(adapter, records, rounds)
    arm["scan"] = run_scan_phase(adapter, records)
    results["incremental"] = arm
    mono = results["monolithic"]
    inc = results["incremental"]
    results["write_reduction"] = (
        1.0 - inc["compaction_bytes_written"] / mono["compaction_bytes_written"]
        if mono["compaction_bytes_written"]
        else 0.0
    )
    results["scan_delta"] = (
        inc["scan"]["simulated_seconds"] / mono["scan"]["simulated_seconds"] - 1.0
        if mono["scan"]["simulated_seconds"]
        else 0.0
    )
    return results


def format_report(results: dict) -> str:
    lines = [
        f"Compaction churn ({results['records']} records, "
        f"{results['rounds']} rounds, "
        f"{results['scans']} scans x {results['range_size']} tuples)",
        f"{'arm':<13} {'cmp MB wr':>10} {'cmp MB rd':>10} {'amp':>6} "
        f"{'plans':>6} {'segs':>5} {'scan s':>8}",
    ]
    for arm, label in (("monolithic", "monolithic*"), ("incremental", "incremental")):
        a = results[arm]
        lines.append(
            f"{label:<13} {a['compaction_bytes_written'] / 1e6:>10.2f} "
            f"{a['compaction_bytes_read'] / 1e6:>10.2f} "
            f"{a['rewrite_amplification']:>6.2f} {a['compaction_plans']:>6.0f} "
            f"{a['live_segments']:>5d} {a['scan']['simulated_seconds']:>8.4f}"
        )
    lines.append(
        f"compaction write reduction: {results['write_reduction']:.0%}  "
        f"scan delta: {results['scan_delta']:+.1%}"
    )
    lines.append("* pinned reference (MONOLITHIC_REFERENCE), not re-measured")
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
    mono = results["monolithic"]
    inc = results["incremental"]
    if results["write_reduction"] < 0.40:
        failures.append(
            f"expected >= 40% fewer compaction bytes written, got "
            f"{results['write_reduction']:.0%}"
        )
    if inc["rewrite_amplification"] >= mono["rewrite_amplification"]:
        failures.append(
            f"incremental rewrite amplification "
            f"{inc['rewrite_amplification']:.2f} not strictly below "
            f"monolithic {mono['rewrite_amplification']:.2f}"
        )
    if inc["scan"]["rows"] != mono["scan"]["rows"]:
        failures.append(
            f"scan rows diverged: {inc['scan']['rows']} vs {mono['scan']['rows']}"
        )
    if results["scan_delta"] > 0.05:
        failures.append(
            f"post-compaction scans {results['scan_delta']:+.1%} slower than "
            f"monolithic (allowed: +5%)"
        )
    return failures


# -- pytest entry point -----------------------------------------------------------


def test_compaction_churn():
    results = run_experiment(records=SMOKE_RECORDS, rounds=SMOKE_ROUNDS)
    assert results["incremental"]["ingest_bytes"] == results["monolithic"]["ingest_bytes"]
    failures = check_acceptance(results)
    assert not failures, "; ".join(failures)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="small sizes for CI smoke runs"
    )
    args = parser.parse_args()
    records = SMOKE_RECORDS if args.smoke else DEFAULT_RECORDS
    rounds = SMOKE_ROUNDS if args.smoke else DEFAULT_ROUNDS
    results = run_experiment(records=records, rounds=rounds)
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
