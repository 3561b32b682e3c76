"""Two-clock LogBase benchmark: one workload per invocation.

Usage (from the repository root):

    python3 perfbench/run.py --workload ycsb-update --seed 1 --seconds 3 --trace 0

``--trace 0`` reports the end-to-end metrics of untraced runs of the whole
workload (set-up, measured phase, recovery, compaction).  ``--trace 1``
pairs an untraced measured phase with a traced run of the whole workload
and reports per-layer metrics (see perfbench/NOTES.md).  Runs repeat
while another one still fits in ``--seconds`` of wall time, at least
once; simulated figures must come out bit-identical on every repeat,
wall figures (scaled to a reference speed, see perfbench/speed.py) are
medians over the repeats.  Progress and the per-phase wall-time tables
go to stderr; the last line of stdout is one JSON object.  A wrong
answer exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Setup is timed at least this many times per run; its metric is the median.
MIN_SETUPS = 3

END_TO_END_UNITS = {
    "wall_ops_per_s": "1/s",
    "sim_ops_per_s": "1/s",
    "sim_update_p50_ms": "ms",
    "sim_update_p99_ms": "ms",
    "sim_read_p50_ms": "ms",
    "sim_read_p99_ms": "ms",
    "ok_op_frac": "ratio",
    "sim_recovery_s": "s",
    "wall_recovery_s": "s",
    "sim_compaction_s": "s",
    "wall_compaction_s": "s",
    "space_amp": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _layer_metrics(tracer, rep, untraced_ops_per_s, traced_ops_per_s):
    from layers import CRC_RECORD_CALLERS, CRC_VERIFY_CALLER

    metrics = {}
    for layer, (calls, wall_ns, sim_s) in tracer.layer_totals().items():
        metrics[f"{layer}.calls"] = (float(calls), "count")
        metrics[f"{layer}.wall_self_ms"] = (wall_ns / 1e6, "ms")
        metrics[f"{layer}.sim_self_ms"] = (sim_s * 1e3, "ms")
    measured = rep.measured
    crc_bytes, _ = tracer.crc("measured")
    verify_bytes, verify_ns = tracer.crc("measured", (CRC_VERIFY_CALLER,))
    _, record_ns = tracer.crc("measured", CRC_RECORD_CALLERS)
    phase_ns = tracer.phase_wall_ns["measured"] or 1
    encodes = tracer.calls("measured", "LogRecord.encode")
    metrics["crc.bytes_per_user_byte"] = (
        crc_bytes / max(1, measured.user_bytes_written), "B/B"
    )
    metrics["crc.verify_wall_pct"] = (100.0 * verify_ns / phase_ns, "%")
    metrics["crc.record_wall_pct"] = (100.0 * record_ns / phase_ns, "%")
    metrics["record.encodes_per_write"] = (encodes / max(1, measured.writes), "1/op")
    metrics["datanode.verify_bytes_per_read"] = (
        verify_bytes / max(1, measured.reads), "B/op"
    )
    units = {
        "read_cache.hit_ratio": "ratio",
        "block_cache.hit_ratio": "ratio",
        "dfs.round_trips_per_update": "1/op",
        "disk.bytes_read_per_read": "B/op",
        "disk.bytes_written_per_user_byte": "B/B",
        "txn.abort_ratio": "ratio",
        "recovery.records_redone": "count",
        "compaction.bytes_written_per_user_byte": "B/B",
    }
    for name, unit in units.items():
        metrics[name] = (rep.ratios[name], unit)
    metrics["trace.overhead_pct"] = (
        100.0 * (untraced_ops_per_s / traced_ops_per_s - 1.0), "%"
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no LogBase sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    from layers import LayerTracer

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    started = time.perf_counter()
    untraced, traced, tracers = [], [], []
    peak_rss_mb = None
    try:
        while True:
            rep_started = time.perf_counter()
            if args.trace:
                # The untraced twin only needs its measured phase: it is the
                # baseline of trace.overhead_pct.
                untraced.append(workloads.run_rep(args.workload, args.seed, full=False))
                tracers.append(LayerTracer())
                traced.append(workloads.run_rep(args.workload, args.seed, tracers[-1]))
            else:
                untraced.append(workloads.run_rep(args.workload, args.seed))
            if peak_rss_mb is None:
                # The first run's peak: later repeats raise the process
                # peak by allocator fragmentation, not by the workload.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            now = time.perf_counter()
            # Stop unless one more repeat, as long as the last, still fits.
            if now + (now - rep_started) - started > args.seconds:
                break
        reps = untraced + traced
        setups = [rep.setup_s for rep in reps]
        while len(setups) < MIN_SETUPS:
            setups.append(workloads.setup_only(args.workload, args.seed))
    except workloads.CheckFailed as exc:
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        return 1

    reference = (traced or untraced)[0]
    for rep in reps:
        for figures, expected in ((rep.sim, reference.sim), (rep.ratios, reference.ratios)):
            differing = [k for k in figures if figures[k] != expected[k]]
            if differing:
                print(
                    "perfbench: simulated figures differ between repeats of one "
                    f"seed: {differing}",
                    file=sys.stderr,
                )
                return 1

    attempted = sum(rep.measured.attempted for rep in reps)
    failed = sum(rep.measured.failed for rep in reps)
    scales = [rep.speed_scale for rep in reps]
    print(
        f"perfbench: {args.workload} seed={args.seed} untraced runs={len(untraced)} "
        f"traced runs={len(traced)} samples update={reference.samples['update']} "
        f"read={reference.samples['read']} wall={time.perf_counter() - started:.1f}s "
        f"speed scale={min(scales):.3f}..{max(scales):.3f}",
        file=sys.stderr,
    )
    untraced_ops = statistics.median([rep.wall["wall_ops_per_s"] for rep in untraced])
    if args.trace:
        middle = len(traced) // 2
        tracer = tracers[middle]
        traced_ops = statistics.median([rep.wall["wall_ops_per_s"] for rep in traced])
        values = _layer_metrics(tracer, traced[middle], untraced_ops, traced_ops)
        for phase in ("measured", "recovery", "compaction"):
            print(f"\n{args.workload} {phase} phase, traced wall "
                  f"{tracer.phase_wall_ns[phase] / 1e6:.0f} ms:", file=sys.stderr)
            print("\n".join(tracer.wall_table(phase)), file=sys.stderr)
    else:
        values = {name: (value, END_TO_END_UNITS[name]) for name, value in reference.sim.items()}
        for name in ("wall_recovery_s", "wall_compaction_s"):
            values[name] = (statistics.median([rep.wall[name] for rep in untraced]), "s")
        values["wall_ops_per_s"] = (untraced_ops, "1/s")
        values["ok_op_frac"] = (1.0 - failed / attempted, "ratio")
        values["setup_s"] = (statistics.median(setups), "s")
        values["peak_rss_mb"] = (peak_rss_mb, "MB")
        values = {name: values[name] for name in END_TO_END_UNITS}
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in values.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
