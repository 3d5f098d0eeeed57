"""Host-throughput benchmark of the ThyNVM simulator.

Run from the repository root::

    python3 perfbench/run.py --workload thynvm-micro --seed 1 \
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing but a
first-op timer installed; ``--trace 1`` makes the traced run and prints
the per-layer metrics instead.  The last line of standard output is
one JSON object: ``correct``, ``attempted`` and ``failed`` (points) and
``metrics``.  The line before it holds the exact simulated outcomes and
the ``sim_digest``.  Metric names, units and bounds are in
``BENCHMARK.json``; the workloads are defined in ``measure.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = {
    "ops_per_s": "1/s",
    "wall_s": "s",
    "slowest_point_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def per_layer_units() -> dict:
    """Unit of each per-layer metric, from its name."""
    from layers import LAYERS

    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    units.update({name: "count" for name in (
        "workloads.trace_builds", "workloads.ops", "harness.points",
        "cache.accesses", "cache.flush_calls", "core.port_calls",
        "core.persist_barriers", "core.epochs",
        "core.epochs_forced_by_overflow", "core.pages_promoted",
        "core.pages_demoted", "baselines.port_calls", "mem.submits",
        "mem.bulk_submits", "mem.submit_rejects", "mem.requests_issued",
        "mem.requests_serviced", "mem.nvm_write_blocks", "store.calls",
        "store.msyncs", "queueing.pop_ready_calls",
        "queueing.enqueue_calls", "engine.events",
        "trace.count_mismatches")})
    units.update({
        "workloads.first_op_s": "s",
        "cpu.stall_cycles": "cycles",
        "core.ckpt_stall_fraction": "ratio",
        "mem.reject_ratio": "ratio",
        "store.bytes_written": "bytes",
        "store.msync_s": "s",
        "engine.events_per_op": "events/op",
        "model.cycles": "cycles",
        "model.nvm_write_mb": "MiB",
        "other.self_s": "s",
        "trace.total_self_s": "s",
        "trace.overhead": "ratio",
        "trace.profile_overhead": "ratio",
    })
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # The benchmark measures the default (bulk-run) shadow-paging core.
    os.environ.pop("REPRO_REFERENCE_CORE", None)
    sys.path.insert(0, str(ROOT / "src"))
    import measure

    if args.workload not in measure.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"one of {', '.join(measure.WORKLOADS)}")
    bench = measure.Benchmark(args.workload, args.seed)
    if args.trace:
        values, tracer = measure.trace(bench)
        measure.write_spans(tracer, args.workload, args.seed)
        units = per_layer_units()
    else:
        values = measure.measure(bench, args.seconds)
        units = END_TO_END
    failed = bench.failed
    correct = failed == 0
    print(json.dumps(bench.detail(), sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
