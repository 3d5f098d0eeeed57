"""Workloads, point runner, correctness checks and metrics.

One *point* is one system running one trace, through the public
harness API (``run_points([point], jobs=1, cache_dir=None)``).  One
*pass* runs a workload's points once, in declared order.  An untraced
run repeats passes until its time is up and reports medians over them;
a traced run makes one plain pass, one counted pass and one profiled
pass (see :mod:`layers`).

The simulator is deterministic: every pass of a workload must produce
the same simulated statistics, so the sha256 of their canonical
summaries (``sim_digest``) is compared across passes and host time is
the only noisy quantity.
"""

from __future__ import annotations

import cProfile
import hashlib
import itertools
import json
import os
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.cpu.core import Core
from repro.cpu.trace import OpKind
from repro.harness import RunPoint, run_points
from repro.harness.experiments import MICRO_FOOTPRINT, experiment_config
from repro.workloads.tracespec import (TraceSpec, kv_spec, micro_spec,
                                       ycsb_spec)

from layers import (CROSS_CHECKS, LAYERS, LayerMap, Tracer, attribute_profile,
                    profile_calls)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench-work"     # per-point mmap store images
OUT_DIR = ROOT / ".perfbench-out"       # span records of traced runs

DEFAULT_SEED = 1
HELD_OUT_SEED = 2
MAX_EVENTS = 200_000_000
MIB = 1 << 20


@dataclass(frozen=True)
class Sizes:
    """Trace lengths of the four workloads (tests shrink them)."""

    micro_ops: int = 12000      # per micro pattern
    shadow_ops: int = 3000
    kv_ops: int = 700           # traced transactions per request size
    ycsb_txns: int = 3000


WORKLOADS = ("thynvm-micro", "shadow-random", "kv-fig9", "ycsb-durable")
KV_SIZES = (64, 1024)
KV_SYSTEMS = ("ideal_dram", "journal", "shadow", "thynvm")
YCSB_SYSTEMS = ("thynvm", "journal")
YCSB_PERSIST_EVERY = 16
YCSB_MSYNC = "commit"


def make_points(workload: str, seed: int, tag: str,
                sizes: Sizes = Sizes()) -> List[RunPoint]:
    """The declared point list of one workload.

    ``tag`` makes the mmap store directories of ``ycsb-durable`` unique
    per pass, so every point starts from a fresh image.
    """
    config = experiment_config()
    if workload == "thynvm-micro":
        return [RunPoint("thynvm", micro_spec(pattern, MICRO_FOOTPRINT,
                                              sizes.micro_ops, seed=seed),
                         config, label=f"{pattern}/thynvm")
                for pattern in ("random", "streaming", "sliding")]
    if workload == "shadow-random":
        return [RunPoint("shadow", micro_spec("random", MICRO_FOOTPRINT,
                                              sizes.shadow_ops, seed=seed),
                         config, label="random/shadow")]
    if workload == "kv-fig9":
        points = []
        for size in KV_SIZES:
            # The preload/key-space rule of harness.experiments.run_kvstore;
            # the four systems share one trace spec per size.
            preload = min(2500, (3 * MIB) // (size + 48))
            trace = kv_spec(structure="rbtree", request_size=size,
                            num_ops=sizes.kv_ops, preload=preload,
                            key_space=16384, seed=seed)
            points.extend(RunPoint(system, trace, config,
                                   label=f"rbtree/{size}B/{system}")
                          for system in KV_SYSTEMS)
        return points
    if workload == "ycsb-durable":
        trace = ycsb_spec("A", structure="hashtable",
                          num_ops=sizes.ycsb_txns,
                          persist_every=YCSB_PERSIST_EVERY, seed=seed)
        return [RunPoint(system, trace,
                         experiment_config(
                             track_data=True, store_mode="mmap",
                             store_dir=str(WORK_DIR / f"{tag}-{system}"),
                             msync_policy=YCSB_MSYNC),
                         label=f"ycsb-A/{system}")
                for system in YCSB_SYSTEMS]
    raise ValueError(f"unknown workload {workload!r}; one of {WORKLOADS}")


# --- the CPU-boundary probe --------------------------------------------------

@dataclass(frozen=True)
class TraceCounts:
    """What a trace yields, counted outside the simulator."""

    ops: int
    instructions: int
    transactions: int


def trace_counts(spec: TraceSpec) -> TraceCounts:
    """Count one trace's ops and the CPU work they imply."""
    ops = instructions = transactions = 0
    for op in spec.build():
        ops += 1
        if op.kind is OpKind.TXN:
            transactions += 1
        elif op.kind is OpKind.WORK:
            instructions += op.size
        else:
            instructions += 1
    return TraceCounts(ops, instructions, transactions)


class CpuFeed:
    """First-op timer and op counter on ``Core.run_trace``.

    The wrapper pulls the trace's first op before handing the stream to
    the core, which timestamps the end of set-up, then feeds the rest
    through ``map``/``zip`` with an ``itertools.count``: C-level
    iterators, so no Python code runs per op.  This is the only
    instrument an untraced run installs.
    """

    def __init__(self) -> None:
        self._original = None
        self.reset()

    def reset(self) -> None:
        self.first_op_at: Optional[float] = None
        self.first_op_s = 0.0
        self._counters: List[itertools.count] = []

    def ops_pulled(self) -> int:
        """Ops the cores pulled since :meth:`reset` (call once)."""
        return sum(next(counter) for counter in self._counters)

    def __enter__(self) -> "CpuFeed":
        original = self._original = Core.__dict__["run_trace"]
        feed = self

        def run_trace(core, trace, on_finish):
            ops = iter(trace)
            start = time.perf_counter()
            first = next(ops, None)
            now = time.perf_counter()
            if feed.first_op_at is None:
                feed.first_op_at = now
            feed.first_op_s += now - start
            counter = itertools.count()
            feed._counters.append(counter)
            stream = ops if first is None else itertools.chain((first,), ops)
            return original(core, map(itemgetter(0), zip(stream, counter)),
                            on_finish)

        Core.run_trace = run_trace
        return self

    def __exit__(self, *exc) -> None:
        Core.run_trace = self._original


# --- points and passes -------------------------------------------------------

@dataclass
class PointRun:
    """Host timings and the checked outcome of one point."""

    label: str
    system: str
    error: Optional[str] = None
    wall_s: float = 0.0
    setup_s: float = 0.0
    first_op_s: float = 0.0
    ops: int = 0
    stats: Optional[object] = None      # StatsCollector

    @property
    def sim_s(self) -> float:
        return self.wall_s - self.setup_s


def check_point(result, expected: TraceCounts, pulled: int) -> Optional[str]:
    """Why a finished point is wrong, or None."""
    stats = result.stats
    if result.cached:
        return "result was served from a cache"
    if stats.cycles <= 0:
        return "run did not drain"
    breakdown = stats.nvm_write_breakdown()
    if sum(breakdown.values()) != stats.nvm_write_blocks:
        return (f"nvm_write_breakdown sums to {sum(breakdown.values())}, "
                f"not nvm_write_blocks={stats.nvm_write_blocks}")
    if pulled != expected.ops:
        return f"CPU consumed {pulled} ops, the trace yielded {expected.ops}"
    if (stats.instructions, stats.transactions) != (
            expected.instructions, expected.transactions):
        return (f"CPU retired {stats.instructions} instructions and "
                f"{stats.transactions} txns, the trace holds "
                f"{expected.instructions} and {expected.transactions}")
    return None


def run_point(point: RunPoint, expected: TraceCounts, feed: CpuFeed,
              tracer: Optional[Tracer] = None,
              profiler: Optional[cProfile.Profile] = None,
              max_events: int = MAX_EVENTS) -> PointRun:
    """Run and check one point; a raising or wedged point is recorded
    as failed instead of aborting the run."""
    run = PointRun(label=point.describe(), system=point.system)
    config = point.config
    store_dir = config.store_dir if config.store_mode == "mmap" else ""
    feed.reset()
    if tracer is not None:
        tracer.label = run.label
    started = time.perf_counter()
    try:
        if store_dir and os.path.exists(store_dir):
            raise RuntimeError(f"store directory {store_dir} is not fresh")
        if profiler is not None:
            profiler.enable()
        try:
            [result] = run_points([point], jobs=1, cache_dir=None,
                                  max_events=max_events)
        finally:
            if profiler is not None:
                profiler.disable()
        run.wall_s = time.perf_counter() - started
        run.stats = result.stats
        run.ops = feed.ops_pulled()
        run.error = check_point(result, expected, run.ops)
    except Exception as exc:  # a failed point must not end the run
        run.wall_s = time.perf_counter() - started
        run.error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    finally:
        if store_dir:
            shutil.rmtree(store_dir, ignore_errors=True)
        if tracer is not None:
            tracer.harvest()
            tracer.spans.append(("harness.point", run.label, started,
                                 started + run.wall_s))
    run.setup_s = (feed.first_op_at - started
                   if feed.first_op_at is not None else run.wall_s)
    run.first_op_s = feed.first_op_s
    if run.error:
        print(f"perfbench: point {run.label} failed: {run.error}",
              file=sys.stderr)
    return run


def sim_digest(runs: List[PointRun]) -> str:
    """sha256 of every point's canonical ``StatsCollector.summary()``."""
    canon = [{"point": run.label,
              "summary": None if run.error else run.stats.summary()}
             for run in runs]
    return hashlib.sha256(json.dumps(canon, sort_keys=True).encode()
                          ).hexdigest()


@dataclass
class PassResult:
    """One pass: its points, host seconds including checks, digest."""

    runs: List[PointRun]
    wall_s: float
    digest: str

    @property
    def ops(self) -> int:
        return sum(run.ops for run in self.runs)

    @property
    def ops_per_s(self) -> float:
        sim_s = sum(run.sim_s for run in self.runs)
        return self.ops / sim_s if sim_s > 0 else 0.0

    @property
    def setup_s(self) -> float:
        return sum(run.setup_s for run in self.runs)

    @property
    def slowest_point_s(self) -> float:
        return max(run.wall_s for run in self.runs)

    @property
    def first_op_s(self) -> float:
        return sum(run.first_op_s for run in self.runs)


class Benchmark:
    """Runs one workload's passes; owns the CPU probe and the
    reference op counts of its traces."""

    def __init__(self, workload: str, seed: int, sizes: Sizes = Sizes(),
                 max_events: int = MAX_EVENTS) -> None:
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.max_events = max_events
        self.feed = CpuFeed()
        self.passes: List[PassResult] = []
        self.expected: Dict[str, TraceCounts] = {}
        # Count every trace up front, outside any timed region.
        for point in self.points(tag="count"):
            token = point.trace.cache_token()
            if token not in self.expected:
                self.expected[token] = trace_counts(point.trace)

    def points(self, tag: str) -> List[RunPoint]:
        return make_points(self.workload, self.seed, tag, self.sizes)

    def run_pass(self, points: Optional[List[RunPoint]] = None,
                 tracer: Optional[Tracer] = None,
                 profiler: Optional[cProfile.Profile] = None) -> PassResult:
        if points is None:
            points = self.points(tag=f"{os.getpid()}-{len(self.passes)}")
        started = time.perf_counter()
        with self.feed:
            runs = [run_point(point, self.expected[point.trace.cache_token()],
                              self.feed, tracer=tracer, profiler=profiler,
                              max_events=self.max_events)
                    for point in points]
        digest = sim_digest(runs)
        result = PassResult(runs, time.perf_counter() - started, digest)
        self.passes.append(result)
        return result

    @property
    def attempted(self) -> int:
        return sum(len(result.runs) for result in self.passes)

    @property
    def failed(self) -> int:
        """Failed points; every point of a pass whose digest differs
        from the first pass's counts as failed."""
        reference = self.passes[0].digest
        return sum(len(result.runs) if result.digest != reference
                   else sum(1 for run in result.runs if run.error)
                   for result in self.passes)

    def detail(self) -> Dict[str, object]:
        """Exact simulated outcomes, printed beside the metrics."""
        first = self.passes[0]
        return {
            "workload": self.workload, "seed": self.seed,
            "sim_digest": first.digest,
            "passes": len(self.passes),
            "points": [{"point": run.label,
                        "cycles": run.stats.cycles if run.stats else None,
                        "nvm_write_blocks":
                            run.stats.nvm_write_blocks if run.stats else None,
                        "pages_promoted":
                            run.stats.pages_promoted if run.stats else None,
                        "error": run.error}
                       for run in first.runs],
        }


# --- end-to-end run ----------------------------------------------------------

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); "
                 "import repro.harness, repro.workloads.tracespec; "
                 "print(time.perf_counter() - t)")


def import_seconds(samples: int = 5) -> float:
    """Median time a fresh interpreter takes to import the harness."""
    values = []
    for _ in range(samples):
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, check=True,
                              timeout=120, cwd=ROOT)
        values.append(float(done.stdout.split()[-1]))
    return statistics.median(values)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(bench: Benchmark, seconds: float) -> Dict[str, float]:
    """Untraced run: passes until ``seconds`` are spent; medians."""
    imported = import_seconds()
    started = time.perf_counter()
    while not bench.passes or time.perf_counter() - started < seconds:
        bench.run_pass()
    passes = bench.passes
    med = statistics.median
    return {
        "ops_per_s": med(p.ops_per_s for p in passes),
        "wall_s": imported + med(p.wall_s for p in passes),
        "slowest_point_s": med(p.slowest_point_s for p in passes),
        "setup_s": imported + med(p.setup_s for p in passes),
        "peak_rss_mb": peak_rss_mb(),
    }


# --- traced run --------------------------------------------------------------

def _thynvm_sum(runs: List[PointRun], attr: str) -> int:
    return sum(getattr(run.stats, attr) for run in runs
               if run.stats is not None and run.system.startswith("thynvm"))


def trace(bench: Benchmark) -> Tuple[Dict[str, float], Tracer]:
    """Traced run: a plain, a counted and a profiled pass; returns the
    per-layer metrics and the tracer (its spans)."""
    plain = bench.run_pass()
    with Tracer() as tracer:
        counted = bench.run_pass(tracer=tracer)
    profiler = cProfile.Profile()
    profiled = bench.run_pass(profiler=profiler)
    profile = pstats.Stats(profiler).stats
    self_s = attribute_profile(profile, LayerMap(SRC / "repro",
                                                 Path(__file__).parent))

    counts = tracer.counts
    runs = [run for run in counted.runs if run.stats is not None]
    all_stats = [run.stats for run in runs]
    ops = counted.ops
    thynvm_cycles = _thynvm_sum(runs, "cycles")
    ckpt_stall = sum(run.stats.checkpoint_stall_fraction * run.stats.cycles
                     for run in runs if run.system.startswith("thynvm"))
    serviced = sum(s.nvm_reads.total() + s.nvm_writes.total()
                   + s.dram_reads.total() + s.dram_writes.total()
                   for s in all_stats)
    mismatches = sum(1 for key, suffix, name in CROSS_CHECKS
                     if profile_calls(profile, suffix, name) != counts[key])

    metrics: Dict[str, float] = {f"{layer}.self_s": self_s[layer]
                                 for layer in LAYERS}
    metrics.update({
        "workloads.trace_builds": counts["workloads.trace_builds"],
        "workloads.ops": ops,
        "workloads.first_op_s": plain.first_op_s,
        "harness.points": len(counted.runs),
        "cpu.stall_cycles": sum(s.total_stall_cycles for s in all_stats),
        "cache.accesses": counts["cache.accesses"],
        "cache.flush_calls": counts["cache.flush_calls"],
        "core.port_calls": counts["core.port_calls"],
        "core.persist_barriers": counts["core.persist_barriers"],
        "core.epochs": _thynvm_sum(runs, "epochs_completed"),
        "core.epochs_forced_by_overflow":
            _thynvm_sum(runs, "epochs_forced_by_overflow"),
        "core.pages_promoted": _thynvm_sum(runs, "pages_promoted"),
        "core.pages_demoted": _thynvm_sum(runs, "pages_demoted"),
        "core.ckpt_stall_fraction":
            ckpt_stall / thynvm_cycles if thynvm_cycles else 0.0,
        "baselines.port_calls": counts["baselines.port_calls"],
        "mem.submits": counts["mem.submits"],
        "mem.bulk_submits": counts["mem.bulk_submits"],
        "mem.submit_rejects": counts["mem.submit_rejects"],
        "mem.reject_ratio": (counts["mem.submit_rejects"]
                             / counts["mem.submits"]
                             if counts["mem.submits"] else 0.0),
        "mem.requests_issued": counts["mem.requests_issued"],
        "mem.requests_serviced": serviced,
        "mem.nvm_write_blocks": sum(s.nvm_write_blocks for s in all_stats),
        "store.calls": counts["store.calls"],
        "store.bytes_written": counts["store.bytes_written"],
        "store.msyncs": counts["store.msyncs"],
        "store.msync_s": tracer.span_seconds("store.msync"),
        "queueing.pop_ready_calls": counts["queueing.pop_ready_calls"],
        "queueing.enqueue_calls": counts["queueing.enqueue_calls"],
        "engine.events": counts["engine.events"],
        "engine.events_per_op": counts["engine.events"] / ops if ops else 0.0,
        "model.cycles": sum(s.cycles for s in all_stats),
        "model.nvm_write_mb":
            sum(s.nvm_write_bytes for s in all_stats) / MIB,
        "other.self_s": self_s["other"],
        "trace.total_self_s": sum(self_s.values()),
        "trace.overhead": counted.wall_s / plain.wall_s,
        "trace.profile_overhead": profiled.wall_s / plain.wall_s,
        "trace.count_mismatches": mismatches,
    })
    return metrics, tracer


def write_spans(tracer: Tracer, workload: str, seed: int) -> Path:
    """Write the traced run's spans (relative to its first span)."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{seed}-spans.json"
    origin = min((start for _n, _l, start, _e in tracer.spans), default=0.0)
    path.write_text(json.dumps(
        [{"span": name, "point": label, "start_s": start - origin,
          "end_s": end - origin}
         for name, label, start, end in tracer.spans], indent=1) + "\n")
    return path
