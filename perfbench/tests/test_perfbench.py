"""Tests of the benchmark itself: layer map, attribution, checks, output.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
Workloads run at toy sizes here; the measured sizes are in
``measure.Sizes``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402

TINY = measure.Sizes(micro_ops=300, shadow_ops=200, kv_ops=20,
                     ycsb_txns=40)
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_module_maps_to_exactly_one_layer():
    package = ROOT / "src" / "repro"
    modules = [path.relative_to(package).as_posix()
               for path in package.rglob("*.py")]
    assert modules
    for module in modules:
        assert len(layers.rules_matching(module)) == 1, module
    for key, layer in layers.LAYER_RULES.items():
        assert layer in layers.LAYERS
        assert any(key in layers.rules_matching(m) for m in modules), key


def test_builtin_and_stdlib_time_goes_to_the_calling_layer(tmp_path):
    package = tmp_path / "repro"
    core = str(package / "core" / "controller.py")
    cache = str(package / "cache" / "hierarchy.py")
    bench = str(tmp_path / "perfbench" / "measure.py")
    stdlib = "/usr/lib/python3/random.py"
    flush = ("~", 0, "<method 'flush' of 'mmap.mmap' objects>")
    stats = {
        (core, 1, "commit"): (1, 1, 1.0, 3.0, {}),
        (cache, 1, "access"): (1, 1, 2.0, 2.5, {}),
        (stdlib, 1, "randrange"): (2, 2, 0.25, 1.0,
                                   {(cache, 1, "access"): (1, 1, .1, .5),
                                    (core, 1, "commit"): (1, 1, .15, .5)}),
        flush: (3, 3, 0.75, 0.75,
                {(core, 1, "commit"): (1, 1, 0.5, 0.5),
                 (stdlib, 1, "randrange"): (2, 2, 0.25, 0.25)}),
        (bench, 1, "run_trace"): (1, 1, 0.5, 0.5, {}),
    }
    self_s = layers.attribute_profile(
        stats, layers.LayerMap(package, tmp_path / "perfbench"))
    assert self_s["cache"] == pytest.approx(2.0 + 0.1 + 0.25 * 0.5)
    assert self_s["core"] == pytest.approx(1.0 + 0.15 + 0.5 + 0.25 * 0.5)
    assert self_s["other"] == pytest.approx(0.5)
    assert sum(self_s.values()) == pytest.approx(
        sum(entry[2] for entry in stats.values()))


@pytest.fixture(scope="module")
def traced_micro():
    bench = measure.Benchmark("thynvm-micro", measure.DEFAULT_SEED, TINY)
    metrics, tracer = measure.trace(bench)
    return bench, metrics, tracer


def test_layer_self_times_sum_to_the_traced_total(traced_micro):
    _bench, metrics, _tracer = traced_micro
    parts = [metrics[f"{layer}.self_s"] for layer in layers.LAYERS]
    total = sum(parts) + metrics["other.self_s"]
    assert total == pytest.approx(metrics["trace.total_self_s"], rel=1e-9)
    assert metrics["core.self_s"] > 0


def test_tracing_adds_nothing_simulated(traced_micro):
    bench, metrics, tracer = traced_micro
    assert bench.failed == 0
    assert len({result.digest for result in bench.passes}) == 1
    assert metrics["trace.count_mismatches"] == 0
    assert {span for span, *_ in tracer.spans} >= {
        "harness.point", "harness.build_system", "engine.run"}
    untraced = measure.Benchmark("thynvm-micro", measure.DEFAULT_SEED, TINY)
    measure.measure(untraced, seconds=0)
    assert untraced.passes[0].digest == bench.passes[0].digest


def test_metric_names_and_units_match_benchmark_json(traced_micro):
    spec = benchmark_json()
    _bench, metrics, _tracer = traced_micro
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == run.per_layer_units()
    assert set(metrics) == set(per_layer)
    names = [w["name"] for w in spec["workloads"]] + list(end_to_end) \
        + list(per_layer)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert tuple(w["name"] for w in spec["workloads"]) == measure.WORKLOADS


def test_second_seed_gives_the_same_metric_names():
    values = {}
    for seed in (measure.DEFAULT_SEED, measure.HELD_OUT_SEED):
        bench = measure.Benchmark("shadow-random", seed, TINY)
        values[seed] = measure.measure(bench, seconds=0)
        assert bench.failed == 0
    assert set(values[1]) == set(values[2]) == set(run.END_TO_END)
    assert all(value > 0 for value in values[2].values())


def test_raising_and_wedged_points_are_counted_not_fatal():
    bench = measure.Benchmark("thynvm-micro", measure.DEFAULT_SEED, TINY)
    points = bench.points(tag="t")
    broken = dataclasses.replace(points[0], system="no-such-system",
                                 label="broken")
    result = bench.run_pass(points=[broken] + points)
    assert [bool(run.error) for run in result.runs] == [True] + [False] * 3
    assert "ConfigError" in result.runs[0].error
    assert (bench.attempted, bench.failed) == (4, 1)

    wedged = measure.Benchmark("shadow-random", measure.DEFAULT_SEED, TINY,
                               max_events=100)
    wedged.run_pass()
    assert "max_events" in wedged.passes[0].runs[0].error
    assert (wedged.attempted, wedged.failed) == (1, 1)


def test_a_pass_with_another_digest_fails_all_its_points():
    bench = measure.Benchmark("thynvm-micro", measure.DEFAULT_SEED, TINY)
    bench.run_pass()
    bench.run_pass()
    assert bench.failed == 0
    bench.passes[1].digest = "0" * 64
    assert bench.failed == 3


def test_cached_results_are_rejected():
    class Result:
        cached = True
        stats = None
    assert "cache" in measure.check_point(Result(), None, 0)


def test_ycsb_points_get_fresh_store_directories():
    assert "msync commit" in next(
        w["why"] for w in benchmark_json()["workloads"]
        if w["name"] == "ycsb-durable")
    bench = measure.Benchmark("ycsb-durable", measure.DEFAULT_SEED, TINY)
    with layers.Tracer() as tracer:
        first = bench.run_pass(tracer=tracer)
    second = bench.run_pass()
    dirs = [point.config.store_dir
            for tag in ("a", "b") for point in bench.points(tag)]
    assert len(set(dirs)) == len(dirs)
    assert first.digest == second.digest and bench.failed == 0
    assert tracer.counts["store.calls"] > 0
    assert tracer.counts["store.msyncs"] > 0
    for point in bench.points(tag="c"):
        assert point.config.store_mode == "mmap"
        assert point.config.msync_policy == "commit"
        assert Path(point.config.store_dir).parent == measure.WORK_DIR
    assert not any(measure.WORK_DIR.glob(f"{os.getpid()}-*"))

    stale = bench.points(tag="stale")[0]
    Path(stale.config.store_dir).mkdir(parents=True)
    try:
        result = bench.run_pass(points=[stale])
    finally:
        shutil.rmtree(stale.config.store_dir, ignore_errors=True)
    assert "not fresh" in result.runs[0].error


def test_exits_nonzero_without_the_simulator_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kv-fig9",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
