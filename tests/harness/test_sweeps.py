"""Tests for the generic sweep helpers."""

from repro.config import small_test_config
from repro.harness.sweeps import sweep_config, sweep_systems
from repro.workloads.tracespec import micro_spec

SPEC = micro_spec("random", 64 * 1024, 300, seed=2)


def test_sweep_config_varies_field():
    results = sweep_config(
        "btt_entries", (64, 256), SPEC,
        base_config=small_test_config(),
        metric=lambda stats: stats.nvm_write_blocks)
    assert set(results) == {64, 256}
    assert all(isinstance(v, int) for v in results.values())


def test_sweep_config_default_metric_is_stats():
    results = sweep_config("epoch_cycles", (30_000,), SPEC,
                           base_config=small_test_config())
    stats = results[30_000]
    assert stats.instructions > 0


def test_sweep_systems():
    results = sweep_systems(("ideal_dram", "thynvm"), SPEC,
                            config=small_test_config(),
                            metric=lambda stats: stats.cycles)
    assert results["thynvm"] >= results["ideal_dram"]
