"""Batched bulk-run core vs per-block reference core equivalence.

The shadow-paging baseline is the heaviest bulk-run user: every
copy-on-write and every page checkpoint is issued as one read run and
one write run instead of a per-block request storm.  The per-block
reference (``PerBlockShadow`` in this package's conftest) issues the
same traffic one single-block request at a time, so this test drives
random workloads through both cores and requires byte-identical
``summary()`` output — cycles, traffic breakdowns, epoch counts, stall
attribution, everything.
"""

from __future__ import annotations

import contextlib
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.experiments import MICRO_FOOTPRINT, experiment_config
from repro.harness.runner import execute, run_workload
from repro.harness.systems import build_system
from repro.workloads.tracespec import micro_spec

from .conftest import per_block_core


def _core(use_bulk_runs: bool):
    return contextlib.nullcontext() if use_bulk_runs else per_block_core()


def _shadow_summary(workload: str, ops: int, seed: int,
                    use_bulk_runs: bool) -> dict:
    with _core(use_bulk_runs):
        spec = micro_spec(workload, MICRO_FOOTPRINT, ops, seed=seed)
        result = run_workload("shadow", spec.build(), experiment_config())
    # Round-trip through JSON so "byte-identical" means the serialized
    # form, exactly like the golden-determinism guard.
    return json.loads(json.dumps(result.stats.summary(), sort_keys=True))


@given(workload=st.sampled_from(("random", "streaming", "sliding")),
       ops=st.integers(min_value=100, max_value=350),
       seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=8, deadline=None)
def test_bulk_core_summary_byte_identical_to_reference(workload, ops, seed):
    batched = _shadow_summary(workload, ops, seed, use_bulk_runs=True)
    reference = _shadow_summary(workload, ops, seed, use_bulk_runs=False)
    assert batched == reference


def test_bulk_core_collapses_issued_request_count():
    """The copy-amplification fix: the batched core issues an order of
    magnitude fewer producer-API requests for the same per-block
    traffic (the serviced-block counters are unchanged)."""
    def run(use_bulk_runs: bool):
        with _core(use_bulk_runs):
            spec = micro_spec("random", MICRO_FOOTPRINT, 2000, seed=1)
            machine = build_system("shadow", experiment_config())
            result = execute(machine, spec.build())
        stats = result.stats
        blocks = (stats.nvm_reads.total() + stats.nvm_writes.total()
                  + stats.dram_reads.total() + stats.dram_writes.total())
        return blocks, machine.memctrl.requests_issued

    batched_blocks, batched_issued = run(use_bulk_runs=True)
    reference_blocks, reference_issued = run(use_bulk_runs=False)

    assert batched_blocks == reference_blocks
    assert batched_issued * 10 <= reference_issued, (
        f"expected >=10x issued-request reduction, got "
        f"{reference_issued} -> {batched_issued}")
