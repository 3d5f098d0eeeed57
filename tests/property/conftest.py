"""Shared helpers for the property tests.

:class:`PerBlockShadow` is the per-block reference for the batched
bulk-run core.  Shadow paging issues every page copy and page flush as
one bulk run; the reference issues the same traffic as one single-block
request per block, in the same order, through the plain single-request
API.  Differential tests build the shadow system on it inside
:func:`per_block_core` and require the batched core to match.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Iterator, List

import pytest

import repro.fuzz.runner as fuzz_runner
import repro.harness.systems as systems
from repro.baselines.shadow import ShadowPagingController
from repro.core.checkpoint import Job
from repro.mem.controller import DeviceKind
from repro.sim.request import MemoryRequest, Origin


class PerBlockShadow(ShadowPagingController):
    """Shadow paging with every bulk run split into single-block requests."""

    def _issue_bulk_read_traffic(self, kind: DeviceKind, base_addr: int,
                                 origin: Origin, count: int,
                                 stride: int) -> None:
        for index in range(count):
            self._issue_read(kind, MemoryRequest(base_addr + index * stride,
                                                 False, origin))

    def _issue_read(self, kind: DeviceKind, request: MemoryRequest) -> None:
        """Timed read whose result is discarded, retried on backpressure."""

        def try_submit() -> None:
            if self._crashed:
                return
            if not self.memctrl.submit(kind, request):
                self.memctrl.wait_for_slot(kind, False, try_submit)

        try_submit()

    def _issue_bulk_write_traffic(self, kind: DeviceKind, base_addr: int,
                                  origin: Origin, count: int,
                                  stride: int) -> None:
        for index in range(count):
            self._issue_write(kind, base_addr + index * stride, origin,
                              None, None)

    def _checkpoint_stages(self) -> List[List[Job]]:
        return [[single for job in stage for single in _single_blocks(job)]
                for stage in super()._checkpoint_stages()]


def _single_blocks(job: Job) -> List[Job]:
    """A ``count``-block run job as ``count`` single-block jobs."""
    if job.count == 1:
        return [job]
    return [dataclasses.replace(job, dst_addr=job.dst_addr + step,
                                src_addr=job.src_addr + step,
                                count=1, stride=0)
            for step in (index * job.stride for index in range(job.count))]


@contextlib.contextmanager
def per_block_core() -> Iterator[None]:
    """Build every shadow-paging system on :class:`PerBlockShadow`.

    Covers both construction sites: ``harness.systems`` (``run_workload``,
    ``build_system``) and ``fuzz.runner`` (``census``).
    """
    with pytest.MonkeyPatch.context() as patch:
        for module in (systems, fuzz_runner):
            patch.setattr(module, "ShadowPagingController", PerBlockShadow)
        yield
