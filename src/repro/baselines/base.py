"""Shared machinery for the stop-the-world baselines (§5.1).

Journaling and shadow paging both follow the Figure 3(a) epoch model:
execution, then a checkpointing phase during which the CPU stays
stalled.  This base class owns the epoch timer, the boundary sequence
(stall → cache flush → CPU-state write → subclass checkpoint stages →
commit → resume) and the crash plumbing; subclasses provide the write
steering, the checkpoint job list and the commit-time metadata flip.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..config import SystemConfig
from ..core import probes
from ..core.checkpoint import CheckpointRun, Job
from ..core.regions import HardwareLayout
from ..cpu.state import CpuState
from ..errors import CrashedError, SimulationError
from ..mem.address import AddressMap
from ..mem.controller import DeviceKind, MemoryController
from ..sim.engine import Engine
from ..sim.request import MemoryRequest, Origin
from ..stats.collector import StatsCollector


class StopTheWorldController:
    """Epoch-based consistency with a blocking checkpointing phase."""

    def __init__(self, engine: Engine, config: SystemConfig,
                 memctrl: MemoryController, stats: StatsCollector) -> None:
        self.engine = engine
        self.config = config
        self.memctrl = memctrl
        self.stats = stats
        self.addresses = AddressMap(config)
        self.layout = HardwareLayout(config)
        self.core = None
        self.hierarchy = None
        self.epoch = 0
        self.epochs_completed = 0
        self._in_checkpoint = False
        self._end_pending: Optional[str] = None
        self._ckpt_run: Optional[CheckpointRun] = None
        self._aux_run: Optional[CheckpointRun] = None
        self._deferred_writes: List[Tuple] = []
        self._drain_cb: Optional[Callable[[], None]] = None
        self._drain_rounds = 0
        self._persist_waiters: List[Tuple[int, Callable[[], None]]] = []
        self._boundary_cpu_state: Optional[CpuState] = None
        self._crashed = False
        self._started = False
        self._stopped = False

    # --- wiring ------------------------------------------------------------

    def attach_execution(self, core, hierarchy) -> None:
        self.core = core
        self.hierarchy = hierarchy
        threshold = self._dirty_pressure_threshold()
        if hierarchy is not None and threshold is not None:
            hierarchy.set_dirty_pressure(
                threshold, lambda: self.force_epoch_end("overflow"))

    def _dirty_pressure_threshold(self) -> Optional[int]:
        """Dirty-cache watermark that forces an early epoch end, sized
        so the boundary flush fits the subclass's buffer.  None disables."""
        return None

    def start(self) -> None:
        if self._crashed:
            raise CrashedError("controller has crashed; recover() it instead")
        if self._started:
            raise SimulationError("controller already started")
        self._started = True
        self._arm_timer()

    @property
    def crashed(self) -> bool:
        """True once :meth:`crash` has been called."""
        return self._crashed

    def _arm_timer(self) -> None:
        epoch = self.epoch
        self.engine.schedule(self.config.epoch_cycles,
                             lambda: self._timer_fired(epoch))

    def _timer_fired(self, epoch: int) -> None:
        if self._crashed or self._stopped or epoch != self.epoch:
            return
        self.force_epoch_end("timer")

    def stop(self) -> None:
        """Stop generating epochs (end of run); in-flight work finishes."""
        self._stopped = True

    # --- MemoryPort (subclasses implement the steering) ---------------------------

    def read_block(self, addr: int, origin: Origin,
                   callback: Callable[[MemoryRequest], None]) -> None:
        if self._crashed:
            raise CrashedError("read_block on a crashed controller")
        block = self.addresses.block_index(addr)
        kind, hw_addr = self._read_location(block)

        def issue() -> None:
            if self._crashed:
                return
            request = MemoryRequest(hw_addr, False, origin, callback=callback)
            if not self.memctrl.submit(kind, request):
                self.memctrl.wait_for_slot(kind, False, issue)

        self.engine.schedule(self.config.table_lookup_latency, issue)

    def write_block(self, addr: int, origin: Origin,
                    data: Optional[bytes] = None, callback=None,
                    on_accept=None) -> None:
        if self._crashed:
            raise CrashedError("write_block on a crashed controller")
        block = self.addresses.block_index(addr)
        self._do_write(block, addr, origin, data, callback, on_accept)

    def _read_location(self, block: int) -> Tuple[DeviceKind, int]:
        raise NotImplementedError

    def _do_write(self, block: int, addr: int, origin: Origin,
                  data, callback, on_accept=None) -> None:
        raise NotImplementedError

    def _checkpoint_stages(self) -> List[List[Job]]:
        raise NotImplementedError

    def _commit_actions(self) -> None:
        raise NotImplementedError

    # --- shared issue helpers ------------------------------------------------------

    def _issue_write(self, kind: DeviceKind, hw_addr: int, origin: Origin,
                     data, callback, on_accept=None) -> None:
        request = MemoryRequest(hw_addr, True, origin, data=data,
                                callback=callback)

        def try_submit() -> None:
            if self._crashed:
                return
            if self.memctrl.submit(kind, request):
                if on_accept is not None:
                    on_accept()
            else:
                self.memctrl.wait_for_slot(kind, True, try_submit)

        try_submit()

    def _issue_read_traffic(self, kind: DeviceKind, hw_addr: int,
                            origin: Origin) -> None:
        """Timed read whose result is discarded (traffic accounting)."""
        request = MemoryRequest(hw_addr, False, origin)

        def try_submit() -> None:
            if self._crashed:
                return
            if not self.memctrl.submit(kind, request):
                self.memctrl.wait_for_slot(kind, False, try_submit)

        try_submit()

    def _issue_bulk_read_traffic(self, kind: DeviceKind, base_addr: int,
                                 origin: Origin, count: int,
                                 stride: int) -> None:
        """Timed read run whose results are discarded (traffic accounting).

        One bulk submission replaces ``count`` single requests; the
        controller drives the whole run to admission with per-block
        backpressure, so no retry closure per block is needed here."""
        request = MemoryRequest.bulk(base_addr, False, origin, count, stride)
        self.memctrl.submit_bulk(kind, request)

    def _issue_bulk_write_traffic(self, kind: DeviceKind, base_addr: int,
                                  origin: Origin, count: int,
                                  stride: int) -> None:
        """Timed payload-free write run (functional contents are placed
        separately, so a late-serviced block can never clobber a younger
        same-address demand write)."""
        request = MemoryRequest.bulk(base_addr, True, origin, count, stride)
        self.memctrl.submit_bulk(kind, request)

    def _defer_write(self, addr: int, origin: Origin, data, callback,
                     on_accept, reason: str) -> None:
        """Park a write that found no buffer space; acknowledged now and
        replayed after the next (possibly sub-epoch) checkpoint — real
        buffer-capacity-limited behaviour for these designs."""
        if on_accept is not None:
            on_accept()
        self._deferred_writes.append((addr, origin, data, callback, None))
        self.force_epoch_end(reason)

    # --- epoch boundary (stop-the-world) ---------------------------------------------

    def persist_barrier(self, callback: Callable[[], None]) -> None:
        """Durability barrier: ends the epoch, fires at its commit."""
        if self._crashed:
            raise CrashedError("persist_barrier on a crashed controller")
        target = self.epoch
        self._persist_waiters.append((target, callback))
        self.force_epoch_end("persist")

    def _fire_persist_waiters(self) -> None:
        # self.epoch has already advanced past every committed epoch.
        ready = [cb for target, cb in self._persist_waiters
                 if self.epoch > target]
        self._persist_waiters = [(t, cb) for t, cb in self._persist_waiters
                                 if self.epoch <= t]
        for callback in ready:
            callback()

    def force_epoch_end(self, reason: str = "manual") -> None:
        if self._crashed:
            raise CrashedError("force_epoch_end on a crashed controller")
        if self._stopped:
            return
        if self._in_checkpoint:
            if self._end_pending is None:
                self._end_pending = reason
            return
        self._in_checkpoint = True
        if reason == "overflow":
            self.stats.epochs_forced_by_overflow += 1
        if self.core is not None and not self.core.finished:
            self.core.stall_at_next_boundary("flush", self._begin_boundary)
        else:
            self._begin_boundary()

    def _begin_boundary(self) -> None:
        if self._crashed:
            return
        if self.core is not None:
            self._boundary_cpu_state = self.core.state.capture()
        if self.hierarchy is not None:
            self.hierarchy.flush_dirty(Origin.FLUSH,
                                       lambda _n: self._boundary_done())
        else:
            self._boundary_done()

    def _boundary_done(self) -> None:
        if self._crashed:
            return
        if self.core is not None and self.core.stalled:
            # Flush finished; the rest of the stall is checkpoint time.
            self.core.change_stall_reason("checkpoint")
        stages = [self._cpu_state_jobs()] + self._checkpoint_stages()
        self._ckpt_run = CheckpointRun(
            self.engine, self.memctrl, stages,
            self.layout.commit_record_addr, self._committed,
            on_stage=self._on_ckpt_stage)
        self._ckpt_run.start()

    def _on_ckpt_stage(self, stage_index: int) -> None:
        """Hook: stage ``stage_index`` of the epoch checkpoint is durable."""

    def _cpu_state_jobs(self) -> List[Job]:
        nblocks = -(-self.config.cpu_state_bytes // self.config.block_bytes)
        return [
            Job(dst_kind=DeviceKind.NVM,
                dst_addr=self.layout.backup_addr(i * self.config.block_bytes),
                origin=Origin.CHECKPOINT)
            for i in range(nblocks)
        ]

    def _committed(self) -> None:
        if self._crashed:
            return
        run, self._ckpt_run = self._ckpt_run, None
        if run is not None and run.duration is not None:
            self.stats.checkpoint_busy_cycles += run.duration
            self.stats.checkpoint_duration.record(run.duration)
        self._commit_actions()
        self.epoch += 1
        self.epochs_completed += 1
        self.stats.epochs_completed += 1
        self._in_checkpoint = False
        if self.core is not None and self.core.stalled:
            self.core.resume()
        self._arm_timer()
        deferred, self._deferred_writes = self._deferred_writes, []
        for addr, origin, data, callback, on_accept in deferred:
            self.write_block(addr, origin, data, callback, on_accept)
        self._fire_persist_waiters()
        probes.notify("commit")
        if self._end_pending is not None:
            reason, self._end_pending = self._end_pending, None
            self.force_epoch_end(reason)
        elif self._drain_cb is not None:
            self._drain_step()

    # --- emergency (buffer-full) checkpoint cycles -------------------------------------

    def _run_aux_checkpoint(self, stages: List[List[Job]],
                            on_commit: Callable[[], None],
                            on_stage: Optional[Callable[[int], None]] = None,
                            ) -> None:
        """Flush buffered state without requiring a CPU boundary.

        Used when a DRAM buffer fills mid-epoch (or mid-cache-flush,
        where waiting for an epoch boundary would deadlock).  The
        sub-epoch commit weakens atomicity to the flush point — a real
        property of buffer-capacity-limited journaling/shadow designs.
        """
        run = CheckpointRun(self.engine, self.memctrl, stages,
                            self.layout.commit_record_addr,
                            lambda: self._aux_committed(on_commit),
                            on_stage=on_stage)
        self._aux_run = run
        run.start()

    def _aux_committed(self, on_commit: Callable[[], None]) -> None:
        self._aux_run = None
        if self._crashed:
            return
        on_commit()
        probes.notify("aux-commit")
        deferred, self._deferred_writes = self._deferred_writes, []
        for addr, origin, data, callback, on_accept in deferred:
            self.write_block(addr, origin, data, callback, on_accept)

    # --- drain ------------------------------------------------------------------------

    def drain(self, on_done: Callable[[], None]) -> None:
        if self._crashed:
            raise CrashedError("drain on a crashed controller")
        if self._drain_cb is not None:
            raise SimulationError("drain already in progress")
        self._drain_cb = on_done
        self._drain_rounds = 1
        self.force_epoch_end("drain")

    def _drain_step(self) -> None:
        self._drain_rounds -= 1
        if self._drain_rounds > 0:
            self.force_epoch_end("drain")
            return
        callback, self._drain_cb = self._drain_cb, None
        if callback is not None:
            callback()

    # --- crash ------------------------------------------------------------------------

    def crash(self) -> None:
        if self._crashed:
            raise CrashedError("controller has already crashed")
        self._crashed = True
        if self._ckpt_run is not None:
            self._ckpt_run.abort()
            self._ckpt_run = None
        if self._aux_run is not None:
            self._aux_run.abort()
            self._aux_run = None
        self.memctrl.crash()
        if self.core is not None:
            self.core.kill()
        if self.hierarchy is not None:
            self.hierarchy.invalidate_all()
