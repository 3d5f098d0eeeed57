"""The ThyNVM memory controller.

Implements the paper's dual-scheme checkpointing over the hybrid
DRAM+NVM :class:`~repro.mem.controller.MemoryController`:

* **block remapping** (§3.2) for sparse writes — working copies go
  directly to NVM checkpoint-region slots (or to DRAM temporary slots
  while a checkpoint is in flight), so checkpointing them only persists
  metadata;
* **page writeback** (§3.3) for dense writes — hot pages are cached in
  the DRAM Working Data Region and dirty pages are written back to NVM
  during the checkpointing phase;
* **cooperation** (§3.4) — while a page's writeback checkpoint is in
  flight, incoming stores to it detour through block remapping's DRAM
  temp slots instead of stalling, and pages migrate between schemes
  based on per-epoch store counters.

The controller is *functional*: with ``track_data`` enabled it moves
real bytes, and :meth:`crash` / :meth:`recover` exercise the real
consistency protocol, making crash consistency a testable property.

Policy knobs (:class:`ThyNVMPolicy`) expose the paper's §2.3 ablations:
disabling page writeback gives uniform cache-block-granularity
checkpointing; disabling block remapping (with ``adopt_on_first_write``)
gives uniform page-granularity checkpointing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..config import SystemConfig
from ..cpu.state import CpuState
from ..errors import CrashedError, ProtocolError, SimulationError
from ..mem.address import AddressMap
from ..mem.controller import DeviceKind, MemoryController
from ..sim.engine import Engine
from ..sim.request import MemoryRequest, Origin
from ..stats.collector import StatsCollector
from . import probes
from .btt import BlockTranslationTable
from .checkpoint import CheckpointRun, Job
from .coordinator import SchemeCoordinator
from .epoch import EpochManager
from .metadata import BlockEntry, GcState, PageEntry
from .ptt import PageTranslationTable
from .recovery import MetaSnapshot, RecoveredState, recover
from .regions import REGION_A, REGION_B, HardwareLayout, other_region


@dataclass
class ThyNVMPolicy:
    """Feature switches for the full design and its ablations."""

    enable_page_writeback: bool = True    # False => block-remapping only
    enable_block_remapping: bool = True   # False => page-writeback only
    temp_cooperation: bool = True         # §3.4 detour during page ckpt
    adopt_on_first_write: bool = False    # page-only: every write adopts a page
    persist_full_tables: bool = False     # paper persists whole tables

    def __post_init__(self) -> None:
        if not self.enable_page_writeback and not self.enable_block_remapping:
            raise SimulationError("at least one checkpointing scheme required")
        if not self.enable_block_remapping and not self.adopt_on_first_write:
            raise SimulationError(
                "page-only mode requires adopt_on_first_write")


class ThyNVMController:
    """Software-transparent crash-consistent hybrid memory."""

    def __init__(
        self,
        engine: Engine,
        config: SystemConfig,
        memctrl: MemoryController,
        stats: StatsCollector,
        policy: Optional[ThyNVMPolicy] = None,
    ) -> None:
        self.engine = engine
        self.config = config
        self.memctrl = memctrl
        self.stats = stats
        self.policy = policy if policy is not None else ThyNVMPolicy()

        self.layout = HardwareLayout(config)
        self.addresses = AddressMap(config)
        self.btt = BlockTranslationTable(config.btt_entries,
                                         config.btt_entry_bytes)
        self.ptt = PageTranslationTable(config.ptt_entries,
                                        config.ptt_entry_bytes)
        self.coordinator = SchemeCoordinator(config.promote_threshold,
                                             config.demote_threshold)
        self.epochs = EpochManager(engine, config.epoch_cycles,
                                   self._on_epoch_end)

        # Execution complex (optional; direct-driven tests have none).
        self.core = None
        self.hierarchy = None

        # Working-copy indexes for O(work) checkpoint planning.
        self._temp_by_epoch: Dict[int, Set[int]] = {}
        self._pending_blocks: Set[int] = set()
        self._dirty_pages: Set[int] = set()

        # Checkpoint pipeline state.
        self._ckpt_run: Optional[CheckpointRun] = None
        self._aux_run: Optional[CheckpointRun] = None
        self._aux_plan: List[PageEntry] = []
        self._plan_temp_entries: List[BlockEntry] = []
        self._plan_pending_entries: List[BlockEntry] = []
        self._plan_pages: List[PageEntry] = []
        self._plan_counts: Dict[int, int] = {}
        self._planned_stages: List[List[Job]] = []
        self._boundary_gate: Optional[Dict[str, object]] = None
        self._boundary_cpu_state: Optional[CpuState] = None

        # Deferred work.  Bounded: past the bound the CPU is stalled,
        # which is how slow checkpointing becomes visible stall time.
        self._deferred_writes: List[Tuple] = []      # table/slot overflow
        self._blocked_page_writes: List[Tuple] = []  # non-cooperation mode
        self._write_buffer_bound = 64
        self._backpressure_active = False
        # Pages/blocks evicted via synchronous consolidation-to-home.
        # Their region-A copy stays referenced by durable metadata until
        # a fence-covered snapshot excludes it, so each eviction is
        # shadowed for two commits: snapshots keep mapping the block or
        # page to region A, and any re-creation in that window points
        # its writes away from region A.  Value: (region, ttl_commits)
        # for blocks, (region, ttl_commits) for pages.
        self._evicted_blocks: Dict[int, Tuple[int, int]] = {}
        self._evicted_pages: Dict[int, Tuple[int, int]] = {}
        self._gc_issued: List[BlockEntry] = []
        self._absorbed_to_drop: List[BlockEntry] = []
        self._migration_unserviced = 0
        self._drain_rounds = 0
        self._drain_cb: Optional[Callable[[], None]] = None
        # §6 explicit persistence: (epoch-to-cover, callback) waiters.
        self._persist_waiters: List[Tuple[int, Callable[[], None]]] = []

        # Durable metadata (models the NVM backup region + commit bit).
        # Epoch -1: the pristine Home-Region image is always recoverable.
        self.committed_meta: MetaSnapshot = MetaSnapshot(epoch=-1)

        self._crashed = False
        self._started = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach_execution(self, core, hierarchy) -> None:
        """Connect the CPU complex so epoch boundaries can flush it."""
        self.core = core
        self.hierarchy = hierarchy
        if hierarchy is None:
            return
        # End epochs before the cache accumulates more dirty blocks than
        # the translation tables can absorb at the boundary flush
        # (Dirty-Block-Index-style pressure tracking; paper's [68]).
        if self.policy.enable_block_remapping:
            threshold = (7 * self.btt.capacity) // 10
        else:
            threshold = (7 * self.layout.slots_total
                         * self.config.blocks_per_page) // 10
        hierarchy.set_dirty_pressure(
            threshold, lambda: self.epochs.request_end("overflow"))

    def start(self) -> None:
        """Arm the epoch timer; call once before simulation starts."""
        if self._crashed:
            raise CrashedError("controller has crashed; recover() it instead")
        if self._started:
            raise SimulationError("controller already started")
        self._started = True
        self.epochs.start()

    @property
    def crashed(self) -> bool:
        """True once :meth:`crash` has been called (until restore)."""
        return self._crashed

    def stop(self) -> None:
        """Stop generating epochs (end of run); in-flight work finishes."""
        self.epochs.stop()

    # ------------------------------------------------------------------
    # MemoryPort: reads
    # ------------------------------------------------------------------

    def read_block(self, addr: int, origin: Origin,
                   callback: Callable[[MemoryRequest], None]) -> None:
        """Service a load: translate to the software-visible version."""
        if self._crashed:
            raise CrashedError("read_block on a crashed controller")
        block = self.addresses.block_index(addr)
        kind, hw_addr = self._visible_location(block)

        def issue() -> None:
            if self._crashed:
                return
            request = MemoryRequest(hw_addr, False, origin, callback=callback)
            if not self.memctrl.submit(kind, request):
                self.memctrl.wait_for_slot(kind, False, issue)

        self.engine.schedule(self.config.table_lookup_latency, issue)

    def _visible_location(self, block: int) -> Tuple[DeviceKind, int]:
        """Device + hardware address of the software-visible version
        (§4.1: W_active if it exists, else C_last, else home)."""
        page = self.addresses.page_of_block(block)
        pe = self.ptt.lookup(page)
        if pe is not None:
            entry = self.btt.lookup(block)
            if entry is not None and entry.coop_page == page and entry.temp_epochs:
                epoch = entry.newest_temp_epoch()
                return DeviceKind.DRAM, self.layout.temp_block_addr(block, epoch)
            offset = block - self.addresses.blocks_in_page(page).start
            return DeviceKind.DRAM, self.layout.slot_block_addr(pe.dram_slot,
                                                                offset)
        entry = self.btt.lookup(block)
        if entry is None:
            return DeviceKind.NVM, self.layout.home_block_addr(block)
        if entry.temp_epochs:
            epoch = entry.newest_temp_epoch()
            return DeviceKind.DRAM, self.layout.temp_block_addr(block, epoch)
        if entry.pending_epoch is not None:
            region = other_region(entry.stable_region)
            return DeviceKind.NVM, self.layout.region_block_addr(region, block)
        return DeviceKind.NVM, self.layout.region_block_addr(
            entry.stable_region, block)

    # ------------------------------------------------------------------
    # MemoryPort: writes
    # ------------------------------------------------------------------

    def write_block(self, addr: int, origin: Origin,
                    data: Optional[bytes] = None,
                    callback: Optional[Callable[[MemoryRequest], None]] = None,
                    on_accept: Optional[Callable[[], None]] = None,
                    ) -> None:
        """Service a store, steering it per Figure 6(a).

        ``on_accept`` fires when the write is accepted into a device
        queue (the paper's flush stalls only until writebacks are
        *initiated*); ``callback`` fires when it is serviced.
        """
        if self._crashed:
            raise CrashedError("write_block on a crashed controller")
        block = self.addresses.block_index(addr)
        page = self.addresses.page_of_block(block)
        pe = self.ptt.lookup(page)
        if pe is not None:
            self._page_write(pe, block, page, addr, origin, data, callback,
                             on_accept)
        else:
            self._block_write(block, page, addr, origin, data, callback,
                              on_accept)

    # --- page writeback path ------------------------------------------------

    def _page_write(self, pe: PageEntry, block: int, page: int, addr: int,
                    origin: Origin, data, callback, on_accept=None) -> None:
        pe.bump_store(self.epochs.active_epoch)
        self.ptt.mark_dirty(page)
        self.coordinator.note_store(page)
        if pe.ckpt_in_progress:
            if self.policy.temp_cooperation:
                self._coop_temp_write(pe, block, page, addr, origin, data,
                                      callback, on_accept)
            else:
                # Uniform page-granularity checkpointing stalls here: the
                # write waits until the page's checkpoint commits.
                self._blocked_page_writes.append(
                    (addr, origin, data, callback, on_accept))
                if len(self._blocked_page_writes) > self._write_buffer_bound:
                    self._backpressure_stall("checkpoint")
            return
        offset = block - self.addresses.blocks_in_page(page).start
        pe.dirty_active.add(offset)
        self._dirty_pages.add(page)
        hw_addr = self.layout.slot_block_addr(pe.dram_slot, offset)
        self._issue_write(DeviceKind.DRAM, hw_addr, origin, data, callback,
                          on_accept)

    def _coop_temp_write(self, pe: PageEntry, block: int, page: int,
                         addr: int, origin: Origin, data, callback,
                         on_accept=None) -> None:
        """§3.4: absorb a write to a mid-checkpoint page via the BTT."""
        entry = self.btt.lookup(block)
        if entry is None:
            entry = self.btt.create(block)
            if entry is None and self._emergency_evict_block():
                entry = self.btt.create(block)
            if entry is None:
                self._defer_write(addr, origin, data, callback, on_accept,
                                  "overflow")
                return
            entry.coop_page = page
        if entry.coop_page not in (None, page):
            raise ProtocolError(
                f"block {block}: BTT entry already cooperating for page "
                f"{entry.coop_page}, store targets page {page}")
        # An entry absorbed by this page's promotion may be reused as the
        # cooperation container; the merge at commit drops it either way.
        entry.coop_page = page
        epoch = self.epochs.active_epoch
        self._add_temp(entry, epoch)
        entry.bump_store(epoch)
        self.btt.mark_dirty(block)
        hw_addr = self.layout.temp_block_addr(block, epoch)
        self._issue_write(DeviceKind.DRAM, hw_addr, origin, data, callback,
                          on_accept)

    # --- block remapping path -------------------------------------------------

    def _block_write(self, block: int, page: int, addr: int,
                     origin: Origin, data, callback, on_accept=None) -> None:
        if not self.policy.enable_block_remapping:
            self._adopt_and_write(block, page, addr, origin, data, callback,
                                  on_accept)
            return
        entry = self.btt.lookup(block)
        if entry is None:
            shadow = self._evicted_blocks.get(block)
            stable = shadow[0] if shadow is not None else REGION_B
            entry = self.btt.create(block, stable)
            if entry is None and self._emergency_evict_block():
                entry = self.btt.create(block, stable)
            if entry is None:
                self._defer_write(addr, origin, data, callback, on_accept,
                                  "overflow")
                return
            if self.btt.free_entries < max(1, self.btt.capacity // 8):
                # High watermark: end the epoch early so GC can free
                # entries before the table hard-overflows mid-flush.
                self.epochs.request_end("overflow")
        if entry.absorbed_by_page:
            raise ProtocolError(
                f"block {block}: absorbed entry outside its PTT page")
        if entry.gc_state is GcState.ISSUED:
            entry.gc_state = GcState.NONE   # cancel the consolidation drop
        epoch = self.epochs.active_epoch
        entry.bump_store(epoch)
        self.coordinator.note_store(page)
        self.btt.mark_dirty(block)

        ckpt_epoch = self.epochs.ckpt_epoch
        # Figure 6(a)'s "Still ckpting C_last?" is a *per-block* check:
        # only a block whose own last-epoch copy is part of the in-flight
        # checkpoint must buffer in DRAM (its NVM complement slot holds
        # either the being-committed copy or is the target of an
        # in-flight temp->NVM copy).  Any other block's complement slot
        # is unreferenced by the durable metadata and is written direct.
        own_copy_in_flight = ckpt_epoch is not None and (
            entry.pending_epoch == ckpt_epoch
            or ckpt_epoch in entry.temp_epochs)
        if epoch in entry.temp_epochs:
            kind = DeviceKind.DRAM
            hw_addr = self.layout.temp_block_addr(block, epoch)
        elif own_copy_in_flight:
            self._add_temp(entry, epoch)
            kind = DeviceKind.DRAM
            hw_addr = self.layout.temp_block_addr(block, epoch)
        else:
            if entry.pending_epoch not in (None, epoch):
                raise ProtocolError(
                    f"block {block}: stale pending epoch "
                    f"{entry.pending_epoch} in epoch {epoch}")
            entry.pending_epoch = epoch
            self._pending_blocks.add(block)
            kind = DeviceKind.NVM
            region = other_region(entry.stable_region)
            hw_addr = self.layout.region_block_addr(region, block)
        self._issue_write(kind, hw_addr, origin, data, callback, on_accept)

    def _adopt_and_write(self, block: int, page: int, addr: int,
                         origin: Origin, data, callback,
                         on_accept=None) -> None:
        """Page-only ablation: the first write to a page adopts it."""
        pe = self._adopt_page(page)
        if pe is None:
            # Capacity-stalled adoptions acknowledge immediately and are
            # replayed after the next commit, i.e. they land in the
            # *next* checkpoint.  Page-granularity checkpointing under
            # DRAM pressure genuinely loses epoch atomicity this way
            # (part of why the paper rejects it); the recovery-atomicity
            # tests therefore exclude this ablation.
            if on_accept is not None:
                on_accept()
            self._defer_write(addr, origin, data, callback, None,
                              "dram_full")
            # If every DRAM page is dirty, no epoch boundary can free
            # one (the boundary flush is itself waiting on this write):
            # flush dirty pages mid-epoch instead, like any real
            # buffer-capacity-limited writeback design.
            self._maybe_aux_page_flush()
            return
        self._page_write(pe, block, page, addr, origin, data, callback,
                         on_accept)

    def _maybe_aux_page_flush(self) -> None:
        """Sub-epoch checkpoint of all dirty pages (capacity valve).

        Only runs when no regular checkpoint is in flight; a regular
        checkpoint's commit retries deferred writes anyway.  The commit
        is mid-epoch, so atomicity weakens to the flush point — a real
        property of page-granularity checkpointing under DRAM pressure,
        and part of why the paper rejects uniform page granularity.
        """
        if self._aux_run is not None or self._ckpt_run is not None:
            return
        plan: List[PageEntry] = []
        jobs: List[Job] = []
        layout = self.layout
        block_bytes = self.config.block_bytes
        for page, pe in self.ptt:
            if not pe.dirty_active or pe.ckpt_in_progress:
                continue
            pe.dirty_ckpt = pe.dirty_active
            pe.dirty_active = set()
            pe.ckpt_in_progress = True
            self._dirty_pages.discard(page)
            plan.append(pe)
            dst_base = layout.region_page_addr(other_region(pe.stable_region),
                                               page)
            src_base = layout.page_slot_addr(pe.dram_slot)
            for offset in range(self.config.blocks_per_page):
                jobs.append(Job(
                    dst_kind=DeviceKind.NVM,
                    dst_addr=dst_base + offset * block_bytes,
                    origin=Origin.CHECKPOINT,
                    src_kind=DeviceKind.DRAM,
                    src_addr=src_base + offset * block_bytes))
        if not plan:
            return
        ptt_jobs = self._table_persist_jobs(
            self.ptt, layout.ptt_backup_offset, layout.ptt_backup_blocks)
        self._aux_plan = plan
        self._aux_run = CheckpointRun(
            self.engine, self.memctrl, [jobs, ptt_jobs],
            layout.commit_record_addr, self._aux_committed)
        self._aux_run.start()

    def _aux_committed(self) -> None:
        if self._crashed:
            return
        self._aux_run = None
        for pe in self._aux_plan:
            pe.stable_region = other_region(pe.stable_region)
            pe.dirty_ckpt = set()
            pe.ckpt_in_progress = False
            self.ptt.mark_dirty(pe.page)
        self._aux_plan = []
        self.committed_meta = self._snapshot(self.epochs.active_epoch)
        self._retry_blocked_writes()
        self._release_backpressure()
        probes.notify("aux-commit")

    # --- shared write helpers -----------------------------------------------------

    def _add_temp(self, entry: BlockEntry, epoch: int) -> None:
        entry.temp_epochs.add(epoch)
        self._temp_by_epoch.setdefault(epoch, set()).add(entry.block)

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

    def _issue_fire_and_forget(self, kind: DeviceKind, hw_addr: int,
                               is_write: bool, origin: Origin,
                               data=None) -> None:
        request = MemoryRequest(hw_addr, is_write, origin, data=data)
        if is_write and origin is Origin.MIGRATION and kind is DeviceKind.NVM:
            # Dropping a table entry is only safe once its consolidation
            # write is durable; commits defer drops while any migration
            # write is still outstanding (a queue-full wait can carry it
            # past the commit fence).
            self._migration_unserviced += 1
            request.callback = self._migration_serviced

        def try_submit() -> None:
            if self._crashed:
                return
            if not self.memctrl.submit(kind, request):
                self.memctrl.wait_for_slot(kind, is_write, try_submit)

        try_submit()

    def _migration_serviced(self, _request: MemoryRequest) -> None:
        self._migration_unserviced -= 1

    def _defer_write(self, addr: int, origin: Origin, data, callback,
                     on_accept, reason: str) -> None:
        """Park a write that found no table entry / DRAM slot.

        The write is acknowledged immediately and replayed after the
        next commit, i.e. under extreme table pressure it lands in the
        *next* checkpoint.  The dirty-pressure watermark makes this a
        last-resort relief valve rather than a steady state; functional
        crash tests size their working sets to stay clear of it.
        """
        if on_accept is not None:
            on_accept()
        self._deferred_writes.append((addr, origin, data, callback, None))
        if len(self._deferred_writes) > self._write_buffer_bound:
            self._backpressure_stall("backpressure")
        self.epochs.request_end(reason)

    def _backpressure_stall(self, reason: str) -> None:
        """Freeze the CPU until the next commit frees buffered writes."""
        if (self.core is None or self.core.finished
                or self._backpressure_active
                or self.core.stalled or self.core.stall_pending):
            return
        self._backpressure_active = True
        self.core.stall_at_next_boundary(reason, lambda: None)

    def _release_backpressure(self) -> None:
        if not self._backpressure_active or self.core is None:
            return
        self._backpressure_active = False
        if self.core.stalled:
            self.core.resume()
        elif self.core.stall_pending:
            self.core.cancel_stall_request()

    def _emergency_evict_block(self) -> bool:
        """Free one BTT entry mid-epoch (§4.3 overflow handling).

        An idle entry whose C_last is already at home drops for free.
        Failing that, an idle entry with C_last in region A is
        consolidated to home synchronously (payload captured now, write
        enqueued now, durable by the next commit's fence); a one-commit
        hint keeps any re-created entry pointing its writes away from
        the still-referenced region A copy.
        """
        fallback: Optional[BlockEntry] = None
        for block, entry in self.btt:
            if (entry.has_working_copy
                    or entry.gc_state is not GcState.NONE
                    or entry.coop_page is not None
                    or entry.absorbed_by_page):
                continue
            if entry.stable_region == REGION_B:
                self.btt.remove(block)
                return True
            if fallback is None:
                fallback = entry
        if fallback is None:
            return False
        block = fallback.block
        src = self.layout.region_block_addr(REGION_A, block)
        dst = self.layout.home_block_addr(block)
        nvm = self.memctrl.functional_store(DeviceKind.NVM)
        nvm.write(dst, nvm.read(src))
        self._issue_fire_and_forget(DeviceKind.NVM, dst, True,
                                    Origin.MIGRATION, data=nvm.read(src))
        self._evicted_blocks[block] = (REGION_A, 2)
        self.btt.remove(block)
        return True

    # ------------------------------------------------------------------
    # Epoch boundary (execution phase -> checkpointing phase)
    # ------------------------------------------------------------------

    def force_epoch_end(self, reason: str = "manual") -> None:
        """Public hook: end the active epoch as soon as possible."""
        if self._crashed:
            raise CrashedError("force_epoch_end on a crashed controller")
        self.epochs.request_end(reason)

    def persist_barrier(self, callback: Callable[[], None]) -> None:
        """Durability barrier (§6's explicit persistence instruction).

        Ends the active epoch and fires ``callback`` once a checkpoint
        covering every store issued so far has committed.
        """
        if self._crashed:
            raise CrashedError("persist_barrier on a crashed controller")
        target = self.epochs.active_epoch
        self._persist_waiters.append((target, callback))
        self.epochs.request_end("persist")

    def _fire_persist_waiters(self) -> None:
        committed = self.committed_meta.epoch
        ready = [cb for target, cb in self._persist_waiters
                 if committed >= target]
        self._persist_waiters = [(t, cb) for t, cb in self._persist_waiters
                                 if committed < t]
        for callback in ready:
            callback()

    def _on_epoch_end(self, reason: str) -> None:
        if self._crashed:
            return
        if reason == "overflow":
            self.stats.epochs_forced_by_overflow += 1
        if self.core is not None and not self.core.finished:
            if self.core.stalled:
                # A backpressure stall is already holding the core at a
                # boundary; the flush takes the stall over.
                self._backpressure_active = False
                self.core.change_stall_reason("flush")
                self._begin_boundary()
            elif self.core.stall_pending:
                self._backpressure_active = False
                self.core.cancel_stall_request()
                self.core.stall_at_next_boundary("flush",
                                                 self._begin_boundary)
            else:
                self.core.stall_at_next_boundary("flush",
                                                 self._begin_boundary)
        else:
            self._begin_boundary()

    def _begin_boundary(self) -> None:
        """CPU is frozen: flush its state and all dirty cache blocks.

        The stall lasts only as long as writeback *initiation* (§4.4:
        the flush initiates writebacks without invalidating); the
        checkpointing phase itself starts once every flush write has
        been accepted into a controller queue, so the commit fence is
        guaranteed to cover it.
        """
        if self._crashed:
            return
        if self.core is not None:
            self._boundary_cpu_state = self.core.state.capture()
        else:
            self._boundary_cpu_state = CpuState(self.config.cpu_state_bytes)

        self._boundary_gate = {"accept_parts": 2, "planned": False}

        # CPU-state writes to the backup region (§4.4).
        state_blocks = -(-self.config.cpu_state_bytes // self.config.block_bytes)
        remaining = {"n": state_blocks}

        def state_write_accepted() -> None:
            remaining["n"] -= 1
            if remaining["n"] == 0:
                self._boundary_accept_part()

        for i in range(state_blocks):
            hw_addr = self.layout.backup_addr(i * self.config.block_bytes)
            self._issue_write(DeviceKind.NVM, hw_addr, Origin.FLUSH,
                              None, None, on_accept=state_write_accepted)

        # Dirty cache blocks (writeback-without-invalidate).
        if self.hierarchy is not None:
            self.hierarchy.flush_dirty(
                Origin.FLUSH,
                on_accepted=lambda _n: self._boundary_accept_part(),
                on_initiated=lambda _n: self._boundary_plan())
        else:
            self._boundary_accept_part()
            self._boundary_plan()

    def _boundary_accept_part(self) -> None:
        if self._crashed or self._boundary_gate is None:
            return
        self._boundary_gate["accept_parts"] -= 1
        self._maybe_start_checkpoint()

    def _boundary_plan(self) -> None:
        """Flush initiated: plan epoch C's checkpoint (translation state
        is final for C), open epoch C+1 and resume the CPU."""
        if self._crashed:
            return
        epoch = self.epochs.active_epoch
        self._plan_counts = self.coordinator.epoch_rollover()
        self._planned_stages = self._plan_checkpoint(epoch)
        self.epochs.execution_phase_done()
        if self.core is not None and self.core.stalled:
            self.core.resume()
        if self._boundary_gate is not None:
            self._boundary_gate["planned"] = True
        self._maybe_start_checkpoint()

    def _maybe_start_checkpoint(self) -> None:
        gate = self._boundary_gate
        if gate is None or not gate["planned"] or gate["accept_parts"] > 0:
            return
        self._boundary_gate = None
        stages, self._planned_stages = self._planned_stages, []
        self._ckpt_run = CheckpointRun(
            self.engine, self.memctrl, stages,
            self.layout.commit_record_addr, self._on_commit)
        self._ckpt_run.start()

    # ------------------------------------------------------------------
    # Checkpoint planning (Figure 6(b) order)
    # ------------------------------------------------------------------

    def _plan_checkpoint(self, epoch: int) -> List[List[Job]]:
        layout = self.layout
        block_bytes = self.config.block_bytes

        # Stage 1: DRAM-buffered block working copies -> NVM.
        stage1: List[Job] = []
        self._plan_temp_entries = []
        for block in sorted(self._temp_by_epoch.pop(epoch, ())):
            entry = self.btt.lookup(block)
            if entry is None or epoch not in entry.temp_epochs:
                continue
            if entry.coop_page is not None:
                # Cooperation temps are merged into their page at the
                # commit of the checkpoint they detoured around, which
                # always precedes this epoch's own boundary.
                raise ProtocolError(
                    f"block {block}: unmerged cooperation temp at epoch "
                    f"{epoch} boundary")
            self._plan_temp_entries.append(entry)
            dst_region = other_region(entry.stable_region)
            stage1.append(Job(
                dst_kind=DeviceKind.NVM,
                dst_addr=layout.region_block_addr(dst_region, block),
                origin=Origin.CHECKPOINT,
                src_kind=DeviceKind.DRAM,
                src_addr=layout.temp_block_addr(block, epoch),
            ))

        # Blocks updated in place in NVM: metadata-only checkpointing —
        # the whole point of block remapping.
        self._plan_pending_entries = [
            e for e in (self.btt.lookup(b) for b in sorted(self._pending_blocks))
            if e is not None and e.pending_epoch == epoch
        ]
        self._pending_blocks.clear()

        # Stage 2: persist the BTT.
        stage2 = self._table_persist_jobs(
            self.btt, layout.btt_backup_offset, layout.btt_backup_blocks)

        # Stage 3: dirty pages -> NVM (full-page writeback).
        stage3: List[Job] = []
        self._plan_pages = []
        for page in sorted(self._dirty_pages):
            pe = self.ptt.lookup(page)
            if pe is None or not pe.dirty_active:
                continue
            pe.dirty_ckpt = pe.dirty_active
            pe.dirty_active = set()
            pe.ckpt_in_progress = True
            self._plan_pages.append(pe)
            dst_region = other_region(pe.stable_region)
            dst_base = layout.region_page_addr(dst_region, page)
            src_base = layout.page_slot_addr(pe.dram_slot)
            for offset in range(self.config.blocks_per_page):
                stage3.append(Job(
                    dst_kind=DeviceKind.NVM,
                    dst_addr=dst_base + offset * block_bytes,
                    origin=Origin.CHECKPOINT,
                    src_kind=DeviceKind.DRAM,
                    src_addr=src_base + offset * block_bytes,
                ))
        self._dirty_pages.clear()

        # Stage 4: persist the PTT.
        stage4 = self._table_persist_jobs(
            self.ptt, layout.ptt_backup_offset, layout.ptt_backup_blocks)

        # Reset per-entry store counters for the new epoch.
        for _index, entry in self.btt:
            entry.store_count = 0
        for _index, pe in self.ptt:
            pe.store_count = 0
        self.stats.table_entries_peak = max(
            self.stats.table_entries_peak, len(self.btt) + len(self.ptt))
        self.stats.btt_peak_entries = self.btt.peak_occupancy
        self.stats.ptt_peak_entries = self.ptt.peak_occupancy

        return [stage1, stage2, stage3, stage4]

    def _table_persist_jobs(self, table, base_offset: int,
                            area_blocks: int) -> List[Job]:
        nbytes = table.persist_bytes(self.policy.persist_full_tables)
        table.clear_dirty()
        block_bytes = self.config.block_bytes
        nblocks = -(-nbytes // block_bytes) if nbytes else 0
        jobs = []
        for i in range(nblocks):
            hw_addr = self.layout.backup_addr(
                base_offset + (i % area_blocks) * block_bytes)
            jobs.append(Job(dst_kind=DeviceKind.NVM, dst_addr=hw_addr,
                            origin=Origin.CHECKPOINT))
        if jobs:
            probes.notify("table-persist",
                          "btt" if table is self.btt else "ptt")
        return jobs

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def _on_commit(self) -> None:
        if self._crashed:
            return
        epoch = self.epochs.ckpt_epoch
        run = self._ckpt_run
        self._ckpt_run = None
        if run is not None and run.duration is not None:
            self.stats.checkpoint_busy_cycles += run.duration
            self.stats.checkpoint_duration.record(run.duration)

        # 1. Version flips: working copies become C_last (§3.2, §3.3).
        for entry in self._plan_temp_entries:
            entry.temp_epochs.discard(epoch)
            if entry.coop_page is None:
                entry.stable_region = other_region(entry.stable_region)
            self.btt.mark_dirty(entry.block)
        for entry in self._plan_pending_entries:
            entry.pending_epoch = None
            entry.stable_region = other_region(entry.stable_region)
            self.btt.mark_dirty(entry.block)
        for pe in self._plan_pages:
            pe.stable_region = other_region(pe.stable_region)
            pe.dirty_ckpt = set()
            pe.ckpt_in_progress = False
            self.ptt.mark_dirty(pe.page)
        self._plan_temp_entries = []
        self._plan_pending_entries = []

        # 2. Merge cooperation temps of the (still) active epoch into
        # their now-checkpointed pages.
        self._merge_coop_temps()

        # 3. Drop entries whose consolidation became durable.  If any
        # migration write is still outstanding (e.g. stuck behind a full
        # queue across the commit fence), defer all drops one commit.
        if self._migration_unserviced == 0:
            for entry in self._absorbed_to_drop:
                self.btt.remove(entry.block)
            self._absorbed_to_drop = []
            for entry in self._gc_issued:
                if entry.gc_state is GcState.ISSUED:
                    self.btt.remove(entry.block)
                # else: a new write cancelled the consolidation.
            self._gc_issued = []
            self._finish_demotions()

        # 4. Durable metadata snapshot — the atomic commit (§4.2).
        self.committed_meta = self._snapshot(epoch)

        # 5. Scheme switching for the coming epochs (§3.4).
        self._apply_scheme_switches()

        # 6. Bookkeeping and pipeline release.
        self.stats.epochs_completed += 1
        self._plan_pages = []
        self._age_eviction_shadows()
        self.epochs.checkpoint_committed()
        self._retry_blocked_writes()
        self._release_backpressure()
        self._fire_persist_waiters()
        probes.notify("commit")
        if self._drain_cb is not None:
            self._drain_step()

    def _age_eviction_shadows(self) -> None:
        for shadow in (self._evicted_blocks, self._evicted_pages):
            expired = []
            for key, (region, ttl) in shadow.items():
                if ttl <= 1:
                    expired.append(key)
                else:
                    shadow[key] = (region, ttl - 1)
            for key in expired:
                del shadow[key]

    def _merge_coop_temps(self) -> None:
        active = self.epochs.active_epoch
        dram = self.memctrl.functional_store(DeviceKind.DRAM)
        for block in sorted(self._temp_by_epoch.get(active, set())):
            entry = self.btt.lookup(block)
            if entry is None or entry.coop_page is None:
                continue
            page = entry.coop_page
            pe = self.ptt.lookup(page)
            if pe is None:
                raise ProtocolError(
                    f"coop temp for block {block} but page {page} untracked")
            offset = block - self.addresses.blocks_in_page(page).start
            temp_addr = self.layout.temp_block_addr(block, active)
            slot_addr = self.layout.slot_block_addr(pe.dram_slot, offset)
            dram.copy_block(temp_addr, slot_addr)
            self._issue_fire_and_forget(DeviceKind.DRAM, slot_addr, True,
                                        Origin.MIGRATION)
            pe.dirty_active.add(offset)
            self._dirty_pages.add(page)
            entry.temp_epochs.discard(active)
            self._temp_by_epoch.get(active, set()).discard(block)
            self.btt.remove(block)

    def _finish_demotions(self) -> None:
        for page, pe in list(self.ptt):
            if not pe.demote_requested:
                continue
            if pe.is_dirty or pe.ckpt_in_progress:
                pe.demote_requested = False   # cancelled by new writes
                continue
            self.ptt.remove(page)
            self.layout.release_slot(pe.dram_slot)

    def _snapshot(self, epoch: int) -> MetaSnapshot:
        # Evicted-but-not-yet-fence-covered translations stay in the
        # snapshot; live entries override them (values coincide anyway).
        blocks = {block: region
                  for block, (region, _ttl) in self._evicted_blocks.items()}
        blocks.update(
            (block, entry.stable_region)
            for block, entry in self.btt
            if entry.coop_page is None)
        pages = {page: (region, 0)
                 for page, (region, _ttl) in self._evicted_pages.items()}
        pages.update(
            (page, (pe.stable_region, pe.dram_slot))
            for page, pe in self.ptt)
        return MetaSnapshot(epoch=epoch, block_regions=blocks,
                            page_regions=pages,
                            cpu_state=self._boundary_cpu_state)

    # ------------------------------------------------------------------
    # Scheme switching + GC (executed at commit, after the snapshot)
    # ------------------------------------------------------------------

    def _apply_scheme_switches(self) -> None:
        counts = self._plan_counts
        self._plan_counts = {}
        committed_epoch = self.committed_meta.epoch

        if self.policy.enable_page_writeback and self.policy.enable_block_remapping:
            for page in self.coordinator.select_promotions(
                    counts, self.ptt, self.layout.slots_free):
                self._promote_page(page)

        if self.policy.enable_page_writeback:
            for pe in self.coordinator.select_demotions(counts, self.ptt):
                self._start_demotion(pe)

        # GC runs only under table pressure: consolidating idle entries
        # costs NVM bandwidth, so a mostly-empty BTT leaves them be.
        if (self.policy.enable_block_remapping
                and len(self.btt) >= (3 * self.btt.capacity) // 4):
            candidates = self.coordinator.select_gc(self.btt, committed_epoch)
            for entry in candidates:
                if entry.stable_region == REGION_B:
                    self.btt.remove(entry.block)
                else:
                    self._start_consolidation(entry)

    def _start_consolidation(self, entry: BlockEntry) -> None:
        """Copy an idle block's C_last from region A to home (B) so its
        BTT entry can be freed at the next commit.

        The payload is captured functionally and the home write is
        enqueued *now*: the NVM write-queue drain preceding the next
        commit then guarantees it is durable before the entry drops,
        and same-address FIFO keeps any later write to the home slot
        ordered after it.
        """
        entry.gc_state = GcState.ISSUED
        self._gc_issued.append(entry)
        src = self.layout.region_block_addr(REGION_A, entry.block)
        dst = self.layout.home_block_addr(entry.block)
        data = self.memctrl.functional_store(DeviceKind.NVM).read(src)
        self._issue_fire_and_forget(DeviceKind.NVM, src, False,
                                    Origin.MIGRATION)
        self._issue_fire_and_forget(DeviceKind.NVM, dst, True,
                                    Origin.MIGRATION, data=data)

    def _start_demotion(self, pe: PageEntry) -> None:
        pe.demote_requested = True
        self.stats.pages_demoted += 1
        probes.notify("demote", str(pe.page))
        if pe.stable_region == REGION_A:
            src_base = self.layout.page_slot_addr(pe.dram_slot)
            dst_base = self.layout.region_page_addr(REGION_B, pe.page)
            dram = self.memctrl.functional_store(DeviceKind.DRAM)
            for offset in range(self.config.blocks_per_page):
                step = offset * self.config.block_bytes
                data = dram.read(src_base + step)
                self._issue_fire_and_forget(DeviceKind.DRAM, src_base + step,
                                            False, Origin.MIGRATION)
                self._issue_fire_and_forget(DeviceKind.NVM, dst_base + step,
                                            True, Origin.MIGRATION, data=data)

    def _promote_page(self, page: int) -> None:
        stable = self._promotion_region(page)
        if stable is None:
            return   # mixed-region references; try again at a later commit
        slot = self.layout.allocate_slot()
        if slot is None:
            return
        pe = self.ptt.create(page, slot, stable)
        if pe is None:
            self.layout.release_slot(slot)
            return
        self.stats.pages_promoted += 1
        probes.notify("promote", str(page))
        self._assemble_page(pe)

    def _promotion_region(self, page: int) -> Optional[int]:
        """Initial stable region for a promotion, or None to defer.

        The page's first checkpoint writes the full page image into the
        complement of its initial stable region — and the per-page and
        per-block region addresses alias.  The metadata snapshot that
        committed *before* the promotion keeps referencing the page's
        blocks at their old per-block regions until the first page
        checkpoint commits, so that writeback must target the region
        holding *none* of those committed copies or a crash mid-writeback
        would corrupt the recovery image.  Declaring the region that
        holds them all as the entry's initial stable region is also
        functionally truthful: its page range is exactly the union of
        the per-block copies (a freshly hot page has all blocks at
        region A; an idle home page has them all at B).  Pages whose
        committed copies straddle both regions have no safe writeback
        target yet — defer those (at worst one commit, since blocks
        written every epoch alternate regions together).
        """
        if page in self._evicted_pages:
            return None   # fence-covered page copy still referenced
        ref_a = ref_b = False
        for block in self.addresses.blocks_in_page(page):
            entry = self.btt.lookup(block)
            if entry is not None:
                if entry.coop_page is not None:
                    continue   # committed reference goes via its page
                region = entry.stable_region
            else:
                shadow = self._evicted_blocks.get(block)
                region = shadow[0] if shadow is not None else REGION_B
            if region == REGION_A:
                ref_a = True
            else:
                ref_b = True
        if ref_a and ref_b:
            return None
        return REGION_A if ref_a else REGION_B

    def _adopt_page(self, page: int) -> Optional[PageEntry]:
        """Page-only mode: adopt on first write, mid-epoch."""
        slot = self.layout.allocate_slot()
        if slot is None and self._emergency_evict_page():
            slot = self.layout.allocate_slot()
        if slot is None:
            return None
        shadow = self._evicted_pages.get(page)
        stable = shadow[0] if shadow is not None else REGION_B
        pe = self.ptt.create(page, slot, stable)
        if pe is None:
            self.layout.release_slot(slot)
            return None
        self._assemble_page(pe)
        if self.layout.slots_free < max(1, self.layout.slots_total // 8):
            self.epochs.request_end("dram_full")
        return pe

    def _emergency_evict_page(self) -> bool:
        """Free one DRAM page slot mid-epoch.

        Clean pages whose C_last is already at home are dropped for
        free.  Failing that, a clean page with C_last in region A is
        consolidated to home synchronously (its DRAM copy equals
        C_last); a one-commit hint makes any re-adoption keep pointing
        its first checkpoint away from the still-referenced region A
        copy, preserving recoverability of the committed state.
        """
        fallback: Optional[PageEntry] = None
        for page, pe in self.ptt:
            if pe.is_dirty or pe.ckpt_in_progress:
                continue
            # Pages mid-demotion are clean too; evicting one simply
            # completes the demotion early (the consolidation write it
            # may need is idempotent).
            if pe.stable_region == REGION_B:
                self.ptt.remove(page)
                self.layout.release_slot(pe.dram_slot)
                return True
            if fallback is None:
                fallback = pe
        if fallback is None:
            return False
        pe = fallback
        src_base = self.layout.page_slot_addr(pe.dram_slot)
        dst_base = self.layout.region_page_addr(REGION_B, pe.page)
        dram = self.memctrl.functional_store(DeviceKind.DRAM)
        nvm = self.memctrl.functional_store(DeviceKind.NVM)
        blocks = self.config.blocks_per_page
        block_bytes = self.config.block_bytes
        payload = dram.read_run(src_base, blocks)
        nvm.write_run(dst_base, blocks, payload)
        for offset in range(blocks):
            step = offset * block_bytes
            self._issue_fire_and_forget(
                DeviceKind.NVM, dst_base + step, True, Origin.MIGRATION,
                data=payload[step:step + block_bytes])
        self._evicted_pages[pe.page] = (REGION_A, 2)
        self.ptt.remove(pe.page)
        self.layout.release_slot(pe.dram_slot)
        return True

    def _assemble_page(self, pe: PageEntry) -> None:
        """Gather a page's visible blocks into its new DRAM slot and
        consolidate scattered checkpoint copies into the Home Region.

        The functional copy happens immediately (so reads are never
        served from a half-built page); the bus traffic it would cost is
        issued as asynchronous MIGRATION requests carrying the same
        payloads.
        """
        layout = self.layout
        dram = self.memctrl.functional_store(DeviceKind.DRAM)
        nvm = self.memctrl.functional_store(DeviceKind.NVM)
        first_block = self.addresses.blocks_in_page(pe.page).start
        active = self.epochs.active_epoch
        for offset in range(self.config.blocks_per_page):
            block = first_block + offset
            slot_addr = layout.slot_block_addr(pe.dram_slot, offset)
            entry = self.btt.lookup(block)
            if entry is not None and entry.temp_epochs:
                # Live working data written by the active epoch: merge it
                # and remember it is not yet checkpointed.
                epoch = entry.newest_temp_epoch()
                temp_addr = layout.temp_block_addr(block, epoch)
                dram.copy_block(temp_addr, slot_addr)
                self._issue_fire_and_forget(DeviceKind.DRAM, slot_addr, True,
                                            Origin.MIGRATION)
                pe.dirty_active.add(offset)
                self._dirty_pages.add(pe.page)
                entry.temp_epochs.clear()
                self._temp_by_epoch.get(active, set()).discard(block)
            else:
                if entry is not None and entry.pending_epoch is not None:
                    raise ProtocolError(
                        f"block {block}: pending copy survived commit")
                region = entry.stable_region if entry is not None else REGION_B
                src = layout.region_block_addr(region, block)
                dram.write(slot_addr, nvm.read(src))
                self._issue_fire_and_forget(DeviceKind.NVM, src, False,
                                            Origin.MIGRATION)
                self._issue_fire_and_forget(DeviceKind.DRAM, slot_addr, True,
                                            Origin.MIGRATION)
                if entry is not None and region == REGION_A:
                    if entry.gc_state is not GcState.ISSUED:
                        self._issue_fire_and_forget(
                            DeviceKind.NVM, layout.home_block_addr(block),
                            True, Origin.MIGRATION, data=nvm.read(src))
            if entry is not None:
                entry.absorbed_by_page = True
                entry.coop_page = None
                entry.gc_state = GcState.NONE
                self._absorbed_to_drop.append(entry)

    # ------------------------------------------------------------------
    # Deferred / blocked write retry
    # ------------------------------------------------------------------

    def _retry_blocked_writes(self) -> None:
        deferred, self._deferred_writes = self._deferred_writes, []
        blocked, self._blocked_page_writes = self._blocked_page_writes, []
        for addr, origin, data, callback, on_accept in blocked + deferred:
            self.write_block(addr, origin, data, callback, on_accept)

    # ------------------------------------------------------------------
    # Drain (end of a benchmark run)
    # ------------------------------------------------------------------

    def drain(self, on_done: Callable[[], None]) -> None:
        """Finish all outstanding epochs/checkpoints, then call back.

        Runs two forced epoch boundaries: the first flushes the caches
        and checkpoints all live working copies, the second makes the
        resulting metadata durable even for data touched by the first.
        """
        if self._crashed:
            raise CrashedError("drain on a crashed controller")
        if self._drain_cb is not None:
            raise SimulationError("drain already in progress")
        self._drain_cb = on_done
        self._drain_rounds = 2
        self.epochs.request_end("drain")

    def _drain_step(self) -> None:
        self._drain_rounds -= 1
        if self._drain_rounds > 0:
            self.epochs.request_end("drain")
            return
        callback, self._drain_cb = self._drain_cb, None
        if callback is not None:
            callback()

    # ------------------------------------------------------------------
    # Crash + recovery
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Power failure: volatile state (DRAM, queues, live tables,
        CPU, caches) is lost; NVM and the committed metadata survive."""
        if self._crashed:
            raise CrashedError("controller has already crashed")
        self._crashed = True
        if self._ckpt_run is not None:
            self._ckpt_run.abort()
            self._ckpt_run = None
        if self._aux_run is not None:
            self._aux_run.abort()
            self._aux_run = None
        self._boundary_gate = None
        self.memctrl.crash()
        if self.core is not None:
            self.core.kill()
        if self.hierarchy is not None:
            self.hierarchy.invalidate_all()

    def recover(self) -> RecoveredState:
        """Run the §4.5 recovery procedure against NVM contents."""
        return recover(self.config, self.layout, self.memctrl,
                       self.committed_meta)

    def restore_from(self, recovered: RecoveredState) -> None:
        """Resume operation after :meth:`recover`: rebuild the live
        BTT/PTT from the durable metadata (hardware reloading its tables
        at boot, §4.5) so execution can continue — and crash again —
        seamlessly.
        """
        if not self._crashed:
            raise SimulationError("restore_from is only valid after a crash")
        meta = recovered.meta
        epoch = meta.epoch + 1

        # Rebuild translation state.  recover() already copied every
        # PTT page's checkpoint into its recorded DRAM slot.
        self.btt = BlockTranslationTable(self.config.btt_entries,
                                         self.config.btt_entry_bytes)
        self.ptt = PageTranslationTable(self.config.ptt_entries,
                                        self.config.ptt_entry_bytes)
        self._evicted_blocks = {}
        self._evicted_pages = {}
        overflow = []
        for block, region in meta.block_regions.items():
            if self.btt.create(block, region) is None:
                overflow.append((block, region))
        for block, region in overflow:
            # More durable entries than table capacity (eviction shadows
            # were live at the crash): consolidate the extras to home,
            # shadowed until a fence-covered snapshot excludes them.
            nvm = self.memctrl.functional_store(DeviceKind.NVM)
            src = self.layout.region_block_addr(region, block)
            dst = self.layout.home_block_addr(block)
            nvm.write(dst, nvm.read(src))
            self._evicted_blocks[block] = (region, 2)
        for page, (region, slot) in meta.page_regions.items():
            if self.ptt.create(page, slot, region) is None:
                raise SimulationError(
                    "recovered PTT exceeds capacity; cannot resume")
        self.layout.reset_slots(
            slot for _region, slot in meta.page_regions.values())

        # Fresh pipeline state in a powered-on machine.
        self._temp_by_epoch = {}
        self._pending_blocks = set()
        self._dirty_pages = set()
        self._plan_temp_entries = []
        self._plan_pending_entries = []
        self._plan_pages = []
        self._plan_counts = {}
        self._planned_stages = []
        self._boundary_gate = None
        self._deferred_writes = []
        self._blocked_page_writes = []
        self._backpressure_active = False
        self._gc_issued = []
        self._absorbed_to_drop = []
        self._migration_unserviced = 0
        self._persist_waiters = []
        self._drain_cb = None
        self._drain_rounds = 0
        self._ckpt_run = None
        self._aux_run = None
        self.coordinator = SchemeCoordinator(self.config.promote_threshold,
                                             self.config.demote_threshold)
        self.epochs = EpochManager(self.engine, self.config.epoch_cycles,
                                   self._on_epoch_end)
        self.epochs.active_epoch = epoch
        self.memctrl.power_on()
        self._crashed = False
        self.epochs.start()
        # Timed restore traffic (page copies) — recovery's latency is
        # reported on the RecoveredState; here we only account traffic.
        for page, (region, slot) in meta.page_regions.items():
            base = self.layout.region_page_addr(region, page)
            slot_base = self.layout.page_slot_addr(slot)
            for offset in range(self.config.blocks_per_page):
                step = offset * self.config.block_bytes
                self._issue_fire_and_forget(DeviceKind.NVM, base + step,
                                            False, Origin.RECOVERY)
                self._issue_fire_and_forget(DeviceKind.DRAM,
                                            slot_base + step, True,
                                            Origin.RECOVERY)

    # ------------------------------------------------------------------
    # Functional introspection (tests, examples)
    # ------------------------------------------------------------------

    def visible_block_bytes(self, block: int) -> bytes:
        """Current software-visible contents of a physical block."""
        kind, hw_addr = self._visible_location(block)
        return self.memctrl.functional_store(kind).read(hw_addr)

    def validate(self) -> None:
        """Check cross-structure invariants (tests call this liberally).

        Raises :class:`ProtocolError` on any violation:
        * every temp/pending index entry matches live BTT state,
        * temps belong only to the active or in-flight-checkpoint epoch,
        * PTT pages occupy distinct, allocated DRAM slots,
        * coop entries reference live PTT pages,
        * dirty-page index entries are PTT-resident.
        """
        active = self.epochs.active_epoch
        ckpt = self.epochs.ckpt_epoch
        for epoch, blocks in self._temp_by_epoch.items():
            if not blocks:
                continue
            if epoch not in (active, ckpt):
                raise ProtocolError(
                    f"temp index holds stale epoch {epoch} "
                    f"(active={active}, ckpt={ckpt})")
            for block in blocks:
                entry = self.btt.lookup(block)
                if entry is None or epoch not in entry.temp_epochs:
                    raise ProtocolError(
                        f"temp index block {block}@{epoch} not in BTT")
        for block, entry in self.btt:
            if entry.block != block:
                raise ProtocolError(f"BTT key/entry mismatch at {block}")
            for epoch in sorted(entry.temp_epochs):
                if epoch == ckpt:
                    # The planner consumed this epoch's index slice; the
                    # entry keeps the temp mark until the commit clears it
                    # (that mark is what DRAM_CHECKPOINTING derives from).
                    continue
                if block not in self._temp_by_epoch.get(epoch, ()):
                    raise ProtocolError(
                        f"BTT temp {block}@{epoch} missing from index")
            if entry.pending_epoch is not None and entry.temp_epochs:
                if entry.pending_epoch in entry.temp_epochs:
                    raise ProtocolError(
                        f"block {block}: same-epoch pending AND temp")
            if entry.coop_page is not None:
                if self.ptt.lookup(entry.coop_page) is None:
                    raise ProtocolError(
                        f"coop entry {block} for untracked page "
                        f"{entry.coop_page}")
        slots = {}
        for page, pe in self.ptt:
            if pe.page != page:
                raise ProtocolError(f"PTT key/entry mismatch at {page}")
            if pe.dram_slot in slots:
                raise ProtocolError(
                    f"pages {slots[pe.dram_slot]} and {page} share DRAM "
                    f"slot {pe.dram_slot}")
            slots[pe.dram_slot] = page
        for page in sorted(self._dirty_pages):
            pe = self.ptt.lookup(page)
            if pe is None:
                raise ProtocolError(f"dirty-page index has untracked {page}")

    def metadata_bytes_in_use(self) -> int:
        """Current translation-table storage footprint (Table 1 metric)."""
        return (len(self.btt) * self.btt.entry_bytes
                + len(self.ptt) * self.ptt.entry_bytes)
