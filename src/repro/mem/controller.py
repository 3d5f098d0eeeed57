"""The memory controller: four bounded queues feeding two devices.

This models the controller in Figure 2 of the paper: separate read and
write queues for DRAM and for NVM.  Scheduling per device is FR-FCFS
with read priority, watermark-based write draining, and **bank-level
parallelism**: each device services one request per bank concurrently
(the data-bus burst is folded into the access latency).  Checkpointing
traffic shares these queues with demand traffic, which is how ThyNVM's
overlapped checkpointing contends for — and is hidden by — memory
bandwidth.

Ordering and visibility rules the consistency protocols rely on:

* same-address requests within a queue are never reordered,
* reads forward data from still-queued same-address writes,
* a write becomes durable (reaches the functional store) exactly when
  the device services it; anything still queued at :meth:`crash` is
  lost, like real controller SRAM on power failure,
* :meth:`fence_writes` implements §4.4's "flush the NVM write queue":
  a fence over writes submitted so far, unaffected by later arrivals.

Bulk runs (docs/PERFORMANCE.md): page-sized copies and checkpoint
flushes enter as one :meth:`submit_bulk` / :meth:`bulk_admit_next` run
instead of one request per block.  The device still services runs block
by block with full re-arbitration, per-block wear accounting, per-block
slot backpressure and per-block completion events, so a run is
timing-identical to the per-block request storm it replaces; only the
host-side object churn is gone.  When a run cannot legally extend its
queue entry (another entry holds the FIFO tail), the next block is
admitted as an ordinary single request at exactly the position the
per-block representation would have given it.
"""

from __future__ import annotations

import enum
import os
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..config import SystemConfig
from ..errors import SimulationError
from ..sim.engine import Engine
from ..sim.event import Event
from ..sim.queueing import BoundedQueue
from ..sim.request import MemoryRequest
from ..stats.collector import StatsCollector
from .datastore import FunctionalStore, NullStore
from .device import MemoryDevice


class DeviceKind(enum.Enum):
    """Which device a request targets."""

    DRAM = "dram"
    NVM = "nvm"


class _DeviceState:
    """Per-device scheduling state inside the controller.

    Stats channels are resolved once here — the completion path then
    increments pre-bound per-origin counters instead of string-
    dispatching on the device name per serviced request.
    """

    __slots__ = ("device", "store", "read_queue", "write_queue",
                 "active", "write_inflight", "kicking", "settled",
                 "draining", "fence_blockers", "read_counts", "write_counts",
                 "record_read_latency", "record_write_latency")

    def __init__(self, device: MemoryDevice, store, read_q: BoundedQueue,
                 write_q: BoundedQueue, stats: StatsCollector) -> None:
        self.device = device
        self.store = store
        self.read_queue = read_q
        self.write_queue = write_q
        # bank -> (completion event, request) for in-flight services.
        self.active: Dict[int, Tuple[Event, MemoryRequest]] = {}
        # In-flight write accesses (block granularity), kept as a plain
        # counter: the drain check is an integer test, and write fences
        # recover the in-flight request set from ``active``.
        self.write_inflight = 0
        self.kicking = False
        # True when the last full scheduling pass proved no queued block
        # is serviceable (every candidate's bank busy or chain-blocked).
        # Lets admission for a busy bank skip the futile re-scan; any
        # bank release clears it (see _kick_admit).
        self.settled = False
        self.draining = False
        # Write fences, indexed by blocking request id: req_id -> the
        # [outstanding count, callback] cells that wait on it.  A
        # completing write touches only its own fences, not all of them.
        # (Bulk runs carry their fence links on the request instead.)
        self.fence_blockers: Dict[int, List[list]] = {}
        reads, writes, read_hist, write_hist = \
            stats.device_channels(device.name)
        self.read_counts = reads.raw_counts()
        self.write_counts = writes.raw_counts()
        self.record_read_latency = read_hist.record
        self.record_write_latency = write_hist.record

    @property
    def busy(self) -> bool:
        return bool(self.active)


class MemoryController:
    """Schedules block requests onto the DRAM and NVM devices."""

    def __init__(self, engine: Engine, config: SystemConfig,
                 stats: StatsCollector) -> None:
        self.engine = engine
        self.config = config
        self.stats = stats
        self._states: Dict[DeviceKind, _DeviceState] = {}
        for kind, persistent in ((DeviceKind.DRAM, False), (DeviceKind.NVM, True)):
            device = MemoryDevice(
                kind.value, config.dram if kind is DeviceKind.DRAM else config.nvm,
                config.row_bytes, config.num_banks, persistent)
            self._states[kind] = _DeviceState(
                device,
                self._build_store(config, kind, persistent),
                BoundedQueue(f"{kind.value}-read", config.read_queue_entries),
                BoundedQueue(f"{kind.value}-write", config.write_queue_entries),
                stats,
            )
        # The producer API resolves device state with an identity branch
        # instead of hashing the DeviceKind enum (runs per request).
        self._dram = self._states[DeviceKind.DRAM]
        self._nvm = self._states[DeviceKind.NVM]
        self.crashed = False
        # Requests accepted through the producer API.  A bulk run counts
        # once however many blocks it covers; the per-block service
        # count lives in the stats counters (``request_blocks`` in
        # ``repro perf``).
        self.requests_issued = 0

    @staticmethod
    def _build_store(config: SystemConfig, kind: DeviceKind,
                     persistent: bool):
        """The backing store one device uses (docs/PERSISTENCE.md)."""
        mode = config.store_mode
        if mode == "auto":
            mode = "functional" if config.track_data else "null"
        if mode == "functional":
            return FunctionalStore(config.block_bytes)
        if mode == "null":
            return NullStore(config.block_bytes)
        # mmap: file-backed, sized from the hardware layout.  Lazy import
        # keeps module-level mem <-> core imports acyclic.
        from ..core.regions import HardwareLayout
        from .mmapstore import MmapStore
        layout = HardwareLayout(config)
        capacity = layout.nvm_bytes if persistent else layout.dram_bytes
        os.makedirs(config.store_dir, exist_ok=True)
        store = MmapStore(
            config.block_bytes, capacity,
            os.path.join(config.store_dir, f"{kind.value}.img"),
            # The DRAM file is out-of-core backing, not a durability
            # surface (recovery never reads it), so only the NVM image
            # pays medium flushes.
            msync_policy=config.msync_policy if persistent else "none")
        if not persistent:
            # DRAM is volatile: never attach to a previous life's bytes.
            store.erase()
        return store

    # --- producer API ------------------------------------------------------

    def submit(self, kind: DeviceKind, request: MemoryRequest) -> bool:
        """Enqueue ``request``; returns False if the target queue is full."""
        if self.crashed:
            return False
        state = self._dram if kind is DeviceKind.DRAM else self._nvm
        queue = state.write_queue if request.is_write else state.read_queue
        request.issue_time = self.engine.now
        if request.bank is None:
            # Decode once; every scheduling pass reuses the cached
            # bank/row instead of re-deriving them per candidate.
            request.bank, request.row = state.device.decode(request.addr)
        if not queue.try_enqueue(request):
            request.issue_time = None
            return False
        self.requests_issued += 1
        self._kick_admit(state, request.bank)
        return True

    def submit_bulk(self, kind: DeviceKind, request: MemoryRequest) -> bool:
        """Accept a bulk run and drive it to full admission.

        As many blocks as fit are admitted now; each remaining block
        registers one queue waiter — exactly the retry the per-block
        representation registered per rejected request — and is admitted
        (run extension, or single-request fallback) as slots free up.
        Always returns True: the run is owned by the controller once
        accepted.  Per-block completion callbacks report progress.
        """
        if self.crashed:
            return False
        state = self._dram if kind is DeviceKind.DRAM else self._nvm
        queue = state.write_queue if request.is_write else state.read_queue
        self._decode_bulk(state, request)
        request.issue_time = self.engine.now
        self.requests_issued += 1
        admitted = queue.try_enqueue_bulk(request)
        if admitted:
            now = self.engine.now
            request.admit_times.extend([now] * admitted)
        remaining = request.total - request.issued
        if remaining:
            def waiter():
                self._bulk_admit_one(state, queue, request)

            for _ in range(remaining):
                queue.wait_for_slot(waiter)
        if admitted:
            self._kick_admit(state, request.bank)
        return True

    def bulk_admit_next(self, kind: DeviceKind, request: MemoryRequest,
                        data: Optional[bytes] = None) -> bool:
        """Admit the next block of a caller-paced bulk run.

        Returns False when the queue is full (the caller registers
        :meth:`wait_for_slot` and retries, exactly like a failed
        :meth:`submit`).  ``data`` is the block's write payload, if any.
        Checkpoint runs use this to keep their in-flight window.
        """
        if self.crashed:
            return False
        state = self._dram if kind is DeviceKind.DRAM else self._nvm
        queue = state.write_queue if request.is_write else state.read_queue
        if queue._size >= queue.capacity:
            return False
        if request.bank is None:
            self._decode_bulk(state, request)
            request.issue_time = self.engine.now
            self.requests_issued += 1
        if data is not None:
            request.block_data[request.issued] = data
        if queue.grow_bulk(request):
            request.admit_times.append(self.engine.now)
        else:
            self._admit_fallback(state, queue, request)
        self._kick_admit(state, request.bank)
        return True

    def _decode_bulk(self, state: _DeviceState,
                     request: MemoryRequest) -> None:
        """Cache the run's bank/row; a run must stay inside one row so
        that one decode (and one FR-FCFS candidate) covers every block."""
        device = state.device
        bank, row = device.decode(request.addr)
        last = request.addr + (request.total - 1) * request.stride
        if device.decode(last) != (bank, row):
            raise SimulationError(
                f"bulk run 0x{request.addr:x}+{request.total}x"
                f"{request.stride} crosses a row boundary")
        request.bank = bank
        request.row = row

    def _bulk_admit_one(self, state: _DeviceState, queue: BoundedQueue,
                        request: MemoryRequest) -> None:
        """Queue-waiter target: admit one more block of a run.

        Woken waiters own the slot that just freed, so admission cannot
        fail; it lands as a run extension when the run holds the queue
        tail, else as a position-exact single-request fallback.
        """
        if self.crashed:
            return
        if queue.grow_bulk(request):
            request.admit_times.append(self.engine.now)
        else:
            self._admit_fallback(state, queue, request)
        self._kick_admit(state, request.bank)

    def _admit_fallback(self, state: _DeviceState, queue: BoundedQueue,
                        request: MemoryRequest) -> None:
        """Admit run block ``request.issued`` as an ordinary single
        request (the run cannot extend its entry without jumping the
        FIFO order).  The single completes through the normal path and
        relays into the run's per-block callback."""
        index = request.issued
        addr = request.addr + index * request.stride
        data = (request.block_data[index]
                if request.block_data is not None else None)
        single = MemoryRequest(addr, request.is_write, request.origin,
                               data=data)
        if request.callback is not None:
            single.callback = partial(self._fallback_done, request, index)
        single.bank = request.bank
        single.row = request.row
        single.issue_time = self.engine.now
        request.issued += 1
        request.admit_times.append(self.engine.now)
        if not queue.try_enqueue(single):
            raise SimulationError("fallback admission on a full queue")

    def _fallback_done(self, bulk: MemoryRequest, index: int,
                       single: MemoryRequest) -> None:
        callback = bulk.callback
        if callback is not None:
            callback(bulk, index, single.data)

    def wait_for_slot(self, kind: DeviceKind, is_write: bool,
                      callback: Callable[[], None]) -> None:
        """Invoke ``callback`` when a slot frees in the chosen queue."""
        state = self._dram if kind is DeviceKind.DRAM else self._nvm
        queue = state.write_queue if is_write else state.read_queue
        queue.wait_for_slot(callback)

    def fence_writes(self, kind: DeviceKind,
                     callback: Callable[[], None]) -> None:
        """Write fence (§4.4's NVM write-queue flush): ``callback`` fires
        once every write *currently* queued or in flight on the device
        has been serviced.  Writes submitted after the fence do not
        delay it."""
        state = self._states[kind]
        # Queued and in-flight accesses are disjoint (a block leaves its
        # queue slot when service starts), so each outstanding write
        # block is counted exactly once.  Singles are indexed by request
        # id; a bulk run carries its fence links directly and pays one
        # decrement per subsequent block completion — in-order service
        # within a run makes "the next `covered` completions" exactly
        # the blocks outstanding now.  Blocks of a run not yet admitted
        # are writes "after the fence" and are not covered, matching the
        # per-block representation where they are not yet queued.
        fence = [0, callback]
        blockers = state.fence_blockers
        outstanding = 0
        for request in state.write_queue.items():
            if request.total == 1:
                blockers.setdefault(request.req_id, []).append(fence)
                outstanding += 1
            else:
                covered = request.queued + (request.serviced
                                            - request.completed)
                request.fences.append([fence, covered])
                outstanding += covered
        for _event, request in state.active.values():
            if not request.is_write:
                continue
            if request.total == 1:
                blockers.setdefault(request.req_id, []).append(fence)
                outstanding += 1
            elif not request.in_queue:
                # A run with no queued blocks left but one still in
                # flight (a run keeps at most one access in flight —
                # its blocks share a bank).  Queued runs were covered
                # above, in-flight block included.
                covered = request.serviced - request.completed
                if covered:
                    request.fences.append([fence, covered])
                    outstanding += covered
        if not outstanding:
            callback()
            return
        fence[0] = outstanding

    # --- functional access for recovery (not timed) --------------------------

    def functional_store(self, kind: DeviceKind):
        """Direct access to a device's backing store (recovery/tests)."""
        return self._states[kind].store

    def msync(self) -> None:
        """Flush both device stores to their backing medium.

        Fence-like on the store surface: after it returns, every
        serviced write is in the mapped file (subject to the msync
        policy), not just the process's page mappings.  The checkpoint
        machinery calls this when a commit record is serviced.  After
        :meth:`crash` it does nothing: the power is off.
        """
        if self.crashed:
            return
        for state in self._states.values():
            state.store.msync()

    def device(self, kind: DeviceKind) -> MemoryDevice:
        """The underlying timing device (wear/row-buffer introspection)."""
        return self._states[kind].device

    # --- occupancy introspection ---------------------------------------------

    def queue_depth(self, kind: DeviceKind, is_write: bool) -> int:
        state = self._states[kind]
        return len(state.write_queue if is_write else state.read_queue)

    @property
    def idle(self) -> bool:
        """True when no request is queued or in flight on either device."""
        return all(
            not s.active and not s.read_queue and not s.write_queue
            for s in self._states.values())

    # --- crash model -------------------------------------------------------------

    def crash(self) -> None:
        """Power loss: queued requests vanish, DRAM contents vanish.

        NVM retains everything already serviced.  In-flight requests
        (being serviced at crash time) are conservatively lost too.
        """
        self.crashed = True
        for state in self._states.values():
            state.read_queue.drop_all()
            state.write_queue.drop_all()
            state.fence_blockers.clear()
            for event, request in state.active.values():
                event.cancel()
                if request.total > 1:
                    request.fences.clear()
            state.active.clear()
            state.write_inflight = 0
            state.settled = False
            state.device.reset_row_buffers()
            if not state.device.persistent:
                state.store.erase()

    def power_on(self) -> None:
        """Restart the controller after :meth:`crash` (recovery path)."""
        self.crashed = False

    # --- scheduler ---------------------------------------------------------------

    def _kick(self, state: _DeviceState) -> None:
        """Issue every request that can start now (one per free bank)."""
        if state.kicking or self.crashed:
            return
        state.kicking = True
        try:
            settled = False
            while len(state.active) < state.device.num_banks:
                request = self._select(state)
                if request is None:
                    settled = True
                    break
                self._start_service(state, request)
            state.settled = settled
        finally:
            state.kicking = False

    def _kick_admit(self, state: _DeviceState, bank: int) -> None:
        """The post-admission kick, given that exactly one block for
        ``bank`` was just admitted.

        When the device is *settled* (the last pass proved nothing is
        serviceable — a fact only a bank release can change, and bank
        releases clear the flag) and ``bank`` is busy, the new block is
        ineligible and nothing else became eligible, so the full scan
        would provably select nothing.  Mirror the one write-drain
        hysteresis update that scan's single futile ``_select`` would
        have applied and return.  All other cases take the full pass.
        """
        if state.kicking or self.crashed:
            return
        active = state.active
        if bank in active and state.settled:
            # A full house does zero _select passes; match it exactly.
            if len(active) < state.device.num_banks:
                writes = state.write_queue
                pending_writes = writes._size
                if state.draining and pending_writes <= writes.capacity // 4:
                    state.draining = False
                if (not state.draining
                        and pending_writes >= (3 * writes.capacity) // 4):
                    state.draining = True
            return
        self._kick(state)

    def _start_service(self, state: _DeviceState,
                       request: MemoryRequest) -> None:
        bank = request.bank
        if bank in state.active:
            raise SimulationError("selected a request for a busy bank")
        if request.total == 1:
            latency = state.device.access_decoded(
                bank, request.row, request.addr, request.is_write)
            # The completion event carries the device state directly: the
            # hot path never re-resolves the enum-keyed _states dict.
            event = self.engine.schedule(
                latency, self._complete, state, request, bank)
        else:
            # One block of a run: per-block device access (row-buffer
            # state and per-block wear behave as if issued singly).
            addr = request.service_addr
            latency = state.device.access_decoded(
                bank, request.row, addr, request.is_write)
            event = self.engine.schedule(
                latency, self._complete_bulk, state, request, bank,
                addr, request.service_index)
        if request.is_write:
            state.write_inflight += 1
        state.active[bank] = (event, request)

    def _select(self, state: _DeviceState) -> Optional[MemoryRequest]:
        """FR-FCFS over free banks, with read priority and write drain.

        Demand reads beat background (migration/recovery) reads: a
        page-assembly burst must not stall the pipeline.  Writes carry
        no such priority, so ``demand_priority`` is only set for the
        read queue.
        """
        reads, writes = state.read_queue, state.write_queue
        pending_writes = writes._size
        if state.draining and pending_writes <= writes.capacity // 4:
            state.draining = False
        if not state.draining and pending_writes >= (3 * writes.capacity) // 4:
            state.draining = True

        active = state.active
        open_rows = state.device.open_rows
        if state.draining:
            if pending_writes:
                request = writes.pop_ready(active, open_rows, False)
                if request is not None:
                    return request
            if reads._size:
                return reads.pop_ready(active, open_rows, True)
        else:
            if reads._size:
                request = reads.pop_ready(active, open_rows, True)
                if request is not None:
                    return request
            if pending_writes:
                return writes.pop_ready(active, open_rows, False)
        return None

    def _complete(self, state: _DeviceState, request: MemoryRequest,
                  bank: int) -> None:
        del state.active[bank]
        state.settled = False     # a free bank may unblock queued work
        latency = (self.engine.now - request.issue_time
                   if request.issue_time is not None else None)
        if request.is_write:
            state.write_inflight -= 1
            state.store.write(request.addr, request.data)
            state.write_counts[request.origin_key] += 1
            if latency is not None:
                state.record_write_latency(latency)
        else:
            # Read-after-write forwarding: a still-queued write to the
            # same address is younger than this read in program order
            # (reads and writes sit in separate queues), so the read
            # must observe it.  Take the youngest matching payload.
            # A read that delivers to no one (payload-free timing
            # traffic — the functional copy already happened as a
            # store splice) skips the lookup: its payload is
            # unobservable, so fetching it is pure store pressure.
            if request.callback is not None:
                payload = state.write_queue.youngest_payload(request.addr)
                if payload is None:
                    payload = state.store.read(request.addr)
                request.data = payload
            state.read_counts[request.origin_key] += 1
            if latency is not None:
                state.record_read_latency(latency)
        request.complete(self.engine.now)
        if request.is_write and state.fence_blockers:
            for fence in state.fence_blockers.pop(request.req_id, ()):
                fence[0] -= 1
                if fence[0] == 0:
                    fence[1]()
        self._kick(state)

    def _complete_bulk(self, state: _DeviceState, request: MemoryRequest,
                       bank: int, addr: int, index: int) -> None:
        """Completion of one block of a bulk run — the per-block twin of
        :meth:`_complete`, with latency measured from the block's own
        admission time."""
        del state.active[bank]
        state.settled = False     # a free bank may unblock queued work
        now = self.engine.now
        latency = now - request.admit_times[index]
        payload = None
        if request.is_write:
            state.write_inflight -= 1
            if request.block_data is not None:
                state.store.write(addr, request.block_data[index])
            state.write_counts[request.origin_key] += 1
            state.record_write_latency(latency)
            request.completed += 1
            fences = request.fences
            if fences:
                position = 0
                while position < len(fences):
                    pair = fences[position]
                    pair[1] -= 1
                    fence = pair[0]
                    fence[0] -= 1
                    if fence[0] == 0:
                        fence[1]()
                    if pair[1] == 0:
                        fences.pop(position)
                    else:
                        position += 1
        else:
            # Same rule as _complete: no callback means the payload is
            # unobservable, so skip forwarding and the store read.
            if request.callback is not None:
                payload = state.write_queue.youngest_payload(addr)
                if payload is None:
                    payload = state.store.read(addr)
            state.read_counts[request.origin_key] += 1
            state.record_read_latency(latency)
            request.completed += 1
        if request.completed > request.serviced:
            # Typestate: 0 <= completed <= serviced <= issued <= total.
            # A completion overtaking the service frontier means the
            # queue advanced `serviced` non-monotonically, and the fence
            # accounting (`queued + serviced - completed`) undercounts
            # in-flight blocks — a commit could outrun this run's data.
            raise SimulationError(
                f"bulk run service order violated: completed cursor "
                f"{request.completed} overtook serviced "
                f"{request.serviced} for {request!r}")
        callback = request.callback
        if callback is not None:
            callback(request, index, payload)
        self._kick(state)
