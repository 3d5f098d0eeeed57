"""Bounded request queues with backpressure.

The memory controller in Figure 2 of the paper has four queues: DRAM
read, DRAM write, NVM read and NVM write.  :class:`BoundedQueue` models
one of them.  Producers that find the queue full register a waiter
callback and are re-tried in FIFO order as slots free up — this is how
checkpointing traffic exerts backpressure on the CPU (and vice versa).

Capacity is counted in *blocks*.  Most queued entries are single-block
requests; a **bulk run** (``MemoryRequest.bulk``) is one entry that
occupies one slot per admitted-but-unserviced block.  Runs keep the
exact semantics of the per-block representation they replace
(docs/PERFORMANCE.md):

* a run's blocks are admitted in order and only ever appended at the
  queue *tail* (`try_enqueue_bulk` on first admission, `grow_bulk`
  afterwards) — `grow_bulk` refuses when the run is not the tail entry,
  and the caller admits that block as an ordinary single request
  instead, so every block lands at exactly the FIFO position it would
  have occupied as an individual request;
* every admitted block is registered in the per-address index, so
  same-address ordering and read-after-write forwarding see bulk
  blocks exactly like singles;
* the scheduler services a run one block at a time with full
  re-arbitration in between; all blocks of a run share one (bank, row,
  demand) so only the run's oldest unserviced block (``head_addr``)
  can ever be the FR-FCFS pick, which is also true of the per-block
  representation;
* a block's slot frees (waking one waiter) when its service starts,
  just as popping an individual request did.

The queue keeps a per-address index (address → FIFO chain of queued
entries) alongside the FIFO deque, so the scheduler's same-address
ordering check and the controller's read-after-write forwarding are
O(1)/O(chain) lookups instead of full-queue scans.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional

from ..errors import SimulationError
from .request import MemoryRequest


class BoundedQueue:
    """FIFO of :class:`MemoryRequest` entries with a block capacity."""

    def __init__(self, name: str, capacity: int) -> None:
        if capacity <= 0:
            raise SimulationError(f"queue {name!r} needs positive capacity")
        self.name = name
        self.capacity = capacity
        self._items: Deque[MemoryRequest] = deque()
        # addr -> same-address entries, oldest first.  An entry is
        # eligible for (re)scheduling only while it heads the chain of
        # its next unserviced block's address.
        self._by_addr: Dict[int, Deque[MemoryRequest]] = {}
        self._waiters: Deque[Callable[[], None]] = deque()
        self._size = 0            # occupied slots, in blocks
        # Entries (not blocks) carrying demand traffic.  When the queue
        # is single-class — all demand or all background — priority
        # cannot discriminate and pop_ready's scan may stop at the first
        # ready row-hit instead of walking the whole FIFO.
        self._demand_entries = 0
        self.max_occupancy = 0
        self.total_enqueued = 0

    # --- producer side ---------------------------------------------------

    @property
    def full(self) -> bool:
        return self._size >= self.capacity

    def try_enqueue(self, request: MemoryRequest) -> bool:
        """Append a single-block ``request`` if a slot is free."""
        if self._size >= self.capacity:
            return False
        self._items.append(request)
        if request.demand:
            self._demand_entries += 1
        chain = self._by_addr.get(request.addr)
        if chain is None:
            self._by_addr[request.addr] = chain = deque()
        chain.append(request)
        size = self._size + 1
        self._size = size
        self.total_enqueued += 1
        if size > self.max_occupancy:
            self.max_occupancy = size
        return True

    def try_enqueue_bulk(self, request: MemoryRequest) -> int:
        """First admission of a bulk run: append one entry at the tail
        covering as many of its blocks as there are free slots.

        Returns the number of blocks admitted (0 when full).  The
        caller registers one waiter per unadmitted block, exactly as
        the per-block representation registered one retry per rejected
        request.
        """
        free = self.capacity - self._size
        if free <= 0:
            return 0
        count = min(free, request.total - request.issued)
        self._admit_blocks(request, count)
        if not request.in_queue:
            self._items.append(request)
            request.in_queue = True
            if request.demand:
                self._demand_entries += 1
        return count

    def grow_bulk(self, request: MemoryRequest) -> bool:
        """Admit one more block of ``request`` at its exact FIFO slot.

        Only legal when that slot is the queue tail: the run is the
        tail entry, or the run is not queued at all (fully serviced or
        never admitted) and re-enters as a fresh tail entry.  Returns
        False when the queue is full or another entry holds the tail —
        the caller then admits the block as an ordinary single request,
        which preserves exact per-block FIFO order.
        """
        if self._size >= self.capacity:
            return False
        if request.in_queue:
            if self._items[-1] is not request:
                return False
        else:
            self._items.append(request)
            request.in_queue = True
            if request.demand:
                self._demand_entries += 1
        # Single-block admission, inlined from _admit_blocks: this runs
        # once per grown block on the hot path.
        index = request.issued
        addr = request.addr + index * request.stride
        chain = self._by_addr.get(addr)
        if chain is None:
            self._by_addr[addr] = chain = deque()
        chain.append(request)
        pending = request.pending
        pending.append((addr, index))
        request.issued = index + 1
        request.queued += 1
        request.head_addr = pending[0][0]
        size = self._size + 1
        self._size = size
        self.total_enqueued += 1
        if size > self.max_occupancy:
            self.max_occupancy = size
        return True

    def _admit_blocks(self, request: MemoryRequest, count: int) -> None:
        by_addr = self._by_addr
        index = request.issued
        addr = request.addr + index * request.stride
        stride = request.stride
        pending = request.pending
        for _ in range(count):
            chain = by_addr.get(addr)
            if chain is None:
                by_addr[addr] = chain = deque()
            chain.append(request)
            pending.append((addr, index))
            addr += stride
            index += 1
        request.issued = index
        request.queued += count
        request.head_addr = pending[0][0]
        size = self._size + count
        self._size = size
        self.total_enqueued += count
        if size > self.max_occupancy:
            self.max_occupancy = size

    def wait_for_slot(self, callback: Callable[[], None]) -> None:
        """Call ``callback`` once, the next time a slot frees up."""
        self._waiters.append(callback)

    # --- consumer side ---------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def items(self):
        """Iterate queued *entries* oldest-first (a bulk run appears
        once; its occupied slots are ``entry.queued``).  Write fences
        snapshot their outstanding set from this."""
        return iter(self._items)

    def youngest_payload(self, addr: int) -> Optional[bytes]:
        """Data of the youngest queued same-address request carrying a
        payload, or None.  Read-after-write forwarding uses this instead
        of scanning the whole queue: the index chain holds exactly the
        same-address entries, oldest first."""
        chain = self._by_addr.get(addr)
        if not chain:
            return None
        for request in reversed(chain):
            if request.total == 1:
                if request.data is not None:
                    return request.data
            elif request.block_data is not None:
                data = request.block_data[(addr - request.addr)
                                          // request.stride]
                if data is not None:
                    return data
        return None

    def _unindex(self, request: MemoryRequest, addr: int) -> None:
        """Drop ``request``'s block at ``addr`` from its address chain
        (it must head it)."""
        chain = self._by_addr[addr]
        if chain[0] is not request:
            raise SimulationError(
                f"queue {self.name!r} index corrupt: removed request is "
                f"not the oldest for address 0x{addr:x}")
        chain.popleft()
        if not chain:
            del self._by_addr[addr]

    def _service_head_block(self, request: MemoryRequest, index: int) -> None:
        """Start-of-service bookkeeping for the entry at ``_items`` position
        ``index``: free the block's slot, advance run cursors, record the
        serviced block in ``service_addr``/``service_index``."""
        addr = request.head_addr
        self._unindex(request, addr)
        self._size -= 1
        if request.total == 1:
            del self._items[index]
            if request.demand:
                self._demand_entries -= 1
        else:
            block_addr, block_index = request.pending.popleft()
            if block_addr != addr:
                raise SimulationError(
                    f"queue {self.name!r}: run head 0x{addr:x} does not "
                    f"match its oldest pending block 0x{block_addr:x}")
            request.service_addr = addr
            request.service_index = block_index
            request.serviced += 1
            queued = request.queued - 1
            request.queued = queued
            if queued == 0:
                del self._items[index]
                request.in_queue = False
                if request.demand:
                    self._demand_entries -= 1
            else:
                request.head_addr = request.pending[0][0]
        waiters = self._waiters
        if waiters:
            waiters.popleft()()

    def pop(self) -> MemoryRequest:
        """Start service on the head entry's oldest block; wakes one
        waiter.  Returns the entry (for a bulk run, ``service_addr`` /
        ``service_index`` say which block)."""
        if not self._items:
            raise SimulationError(f"pop from empty queue {self.name!r}")
        request = self._items[0]
        self._service_head_block(request, 0)
        return request

    def pop_ready(
        self,
        busy_banks,
        open_rows,
        demand_priority: bool = False,
    ) -> Optional[MemoryRequest]:
        """Remove the best serviceable block, or None.

        ``busy_banks`` is a container supporting ``in`` over bank
        numbers with an in-flight service; ``open_rows`` maps bank →
        open row (indexable, None = closed).  Entries carry their
        pre-decoded ``bank``/``row``/``demand`` fields, so candidate
        evaluation is attribute reads, not callbacks (see
        docs/PERFORMANCE.md; the straight-line reference semantics are
        pinned by tests/property/test_pop_ready_reference.py).

        Among ready blocks the ordering is: demand beats background
        (only when ``demand_priority``), row-buffer hits beat misses,
        older beats younger.  Same-address requests are never
        reordered: a block is ineligible while an older same-address
        block is still queued — equivalently, while its entry is not
        the head of the block's address chain.  A bulk run's candidate
        is its oldest unserviced block; its younger siblings share the
        same (bank, row, demand) and can never beat it, exactly as in
        the per-block representation.
        """
        best_index = -1
        best_request = None
        best_key = 4                 # above the worst key (2*d + p <= 3)
        by_addr = self._by_addr
        if demand_priority:
            # Single-class queue: priority cannot discriminate, so the
            # scan may stop at the first ready row-hit.  The pick is
            # unchanged — with uniform demand component every key
            # differs only in its row-hit bit, and the reference scan
            # also returns the first ready row-hit (or the oldest ready
            # entry when there is none).
            demand = self._demand_entries
            if demand == 0 or demand == len(self._items):
                demand_priority = False
        for index, request in enumerate(self._items):
            bank = request.bank
            if bank in busy_banks or by_addr[request.head_addr][0] is not request:
                continue
            key = 0 if (demand_priority is False or request.demand) else 2
            if open_rows[bank] != request.row:
                key += 1
            if key < best_key:
                best_key, best_index, best_request = key, index, request
                if key == 0:
                    break            # oldest demand row-hit; cannot improve
        if best_index < 0:
            return None
        self._service_head_block(best_request, best_index)
        return best_request

    def drop_all(self) -> int:
        """Discard everything (crash model: in-flight writes are lost).

        Waiters are dropped silently — after a crash nothing resumes.
        Returns the number of dropped blocks.
        """
        count = self._size
        for request in self._items:
            if request.total > 1:
                request.in_queue = False
                request.queued = 0
                request.pending.clear()
        self._items.clear()
        self._by_addr.clear()
        self._waiters.clear()
        self._size = 0
        self._demand_entries = 0
        return count
