"""The Block Translation Table (BTT).

Tracks physical blocks managed by the block remapping scheme at cache
block (64 B) granularity.  An entry is created on the first write to a
block (§4.3) and removed when the block has been idle long enough for
its data to be consolidated back to the Home Region.

The table also keeps an index of idle entries (:attr:`BlockEntry.idle`)
for mid-epoch eviction: per checkpoint region, a min-heap of the
entries' ``order_key`` tuples, ``(seq, block)``.  Each entry gets a
fresh insertion sequence number, so heap order is the table's
iteration order.  A record is pushed whenever an entry may have
*become* idle (creation and the commit version flip, via
:meth:`note_idle`); leaving idle needs no hook, because
:meth:`first_idle` discards a top record whose entry is gone,
re-created, in another region or not idle.  Lookups are therefore
exact.  The heaps are rebuilt from the table once they hold more than
twice its capacity in records, which bounds them and keeps a push
amortized O(log n).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from .metadata import BlockEntry
from .regions import REGION_A, REGION_B
from .table import TranslationTable


class BlockTranslationTable(TranslationTable[BlockEntry]):
    """BTT: physical block index -> :class:`BlockEntry`."""

    def __init__(self, capacity: int, entry_bytes: int) -> None:
        super().__init__("BTT", capacity, entry_bytes)
        self._next_seq = 0
        self._idle: Dict[int, List[Tuple[int, int]]] = {
            REGION_B: [], REGION_A: []}
        self._idle_records = 0

    def lookup(self, block: int) -> Optional[BlockEntry]:
        return self.get(block)

    def create(self, block: int,
               stable_region: int = REGION_B) -> Optional[BlockEntry]:
        """Create the entry for a block's first tracked write.

        A block with no entry normally lives in the Home Region
        (== Region B); a block recently evicted by consolidation may be
        re-created pointing at its still-referenced region A copy.
        Returns ``None`` on table overflow.
        """
        old = self.get(block)
        # Replacing an entry keeps its place in iteration order.
        key = old.order_key if old is not None else (self._next_seq, block)
        entry = BlockEntry(block=block, stable_region=stable_region,
                           order_key=key)
        if not self.insert(block, entry):
            return None
        if old is None:
            self._next_seq += 1
        self.note_idle(entry)
        return entry

    # --- idle-entry index ---------------------------------------------------

    def note_idle(self, entry: BlockEntry) -> None:
        """Index an entry that may have become idle."""
        heappush(self._idle[entry.stable_region], entry.order_key)
        self._idle_records += 1
        if self._idle_records > 2 * self.capacity:
            self._rebuild_idle()

    def first_idle(self, region: int) -> Optional[BlockEntry]:
        """The first idle entry, in iteration order, whose C_last is in
        ``region``; ``None`` if there is none."""
        heap = self._idle[region]
        entries = self._entries
        while heap:
            key = heap[0]
            entry = entries.get(key[1])
            if (entry is not None and entry.order_key == key
                    and entry.stable_region == region and entry.idle):
                return entry
            heappop(heap)
            self._idle_records -= 1
        return None

    def idle_records(self) -> List[Tuple[int, Tuple[int, int]]]:
        """Every ``(region, order_key)`` record the index holds."""
        return [(region, key)
                for region, heap in self._idle.items() for key in heap]

    def _rebuild_idle(self) -> None:
        heaps: Dict[int, List[Tuple[int, int]]] = {REGION_B: [], REGION_A: []}
        for entry in self._entries.values():
            if entry.idle:
                # Iteration order is key order: each list is a heap.
                heaps[entry.stable_region].append(entry.order_key)
        self._idle = heaps
        self._idle_records = len(heaps[REGION_B]) + len(heaps[REGION_A])
