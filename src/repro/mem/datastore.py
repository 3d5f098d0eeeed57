"""Functional (contents-carrying) backing stores for memory devices.

The paper's evaluation is timing-only, but crash consistency is a
*functional* property, so our devices can optionally store real bytes.
Writes become durable exactly when the device services them — data
sitting in controller queues is lost on a crash, which is precisely the
hazard ThyNVM's commit protocol must tolerate.

Every store speaks the same protocol:

* block ops — ``write``/``read``/``copy_block``/``erase`` plus
  ``__contains__``/``__len__`` over written block addresses;
* bulk ops — ``write_run``/``read_run``/``copy_run`` move ``count``
  consecutive blocks in one call, so a functional page copy (shadow
  paging, page writeback, recovery) is one buffer splice instead of one
  store call per 64 B block.  ``write_run`` takes one contiguous
  bytes-like payload of ``count * block_bytes`` bytes;
* durability — ``msync()`` pushes contents to the backing medium.  A
  no-op here; :class:`~repro.mem.mmapstore.MmapStore` flushes its
  mapped file.

The memory controller writes each serviced block with ``write`` at its
service, bulk-run blocks included, so "serviced means stored" holds
block by block.  Unwritten blocks always read as zeros; the zero block
is cached per store so misses do not allocate (``read`` on a cold
address is allocation-free).

:class:`FunctionalStore` (dict-backed) is the conformance reference:
the mmap backend is pinned byte-identical to it by a hypothesis
property test (``tests/mem/test_mmapstore.py``).
"""

from __future__ import annotations

from typing import Dict, Optional, Union

#: A bulk payload: one contiguous buffer of ``count`` blocks.
RunData = Union[bytes, bytearray, memoryview]


class FunctionalStore:
    """Block-granularity byte storage keyed by hardware block address."""

    __slots__ = ("block_bytes", "_blocks", "_zero")

    def __init__(self, block_bytes: int) -> None:
        self.block_bytes = block_bytes
        self._blocks: Dict[int, bytes] = {}
        self._zero = bytes(block_bytes)

    def write(self, addr: int, data: Optional[bytes]) -> None:
        """Store one block.  ``None`` payloads are ignored (timing-only)."""
        if data is None:
            return
        if len(data) != self.block_bytes:
            raise ValueError(
                f"payload must be {self.block_bytes} bytes, got {len(data)}")
        self._blocks[addr] = bytes(data)

    def read(self, addr: int) -> bytes:
        """Read one block; unwritten blocks read as (cached) zeros."""
        return self._blocks.get(addr, self._zero)

    def write_run(self, addr: int, count: int, data: RunData) -> None:
        """Store ``count`` consecutive blocks starting at ``addr``."""
        block_bytes = self.block_bytes
        if len(data) != count * block_bytes:
            raise ValueError(
                f"run payload must be {count * block_bytes} bytes "
                f"({count} x {block_bytes}), got {len(data)}")
        view = memoryview(data)
        for index in range(count):
            self._blocks[addr + index * block_bytes] = bytes(
                view[index * block_bytes:(index + 1) * block_bytes])

    def read_run(self, addr: int, count: int) -> bytes:
        """Read ``count`` consecutive blocks as one contiguous buffer."""
        block_bytes = self.block_bytes
        return b"".join(self._blocks.get(addr + index * block_bytes,
                                         self._zero)
                        for index in range(count))

    def copy_run(self, src: int, dst: int, count: int) -> None:
        """Copy ``count`` consecutive blocks within this store."""
        self.write_run(dst, count, self.read_run(src, count))

    def copy_block(self, src: int, dst: int) -> None:
        """Device-internal copy used by recovery/migration helpers."""
        self._blocks[dst] = self.read(src)

    def erase(self) -> None:
        """Lose all contents (models a volatile device losing power)."""
        self._blocks.clear()

    def msync(self) -> None:
        """Push contents to the backing medium (no medium here)."""

    def __contains__(self, addr: int) -> bool:
        return addr in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)


class NullStore:
    """Timing-only stand-in with the same interface; stores nothing."""

    __slots__ = ("block_bytes", "_zero")

    def __init__(self, block_bytes: int) -> None:
        self.block_bytes = block_bytes
        self._zero = bytes(block_bytes)

    def write(self, addr: int, data: Optional[bytes]) -> None:
        pass

    def read(self, addr: int) -> bytes:
        return self._zero

    def write_run(self, addr: int, count: int, data: RunData) -> None:
        pass

    def read_run(self, addr: int, count: int) -> bytes:
        return self._zero * count

    def copy_run(self, src: int, dst: int, count: int) -> None:
        pass

    def copy_block(self, src: int, dst: int) -> None:
        pass

    def erase(self) -> None:
        pass

    def msync(self) -> None:
        pass

    def __contains__(self, addr: int) -> bool:
        return False

    def __len__(self) -> int:
        return 0
