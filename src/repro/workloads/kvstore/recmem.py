"""The simulated heap: real bytes plus an access recording.

Data structures read and write through this object.  Contents are kept
in a bytearray so pointers and keys round-trip faithfully; every access
is appended to a pending op list that the workload generator drains
into the CPU trace.  Between accesses the structures "compute" —
``work_per_access`` models the non-memory instructions per memory
operation.

With :attr:`RecordingMemory.recording` off the heap still checks
bounds, updates its bytes and counts accesses, but records nothing:
the workload generators warm their stores this way instead of
recording the preload and throwing the ops away.
"""

from __future__ import annotations

import struct
from typing import List

from ...cpu.trace import Op, OpKind, work
from ...errors import WorkloadError

_U64 = struct.Struct("<Q")
_READ = OpKind.READ
_WRITE = OpKind.WRITE

NULL = 0


class RecordingMemory:
    """Byte-addressable heap that records its own access trace."""

    def __init__(self, size: int, work_per_access: int = 4) -> None:
        if size <= 0:
            raise WorkloadError("heap size must be positive")
        self.size = size
        self.work_per_access = work_per_access
        # Ops are immutable tuples, so every access shares one work op.
        self._work = work(work_per_access) if work_per_access else None
        self._bytes = bytearray(size)
        self._pending: List[Op] = []
        self.recording = True
        self.reads = 0
        self.writes = 0

    # --- raw access -----------------------------------------------------

    def _check(self, addr: int, length: int) -> None:
        if addr < 0 or addr + length > self.size:
            raise WorkloadError(
                f"heap access out of range: 0x{addr:x}+{length}")

    def _record(self, kind: OpKind, addr: int, length: int) -> None:
        pending = self._pending
        if self._work is not None:
            pending.append(self._work)
        pending.append(Op(kind, addr, length))

    def read(self, addr: int, length: int) -> bytes:
        if length == 0:
            return b""   # zero-length loads touch no memory
        self._check(addr, length)
        self.reads += 1
        if self.recording:
            self._record(_READ, addr, length)
        return bytes(self._bytes[addr:addr + length])

    def write(self, addr: int, data: bytes) -> None:
        if not data:
            return   # zero-length stores touch no memory
        self._check(addr, len(data))
        self.writes += 1
        if self.recording:
            self._record(_WRITE, addr, len(data))
        self._bytes[addr:addr + len(data)] = data

    # --- typed helpers ------------------------------------------------------

    def read_u64(self, addr: int) -> int:
        self._check(addr, 8)
        self.reads += 1
        if self.recording:
            self._record(_READ, addr, 8)
        return _U64.unpack_from(self._bytes, addr)[0]

    def write_u64(self, addr: int, value: int) -> None:
        self.write(addr, _U64.pack(value))

    # --- trace draining --------------------------------------------------------

    def drain_ops(self) -> List[Op]:
        """Take the accesses recorded since the last drain."""
        ops, self._pending = self._pending, []
        return ops

    def pending_count(self) -> int:
        return len(self._pending)
