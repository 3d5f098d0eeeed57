"""The in-order CPU core.

Executes an op trace against the cache hierarchy: non-memory
instructions retire one per cycle; loads and stores are blocking and
split into block-granularity cache accesses.  The core exposes the
stall interface the consistency controllers use at epoch boundaries
(``stall_at_next_boundary`` / ``resume``), and attributes every stalled
cycle to a cause in the shared :class:`StatsCollector`.

The core runs ahead without the event heap where it can: after each
op, and after each cache hit, it asks :meth:`Engine.advance` to move
the clock to when its next event would have fired and keeps executing
inline.  Only events the core scheduled itself (``_step`` and the hit
continuation) skip this way; a miss completes inside the memory
controller's own event, so that continuation always schedules.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterator, List, Optional

from ..config import SystemConfig
from ..errors import SimulationError
from ..mem.address import AddressMap
from ..sim.engine import Engine
from ..stats.collector import StatsCollector
from ..cache.hierarchy import CacheHierarchy
from .state import CpuState
from .trace import Op, OpKind


class Core:
    """Single in-order core at one instruction per cycle."""

    def __init__(self, engine: Engine, config: SystemConfig,
                 hierarchy: CacheHierarchy, stats: StatsCollector) -> None:
        self.engine = engine
        self.config = config
        self.hierarchy = hierarchy
        self.stats = stats
        self.addresses = AddressMap(config)
        self.state = CpuState(config.cpu_state_bytes)

        self._trace: Optional[Iterator[Op]] = None
        self._on_finish: Optional[Callable[[], None]] = None
        self.finished = False

        # §6 explicit-persistence instruction: the memory system's
        # durability barrier, wired up by the system factory (None on
        # systems where persistence is free/meaningless).
        self.persist_port: Optional[Callable[[Callable[[], None]], None]] = None
        self._persist_waiting = False

        self._stalled = False
        self._stall_reason: Optional[str] = None
        self._stall_start = 0
        self._pending_stall: Optional[Callable[[], None]] = None
        self._at_boundary = True    # not mid-instruction
        self._killed = False

    # --- driving ----------------------------------------------------------

    def run_trace(self, trace: Iterator[Op],
                  on_finish: Callable[[], None]) -> None:
        """Start executing ``trace``; ``on_finish`` fires after the last op."""
        if self._trace is not None:
            raise SimulationError("core is already running a trace")
        self._trace = iter(trace)
        self._on_finish = on_finish
        self.engine.schedule(0, self._step)

    def _step(self) -> None:
        engine = self.engine
        while True:
            if self._killed or self.finished or self._trace is None:
                return
            if self._persist_waiting:
                return
            self._at_boundary = True
            if self._pending_stall is not None:
                self._enter_stall()
                return
            if self._stalled:
                return
            try:
                op = next(self._trace)
            except StopIteration:
                self.finished = True
                if self._on_finish is not None:
                    self._on_finish()
                return
            delay = self._execute(op)
            if delay is None:
                return
            if not engine.advance(delay):
                engine.schedule(delay, self._step)
                return

    def _execute(self, op: Op) -> Optional[int]:
        """Start ``op``; return the cycles until the next op may start,
        or None when a callback resumes the core instead."""
        self._at_boundary = False
        if op.kind is OpKind.WORK:
            self.stats.instructions += op.size
            self.state.advance()
            return op.size
        if op.kind is OpKind.TXN:
            self.stats.transactions += 1
            return 0
        if op.kind is OpKind.PERSIST:
            self.stats.instructions += 1
            # The persist instruction itself retires; the core then
            # waits (at an instruction boundary, so epoch flushes can
            # proceed) until the memory system reports durability.
            self._at_boundary = True
            if self.persist_port is None:
                return 1
            self._persist_waiting = True
            self.persist_port(self._persist_done)
            return None
        self.stats.instructions += 1
        self.state.advance()
        blocks = [self.addresses.block_addr(b)
                  for b in self.addresses.iter_blocks(op.addr, op.size)]
        return self._access_blocks(blocks, 0, op.kind is OpKind.WRITE, True)

    def _access_blocks(self, blocks: List[int], index: int, is_write: bool,
                       may_skip: bool) -> Optional[int]:
        """Access ``blocks[index:]`` one at a time.

        Returns the cycles until the next op once every block hit, or
        None when a miss fill or a scheduled hit continuation carries
        the op on.  ``may_skip`` is False on the miss path, whose caller
        goes on working after we return.
        """
        engine = self.engine
        while index < len(blocks):
            latency = self.hierarchy.access(
                blocks[index], is_write,
                partial(self._miss_done, blocks, index + 1, is_write))
            index += 1
            if latency is None:
                return None
            if not (may_skip and engine.advance(latency)):
                engine.schedule(latency, self._hit_done, blocks, index,
                                is_write)
                return None
        return 1

    def _hit_done(self, blocks: List[int], index: int,
                  is_write: bool) -> None:
        delay = self._access_blocks(blocks, index, is_write, True)
        if delay is not None:
            if self.engine.advance(delay):
                self._step()
            else:
                self.engine.schedule(delay, self._step)

    def _miss_done(self, blocks: List[int], index: int,
                   is_write: bool) -> None:
        delay = self._access_blocks(blocks, index, is_write, False)
        if delay is not None:
            self.engine.schedule(delay, self._step)

    def _persist_done(self) -> None:
        if self._killed:
            return
        self._persist_waiting = False
        self.engine.schedule(0, self._step)

    # --- stall control (used by consistency controllers) ---------------------

    @property
    def stalled(self) -> bool:
        return self._stalled

    def stall_at_next_boundary(self, reason: str,
                               on_stalled: Callable[[], None]) -> None:
        """Freeze the core at the next instruction boundary.

        ``on_stalled`` fires once the core is actually frozen (it may be
        mid-instruction when asked).  ``reason`` labels the stalled
        cycles in the stats (e.g. ``"flush"`` or ``"checkpoint"``).
        """
        if self._stalled or self._pending_stall is not None:
            raise SimulationError("core already stalled or stalling")
        self._stall_reason = reason
        self._pending_stall = on_stalled
        if self._at_boundary or self.finished:
            self._enter_stall()

    def _enter_stall(self) -> None:
        on_stalled = self._pending_stall
        self._pending_stall = None
        self._stalled = True
        self._stall_start = self.engine.now
        if on_stalled is not None:
            on_stalled()

    @property
    def stall_pending(self) -> bool:
        """A stall was requested but the core is still mid-instruction."""
        return self._pending_stall is not None

    def cancel_stall_request(self) -> None:
        """Withdraw a not-yet-effective stall request."""
        if self._stalled:
            raise SimulationError("cannot cancel: core already stalled")
        self._pending_stall = None
        self._stall_reason = None

    def resume(self) -> None:
        """Unfreeze the core and account the stalled cycles."""
        if not self._stalled:
            raise SimulationError("resume called on a running core")
        self._stalled = False
        reason = self._stall_reason or "unknown"
        self.stats.stall_cycles.add(reason, self.engine.now - self._stall_start)
        self._stall_reason = None
        if not self.finished:
            self.engine.schedule(0, self._step)

    def change_stall_reason(self, reason: str) -> None:
        """Re-attribute the remainder of the current stall.

        Splits the accounting at 'now': cycles so far go to the old
        reason, subsequent ones to ``reason``.  Used when a flush stall
        turns into a stop-the-world checkpoint stall.
        """
        if not self._stalled:
            raise SimulationError("core is not stalled")
        old = self._stall_reason or "unknown"
        self.stats.stall_cycles.add(old, self.engine.now - self._stall_start)
        self._stall_start = self.engine.now
        self._stall_reason = reason

    # --- crash model ---------------------------------------------------------

    def kill(self) -> None:
        """Stop executing permanently (power loss)."""
        self._killed = True
        self._stalled = True
