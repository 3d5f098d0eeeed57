"""Per-layer attribution for the traced benchmark run.

Layers are named after ``src/repro`` modules.  Two instruments feed
them, both installed from this file around the program's public entry
points, so no simulator source changes:

* :class:`Tracer` counts calls at layer boundaries (cache accesses,
  port calls, memory-controller submits, queue operations, store
  calls) and records coarse spans (point, system build, engine run,
  msync).  Counts are exact and deterministic.
* :func:`attribute_profile` groups a stdlib ``cProfile`` run by
  module.  It covers what no public span reaches: engine-dispatched
  private callbacks such as ``MemoryController._complete`` or
  ``Core._execute``.  Time in C builtins and in stdlib Python code is
  charged to the layer of the ``repro`` function that called it, so
  ``mmap.flush`` counts as ``store`` and ``random.randrange`` as
  ``workloads``.  Time in no layer (the benchmark's own frames) is
  ``other``.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

OTHER = "other"

#: Every module under ``src/repro`` maps to exactly one layer.  A key
#: ending in ``/`` covers a whole package; any other key is one file.
#: The benchmark's tests check that each module matches exactly one
#: key, so a new module cannot escape attribution.
LAYER_RULES: Dict[str, str] = {
    "workloads/": "workloads",
    "harness/": "harness",
    # Front-end, configuration and offline tools (none of them runs in
    # a benchmark workload) sit with the harness that drives runs.
    "__init__.py": "harness",
    "config.py": "harness",
    "errors.py": "harness",
    "units.py": "harness",
    "diskcache.py": "harness",
    "cli.py": "harness",
    "perf.py": "harness",
    "analysis/": "harness",
    "fuzz/": "harness",
    "cpu/": "cpu",
    "cache/": "cache",
    "core/": "core",
    # The MemoryPort protocol and Origin re-exports live beside the
    # consistency controllers that implement them.
    "port.py": "core",
    "baselines/": "baselines",
    "mem/__init__.py": "mem",
    "mem/controller.py": "mem",
    "mem/device.py": "mem",
    "mem/address.py": "mem",
    "mem/datastore.py": "store",
    "mem/mmapstore.py": "store",
    "sim/queueing.py": "queueing",
    "sim/request.py": "queueing",
    "sim/__init__.py": "engine",
    "sim/engine.py": "engine",
    "sim/event.py": "engine",
    "stats/": "stats",
}

LAYERS: Tuple[str, ...] = ("workloads", "harness", "cpu", "cache", "core",
                           "baselines", "mem", "store", "queueing",
                           "engine", "stats")


def rules_matching(module: str) -> List[str]:
    """Every rule key that covers ``module`` (a path relative to the
    ``repro`` package, with ``/`` separators)."""
    return [key for key in LAYER_RULES
            if (module.startswith(key) if key.endswith("/")
                else module == key)]


class LayerMap:
    """Resolves a source file name to its layer.

    Files of the ``repro`` package get their rule's layer, files under
    ``own_dir`` (the benchmark) get ``other``, and anything else (the
    stdlib, builtins) gets None: its time belongs to its caller.
    """

    def __init__(self, package_root: Path, own_dir: Path) -> None:
        self.package_root = str(package_root.resolve()) + os.sep
        self.own_dir = str(own_dir.resolve()) + os.sep
        self._cache: Dict[str, Optional[str]] = {}

    def layer_of(self, filename: str) -> Optional[str]:
        if filename in self._cache:
            return self._cache[filename]
        path = os.path.realpath(filename) if filename != "~" else ""
        layer = None
        if path.startswith(self.package_root):
            matches = rules_matching(path[len(self.package_root):])
            layer = LAYER_RULES[matches[0]] if len(matches) == 1 else OTHER
        elif path.startswith(self.own_dir):
            layer = OTHER
        self._cache[filename] = layer
        return layer


# --- profile attribution -----------------------------------------------------

def attribute_profile(stats: Dict[tuple, tuple],
                      layers: LayerMap) -> Dict[str, float]:
    """Self seconds per layer (plus ``other``) from ``pstats`` data.

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct,
    callers)``, where ``callers`` gives, per caller, the callee's time
    when called from it.  A ``repro`` function keeps its own self time.
    A builtin (file ``~``) or stdlib function hands its self time to its
    callers, split by the per-caller entries; a caller outside ``repro``
    passes its share up again, weighted by inclusive time.  Benchmark
    functions are ``other`` outright.
    """
    shares_memo: Dict[tuple, Dict[str, float]] = {}

    def shares(func: tuple, active: frozenset) -> Dict[str, float]:
        if func in shares_memo:
            return shares_memo[func]
        layer = layers.layer_of(func[0])
        callers = stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
        total = sum(entry[3] for entry in callers.values())
        if layer is not None:
            result = {layer: 1.0}
        elif func in active or total <= 0:
            result = {OTHER: 1.0}
        else:
            result = defaultdict(float)
            for caller, entry in callers.items():
                for name, weight in shares(caller, active | {func}).items():
                    result[name] += weight * entry[3] / total
        shares_memo[func] = result
        return result

    self_s: Dict[str, float] = defaultdict(float)
    for func, (_cc, _nc, tottime, _ct, callers) in stats.items():
        layer = layers.layer_of(func[0])
        if layer is not None:
            self_s[layer] += tottime
            continue
        if not callers:
            self_s[OTHER] += tottime
            continue
        charged = 0.0
        for caller, entry in callers.items():
            charged += entry[2]
            for name, weight in shares(caller, frozenset((func,))).items():
                self_s[name] += entry[2] * weight
        self_s[OTHER] += tottime - charged
    return {name: self_s.get(name, 0.0) for name in LAYERS + (OTHER,)}


def profile_calls(stats: Dict[tuple, tuple], suffix: str, name: str) -> int:
    """Total calls the profile saw to function ``name`` in a file whose
    path ends with ``suffix``."""
    return sum(entry[1] for func, entry in stats.items()
               if func[2] == name and func[0].endswith(suffix))


# --- counters and spans ------------------------------------------------------

#: (counter, file suffix, function) triples a wrapper counts on every
#: call; the profile pass must see the same number of calls.  A
#: mismatch means a call path bypassed a wrapper.
CROSS_CHECKS = (
    ("workloads.trace_builds", "workloads/tracespec.py", "build"),
    ("cache.accesses", "cache/hierarchy.py", "access"),
    ("mem.submits", "mem/controller.py", "submit"),
    ("queueing.pop_ready_calls", "sim/queueing.py", "pop_ready"),
)

_STORE_METHODS = ("write", "read", "write_run", "read_run", "copy_run",
                  "copy_block", "erase", "msync")


def _payload_bytes(method: str, store, args: tuple) -> int:
    """Bytes one outermost store call writes into the store."""
    if method == "write":
        data = args[1]
        return 0 if data is None else len(data)
    if method == "write_run":
        data = args[2]
        if isinstance(data, (bytes, bytearray, memoryview)):
            return len(data)
        return sum(len(chunk) for chunk in data if chunk is not None)
    if method == "copy_block":
        return store.block_bytes
    if method == "copy_run":
        return args[2] * store.block_bytes
    return 0


class Tracer:
    """Counters and spans patched onto the program's public methods.

    :meth:`install` replaces class attributes with counting wrappers and
    :meth:`remove` restores the originals; use it as a context manager.
    Spans are ``(name, label, start, end)`` tuples kept in memory.
    """

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.spans: List[Tuple[str, str, float, float]] = []
        self.systems: List[object] = []
        self.label = ""
        self._patches: List[Tuple[object, str, object]] = []
        self._store_depth = 0

    # -- patching helpers --

    def _patch(self, owner, name: str,
               make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[name]
        setattr(owner, name, functools.wraps(original)(make(original)))
        self._patches.append((owner, name, original))

    def _count(self, owner, name: str, key: str) -> None:
        counts = self.counts

        def make(original):
            def counted(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)
            return counted
        self._patch(owner, name, make)

    def _span(self, owner, name: str, span: str) -> None:
        spans = self.spans
        tracer = self

        def make(original):
            def timed(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    spans.append((span, tracer.label, start,
                                  time.perf_counter()))
            return timed
        self._patch(owner, name, make)

    # -- the instrument set --

    def install(self) -> "Tracer":
        from repro.baselines.base import StopTheWorldController
        from repro.baselines.ideal import IdealController
        from repro.cache.hierarchy import CacheHierarchy
        from repro.core.controller import ThyNVMController
        from repro.harness import runner
        from repro.mem.controller import MemoryController
        from repro.mem.datastore import FunctionalStore
        from repro.mem.mmapstore import MmapStore
        from repro.sim.engine import Engine
        from repro.sim.queueing import BoundedQueue
        from repro.workloads.tracespec import TraceSpec

        counts = self.counts
        self._count(TraceSpec, "build", "workloads.trace_builds")
        self._count(CacheHierarchy, "access", "cache.accesses")
        self._count(CacheHierarchy, "flush_dirty", "cache.flush_calls")
        for method in ("read_block", "write_block"):
            self._count(ThyNVMController, method, "core.port_calls")
            self._count(StopTheWorldController, method,
                        "baselines.port_calls")
            self._count(IdealController, method, "baselines.port_calls")
        self._count(ThyNVMController, "persist_barrier",
                    "core.persist_barriers")
        self._count(MemoryController, "submit_bulk", "mem.bulk_submits")
        self._count(BoundedQueue, "pop_ready", "queueing.pop_ready_calls")
        self._count(BoundedQueue, "try_enqueue", "queueing.enqueue_calls")
        self._count(BoundedQueue, "try_enqueue_bulk",
                    "queueing.enqueue_calls")

        def make_submit(original):
            def submit(*args, **kwargs):
                counts["mem.submits"] += 1
                accepted = original(*args, **kwargs)
                if not accepted:
                    counts["mem.submit_rejects"] += 1
                return accepted
            return submit
        self._patch(MemoryController, "submit", make_submit)

        for store_cls in (FunctionalStore, MmapStore):
            for method in _STORE_METHODS:
                timed = method == "msync" and store_cls is MmapStore
                self._patch(store_cls, method,
                            self._store_wrapper(method, timed))
        self._span(Engine, "run_until_idle", "engine.run")

        systems = self.systems
        tracer = self

        def make_build(original):
            def build_system(*args, **kwargs):
                start = time.perf_counter()
                system = original(*args, **kwargs)
                tracer.spans.append(("harness.build_system", tracer.label,
                                     start, time.perf_counter()))
                systems.append(system)
                return system
            return build_system
        self._patch(runner, "build_system", make_build)
        return self

    def _store_wrapper(self, method: str, timed: bool):
        """Counts only outermost store calls (a ``write_run`` that loops
        over ``write`` is one call); a ``timed`` call (the mmap store's
        msync) also records a span."""
        tracer = self
        counts = self.counts

        def make(original):
            def store_call(store, *args, **kwargs):
                if tracer._store_depth:
                    return original(store, *args, **kwargs)
                counts["store.calls"] += 1
                counts["store.bytes_written"] += _payload_bytes(
                    method, store, args)
                tracer._store_depth += 1
                start = time.perf_counter()
                try:
                    return original(store, *args, **kwargs)
                finally:
                    tracer._store_depth -= 1
                    if timed:
                        counts["store.msyncs"] += 1
                        tracer.spans.append(("store.msync", tracer.label,
                                             start, time.perf_counter()))
            return store_call
        return make

    def harvest(self) -> None:
        """Read the counters the systems built since the last call keep
        themselves, then drop the systems."""
        for system in self.systems:
            self.counts["engine.events"] += system.engine.events_fired
            self.counts["mem.requests_issued"] += \
                system.memctrl.requests_issued
        self.systems.clear()

    def remove(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    def span_seconds(self, name: str) -> float:
        return sum(end - start for span, _label, start, end in self.spans
                   if span == name)
