"""CPU time-skip vs the per-event engine.

:meth:`Engine.advance` lets the core carry on inline instead of
scheduling its next step or its cache-hit continuation.  The reference
is the same simulator with ``advance`` refusing every skip, so every
continuation goes through the heap as one event.  The two must agree
on everything observable: the whole ``summary()``, the issue time of
every memory request, and the engine state at any ``run(until=...)``
or ``run(max_events=...)`` stop point.
"""

from __future__ import annotations

import contextlib
import json
from typing import Callable, Iterator, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import small_test_config
from repro.harness.runner import execute
from repro.harness.systems import SYSTEM_NAMES, build_system
from repro.sim.engine import Engine
from repro.sim.request import MemoryRequest
from repro.workloads.tracespec import kv_spec, micro_spec, ycsb_spec

FOOTPRINT = 128 * 1024
KV_HEAP = 192 * 1024


@contextlib.contextmanager
def per_event_engine() -> Iterator[None]:
    """Every continuation becomes a heap event: the reference."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Engine, "advance", lambda self, delay: False)
        yield


@contextlib.contextmanager
def recorded_requests() -> Iterator[List[MemoryRequest]]:
    """Collect every memory request in creation order."""
    created: List[MemoryRequest] = []
    original = MemoryRequest.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        created.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MemoryRequest, "__init__", init)
        yield created


def _traces(name: str) -> List[Iterator]:
    if name == "random":
        return [micro_spec("random", FOOTPRINT, 400, seed=3).build()]
    if name == "sliding":
        return [micro_spec("sliding", FOOTPRINT, 400, seed=3).build()]
    if name == "rbtree":
        return [kv_spec(structure="rbtree", request_size=256, num_ops=60,
                        preload=40, key_space=512, heap_bytes=KV_HEAP,
                        seed=5).build()]
    if name == "ycsb-a":
        return [ycsb_spec("A", structure="hashtable", request_size=128,
                          num_ops=80, persist_every=8, seed=5).build()]
    if name == "cluster":
        return [micro_spec("random", FOOTPRINT, 250, seed=seed).build()
                for seed in (1, 2)]
    raise ValueError(name)


def _config(workload: str):
    cores = 2 if workload == "cluster" else 1
    return small_test_config(num_cores=cores,
                             physical_bytes=512 * 1024)


def _outcome(system: str, workload: str) -> Tuple[str, list]:
    with recorded_requests() as requests:
        machine = build_system(system, _config(workload))
        traces = _traces(workload)
        result = execute(machine, None, traces=traces)
    summary = json.dumps(result.stats.summary(), sort_keys=True)
    issues = [(r.addr, r.is_write, r.origin.value, r.issue_time)
              for r in requests]
    return summary, issues


WORKLOADS = ("random", "sliding", "rbtree", "ycsb-a", "cluster")


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("system", SYSTEM_NAMES)
def test_summary_and_issue_times_match_per_event_engine(system, workload):
    skipping = _outcome(system, workload)
    with per_event_engine():
        reference = _outcome(system, workload)
    assert skipping[0] == reference[0]
    assert len(skipping[1]) == len(reference[1])
    assert skipping[1] == reference[1]


def test_time_skip_removes_most_events():
    """The mechanism is live: the skipping run fires far fewer events."""
    def events() -> int:
        machine = build_system("ideal_dram", _config("rbtree"))
        execute(machine, None, traces=_traces("rbtree"))
        return machine.engine.events_fired

    skipping = events()
    with per_event_engine():
        reference = events()
    assert skipping * 2 < reference


# --- stop points ------------------------------------------------------------

def _started(system: str, workload: str):
    machine = build_system(system, _config(workload))
    machine.memsys.start()
    for core, trace in zip(machine.cores, _traces(workload)):
        core.run_trace(trace, lambda: None)
    return machine


def _stops(system: str, workload: str,
           step: Callable[[Engine, int], None], bounds: List[int]) -> list:
    machine = _started(system, workload)
    engine = machine.engine
    states = []
    for bound in bounds:
        step(engine, bound)
        states.append((engine.now, machine.stats.instructions,
                       machine.stats.transactions, engine.pending_events))
    return states


def _compare_stops(system, workload, step, bounds):
    skipping = _stops(system, workload, step, bounds)
    with per_event_engine():
        reference = _stops(system, workload, step, bounds)
    assert skipping == reference


_SYSTEMS = st.sampled_from(("ideal_dram", "journal", "shadow", "thynvm"))
_WORKLOADS = st.sampled_from(("random", "rbtree", "ycsb-a", "cluster"))


@given(system=_SYSTEMS, workload=_WORKLOADS,
       gaps=st.lists(st.integers(0, 12_000), min_size=1, max_size=12))
@settings(max_examples=25, deadline=None)
def test_run_until_stop_points_match(system, workload, gaps):
    bounds, time = [], 0
    for gap in gaps:
        time += gap
        bounds.append(time)
    _compare_stops(system, workload,
                   lambda engine, until: engine.run(until=until), bounds)


@given(system=_SYSTEMS, workload=_WORKLOADS,
       budgets=st.lists(st.integers(0, 300), min_size=1, max_size=12))
@settings(max_examples=25, deadline=None)
def test_max_events_stop_points_match(system, workload, budgets):
    _compare_stops(system, workload,
                   lambda engine, n: engine.run(max_events=n), budgets)


def test_skips_spend_the_max_events_budget():
    """A bounded run counts skips like the events they replace: a
    budget of three covers one event and two skips."""
    engine = Engine()
    steps = []

    def step(remaining: int) -> None:
        while remaining:
            steps.append(engine.now)
            remaining -= 1
            if not engine.advance(10):
                engine.schedule(10, step, remaining)
                return

    engine.schedule(0, step, 5)
    assert engine.run(max_events=3) == 1
    assert steps == [0, 10, 20]
    assert engine.pending_events == 1
    assert not engine.advance(10)          # outside run(): never skips
    engine.run_until_idle()
    assert steps == [0, 10, 20, 30, 40]
