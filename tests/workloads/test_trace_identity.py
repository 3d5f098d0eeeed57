"""The silent preload and the ramp values leave every kv trace unchanged.

The store is warmed with its accesses unrecorded, and values are
sliced from a precomputed ramp.  The reference below is the earlier
generator: it records the preload and drains (discards) the ops after
every insert, and builds each value byte by byte.  The full op streams
must be identical, including the store's set-up writes (the red-black
tree's NIL sentinel, the hash table's bucket array), which reach the
first traced transaction only when there is no preload.
"""

from __future__ import annotations

import random
from typing import Iterator

import pytest

from repro.cpu.trace import Op, persist, txn, work
from repro.workloads.kvstore.workload import KVWorkload, kv_trace, value_maker
from repro.workloads.ycsb import ycsb_trace, ycsb_workload


def _reference_value(key: int, size: int) -> bytes:
    return bytes([(key * 31 + i) & 0xFF for i in range(size)])


def _reference_store(config: KVWorkload):
    rng = random.Random(config.seed)
    memory, _allocator, store = config.build_store()
    for _ in range(config.preload):
        key = rng.randrange(1, config.key_space)
        store.insert(key, _reference_value(key, config.request_size))
        memory.drain_ops()
    return rng, memory, store


def _reference_kv_trace(config: KVWorkload) -> Iterator[Op]:
    rng, memory, store = _reference_store(config)
    for index in range(config.num_ops):
        dice = rng.random()
        key = rng.randrange(1, config.key_space)
        yield work(config.work_per_txn)
        if dice < config.search_frac:
            store.search(key)
        elif dice < config.search_frac + config.insert_frac:
            store.insert(key, _reference_value(key, config.request_size))
        else:
            store.delete(key)
        yield from memory.drain_ops()
        yield txn()
        if (config.persist_every
                and index % config.persist_every == config.persist_every - 1):
            yield persist()


def _reference_ycsb_trace(mix: str, **kwargs) -> Iterator[Op]:
    workload = ycsb_workload(mix, **kwargs)
    if mix not in ("E", "F"):
        yield from _reference_kv_trace(workload)
        return
    rng, memory, store = _reference_store(workload)
    for _ in range(workload.num_ops):
        key = rng.randrange(1, workload.key_space)
        yield work(workload.work_per_txn)
        value = _reference_value(key, workload.request_size)
        if mix == "F":
            store.search(key)
            store.insert(key, value)
        elif rng.random() < workload.search_frac:
            store.range_scan(key, key + rng.randrange(8, 64))
        else:
            store.insert(key, value)
        yield from memory.drain_ops()
        yield txn()


@pytest.mark.parametrize("size", [1, 64, 255, 256, 257, 1000, 1024, 4096])
def test_ramp_values_match_bytewise_values(size):
    value_for = value_maker(size)
    for key in (0, 1, 7, 8, 255, 256, 4095, 16383, 123456789):
        assert value_for(key) == _reference_value(key, size)


@pytest.mark.parametrize("size", [64, 1000, 1024])
@pytest.mark.parametrize("preload", [0, 60])
@pytest.mark.parametrize("structure", ["rbtree", "hashtable", "btree"])
def test_kv_trace_matches_record_then_drain_reference(structure, preload,
                                                      size):
    config = KVWorkload(structure=structure, request_size=size, num_ops=40,
                        preload=preload, key_space=256,
                        heap_bytes=1024 * 1024, persist_every=7, seed=11)
    trace = list(kv_trace(config))
    assert trace == list(_reference_kv_trace(config))
    if preload == 0:
        # The set-up writes are part of the first transaction.
        first_txn = trace.index(txn())
        setup = _reference_store(config)[1].drain_ops()
        assert setup and trace[1:1 + len(setup)] == setup
        assert first_txn > len(setup)


@pytest.mark.parametrize("mix", ["A", "E", "F"])
def test_ycsb_trace_matches_record_then_drain_reference(mix):
    kwargs = dict(structure="hashtable", request_size=200, num_ops=50,
                  persist_every=8, seed=3)
    assert (list(ycsb_trace(mix, **kwargs))
            == list(_reference_ycsb_trace(mix, **kwargs)))
