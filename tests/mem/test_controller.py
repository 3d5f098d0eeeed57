"""Unit tests for the memory controller (queues, banks, fences, crash)."""

import pytest

from repro.config import small_test_config
from repro.mem.controller import DeviceKind, MemoryController
from repro.mem.datastore import FunctionalStore
from repro.sim.engine import Engine
from repro.sim.request import MemoryRequest, Origin
from repro.stats.collector import StatsCollector


@pytest.fixture
def setup():
    config = small_test_config()
    engine = Engine()
    stats = StatsCollector(config.block_bytes)
    controller = MemoryController(engine, config, stats)
    return engine, controller, stats, config


def _write(addr, data=None, cb=None):
    return MemoryRequest(addr, True, Origin.CPU, data=data, callback=cb)


def _read(addr, cb=None):
    return MemoryRequest(addr, False, Origin.CPU, callback=cb)


def test_write_then_read_round_trip(setup):
    engine, controller, _stats, _cfg = setup
    payload = b"p" * 64
    controller.submit(DeviceKind.NVM, _write(0, payload))
    got = {}
    controller.submit(DeviceKind.NVM, _read(0, lambda r: got.update(d=r.data)))
    engine.run_until_idle()
    assert got["d"] == payload


def test_read_forwards_from_queued_write(setup):
    """A read must observe a same-address write still in the queue."""
    engine, controller, _stats, cfg = setup
    old = b"o" * 64
    new = b"n" * 64
    controller.submit(DeviceKind.NVM, _write(0, old))
    engine.run_until_idle()
    # Occupy bank 0 with another row so the next write stays queued;
    # the read then gets priority and services before the write.
    blocker_addr = cfg.row_bytes * cfg.num_banks   # bank 0, row 1
    controller.submit(DeviceKind.NVM, _write(blocker_addr))
    controller.submit(DeviceKind.NVM, _write(0, new))
    got = {}
    controller.submit(DeviceKind.NVM, _read(0, lambda r: got.update(d=r.data)))
    engine.run_until_idle()
    assert got["d"] == new


def test_requests_complete_with_latency(setup):
    engine, controller, _stats, _cfg = setup
    request = _write(0)
    controller.submit(DeviceKind.DRAM, request)
    engine.run_until_idle()
    assert request.complete_time is not None
    assert request.latency > 0


def test_queue_full_rejects(setup):
    engine, controller, _stats, cfg = setup
    accepted = 0
    # Same bank/row addresses so nothing drains instantly.
    for i in range(cfg.write_queue_entries + cfg.num_banks + 8):
        if controller.submit(DeviceKind.NVM, _write(i * 64)):
            accepted += 1
    assert accepted < cfg.write_queue_entries + cfg.num_banks + 8


def test_fence_fires_after_covered_writes_only(setup):
    engine, controller, _stats, _cfg = setup
    done = []
    for i in range(8):
        controller.submit(DeviceKind.NVM, _write(i * 64))
    controller.fence_writes(DeviceKind.NVM, lambda: done.append(engine.now))
    # Later writes must not delay the fence.
    for i in range(8, 16):
        controller.submit(DeviceKind.NVM, _write(i * 64))
    engine.run_until_idle()
    assert len(done) == 1


def test_fence_with_no_outstanding_writes_fires_immediately(setup):
    _engine, controller, _stats, _cfg = setup
    done = []
    controller.fence_writes(DeviceKind.NVM, lambda: done.append(1))
    assert done == [1]


def test_bank_parallelism_beats_serial_service(setup):
    engine, controller, _stats, cfg = setup
    # One access per bank: total time should be far less than the sum.
    start = engine.now
    for bank in range(cfg.num_banks):
        controller.submit(DeviceKind.NVM, _write(bank * cfg.row_bytes))
    engine.run_until_idle()
    elapsed = engine.now - start
    single = cfg.nvm.row_miss_clean + cfg.nvm.burst
    assert elapsed < cfg.num_banks * single / 2


def _crash_after_single(engine, controller):
    durable = b"d" * 64
    lost = b"l" * 64
    controller.submit(DeviceKind.NVM, _write(0, durable))
    engine.run_until_idle()
    controller.submit(DeviceKind.NVM, _write(0, lost))
    controller.crash()          # before the second write services
    engine.run_until_idle()
    return {0: durable}


def _crash_mid_run(engine, controller):
    """A data-carrying write run, cut after its first blocks service."""
    blocks, serviced = 8, 3
    payloads = [bytes([index + 1]) * 64 for index in range(blocks)]

    def block_done(_run, index, _payload):
        if index == serviced - 1:
            controller.crash()

    run = MemoryRequest.bulk(0, True, Origin.CHECKPOINT, blocks, 64,
                             callback=block_done, carries_data=True)
    for payload in payloads:
        assert controller.bulk_admit_next(DeviceKind.NVM, run, payload)
    engine.run_until_idle()
    assert run.completed == serviced
    return {index * 64: payloads[index] if index < serviced else bytes(64)
            for index in range(blocks)}


@pytest.mark.parametrize("scenario", [_crash_after_single, _crash_mid_run],
                         ids=["single", "bulk-run"])
def test_crash_loses_queued_writes_keeps_serviced(setup, scenario):
    engine, controller, _stats, _cfg = setup
    expected = scenario(engine, controller)
    store = controller.functional_store(DeviceKind.NVM)
    for addr, data in expected.items():
        assert store.read(addr) == data


def test_crash_erases_dram_not_nvm(setup):
    engine, controller, _stats, _cfg = setup
    controller.submit(DeviceKind.DRAM, _write(0, b"v" * 64))
    controller.submit(DeviceKind.NVM, _write(0, b"p" * 64))
    engine.run_until_idle()
    controller.crash()
    assert controller.functional_store(DeviceKind.DRAM).read(0) == bytes(64)
    assert controller.functional_store(DeviceKind.NVM).read(0) == b"p" * 64


def test_msync_after_crash_does_not_reach_the_store(setup, monkeypatch):
    _engine, controller, _stats, _cfg = setup
    synced = []
    monkeypatch.setattr(FunctionalStore, "msync",
                        lambda store: synced.append(store))
    controller.msync()
    assert len(synced) == 2     # both devices
    controller.crash()
    controller.msync()          # power is off: nothing to sync
    assert len(synced) == 2


def test_submit_after_crash_rejected(setup):
    _engine, controller, _stats, _cfg = setup
    controller.crash()
    assert not controller.submit(DeviceKind.NVM, _write(0))
    controller.power_on()
    assert controller.submit(DeviceKind.NVM, _write(0))


def test_idle_tracking(setup):
    engine, controller, _stats, _cfg = setup
    assert controller.idle
    controller.submit(DeviceKind.NVM, _write(0))
    assert not controller.idle
    engine.run_until_idle()
    assert controller.idle


def test_stats_record_origin(setup):
    engine, controller, stats, _cfg = setup
    controller.submit(DeviceKind.NVM,
                      MemoryRequest(0, True, Origin.CHECKPOINT))
    controller.submit(DeviceKind.NVM,
                      MemoryRequest(64, True, Origin.MIGRATION))
    engine.run_until_idle()
    assert stats.nvm_writes.get("checkpoint") == 1
    assert stats.nvm_writes.get("migration") == 1
