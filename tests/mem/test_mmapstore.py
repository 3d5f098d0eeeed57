"""MmapStore: conformance vs FunctionalStore, attach/reject, meta slots.

The mmap-backed store must be observationally identical to the
dict-backed reference over the whole datastore protocol — including
across a close-and-reopen, which the in-memory store cannot survive at
all.  The hypothesis drive below interleaves every protocol operation
(single/bulk/copy/erase/reopen) and requires byte-equal reads after
each step; it is the conformance contract docs/PERSISTENCE.md points
at.
"""

from __future__ import annotations

import os
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, RecoveryError
from repro.mem.datastore import FunctionalStore
from repro.mem.mmapstore import (
    LAYOUT_VERSION, MAGIC, META_SLOT_BYTES, MmapStore)

BLOCK = 64
BLOCKS = 32
CAPACITY = BLOCK * BLOCKS


@pytest.fixture
def image(tmp_path):
    return str(tmp_path / "store.img")


def make(image, **kwargs):
    return MmapStore(BLOCK, CAPACITY, image, **kwargs)


# --- conformance vs the functional reference ------------------------------


def _payload(tag: int) -> bytes:
    return bytes([tag & 0xFF]) * BLOCK


_ops = st.one_of(
    st.tuples(st.just("write"), st.integers(0, BLOCKS - 1),
              st.integers(0, 255)),
    st.tuples(st.just("write_none"), st.integers(0, BLOCKS - 1)),
    st.tuples(st.just("read"), st.integers(0, BLOCKS - 1)),
    st.tuples(st.just("write_run"), st.integers(0, BLOCKS - 1),
              st.integers(1, 6), st.integers(0, 255)),
    st.tuples(st.just("read_run"), st.integers(0, BLOCKS - 1),
              st.integers(1, 6)),
    st.tuples(st.just("copy_block"), st.integers(0, BLOCKS - 1),
              st.integers(0, BLOCKS - 1)),
    st.tuples(st.just("copy_run"), st.integers(0, BLOCKS - 1),
              st.integers(0, BLOCKS - 1), st.integers(1, 6)),
    st.tuples(st.just("erase")),
    st.tuples(st.just("reopen")),
)


def _clip(start: int, count: int) -> int:
    """Clamp a run so it stays inside the store."""
    return max(1, min(count, BLOCKS - start))


@given(ops=st.lists(_ops, max_size=40))
@settings(max_examples=25, deadline=None)
def test_mmap_store_conforms_to_functional_reference(tmp_path_factory, ops):
    image = str(tmp_path_factory.mktemp("conf") / "store.img")
    reference = FunctionalStore(BLOCK)
    store = make(image)
    try:
        for op in ops:
            kind = op[0]
            if kind == "write":
                _, index, tag = op
                for target in (reference, store):
                    target.write(index * BLOCK, _payload(tag))
            elif kind == "write_none":
                _, index = op
                for target in (reference, store):
                    target.write(index * BLOCK, None)
            elif kind == "read":
                _, index = op
                assert store.read(index * BLOCK) == \
                    reference.read(index * BLOCK)
            elif kind == "write_run":
                _, start, count, tag = op
                count = _clip(start, count)
                data = b"".join(_payload(tag + i) for i in range(count))
                for target in (reference, store):
                    target.write_run(start * BLOCK, count, data)
            elif kind == "read_run":
                _, start, count = op
                count = _clip(start, count)
                assert store.read_run(start * BLOCK, count) == \
                    reference.read_run(start * BLOCK, count)
            elif kind == "copy_block":
                _, src, dst = op
                for target in (reference, store):
                    target.copy_block(src * BLOCK, dst * BLOCK)
            elif kind == "copy_run":
                _, src, dst, count = op
                count = _clip(src, _clip(dst, count))
                for target in (reference, store):
                    target.copy_run(src * BLOCK, dst * BLOCK, count)
            elif kind == "erase":
                for target in (reference, store):
                    target.erase()
            elif kind == "reopen":
                # The operation FunctionalStore cannot model: contents
                # must survive unmapping and a fresh attach.
                store.close()
                store = make(image, must_exist=True)
                assert store.attached
        # Full-surface equality at the end of every program.
        assert len(store) == len(reference)
        for index in range(BLOCKS):
            addr = index * BLOCK
            assert (addr in store) == (addr in reference)
            assert store.read(addr) == reference.read(addr)
    finally:
        store.close()


def test_contents_survive_close_and_reopen(image):
    store = make(image)
    assert not store.attached
    store.write(0, _payload(1))
    store.write_run(5 * BLOCK, 3, b"".join(_payload(t) for t in (2, 3, 4)))
    store.close()

    again = make(image, must_exist=True)
    try:
        assert again.attached
        assert again.read(0) == _payload(1)
        assert again.read_run(5 * BLOCK, 3) == \
            b"".join(_payload(t) for t in (2, 3, 4))
        assert len(again) == 4
        assert BLOCK not in again        # unwritten stays unwritten
        assert again.read(BLOCK) == bytes(BLOCK)
    finally:
        again.close()


def test_protocol_errors_match_reference(image):
    store = make(image)
    try:
        with pytest.raises(ValueError):
            store.write(1, _payload(0))             # unaligned
        with pytest.raises(ValueError):
            store.write(CAPACITY, _payload(0))      # out of range
        with pytest.raises(ValueError):
            store.write(0, b"short")
        with pytest.raises(ValueError):
            store.write_run(0, 0, b"")
        with pytest.raises(ValueError):
            store.write_run(0, 2, b"short")
        with pytest.raises(ValueError):
            store.write_run(0, 2, [b"x" * BLOCK])
        with pytest.raises(ValueError):
            store.write_run((BLOCKS - 1) * BLOCK, 2, bytes(2 * BLOCK))
        assert CAPACITY not in store     # __contains__ never raises
        assert -BLOCK not in store
    finally:
        store.close()


def test_zero_read_is_cached_singleton(image):
    store = make(image)
    try:
        assert store.read(0) is store.read(BLOCK)
    finally:
        store.close()


# --- attach validation ----------------------------------------------------


def test_must_exist_refuses_fresh_image(image):
    with pytest.raises(RecoveryError):
        make(image, must_exist=True)
    # The refused open must not leave a claimable empty image behind.
    with pytest.raises(RecoveryError):
        make(image, must_exist=True)


def test_attach_refuses_foreign_file(image):
    with open(image, "wb") as handle:
        handle.write(b"not a store image, definitely" * 100)
    with pytest.raises(RecoveryError):
        make(image)


def test_attach_refuses_too_short_file(image):
    with open(image, "wb") as handle:
        handle.write(MAGIC)
    with pytest.raises(RecoveryError):
        make(image)


def test_attach_refuses_corrupt_header_crc(image):
    make(image).close()
    with open(image, "r+b") as handle:
        handle.seek(12)                  # inside the header fields
        handle.write(b"\xff")
    with pytest.raises(RecoveryError):
        make(image)


def test_attach_refuses_version_skew(image):
    make(image).close()
    with open(image, "r+b") as handle:
        raw = bytearray(handle.read())
        header = struct.Struct("<8sIQQQQQQQQ")
        fields = list(header.unpack_from(raw))
        assert fields[1] == LAYOUT_VERSION
        fields[1] = LAYOUT_VERSION + 1
        packed = header.pack(*fields)
        raw[:len(packed)] = packed
        raw[len(packed):len(packed) + 4] = struct.pack(
            "<I", zlib.crc32(packed))    # valid CRC, wrong version
        handle.seek(0)
        handle.write(raw)
    with pytest.raises(RecoveryError):
        make(image)


def test_attach_refuses_geometry_mismatch(image):
    make(image).close()
    with pytest.raises(ConfigError):
        MmapStore(BLOCK, 2 * CAPACITY, image)
    with pytest.raises(ConfigError):
        MmapStore(2 * BLOCK, CAPACITY, image)


def test_attach_refuses_truncated_image(image):
    make(image).close()
    size = os.path.getsize(image)
    os.truncate(image, size - 4096)
    with pytest.raises(RecoveryError):
        make(image)


def test_config_validation():
    with pytest.raises(ConfigError):
        MmapStore(0, CAPACITY, "unused.img")
    with pytest.raises(ConfigError):
        MmapStore(BLOCK, BLOCK + 1, "unused.img")
    with pytest.raises(ConfigError):
        MmapStore(BLOCK, CAPACITY, "unused.img", msync_policy="sometimes")


# --- meta records ---------------------------------------------------------


def test_meta_roundtrip_and_reopen(image):
    store = make(image)
    assert store.read_meta() is None
    store.write_meta(b"epoch 1")
    store.write_meta(b"epoch 2")
    assert store.read_meta() == b"epoch 2"
    store.close()

    again = make(image, must_exist=True)
    try:
        assert again.read_meta() == b"epoch 2"
        again.write_meta(b"epoch 3")     # sequence resumes, not restarts
        assert again.read_meta() == b"epoch 3"
    finally:
        again.close()


def test_meta_torn_slot_falls_back_to_previous_record(image):
    store = make(image)
    store.write_meta(b"committed record")
    store.write_meta(b"torn record")
    # Corrupt the payload of the newest slot (seq 2 -> slot 0) without
    # touching its stored CRC: a torn write.
    offset = store._meta_offset + struct.Struct("<QQI").size
    store._map[offset:offset + 4] = b"XXXX"
    assert store.read_meta() == b"committed record"
    store.close()


def test_meta_rejects_oversized_payload(image):
    store = make(image)
    try:
        with pytest.raises(ValueError):
            store.write_meta(b"x" * META_SLOT_BYTES)
    finally:
        store.close()


# --- msync policies -------------------------------------------------------


@pytest.mark.parametrize("policy", ["none", "commit", "always"])
def test_msync_policies_accepted(image, policy):
    store = make(image, msync_policy=policy)
    try:
        store.write(0, _payload(9))
        store.msync()
        assert store.read(0) == _payload(9)
    finally:
        store.close()


# --- out-of-core scale ----------------------------------------------------


def test_gb_scale_sparse_image_stays_out_of_core(tmp_path):
    """A GB-addressable store is a sparse file: capacity is disk-backed
    address space, not resident heap, so a handful of writes must not
    materialize gigabytes anywhere."""
    path = str(tmp_path / "big.img")
    block = 4096
    capacity = 2 * 1024 ** 3             # 2 GiB data region
    store = MmapStore(block, capacity, path, msync_policy="none")
    try:
        top = capacity - block
        store.write(0, b"a" * block)
        store.write(capacity // 2, b"b" * block)
        store.write(top, b"c" * block)
        assert store.read(0) == b"a" * block
        assert store.read(capacity // 2) == b"b" * block
        assert store.read(top) == b"c" * block
        assert store.read(block) == bytes(block)
        assert len(store) == 3
        stat = os.stat(path)
        assert stat.st_size > capacity   # full address space on disk...
        # ...but only a few touched pages actually allocated (st_blocks
        # is in 512-byte sectors; allow generous slack for metadata).
        assert stat.st_blocks * 512 < 64 * 1024 * 1024
    finally:
        store.close()

    again = MmapStore(block, capacity, path, msync_policy="none",
                      must_exist=True)
    try:
        assert again.read(capacity // 2) == b"b" * block
    finally:
        again.close()
