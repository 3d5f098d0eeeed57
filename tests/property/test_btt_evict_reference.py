"""Property tests pinning the BTT's idle-entry index to its reference.

Mid-epoch eviction (``ThyNVMController._emergency_evict_block``, §4.3)
picks its victim with two lookups in the BTT's idle index
(docs/PERFORMANCE.md).  The straight-line reference below is the scan
the index replaced: the first idle entry in BTT iteration order whose
C_last is in region B, failing that the first idle entry.  The two
must pick the same entry after every transition an entry can make, or
the index has changed simulated behaviour.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import small_test_config
from repro.core.btt import BlockTranslationTable
from repro.core.metadata import GcState
from repro.core.regions import REGION_A, REGION_B, other_region

from ..conftest import (MANUAL_EPOCHS, end_epoch, make_direct, run_until,
                        settle, write_block)

CAPACITY = 6
NUM_BLOCKS = 10         # more blocks than entries: overflow is common


def reference_victim(btt):
    """The pre-index eviction scan, written for clarity not speed."""
    fallback = None
    for _block, entry in btt:
        if (entry.pending_epoch is not None or entry.temp_epochs
                or entry.gc_state is not GcState.NONE
                or entry.coop_page is not None
                or entry.absorbed_by_page):
            continue
        if entry.stable_region == REGION_B:
            return entry
        if fallback is None:
            fallback = entry
    return fallback


def indexed_victim(btt):
    return btt.first_idle(REGION_B) or btt.first_idle(REGION_A)


def apply(btt, op, epoch):
    """One entry transition, made the way the controller makes it."""
    kind, block, arg = op
    entry = btt.lookup(block)
    if kind == "create":
        # On a live block this replaces the entry in place.
        btt.create(block, REGION_A if arg else REGION_B)
    elif entry is None:
        return
    elif kind == "remove":
        btt.remove(block)
    elif kind == "write" and not entry.absorbed_by_page:
        # _block_write: a store cancels consolidation, then buffers in
        # a DRAM temp or writes the complement region directly.
        entry.gc_state = GcState.NONE
        if arg:
            entry.temp_epochs.add(epoch)
        elif not entry.temp_epochs:
            entry.pending_epoch = epoch
    elif kind == "commit" and (entry.pending_epoch is not None
                               or entry.temp_epochs):
        # _on_commit step 1: the working copy becomes C_last.
        if entry.pending_epoch is not None or entry.coop_page is None:
            entry.stable_region = other_region(entry.stable_region)
        entry.temp_epochs.clear()
        entry.pending_epoch = None
        btt.note_idle(entry)
    elif kind == "gc_issue" and entry.idle:
        entry.gc_state = GcState.ISSUED
    elif kind == "coop" and not entry.absorbed_by_page:
        entry.coop_page = arg
        entry.temp_epochs.add(epoch)
    elif kind == "absorb":
        entry.temp_epochs.clear()
        entry.pending_epoch = None
        entry.absorbed_by_page = True
        entry.coop_page = None
        entry.gc_state = GcState.NONE


entry_op = st.tuples(
    st.sampled_from(["create", "remove", "write", "commit", "gc_issue",
                     "coop", "absorb"]),
    st.integers(0, NUM_BLOCKS - 1),
    st.integers(0, 1),
)
evict_op = st.tuples(st.just("evict"), st.just(0), st.just(0))


@given(st.lists(st.one_of(entry_op, evict_op), max_size=120))
@settings(max_examples=300, deadline=None)
def test_idle_index_matches_reference(ops):
    btt = BlockTranslationTable(CAPACITY, 7)
    for epoch, op in enumerate(ops):
        if op[0] == "evict":
            victim = reference_victim(btt)
            if victim is not None:
                btt.remove(victim.block)
        else:
            apply(btt, op, epoch)
        assert indexed_victim(btt) is reference_victim(btt)
        assert len(btt.idle_records()) <= 2 * CAPACITY


def test_replacing_an_entry_keeps_its_place():
    btt = BlockTranslationTable(CAPACITY, 7)
    btt.create(0)
    btt.create(1)
    replaced = btt.create(0)
    assert indexed_victim(btt) is reference_victim(btt) is replaced


def test_idle_index_stays_bounded_under_many_commits():
    """Many commits and few evictions (the ycsb-durable shape): every
    flip pushes a record, yet the index holds at most twice the
    table's capacity."""
    capacity = 32
    btt = BlockTranslationTable(capacity, 7)
    for block in range(capacity):
        btt.create(block)
    peak = 0
    for epoch in range(100):
        for block in range(capacity):
            entry = btt.lookup(block)
            entry.stable_region = other_region(entry.stable_region)
            btt.note_idle(entry)
            peak = max(peak, len(btt.idle_records()))
        if epoch % 25 == 0:
            victim = indexed_victim(btt)
            assert victim is reference_victim(btt)
            btt.remove(victim.block)
            btt.create(victim.block)
    assert peak <= 2 * capacity
    assert indexed_victim(btt) is reference_victim(btt)


def _flood(s, overlap):
    # Commit one epoch of writes so evictable entries have stable == A.
    for block in range(12):
        write_block(s, block, bytes([block + 1]))
    end_epoch(s)
    # Flood with fresh blocks: evictions must kick in mid-epoch.  With
    # ``overlap`` an epoch ends mid-flood and the flood rewrites blocks
    # whose checkpoint is in flight, so DRAM temps flip at its commit.
    for block in range(50, 80):
        if overlap and block % 10 == 0:
            end_epoch(s, wait_commit=False)
            for rewrite in range(block - 10, block - 4):
                write_block(s, rewrite, b"again")
        write_block(s, block, bytes([block % 251]))
        settle(s.engine, 20_000)
    run_until(s.engine, lambda: not s.ctl._deferred_writes)
    write_block(s, 3, b"fresh")
    settle(s.engine, 50_000)
    end_epoch(s)


def test_emergency_eviction_victims_match_reference():
    """The tiny-BTT flood of the eviction-shadow hazard test, with every
    eviction's victim checked against the reference scan and the full
    index invariant checked at each eviction and after each commit."""
    for overlap in (False, True):
        s = make_direct(small_test_config(epoch_cycles=MANUAL_EPOCHS,
                                          btt_entries=16))
        ctl = s.ctl
        evict = ctl._emergency_evict_block
        commit = ctl._on_commit
        victims = []

        def checked_commit():
            commit()
            ctl.validate()

        def checked_evict():
            ctl.validate()
            expected = reference_victim(ctl.btt)
            before = {block for block, _entry in ctl.btt}
            freed = evict()
            removed = before - {block for block, _entry in ctl.btt}
            assert freed == (expected is not None)
            assert removed == ({expected.block} if freed else set())
            victims.append(expected)
            return freed

        ctl._emergency_evict_block = checked_evict
        ctl._on_commit = checked_commit
        _flood(s, overlap)
        ctl.validate()
        assert any(victim is not None for victim in victims)


def test_commit_flips_index_their_entries():
    """Both commit-flip notifications, in a table too large for a
    rebuild to re-index an entry a missing notification left out."""
    s = make_direct()
    ctl = s.ctl
    for block in range(8):
        write_block(s, block, b"one")          # pending copies in region A
    end_epoch(s, wait_commit=False)
    for block in range(8):
        write_block(s, block, b"two")          # own copy in flight: temps
    run_until(s.engine, lambda: ctl.committed_meta.epoch >= 0)
    # Nothing is idle yet, so the lookups drop every record so far.
    assert indexed_victim(ctl.btt) is None
    end_epoch(s)                               # temps flip at this commit
    for block in range(8, 16):
        write_block(s, block, b"one")
    end_epoch(s)                               # pending copies flip
    ctl.validate()
    assert all(ctl.btt.lookup(block).idle for block in range(16))
    assert indexed_victim(ctl.btt) is reference_victim(ctl.btt)
