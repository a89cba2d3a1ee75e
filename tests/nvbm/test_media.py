"""Media-fault model, CRC sealing and per-line wear accounting."""

import numpy as np
import pytest

from repro.config import CACHE_LINE_SIZE, NVBM_SPEC, OCTANT_RECORD_SIZE
from repro.errors import InvalidHandleError, MediaError, UncorrectableError
from repro.nvbm.arena import MemoryArena
from repro.nvbm.clock import SimClock
from repro.nvbm.device import LINES_PER_RECORD, MediaFaultModel
from repro.nvbm.pointers import ARENA_NVBM, index_of
from repro.nvbm.records import (
    CRC_SPAN,
    OctantRecord,
    PAYLOAD_SPAN,
    pack_record,
    record_crc,
    seal_record,
    verify_record,
)


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def nvbm(clock):
    return MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, capacity_octants=64)


def _rec(loc=1, level=0):
    return OctantRecord(loc=loc, level=level)


def _gline(handle, line=0):
    return index_of(handle) * LINES_PER_RECORD + line


# ------------------------------------------------------------- wear accounting


def test_full_record_write_wears_every_line(nvbm):
    """Regression: a 2-line record write must age both lines, not just the
    record's first (the old per-slot accounting under-counted line 1)."""
    h = nvbm.new_octant(_rec())
    idx = index_of(h)
    wear = nvbm.device._wear
    base = idx * LINES_PER_RECORD
    assert list(wear[base: base + LINES_PER_RECORD]) == [1] * LINES_PER_RECORD


def test_field_write_wears_only_spanned_line(nvbm):
    h = nvbm.new_octant(_rec())
    nvbm.write_payload(h, (1.0, 2.0, 3.0, 4.0))  # one-line field
    base = index_of(h) * LINES_PER_RECORD
    line = PAYLOAD_SPAN[0] // CACHE_LINE_SIZE
    wear = nvbm.device._wear
    expect = [1] * LINES_PER_RECORD
    expect[line] += 1
    assert list(wear[base: base + LINES_PER_RECORD]) == expect


def test_wear_max_counts_per_line_writes(nvbm):
    h = nvbm.alloc()
    for _ in range(10):
        nvbm.write(h, pack_record(_rec()))
    assert nvbm.device.wear_max() == 10
    assert nvbm.device.wear_total() == 10 * LINES_PER_RECORD
    assert nvbm.device.wear_headroom() == pytest.approx(
        1.0 - 10 / NVBM_SPEC.endurance_writes)


# ------------------------------------------------------------ CRC seal helpers


def test_seal_and_verify_roundtrip():
    data = pack_record(_rec(loc=7))
    sealed = seal_record(data)
    assert len(sealed) == OCTANT_RECORD_SIZE
    assert verify_record(sealed)
    assert sealed[: CRC_SPAN[0]] == data[: CRC_SPAN[0]]


def test_verify_detects_any_covered_byte_flip():
    sealed = seal_record(pack_record(_rec(loc=7)))
    for off in (0, CRC_SPAN[0] // 2, CRC_SPAN[0] - 1):
        corrupt = bytearray(sealed)
        corrupt[off] ^= 0x01
        assert not verify_record(bytes(corrupt))


def test_record_crc_is_stable_and_ignores_crc_field():
    data = pack_record(_rec(loc=9))
    assert record_crc(data) == record_crc(seal_record(data))


# ----------------------------------------------------- arena-level CRC sealing


def test_backing_corruption_raises_crc_media_error(clock, nvbm):
    h = nvbm.new_octant(_rec(loc=3))
    nvbm.flush()  # sealing point
    idx = index_of(h)
    raw = bytearray(nvbm._backing[idx])
    raw[4] ^= 0xFF  # silent medium corruption, no fault model involved
    nvbm._backing[idx] = bytes(raw)
    with pytest.raises(MediaError) as ei:
        nvbm.read(h)
    assert ei.value.kind == "crc"
    assert ei.value.slot == idx


def test_cache_hit_skips_media_checks(nvbm):
    """The write-back cache is the writer's own bytes: a dirty record is
    readable even while the backing copy is corrupt."""
    h = nvbm.new_octant(_rec(loc=3))
    nvbm.flush()
    idx = index_of(h)
    raw = bytearray(nvbm._backing[idx])
    raw[4] ^= 0xFF
    nvbm._backing[idx] = bytes(raw)
    rec = _rec(loc=5)
    nvbm.write_octant(h, rec)  # re-dirties the cache
    assert nvbm.read_octant(h).loc == 5


def test_crash_voids_seal_of_torn_records(clock, nvbm):
    """A record dirty at power loss is an old/new line merge: whatever seal
    the old bytes carried must not condemn the merged image."""
    h = nvbm.new_octant(_rec(loc=3))
    nvbm.flush()
    rec = nvbm.read_octant(h)
    rec.loc = 77
    nvbm.write_octant(h, rec)  # dirty again
    nvbm.crash(np.random.default_rng(1))
    # the merged bytes may be old, new, or torn — but never a CRC error
    got = nvbm.read_octant(h)
    assert got.loc in (3, 77)


def test_flush_reseals_and_unmetered_skips_checks(nvbm):
    h = nvbm.new_octant(_rec(loc=3))
    nvbm.flush()
    idx = index_of(h)
    raw = bytearray(nvbm._backing[idx])
    raw[4] ^= 0xFF
    nvbm._backing[idx] = bytes(raw)
    with nvbm.device.unmetered():  # inspection probes never trip faults
        nvbm.read(h)
    with pytest.raises(MediaError):
        nvbm.read(h)


# ------------------------------------------------------------ MediaFaultModel


def test_unattached_model_changes_nothing(clock, nvbm):
    h = nvbm.new_octant(_rec(loc=3))
    nvbm.flush()
    t0 = clock.now_ns
    nvbm.read(h)
    cost_plain = clock.now_ns - t0
    nvbm.attach_fault_model(MediaFaultModel(seed=5))  # quiescent
    t0 = clock.now_ns
    assert nvbm.read_octant(h).loc == 3
    assert clock.now_ns - t0 == cost_plain  # verification charges nothing


def test_planted_rot_faults_until_rewritten(clock, nvbm):
    h = nvbm.new_octant(_rec(loc=3))
    nvbm.flush()
    model = MediaFaultModel(seed=5)
    nvbm.attach_fault_model(model)
    model.plant_rot(_gline(h))
    with pytest.raises(UncorrectableError) as ei:
        nvbm.read(h)
    assert ei.value.kind == "rot"
    nvbm.write_octant(h, _rec(loc=4))  # rewrite refreshes the cells
    nvbm.flush()
    assert nvbm.read_octant(h).loc == 4


def test_stuck_line_survives_rewrite(nvbm):
    h = nvbm.new_octant(_rec(loc=3))
    nvbm.flush()
    model = MediaFaultModel(seed=5)
    nvbm.attach_fault_model(model)
    model.plant_stuck(_gline(h))
    nvbm.write_octant(h, _rec(loc=4))
    nvbm.flush()
    with pytest.raises(UncorrectableError) as ei:
        nvbm.read(h)
    assert ei.value.kind == "stuck"


def test_field_read_checks_only_spanned_lines(nvbm):
    """A fault on line 1 must not fail a line-0 field read — but must fail
    a whole-record read, which spans it."""
    h = nvbm.new_octant(_rec(loc=3))
    nvbm.flush()
    model = MediaFaultModel(seed=5)
    nvbm.attach_fault_model(model)
    model.plant_stuck(_gline(h, line=1))
    assert PAYLOAD_SPAN[0] // CACHE_LINE_SIZE == 0
    nvbm.read_payload(h)  # line 0 only: clean
    with pytest.raises(UncorrectableError):
        nvbm.read(h)


def test_transient_clears_on_reread(clock, nvbm):
    h = nvbm.new_octant(_rec(loc=3))
    nvbm.flush()
    model = MediaFaultModel(seed=5, transient_rate=1.0)
    nvbm.attach_fault_model(model)
    with pytest.raises(UncorrectableError) as ei:
        nvbm.read(h)
    assert ei.value.kind == "transient"
    # rate 1.0 keeps faulting, but each read consumes its own draw — a
    # realistic rate lets the retry rung clear it deterministically
    model.transient_rate = 0.0
    assert nvbm.read_octant(h).loc == 3


def test_wear_out_faults_past_fraction(clock, nvbm):
    h = nvbm.alloc()
    spec_limit = NVBM_SPEC.endurance_writes
    model = MediaFaultModel(seed=5, wear_fraction=3.0 / spec_limit)
    nvbm.attach_fault_model(model)
    for i in range(8):  # drive wear far past limit * 1.5 (the max jitter)
        nvbm.write(h, pack_record(_rec(loc=i)))
    nvbm.flush()
    with pytest.raises(UncorrectableError) as ei:
        nvbm.read(h)
    assert ei.value.kind == "wear"


def test_fault_model_is_deterministic():
    a = MediaFaultModel(seed=9, rot_mtbf_ns=1e6, transient_rate=0.3)
    b = MediaFaultModel(seed=9, rot_mtbf_ns=1e6, transient_rate=0.3)
    a._endurance = b._endurance = 10**7
    seq = [(g, t) for g in range(6) for t in (0.0, 5e5, 5e6, 5e7)]
    got_a = [a.check(g, t, wear=0) for g, t in seq]
    got_b = [b.check(g, t, wear=0) for g, t in seq]
    assert got_a == got_b
    assert any(k is not None for k in got_a)  # the model actually fires


# ------------------------------------------------------------ retire semantics


def test_retire_removes_slot_from_rotation(nvbm):
    h = nvbm.new_octant(_rec(loc=3))
    idx = index_of(h)
    used_before = nvbm.used
    nvbm.retire(h)
    assert nvbm.allocator.is_retired(idx)
    assert nvbm.used == used_before - 1
    # the retired index is never handed out again
    handles = [nvbm.alloc() for _ in range(nvbm.capacity - nvbm.used - 1)]
    assert idx not in {index_of(x) for x in handles}


def test_retired_capacity_counts_as_spent(nvbm):
    h = nvbm.new_octant(_rec())
    free_before = nvbm.free_fraction
    nvbm.retire(h)
    assert nvbm.free_fraction == pytest.approx(free_before)
    assert nvbm.allocator.retired == 1


# ---------------------------------------------------- batched reads that fail


def _batch_vs_loop(make, fail, loop_read, batch_read):
    """Run the scalar loop and the batched read over the same fresh setup;
    both must raise ``fail`` with identical device stats and clock."""
    outcomes = []
    for read in (loop_read, batch_read):
        clock = SimClock()
        arena = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, capacity_octants=64)
        handles = make(arena)
        with pytest.raises(fail):
            read(arena, handles)
        outcomes.append((arena.device.stats, clock.now_ns,
                         dict(clock.by_category)))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


def _loop_payloads(arena, handles):
    for h in handles:
        arena.read_payload(h)


def _batch_payloads(arena, handles):
    arena.read_payload_batch(handles)


def test_batched_read_hitting_a_media_fault_charges_like_the_loop():
    """Regression: the batched gather used to verify every record before
    its single charge, so a fault on record k left the k earlier reads and
    the failing one uncharged (reads=0 where the loop had reads=3)."""

    def make(arena):
        arena.attach_fault_model(MediaFaultModel(seed=1))
        hs = [arena.new_octant(_rec(loc=i + 1)) for i in range(4)]
        arena.flush()
        line = PAYLOAD_SPAN[0] // CACHE_LINE_SIZE
        arena.device.fault_model.plant_stuck(_gline(hs[2], line))
        return hs

    stats, now_ns, _ = _batch_vs_loop(make, UncorrectableError,
                                      _loop_payloads, _batch_payloads)
    assert stats.reads == 3 and stats.lines_read == 3
    assert stats.bytes_read == 3 * PAYLOAD_SPAN[1]
    assert now_ns == 4 * 2 * NVBM_SPEC.write_latency_ns + 250.0 \
        + 3 * NVBM_SPEC.read_latency_ns


def test_batched_read_hitting_a_crc_fault_charges_like_the_loop():
    def make(arena):
        hs = [arena.new_octant(_rec(loc=i + 1)) for i in range(4)]
        arena.flush()
        idx = index_of(hs[1])
        raw = bytearray(arena._backing[idx])
        raw[0] ^= 0xFF
        arena._backing[idx] = bytes(raw)
        return hs

    stats, _, _ = _batch_vs_loop(make, MediaError,
                                 _loop_payloads, _batch_payloads)
    assert stats.reads == 2


def test_batched_read_of_a_freed_handle_charges_like_the_loop():
    """A failed handle check charges nothing for that record, in both."""

    def make(arena):
        hs = [arena.new_octant(_rec(loc=i + 1)) for i in range(4)]
        arena.free(hs[3])
        return hs

    stats, _, _ = _batch_vs_loop(make, InvalidHandleError,
                                 _loop_payloads, _batch_payloads)
    assert stats.reads == 3
