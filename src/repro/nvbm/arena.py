"""Memory arenas: record-addressed DRAM and NVBM with crash semantics.

An arena is the byte store behind one memory technology on one node.  Octant
records are addressed by *handles* (:mod:`repro.nvbm.pointers`), each access
is charged to the simulated clock by the arena's
:class:`~repro.nvbm.device.MemoryDevice`, and — the part the paper's
emulator could not exercise — stores to a non-volatile arena first land in a
volatile write-back cache whose lines are dropped or torn on a crash.

Crash model
-----------
* A **volatile** arena loses everything: backing store, cache, allocations.
* A **non-volatile** arena keeps its backing store.  Each dirty cached record
  is persisted *per 64-byte line* with independent probability 1/2 (the CPU
  may have evicted any subset of lines, in any order) and the cache is then
  discarded.  Allocator metadata is assumed persistent, as a real NVBM
  allocator's would be; slots holding torn or never-persisted records are
  reclaimed by PM-octree's mark-and-sweep GC after recovery.
* :meth:`MemoryArena.flush` persists all dirty lines (the analogue of a
  ``clflush``/``mfence`` sequence at a persist point), and root-slot updates
  are 8-byte atomic write-throughs — the *only* ordered write PM-octree
  needs (§3).

Access path
-----------
Every record access runs one of two sequences, each in one frame:

* **load** (:meth:`MemoryArena._load`, behind :meth:`~MemoryArena.read`,
  :meth:`~MemoryArena.read_field`, :meth:`~MemoryArena.read_octant`, the
  typed field readers and the batched gathers): handle check (arena tag,
  then the allocator's liveness bit) → device charge (skipped inside
  ``unmetered()``; a batched gather charges its records in one sum) →
  fetch (write-back cache first, then the backing store) → verify (a
  metered read served by the backing store: media-fault model on the
  spanned lines, then the record's CRC seal).
* **store** (:meth:`MemoryArena._store`, behind :meth:`~MemoryArena.write`
  and :meth:`~MemoryArena.write_field`): handle and argument checks →
  device charge (stats, wear, fault-model refresh; time to the clock, the
  deferred sink or the open write batch) → tracer and obs → the bytes
  land (backing store on DRAM; cache plus dirty-line mask on NVBM).

Nothing is cached between accesses: every metered read of a sealed record
recomputes its CRC, so corruption planted in the backing store is caught.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

import numpy as np

from repro.config import CACHE_LINE_SIZE, OCTANT_RECORD_SIZE, DeviceSpec
from repro.errors import (
    ConsistencyError,
    InvalidHandleError,
    MediaError,
    ReproError,
)
from repro.nvbm.allocator import RecordAllocator
from repro.nvbm.clock import SimClock
from repro.nvbm.device import MemoryDevice, lines_spanned
from repro.nvbm.pointers import INDEX_BITS, INDEX_MASK, make_handle
from repro.nvbm.records import (
    EPOCH_SPAN,
    FLAGS_SPAN,
    PAYLOAD_SPAN,
    OctantRecord,
    child_span,
    pack_handles,
    pack_payload,
    pack_record,
    record_crc,
    unpack_epoch,
    unpack_payload,
    unpack_record,
)

#: Cost of the ordering instruction sequence at a flush/persist point.
FENCE_NS = 250.0

_LINES_PER_RECORD = OCTANT_RECORD_SIZE // CACHE_LINE_SIZE
_ALL_LINES_MASK = (1 << _LINES_PER_RECORD) - 1

# (offset, size, lines spanned, first line) of the fixed-span typed fields
_PAYLOAD_ACCESS = (*PAYLOAD_SPAN, lines_spanned(*PAYLOAD_SPAN),
                   PAYLOAD_SPAN[0] // CACHE_LINE_SIZE)
_EPOCH_ACCESS = (*EPOCH_SPAN, lines_spanned(*EPOCH_SPAN),
                 EPOCH_SPAN[0] // CACHE_LINE_SIZE)
_FLAGS_ACCESS = (*FLAGS_SPAN, lines_spanned(*FLAGS_SPAN),
                 FLAGS_SPAN[0] // CACHE_LINE_SIZE)


class RootSlots:
    """Named 8-byte persistent slots for ``ADDR(V_i)`` / ``ADDR(V_{i-1})``.

    Updates are write-through and atomic: an 8-byte aligned store is atomic
    on x86, which is the primitive PM-octree's persist-point swap relies on.

    ``injector`` (optional) makes :meth:`swap` crash-testable: the site
    ``roots.swap.mid`` fires between the two device stores, *before* either
    slot value changes — the model's claim is that the exchange is
    all-or-nothing, so a mid-swap crash must leave both slots untouched.
    ``tracer`` (optional, see :mod:`repro.analysis.tracker`) observes every
    slot publish for ordering verification.
    """

    def __init__(self, device: MemoryDevice, injector=None):
        self._device = device
        self._slots: Dict[str, int] = {}
        self.injector = injector
        self.tracer = None

    def get(self, name: str) -> int:
        self._device.on_read(8)
        return self._slots.get(name, 0)

    def set(self, name: str, handle: int) -> None:
        self._device.on_write(8)
        self._slots[name] = handle
        if self.tracer is not None:
            self.tracer.on_publish(name, handle)

    def swap(self, a: str, b: str) -> None:
        """Atomically exchange two root slots (the §3.2 persist point)."""
        va, vb = self._slots.get(a, 0), self._slots.get(b, 0)
        self._device.on_write(8)
        if self.injector is not None:
            from repro.nvbm.sites import ROOTS_SWAP_MID

            self.injector.site(ROOTS_SWAP_MID)
        self._device.on_write(8)
        self._slots[a], self._slots[b] = vb, va
        if self.tracer is not None:
            self.tracer.on_publish(a, vb)
            self.tracer.on_publish(b, va)

    def names(self) -> Iterator[str]:
        return iter(self._slots)


class MemoryArena:
    """Record-granular memory of one technology (DRAM or NVBM) on one node."""

    def __init__(
        self,
        arena_id: int,
        spec: DeviceSpec,
        clock: SimClock,
        capacity_octants: int,
        name: Optional[str] = None,
        wear_leveling: bool = False,
        injector=None,
    ):
        self.arena_id = arena_id
        self.spec = spec
        self.name = name or spec.name
        self.device = MemoryDevice(spec, clock)
        #: optional ordering observer (see repro.analysis.tracker); checked
        #: on every store/flush/free, None in normal operation.
        self.tracer = None
        #: bound obs counters (attach_obs); None in normal operation
        self._m_stores = None
        self._m_flush_calls = None
        self._m_flush_records = None
        self._m_allocs = None
        self._m_frees = None
        if wear_leveling:
            from repro.nvbm.allocator import WearLevelingAllocator

            self.allocator = WearLevelingAllocator(capacity_octants,
                                                   name=self.name)
        else:
            self.allocator = RecordAllocator(capacity_octants, name=self.name)
        # aliases for the inline handle check (the bitmap is never replaced)
        self._live = self.allocator.live_bitmap
        self._nslots = self.allocator.capacity
        self._volatile = spec.volatile
        self._backing: Dict[int, bytes] = {}
        self._cache: Dict[int, bytes] = {}
        #: per-record CRC seal, kept *out-of-band* (idx -> CRC32 over the
        #: record bytes) the way a DIMM keeps ECC metadata in extra device
        #: bits: the byte stream an application stores is exactly what the
        #: medium holds, so the per-line crash-tear model stays honest.
        #: Sealing happens at :meth:`flush` (the only point the bytes are
        #: known durable); a crash voids the seal of anything that was
        #: dirty — torn records carry no integrity claim and are left to GC.
        self._sealed: Dict[int, int] = {}
        #: per-record bitmask of *dirty* cache lines (non-volatile arenas
        #: only).  A full-record store dirties every line; a field store
        #: dirties only the lines it spans — the crash model tears exactly
        #: these, so a torn partial store is modelled faithfully.
        self._dirty_lines: Dict[int, int] = {}
        # Root slots only make sense on a persistent arena but are harmless
        # on DRAM (they just vanish with everything else on a crash).
        self.roots = RootSlots(self.device, injector=injector)

    def attach_obs(self, obs) -> None:
        """Bind record-level counters (and the device's access counters)
        from an :class:`repro.obs.Observability`, labeled by arena name."""
        self.device.attach_obs(obs, device=self.name)
        m = obs.metrics
        self._m_stores = m.counter("arena.stores", arena=self.name)
        self._m_flush_calls = m.counter("arena.flush_calls", arena=self.name)
        self._m_flush_records = m.counter("arena.flush_records",
                                          arena=self.name)
        self._m_allocs = m.counter("arena.allocs", arena=self.name)
        self._m_frees = m.counter("arena.frees", arena=self.name)

    # -- capacity ----------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self.allocator.capacity

    @property
    def used(self) -> int:
        return self.allocator.used

    @property
    def free_fraction(self) -> float:
        return self.allocator.free_fraction

    # -- raw record access ---------------------------------------------------

    def _check(self, handle: int) -> int:
        """Record index of a live handle of this arena; raise otherwise."""
        if self.contains(handle):
            return handle & INDEX_MASK
        if handle >> INDEX_BITS != self.arena_id:
            raise InvalidHandleError(
                f"handle {handle:#x} does not belong to arena {self.name!r}"
            )
        raise InvalidHandleError(f"{self.name}: handle {handle:#x} is not allocated")

    def alloc(self) -> int:
        """Allocate a record slot and return its handle (contents undefined)."""
        if self._m_allocs is not None:
            self._m_allocs.inc()
        return make_handle(self.arena_id, self.allocator.alloc())

    def free(self, handle: int) -> None:
        """Release a record slot (GC only, per §3.2's deferred deletion)."""
        idx = self._check(handle)
        if self.tracer is not None:
            self.tracer.on_free(handle)
        if self._m_frees is not None:
            self._m_frees.inc()
        self.allocator.free(idx)
        self._backing.pop(idx, None)
        self._cache.pop(idx, None)
        self._dirty_lines.pop(idx, None)
        self._sealed.pop(idx, None)

    def retire(self, handle: int) -> None:
        """Release a record slot *and* take its media out of rotation.

        Used by the repair ladder when a slot's lines are stuck or worn out:
        the slot is deallocated like :meth:`free` but the allocator's
        retired-set guarantees it is never handed out again.
        """
        idx = self._check(handle)
        if self.tracer is not None:
            self.tracer.on_free(handle)
        if self._m_frees is not None:
            self._m_frees.inc()
        self.allocator.retire(idx)
        self._backing.pop(idx, None)
        self._cache.pop(idx, None)
        self._dirty_lines.pop(idx, None)
        self._sealed.pop(idx, None)

    def attach_fault_model(self, model) -> None:
        """Arm a :class:`repro.nvbm.device.MediaFaultModel` on this arena."""
        self.device.attach_fault_model(model)

    def _load(self, handle: int, nbytes: int, nlines: int, line0: int,
              charge: bool = True) -> bytes:
        """The read sequence: check → charge → fetch → verify; returns the
        whole record's bytes (read-your-writes through the cache).

        The charge is one read of ``nbytes`` over ``nlines`` cache lines
        (``charge=False``: the batched gathers sum it themselves).  A read
        served by the *backing store* (the medium, not the volatile
        write-back cache) checks media faults on lines ``[line0, line0 +
        nlines)`` and CRC-verifies the covering record (the CRC's unit of
        protection is the whole 128-byte record).  Verification itself
        charges nothing (it models the DIMM's per-line ECC riding along
        with the read); only the faults it *surfaces* cost anything, via
        the repair ladder's retries and rebuild traffic.  Inside
        ``unmetered()`` neither charge nor verification happens.
        """
        idx = handle & INDEX_MASK
        if (handle >> INDEX_BITS != self.arena_id or idx >= self._nslots
                or not self._live[idx]):
            self._check(handle)  # raises with the precise reason
        dev = self.device
        if charge:
            dev.on_read(nbytes, nlines)
        data = self._cache.get(idx)
        if data is None:
            data = self._backing.get(idx)
            if data is None:
                raise ConsistencyError(
                    f"{self.name}: handle {handle:#x} allocated but never "
                    "written (likely a dangling pointer into torn/unflushed "
                    "memory)"
                )
            if not dev._unmetered:
                if dev.fault_model is not None:
                    dev.check_media(idx, line0, nlines)
                crc = self._sealed.get(idx)
                if crc is not None and record_crc(data) != crc:
                    base = idx * _LINES_PER_RECORD
                    raise MediaError(
                        self.name, idx, "crc",
                        lines=tuple(range(base, base + _LINES_PER_RECORD)),
                        detail="sealed record failed CRC verification",
                    )
        return data

    def _store(self, handle: int, idx: int, data: bytes, nbytes: int,
               nlines: int, line0: int, mask: int) -> None:
        """The store sequence after the checks: charge ``nbytes`` over
        ``nlines`` lines from ``line0`` → tracer/obs → land ``data`` (the
        whole new record).  ``mask`` is the dirty-line set the store adds
        on a non-volatile arena."""
        self.device.on_write(nbytes, slot=idx, lines=nlines, line0=line0)
        if self.tracer is not None:
            self.tracer.on_store(handle, cached=not self._volatile)
        if self._m_stores is not None:
            self._m_stores.inc()
        if self._volatile:
            self._backing[idx] = data
        else:
            self._cache[idx] = data
            self._dirty_lines[idx] = self._dirty_lines.get(idx, 0) | mask

    def read(self, handle: int) -> bytes:
        """Load a whole record (see :meth:`_load`)."""
        return self._load(handle, OCTANT_RECORD_SIZE, _LINES_PER_RECORD, 0)

    def write(self, handle: int, data: bytes) -> None:
        """Store a record.  On NVBM the store lands in the volatile cache."""
        idx = self._check(handle)
        if len(data) != OCTANT_RECORD_SIZE:
            raise ValueError(f"record must be {OCTANT_RECORD_SIZE} bytes")
        self._store(handle, idx, data, OCTANT_RECORD_SIZE, _LINES_PER_RECORD,
                    0, _ALL_LINES_MASK)

    # -- field-granular access ------------------------------------------------
    #
    # The §5.4 economy ("PM-octree only needs to write new and updated
    # octants") extends *inside* the record: a payload update, a child-slot
    # splice or a flag flip touches one cache line, not the whole 128-byte
    # record.  These methods pack/unpack only the requested field and charge
    # the device for exactly the lines the field spans.

    def _base_bytes(self, idx: int, handle: int) -> bytes:
        data = self._cache.get(idx)
        if data is None:
            data = self._backing.get(idx)
        if data is None:
            raise ConsistencyError(
                f"{self.name}: handle {handle:#x} allocated but never written "
                "(field access needs an existing record)"
            )
        return data

    def read_field(self, handle: int, offset: int, size: int) -> bytes:
        """Load ``size`` bytes at ``offset`` of a record, charging only the
        cache lines the span touches (see :meth:`_load`)."""
        data = self._load(handle, size, lines_spanned(offset, size),
                          offset // CACHE_LINE_SIZE)
        return data[offset:offset + size]

    def write_field(self, handle: int, offset: int, data: bytes) -> None:
        """Store a field in place; on NVBM only the spanned lines turn dirty.

        The untouched lines of the record keep whatever durability state
        they had: a crash after a partial store can tear the *stored* lines
        (each persists independently with probability 1/2) but never the
        rest of the record.
        """
        idx = self._check(handle)
        size = len(data)
        if offset < 0 or offset + size > OCTANT_RECORD_SIZE:
            raise ValueError(
                f"field [{offset}, {offset + size}) outside the record"
            )
        base = self._base_bytes(idx, handle)
        line0 = offset // CACHE_LINE_SIZE
        # an empty store still touches the line at offset (lines_spanned)
        nlines = ((offset + size - 1) // CACHE_LINE_SIZE - line0 + 1
                  if size else 1)
        self._store(handle, idx, base[:offset] + data + base[offset + size:],
                    size, nlines, line0, ((1 << nlines) - 1) << line0)

    # typed field convenience -------------------------------------------------

    def read_payload(self, handle: int):
        """The 4-float payload alone (one cache line, not two)."""
        off, size, nlines, line0 = _PAYLOAD_ACCESS
        return unpack_payload(
            self._load(handle, size, nlines, line0)[off:off + size])

    def write_payload(self, handle: int, payload) -> None:
        self.write_field(handle, PAYLOAD_SPAN[0], pack_payload(payload))

    # batched field reads ---------------------------------------------------
    #
    # The SoA gather path loads one field (or the payload) of many records
    # at once.  Each record still runs the read sequence of :meth:`_load`
    # (check, fetch, verify), in order; only the *device charge* is
    # batched, as one ``on_read_batch`` carrying the exact per-element
    # totals (n reads, n * size bytes, n * lines_spanned lines).  The
    # charge comes after the loop, so under a rot-enabled fault model the
    # deadline check sees a clock that lags the scalar trajectory by at
    # most the batch's own read latency.  When a record raises, the reads
    # the scalar loop would have charged by then — every earlier record,
    # plus the failing one unless its handle check failed — are charged
    # before the error propagates, so ``DeviceStats`` and the clock match
    # that loop at the raise as well as on success.

    def _read_field_chunks(self, handles, offset: int, size: int) -> bytes:
        nlines = lines_spanned(offset, size)
        line0 = offset // CACHE_LINE_SIZE
        end = offset + size
        load = self._load
        chunks = []
        try:
            for handle in handles:
                chunks.append(load(handle, size, nlines, line0, False)[offset:end])
        except ReproError as exc:
            # a handle that passed its check was charged by the scalar read
            # before the fetch/verify that raised
            n = len(chunks) + (not isinstance(exc, InvalidHandleError))
            self.device.on_read_batch(n, size * n, nlines * n)
            raise
        n = len(chunks)
        self.device.on_read_batch(n, size * n, nlines * n)
        return b"".join(chunks)

    def read_payload_batch(self, handles) -> np.ndarray:
        """Payload rows of many records as an ``(n, 4)`` float64 array.

        Metering-equivalent to ``n`` :meth:`read_payload` calls."""
        off, size = PAYLOAD_SPAN
        blob = self._read_field_chunks(handles, off, size)
        return np.frombuffer(blob, dtype="<f8").reshape(-1, 4)

    def read_f64_field_batch(self, handles, offset: int) -> np.ndarray:
        """One float64 field at ``offset`` from each record.

        Metering-equivalent to ``n`` ``read_field(handle, offset, 8)``
        calls (the field-granular single-slot read)."""
        blob = self._read_field_chunks(handles, offset, 8)
        return np.frombuffer(blob, dtype="<f8")

    def read_epoch(self, handle: int) -> int:
        off, size, nlines, line0 = _EPOCH_ACCESS
        return unpack_epoch(
            self._load(handle, size, nlines, line0)[off:off + size])

    def read_flags(self, handle: int) -> int:
        off, size, nlines, line0 = _FLAGS_ACCESS
        return self._load(handle, size, nlines, line0)[off]

    def set_flags(self, handle: int, flags: int) -> None:
        """Store the one-byte flags field (a single-line flag flip)."""
        self.write_field(handle, FLAGS_SPAN[0], bytes((flags & 0xFF,)))

    def write_child_slot(self, handle: int, index: int, child: int) -> None:
        """Splice one child handle in place (an 8-byte, single-line store)."""
        offset, _size = child_span(index)
        self.write_field(handle, offset, pack_handles((child,)))

    def write_child_slots(self, handle: int, index: int, children) -> None:
        """Store contiguous child slots ``[index, index + len(children))``."""
        offset, _size = child_span(index, len(children))
        self.write_field(handle, offset, pack_handles(children))

    def contains(self, handle: int) -> bool:
        """True when the handle is a live allocation in this arena."""
        idx = handle & INDEX_MASK
        return (handle >> INDEX_BITS == self.arena_id and idx < self._nslots
                and self._live[idx] == 1)

    # -- octant-level convenience -------------------------------------------

    def read_octant(self, handle: int) -> OctantRecord:
        return unpack_record(
            self._load(handle, OCTANT_RECORD_SIZE, _LINES_PER_RECORD, 0))

    def write_octant(self, handle: int, rec: OctantRecord) -> None:
        self.write(handle, pack_record(rec))

    def new_octant(self, rec: OctantRecord) -> int:
        """Allocate and store a fresh octant; return its handle."""
        handle = self.alloc()
        self.write(handle, pack_record(rec))
        return handle

    # -- durability ----------------------------------------------------------

    @property
    def dirty_records(self) -> int:
        return len(self._cache)

    def dirty_handles(self) -> list:
        """Handles of every record currently dirty in the write-back cache.

        The epoch pipeline snapshots this at enqueue time: the set is
        exactly what the drain phase must make durable before the epoch's
        root may be published.
        """
        return [make_handle(self.arena_id, idx) for idx in self._cache]

    def flush(self) -> None:
        """Persist every dirty cached record (persist-point fence).

        On a non-volatile arena this is also the *sealing* point: every
        record reaching the medium gets a CRC stamped into the out-of-band
        seal table.  Only a completed flush seals — bytes torn onto the
        medium by a crash carry no integrity claim.
        """
        if not self.device._unmetered:
            self.device.clock.charge(FENCE_NS, self.device._cat_key)
        if self.tracer is not None:
            self.tracer.on_flush(
                [make_handle(self.arena_id, idx) for idx in self._cache]
            )
        # unmetered means *all* charging is suppressed, stats included: the
        # epoch pipeline pre-charges its fences through the drain cost model
        # and replays the flush here only for its durability effect.
        if self._m_flush_calls is not None and not self.device._unmetered:
            self._m_flush_calls.inc()
            self._m_flush_records.inc(len(self._cache))
        self._backing.update(self._cache)
        if not self._volatile:
            for idx, data in self._cache.items():
                self._sealed[idx] = record_crc(data)
        self._cache.clear()
        self._dirty_lines.clear()

    def flush_records(self, handles) -> None:
        """Persist (and seal) exactly the given records, leaving the rest
        of the write-back cache dirty.

        The selective analogue of :meth:`flush` for the epoch pipeline: an
        in-flight epoch drains only the records *it* snapshotted, so a
        later epoch's still-cooking stores are not prematurely persisted
        (which would re-order durability across epochs).  Handles that are
        no longer cached (already flushed, or freed by GC) are skipped.
        """
        aid, cache = self.arena_id, self._cache
        # dict.fromkeys: a repeated handle is already flushed the second time
        idxs = list(dict.fromkeys(h & INDEX_MASK for h in handles
                                  if h >> INDEX_BITS == aid
                                  and h & INDEX_MASK in cache))
        if not self.device._unmetered:
            self.device.clock.charge(FENCE_NS, self.device._cat_key)
        if self.tracer is not None:
            self.tracer.on_flush(
                [make_handle(self.arena_id, idx) for idx in idxs]
            )
        if self._m_flush_calls is not None and not self.device._unmetered:
            self._m_flush_calls.inc()
            self._m_flush_records.inc(len(idxs))
        for idx in idxs:
            data = self._cache.pop(idx)
            self._backing[idx] = data
            if not self._volatile:
                self._sealed[idx] = record_crc(data)
            self._dirty_lines.pop(idx, None)

    def crash(self, rng: Optional[np.random.Generator] = None) -> None:
        """Apply power-loss semantics (see module docstring)."""
        if self.tracer is not None:
            self.tracer.on_crash()
        if self.spec.volatile:
            self._backing.clear()
            self._cache.clear()
            self.allocator.reset()
            self._sealed.clear()
            self.roots._slots.clear()
            return
        rng = rng or np.random.default_rng()
        for idx, data in self._cache.items():
            # a dirty record's on-medium bytes are now an unordered merge of
            # old and new lines — whatever seal the old bytes carried no
            # longer describes what is actually stored
            self._sealed.pop(idx, None)
            old = self._backing.get(idx, b"\x00" * OCTANT_RECORD_SIZE)
            # only *dirty* lines are in flight; clean cached lines already
            # equal the backing store, so a partial store can tear at most
            # the lines it actually touched
            mask = self._dirty_lines.get(idx, _ALL_LINES_MASK)
            pieces = []
            for line in range(_LINES_PER_RECORD):
                lo, hi = line * CACHE_LINE_SIZE, (line + 1) * CACHE_LINE_SIZE
                dirty = mask & (1 << line)
                pieces.append(
                    data[lo:hi] if dirty and rng.random() < 0.5 else old[lo:hi]
                )
            merged = b"".join(pieces)
            if merged != old:
                self._backing[idx] = merged
        self._cache.clear()
        self._dirty_lines.clear()

    # -- introspection ---------------------------------------------------------

    def live_handles(self) -> Iterator[int]:
        """All allocated handles (GC sweep order)."""
        for idx in self.allocator.live_indices():
            yield make_handle(self.arena_id, int(idx))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemoryArena({self.name}, used={self.used}/{self.capacity}, "
            f"dirty={self.dirty_records})"
        )
