"""Seeded properties: the arena's metering equals an independent tally.

Random programs of record accesses (``read``, ``read_field``,
``read_payload_batch``, ``write``, ``write_field``, ``set_flags``,
``flush``, ``flush_records``) run inside randomly nested metering contexts
(``clock.phase``, ``unmetered()``, ``deferred_writes()``,
``batched_writes()``), with an :class:`~repro.obs.Observability` attached
or not.  A small model walks the same program and tallies what each access
must cost from the device spec and :func:`lines_spanned` alone — it never
calls the metering code — and the arena's ``DeviceStats``, per-line wear,
clock totals (``now_ns``, ``by_category``, ``by_phase``), deferred-sink ns
and obs device counters must equal that tally exactly.  Every latency is an
integer number of nanoseconds, so the float totals are exact whatever the
order of the additions.

Invalid handles (foreign arena tag, freed slot, index past capacity) must
raise :class:`InvalidHandleError` from every access and charge nothing.
"""

import random
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from repro.config import (
    CACHE_LINE_SIZE,
    DRAM_SPEC,
    NVBM_SPEC,
    OCTANT_RECORD_SIZE,
)
from repro.errors import InvalidHandleError
from repro.nvbm.arena import FENCE_NS, MemoryArena
from repro.nvbm.clock import SimClock
from repro.nvbm.device import LINES_PER_RECORD, lines_spanned
from repro.nvbm.pointers import ARENA_DRAM, ARENA_NVBM, index_of, make_handle
from repro.nvbm.records import FLAGS_SPAN, PAYLOAD_SPAN, OctantRecord
from repro.obs import Observability

CAPACITY = 32
N_RECORDS = 12
SEEDS = range(10)

ARENAS = {
    "nvbm": (ARENA_NVBM, NVBM_SPEC, "mem_nvbm"),
    "dram": (ARENA_DRAM, DRAM_SPEC, "mem_dram"),
}

OPS = ("read", "read_field", "read_payload_batch", "write", "write_field",
       "set_flags", "flush", "flush_records")
CONTEXTS = ("phase", "unmetered", "deferred", "batched")


class Sink:
    """A deferred-writes sink (anything with a mutable ``ns``)."""

    def __init__(self):
        self.ns = 0.0


# --------------------------------------------------------------- the program


def _program(rng: random.Random, handles, depth: int = 0):
    """A random list of ops and nested ``(context, body)`` blocks."""
    items = []
    for _ in range(rng.randint(4, 14)):
        if depth < 3 and rng.random() < 0.25:
            kind = rng.choice(CONTEXTS)
            arg = rng.choice(("solve", "refine", "persist")) \
                if kind == "phase" else None
            items.append((kind, arg, _program(rng, handles, depth + 1)))
            continue
        op = rng.choice(OPS)
        h = rng.choice(handles)
        if op == "read_field":
            offset = rng.randrange(OCTANT_RECORD_SIZE)
            args = (h, offset, rng.randint(0, OCTANT_RECORD_SIZE - offset))
        elif op == "write_field":
            offset = rng.randrange(OCTANT_RECORD_SIZE)
            size = rng.randint(0, min(24, OCTANT_RECORD_SIZE - offset))
            args = (h, offset, bytes(rng.randrange(256) for _ in range(size)))
        elif op == "write":
            args = (h, bytes(rng.randrange(256)
                             for _ in range(OCTANT_RECORD_SIZE)))
        elif op == "set_flags":
            args = (h, rng.randrange(256))
        elif op == "read_payload_batch":
            args = ([rng.choice(handles) for _ in range(rng.randint(0, 6))],)
        elif op == "flush_records":
            args = (rng.sample(handles, rng.randint(0, 6)),)
        elif op == "flush":
            args = ()
        else:
            args = (h,)
        items.append((op, args))
    return items


# ------------------------------------------------------------------ the model


class Model:
    """What the program must have cost, from first principles."""

    def __init__(self, spec):
        self.spec = spec
        self.stats = Counter()
        self.wear = Counter()
        self.now_ns = 0.0
        self.by_phase = Counter()
        self.sink_ns = {}
        # context state
        self.phases = []
        self.unmetered = 0
        self.sink = None
        self.batch = None  # [clock ns, phase at the batch's opening]

    def _clock(self, ns, phase=None):
        self.now_ns += ns
        phase = phase if phase is not None else (
            self.phases[-1] if self.phases else None)
        if phase is not None:
            self.by_phase[phase] += ns

    def read(self, count, nbytes, lines):
        if self.unmetered or count == 0:
            return
        self.stats["reads"] += count
        self.stats["bytes_read"] += nbytes
        self.stats["lines_read"] += lines
        self._clock(lines * self.spec.read_latency_ns)

    def write(self, slot, nbytes, line0, lines):
        if self.unmetered:
            return
        self.stats["writes"] += 1
        self.stats["bytes_written"] += nbytes
        self.stats["lines_written"] += lines
        for g in range(slot * LINES_PER_RECORD + line0,
                       slot * LINES_PER_RECORD + line0 + lines):
            self.wear[g] += 1
        ns = lines * self.spec.write_latency_ns
        if self.sink is not None:
            self.sink_ns[id(self.sink)] = self.sink_ns.get(id(self.sink),
                                                           0.0) + ns
        elif self.batch is not None:
            self.batch[0] += ns
        else:
            self._clock(ns)

    def fence(self):
        if not self.unmetered:
            self._clock(FENCE_NS)

    @contextmanager
    def context(self, kind, arg, sink):
        if kind == "phase":
            self.phases.append(arg)
            yield
            self.phases.pop()
        elif kind == "unmetered":
            self.unmetered += 1
            yield
            self.unmetered -= 1
        elif kind == "deferred":
            prev, self.sink = self.sink, sink
            yield
            self.sink = prev
        elif self.batch is not None:  # nested batches join the outermost
            yield
        else:
            self.batch = [0.0, self.phases[-1] if self.phases else None]
            yield
            ns, phase = self.batch
            self.batch = None
            if ns:
                self._clock(ns, phase)


def _run(arena, clock, model, items, sinks):
    """Execute ``items`` on the arena and feed the same steps to the model."""
    dev = arena.device
    for item in items:
        if item[0] in CONTEXTS:
            kind, arg, body = item
            sink = Sink() if kind == "deferred" else None
            if sink is not None:
                sinks.append(sink)
            real = {"phase": lambda: clock.phase(arg),
                    "unmetered": dev.unmetered,
                    "deferred": lambda: dev.deferred_writes(sink),
                    "batched": dev.batched_writes}[kind]()
            with real, model.context(kind, arg, sink):
                _run(arena, clock, model, body, sinks)
            continue
        op, args = item
        slot = index_of(args[0]) if op in ("write", "write_field",
                                           "set_flags") else None
        if op == "read":
            arena.read(*args)
            model.read(1, OCTANT_RECORD_SIZE, LINES_PER_RECORD)
        elif op == "read_field":
            _h, offset, size = args
            arena.read_field(*args)
            model.read(1, size, lines_spanned(offset, size))
        elif op == "read_payload_batch":
            (hs,) = args
            arena.read_payload_batch(hs)
            n = len(hs)
            model.read(n, n * PAYLOAD_SPAN[1],
                       n * lines_spanned(*PAYLOAD_SPAN))
        elif op == "write":
            arena.write(*args)
            model.write(slot, OCTANT_RECORD_SIZE, 0, LINES_PER_RECORD)
        elif op == "write_field":
            _h, offset, data = args
            arena.write_field(*args)
            model.write(slot, len(data), offset // CACHE_LINE_SIZE,
                        lines_spanned(offset, len(data)))
        elif op == "set_flags":
            arena.set_flags(*args)
            model.write(slot, FLAGS_SPAN[1], FLAGS_SPAN[0] // CACHE_LINE_SIZE,
                        1)
        elif op == "flush":
            arena.flush()
            model.fence()
        else:
            arena.flush_records(*args)
            model.fence()


def _rig(which, with_obs):
    arena_id, spec, key = ARENAS[which]
    clock = SimClock()
    arena = MemoryArena(arena_id, spec, clock, capacity_octants=CAPACITY)
    obs = None
    if with_obs:
        obs = Observability(clock)
        arena.attach_obs(obs)
    with arena.device.unmetered():
        handles = [arena.new_octant(OctantRecord(loc=i + 1))
                   for i in range(N_RECORDS)]
        arena.flush()  # later reads come from the medium (and verify)
    return arena, clock, obs, handles, spec, key


def _wear_of(arena):
    wear = arena.device._wear
    return {int(g): int(wear[g]) for g in np.flatnonzero(wear)}


def _device_counters(obs, label):
    m = obs.metrics
    return {name: m.counter(f"device.{name}", device=label).value
            for name in ("reads", "writes", "bytes_read", "bytes_written",
                         "lines_touched")}


@pytest.mark.parametrize("with_obs", [False, True], ids=["obs-off", "obs-on"])
@pytest.mark.parametrize("which", sorted(ARENAS))
@pytest.mark.parametrize("seed", SEEDS)
def test_arena_metering_matches_independent_tally(seed, which, with_obs):
    rng = random.Random(seed * 7919 + len(which))
    arena, clock, obs, handles, spec, key = _rig(which, with_obs)
    assert arena.device.stats.reads == 0 and clock.now_ns == 0.0

    model = Model(spec)
    sinks = []
    program = _program(rng, handles)
    _run(arena, clock, model, program, sinks)

    st = arena.device.stats
    for name in ("reads", "writes", "bytes_read", "bytes_written",
                 "lines_read", "lines_written"):
        assert getattr(st, name) == model.stats[name], name
    assert _wear_of(arena) == dict(model.wear)
    assert clock.now_ns == model.now_ns
    assert clock.by_category == ({key: model.now_ns} if model.now_ns else {})
    assert clock.by_phase == dict(model.by_phase)
    for sink in sinks:
        assert sink.ns == model.sink_ns.get(id(sink), 0.0)
    if obs is not None:
        assert _device_counters(obs, arena.name) == {
            "reads": model.stats["reads"],
            "writes": model.stats["writes"],
            "bytes_read": model.stats["bytes_read"],
            "bytes_written": model.stats["bytes_written"],
            "lines_touched": model.stats["lines_read"]
            + model.stats["lines_written"],
        }


def test_programs_reach_every_op_and_context():
    """The generator is not vacuous: across the seeds every op runs in and
    out of every context kind."""
    seen = set()

    def walk(items, ctx):
        for item in items:
            if item[0] in CONTEXTS:
                walk(item[2], ctx | {item[0]})
            else:
                seen.update((item[0], c) for c in ctx | {"none"})

    for seed in SEEDS:
        for which in ARENAS:
            rng = random.Random(seed * 7919 + len(which))
            walk(_program(rng, list(range(1, N_RECORDS + 1))), frozenset())
    assert {(op, c) for op in OPS for c in CONTEXTS + ("none",)} <= seen


# ----------------------------------------------------------- invalid handles


def _invalid_handles(arena, handles):
    other = ARENA_DRAM if arena.arena_id == ARENA_NVBM else ARENA_NVBM
    freed = handles[-1]
    arena.free(freed)
    return {
        "foreign-tag": make_handle(other, 0),
        "freed": freed,
        "past-capacity": make_handle(arena.arena_id, CAPACITY + 5),
    }


ACCESSES = {
    "read": lambda a, h: a.read(h),
    "read_octant": lambda a, h: a.read_octant(h),
    "read_field": lambda a, h: a.read_field(h, *PAYLOAD_SPAN),
    "read_payload": lambda a, h: a.read_payload(h),
    "read_flags": lambda a, h: a.read_flags(h),
    "read_payload_batch": lambda a, h: a.read_payload_batch([h]),
    "write": lambda a, h: a.write(h, bytes(OCTANT_RECORD_SIZE)),
    "write_field": lambda a, h: a.write_field(h, 16, bytes(8)),
    "set_flags": lambda a, h: a.set_flags(h, 1),
}


@pytest.mark.parametrize("access", sorted(ACCESSES))
@pytest.mark.parametrize("which", sorted(ARENAS))
def test_invalid_handles_raise_and_charge_nothing(which, access):
    arena, clock, obs, handles, _spec, _key = _rig(which, with_obs=True)
    for kind, bad in _invalid_handles(arena, handles).items():
        before = (dict(vars(arena.device.stats)), clock.now_ns,
                  dict(clock.by_category), _wear_of(arena),
                  _device_counters(obs, arena.name))
        with pytest.raises(InvalidHandleError):
            ACCESSES[access](arena, bad)
        after = (dict(vars(arena.device.stats)), clock.now_ns,
                 dict(clock.by_category), _wear_of(arena),
                 _device_counters(obs, arena.name))
        assert after == before, kind
    assert not arena.contains(make_handle(arena.arena_id, CAPACITY + 5))
    assert arena.contains(handles[0])
