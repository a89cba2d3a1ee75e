"""The reference kernel that calibrates host times against host speed.

A virtual CPU of a shared host does not run at one speed: in the benchmark's
own runs on a 2-vCPU x86_64 VM, whole runs drifted by 10 to 30 % within
minutes, and single episodes by up to 35 %, as the tenants on the same
cores came and went.  Process CPU seconds count that drift as if the
program had changed.

The benchmark therefore runs a fixed reference kernel, :func:`slice_s`,
before every timed op and after the last one, interleaved with the program
on the same thread.  A :class:`Calibration` collects those slices; the
run's host times are divided by :attr:`Calibration.scale`, the mean slice
over :data:`NOMINAL_S`.  A host phase that slows the program slows the
slices next to it too, and the quotient keeps only the program's own cost.
The kernel is fixed code of the benchmark that the program never calls,
so a change to the program moves its ops and not the slices.  A calibrated
time reads as the seconds the op would take on a host where one slice
takes :data:`NOMINAL_S`.

The kernel mixes the three kinds of work the program's host time goes to:
interpreter work on slotted objects and a dict, small numpy operations
with a Python-level loop around them, and strided reads over a buffer of
half a megabyte.  The cyclic garbage collector is off during a slice, so a
collection of the program's heap is not charged to the reference.
"""

from __future__ import annotations

import gc
import statistics
from time import process_time
from typing import List

import numpy as np

#: Seconds of one slice on the tuning host, a 2-vCPU x86_64 VM; the unit
#: the calibrated host times are expressed in.
NOMINAL_S = 0.0125

_PY_ITERS = 12_000
_NP_ITERS = 1_200
_MEM_ITERS = 800
_BUF_WORDS = 1 << 16


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: float):
        self.a = a
        self.b = b


_CELLS = [_Cell(i, i * 0.5) for i in range(64)]
_BUF = np.zeros(_BUF_WORDS)


def _interpreter() -> int:
    table = {}
    acc = 0
    for i in range(_PY_ITERS):
        cell = _CELLS[i & 63]
        table[(i * 2654435761) & 4095] = cell.a + acc
        acc = (acc + cell.a * 3) & 0xFFFF
    return acc + len(table)


def _small_numpy() -> float:
    a = np.zeros(64)
    total = 0.0
    for i in range(_NP_ITERS):
        a = a * 0.5 + 1.0
        total += float(a[i & 63])
        start = (i * 97) & (_BUF_WORDS - 1)
        n = min(64, _BUF_WORDS - start)
        _BUF[start:start + n] = a[:n]
    return total


def _strided_reads() -> float:
    total = 0.0
    for i in range(_MEM_ITERS):
        total += float(_BUF[(i * 4099) & (_BUF_WORDS - 1)::17].sum())
    return total


def slice_s() -> float:
    """Run the reference kernel once and return its process CPU seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = process_time()
        _interpreter()
        _small_numpy()
        _strided_reads()
        return process_time() - t0
    finally:
        if enabled:
            gc.enable()


class Calibration:
    """The reference slices of one measured run."""

    def __init__(self):
        self.slices: List[float] = []

    def tick(self) -> None:
        """Run one slice between two timed regions (never inside one)."""
        self.slices.append(slice_s())

    @property
    def scale(self) -> float:
        """Host slowness of the run: mean slice seconds / NOMINAL_S."""
        if not self.slices:
            raise ValueError("no reference slice was run")
        return statistics.mean(self.slices) / NOMINAL_S
