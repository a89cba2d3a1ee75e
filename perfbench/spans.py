"""Host-time spans around the calls into each layer, installed from outside.

The traced run patches the public functions the drivers look up (class
methods and the module-level names the drivers imported) with thin
wrappers that record a span per call: its name, host start and end
(``time.process_time``, as every host time of the benchmark), its parent
span and the id of the enclosing root span (one per solver step or restart
cycle).  Spans live in memory; the
benchmark aggregates them once the run ends.  Every patch is undone when
the :func:`patched` block exits, so the program is left as it was found.

``nvbm`` and ``obs`` are called too finely to wrap, so their self time comes
from a separate :func:`profile_self_times` pass that groups profiler self
time by ``repro/<package>/``.
"""

from __future__ import annotations

import cProfile
import functools
import pstats
import re
from contextlib import contextmanager
from dataclasses import dataclass
from time import process_time
from typing import Callable, Dict, Iterator, List, Tuple


@dataclass
class Span:
    """One recorded call: host seconds, parent index (-1 = none), root id
    (0 = outside every root span)."""

    name: str
    start: float
    end: float
    parent: int
    root: int


class SpanRecorder:
    """Keeps the spans of one traced run in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._roots = 0

    @contextmanager
    def span(self, name: str, root: bool = False) -> Iterator[Span]:
        """Record the enclosed block as one span (``root`` opens a new id)."""
        parent = self._stack[-1] if self._stack else -1
        if root:
            self._roots += 1
            root_id = self._roots
        else:
            root_id = self.spans[parent].root if parent >= 0 else 0
        sp = Span(name, process_time(), 0.0, parent, root_id)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        try:
            yield sp
        finally:
            sp.end = process_time()
            self._stack.pop()

    def wrap(self, fn: Callable, name: str, root: bool = False) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, root=root):
                return fn(*args, **kwargs)

        return traced

    # -- aggregation ---------------------------------------------------------

    def self_times(self) -> List[float]:
        """Per span: its duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent >= 0:
                child[sp.parent] += sp.end - sp.start
        return [sp.end - sp.start - c for sp, c in zip(self.spans, child)]

    def by_name(self) -> Dict[str, Tuple[int, float, float]]:
        """name -> (calls, self seconds, inclusive seconds)."""
        out: Dict[str, Tuple[int, float, float]] = {}
        for sp, self_s in zip(self.spans, self.self_times()):
            n, s, incl = out.get(sp.name, (0, 0.0, 0.0))
            out[sp.name] = (n + 1, s + self_s, incl + sp.end - sp.start)
        return out

    def root_balance(self) -> Tuple[float, float]:
        """(sum of root-span durations, sum of self times of every span
        under a root).  The two agree when the span tree is well nested."""
        selfs = self.self_times()
        total = sum(sp.end - sp.start for sp in self.spans
                    if sp.parent < 0 and sp.root > 0)
        covered = sum(s for sp, s in zip(self.spans, selfs) if sp.root > 0)
        return total, covered


@contextmanager
def patched(recorder: SpanRecorder, targets) -> Iterator[SpanRecorder]:
    """Install span wrappers on ``targets`` for the block, then restore.

    ``targets`` holds ``(owner, attribute, span name, is_root)`` tuples;
    the owner is a class (its method is wrapped) or a module (the name the
    driver looks up is rebound).  The attribute must be defined on the
    owner itself, so restoring puts back exactly what was there.
    """
    saved = []
    try:
        for owner, attr, name, root in targets:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(original, name, root=root))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@contextmanager
def counted(obj, attrs, counts: Dict[str, int]) -> Iterator[None]:
    """Count calls to bound methods of one instance (instance attributes
    shadow the class methods for the block, then are removed)."""

    def counter(fn, key):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return call

    try:
        for attr in attrs:
            setattr(obj, attr, counter(getattr(obj, attr), attr))
        yield
    finally:
        for attr in attrs:
            vars(obj).pop(attr, None)


_PACKAGE = re.compile(r"[/\\]repro[/\\]([A-Za-z_]+)[/\\]")


@contextmanager
def profile_self_times(out: Dict[str, float]) -> Iterator[cProfile.Profile]:
    """Profile the block; fill ``out`` with self seconds per repro package.

    Keys are the package names under ``repro/`` (``nvbm``, ``obs``,
    ``core`` ...); time in files outside the package is summed under
    ``other``.  The profiler inflates call-heavy code, so these are
    attribution shares, not end-to-end times.
    """
    prof = cProfile.Profile()
    prof.enable()
    try:
        yield prof
    finally:
        prof.disable()
        stats = pstats.Stats(prof)
        for (filename, _line, _func), row in stats.stats.items():
            m = _PACKAGE.search(filename)
            key = m.group(1) if m else "other"
            out[key] = out.get(key, 0.0) + row[2]
