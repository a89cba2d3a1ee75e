"""Mark-and-sweep garbage collection over the NVBM arena (§3.2).

Deletion never frees NVBM slots directly — octants are only marked — so the
arena fills with superseded COW originals, coarsened children and records
orphaned by crashes (allocated but torn/never flushed).  GC reclaims
everything not reachable from the live roots:

* the persistent root ``V_{i-1}``,
* the working version (its NVBM handles in the index — this also covers the
  current root when it is a DRAM handle),
* the NVBM origins of DRAM-resident C0 octants (still needed as sharing
  targets at the next merge),
* the roots of in-flight pipeline epochs (enqueued but not yet published —
  reachable from no root slot, and possibly not from the index either once
  the next step coarsens; sweeping one would dangle its scheduled publish).

Under the epoch pipeline the published tree can lag the working version by
several epochs; rather than traversing each retained version (re-reading
every record unique to it), the mark *pins* the per-epoch deltas — COW
``superseded`` originals plus non-COW ``detached`` departures — which
reconstruct every retained version's reachable set from the working
version's by pure set union, with no device reads.

GC must not run during a merge (the structure is mid-flight); the paper
disables it there and so do we (:class:`repro.errors.GCDisabledError` is
raised by :meth:`repro.core.pmoctree.PMOctree.gc`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Set

from repro.nvbm.pointers import ARENA_NVBM, INDEX_BITS, NULL_HANDLE, is_nvbm

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pmoctree import PMOctree

from repro.core.pmoctree import SLOT_CURR, SLOT_PREV


@dataclass
class GCResult:
    """Outcome of one collection."""

    marked: int
    swept: int

    @property
    def reclaimed(self) -> int:
        return self.swept


def _mark(pmo: "PMOctree") -> Set[int]:
    """BFS over NVBM records from all live roots.

    Synchronous mode traverses both root slots: ``V_{i-1}`` and the working
    version share almost every record, so the visited set makes the second
    walk nearly free.  Under the epoch pipeline the published root lags the
    working version by up to ``max_inflight`` epochs and a traversal of the
    old tree would *re-read* every record unique to it — exactly the volume
    the deferred drain hides, cancelling the overlap win.  Instead the
    pipelined mark walks only the working version and **pins** the
    per-epoch deltas (COW originals and detached records): version *k*'s
    reachable set is the working version's plus the deltas of every later
    epoch, so the union is exact, with zero reads.
    """
    seen: Set[int] = set()
    roots = []
    pins: Set[int] = set()
    if pmo._pipeline is not None:
        # pin, don't traverse: old-version-only records plus the root
        # slots and in-flight roots themselves (their interiors are
        # covered by the working-version walk + the pins).  The union
        # happens *after* the walk — a pin that is also a working-version
        # record must still be traversed normally.
        raw = pmo._pipeline.pinned_handles()
        raw.extend(pmo._superseded)
        raw.extend(pmo._detached)
        raw.extend(pmo._pipeline.live_roots())
        for slot in (SLOT_PREV, SLOT_CURR):
            raw.append(pmo.nvbm.roots.get(slot))
        pins.update(h for h in raw
                    if h != NULL_HANDLE and is_nvbm(h)
                    and pmo.nvbm.contains(h))
    else:
        for slot in (SLOT_PREV, SLOT_CURR):
            h = pmo.nvbm.roots.get(slot)
            if h != NULL_HANDLE and is_nvbm(h):
                roots.append(h)
    roots.extend(h for h in pmo._index.values() if is_nvbm(h))
    roots.extend(h for h in pmo._origin.values() if is_nvbm(h))

    stack = [h for h in roots if pmo.nvbm.contains(h)]
    while stack:
        h = stack.pop()
        if h in seen:
            continue
        seen.add(h)
        rec = pmo.nvbm.read_octant(h)
        for ch in rec.live_children():
            # arena tag tested inline (the hot loop of every mark)
            if (ch >> INDEX_BITS == ARENA_NVBM and ch not in seen
                    and pmo.nvbm.contains(ch)):
                stack.append(ch)
    seen |= pins
    return seen


def mark_and_sweep(pmo: "PMOctree") -> GCResult:
    """Free every NVBM record unreachable from the live roots."""
    marked = _mark(pmo)
    swept = 0
    for h in list(pmo.nvbm.live_handles()):
        if h not in marked:
            pmo.nvbm.free(h)
            swept += 1
    pmo.stats.gc_runs += 1
    pmo.stats.octants_reclaimed += swept
    return GCResult(marked=len(marked), swept=swept)
