"""Level-major structure-of-arrays (SoA) views of a tree's leaves.

The solver hot paths (VOF transport, the wave sweep, the red-black
smoother, work-weight extraction) are per-octant Python loops over tuple
payload accessors; at realistic tree sizes the interpreter — not the
simulated memory device — is the binding constraint.  This module provides
the batch layer those kernels vectorise over:

* vectorised locational-code arithmetic (:func:`levels_of_codes`,
  :func:`coords_of_codes`, :func:`locs_from_coords`, :func:`zorder_keys`) that is
  *integer-exact* against :mod:`repro.octree.morton` — codes are plain
  int64 bit patterns, so the numpy forms produce identical values, not
  approximations;
* exact cell geometry (:func:`cell_geometry`) replaying
  ``morton.cell_bounds``/``cell_center`` arithmetic elementwise, so every
  float matches the scalar path to the last ulp;
* :class:`LeafBatch` — the gathered per-leaf arrays (``locs``, ``levels``,
  payload columns, bounds, centers) in the tree's ``leaves()`` iteration
  order plus a Z-sorted view for neighbor resolution.

Bit-identity discipline
-----------------------
The vectorised kernels must be *provably* equivalent to the scalar oracle
(see ``tests/solver/test_vectorized_differential.py``), which constrains
the arithmetic allowed here:

* only elementwise IEEE-754 ops (``+ - * /``, ``np.minimum``, ``np.abs``,
  comparisons) shared with the scalar expressions — these are exact per
  element, so array evaluation equals scalar evaluation bitwise;
* ``np.sqrt``/``np.exp``/``np.cos`` are elementwise-deterministic across
  array shapes (no size-dependent vector paths for the values we feed
  them), and ``np.sqrt``/``np.cos`` agree bitwise with ``math.sqrt``/
  ``math.cos``; ``math.exp`` and ``math.dist`` do NOT agree with their
  numpy counterparts and are therefore banned from dual-path code;
* powers-of-two cell sizes go through ``np.ldexp`` (exact), never
  ``1.0 / float(1 << level)`` loops.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.octree import morton

#: Maximum level (per dim) for which the int64 zorder-key arithmetic is
#: exact: ``dim * max_level + 6`` key bits must fit a signed 64-bit lane.
_KEY_BITS = 62

#: Locational codes must be exact as float64 for the frexp level trick.
_EXACT_FLOAT_LIMIT = 1 << 53


def _as_int64(locs) -> np.ndarray:
    arr = np.asarray(locs)
    return arr.astype(np.int64) if arr.dtype != np.int64 else arr


def levels_of_codes(locs, dim: int) -> np.ndarray:
    """Vectorised ``morton.level_of``: ``(bit_length - 1) // dim``.

    ``bit_length`` comes from the float64 exponent, which is exact for
    codes below 2**53 (guarded); integer-exact against the scalar form.
    """
    loc_arr = _as_int64(locs)
    if loc_arr.size == 0:
        return np.zeros(0, dtype=np.int64)
    if int(loc_arr.max()) >= _EXACT_FLOAT_LIMIT:  # pragma: no cover - guard
        return np.array([morton.level_of(int(v), dim) for v in loc_arr],
                        dtype=np.int64)
    bit_length = np.frexp(loc_arr.astype(np.float64))[1].astype(np.int64)
    return (bit_length - 1) // dim


def coords_of_codes(locs, levels: np.ndarray, dim: int) -> np.ndarray:
    """Vectorised ``morton.coords_of``: (n, dim) int64 min-corner coords.

    Bits above a code's own level are zero, so one loop to the deepest
    level needs no per-element masking.
    """
    loc_arr = _as_int64(locs)
    n = loc_arr.size
    coords = np.zeros((n, dim), dtype=np.int64)
    if n == 0:
        return coords
    bits = loc_arr - (np.int64(1) << (dim * levels))
    for i in range(int(levels.max())):
        for axis in range(dim):
            coords[:, axis] |= ((bits >> np.int64(dim * i + axis)) & 1) << i
    return coords


def locs_from_coords(levels: np.ndarray, coords: np.ndarray,
                     dim: int) -> np.ndarray:
    """Vectorised ``morton.loc_from_coords`` (coords must be in range)."""
    n = len(levels)
    bits = np.zeros(n, dtype=np.int64)
    if n == 0:
        return bits
    for i in range(int(levels.max())):
        for axis in range(dim):
            bits |= ((coords[:, axis] >> i) & 1) << np.int64(dim * i + axis)
    return (np.int64(1) << (dim * levels)) | bits


def zorder_keys(locs, levels: np.ndarray, dim: int,
                max_level: int) -> np.ndarray:
    """Vectorised ``morton.zorder_key`` (uint64, identical bit patterns)."""
    loc_arr = _as_int64(locs)
    if dim * max_level + 6 > _KEY_BITS:  # pragma: no cover - absurd depth
        return np.array(
            [morton.zorder_key(int(v), dim, max_level) for v in loc_arr],
            dtype=np.uint64,
        )
    aligned = (loc_arr - (np.int64(1) << (dim * levels))) \
        << (dim * (max_level - levels))
    return ((aligned << np.int64(6)) | levels).astype(np.uint64)


def cell_geometry(coords: np.ndarray, levels: np.ndarray):
    """``(h, mins, maxs, centers)`` replaying ``morton.cell_bounds`` /
    ``cell_center`` arithmetic elementwise (bit-identical floats).

    ``h = ldexp(1, -level)`` equals ``1.0 / (1 << level)`` exactly; the
    min corner ``c * h``, max corner ``min + h`` and center
    ``(lo + hi) / 2.0`` are the scalar expressions applied per element.
    """
    h = np.ldexp(1.0, -levels)
    mins = coords.astype(np.float64) * h[:, None]
    maxs = mins + h[:, None]
    centers = (mins + maxs) / 2.0
    return h, mins, maxs, centers


def geometry_of_codes(locs, dim: int):
    """``(levels, h, mins, maxs, centers)`` of many codes at once:
    :func:`levels_of_codes` + :func:`coords_of_codes` +
    :func:`cell_geometry`, bit-identical to the ``morton`` scalars."""
    levels = levels_of_codes(locs, dim)
    coords = coords_of_codes(locs, levels, dim)
    return (levels,) + cell_geometry(coords, levels)


class LeafBatch:
    """Gathered SoA view of a tree's leaves, level-major on demand.

    ``locs``/``payloads`` keep the tree's ``leaves()`` iteration order —
    the order the scalar kernels visit and therefore the order any
    write-back must replay so copy-on-write allocation decisions match the
    scalar path exactly.  ``sorted_*`` arrays give the Z-order view used
    for neighbor resolution (``find_enclosing`` over all leaves at once).
    """

    def __init__(self, dim: int, locs: Sequence[int],
                 payloads: np.ndarray):
        self.dim = dim
        self.loc_list: List[int] = list(locs)
        self.locs = _as_int64(self.loc_list)
        self.payloads = payloads
        self.levels = levels_of_codes(self.locs, dim)
        self.max_level = int(self.levels.max()) if len(self.levels) else 0
        self.coords = coords_of_codes(self.locs, self.levels, dim)
        self.h, self.mins, self.maxs, self.centers = cell_geometry(
            self.coords, self.levels
        )
        self._order = None
        self._sorted_keys = None

    def __len__(self) -> int:
        return len(self.loc_list)

    @property
    def order(self) -> np.ndarray:
        """Permutation taking gather order to Z order (level-major within
        each curve position, as ``zorder_key`` ties break by level)."""
        if self._order is None:
            keys = zorder_keys(self.locs, self.levels, self.dim,
                               self.max_level)
            self._order = np.argsort(keys, kind="stable")
            self._sorted_keys = keys[self._order]
        return self._order

    @property
    def sorted_keys(self) -> np.ndarray:
        self.order  # noqa: B018 - builds the cache
        return self._sorted_keys

    def find_enclosing(self, codes: np.ndarray,
                       levels: np.ndarray) -> np.ndarray:
        """Vectorised ``LinearOctree.find_enclosing`` over the leaf set.

        For each query code (at its own level), returns the gather-order
        index of the stored leaf equal to it or an ancestor of it, or -1
        when the query's region is covered by *finer* leaves (or out of
        range).  Replicates the scalar walk's semantics: the unique leaf
        at-or-above the query wins; a finer region has no such leaf.
        """
        order = self.order
        keys = zorder_keys(codes, levels, self.dim, self.max_level)
        pos = np.searchsorted(self.sorted_keys, keys, side="right") - 1
        valid = pos >= 0
        pos_c = np.maximum(pos, 0)
        cand_idx = order[pos_c]
        cand_loc = self.locs[cand_idx]
        cand_level = self.levels[cand_idx]
        shift = (self.dim * np.maximum(levels - cand_level, 0)).astype(
            np.int64)
        hit = valid & (cand_level <= levels) \
            & ((codes >> shift) == cand_loc)
        return np.where(hit, cand_idx, np.int64(-1))


def gather(tree, locs: Sequence[int]) -> LeafBatch:
    """Gather payload rows for ``locs`` into a :class:`LeafBatch`.

    Uses the tree's metered batch accessor when it has one (charging
    exactly what per-leaf ``get_payload`` calls would); falls back to the
    scalar accessor otherwise.
    """
    loc_list = list(locs)
    if hasattr(tree, "batch_read_payloads"):
        payloads = tree.batch_read_payloads(loc_list)
    else:
        payloads = np.array([tree.get_payload(loc) for loc in loc_list],
                            dtype=np.float64).reshape(len(loc_list), 4)
    return LeafBatch(tree.dim, loc_list, payloads)
