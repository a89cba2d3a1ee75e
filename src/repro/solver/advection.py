"""VOF transport: upwind advection + analytic sharpening.

Each step does a real finite-volume sweep — for every leaf, read the upwind
face neighbor (through the tree's neighbor resolution, i.e. Gerris'
``ftt_cell_neighbor``) and write back an updated VOF — so the memory access
pattern is that of an actual solver: ~2 reads and 1 write per leaf.

Because the velocity is prescribed, pure first-order upwinding would smear
the interface across the band within a few steps; after the transport sweep
the colour field is *sharpened* against the analytic geometry (a stand-in
for the geometric VOF reconstruction a production solver performs).  The
blend keeps both properties the evaluation needs: solver-like traffic and a
crisp, moving interface.

Two implementations share this module.  The scalar sweep is the oracle: one
leaf at a time through the per-octant accessors.  The SoA path
(``vectorized=True``, the default, taken when the tree exposes the batch
accessors) gathers every leaf into :class:`repro.solver.soa.LeafBatch`
arrays, resolves all upwind neighbors with one Z-order ``searchsorted``,
evaluates the transport/sharpening arithmetic elementwise and replays the
write-back in leaf order through ``batch_set_payloads``.  Both paths are
bit-identical in values *and* in device metering — enforced by
``tests/solver/test_vectorized_differential.py``.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.config import SolverConfig
from repro.octree import morton
from repro.octree.neighbors import leaf_neighbor
from repro.octree.store import AdaptiveTree
from repro.solver import soa
from repro.solver.fields import PRESSURE, U, V, VOF, FieldView
from repro.solver.geometry import DropletGeometry


def initialize_vof(tree: AdaptiveTree, geometry: DropletGeometry,
                   t: float = 0.0) -> None:
    """Fill the VOF and velocity fields from the geometry at time ``t``."""
    fields = FieldView(tree)
    dim = tree.dim
    for loc in tree.leaves():
        lo, hi = morton.cell_bounds(loc, dim)
        vof = geometry.vof_of_cell(lo, hi, t)
        vel = geometry.velocity(morton.cell_center(loc, dim), t)
        fields.set_many(loc, {VOF: vof, U: vel[0], V: vel[-1]})


def advect_vof(tree: AdaptiveTree, geometry: DropletGeometry,
               config: SolverConfig, t: float,
               sharpen: float = 0.7, always_write: bool = False,
               vectorized: bool = True, obs=None) -> Dict[str, int]:
    """One transport step ending at time ``t``; returns access counters.

    ``sharpen`` in [0, 1] blends the upwinded value toward the analytic
    fraction (1 = fully analytic re-initialisation).  ``always_write``
    disables the unchanged-cell write skip — the behaviour of a solver that
    does not diff-check its updates (used by the write-intensity study).

    ``vectorized`` selects the SoA batch path on trees that support it
    (``RunConfig.vectorized`` threads through here); trees without the
    batch accessors fall back to the scalar sweep and bump the
    ``kernel.scalar_fallbacks`` counter on ``obs``.
    """
    if not 0.0 <= sharpen <= 1.0:
        raise ValueError("sharpen must be in [0, 1]")
    if vectorized:
        if hasattr(tree, "batch_read_payloads"):
            return _advect_vof_batched(tree, geometry, config, t, sharpen,
                                       always_write, obs)
        if obs is not None:
            obs.metrics.counter("kernel.scalar_fallbacks").inc()
    return _advect_vof_scalar(tree, geometry, config, t, sharpen,
                              always_write)


def _advect_vof_scalar(tree: AdaptiveTree, geometry: DropletGeometry,
                       config: SolverConfig, t: float,
                       sharpen: float, always_write: bool) -> Dict[str, int]:
    dim = tree.dim
    vertical_axis = dim - 1
    fields = FieldView(tree)
    # Gather phase: read each leaf and its upwind (below) neighbor.  The
    # neighbor probe needs one quantity, so it goes through the
    # field-granular accessor (8 bytes), not a whole-payload load.
    updates: Dict[int, float] = {}
    current: Dict[int, tuple] = {}
    reads = 0
    for loc in tree.leaves():
        payload = tree.get_payload(loc)
        current[loc] = payload
        vof = payload[VOF]
        reads += 1
        below = leaf_neighbor(tree, loc, vertical_axis, -1)
        if below is not None and tree.is_leaf(below):
            vof_up = fields.get(below, VOF)
            reads += 1
        else:
            vof_up = 0.0  # inflow of gas at the bottom boundary, except the nozzle
            center = morton.cell_center(loc, dim)
            if geometry.axis_distance(center) <= config.nozzle_radius:
                vof_up = 1.0  # the nozzle keeps feeding liquid
        h = morton.cell_size(loc, dim)
        speed = geometry.velocity(morton.cell_center(loc, dim), t)[-1]
        cfl = min(1.0, speed * config.dt / h)
        transported = vof + cfl * (vof_up - vof)
        lo, hi = morton.cell_bounds(loc, dim)
        analytic = geometry.vof_of_cell(lo, hi, t)
        updates[loc] = (1.0 - sharpen) * transported + sharpen * analytic
    # Scatter phase: write only cells whose state actually changed.  Far
    # from the interface nothing moves, so most octants go untouched — the
    # step-to-step overlap the multi-version sharing exploits (Fig 3).
    writes = 0
    skipped = 0
    for loc, vof in updates.items():
        vel = geometry.velocity(morton.cell_center(loc, dim), t)
        old = current[loc]
        if (
            not always_write
            and abs(old[VOF] - vof) < 1e-12
            and abs(old[U] - vel[0]) < 1e-12
            and abs(old[V] - vel[-1]) < 1e-12
        ):
            skipped += 1
            continue
        tree.set_payload(loc, (vof, old[PRESSURE], vel[0], vel[-1]))
        writes += 1
    return {"reads": reads, "writes": writes, "skipped": skipped}


def _advect_vof_batched(tree: AdaptiveTree, geometry: DropletGeometry,
                        config: SolverConfig, t: float, sharpen: float,
                        always_write: bool,
                        obs: Optional[object]) -> Dict[str, int]:
    """SoA transport sweep; see the module docstring for the equivalence
    argument.  All arrays stay in ``leaves()`` gather order so neighbor
    metering and the write-back replay the scalar access sequence."""
    dim = tree.dim
    vertical_axis = dim - 1
    batch = soa.gather(tree, tree.leaves())
    n = len(batch)
    if obs is not None:
        obs.metrics.counter("kernel.batch_elems").inc(n)
    if n == 0:
        return {"reads": 0, "writes": 0, "skipped": 0}
    vof = batch.payloads[:, VOF]

    # Upwind neighbor resolution: same-level neighbor codes below each
    # leaf, resolved against the whole leaf set at once.  A hit is exactly
    # the scalar `leaf_neighbor(...) and is_leaf(...)` case (the unique
    # leaf at-or-above the neighbor code); a domain-boundary or
    # finer-region neighbor misses.
    ncoords = batch.coords.copy()
    ncoords[:, vertical_axis] -= 1
    in_range = ncoords[:, vertical_axis] >= 0
    ncodes = soa.locs_from_coords(batch.levels, np.maximum(ncoords, 0), dim)
    nidx = batch.find_enclosing(ncodes, batch.levels)
    nidx = np.where(in_range, nidx, np.int64(-1))
    hit_pos = np.nonzero(nidx >= 0)[0]

    vof_up = np.zeros(n, dtype=np.float64)
    if hit_pos.size:
        # a fresh metered field read per hit, exactly like the scalar
        # neighbor probe (values equal the gathered ones by construction)
        nb_locs = [batch.loc_list[i] for i in nidx[hit_pos]]
        vof_up[hit_pos] = tree.batch_read_fields(nb_locs, VOF)
    miss_pos = np.nonzero(nidx < 0)[0]
    if miss_pos.size:
        # boundary rule on the small miss set, via the scalar geometry
        # predicate (math.hypot in 3-D has no bit-equal numpy twin)
        centers = batch.centers
        radius = config.nozzle_radius
        for i in miss_pos:
            if geometry.axis_distance(tuple(centers[i])) <= radius:
                vof_up[i] = 1.0

    speed = geometry.vertical_velocities(batch.centers, t)
    cfl = np.minimum(1.0, speed * config.dt / batch.h)
    transported = vof + cfl * (vof_up - vof)
    analytic = geometry.vof_of_cell(batch.mins, batch.maxs, t)
    new_vof = (1.0 - sharpen) * transported + sharpen * analytic

    # Scatter: the prescribed horizontal velocity is identically 0.0, so
    # the unchanged-cell predicate needs only VOF, U and the vertical speed.
    if always_write:
        write_pos = np.arange(n)
    else:
        unchanged = (np.abs(vof - new_vof) < 1e-12) \
            & (np.abs(batch.payloads[:, U] - 0.0) < 1e-12) \
            & (np.abs(batch.payloads[:, V] - speed) < 1e-12)
        write_pos = np.nonzero(~unchanged)[0]
    pressure = batch.payloads[:, PRESSURE]
    loc_list = batch.loc_list
    items = [
        (loc_list[i],
         (float(new_vof[i]), float(pressure[i]), 0.0, float(speed[i])))
        for i in write_pos
    ]
    tree.batch_set_payloads(items)
    reads = n + int(hit_pos.size)
    writes = len(items)
    return {"reads": reads, "writes": writes, "skipped": n - writes}
