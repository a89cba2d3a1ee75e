"""Refinement criteria and PM-octree feature functions.

One definition, two consumers — which is the paper's point about
feature-directed sampling imposing no extra programming burden (§3.3): the
refine/coarsen predicate the simulation already owns *is* the feature
function handed to the PM-octree library.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.config import SolverConfig
from repro.octree import morton
from repro.octree.refine import Action
from repro.octree.store import Payload
from repro.solver import soa
from repro.solver.fields import VOF
from repro.solver.geometry import DropletGeometry

#: Extra solver work a mixed (interface) cell costs relative to a pure
#: cell: interface reconstruction + flux limiting dominate the sweep.
INTERFACE_WORK = 4.0

#: Refine/coarsen churn surcharge per level of depth (relative to the
#: forest's deepest level): fine cells sit in the adaptation band and are
#: re-gridded far more often than the coarse background.
CHURN_WORK = 1.0


def interface_band_feature(geometry: DropletGeometry, dim: int,
                           t: float) -> Callable[[int, Payload], bool]:
    """Feature: is this octant in the interface band at time ``t``?

    PM-octree pre-executes this on sampled octants to find hot subtrees.
    """

    def fn(loc: int, payload: Payload) -> bool:
        lo, hi = morton.cell_bounds(loc, dim)
        return geometry.near_interface(lo, hi, t)

    return fn


def change_feature(geometry: DropletGeometry, config: SolverConfig,
                   t_next: float,
                   vectorized: bool = False) -> Callable[[int, Payload], bool]:
    """Feature: will the solver *write* this octant next step?

    Pre-executes the update predicate: a cell is hot when its analytic
    volume fraction at ``t_next`` differs from its current value — exactly
    the octants the transport sweep will rewrite and the refinement pass
    will touch.  This is the sharp prediction that makes feature-directed
    sampling beat history (§3.3): the set follows the moving front, and it
    is much smaller than the full interface band.

    ``vectorized`` attaches the batched twin (see
    :mod:`repro.octree.refine`): one :meth:`DropletGeometry.vof_of_cell`
    call over every queried cell.
    """
    dim = config.dim

    def fn(loc: int, payload: Payload) -> bool:
        lo, hi = morton.cell_bounds(loc, dim)
        analytic = geometry.vof_of_cell(lo, hi, t_next)
        return abs(analytic - payload[VOF]) > 1e-9

    def batch(locs: np.ndarray, payloads: np.ndarray) -> np.ndarray:
        _, _, mins, maxs, _ = soa.geometry_of_codes(locs, dim)
        analytic = geometry.vof_of_cell(mins, maxs, t_next)
        return np.abs(analytic - payloads[:, VOF]) > 1e-9

    if vectorized:
        fn.batch = batch
    return fn


class SimTime:
    """Simulation time shared by a simulation and the feature it registers.

    The tree stores the feature and the simulation holds the tree, so a
    feature that referenced the simulation would close a reference cycle and
    keep a dropped tree's arenas alive until a full garbage collection.
    """

    __slots__ = ("t",)

    def __init__(self, t: float = 0.0):
        self.t = t


def next_step_feature(geometry: DropletGeometry, config: SolverConfig,
                      time: SimTime, vectorized: bool = False
                      ) -> Callable[[int, Payload], bool]:
    """:func:`change_feature` for the step after ``time.t``, read at call
    time (the write-set predictor a droplet simulation hands to PM-octree)."""

    def fn(loc: int, payload: Payload) -> bool:
        t_next = time.t + config.dt
        return change_feature(geometry, config, t_next)(loc, payload)

    def batch(locs: np.ndarray, payloads: np.ndarray) -> np.ndarray:
        t_next = time.t + config.dt
        return change_feature(geometry, config, t_next,
                              vectorized=True).batch(locs, payloads)

    if vectorized:
        fn.batch = batch
    return fn


def mixed_cell_feature(dim: int) -> Callable[[int, Payload], bool]:
    """Feature based on the current VOF value instead of the geometry: a
    mixed cell (0 < vof < 1) is where the solver will do interface work."""

    def fn(loc: int, payload: Payload) -> bool:
        return 1e-6 < payload[VOF] < 1.0 - 1e-6

    return fn


def octant_work_weight(loc: int, payload: Payload, dim: int,
                       max_level: int) -> float:
    """Partition cost weight of one octant.

    The weight is the same feature intensity the refine criterion reads —
    §3.3's "no extra programming burden" point again: a mixed cell is where
    the solver does interface work *and* where refinement churn follows,
    so the weighted SFC cut places fewer interface cells per rank than
    pure-background cells.
    """
    w = 1.0
    vof = payload[VOF]
    if 1e-6 < vof < 1.0 - 1e-6:
        w += INTERFACE_WORK
    level = morton.level_of(loc, dim)
    w += CHURN_WORK * level / max(1, max_level)
    return w


def partition_work_weights(lin) -> np.ndarray:
    """Vectorised :func:`octant_work_weight` over a
    :class:`~repro.octree.linear.LinearOctree` (curve order preserved)."""
    n = len(lin)
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    w = np.ones(n, dtype=np.float64)
    vof = lin.payloads[:, VOF]
    w += np.where((vof > 1e-6) & (vof < 1.0 - 1e-6), INTERFACE_WORK, 0.0)
    levels = soa.levels_of_codes(lin.locs, lin.dim).astype(np.float64)
    w += CHURN_WORK * levels / max(1, lin.max_level)
    return w


def interface_criterion(geometry: DropletGeometry, config: SolverConfig,
                        t: float, vectorized: bool = False
                        ) -> Callable[[int, Payload], Action]:
    """AMR criterion: max resolution in the interface band, coarse far away.

    Matches the droplet workload in the paper: the fine region follows the
    jet tip and the droplets, so the hot subdomain *moves* every time step.

    Coarsening is decided on the *parent* cell's band: children created for
    an interface their parent still straddles must not vote themselves away
    on the next sweep, or the adaptation loop ping-pongs forever.

    ``vectorized`` attaches the batched twin, which computes the band test
    for every leaf, and for the parents of the coarsening candidates, in
    one :meth:`DropletGeometry.near_interface` call each.
    """
    dim = config.dim
    near_cache: dict = {}

    def near(loc: int) -> bool:
        hit = near_cache.get(loc)
        if hit is None:
            lo, hi = morton.cell_bounds(loc, dim)
            hit = geometry.near_interface(lo, hi, t)
            near_cache[loc] = hit
        return hit

    def criterion(loc: int, payload: Payload) -> Action:
        level = morton.level_of(loc, dim)
        if near(loc):
            if level < config.max_level:
                return Action.REFINE
            return Action.KEEP
        if level > config.min_level and not near(morton.parent_of(loc, dim)):
            return Action.COARSEN
        return Action.KEEP

    def near_many(locs: np.ndarray):
        levels, _, mins, maxs, _ = soa.geometry_of_codes(locs, dim)
        return levels, geometry.near_interface(mins, maxs, t)

    def batch(locs: np.ndarray, payloads: np.ndarray) -> np.ndarray:
        levels, near_leaf = near_many(locs)
        actions = np.full(len(locs), Action.KEEP.value, dtype=np.int64)
        actions[near_leaf & (levels < config.max_level)] = Action.REFINE.value
        cand = np.nonzero(~near_leaf & (levels > config.min_level))[0]
        if cand.size:
            parents, inverse = np.unique(locs[cand] >> dim,
                                         return_inverse=True)
            near_parent = near_many(parents)[1][inverse.reshape(-1)]
            actions[cand[~near_parent]] = Action.COARSEN.value
        return actions

    if vectorized:
        criterion.batch = batch
    return criterion
