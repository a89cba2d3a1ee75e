"""A second AMR workload: an expanding seismic-style wavefront.

The paper's §6 future work is to "test PM-octree with other flow solvers
and simulations requiring adaptive mesh refinement"; its related work cites
octree-based earthquake ground-motion modelling (Kim et al.).  This module
provides such a workload with a *different* access pattern from droplet
ejection: an annular wavefront expands radially from an epicenter, so the
hot region is a growing ring that sweeps the whole domain — broader, faster
moving, and without the quiescent tail of the jet.

The field is a prescribed radial pulse

    u(x, t) = exp(-((|x - epicenter| - c*t) / width)^2)

stored in payload slot 0; refinement follows the pulse (|u| above a
threshold), and the per-step sweep writes every cell whose value changed —
the same solver-shaped traffic the droplet workload produces, through the
same :class:`~repro.octree.store.AdaptiveTree` protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.nvbm.clock import SimClock
from repro.octree import morton
from repro.octree.balance import balance_tree
from repro.octree.refine import Action, RefinementEngine
from repro.octree.store import AdaptiveTree, Payload
from repro.solver import soa
from repro.solver.features import SimTime


@dataclass
class WaveConfig:
    """Parameters of the expanding-wavefront workload."""

    dim: int = 2
    min_level: int = 2
    max_level: int = 6
    epicenter: Tuple[float, ...] = (0.5, 0.5)
    speed: float = 0.6       #: wavefront speed (domain units / time unit)
    width: float = 0.05      #: Gaussian pulse width
    threshold: float = 0.1   #: refine where u exceeds this
    dt: float = 0.02

    def __post_init__(self) -> None:
        if len(self.epicenter) != self.dim:
            raise ValueError("epicenter dimensionality mismatch")
        if self.speed <= 0 or self.width <= 0:
            raise ValueError("speed and width must be positive")


class WaveField:
    """The analytic pulse and its cell-averaged evaluation."""

    def __init__(self, config: WaveConfig):
        self.config = config

    def radius(self, point) -> float:
        """Distance from the epicenter.

        Spelled so the SoA twin :meth:`radii` replicates it bitwise: an
        explicit left-to-right sum of squares (math.dist's fused form has
        no numpy twin) and math.sqrt (bit-equal to np.sqrt)."""
        s = 0.0
        for p, e in zip(point, self.config.epicenter):
            d = p - e
            s += d * d
        return math.sqrt(s)

    def radii(self, centers: np.ndarray) -> np.ndarray:
        """:meth:`radius` of every row of an ``(N, dim)`` array."""
        d = centers - np.asarray(self.config.epicenter, dtype=np.float64)
        s = d[:, 0] * d[:, 0]
        for axis in range(1, self.config.dim):
            s = s + d[:, axis] * d[:, axis]
        return np.sqrt(s)

    def value(self, point, t: float) -> float:
        # np.exp, because math.exp is NOT bit-equal to it (see values)
        z = (self.radius(point) - self.config.speed * t) / self.config.width
        return float(np.exp(-z * z))

    def values(self, centers: np.ndarray, t: float) -> np.ndarray:
        """:meth:`value` of every row of an ``(N, dim)`` array."""
        z = (self.radii(centers) - self.config.speed * t) / self.config.width
        return np.exp(-z * z)

    def cell_value(self, loc: int, t: float) -> float:
        """Pulse amplitude at the cell center (adequate: the pulse is wider
        than the finest cells)."""
        return self.value(morton.cell_center(loc, self.config.dim), t)

    def front_radius(self, t: float) -> float:
        return self.config.speed * t


def next_step_feature(field: WaveField, time: SimTime,
                      vectorized: bool = False
                      ) -> Callable[[int, Payload], bool]:
    """Will an octant change in the step after ``time.t``? (the §3.3
    feature function).  The batched twin uses the
    :meth:`WaveSimulation._sweep_batched` arithmetic."""
    cfg = field.config

    def fn(loc: int, payload: Payload) -> bool:
        t_next = time.t + cfg.dt
        return abs(field.cell_value(loc, t_next) - payload[0]) > 1e-6

    def batch(locs: np.ndarray, payloads: np.ndarray) -> np.ndarray:
        centers = soa.geometry_of_codes(locs, cfg.dim)[4]
        new = field.values(centers, time.t + cfg.dt)
        return np.abs(new - payloads[:, 0]) > 1e-6

    if vectorized:
        fn.batch = batch
    return fn


@dataclass
class WaveStepReport:
    step: int
    t: float
    leaves: int
    refined: int
    coarsened: int
    cells_written: int
    front_radius: float


class WaveSimulation:
    """Time-stepping driver for the wavefront workload.

    Mirrors :class:`~repro.solver.simulation.DropletSimulation`: adapt to
    the moving feature, sweep the field, invoke the persistence hook.
    """

    def __init__(self, tree: AdaptiveTree, config: Optional[WaveConfig] = None,
                 clock: Optional[SimClock] = None,
                 persistence: Optional[Callable[["WaveSimulation"], None]] = None,
                 vectorized: bool = True):
        self.tree = tree
        self.config = config or WaveConfig(dim=tree.dim)
        if self.config.dim != tree.dim:
            raise ValueError("config dim does not match tree dim")
        self.field = WaveField(self.config)
        self.clock = clock
        self.persistence = persistence
        self.vectorized = vectorized
        self.obs = None
        self.step_count = 0
        self._time = SimTime()
        self.history: List[WaveStepReport] = []
        self._next_step_feature = next_step_feature(
            self.field, self._time, vectorized=vectorized)
        if hasattr(tree, "register_feature"):
            tree.register_feature(self._next_step_feature)

    @property
    def t(self) -> float:
        """Simulation time (shared with the registered feature)."""
        return self._time.t

    @t.setter
    def t(self, value: float) -> None:
        self._time.t = value

    def _criterion(self, t: float):
        cfg = self.config
        fld = self.field
        front = fld.front_radius(t)
        pad = cfg.width * 2.5

        def criterion(loc: int, payload: Payload) -> Action:
            level = morton.level_of(loc, cfg.dim)
            # refine wherever the pulse (evaluated over the cell, padded by
            # one cell width) is significant
            h = morton.cell_size(loc, cfg.dim)
            r = fld.radius(morton.cell_center(loc, cfg.dim))
            near = abs(r - front) < (pad + h)
            if near and level < cfg.max_level:
                return Action.REFINE
            if not near and level > cfg.min_level:
                return Action.COARSEN
            return Action.KEEP

        def batch(locs: np.ndarray, payloads: np.ndarray) -> np.ndarray:
            levels, h, _, _, centers = soa.geometry_of_codes(locs, cfg.dim)
            near = np.abs(fld.radii(centers) - front) < (pad + h)
            actions = np.full(len(locs), Action.KEEP.value, dtype=np.int64)
            actions[near & (levels < cfg.max_level)] = Action.REFINE.value
            actions[~near & (levels > cfg.min_level)] = Action.COARSEN.value
            return actions

        if self.vectorized:
            criterion.batch = batch
        return criterion

    def _phase(self, name: str):
        from contextlib import nullcontext

        return self.clock.phase(name) if self.clock is not None\
            else nullcontext()

    def construct(self) -> None:
        with self._phase("construct"):
            frontier = [
                leaf for leaf in self.tree.leaves()
                if morton.level_of(leaf, self.tree.dim) < self.config.min_level
            ]
            while frontier:
                nxt = []
                for loc in frontier:
                    for c in self.tree.refine(loc):
                        if morton.level_of(c, self.tree.dim) < self.config.min_level:
                            nxt.append(c)
                frontier = nxt
            self._adapt()
            balance_tree(self.tree, max_level=self.config.max_level)
            self._sweep()

    def _adapt(self):
        engine = RefinementEngine(
            self._criterion(self.t),
            min_level=self.config.min_level,
            max_level=self.config.max_level,
            balance=False,
        )
        return engine.adapt(self.tree, rounds=self.config.max_level)

    def _sweep(self) -> int:
        """Write the pulse value into every cell whose value changed."""
        if self.vectorized and hasattr(self.tree, "batch_read_payloads"):
            return self._sweep_batched()
        if self.vectorized and self.obs is not None:
            self.obs.metrics.counter("kernel.scalar_fallbacks").inc()
        written = 0
        for loc in list(self.tree.leaves()):
            new = self.field.cell_value(loc, self.t)
            payload = self.tree.get_payload(loc)
            if abs(payload[0] - new) > 1e-12:
                self.tree.set_payload(
                    loc, (new, payload[1], payload[2], payload[3])
                )
                written += 1
        return written

    def _sweep_batched(self) -> int:
        """SoA sweep: gather every leaf, evaluate the pulse elementwise
        with the exact :meth:`WaveField.value` arithmetic, write back the
        changed cells in leaf order (bit-identical to the scalar sweep in
        values and device metering)."""
        batch = soa.gather(self.tree, self.tree.leaves())
        n = len(batch)
        if self.obs is not None:
            self.obs.metrics.counter("kernel.batch_elems").inc(n)
        if n == 0:
            return 0
        new = self.field.values(batch.centers, self.t)
        payloads = batch.payloads
        write_pos = np.nonzero(np.abs(payloads[:, 0] - new) > 1e-12)[0]
        loc_list = batch.loc_list
        items = [
            (loc_list[i],
             (float(new[i]), float(payloads[i, 1]),
              float(payloads[i, 2]), float(payloads[i, 3])))
            for i in write_pos
        ]
        self.tree.batch_set_payloads(items)
        return len(items)

    def step(self) -> WaveStepReport:
        self.step_count += 1
        self.t = self.step_count * self.config.dt
        with self._phase("refine"):
            res = self._adapt()
        with self._phase("balance"):
            balance_tree(self.tree, max_level=self.config.max_level)
        with self._phase("solve"):
            written = self._sweep()
        if self.persistence is not None:
            with self._phase("persist.enqueue"):
                self.persistence(self)
        report = WaveStepReport(
            step=self.step_count,
            t=self.t,
            leaves=sum(1 for _ in self.tree.leaves()),
            refined=res.refined,
            coarsened=res.coarsened,
            cells_written=written,
            front_radius=self.field.front_radius(self.t),
        )
        self.history.append(report)
        return report

    def run(self, steps: int) -> List[WaveStepReport]:
        if self.step_count == 0 and self.tree.num_octants() <= 1:
            self.construct()
        return [self.step() for _ in range(steps)]
