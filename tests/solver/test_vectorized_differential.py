"""Differential equivalence battery: SoA kernels vs the scalar oracle.

The vectorized (``vectorized=True``) solver kernels must be *bit-identical*
to the per-octant scalar path — not approximately equal: same recovered
NVBM state after a crash, same device byte/line counters, same wear maps,
same simulated clock.  Any divergence means the SoA layer either computed
a different float or charged the memory device differently, both bugs.

Two scenarios (droplet ejection and the seismic wavefront), swept over the
epoch-pipeline depths ``max_inflight_epochs in {0, 1, 2}`` and over rank
counts ``P in {1, 2, 4}`` through the parallel runtime.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis.sweep import _signature
from repro.config import (
    DRAM_SPEC,
    NVBM_SPEC,
    PMOctreeConfig,
    SolverConfig,
)
from repro.core.api import pm_create, pm_restore
from repro.nvbm.arena import MemoryArena
from repro.nvbm.clock import SimClock
from repro.nvbm.failure import default_injector
from repro.nvbm.pointers import ARENA_DRAM, ARENA_NVBM
from repro.parallel.runtime import Backend, RunConfig, run_parallel
from repro.solver.simulation import DropletSimulation
from repro.solver.wave import WaveConfig, WaveSimulation

SEED = 7


def _rig(max_inflight: int):
    default_injector().reset()
    clock = SimClock()
    dram = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 16)
    nvbm = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, 1 << 20)
    cfg = PMOctreeConfig(dram_capacity_octants=96, seed=SEED,
                         max_inflight_epochs=max_inflight)
    tree = pm_create(dram, nvbm, dim=2, config=cfg)
    return clock, dram, nvbm, cfg, tree


def _persistence(sim):
    sim.tree.persist()
    sim.tree.gc()


def _droplet(vectorized: bool, max_inflight: int, steps: int = 6):
    clock, dram, nvbm, cfg, tree = _rig(max_inflight)
    sim = DropletSimulation(
        tree, SolverConfig(dim=2, min_level=2, max_level=5, dt=0.01),
        clock=clock, persistence=_persistence, vectorized=vectorized,
    )
    sim.run(steps)
    tree.drain_persists()
    return clock, dram, nvbm, cfg, tree, sim


def _wave(vectorized: bool, max_inflight: int, steps: int = 6):
    clock, dram, nvbm, cfg, tree = _rig(max_inflight)
    sim = WaveSimulation(
        tree, WaveConfig(dim=2, min_level=2, max_level=5, dt=0.02),
        clock=clock, persistence=_persistence, vectorized=vectorized,
    )
    sim.run(steps)
    tree.drain_persists()
    return clock, dram, nvbm, cfg, tree, sim


def _observables(clock, dram, nvbm, cfg, tree, sim):
    """Everything both paths must agree on, bit for bit."""
    # crash both arenas and restore: the *recovered NVBM state* is the
    # durability contract the batch metering must not have perturbed
    dram.crash()
    nvbm.crash(np.random.default_rng(SEED))
    restored = pm_restore(dram, nvbm, dim=2, config=cfg)
    return {
        "clock_ns": clock.now_ns,
        "dram_stats": dataclasses.asdict(dram.device.stats),
        "nvbm_stats": dataclasses.asdict(nvbm.device.stats),
        "wear": nvbm.device._wear.tolist(),
        "history": sim.history,
        "recovered": _signature(restored),
    }


SCENARIOS = {"droplet": _droplet, "wave": _wave}


def _adaptation(history):
    """Per-step (refined, coarsened) counts of a run."""
    return [(r.refined, r.coarsened) for r in history]


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("max_inflight", [0, 1, 2])
def test_vectorized_matches_scalar(scenario, max_inflight):
    run = SCENARIOS[scenario]
    vec = _observables(*run(True, max_inflight))
    scalar = _observables(*run(False, max_inflight))
    assert vec["recovered"] == scalar["recovered"]
    assert vec["clock_ns"] == scalar["clock_ns"]
    assert vec["dram_stats"] == scalar["dram_stats"]
    assert vec["nvbm_stats"] == scalar["nvbm_stats"]
    assert vec["wear"] == scalar["wear"]
    assert vec["history"] == scalar["history"]
    # the batched refinement sweep makes the same decisions every step
    adapt = _adaptation(vec["history"])
    assert adapt == _adaptation(scalar["history"])
    assert any(r for r, _ in adapt) and any(c for _, c in adapt)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_live_state_matches_scalar(scenario):
    """Pre-crash (live) leaf payloads agree too, not just recovered ones."""
    run = SCENARIOS[scenario]
    tree_v = run(True, 1)[4]
    tree_s = run(False, 1)[4]
    assert _signature(tree_v) == _signature(tree_s)


@pytest.mark.parametrize("workload", ["droplet", "wave"])
@pytest.mark.parametrize("nranks", [1, 2, 4])
def test_parallel_runtime_matches_scalar(workload, nranks):
    def run(vectorized):
        return run_parallel(RunConfig(
            backend=Backend.PM_OCTREE, nranks=nranks,
            target_elements=1e6 * nranks, steps=4,
            solver=SolverConfig(dim=2, min_level=2, max_level=4, dt=0.01),
            workload=workload, vectorized=vectorized, seed=2017,
        ))
    vec = run(True)
    scalar = run(False)
    assert vec.makespan_s == scalar.makespan_s
    assert vec.nvbm_writes == scalar.nvbm_writes
    assert vec.evictions == scalar.evictions
    assert vec.merges == scalar.merges
    assert vec.persists == scalar.persists
    assert vec.step_reports == scalar.step_reports
    assert _adaptation(vec.step_reports) == _adaptation(scalar.step_reports)
