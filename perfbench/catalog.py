"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same names; the
benchmark's own test checks that the two agree.  *host* metrics are
measured on the machine, in CPU seconds calibrated by the reference kernel
(:mod:`perfbench.reference`); *sim* metrics come from the deterministic
simulated clock or device counters and repeat exactly for a seed.

An *op* is one solver step on droplet and wave, and one restart cycle
(restore -> scrub -> republish) on restart.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

#: end-to-end metric -> (unit, better); reported with ``--trace 0``.
END_TO_END: Dict[str, Tuple[str, str]] = {
    # host: rig + mesh construct (restart: + 30 growth steps); median of
    # several set-ups in the run
    "setup_s": ("s", "lower"),
    # host: leaves summed over steps / step-loop seconds including the
    # final drain_persists (restart: leaves restored / cycle seconds);
    # median over the run's episodes
    "leaf_steps_per_s": ("leaf-steps/s", "higher"),
    # host: microseconds per op per leaf of the op, pooled over the run
    # (>= 100 samples)
    "op_us_per_leaf_p50": ("us/leaf", "lower"),
    "op_us_per_leaf_p90": ("us/leaf", "lower"),
    # host: process high-water resident set
    "peak_rss_mb": ("MB", "lower"),
    # sim: SimClock.now_ns at the end of a run (restart: simulated time
    # of the first 100 cycles)
    "sim_makespan_ms": ("ms", "lower"),
    # sim: simulated cost per op (restart: first 100 cycles)
    "sim_op_us_p50": ("us", "lower"),
    "sim_op_us_p90": ("us", "lower"),
    # sim: NVBM device bytes written by the run (restart: first 100 cycles)
    "nvbm_bytes_written": ("B", "lower"),
}

#: per-layer metric -> (unit, better); reported with ``--trace 1``.
#: ``*_s`` host times are span self times (duration minus child spans)
#: unless noted.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    # solver
    "solver.advect_s": ("s", "lower"),
    # host time and calls of DropletGeometry.vof_of_cell
    "solver.criterion_s": ("s", "lower"),
    "solver.vof_cell_calls": ("count", "lower"),
    "solver.self_s": ("s", "lower"),  # the step span itself
    "phase.solve_ns": ("ns", "lower"),
    # octree
    "octree.adapt_s": ("s", "lower"),  # criterion excluded
    "octree.balance_s": ("s", "lower"),
    "octree.refined": ("count", "lower"),
    "octree.coarsened": ("count", "lower"),
    "phase.refine_ns": ("ns", "lower"),
    "phase.balance_ns": ("ns", "lower"),
    # core: persistence on the step path
    "core.persist_s": ("s", "lower"),
    "core.gc_s": ("s", "lower"),
    "core.drain_s": ("s", "lower"),
    # core: restart path
    "core.restore_s": ("s", "lower"),
    "core.scrub_s": ("s", "lower"),
    # inclusive: re-persist + gc + drain + ship
    "core.republish_s": ("s", "lower"),
    "core.ue_repaired": ("count", "higher"),
    # core: write volume and simulated phases
    "core.cow_copies": ("count", "lower"),
    "core.merges": ("count", "lower"),
    "core.evictions": ("count", "lower"),
    "core.octants_reclaimed": ("count", "lower"),
    "core.overlap_ratio_min": ("ratio", "higher"),
    "phase.persist.enqueue_ns": ("ns", "lower"),
    "phase.sample_ns": ("ns", "lower"),
    "phase.transform_ns": ("ns", "lower"),
    "phase.persist.drain_ns": ("ns", "lower"),  # the drain stall
    # nvbm
    "nvbm.reads": ("count", "lower"),
    "nvbm.writes": ("count", "lower"),
    "nvbm.lines_touched": ("count", "lower"),
    "nvbm.wear_max": ("count", "lower"),
    "dram.reads": ("count", "lower"),
    "dram.writes": ("count", "lower"),
    "nvbm.flush_calls": ("count", "lower"),
    "category.nvbm_ns": ("ns", "lower"),
    "category.dram_ns": ("ns", "lower"),
    "category.compute_ns": ("ns", "lower"),
    # profiler self time in repro/nvbm/
    "nvbm.self_s": ("s", "lower"),
    # obs
    # profiler self time in repro/obs/
    "obs.self_s": ("s", "lower"),
    "obs.spans": ("count", "lower"),
    # tracing cost: traced / untraced leaf_steps_per_s slowdown
    # (restart: traced / untraced median cycle seconds); uncalibrated
    "trace.slowdown": ("ratio", "lower"),
}

#: (metric, workload) pairs that must read exactly zero.
MUST_STAY_ZERO: FrozenSet[Tuple[str, str]] = frozenset({
    ("phase.persist.drain_ns", "droplet"),
})

#: Seeds named for later claims: tune on the first, confirm on the second.
DEVELOPMENT_SEED = 1
HELD_OUT_SEED = 20171
