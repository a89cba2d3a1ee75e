"""The three workloads of the whole-run benchmark and their output checks.

Every workload is 2-D, runs on a C0 DRAM budget of 96 octants with a
pipelined persist (``max_inflight_epochs=1``) and a persist + ``gc`` at every
epoch, in one process and one thread:

``droplet``
    The §5.1 droplet ejection (:class:`DropletSimulation`) at level 7 for
    40 steps (~900 leaves), with :class:`Observability` attached as the
    shipped bench does.  It is the paper's workload: writes stay near the
    moving interface, so persistence is incremental.
``wave``
    The seismic wavefront (:class:`WaveSimulation`) at level 6 for 20 steps
    (~2 000 leaves), obs off.  The hot ring sweeps the whole domain, so
    octree refine/coarsen/balance and the NVBM write path carry the run,
    while the solver sweep is a cheap analytic kernel.
``restart``
    The droplet mesh grown for 30 steps during set-up with a replica
    shipped every epoch; the measured loop repeats restart cycles with no
    solver step: plant one rot and one stuck line on published records,
    crash both arenas (NVBM dirty lines torn by a seeded rng),
    ``pm_restore(..., replica=)``, ``scrub``, then re-persist, gc, drain
    and ship.  This is the §5.6 restart path; the work is reads.

Host times are process CPU seconds (``time.process_time``).  The program is
single-threaded and does no I/O, so on an idle machine they equal wall
seconds; unlike wall seconds they leave out time a virtual CPU spends
descheduled for other tenants.  With a :class:`Mode` that carries a
:class:`~perfbench.reference.Calibration`, a reference slice runs before
every timed op, after an episode's last op and before restart's growth,
outside the timed regions.

The workload seed derives the physical inputs (a small jitter of the jet
or wave parameters; restart grows the same mesh for every seed),
``SolverConfig.seed``, ``PMOctreeConfig.seed``, the crash-tear rng and the
fault-placement rng; the program sees only the generated inputs.
"""

from __future__ import annotations

import sys
import traceback
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from time import process_time
from typing import Dict, List, Optional

import numpy as np

from repro.config import DRAM_SPEC, NVBM_SPEC, PMOctreeConfig, SolverConfig
from repro.core import api, recovery
from repro.core.pmoctree import SLOT_PREV, PMOctree
from repro.core.replication import ReplicaSession, ReplicaStore
from repro.nvbm.arena import MemoryArena
from repro.nvbm.clock import SimClock
from repro.nvbm.device import LINES_PER_RECORD, MediaFaultModel
from repro.nvbm.pointers import ARENA_DRAM, ARENA_NVBM, NULL_HANDLE, \
    index_of
from repro.obs import Observability
from repro.octree import refine
from repro.solver import geometry, simulation, wave

from perfbench.reference import Calibration
from perfbench.spans import SpanRecorder, counted, patched, \
    profile_self_times

WORKLOADS = ("droplet", "wave", "restart")

DRAM_BUDGET_OCTANTS = 96
DIM = 2
DROPLET_LEVEL, DROPLET_STEPS = 7, 40
WAVE_LEVEL, WAVE_STEPS = 6, 20
RESTART_GROW_STEPS = 30
WARM_UP_STEPS = 3
#: Planted per restart cycle: one rot line and one stuck line.
FAULTS_PER_CYCLE = 2
#: Restart cycles per episode whose simulated cost is reported (the run
#: may time more); also the floor on latency samples per run, so that p90
#: has at least ten samples beyond it.
MIN_SAMPLES = 100

#: The public functions the drivers call, wrapped by the traced run:
#: (owner, name the driver looks up, span name, is the root span).
TRACE_TARGETS = (
    (simulation.DropletSimulation, "step", "solver.step", True),
    (wave.WaveSimulation, "step", "solver.step", True),
    (refine.RefinementEngine, "adapt", "octree.adapt", False),
    (simulation, "balance_tree", "octree.balance", False),
    (wave, "balance_tree", "octree.balance", False),
    (simulation, "advect_vof", "solver.advect", False),
    (geometry.DropletGeometry, "vof_of_cell", "solver.criterion", False),
    (PMOctree, "persist", "core.persist", False),
    (PMOctree, "gc", "core.gc", False),
    (PMOctree, "drain_persists", "core.drain", False),
    (api, "pm_restore", "core.restore", False),
    (recovery, "scrub", "core.scrub", False),
)


# ------------------------------------------------------------------- inputs


@dataclass(frozen=True)
class Inputs:
    """Everything a workload run derives from its seed."""

    workload: str
    seed: int
    solver_seed: int
    pm_seed: int
    tear_seed: int
    fault_seed: int
    params: Dict[str, object]


def derive_inputs(workload: str, seed: int) -> Inputs:
    """Seeded inputs: same (workload, seed) -> same inputs."""
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    solver_seed, pm_seed, tear_seed, fault_seed = (
        int(x) for x in rng.integers(0, 2**31 - 1, size=4))

    def jitter(value: float, share: float) -> float:
        return float(value * (1.0 + rng.uniform(-share, share)))

    if workload == "wave":
        params = {
            "epicenter": (0.5 + float(rng.uniform(-0.01, 0.01)),
                          0.5 + float(rng.uniform(-0.01, 0.01))),
            "speed": jitter(0.6, 0.01),
        }
    elif workload == "restart":
        # one droplet mesh for every seed: the seed varies where the faults
        # land and how the crash tears, not how much there is to restore
        params = {}
    else:
        base = SolverConfig()
        params = {
            "jet_speed": jitter(base.jet_speed, 0.01),
            "perturbation_amplitude":
                jitter(base.perturbation_amplitude, 0.02),
            "perturbation_wavelength":
                jitter(base.perturbation_wavelength, 0.01),
        }
    return Inputs(workload, int(seed), solver_seed, pm_seed, tear_seed,
                  fault_seed, params)


# --------------------------------------------------------------------- rigs


@dataclass
class Rig:
    clock: SimClock
    dram: MemoryArena
    nvbm: MemoryArena
    config: PMOctreeConfig
    tree: PMOctree
    obs: Optional[Observability] = None


def make_rig(inputs: Inputs, with_obs: bool) -> Rig:
    clock = SimClock()
    dram = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 16)
    nvbm = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, 1 << 20)
    config = PMOctreeConfig(dram_capacity_octants=DRAM_BUDGET_OCTANTS,
                            seed=inputs.pm_seed, max_inflight_epochs=1)
    obs = None
    if with_obs:
        obs = Observability()
        obs.bind_clock(clock)
        dram.attach_obs(obs)
        nvbm.attach_obs(obs)
    tree = api.pm_create(dram, nvbm, dim=DIM, config=config)
    if obs is not None:
        tree.attach_obs(obs)
    return Rig(clock, dram, nvbm, config, tree, obs)


def make_sim(inputs: Inputs, rig: Rig,
             session: Optional[ReplicaSession] = None):
    """The workload's simulation driver over ``rig`` (not yet constructed);
    with a replication ``session``, every epoch is shipped once published."""

    def persistence(sim) -> None:
        sim.tree.persist()
        sim.tree.gc()
        # the pipeline publishes an epoch only when its drain settles
        if session is not None and \
                rig.nvbm.roots.get(SLOT_PREV) != NULL_HANDLE:
            session.ship()

    if inputs.workload == "wave":
        cfg = wave.WaveConfig(dim=DIM, max_level=WAVE_LEVEL,
                              epicenter=inputs.params["epicenter"],
                              speed=inputs.params["speed"])
        return wave.WaveSimulation(rig.tree, cfg, clock=rig.clock,
                                   persistence=persistence)
    cfg = SolverConfig(dim=DIM, min_level=2, max_level=DROPLET_LEVEL,
                       dt=0.01, seed=inputs.solver_seed, **inputs.params)
    sim = simulation.DropletSimulation(rig.tree, cfg, clock=rig.clock,
                                       persistence=persistence)
    sim.obs = rig.obs
    return sim


def signature(tree: PMOctree) -> Dict[int, tuple]:
    """leaf loc -> payload, read without charging the simulated devices."""
    with tree.unmetered_inspection():
        return {loc: tuple(tree.get_payload(loc)) for loc in tree.leaves()}


# ----------------------------------------------------------------- episodes


@dataclass
class Episode:
    """One set-up plus one measured loop, with its checks."""

    setup_s: float = 0.0
    loop_s: float = 0.0
    #: leaves summed over the loop's steps (restart: leaves restored)
    leaf_steps: int = 0
    op_s: List[float] = field(default_factory=list)
    #: leaves of each op (restart: leaves restored by the cycle)
    op_leaves: List[int] = field(default_factory=list)
    op_sim_us: List[float] = field(default_factory=list)
    sim_makespan_ms: float = 0.0
    nvbm_bytes_written: int = 0
    attempted: int = 0
    failed: int = 0
    #: deterministic public-state counts (compared traced vs untraced)
    counts: Dict[str, float] = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"perfbench: FAILED {what}", file=sys.stderr)

    def sim_key(self) -> tuple:
        """Everything simulated, for exact equality across runs."""
        return (self.sim_makespan_ms, self.nvbm_bytes_written,
                tuple(self.op_sim_us), tuple(sorted(self.counts.items())))


class _Snapshot:
    """Public state at the start of a measured loop."""

    def __init__(self, rig: Rig):
        self.clock = rig.clock.snapshot()
        self.nvbm = asdict(rig.nvbm.device.stats)
        self.dram = asdict(rig.dram.device.stats)

    def deltas(self, rig: Rig) -> Dict[str, float]:
        after = rig.clock.snapshot()
        nv = asdict(rig.nvbm.device.stats)
        dr = asdict(rig.dram.device.stats)
        out = {
            "nvbm.reads": nv["reads"] - self.nvbm["reads"],
            "nvbm.writes": nv["writes"] - self.nvbm["writes"],
            "nvbm.lines_touched":
                nv["lines_read"] + nv["lines_written"]
                - self.nvbm["lines_read"] - self.nvbm["lines_written"],
            "nvbm.bytes_written":
                nv["bytes_written"] - self.nvbm["bytes_written"],
            "nvbm.wear_max": rig.nvbm.device.wear_max(),
            "dram.reads": dr["reads"] - self.dram["reads"],
            "dram.writes": dr["writes"] - self.dram["writes"],
        }
        for name, key in (("nvbm", "mem_nvbm"), ("dram", "mem_dram"),
                          ("compute", "compute")):
            out[f"category.{name}_ns"] = (
                after.by_category.get(key, 0.0)
                - self.clock.by_category.get(key, 0.0))
        for phase in ("solve", "refine", "balance", "persist.enqueue",
                      "persist.drain", "sample", "transform"):
            out[f"phase.{phase}_ns"] = (
                after.by_phase.get(phase, 0.0)
                - self.clock.by_phase.get(phase, 0.0))
        return out


_PM_COUNTS = ("cow_copies", "merges", "evictions", "octants_reclaimed")


def _add_pm_stats(counts: Dict[str, float], tree: PMOctree,
                  before: Optional[dict] = None) -> None:
    stats = asdict(tree.stats)
    for name in _PM_COUNTS:
        base = before[name] if before is not None else 0
        counts[f"core.{name}"] = counts.get(f"core.{name}", 0) \
            + stats[name] - base


def _guarded(ep: Episode, what: str, fn, *args):
    """Run one operation of the loop; an exception counts as a failure."""
    try:
        return fn(*args)
    except Exception:  # noqa: BLE001 - the benchmark reports, then goes on
        traceback.print_exc(file=sys.stderr)
        ep.fail(what)
        return None


class Mode:
    """How one episode is observed: plain, span-traced or profiled; a plain
    episode may carry the run's reference :class:`Calibration`."""

    def __init__(self, trace: bool = False, profile: bool = False,
                 probes: bool = False,
                 calibration: Optional[Calibration] = None):
        self.profile = profile
        self.calibration = calibration
        self.recorder = SpanRecorder() if trace else None
        self.flushes: Dict[str, int] = {}
        self.profile_s: Dict[str, float] = {}
        self._profiler = None
        #: per-step probes only attribution runs need (wave overlap ratio)
        self.probes = probes or trace or profile

    def loop(self, rig: Rig):
        """Context for the measured loop."""
        if self.recorder is not None:
            stack = ExitStack()
            stack.enter_context(patched(self.recorder, TRACE_TARGETS))
            stack.enter_context(
                counted(rig.nvbm, ("flush", "flush_records"), self.flushes))
            return stack
        if self.profile:
            return self._profiling()
        return nullcontext()

    @contextmanager
    def _profiling(self):
        with profile_self_times(self.profile_s) as prof:
            self._profiler = prof
            try:
                yield
            finally:
                self._profiler = None

    @contextmanager
    def probing(self):
        """A probe of the loop: not profiled (its time is taken out by
        the caller)."""
        if self._profiler is not None:
            self._profiler.disable()
        try:
            yield
        finally:
            if self._profiler is not None:
                self._profiler.enable()

    def tick(self) -> None:
        """A reference slice, when the run is calibrated."""
        if self.calibration is not None:
            self.calibration.tick()

    def span(self, name: str, root: bool = False):
        if self.recorder is None:
            return nullcontext()
        return self.recorder.span(name, root=root)


def warm_up(inputs: Inputs) -> None:
    """A few untimed steps, so lazy imports and caches fill before timing."""
    rig = make_rig(inputs, with_obs=inputs.workload == "droplet")
    make_sim(inputs, rig).run(WARM_UP_STEPS)
    rig.tree.drain_persists()


def sim_setup(inputs: Inputs):
    """droplet / wave set-up: rig plus constructed mesh, and its seconds."""
    t0 = process_time()
    rig = make_rig(inputs, with_obs=inputs.workload == "droplet")
    sim = make_sim(inputs, rig)
    sim.construct()
    return rig, sim, process_time() - t0


def sim_episode(inputs: Inputs, mode: Mode) -> Episode:
    """droplet / wave: construct, step, drain, then crash and restore."""
    steps = WAVE_STEPS if inputs.workload == "wave" else DROPLET_STEPS
    ep = Episode()
    rig, sim, ep.setup_s = sim_setup(inputs)
    spans_before = len(rig.obs.tracer.spans) if rig.obs is not None else 0

    before = _Snapshot(rig)
    pm_before = asdict(rig.tree.stats)
    reports = []
    overlaps: List[float] = []
    drain_s = 0.0
    with mode.loop(rig):
        for i in range(steps):
            ep.attempted += 1
            mode.tick()
            c0, a = rig.clock.now_ns, process_time()
            rep = _guarded(ep, f"{inputs.workload} step {i + 1}", sim.step)
            if rep is None:
                break
            ep.op_s.append(process_time() - a)
            ep.op_sim_us.append((rig.clock.now_ns - c0) / 1e3)
            ep.op_leaves.append(rep.leaves)
            ep.leaf_steps += rep.leaves
            reports.append(rep)
            if mode.probes and inputs.workload == "wave":
                # WaveStepReport carries no overlap ratio; the probe is an
                # unmetered inspection outside the timed step
                with mode.probing():
                    overlaps.append(rig.tree.overlap_ratio())
        if not ep.failed:
            a = process_time()
            _guarded(ep, "final drain", rig.tree.drain_persists)
            drain_s = process_time() - a
        mode.tick()
        # the timed steps plus the final drain
        ep.loop_s = sum(ep.op_s) + drain_s

    ep.sim_makespan_ms = rig.clock.now_ns / 1e6
    ep.nvbm_bytes_written = rig.nvbm.device.stats.bytes_written
    ep.counts = before.deltas(rig)
    _add_pm_stats(ep.counts, rig.tree, pm_before)
    ep.counts["octree.refined"] = sum(r.refined for r in reports)
    ep.counts["octree.coarsened"] = sum(r.coarsened for r in reports)
    overlaps += [r.overlap_ratio for r in reports
                 if getattr(r, "overlap_ratio", None) is not None]
    if overlaps:
        ep.counts["core.overlap_ratio_min"] = min(overlaps)
    if rig.obs is not None:
        ep.counts["obs.spans"] = len(rig.obs.tracer.spans) - spans_before
    ep.attempted += 1
    if not ep.failed:
        _guarded(ep, f"{inputs.workload} crash + restore check",
                 _crash_restore_check, inputs, rig)
    return ep


def _crash_restore_check(inputs: Inputs, rig: Rig) -> None:
    """The drained tree survives a crash: the recovered leaf -> payload
    signature equals the pre-crash one, and both trees keep I1-I3."""
    rig.tree.check_invariants()
    expected = signature(rig.tree)
    rig.dram.crash()
    rig.nvbm.crash(np.random.default_rng(inputs.tear_seed))
    restored = api.pm_restore(rig.dram, rig.nvbm, dim=DIM, config=rig.config)
    restored.check_invariants()
    if signature(restored) != expected:
        raise AssertionError("recovered signature differs from the drained "
                             "pre-crash tree")


# ------------------------------------------------------------------ restart


def _grow(inputs: Inputs):
    """Set-up of the restart workload: the droplet mesh after the growth
    steps, drained, with the replica holding the published version."""
    rig = make_rig(inputs, with_obs=False)
    replica = ReplicaStore()
    session = ReplicaSession(rig.tree, replica=replica)
    sim = make_sim(inputs, rig, session)
    sim.run(RESTART_GROW_STEPS)
    rig.tree.drain_persists()
    session.ship()
    rig.nvbm.attach_fault_model(MediaFaultModel(seed=inputs.fault_seed))
    return rig, replica


def _plant_faults(rig: Rig, tree: PMOctree, rng) -> None:
    """One rot line and one stuck line on two distinct published records."""
    published = sorted(tree.reachable_from(rig.nvbm.roots.get(SLOT_PREV)))
    victims = rng.choice(len(published), size=FAULTS_PER_CYCLE,
                         replace=False)
    model = rig.nvbm.device.fault_model
    for kind, v in zip(("rot", "stuck"), victims):
        gline = (index_of(published[int(v)]) * LINES_PER_RECORD
                 + int(rng.integers(LINES_PER_RECORD)))
        if kind == "rot":
            model.plant_rot(gline)
        else:
            model.plant_stuck(gline)


def restart_episode(inputs: Inputs, mode: Mode, min_cycles: int,
                    seconds: float) -> Episode:
    """Grow the mesh, then repeat restart cycles until set-up plus cycles
    took ``seconds``, and at least ``min_cycles`` times; the simulated
    figures cover the first ``min_cycles``."""
    ep = Episode()
    mode.tick()
    t0 = process_time()
    rig, replica = _grow(inputs)
    ep.setup_s = process_time() - t0
    seconds -= ep.setup_s

    tree = rig.tree
    expected = signature(tree)
    tear = np.random.default_rng(inputs.tear_seed)
    repaired = 0

    def counting_scrub(fn):
        def scrub(*args, **kwargs):
            nonlocal repaired
            report = fn(*args, **kwargs)
            repaired += (report.repaired_retry + report.repaired_local
                         + report.repaired_replica)
            return report
        return scrub

    def cycle():
        dram, nvbm = rig.dram, rig.nvbm
        with mode.span("restart.cycle", root=True):
            restored = api.pm_restore(dram, nvbm, dim=DIM, config=rig.config,
                                      replica=replica)
            report = recovery.scrub(restored, replica=replica)
            if report.unrepaired:
                raise AssertionError(f"scrub left {report.unrepaired}")
            with mode.span("core.republish"):
                restored.persist()
                restored.gc()
                restored.drain_persists()
                # the host's session state died with it: a new session
                # assumes nothing, so its first ship is a full resync
                ReplicaSession(restored, replica=replica).ship()
        return restored

    before = _Snapshot(rig)
    sim_before = rig.clock.now_ns
    bytes_before = rig.nvbm.device.stats.bytes_written
    with mode.loop(rig):
        # the repair counter sits outside the span wrapper, so it sees the
        # scrub calls pm_restore makes internally as well as ours
        inner_scrub = recovery.scrub
        recovery.scrub = counting_scrub(inner_scrub)
        try:
            loop_s = 0.0
            n = 0
            while n < min_cycles or loop_s < seconds:
                ep.attempted += 1
                rng = np.random.default_rng([inputs.fault_seed, n])
                _plant_faults(rig, tree, rng)
                rig.dram.crash()
                rig.nvbm.crash(tear)
                fixed_before = repaired
                mode.tick()
                c0, a = rig.clock.now_ns, process_time()
                restored = _guarded(ep, f"restart cycle {n + 1}", cycle)
                dt = process_time() - a
                if restored is None:
                    break
                tree = restored
                loop_s += dt
                ep.op_s.append(dt)
                ep.op_leaves.append(tree.num_leaves())
                ep.leaf_steps += ep.op_leaves[-1]
                fixed = repaired - fixed_before
                if n < min_cycles:
                    ep.op_sim_us.append((rig.clock.now_ns - c0) / 1e3)
                    _add_pm_stats(ep.counts, tree)
                    ep.counts["core.ue_repaired"] = \
                        ep.counts.get("core.ue_repaired", 0) + fixed
                if fixed != FAULTS_PER_CYCLE:
                    ep.fail(f"restart cycle {n + 1}: repaired {fixed} of "
                            f"{FAULTS_PER_CYCLE} planted faults")
                elif signature(tree) != expected:
                    ep.fail(f"restart cycle {n + 1}: recovered signature "
                            "differs from the published one")
                n += 1
                if n == min_cycles:
                    ep.sim_makespan_ms = (rig.clock.now_ns - sim_before) / 1e6
                    ep.nvbm_bytes_written = (rig.nvbm.device.stats
                                             .bytes_written - bytes_before)
                    ep.counts.update(before.deltas(rig))
            mode.tick()
            ep.loop_s = loop_s
        finally:
            recovery.scrub = inner_scrub
    ep.attempted += 1
    if not ep.failed:
        _guarded(ep, "restart final invariants", tree.check_invariants)
    return ep
