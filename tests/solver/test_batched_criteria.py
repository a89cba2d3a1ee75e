"""Seeded properties: batched refinement criteria and features vs scalar.

With ``vectorized=True`` the droplet and wave criteria and the §3.3
feature functions carry a ``batch`` twin that the refinement engine and
the feature-directed sampler call once per sweep / detection pass.  The
scalar per-leaf callables stay the oracle:

* every batched criterion returns the scalar ``Action`` for every leaf,
  over random adaptive meshes and times — across droplet breakup and
  nozzle shutoff;
* every batched feature returns the scalar mask;
* the one volume-fraction kernel gives a cell the same value alone as
  inside a batch;
* ``vectorized=False`` never reaches a batched kernel.
"""

import random

import numpy as np
import pytest

from repro.config import SolverConfig
from repro.octree import morton
from repro.octree.refine import Action, RefinementEngine
from repro.solver import features
from repro.solver.fields import VOF
from repro.solver.geometry import DropletGeometry
from repro.solver.simulation import DropletSimulation
from repro.solver.wave import WaveConfig, WaveField, WaveSimulation

from tests.core.conftest import PMRig

SEEDS = range(8)


def _droplet_config(rng: random.Random, dim: int = 2) -> SolverConfig:
    shutoff = rng.choice([float("inf"), rng.uniform(0.6, 0.9)])
    return SolverConfig(dim=dim, min_level=rng.randint(1, 2),
                        max_level=rng.randint(4, 6),
                        jet_speed=rng.uniform(0.8, 1.2),
                        shutoff_time=shutoff)


def _random_mesh(rng: random.Random, dim: int, max_level: int,
                 hot=None) -> list:
    """Leaf codes of a random adaptive mesh; ``hot(loc)`` biases the
    refinement toward a feature (so leaves near it are fine, far ones
    coarse) and random extra refinements break the pattern."""
    leaves = {morton.ROOT_LOC}
    for _ in range(2):  # a uniform base, as the simulations construct
        leaves = {c for loc in leaves for c in morton.children_of(loc, dim)}
    for _ in range(max_level):
        for loc in sorted(leaves):
            if morton.level_of(loc, dim) >= max_level:
                continue
            if (hot is not None and hot(loc)) or rng.random() < 0.15:
                leaves.discard(loc)
                leaves.update(morton.children_of(loc, dim))
    return sorted(leaves)


def _payloads(rng: random.Random, n: int) -> np.ndarray:
    gen = np.random.default_rng(rng.randrange(1 << 30))
    return gen.uniform(0.0, 1.0, size=(n, 4))


def _scalar_actions(criterion, locs, payloads) -> list:
    return [criterion(loc, tuple(row)).value
            for loc, row in zip(locs, payloads)]


def _batch_actions(criterion, locs, payloads) -> list:
    return criterion.batch(np.asarray(locs, dtype=np.int64),
                           payloads).tolist()


# ----------------------------------------------------------- droplet


def _droplet_case(seed: int, dim: int) -> set:
    """Assert batch == scalar on one random case; the actions seen."""
    seen = set()
    rng = random.Random(seed * 31 + dim)
    cfg = _droplet_config(rng, dim)
    geo = DropletGeometry(cfg)
    # build around one time, evaluate across breakup (0.55) and shutoff
    t_mesh = rng.uniform(0.0, 1.0)
    locs = _random_mesh(
        rng, dim, min(cfg.max_level, 4 if dim == 3 else 6),
        hot=lambda loc: geo.near_interface(*morton.cell_bounds(loc, dim),
                                           t_mesh))
    payloads = _payloads(rng, len(locs))
    for t in sorted({t_mesh, rng.uniform(0.0, 1.2), 0.54, 0.56,
                     cfg.shutoff_time if cfg.shutoff_time < 2 else 0.9}):
        scalar = features.interface_criterion(geo, cfg, t)
        vec = features.interface_criterion(geo, cfg, t, vectorized=True)
        assert not hasattr(scalar, "batch")
        want = _scalar_actions(scalar, locs, payloads)
        assert _batch_actions(vec, locs, payloads) == want
        seen.update(want)
    return seen


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", SEEDS)
def test_interface_criterion_batch_matches_scalar(seed, dim):
    _droplet_case(seed, dim)


@pytest.mark.parametrize("seed", SEEDS)
def test_change_feature_batch_matches_scalar(seed):
    rng = random.Random(seed)
    cfg = _droplet_config(rng)
    geo = DropletGeometry(cfg)
    t = rng.uniform(0.0, 1.2)
    locs = _random_mesh(rng, 2, cfg.max_level,
                        hot=lambda loc: geo.near_interface(
                            *morton.cell_bounds(loc, 2), t))
    payloads = _payloads(rng, len(locs))
    # half the cells already hold the analytic value: no change predicted
    for i, loc in enumerate(locs):
        if i % 2:
            payloads[i, VOF] = geo.vof_of_cell(*morton.cell_bounds(loc, 2), t)
    fn = features.change_feature(geo, cfg, t, vectorized=True)
    want = [fn(loc, tuple(row)) for loc, row in zip(locs, payloads)]
    got = fn.batch(np.asarray(locs, dtype=np.int64), payloads).tolist()
    assert got == want
    assert True in want and False in want


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", SEEDS)
def test_vof_of_cell_same_alone_and_in_batch(seed, dim):
    rng = random.Random(seed * 7 + dim)
    geo = DropletGeometry(_droplet_config(rng, dim))
    gen = np.random.default_rng(seed)
    los = gen.uniform(0.0, 0.9, size=(64, dim))
    his = los + gen.uniform(0.001, 0.1, size=(64, dim))
    for t in (rng.uniform(0.0, 0.5), rng.uniform(0.55, 1.2)):
        for samples in (3, 4):
            batch = geo.vof_of_cell(los, his, t, samples=samples)
            near = geo.near_interface(los, his, t, samples=samples)
            assert batch.shape == near.shape == (64,)
            for i in range(64):
                one = geo.vof_of_cell(tuple(los[i]), tuple(his[i]), t,
                                      samples=samples)
                assert isinstance(one, float)
                assert one == batch[i]
                alone = geo.near_interface(tuple(los[i]), tuple(his[i]), t,
                                           samples=samples)
                assert isinstance(alone, bool)
                assert alone == near[i]


# -------------------------------------------------------------- wave


def _wave_sim(rng: random.Random, vectorized: bool):
    cfg = WaveConfig(dim=2, min_level=rng.randint(1, 2),
                     max_level=rng.randint(4, 6),
                     epicenter=(rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7)),
                     speed=rng.uniform(0.4, 0.8))
    return WaveSimulation(PMRig().tree, cfg, vectorized=vectorized)


def _wave_case(seed: int) -> set:
    """Assert batch == scalar on one random case; the actions seen."""
    seen = set()
    rng = random.Random(seed)
    sim = _wave_sim(rng, vectorized=True)
    cfg = sim.config
    fld = WaveField(cfg)
    t_mesh = rng.uniform(0.0, 0.8)
    locs = _random_mesh(
        rng, 2, cfg.max_level,
        hot=lambda loc: abs(fld.radius(morton.cell_center(loc, 2))
                            - fld.front_radius(t_mesh)) < 0.15)
    payloads = _payloads(rng, len(locs))
    for t in (t_mesh, rng.uniform(0.0, 0.8)):
        crit = sim._criterion(t)
        want = _scalar_actions(crit, locs, payloads)
        assert _batch_actions(crit, locs, payloads) == want
        seen.update(want)
    return seen


@pytest.mark.parametrize("seed", SEEDS)
def test_wave_criterion_batch_matches_scalar(seed):
    _wave_case(seed)


def test_criterion_cases_cover_every_action():
    """Together the random cases reach every branch (not vacuous)."""
    every = {a.value for a in Action}
    assert set().union(*(_droplet_case(s, d) for s in SEEDS
                         for d in (2, 3))) == every
    assert set().union(*(_wave_case(s) for s in SEEDS)) == every


@pytest.mark.parametrize("seed", SEEDS)
def test_wave_feature_batch_matches_scalar(seed):
    rng = random.Random(seed)
    sim = _wave_sim(rng, vectorized=True)
    sim.t = rng.uniform(0.0, 0.8)
    locs = _random_mesh(rng, 2, sim.config.max_level)
    payloads = _payloads(rng, len(locs))
    t_next = sim.t + sim.config.dt
    for i, loc in enumerate(locs):
        if i % 2:
            payloads[i, 0] = sim.field.cell_value(loc, t_next)
    feature = sim._next_step_feature
    want = [feature(loc, tuple(row)) for loc, row in zip(locs, payloads)]
    got = feature.batch(np.asarray(locs, dtype=np.int64), payloads)
    assert got.tolist() == want
    assert True in want and False in want


def test_wave_radius_is_the_batched_radius():
    """The scalar criterion's radius is spelled like the SoA twin's."""
    rng = random.Random(5)
    fld = WaveField(WaveConfig(dim=3, epicenter=(0.4, 0.5, 0.6)))
    pts = np.array([[rng.random() for _ in range(3)] for _ in range(200)])
    assert [fld.radius(tuple(p)) for p in pts] == fld.radii(pts).tolist()


# ------------------------------------------------------ engine level


def test_engine_batched_sweep_matches_scalar():
    """Same leaves, counts and device metering through the engine."""
    totals = [0, 0]
    for seed in range(4):
        rng = random.Random(seed)
        cfg = _droplet_config(rng)
        geo = DropletGeometry(cfg)
        t = rng.uniform(0.0, 0.5)
        out = []
        for vectorized in (True, False):
            rig = PMRig(dram_octants=256)
            for _ in range(3):
                for leaf in list(rig.tree.leaves()):
                    rig.tree.refine(leaf)
            rig.tree.persist(transform=False)
            results = []
            for when in (t, t + 0.2):
                crit = features.interface_criterion(geo, cfg, when,
                                                    vectorized=vectorized)
                engine = RefinementEngine(crit, min_level=cfg.min_level,
                                          max_level=cfg.max_level)
                results.append(engine.adapt(rig.tree, rounds=cfg.max_level))
            out.append((results, sorted(rig.tree.leaves()),
                        rig.clock.now_ns, rig.nvbm.device.stats,
                        rig.dram.device.stats))
        assert out[0] == out[1]
        totals[0] += sum(r.refined for r in out[0][0])
        totals[1] += sum(r.coarsened for r in out[0][0])
    assert all(totals)


# ------------------------------------------- vectorized=False stays scalar


def test_scalar_runs_never_reach_a_batched_kernel(monkeypatch):
    shapes = []
    real = DropletGeometry.vof_of_cell

    def spy(self, lo, hi, t, samples=3):
        shapes.append(np.ndim(lo))
        return real(self, lo, hi, t, samples=samples)

    def boom(*_args, **_kwargs):
        raise AssertionError("scalar run reached a batched wave kernel")

    monkeypatch.setattr(DropletGeometry, "vof_of_cell", spy)
    monkeypatch.setattr(WaveField, "radii", boom)
    monkeypatch.setattr(WaveField, "values", boom)
    cfg = SolverConfig(dim=2, min_level=2, max_level=5, dt=0.01)

    def persistence(sim):
        sim.tree.persist()  # runs the feature-directed sampler

    drop = DropletSimulation(PMRig(dram_octants=96).tree, cfg,
                             persistence=persistence, vectorized=False)
    wave = WaveSimulation(PMRig(dram_octants=96).tree,
                          WaveConfig(dim=2, min_level=2, max_level=5),
                          persistence=persistence, vectorized=False)
    for sim in (drop, wave):
        assert not hasattr(sim._next_step_feature, "batch")
        assert all(not hasattr(fn, "batch") for fn in sim.tree.features)
        sim.run(4)
    assert shapes and set(shapes) == {1}
    assert not hasattr(wave._criterion(0.0), "batch")
    # positive control: the vectorized droplet run does batch
    shapes.clear()
    DropletSimulation(PMRig(dram_octants=96).tree, cfg,
                      persistence=persistence).run(4)
    assert 2 in shapes
