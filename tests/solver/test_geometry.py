"""Droplet-ejection geometry tests."""

import numpy as np
import pytest

from repro.config import SolverConfig
from repro.solver.geometry import DropletGeometry


@pytest.fixture
def geo():
    return DropletGeometry(SolverConfig(dim=2))


def test_tip_advances_and_caps(geo):
    assert geo.tip(0.0) == pytest.approx(0.15)
    assert geo.tip(0.1) > geo.tip(0.0)
    assert geo.tip(100.0) == 0.95


def test_amplitude_grows_to_config_max(geo):
    cfg = geo.config
    assert geo.amplitude(0.0) == 0.0
    assert geo.amplitude(cfg.breakup_time) == pytest.approx(
        cfg.perturbation_amplitude
    )
    assert geo.amplitude(10 * cfg.breakup_time) == pytest.approx(
        cfg.perturbation_amplitude
    )


def test_column_radius_bounded(geo):
    cfg = geo.config
    for t in (0.0, 0.2, 0.5):
        for y in np.linspace(0, 1, 31):
            r = geo.column_radius(float(y), t)
            assert 0.0 < r <= cfg.nozzle_radius + 1e-12


def test_axis_liquid_column(geo):
    t = 0.2
    assert geo.is_liquid((0.5, 0.05), t)  # on the axis, below the tip
    assert not geo.is_liquid((0.5, geo.tip(t) + 0.05), t)  # above the tip
    assert not geo.is_liquid((0.9, 0.05), t)  # far off-axis


def test_no_droplets_before_breakup(geo):
    assert geo.droplets(0.1) == []
    assert not geo.has_broken(0.1)


def test_droplets_after_breakup(geo):
    t = geo.config.breakup_time + 0.2
    assert geo.has_broken(t)
    drops = geo.droplets(t)
    assert len(drops) >= 1
    for d in drops:
        assert d.y > geo.pinch_height(t)
        assert 0 < d.radius < 0.5 * geo.config.perturbation_wavelength
        # droplet interior is liquid, just outside is not
        assert geo.is_liquid((0.5, d.y), t)
        assert not geo.is_liquid((0.5 + d.radius + 0.02, d.y), t)


def test_droplets_move_with_jet(geo):
    t1 = geo.config.breakup_time + 0.1
    t2 = t1 + 0.05
    d1 = geo.droplets(t1)[0]
    d2 = geo.droplets(t2)[0]
    assert d2.y > d1.y


def test_vof_of_cell_extremes(geo):
    t = 0.2
    # fully liquid cell deep inside the column near the nozzle
    assert geo.vof_of_cell((0.49, 0.01), (0.51, 0.03), t) == 1.0
    # fully gas cell far away
    assert geo.vof_of_cell((0.8, 0.8), (0.9, 0.9), t) == 0.0
    # mixed cell straddling the column wall
    frac = geo.vof_of_cell((0.5, 0.01), (0.6, 0.06), t, samples=6)
    assert 0.0 < frac < 1.0


def test_liquid_mask_matches_scalar(geo):
    t = 0.7  # after breakup: both column and droplets present
    rng = np.random.default_rng(1)
    pts = rng.random((200, 2))
    mask = geo.liquid_mask(pts, t)
    for p, m in zip(pts, mask):
        assert geo.is_liquid(tuple(p), t) == bool(m)


def test_near_interface(geo):
    t = 0.2
    assert geo.near_interface((0.5, 0.05), (0.6, 0.1), t)
    assert not geo.near_interface((0.85, 0.85), (0.95, 0.95), t)


def test_velocity_field(geo):
    t = 0.2
    v_liquid = geo.velocity((0.5, 0.05), t)
    v_gas = geo.velocity((0.9, 0.9), t)
    assert v_liquid[-1] == geo.config.jet_speed
    assert 0 < v_gas[-1] < v_liquid[-1]


def test_3d_geometry():
    geo = DropletGeometry(SolverConfig(dim=3))
    t = 0.2
    assert geo.is_liquid((0.5, 0.5, 0.05), t)
    assert not geo.is_liquid((0.9, 0.5, 0.05), t)
    frac = geo.vof_of_cell((0.45, 0.45, 0.0), (0.55, 0.55, 0.1), t, samples=4)
    assert 0.0 < frac <= 1.0
    t2 = geo.config.breakup_time + 0.2
    assert len(geo.droplets(t2)) >= 1


def test_volume_roughly_conserved_through_breakup(geo):
    """Liquid volume just before and just after breakup should be close
    (the droplet radius comes from per-wavelength volume conservation)."""
    cfg = geo.config

    def volume(t):
        return geo.vof_of_cell((0.0, 0.0), (1.0, 1.0), t, samples=200)

    before = volume(cfg.breakup_time - 0.01)
    after = volume(cfg.breakup_time + 0.01)
    assert after == pytest.approx(before, rel=0.35)
