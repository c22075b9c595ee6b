import math

import numpy as np
import pytest

from limitomo import (
    AngularWindow,
    ImageGrid,
    SinogramGrid,
    vanishing_order_probe,
)

PHI1, PHI2 = math.pi / 4.0, 3.0 * math.pi / 4.0
WIDTH = PHI2 - PHI1


def test_window_rejects_bad_endpoints():
    with pytest.raises(ValueError, match="phi1 < phi2 required"):
        AngularWindow(PHI2, PHI1, "finite-order", 1)
    with pytest.raises(ValueError):
        AngularWindow(-0.1, 1.0, "finite-order", 1)
    with pytest.raises(ValueError):
        AngularWindow(0.5, math.pi, "finite-order", 1)


def test_window_rejects_bad_order_and_kind():
    with pytest.raises(ValueError):
        AngularWindow(PHI1, PHI2, "finite-order", 0)
    with pytest.raises(ValueError):
        AngularWindow(PHI1, PHI2, "sine", 1)


def test_window_order_bound_keeps_middle_half_normal():
    # sin(pi/4)**k = 2**(-k/2) is a normal float64 up to k = 2044, so the
    # largest order is still nonzero over the middle half of the window.
    with pytest.raises(ValueError, match="1 <= k <= 2044"):
        AngularWindow(PHI1, PHI2, "finite-order", 2045)
    win = AngularWindow(PHI1, PHI2, "finite-order", 2044)
    quarter = PHI1 + 0.25 * (PHI2 - PHI1)
    assert win.kappa(quarter) == pytest.approx(2.0**-1022, rel=1e-12)


def test_kappa_midpoint_is_one():
    for kind, k in (("finite-order", 2), ("infinite-order", 0), ("indicator", 0)):
        win = AngularWindow(PHI1, PHI2, kind, max(k, 1) if kind == "finite-order" else 0)
        assert win.kappa((PHI1 + PHI2) / 2.0) == pytest.approx(1.0, abs=1e-15)


def test_kappa_vanishes_at_endpoints_and_outside():
    win = AngularWindow(PHI1, PHI2, "finite-order", 2)
    assert win.kappa(PHI1) == pytest.approx(0.0, abs=1e-15)
    assert win.kappa(PHI2) == pytest.approx(0.0, abs=1e-15)
    win1 = AngularWindow(PHI1, PHI2, "finite-order", 1)
    assert win1.kappa(PHI2 + 0.1) == 0.0
    assert win1.kappa(-0.3) == 0.0


def test_kappa_closed_form_values():
    # sine-power family: kappa_k(phi) = sin(pi (phi - phi1) / width) ** k
    win1 = AngularWindow(PHI1, PHI2, "finite-order", 1)
    got = win1.kappa(PHI1 + 0.01 * WIDTH)
    assert got == pytest.approx(math.sin(0.01 * math.pi), abs=1e-15)
    assert got == pytest.approx(0.031410759078128292, abs=1e-12)

    win3 = AngularWindow(PHI1, PHI2, "finite-order", 3)
    got3 = win3.kappa(PHI1 + 0.25 * WIDTH)
    assert got3 == pytest.approx(2.0 ** -1.5, abs=1e-12)


def test_kappa_indicator_inside_is_one():
    win = AngularWindow(PHI1, PHI2, "indicator")
    assert win.kappa((PHI1 + PHI2) / 2.0) == 1.0
    assert win.kappa(PHI1) == 1.0


def test_kappa_nonnegative_peak_one():
    # odd-count grid contains the exact midpoint
    phis = np.linspace(PHI1, PHI2, 4097)
    for kind in ("finite-order", "infinite-order"):
        win = AngularWindow(PHI1, PHI2, kind, 3)
        vals = win.kappa(phis)
        assert np.all(vals >= 0.0)
        assert abs(vals.max() - 1.0) < 1e-12


def test_kappa_symmetry():
    win = AngularWindow(PHI1, PHI2, "finite-order", 4)
    t = np.linspace(0.0, WIDTH, 101)
    np.testing.assert_allclose(win.kappa(PHI1 + t), win.kappa(PHI2 - t), atol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("side", ["left", "right"])
def test_vanishing_order_probe_recovers_k(k, side):
    win = AngularWindow(PHI1, PHI2, "finite-order", k)
    h_list = np.array([1e-2, 1e-3, 1e-4]) * WIDTH
    slope = vanishing_order_probe(win, side, h_list)
    assert abs(slope - k) < 0.05


def test_vanishing_order_probe_indicator_flat():
    win = AngularWindow(PHI1, PHI2, "indicator")
    h_list = np.array([1e-2, 1e-3, 1e-4]) * WIDTH
    assert abs(vanishing_order_probe(win, "left", h_list)) < 1e-9


def test_vanishing_order_probe_infinite_order_steep():
    win = AngularWindow(PHI1, PHI2, "infinite-order")
    h_list = np.array([1e-2, 1e-3, 1e-4]) * WIDTH
    assert vanishing_order_probe(win, "left", h_list) > 10.0


def test_vanishing_order_probe_validation():
    win = AngularWindow(PHI1, PHI2, "finite-order", 2)
    with pytest.raises(ValueError):
        vanishing_order_probe(win, "left", [1e-2, 1e-3])
    with pytest.raises(ValueError):
        vanishing_order_probe(win, "left", [1e-2, -1e-3, 1e-4])
    with pytest.raises(ValueError):
        vanishing_order_probe(win, "middle", [1e-2, 1e-3, 1e-4])


def test_window_boundary_directions():
    win = AngularWindow(PHI1, PHI2)
    np.testing.assert_allclose(win.e1, [math.cos(PHI1), math.sin(PHI1)], atol=1e-15)
    np.testing.assert_allclose(win.e2, [math.cos(PHI2), math.sin(PHI2)], atol=1e-15)
    assert win.contains_direction(math.pi / 2.0)
    assert win.contains_direction(3.0 * math.pi / 2.0)  # antipode of pi/2
    assert not win.contains_direction(0.0)
    assert not win.contains_direction(PHI1)  # open arc


def test_image_grid_geometry():
    grid = ImageGrid(8, 2.0)
    assert grid.h == pytest.approx(0.5)
    ax = grid.axis()
    np.testing.assert_allclose(ax, -2.0 + (np.arange(8) + 0.5) * 0.5)
    assert grid.pixel_radius == pytest.approx(math.sqrt(2.0) * 1.75)
    with pytest.raises(ValueError):
        ImageGrid(7, 1.0)
    with pytest.raises(ValueError):
        ImageGrid(16, -1.0)


def test_sinogram_grid_full_circle():
    g = SinogramGrid(n_phi=360, n_s=129, s_max=2.0)
    assert g.periodic
    phis = g.phis()
    assert phis.size == 360
    assert phis[0] == 0.0
    assert phis[-1] < 2.0 * math.pi
    assert np.allclose(np.diff(phis), g.dphi)
    assert g.phi_weights().sum() == pytest.approx(2.0 * math.pi)
    s = g.s_values()
    np.testing.assert_allclose(s + s[::-1], 0.0, atol=1e-12)
    assert g.s_weights().sum() == pytest.approx(2.0 * g.s_max)


def test_sinogram_grid_subinterval():
    g = SinogramGrid(n_phi=91, n_s=65, s_max=1.5, phi0=PHI1, phi1=PHI2)
    assert not g.periodic
    phis = g.phis()
    assert phis[0] == pytest.approx(PHI1)
    assert phis[-1] == pytest.approx(PHI2)
    assert g.phi_weights().sum() == pytest.approx(WIDTH)


def test_sinogram_grid_validation():
    with pytest.raises(ValueError):
        SinogramGrid(n_phi=1, n_s=64, s_max=1.0)
    with pytest.raises(ValueError):
        SinogramGrid(n_phi=64, n_s=1, s_max=1.0)
    with pytest.raises(ValueError):
        SinogramGrid(n_phi=64, n_s=64, s_max=-1.0)
    with pytest.raises(ValueError):
        SinogramGrid(n_phi=64, n_s=64, s_max=1.0, phi0=2.0, phi1=1.0)
