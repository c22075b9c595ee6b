import math

import numpy as np
import pytest

from limitomo import (
    AngularWindow,
    Disk,
    Ellipse,
    ImageGrid,
    Phantom,
    Raster,
    Sinogram,
    SinogramGrid,
    WeightFunction,
    backproject,
    backproject_windows,
    forward,
    rasterize,
)

ONE = WeightFunction.constant(1.0)
UNIT_DISK = Phantom((Disk((0.0, 0.0), 1.0, 1.0),))


def test_weight_constant():
    w = WeightFunction.constant(2.5)
    x = np.array([[0.1, 0.2], [0.3, -0.1]])
    np.testing.assert_allclose(w(x, 0.7), [2.5, 2.5])
    with pytest.raises(ValueError):
        WeightFunction.constant(0.0)


def test_weight_exponential():
    lam = 0.4
    w = WeightFunction.exponential(lam)
    x = np.array([0.3, -0.2])
    phi = 1.1
    expected = math.exp(lam * (-0.3 * math.sin(phi) - 0.2 * math.cos(phi)))
    assert w(x, phi) == pytest.approx(expected, rel=1e-14)
    wp = WeightFunction.exponential(lam, mode="parallel")
    expected_p = math.exp(lam * (0.3 * math.cos(phi) - 0.2 * math.sin(phi)))
    assert wp(x, phi) == pytest.approx(expected_p, rel=1e-14)
    with pytest.raises(ValueError):
        WeightFunction.exponential(0.3, mode="radial")


@pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan])
def test_weight_exponential_rejects_nonfinite_rate(lam):
    with pytest.raises(ValueError, match="finite"):
        WeightFunction.exponential(lam)


def test_forward_disk_center_sample():
    # odd n_s puts a sample exactly at s = 0
    sg = SinogramGrid(n_phi=4, n_s=129, s_max=1.5)
    g = forward(UNIT_DISK, ONE, sg)
    i_mid = sg.n_s // 2
    assert g.values[1, i_mid] == pytest.approx(2.0, abs=1e-12)


def test_forward_zero_raster():
    grid = ImageGrid(64, 1.2)
    sg = SinogramGrid(n_phi=16, n_s=65, s_max=1.8)
    g = forward(Raster(grid, np.zeros((64, 64))), ONE, sg)
    assert np.all(g.values == 0.0)


def test_forward_raster_matches_phantom_path():
    grid = ImageGrid(512, 1.2)
    f = rasterize(UNIT_DISK, grid)
    sg = SinogramGrid(n_phi=8, n_s=513, s_max=1.7)
    g_r = forward(f, ONE, sg)
    g_a = forward(UNIT_DISK, ONE, sg)
    m = np.abs(sg.s_values()) <= 0.9
    diff = np.abs(g_r.values[:, m] - g_a.values[:, m]).max()
    assert diff < 2.0 * grid.h


def test_forward_rejects_small_smax():
    sg = SinogramGrid(n_phi=8, n_s=64, s_max=0.8)
    with pytest.raises(ValueError, match="s_max"):
        forward(UNIT_DISK, ONE, sg)
    grid = ImageGrid(32, 1.2)
    with pytest.raises(ValueError, match="s_max"):
        forward(Raster(grid, np.zeros((32, 32))), ONE, SinogramGrid(8, 64, 1.2))


def test_backproject_constant_full_circle():
    sg = SinogramGrid(n_phi=360, n_s=129, s_max=1.8)
    grid = ImageGrid(32, 1.2)
    g = Sinogram(sg, np.ones((360, 129)))
    img = backproject(g, ONE, None, grid)
    np.testing.assert_allclose(img.values, 2.0 * math.pi, atol=1e-10)


def test_backproject_constant_window_range():
    # sinogram sampled on the window itself: trapezoid weights integrate
    # the indicator cutoff exactly to the interval length
    phi1, phi2 = math.pi / 4.0, 3.0 * math.pi / 4.0
    sg = SinogramGrid(n_phi=91, n_s=65, s_max=1.8, phi0=phi1, phi1=phi2)
    grid = ImageGrid(16, 1.2)
    g = Sinogram(sg, np.ones((91, 65)))
    win = AngularWindow(phi1, phi2, "indicator")
    img = backproject(g, ONE, win, grid)
    np.testing.assert_allclose(img.values, math.pi / 2.0, atol=1e-12)


def test_backproject_constant_window_in_full_circle():
    phi1, phi2 = math.pi / 4.0, 3.0 * math.pi / 4.0
    sg = SinogramGrid(n_phi=720, n_s=65, s_max=1.8)
    grid = ImageGrid(16, 1.2)
    g = Sinogram(sg, np.ones((720, 65)))
    win = AngularWindow(phi1, phi2, "indicator")
    img = backproject(g, ONE, win, grid)
    # discontinuous integrand: one angular step of quadrature slack
    np.testing.assert_allclose(img.values, math.pi / 2.0, atol=1.5 * sg.dphi)


def test_backproject_zero_sinogram():
    sg = SinogramGrid(n_phi=90, n_s=65, s_max=1.8)
    grid = ImageGrid(16, 1.2)
    img = backproject(Sinogram(sg, np.zeros((90, 65))), ONE, None, grid)
    assert np.all(img.values == 0.0)


def test_backproject_half_range():
    sg = SinogramGrid(n_phi=181, n_s=65, s_max=1.8, phi0=0.0, phi1=math.pi)
    grid = ImageGrid(16, 1.2)
    g = Sinogram(sg, np.ones((181, 65)))
    single = backproject(g, ONE, None, grid)
    np.testing.assert_allclose(single.values, math.pi, atol=1e-10)


def test_scalar_constant_weight_matches_array_weight_bitwise():
    # WeightFunction.constant returns a bare scalar; a custom weight that
    # returns a full array of the same value must give the same bits on
    # both projectors, so neither needs a constant-weight fork.
    c = 1.7
    scalar = WeightFunction.constant(c)
    array = WeightFunction(lambda x, phi: np.full(
        np.broadcast_shapes(x[..., 0].shape, np.shape(phi)), c))
    assert np.ndim(scalar(np.zeros((3, 2)), 0.4)) == 0
    grid = ImageGrid(32, 1.2)
    sg = SinogramGrid(n_phi=24, n_s=49, s_max=1.8)
    f = rasterize(Phantom((Disk((0.1, -0.1), 0.7, 1.0),)), grid)
    g = forward(f, scalar, sg)
    np.testing.assert_array_equal(g.values, forward(f, array, sg).values)
    win = AngularWindow(math.pi / 4.0, 3.0 * math.pi / 4.0, "finite-order", 1)
    for window in (None, win):
        np.testing.assert_array_equal(backproject(g, scalar, window, grid).values,
                                      backproject(g, array, window, grid).values)


def test_backproject_rejects_uncovered_pixels():
    sg = SinogramGrid(n_phi=90, n_s=65, s_max=1.0)
    grid = ImageGrid(16, 1.2)
    with pytest.raises(ValueError, match="s_max"):
        backproject(Sinogram(sg, np.zeros((90, 65))), ONE, None, grid)


def test_backproject_rejects_nonfinite():
    sg = SinogramGrid(n_phi=16, n_s=17, s_max=1.8)
    grid = ImageGrid(8, 1.2)
    values = np.zeros((16, 17))
    values[3, 5] = np.nan
    with pytest.raises(ValueError, match="finite"):
        backproject(Sinogram(sg, values), ONE, None, grid)


def test_forward_rejects_nonfinite_raster():
    grid = ImageGrid(8, 1.2)
    values = np.zeros((8, 8))
    values[2, 3] = np.nan
    with pytest.raises(ValueError, match="raster contains non-finite values"):
        forward(Raster(grid, values), ONE, SinogramGrid(n_phi=4, n_s=17, s_max=1.8))


def _reference_backproject(g, nu, window, grid):
    # The plain per-angle sum, in the operand order the kernel keeps.
    phis, wphi, s = g.grid.phis(), g.grid.phi_weights(), g.grid.s_values()
    kap = np.ones(phis.size) if window is None else window.kappa(phis)
    X, Y = grid.centers()
    xf, yf = X.ravel(), Y.ravel()
    pts = np.stack([xf, yf], axis=-1)
    acc = np.zeros(xf.size)
    for i in np.nonzero(kap * wphi != 0.0)[0]:
        gi = np.interp(xf * math.cos(phis[i]) + yf * math.sin(phis[i]), s, g.values[i])
        acc += (kap[i] * wphi[i] * nu(pts, phis[i])) * gi
    return acc.reshape(grid.n, grid.n)


@pytest.mark.parametrize("threads", [None, "2"])
@pytest.mark.parametrize("nu", [ONE, WeightFunction.exponential(0.4)],
                         ids=["constant", "exponential"])
def test_backproject_windows_bitwise_equal_single(threads, nu, monkeypatch):
    # One pass over the angles for many windows gives each window the
    # bits of its own single-window call at the same thread count.
    if threads is None:
        monkeypatch.delenv("LIMITOMO_THREADS", raising=False)
    else:
        monkeypatch.setenv("LIMITOMO_THREADS", threads)
    phi1, phi2 = math.pi / 4.0, 3.0 * math.pi / 4.0
    sg = SinogramGrid(n_phi=61, n_s=49, s_max=1.8, phi0=0.0, phi1=math.pi)
    grid = ImageGrid(24, 1.2)
    g = Sinogram(sg, np.random.default_rng(7).standard_normal((61, 49)))
    windows = [None, AngularWindow(phi1, phi2, "indicator")]
    windows += [AngularWindow(phi1, phi2, "finite-order", k) for k in (1, 2, 3, 4)]
    windows.append(AngularWindow(0.3, 1.1, "finite-order", 2))
    batched = backproject_windows(g, nu, windows, grid)
    assert len(batched) == len(windows)
    for win, img in zip(windows, batched):
        np.testing.assert_array_equal(img.values,
                                      backproject(g, nu, win, grid).values)
        if threads is None:
            np.testing.assert_array_equal(img.values,
                                          _reference_backproject(g, nu, win, grid))


def test_backproject_window_between_samples_is_zero():
    # No sample angle falls inside the window: every kappa is zero.
    sg = SinogramGrid(n_phi=5, n_s=9, s_max=1.8, phi0=0.0, phi1=math.pi)
    g = Sinogram(sg, np.ones((5, 9)))
    win = AngularWindow(0.1, 0.2, "indicator")
    img = backproject(g, ONE, win, ImageGrid(8, 1.2))
    assert np.all(img.values == 0.0)


def test_forward_linear_in_source():
    grid = ImageGrid(64, 1.2)
    sg = SinogramGrid(n_phi=24, n_s=65, s_max=1.8)
    rng = np.random.default_rng(7)
    a = rng.normal(size=(64, 64))
    b = rng.normal(size=(64, 64))
    ga = forward(Raster(grid, a), ONE, sg).values
    gb = forward(Raster(grid, b), ONE, sg).values
    gab = forward(Raster(grid, 2.0 * a - 3.0 * b), ONE, sg).values
    np.testing.assert_allclose(gab, 2.0 * ga - 3.0 * gb, atol=1e-10)


def test_backproject_linear_in_data():
    grid = ImageGrid(32, 1.2)
    sg = SinogramGrid(n_phi=48, n_s=65, s_max=1.8)
    rng = np.random.default_rng(11)
    a = rng.normal(size=(48, 65))
    b = rng.normal(size=(48, 65))
    nu = WeightFunction.exponential(0.2)
    fa = backproject(Sinogram(sg, a), nu, None, grid).values
    fb = backproject(Sinogram(sg, b), nu, None, grid).values
    fab = backproject(Sinogram(sg, 0.5 * a + 2.0 * b), nu, None, grid).values
    np.testing.assert_allclose(fab, 0.5 * fa + 2.0 * fb, atol=1e-10)


def test_rotational_symmetry_of_disk_sinogram():
    grid = ImageGrid(256, 1.2)
    f = rasterize(UNIT_DISK, grid)
    sg = SinogramGrid(n_phi=32, n_s=257, s_max=1.7)
    g = forward(f, ONE, sg)
    variation = np.abs(g.values - g.values.mean(axis=0)).max()
    assert variation < 2.0 * grid.h


def test_discrete_duality():
    grid = ImageGrid(128, 1.2)
    sg = SinogramGrid(n_phi=360, n_s=183, s_max=1.8)
    mu = WeightFunction.exponential(0.3)
    f = rasterize(Phantom((Disk((0.1, -0.1), 0.7, 1.0),
                           Ellipse((-0.3, 0.3), 0.4, 0.25, 0.3, 0.5))), grid)
    Rf = forward(f, mu, sg)
    phis = sg.phis()
    s = sg.s_values()
    g = Sinogram(sg, (1.0 + 0.5 * np.cos(phis))[:, None]
                 * np.exp(-(s - 0.2) ** 2 / 0.18)[None, :])
    Rstar_g = backproject(g, mu, None, grid)
    lhs = np.sum(Rf.values * g.values
                 * sg.phi_weights()[:, None] * sg.s_weights()[None, :])
    rhs = np.sum(f.values * Rstar_g.values) * grid.h ** 2
    assert abs(lhs - rhs) / abs(lhs) < 0.01


def test_sinogram_shape_validation():
    sg = SinogramGrid(n_phi=16, n_s=17, s_max=1.0)
    with pytest.raises(ValueError):
        Sinogram(sg, np.zeros((17, 16)))


def test_forward_raster_constant_exact_between_opposite_edges():
    # Joseph's projector reads exactly 1 at every crossing inside the hull of
    # pixel centres, so a constant raster integrates to the chord length
    # 2L / max(|cos|, |sin|) of a line through two opposite edges.
    n, L = 64, 1.2
    grid = ImageGrid(n, L)
    sg = SinogramGrid(n_phi=20, n_s=129, s_max=1.8)
    g = forward(Raster(grid, np.ones((n, n))), ONE, sg)
    s = sg.s_values()
    checked = 0
    for phi, row in zip(sg.phis(), g.values):
        a, b = sorted((abs(math.cos(phi)), abs(math.sin(phi))), reverse=True)
        # every crossing |u| <= (|s| + (L - h/2) b) / a stays inside L - h/2
        m = np.abs(s) < (L - 0.5 * grid.h) * (a - b) - 1e-9
        np.testing.assert_allclose(row[m], 2.0 * L / a, rtol=0, atol=1e-12)
        checked += int(m.sum())
    assert checked > 300


@pytest.mark.parametrize("mu", [ONE, WeightFunction.exponential(0.8)])
def test_forward_raster_zero_beyond_support(mu):
    n, L = 32, 1.2
    grid = ImageGrid(n, L)
    values = 1.0 + np.random.default_rng(4).random((n, n))  # non-zero border
    sg = SinogramGrid(n_phi=37, n_s=201, s_max=2.5)
    g = forward(Raster(grid, values), mu, sg)
    far = np.abs(sg.s_values()) > math.sqrt(2.0) * L + grid.h
    assert far.sum() > 40
    assert np.all(g.values[:, far] == 0.0)
    assert np.all(g.values[:, np.abs(sg.s_values()) < L] > 0.0)


@pytest.mark.parametrize("mu", [ONE, WeightFunction.exponential(0.5)])
def test_forward_raster_bitwise_equal_across_threads(mu, monkeypatch):
    grid = ImageGrid(48, 1.2)
    values = np.random.default_rng(5).normal(size=(48, 48))
    sg = SinogramGrid(n_phi=30, n_s=71, s_max=1.8)
    monkeypatch.delenv("LIMITOMO_THREADS", raising=False)
    one = forward(Raster(grid, values), mu, sg).values
    monkeypatch.setenv("LIMITOMO_THREADS", "2")
    two = forward(Raster(grid, values), mu, sg).values
    np.testing.assert_array_equal(one, two)
