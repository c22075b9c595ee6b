import math
import os
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from limitomo import (
    AngularWindow,
    ClippedDisk,
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
from limitomo import _util, transforms
from limitomo.phantoms import analytic_sinogram_row

ONE = WeightFunction.constant(1.0)
UNIT_DISK = Phantom((Disk((0.0, 0.0), 1.0, 1.0),))


def test_weight_constant():
    w = WeightFunction.constant(2.5)
    x = np.array([[0.1, 0.2], [0.3, -0.1]])
    np.testing.assert_allclose(w(x, 0.7), [2.5, 2.5])
    for c in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            WeightFunction.constant(c)


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
    # Every weight kind gives +0.0 everywhere, without a warning.
    grid = ImageGrid(64, 1.2)
    sg = SinogramGrid(n_phi=16, n_s=65, s_max=1.8)
    for mu in WEIGHTS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = forward(Raster(grid, np.zeros((64, 64))), mu, sg).values
        assert np.all(g == 0.0) and not np.signbit(g).any()


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
    # both projectors, so neither needs a constant-weight fork.  The one
    # place the two differ is the opposite-angle fold, which only a weight
    # of kind "constant" takes; a batch with a cutoff window never folds.
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
    for a, b in zip(backproject_windows(g, scalar, [None, win], grid),
                    backproject_windows(g, array, [None, win], grid)):
        np.testing.assert_array_equal(a.values, b.values)
    folded = backproject(g, scalar, None, grid).values
    unfolded = backproject(g, array, None, grid).values
    np.testing.assert_allclose(folded, unfolded, rtol=1e-12,
                               atol=1e-13 * np.abs(unfolded).max())


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


def _reference_forward_raster(raster, mu, sg):
    # Joseph's projector one angle at a time, the weight called on every
    # crossing point: u = (s - a_j b) / a along the pixel line a_j.
    grid = raster.grid
    n, L, h = grid.n, grid.extent, grid.h
    ax, s = grid.axis(), sg.s_values()
    img = raster.values
    out = np.empty((sg.n_phi, sg.n_s))
    for i, phi in enumerate(sg.phis()):
        c, sn = math.cos(phi), math.sin(phi)
        k = 0 if abs(c) >= abs(sn) else 1
        a, b = (c, sn) if k == 0 else (sn, c)
        lines = np.pad(img if k == 0 else img.T, ((0, 0), (1, 2)))
        u = (s[:, None] - ax * b) / a
        q = np.clip((u + L) / h + 0.5, 0.0, n + 1.0)
        idx = q.astype(np.intp)
        rows = np.arange(n)
        f = lines[rows, idx] + (q - idx) * (lines[rows, idx + 1] - lines[rows, idx])
        v = np.broadcast_to(ax, u.shape)
        pts = np.stack([u, v] if k == 0 else [v, u], axis=-1)
        out[i] = (f * mu(pts, phi)).sum(axis=1) * (h / abs(a))
    return out


PARALLEL = WeightFunction.exponential(0.4, "parallel")
RADIAL = WeightFunction(lambda x, phi: 1.0 + (x * x).sum(axis=-1))
WEIGHTS = [ONE, WeightFunction.exponential(0.4), PARALLEL, RADIAL]
WEIGHT_IDS = ["constant", "exponential", "parallel", "radial"]


def _assert_matches_reference(raster, mu, sg):
    # 1e-13 of each row's maximum, and exact +0.0 wherever the reference
    # reads exactly 0: the lines that meet no non-zero pixel.
    got = forward(raster, mu, sg).values
    ref = _reference_forward_raster(raster, mu, sg)
    assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref).max(axis=1, keepdims=True))
    zero = ref == 0.0
    assert np.all(got[zero] == 0.0) and not np.signbit(got[zero]).any()
    return zero


# Even full circles: angles i and i + n_phi / 2 share one interpolated plane.
FOLDED_SGS = {f"{n_phi}x{n_s}": SinogramGrid(n_phi=n_phi, n_s=n_s, s_max=1.8)
              for n_phi, n_s in [(36, 71), (36, 301), (48, 300)]}


@pytest.mark.parametrize("cpus", [1, 2, 8])
@pytest.mark.parametrize("mu", WEIGHTS, ids=WEIGHT_IDS)
@pytest.mark.parametrize("sg", [SinogramGrid(n_phi=37, n_s=71, s_max=1.8), *FOLDED_SGS.values(),
                                SinogramGrid(n_phi=200, n_s=71, s_max=1.8)],
                         ids=["37x71", *FOLDED_SGS, "200x71"])
def test_forward_raster_matches_reference(sg, cpus, mu, usable_cpus):
    # The kernel computes the crossing index as one outer sum, applies an
    # exponential weight as two 1-D factors, sums only the pixel lines that
    # hold the source and reads angle phi + pi from the plane of phi at -s,
    # so it matches the per-sample projector to rounding only: 1e-13 of
    # each row's maximum.  At n_phi = 200, |cos| >= |sin| holds at 315
    # degrees but not at 135: the two step through different pixel lines,
    # which give different sums under a weight that varies along the line.
    usable_cpus(cpus)
    values = np.random.default_rng(9).normal(size=(40, 40))
    _assert_matches_reference(Raster(ImageGrid(40, 1.2), values), mu, sg)


def _sparse_raster(pixels, values=1.0):
    img = np.zeros((40, 40))
    img[pixels] = values
    return img


SPARSE_RASTERS = {
    **{name: _sparse_raster(ij) for name, ij in [
        ("corner00", (0, 0)), ("corner0n", (0, 39)), ("cornern0", (39, 0)),
        ("cornernn", (39, 39)), ("edge", (0, 20)), ("centre", (20, 20))]},
    # non-zero pixels in one image row: a support of zero height
    "row": _sparse_raster((13, slice(5, 31)), np.random.default_rng(2).normal(size=26)),
}


@pytest.mark.parametrize("cpus", [1, 2, 8])
@pytest.mark.parametrize("mu", WEIGHTS, ids=WEIGHT_IDS)
@pytest.mark.parametrize("values", SPARSE_RASTERS.values(), ids=SPARSE_RASTERS.keys())
@pytest.mark.parametrize("sg", [SinogramGrid(n_phi=37, n_s=301, s_max=1.8), *FOLDED_SGS.values()],
                         ids=["37x301", *FOLDED_SGS])
def test_forward_raster_sparse_support_margin(sg, values, mu, cpus, usable_cpus):
    # A lone pixel is the tightest support: its lines lie within h of its
    # centre in s, and the projector computes only those, so a margin
    # below h drops non-zero samples.  n_s = 301 puts about 5 samples per
    # pixel width, some within h/2 of the margin's edge; on a folded grid
    # angle phi + pi computes the mirror of the lines of phi.
    usable_cpus(cpus)
    zero = _assert_matches_reference(Raster(ImageGrid(40, 1.2), values), mu, sg)
    assert 0 < (~zero).sum(axis=1).min()


def test_forward_raster_temporaries_scale_with_support(usable_cpus):
    # A disk of radius 0.3 meets about a fifth of the lines at s_max = 1.8
    # and about a quarter of the pixel lines.  Beyond the output, the call
    # holds 2.4 (n_s, n) planes, 2.0 of them the complex pair table: the
    # bound of 4 planes fails if the full s range comes back.  Beyond the
    # output and the pair table it holds 0.7 of an (n, n) float64 image,
    # most of it numpy's fixed ufunc buffers, so a second whole-image
    # array fails the bound of one image.
    n, n_s = 128, 257
    f = rasterize(Phantom((Disk((0.2, -0.1), 0.3, 1.0),)), ImageGrid(n, 1.2))
    sg = SinogramGrid(n_phi=64, n_s=n_s, s_max=1.8)
    usable_cpus(1)
    tracemalloc.start()
    try:
        forward(f, ONE, sg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 64 * n_s * 8 < 4 * n_s * n * 8
    assert peak - 64 * n_s * 8 - 2 * n * (n + 3) * 16 < n * n * 8


@pytest.mark.parametrize("mu", [ONE, WeightFunction.exponential(0.6)],
                         ids=["constant", "exponential"])
def test_forward_phantom_rows_equal_analytic_rows_bitwise(mu):
    # Only lines within the support radius are computed; the rest must
    # read the +0.0 that analytic_sinogram_row gives for a missed line,
    # negative densities included.
    ph = Phantom((ClippedDisk((0.3, -0.2), 0.4, (0.6, 0.8), 0.1, 1.0),
                  Ellipse((-0.2, 0.25), 0.35, 0.15, 0.5, -0.7),
                  Disk((0.35, 0.3), 0.12, -0.4)))
    sg = SinogramGrid(n_phi=29, n_s=129, s_max=1.8)
    got = forward(ph, mu, sg).values
    s = sg.s_values()
    for phi, row in zip(sg.phis(), got):
        assert row.tobytes() == analytic_sinogram_row(ph, mu, float(phi), s).tobytes()
    missed = got == 0.0
    assert missed.sum() > 29 * 40 and not np.signbit(got[missed]).any()
    assert (got < 0.0).any()


BLOCK_PHANTOM = Phantom((Disk((0.0, 0.0), 0.6, 1.0),
                         Ellipse((0.1, 0.2), 0.3, 0.2, 0.4, 0.5),
                         ClippedDisk((-0.1, 0.0), 0.4, (0.6, 0.8), 0.1, 1.0)))


@pytest.mark.parametrize("mu", [ONE, WeightFunction.exponential(0.4), RADIAL],
                         ids=["constant", "exponential", "custom"])
def test_forward_phantom_temporaries_are_block_sized(mu, usable_cpus):
    # Beyond the output, the analytic forward holds about 6 to 7 planes of
    # BLOCK_PIXELS values: a block's chords, their ends and the closed
    # form's terms over shapes x angles x s, or a custom weight's points
    # and weights over shapes x angles x s x nodes.  The closed form on all
    # 360 angles holds 18 to 21 planes; the 16-node point plane of all 360
    # angles alone is 31, and blocks not divided by the 3 shapes hold 19
    # to 21: the bound of 12 fails for each.
    sg = SinogramGrid(n_phi=360, n_s=257, s_max=1.8)
    usable_cpus(1)
    tracemalloc.start()
    try:
        forward(BLOCK_PHANTOM, mu, sg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 360 * 257 * 8 < 12 * _util.BLOCK_PIXELS * 8


@pytest.mark.parametrize("block", [None, 2 * 87 * 16 * 3 + 1])
@pytest.mark.parametrize("mu", [ONE, WeightFunction.exponential(0.4), RADIAL],
                         ids=["constant", "exponential", "custom"])
def test_forward_phantom_bitwise_equal_across_threads(mu, block, monkeypatch, usable_cpus):
    # The blocks run serially, so one and two usable CPUs give the same
    # bits.  So do smaller blocks: 87 of the s meet the support, so they
    # hold 32 angles (constant, exponential) against all 61, or 2 (custom,
    # 16 nodes) against the default 7.
    sg = SinogramGrid(n_phi=61, n_s=257, s_max=1.8)
    usable_cpus(1)
    one = forward(BLOCK_PHANTOM, mu, sg).values
    usable_cpus(2)
    if block is not None:
        monkeypatch.setattr(_util, "BLOCK_PIXELS", block)
    np.testing.assert_array_equal(forward(BLOCK_PHANTOM, mu, sg).values, one)
    assert not np.signbit(one[one == 0.0]).any()


@pytest.mark.parametrize("mode", ["perp", "parallel"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_forward_raster_finite_at_rate_bound(mode, sign):
    # |lam| R = 709.7 with R = s_max = sqrt(2) L, inside the config's guard.
    # Crossings off the image reach |x . theta_perp| = 2R, where one exp of
    # the weight overflows; its two factors stay below exp(|lam| R).
    L = 1.2
    s_max = math.sqrt(2.0) * L
    mu = WeightFunction.exponential(sign * 709.7 / s_max, mode)
    grid = ImageGrid(32, L)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = forward(Raster(grid, np.ones((32, 32))), mu, SinogramGrid(64, 65, s_max)).values
    assert np.all(np.isfinite(g))
    assert g.max() > 0.0


@pytest.mark.parametrize("mode", ["perp", "parallel"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_folded_backproject_finite_at_rate_bound(mode, sign):
    # |lam| R = 709.7 with R = s_max = sqrt(2) L: the folded exponential
    # back-projection weighs each pixel by exp(p . x) <= exp(|lam| |x|)
    # at both angles of a row, below exp(|lam| R), with no overflow.
    L = 1.2
    s_max = math.sqrt(2.0) * L
    nu = WeightFunction.exponential(sign * 709.7 / s_max, mode)
    grid = ImageGrid(32, L)
    sg = SinogramGrid(64, 65, s_max)
    assert transforms._folds(sg)
    g = Sinogram(sg, np.ones((64, 65)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        img = backproject(g, nu, None, grid).values
        ref = _reference_backproject(g, nu, None, grid)
    assert np.all(np.isfinite(img))
    np.testing.assert_allclose(img, ref, rtol=1e-12, atol=1e-13 * np.abs(ref).max())


@pytest.mark.parametrize("w", WEIGHTS, ids=WEIGHT_IDS)
def test_weight_on_grid_equals_call_bitwise(w):
    # The back-projection's per-block evaluation is the weight itself on
    # the block's pixel points, bit for bit, for every kind: on a block of
    # rows (x, y[:, None]) and on a run of scattered points.
    x = ImageGrid(24, 1.2).axis()
    y = x[5:12]
    pts = np.stack(np.meshgrid(x, y), axis=-1)
    run = np.random.default_rng(2).permutation(pts.reshape(-1, 2))[:40]
    for (bx, by), p in (((x, y[:, None]), pts), ((run[:, 0], run[:, 1]), run)):
        at = w.on_grid(bx, by)
        for phi in np.linspace(0.0, 2.0 * math.pi, 13):
            np.testing.assert_array_equal(np.broadcast_to(at(phi), p.shape[:-1]),
                                          np.broadcast_to(w(p, phi), p.shape[:-1]))


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("nu", [ONE, WeightFunction.exponential(0.4), PARALLEL],
                         ids=["constant", "exponential", "parallel"])
def test_backproject_windows_bitwise_equal_single(cpus, nu, monkeypatch, usable_cpus):
    # One pass over the angles for many windows gives each window the
    # bits of its own single-window call and of the plain per-angle sum,
    # at every thread count.  Five blocks of 5 rows give two CPUs two workers.
    usable_cpus(cpus)
    monkeypatch.setattr(_util, "BLOCK_PIXELS", 5 * 24)
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
        np.testing.assert_array_equal(img.values,
                                      _reference_backproject(g, nu, win, grid))


FOLD_SG = SinogramGrid(n_phi=48, n_s=49, s_max=1.8)
FOLD_GRID = ImageGrid(24, 1.2)


def _fold_sinogram(sg=FOLD_SG):
    return Sinogram(sg, np.random.default_rng(11).standard_normal((sg.n_phi, sg.n_s)))


# Exponential weights of both signs and modes: each folds on a full circle.
EXP_FOLDS = {f"{mode}{lam:+}": WeightFunction.exponential(lam, mode)
             for mode in ("perp", "parallel") for lam in (0.4, -0.4)}


# A folding grid whose angles have no mirror partner: phi_i + phi_j is
# 2e-13 off pi for every pair.
NO_MIRROR_SG = SinogramGrid(48, 49, 1.8, phi0=1e-13, phi1=1e-13 + 2.0 * math.pi)


@pytest.mark.parametrize("nu", [ONE, *EXP_FOLDS.values(), RADIAL],
                         ids=["constant", *EXP_FOLDS, "radial"])
def test_folded_backproject_matches_reference(nu):
    # Full circle, even n_phi, no window: rows phi and phi + pi share one
    # interpolation, summed first for a constant nu and as the real and
    # imaginary part of one complex row for an exponential nu, and mirror
    # partners pi - phi share its x . theta plane, on a grid with mirror
    # partners and on one without.  A custom weight is not folded, even one
    # equal at every pair.
    for sg in (FOLD_SG, NO_MIRROR_SG):
        assert transforms._folds(sg)
        # The groups cover each of the m = 24 folded angles once.
        groups = transforms._mirror_groups(sg)
        covered = [i for i, _ in groups] + [j for _, j in groups if j is not None]
        assert sorted(covered) == list(range(24))
        assert all(j is None for _, j in groups) is (sg is NO_MIRROR_SG)
        g = _fold_sinogram(sg)
        img = backproject(g, nu, None, FOLD_GRID).values
        ref = _reference_backproject(g, nu, None, FOLD_GRID)
        if nu is RADIAL:
            np.testing.assert_array_equal(img, ref)
            continue
        np.testing.assert_allclose(img, ref, rtol=0.0, atol=1e-13 * np.abs(ref).max())
        # s_values() is not bitwise symmetric, so the folded sum is not bitwise.
        assert not np.array_equal(img, ref)


def test_custom_scalar_weight_does_not_fold():
    # The fold reads the weight's declared kind, not its values: a custom
    # weight returning the scalar 1.0 keeps the unfolded bits.
    nu = WeightFunction(lambda x, phi: 1.0)
    g = _fold_sinogram()
    np.testing.assert_array_equal(backproject(g, nu, None, FOLD_GRID).values,
                                  _reference_backproject(g, nu, None, FOLD_GRID))


def test_weight_even_only_up_to_rounding_does_not_fold():
    # cos(phi + pi) != -cos(phi) bitwise, so (x . theta)^2 differs at the pair.
    nu = WeightFunction(lambda x, phi: 1.0 + (x[..., 0] * np.cos(phi)
                                              + x[..., 1] * np.sin(phi)) ** 2)
    g = _fold_sinogram()
    np.testing.assert_array_equal(backproject(g, nu, None, FOLD_GRID).values,
                                  _reference_backproject(g, nu, None, FOLD_GRID))


@pytest.mark.parametrize("nu, sg", [
    (ONE, SinogramGrid(n_phi=47, n_s=49, s_max=1.8)),
], ids=["odd-n_phi"])
def test_unfoldable_backproject_keeps_reference_bits(nu, sg):
    g = _fold_sinogram(sg)
    np.testing.assert_array_equal(backproject(g, nu, None, FOLD_GRID).values,
                                  _reference_backproject(g, nu, None, FOLD_GRID))


def test_folded_backproject_bit_reproducible_with_threads(monkeypatch, usable_cpus):
    usable_cpus(2)
    monkeypatch.setattr(_util, "BLOCK_PIXELS", 12 * 24)
    g = _fold_sinogram()
    first = backproject(g, ONE, None, FOLD_GRID).values
    np.testing.assert_array_equal(first, backproject(g, ONE, None, FOLD_GRID).values)
    ref = _reference_backproject(g, ONE, None, FOLD_GRID)
    np.testing.assert_allclose(first, ref, rtol=1e-12, atol=1e-13 * np.abs(ref).max())


@pytest.mark.parametrize("nu", EXP_FOLDS.values(), ids=EXP_FOLDS.keys())
def test_exponential_fold_bit_identical_for_threads_and_blocks(nu, monkeypatch, usable_cpus):
    # Blocks of BLOCK_PIXELS // (2 n) image rows, 3 (8 blocks) or 5 of the
    # 24 (5 blocks, the last one 1 row short), taken by 1 or 2 workers: each
    # is the one-block image bit for bit, and each block interpolates the
    # m = 24 complex rows once.
    g = _fold_sinogram()
    usable_cpus(1)
    whole = backproject(g, nu, None, FOLD_GRID).values
    for block, n_blocks in ((7 * 24, 8), (10 * 24, 5)):
        monkeypatch.setattr(_util, "BLOCK_PIXELS", block)
        for cpus in (1, 2):
            usable_cpus(cpus)
            _, rows = _interp_calls(monkeypatch)
            np.testing.assert_array_equal(backproject(g, nu, None, FOLD_GRID).values, whole)
            assert len(rows) == n_blocks * 24 and all(np.iscomplexobj(r) for r in rows)


def test_folded_backproject_windows_gives_equal_images():
    for nu in (ONE, *EXP_FOLDS.values()):
        a, b = backproject_windows(_fold_sinogram(), nu, [None, None], FOLD_GRID)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.values, backproject(_fold_sinogram(), nu, None,
                                                            FOLD_GRID).values)


def test_fold_needs_rows_exactly_half_a_circle_apart():
    # The grid is periodic (its span is 1e-10 short of 2 pi), but row i + m
    # lies 5e-11 short of pi from row i, so folding them would add two rows
    # at the wrong angle: it is back-projected unfolded.
    sg = SinogramGrid(48, 49, 1.8, phi0=1e-10, phi1=2.0 * math.pi)
    assert sg.periodic
    g = _fold_sinogram(sg)
    img = backproject(g, ONE, None, FOLD_GRID).values
    ref = _reference_backproject(g, ONE, None, FOLD_GRID)
    np.testing.assert_allclose(img, ref, rtol=0, atol=1e-13 * np.abs(ref).max())


def _mask(n, seed=5):
    return np.random.default_rng(seed).random((n, n)) < 0.3


HALF_SG = SinogramGrid(n_phi=61, n_s=49, s_max=1.8, phi0=0.0, phi1=math.pi)
# 3 x 3 tiles of 16 px for the masked call's visiting order, the last row
# and column of tiles cut to 8 px.
TILE_GRID = ImageGrid(40, 1.2)


@pytest.mark.parametrize("grid", [FOLD_GRID, TILE_GRID], ids=["24px", "40px"])
@pytest.mark.parametrize("cpus, block", [(1, None), (2, None), (1, 7), (2, 7)],
                         ids=["1cpu", "2cpus", "1cpu-7px", "2cpus-7px"])
@pytest.mark.parametrize("nu", [ONE, WeightFunction.exponential(0.4), RADIAL],
                         ids=["constant", "exponential", "custom"])
@pytest.mark.parametrize("windows", [
    [AngularWindow(0.3, 1.1, "finite-order", 2)],
    [AngularWindow(math.pi / 4.0, 3.0 * math.pi / 4.0, "finite-order", k) for k in (1, 2, 3, 4)],
], ids=["one-window", "four-orders"])
def test_masked_backproject_keeps_the_bits_of_the_full_call(windows, nu, cpus, block, grid,
                                                            monkeypatch, usable_cpus):
    # A half range onto 24^2 or 40^2 pixels: each masked pixel has the bits
    # of the full call and every other pixel is +0.0, at every thread count
    # and block size (7 points leave the last run short).
    g = Sinogram(HALF_SG, np.random.default_rng(7).standard_normal((61, 49)))
    full = backproject_windows(g, nu, windows, grid)
    usable_cpus(cpus)
    if block is not None:
        monkeypatch.setattr(_util, "BLOCK_PIXELS", block)
    mask = _mask(grid.n)
    masked = backproject_windows(g, nu, windows, grid, pixels=mask)
    assert len(masked) == len(windows)
    for a, b in zip(masked, full):
        np.testing.assert_array_equal(a.values[mask], b.values[mask])
        off = a.values[~mask]
        assert np.all(off == 0.0) and not np.signbit(off).any()


def test_masked_backproject_never_folds():
    # A full circle, None windows and a constant weight fold when unmasked;
    # masked, the pixels get the unfolded per-angle sum, bit for bit.  A mask
    # of every pixel or of none gives the unfolded image or zeros.
    g = _fold_sinogram()
    ref = _reference_backproject(g, ONE, None, FOLD_GRID)
    mask = _mask(FOLD_GRID.n)
    for img in backproject_windows(g, ONE, [None, None], FOLD_GRID, pixels=mask):
        np.testing.assert_array_equal(img.values[mask], ref[mask])
        assert np.all(img.values[~mask] == 0.0)
    every = np.ones((FOLD_GRID.n, FOLD_GRID.n), dtype=bool)
    np.testing.assert_array_equal(backproject(g, ONE, None, FOLD_GRID, pixels=every).values, ref)
    none = backproject(g, ONE, None, FOLD_GRID, pixels=~every).values
    assert np.all(none == 0.0) and not np.signbit(none).any()
    with pytest.raises(ValueError, match="mask shape"):
        backproject(g, ONE, None, FOLD_GRID, pixels=every[1:])


@pytest.mark.parametrize("case", ["window-batch", "masked", "1e-10-off"])
@pytest.mark.parametrize("nu", [WeightFunction.exponential(0.4), PARALLEL],
                         ids=["perp", "parallel"])
def test_exponential_fold_boundaries_keep_reference_bits(nu, case):
    # An exponential weight on a full circle folds only without a cutoff,
    # without a mask and with rows exactly half a circle apart: a None
    # window batched with a cutoff, a masked call and a circle that starts
    # at 1e-10 each keep the unfolded bits.
    g = _fold_sinogram()
    ref = _reference_backproject(g, nu, None, FOLD_GRID)
    if case == "window-batch":
        img = backproject_windows(g, nu, [None, AngularWindow(0.3, 1.1, "finite-order", 2)],
                                  FOLD_GRID)[0].values
    elif case == "masked":
        mask = _mask(FOLD_GRID.n)
        img = backproject(g, nu, None, FOLD_GRID, pixels=mask).values
        img, ref = img[mask], ref[mask]
    else:
        g = _fold_sinogram(SinogramGrid(48, 49, 1.8, phi0=1e-10, phi1=2.0 * math.pi))
        img = backproject(g, nu, None, FOLD_GRID).values
        ref = _reference_backproject(g, nu, None, FOLD_GRID)
    np.testing.assert_array_equal(img, ref)


def test_backproject_windows_rejects_an_empty_window_list():
    g = _fold_sinogram()
    for pixels in (None, _mask(FOLD_GRID.n)):
        with pytest.raises(ValueError, match="windows must be nonempty"):
            backproject_windows(g, ONE, [], FOLD_GRID, pixels=pixels)


def _interp_calls(monkeypatch):
    # The points (x) and the row (fp) of every np.interp call, in call order.
    xs, rows, interp = [], [], np.interp

    def spy(x, xp, fp, *args, **kwargs):
        xs.append(np.array(x))
        rows.append(np.array(fp))
        return interp(x, xp, fp, *args, **kwargs)

    monkeypatch.setattr(np, "interp", spy)
    return xs, rows


def _gathers(monkeypatch):
    # The index plane of every np.take call, in call order: the raster
    # forward gathers each interpolated plane with one take.
    planes, take = [], np.take

    def spy(a, indices, *args, **kwargs):
        planes.append(np.array(indices))
        return take(a, indices, *args, **kwargs)

    monkeypatch.setattr(np, "take", spy)
    return planes


FOLD_CASES = {
    "full-30": (SinogramGrid(n_phi=30, n_s=49, s_max=1.8), True),
    "full-48": (FOLD_SG, True),
    "odd": (SinogramGrid(n_phi=37, n_s=49, s_max=1.8), False),
    "half": (SinogramGrid(n_phi=30, n_s=49, s_max=1.8, phi0=0.0, phi1=math.pi), False),
    # periodic, but row i + m lies 5e-11 short of pi from row i
    "1e-10-off": (SinogramGrid(30, 49, 1.8, phi0=1e-10, phi1=2.0 * math.pi), False),
    "two": (SinogramGrid(n_phi=2, n_s=49, s_max=1.8), True),
}


@pytest.mark.parametrize("sg, folds", FOLD_CASES.values(), ids=FOLD_CASES.keys())
def test_forward_folds_exactly_when_backproject_folds(sg, folds, monkeypatch):
    # One rule folds both projectors: a folding forward makes one gather
    # per opposite-angle pair, and a folding back-projection interpolates
    # fewer rows than it has angles (one block here).
    assert transforms._folds(sg) is folds
    values = np.random.default_rng(3).normal(size=(FOLD_GRID.n, FOLD_GRID.n))
    planes = _gathers(monkeypatch)
    forward(Raster(FOLD_GRID, values), ONE, sg)
    assert len(planes) == (sg.n_phi // 2 if folds else sg.n_phi)
    _, rows = _interp_calls(monkeypatch)
    backproject(_fold_sinogram(sg), ONE, None, FOLD_GRID)
    assert (len(rows) < sg.n_phi) is folds


def test_forward_gathers_only_the_pixel_lines_that_hold_the_source(monkeypatch, usable_cpus):
    # The row raster's non-zero pixels lie in image row 13, columns 5..30:
    # a plane is one pixel line wide where the line steps through rows
    # (|cos| >= |sin|) and 26 wide where it steps through columns.
    usable_cpus(1)
    sg = FOLDED_SGS["36x71"]
    planes = _gathers(monkeypatch)
    forward(Raster(ImageGrid(40, 1.2), SPARSE_RASTERS["row"]), ONE, sg)
    assert len(planes) == 18
    for plane, phi in zip(planes, sg.phis()):
        assert plane.shape[1] == (1 if abs(math.cos(phi)) >= abs(math.sin(phi)) else 26)


@pytest.mark.parametrize("cpus", [1, 2])
def test_masked_backproject_visits_pixels_tile_by_tile(cpus, monkeypatch, usable_cpus):
    # The masked points are visited by 16 px tiles (tile rows top to bottom,
    # tiles left to right, row-major inside a tile) and cut into runs of 50
    # points, which cut through tiles: each np.interp call reads x . theta
    # of one run at one angle, bit for bit.
    usable_cpus(cpus)
    monkeypatch.setattr(_util, "BLOCK_PIXELS", 50)
    g = Sinogram(HALF_SG, np.random.default_rng(7).standard_normal((61, 49)))
    mask = _mask(TILE_GRID.n)
    xs, _ = _interp_calls(monkeypatch)
    backproject(g, ONE, None, TILE_GRID, pixels=mask)
    r, c = np.nonzero(mask)
    order = sorted(range(r.size), key=lambda i: (r[i] // 16, c[i] // 16, r[i], c[i]))
    ax = TILE_GRID.axis()
    px, py = ax[c[order]], ax[r[order]]
    phis = HALF_SG.phis()[HALF_SG.phi_weights() != 0.0]
    want = [px[a:a + 50] * math.cos(phi) + py[a:a + 50] * math.sin(phi)
            for a in range(0, r.size, 50) for phi in phis]
    assert sorted(x.tobytes() for x in xs) == sorted(x.tobytes() for x in want)


def test_masked_backproject_memory_is_linear_in_the_mask(monkeypatch, usable_cpus):
    # n = 256 with a 5% mask: P = 3245 points.  Up to the first np.interp
    # call the output does not exist yet, and the call has held at most
    # 10.8-12.4 P float64 values (measured at 1 and 2 CPUs): the (4, P)
    # accumulators, the points' indices, order and coordinates.  An integer
    # array over every pixel (an order built on the whole image) adds 20 P.
    # The whole call holds 8.3-8.5 P beyond the (4, n^2) output it scatters.
    n = 256
    grid = ImageGrid(n, 1.2)
    sg = SinogramGrid(n_phi=91, n_s=2 * n + 1, s_max=1.8, phi0=0.0, phi1=math.pi)
    g = Sinogram(sg, np.random.default_rng(3).standard_normal((91, 2 * n + 1)))
    windows = [AngularWindow(math.pi / 4.0, 3.0 * math.pi / 4.0, "finite-order", k)
               for k in (1, 2, 3, 4)]
    mask = np.random.default_rng(4).random((n, n)) < 0.05
    plane = int(mask.sum()) * 8
    interp, before_loop = np.interp, []

    def spy(*args, **kwargs):
        if not before_loop:
            before_loop.append(tracemalloc.get_traced_memory()[1])
        return interp(*args, **kwargs)

    monkeypatch.setattr(np, "interp", spy)
    for cpus in (1, 2):
        usable_cpus(cpus)
        before_loop.clear()
        tracemalloc.start()
        try:
            backproject_windows(g, ONE, windows, grid, pixels=mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert before_loop[0] < 16 * plane
        assert peak - 4 * n * n * 8 < 10 * plane


def _shifted_full_circle(n_phi, shift):
    # A full circle that starts at shift > 0 lies outside the constructor's
    # [0, 2 pi] range, so it is set on a valid grid.
    sg = SinogramGrid(n_phi=n_phi, n_s=49, s_max=1.8)
    object.__setattr__(sg, "phi0", shift)
    object.__setattr__(sg, "phi1", shift + 2.0 * math.pi)
    return sg


@pytest.mark.parametrize("sg, n_complex, n_real", [
    (FOLD_SG, 13, 0),
    (_shifted_full_circle(48, 2.0 * math.pi / 48 / 4.0), 0, 24),
    (_shifted_full_circle(48, 1e-10), 0, 24),
], ids=["mirror-pairs", "quarter-step", "1e-10-off"])
def test_mirror_pairs_share_one_complex_interpolation(sg, n_complex, n_real, monkeypatch,
                                                      usable_cpus):
    # m = 24 folded angles: phi_i and pi - phi_i (i = 1..11 with 23..13) share
    # one complex interpolation; 0 and pi/2 have no partner and are complex
    # rows with a zero imaginary part.  A circle shifted by dphi / 4, or by
    # 1e-10 past the 1e-14 pairing tolerance, has no mirror pairs and keeps
    # real rows.  Four blocks of 6 rows (half the real block).
    usable_cpus(1)
    monkeypatch.setattr(_util, "BLOCK_PIXELS", 12 * 24)
    g = _fold_sinogram(sg)
    _, rows = _interp_calls(monkeypatch)
    img = backproject(g, ONE, None, FOLD_GRID).values
    blocks = 4 if n_complex else 2
    assert sum(np.iscomplexobj(r) for r in rows) == blocks * n_complex
    assert sum(not np.iscomplexobj(r) for r in rows) == blocks * n_real
    ref = _reference_backproject(g, ONE, None, FOLD_GRID)
    np.testing.assert_allclose(img, ref, rtol=1e-12, atol=1e-13 * np.abs(ref).max())
    if n_complex:
        assert not np.array_equal(img, ref)


@pytest.mark.parametrize("cpus", [1, 2])
def test_mirror_pairs_cover_every_folded_angle(cpus, monkeypatch, usable_cpus):
    # A circle shifted by dphi / 2: the m = 24 folded angles pair i with
    # 23 - i, so 12 complex rows hold them all and none has a zero
    # imaginary part.  Four blocks of 6 rows, taken by 1 or 2 workers.
    usable_cpus(cpus)
    monkeypatch.setattr(_util, "BLOCK_PIXELS", 12 * 24)
    g = _fold_sinogram(_shifted_full_circle(48, 2.0 * math.pi / 48 / 2.0))
    _, rows = _interp_calls(monkeypatch)
    img = backproject(g, ONE, None, FOLD_GRID).values
    assert len(rows) == 4 * 12
    assert all(np.iscomplexobj(r) and np.all(r.imag != 0.0) for r in rows)
    ref = _reference_backproject(g, ONE, None, FOLD_GRID)
    np.testing.assert_allclose(img, ref, rtol=1e-12, atol=1e-13 * np.abs(ref).max())
    assert not np.array_equal(img, ref)


def test_mirror_pairs_with_odd_m(monkeypatch):
    # n_phi = 46, m = 23: rows 1..11 pair with 22..12 and row 0 has no
    # partner: its complex row has a zero imaginary part.  Each folded row
    # carries its coefficient dphi c (c = 1).
    sg = SinogramGrid(n_phi=46, n_s=49, s_max=1.8)
    g = _fold_sinogram(sg)
    _, rows = _interp_calls(monkeypatch)
    img = backproject(g, ONE, None, FOLD_GRID).values
    v = g.values
    folded = (v[:23] + v[23:, ::-1]) * (sg.dphi * ONE.params[0])
    expected = [folded[i] + 1j * folded[23 - i] for i in range(1, 12)] + [folded[0] + 0j]
    assert len(rows) == len(expected)
    for got, want in zip(rows, expected):
        assert np.iscomplexobj(got)
        np.testing.assert_array_equal(got, want)
    ref = _reference_backproject(g, ONE, None, FOLD_GRID)
    np.testing.assert_allclose(img, ref, rtol=1e-12, atol=1e-13 * np.abs(ref).max())


def _complex_row(re, im=0.0):
    z = np.empty(re.shape, dtype=complex)
    z.real, z.imag = re, im
    return z


@pytest.mark.parametrize("sg, n_blocks", [
    (FOLD_SG, 4),
    (_shifted_full_circle(48, 2.0 * math.pi / 48 / 4.0), 2),
], ids=["mirror-pairs", "real-rows"])
def test_folded_rows_carry_the_coefficient(sg, n_blocks, monkeypatch, usable_cpus):
    # A constant weight c = 1.7 and two None windows on a full circle of 48
    # angles: every folded row, real or complex, is interpolated already
    # scaled by dphi c, once per block (complex rows take blocks of 6 of the
    # 24 image rows, real rows 12), and both windows get the same image at
    # 1 and 2 CPUs.
    c = 1.7
    nu = WeightFunction.constant(c)
    monkeypatch.setattr(_util, "BLOCK_PIXELS", 12 * 24)
    g = _fold_sinogram(sg)
    v = g.values
    folded = (v[:24] + v[24:, ::-1]) * (sg.dphi * c)
    if n_blocks == 4:
        # 1..11 pair with 23..13; 0 and 12 have no partner.
        want = [_complex_row(folded[i], folded[24 - i]) for i in range(1, 12)]
        want += [_complex_row(folded[i]) for i in (0, 12)]
    else:
        want = list(folded)
    ref = _reference_backproject(g, nu, None, FOLD_GRID)
    images = []
    for cpus in (1, 2):
        usable_cpus(cpus)
        _, rows = _interp_calls(monkeypatch)
        a, b = backproject_windows(g, nu, [None, None], FOLD_GRID)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_allclose(a.values, ref, rtol=1e-12, atol=1e-13 * np.abs(ref).max())
        assert sorted(r.tobytes() for r in rows) == sorted(w.tobytes() for w in want * n_blocks)
        images.append(a.values)
    np.testing.assert_array_equal(images[0], images[1])


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
def test_forward_raster_bitwise_equal_across_threads(mu, usable_cpus):
    grid = ImageGrid(48, 1.2)
    values = np.random.default_rng(5).normal(size=(48, 48))
    sg = SinogramGrid(n_phi=30, n_s=71, s_max=1.8)
    usable_cpus(1)
    one = forward(Raster(grid, values), mu, sg).values
    usable_cpus(2)
    two = forward(Raster(grid, values), mu, sg).values
    np.testing.assert_array_equal(one, two)


def test_thread_count_bounded_by_usable_cpus(monkeypatch, usable_cpus):
    assert _util.thread_count() == len(os.sched_getaffinity(0))
    usable_cpus(5)
    assert _util.thread_count() == 5
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert _util.thread_count() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _util.thread_count() == 1


def test_backproject_bands_stress_matches_reference(monkeypatch, usable_cpus):
    # Eight threads on eight blocks of three image rows, switching often:
    # a write outside a thread's own blocks would change the bits.
    usable_cpus(8)
    monkeypatch.setattr(_util, "BLOCK_PIXELS", 3 * 24)
    g = _fold_sinogram(SinogramGrid(n_phi=47, n_s=49, s_max=1.8))
    nu = WeightFunction.exponential(0.4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            np.testing.assert_array_equal(backproject(g, nu, None, FOLD_GRID).values,
                                          _reference_backproject(g, nu, None, FOLD_GRID))
    finally:
        sys.setswitchinterval(interval)


BLOCK_GRID = ImageGrid(37, 1.2)


@pytest.mark.parametrize("cpus", [1, 2, 8])
@pytest.mark.parametrize("nu", [ONE, WeightFunction.exponential(0.4), PARALLEL],
                         ids=["constant", "exponential", "parallel"])
def test_backproject_blocks_match_reference(cpus, nu, monkeypatch, usable_cpus):
    # Blocks of 5 rows on a 37-row image do not line up with its last row,
    # and 1, 2 or 8 threads take runs of 8, 4 or 1 of the 8 blocks: a block
    # that skips, repeats or overruns a row changes the bits.
    usable_cpus(1)
    folded = backproject(_fold_sinogram(), ONE, None, BLOCK_GRID).values
    usable_cpus(cpus)
    monkeypatch.setattr(_util, "BLOCK_PIXELS", 5 * 37)
    sg = SinogramGrid(n_phi=61, n_s=49, s_max=1.8, phi0=0.0, phi1=math.pi)
    g = Sinogram(sg, np.random.default_rng(7).standard_normal((61, 49)))
    windows = [None] + [AngularWindow(math.pi / 4.0, 3.0 * math.pi / 4.0,
                                      "finite-order", k) for k in (1, 2, 4)]
    for win, img in zip(windows, backproject_windows(g, nu, windows, BLOCK_GRID)):
        np.testing.assert_array_equal(img.values,
                                      _reference_backproject(g, nu, win, BLOCK_GRID))
        np.testing.assert_array_equal(img.values, backproject(g, nu, win, BLOCK_GRID).values)
    np.testing.assert_array_equal(
        backproject(_fold_sinogram(), ONE, None, BLOCK_GRID).values, folded)


def test_backproject_temporaries_are_block_sized(usable_cpus):
    # Beyond the (4, n^2) output, one worker holds about two block planes
    # at n = 256 with a constant weight: x . theta and the interpolated
    # row, or that row and the weighted row.  Image-wide temporaries would
    # add four more.  Two workers hold twice that.
    n = 256
    grid = ImageGrid(n, 1.2)
    sg = SinogramGrid(n_phi=91, n_s=2 * n + 1, s_max=1.8, phi0=0.0, phi1=math.pi)
    g = Sinogram(sg, np.random.default_rng(3).standard_normal((91, 2 * n + 1)))
    windows = [AngularWindow(math.pi / 4.0, 3.0 * math.pi / 4.0, "finite-order", k)
               for k in (1, 2, 3, 4)]
    plane = _util.BLOCK_PIXELS * 8
    for cpus in (1, 2):
        usable_cpus(cpus)
        tracemalloc.start()
        try:
            backproject_windows(g, ONE, windows, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 4 * n * n * 8 < cpus * 5 * plane


@pytest.mark.parametrize("nu, row_bytes", [(ONE, 8), (WeightFunction.exponential(0.3), 16)],
                         ids=["constant", "exponential"])
def test_folded_backproject_temporaries_are_block_sized(nu, row_bytes, usable_cpus):
    # The folded call holds the (n^2) output and the folded rows: for a
    # constant weight m real or about m / 2 complex rows of n_s values, and
    # per worker a half-block of x . theta, its complex interpolated plane
    # and the complex block accumulator the planes are added into: one
    # block's bytes each.  An exponential weight holds m complex rows and,
    # per worker on a half-block of rows, the complex planes of rows i and j
    # interpolated on one x . theta plane (freed before the weight is made),
    # the weight plane E, its reciprocal 1 / E, the product plane and the
    # mirror plane: 4.07 blocks' bytes per worker by tracemalloc.
    n, n_phi, n_s = 256, 180, 2 * 256 + 1
    grid = ImageGrid(n, 1.2)
    sg = SinogramGrid(n_phi=n_phi, n_s=n_s, s_max=1.8)
    g = Sinogram(sg, np.random.default_rng(3).standard_normal((n_phi, n_s)))
    plane = _util.BLOCK_PIXELS * 8
    for cpus in (1, 2):
        usable_cpus(cpus)
        tracemalloc.start()
        try:
            backproject(g, nu, None, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - n * n * 8 - n_phi // 2 * n_s * row_bytes < cpus * 5 * plane


def test_single_block_backprojects_in_calling_thread(monkeypatch, usable_cpus):
    # A grid of one block has one worker, whatever the CPU count: no pool.
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was made for a single block")

    usable_cpus(8)
    monkeypatch.setattr(_util, "ThreadPoolExecutor", no_pool)
    g = _fold_sinogram(SinogramGrid(n_phi=47, n_s=49, s_max=1.8))
    nu = WeightFunction.exponential(0.4)
    np.testing.assert_array_equal(backproject(g, nu, None, FOLD_GRID).values,
                                  _reference_backproject(g, nu, None, FOLD_GRID))
