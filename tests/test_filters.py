import math
import tracemalloc

import numpy as np
import pytest

from limitomo import (
    AngularWindow,
    Disk,
    ImageGrid,
    Phantom,
    ReconstructionConfig,
    Sinogram,
    SinogramGrid,
    WeightFunction,
    filter_chain,
    forward,
    hilbert,
    neg_d2_ds2,
    predicted_artifact_lines,
    rasterize,
    reconstruct,
)
from limitomo import _util, filters

ONE = WeightFunction.constant(1.0)
UNIT_DISK = Phantom((Disk((0.0, 0.0), 1.0, 1.0),))


def _tapered_rows(n_s=512, s_max=1.0, cycles=8):
    """Interior-supported band-limited rows: full-window Hann times a carrier.

    The taper's spectrum sits far below the carrier frequency, so the
    Hilbert transform acts on the carrier alone (H(w cos) = w sin).
    """
    grid = SinogramGrid(n_phi=2, n_s=n_s, s_max=s_max)
    s = grid.s_values()
    w = 0.5 * (1.0 + np.cos(math.pi * s / s_max))
    omega = cycles * (2.0 * math.pi / (2.0 * s_max))
    return grid, s, w, omega


INTERIOR = slice(51, 461)  # 10% margins of 512-sample rows


def test_hilbert_cosine_pair():
    grid, s, w, omega = _tapered_rows()
    row = w * np.cos(omega * s)
    g = Sinogram(grid, np.vstack([row, row]))
    hg = hilbert(g)
    target = w * np.sin(omega * s)
    assert np.abs(hg.values[0][INTERIOR] - target[INTERIOR]).max() < 1e-3


def test_hilbert_twice_is_negation():
    grid, s, w, omega = _tapered_rows()
    row = w * np.cos(omega * s)
    g = Sinogram(grid, np.vstack([row, row]))
    hh = hilbert(hilbert(g))
    assert np.abs(hh.values[0][INTERIOR] + row[INTERIOR]).max() < 1e-3


def test_hilbert_sign_convention():
    # analytic pair for the 1/(t - s) kernel: H(1/(1+s^2)) = t/(1+t^2)
    grid = SinogramGrid(n_phi=2, n_s=4096, s_max=40.0)
    s = grid.s_values()
    row = 1.0 / (1.0 + s * s)
    g = Sinogram(grid, np.vstack([row, row]))
    hg = hilbert(g, pad_factor=4)
    target = s / (1.0 + s * s)
    m = np.abs(s) <= 5.0
    assert np.abs(hg.values[0][m] - target[m]).max() < 1e-3


def test_hilbert_zero_row():
    grid = SinogramGrid(n_phi=2, n_s=64, s_max=1.0)
    g = Sinogram(grid, np.zeros((2, 64)))
    assert np.all(hilbert(g).values == 0.0)


def test_fused_ramp_equals_hilbert_then_derivative():
    grid = SinogramGrid(n_phi=3, n_s=256, s_max=1.0)
    rng = np.random.default_rng(5)
    g = Sinogram(grid, rng.normal(size=(3, 256)))
    fused = filter_chain(g, "ramp")
    chained = filter_chain(g, ("hilbert", "d_ds"))
    assert np.abs(fused.values - chained.values).max() < 1e-10


def test_sequential_calls_close_to_fused_on_smooth_rows():
    # separate hilbert/d_ds calls crop between stages, so they agree with
    # the fused multiplier only up to pad-leakage on smooth rows
    grid, s, w, omega = _tapered_rows()
    row = w * np.cos(omega * s)
    g = Sinogram(grid, np.vstack([row, row]))
    seq = hilbert(filter_chain(g, "d_ds"))
    fused = filter_chain(g, "ramp")
    assert np.abs(seq.values - fused.values).max() < 5e-3


def test_d_ds_spectral_matches_analytic_derivative():
    grid, s, w, omega = _tapered_rows()
    dw = -0.5 * math.pi / grid.s_max * np.sin(math.pi * s / grid.s_max)
    row = w * np.sin(omega * s)
    target = dw * np.sin(omega * s) + omega * w * np.cos(omega * s)
    g = Sinogram(grid, np.vstack([row, row]))
    out = filter_chain(g, "d_ds")
    assert np.abs(out.values[0][INTERIOR] - target[INTERIOR]).max() < 1e-3


def test_neg_d2_stencil_exact_on_quadratic():
    grid = SinogramGrid(n_phi=2, n_s=128, s_max=1.0)
    s = grid.s_values()
    g = Sinogram(grid, np.vstack([s * s, s * s]))
    out = neg_d2_ds2(g)
    np.testing.assert_allclose(out.values, -2.0, atol=1e-6)
    const = Sinogram(grid, np.full((2, 128), 1.2))
    np.testing.assert_allclose(neg_d2_ds2(const).values, 0.0, atol=1e-6)


def test_neg_d2_stencil_rejects_rows_below_three_samples():
    # A grid allows 2 samples a row; the stencil needs three.
    grid = SinogramGrid(n_phi=2, n_s=2, s_max=1.0)
    with pytest.raises(ValueError, match="at least 3 samples, got n_s = 2"):
        neg_d2_ds2(Sinogram(grid, np.ones((2, 2))))


@pytest.mark.parametrize("n_s", [3, 64])
def test_neg_d2_stencil_keeps_the_expression_bits(n_s):
    # The interior formed in place equals the whole-array expression bitwise,
    # on rows of both signs and magnitudes from 1e-300 to 1e300, mixed within
    # a row or one per row, so that the order of the additions shows; each
    # end repeats its neighbour's stencil.
    rng = np.random.default_rng(21)
    v = rng.standard_normal((40, n_s)) * 10.0 ** np.vstack(
        [rng.uniform(-300, 300, (20, n_s)), rng.uniform(-300, 300, (20, 1)).repeat(n_s, 1)])
    grid = SinogramGrid(n_phi=40, n_s=n_s, s_max=1.0)
    out = neg_d2_ds2(Sinogram(grid, v)).values
    ds2 = grid.ds ** 2
    want = -(v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]) / ds2
    np.testing.assert_array_equal(out[:, 1:-1].view(np.int64), want.view(np.int64))
    np.testing.assert_array_equal(out[:, [0, -1]].view(np.int64),
                                  want[:, [0, -1]].view(np.int64))


def test_neg_d2_stencil_holds_one_output_plane():
    # Beyond its input the stencil holds its output and two columns: at most
    # 1.1 output planes (the whole-array expression holds about 3).
    g = Sinogram(SinogramGrid(n_phi=720, n_s=768, s_max=1.7),
                 np.random.default_rng(6).standard_normal((720, 768)))
    tracemalloc.start()
    try:
        neg_d2_ds2(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * g.values.nbytes


def test_neg_d2_spectral_matches_analytic():
    grid, s, w, omega = _tapered_rows()
    dw = -0.5 * math.pi / grid.s_max * np.sin(math.pi * s / grid.s_max)
    d2w = -0.5 * (math.pi / grid.s_max) ** 2 * np.cos(math.pi * s / grid.s_max)
    row = w * np.cos(omega * s)
    d2 = (d2w * np.cos(omega * s) - 2.0 * dw * omega * np.sin(omega * s)
          - w * omega * omega * np.cos(omega * s))
    g = Sinogram(grid, np.vstack([row, row]))
    out = filter_chain(g, "neg_d2_ds2")
    assert np.abs(out.values[0][INTERIOR] + d2[INTERIOR]).max() < 1e-3


def test_config_validation():
    with pytest.raises(ValueError):
        ReconstructionConfig("C", ONE, ONE)


def test_reconstruct_zero_sinogram():
    sg = SinogramGrid(n_phi=60, n_s=65, s_max=1.8)
    grid = ImageGrid(32, 1.2)
    cfg = ReconstructionConfig("B", ONE, ONE)
    out = reconstruct(Sinogram(sg, np.zeros((60, 65))), cfg, grid)
    assert np.all(out.values == 0.0)


def test_reconstruct_linear_in_data():
    sg = SinogramGrid(n_phi=60, n_s=65, s_max=1.8)
    grid = ImageGrid(32, 1.2)
    cfg = ReconstructionConfig("Lambda", ONE, ONE)
    rng = np.random.default_rng(3)
    a = rng.normal(size=(60, 65))
    b = rng.normal(size=(60, 65))
    fa = reconstruct(Sinogram(sg, a), cfg, grid).values
    fb = reconstruct(Sinogram(sg, b), cfg, grid).values
    fab = reconstruct(Sinogram(sg, a + 2.0 * b), cfg, grid).values
    np.testing.assert_allclose(fab, fa + 2.0 * fb, atol=1e-9)


def test_reconstruct_requires_window_coverage():
    phi1, phi2 = math.pi / 4.0, 3.0 * math.pi / 4.0
    sg = SinogramGrid(n_phi=60, n_s=65, s_max=1.8, phi0=phi1 + 0.2, phi1=phi2 - 0.2)
    grid = ImageGrid(32, 1.2)
    win = AngularWindow(phi1, phi2, "finite-order", 1)
    cfg = ReconstructionConfig("B", ONE, ONE, window=win)
    with pytest.raises(ValueError, match="cover"):
        reconstruct(Sinogram(sg, np.zeros((60, 65))), cfg, grid)


def test_reconstruct_rejects_an_empty_window_list():
    sg = SinogramGrid(n_phi=16, n_s=65, s_max=1.8)
    cfg = ReconstructionConfig("B", ONE, ONE)
    with pytest.raises(ValueError, match="windows must be nonempty"):
        reconstruct(Sinogram(sg, np.zeros((16, 65))), cfg, ImageGrid(32, 1.2), windows=[])


def test_full_data_inversion_small():
    # spectral ramp path; generous s_max keeps the padded Hilbert tail
    # wrap-around small at the default pad_factor
    n, L = 256, 1.2
    grid = ImageGrid(n, L)
    s_max = 5.0
    n_s = int(round(2.0 * s_max / grid.h)) + 1
    sg = SinogramGrid(n_phi=720, n_s=n_s, s_max=s_max)
    g = forward(UNIT_DISK, ONE, sg)
    cfg = ReconstructionConfig("B", ONE, ONE)
    rec = reconstruct(g, cfg, grid)
    f = rasterize(UNIT_DISK, grid)
    mask = f.values > 0.5
    X, Y = grid.centers()
    interior = mask & (np.hypot(X, Y) < 1.0 - 2.0 * grid.h)
    rel = np.sqrt(np.sum((rec.values[interior] - 1.0) ** 2)
                  / np.sum(f.values[interior] ** 2))
    assert rel < 0.01


def test_lambda_ridge_localization():
    n, L = 256, 1.2
    grid = ImageGrid(n, L)
    s_max = math.sqrt(2.0) * L
    n_s = int(round(2.0 * s_max / grid.h)) + 1
    sg = SinogramGrid(n_phi=720, n_s=n_s, s_max=s_max)
    g = forward(UNIT_DISK, ONE, sg)
    cfg = ReconstructionConfig("Lambda", ONE, ONE)
    rec = reconstruct(g, cfg, grid)
    X, Y = grid.centers()
    r = np.hypot(X, Y)
    ridge_peak = np.abs(rec.values[np.abs(r - 1.0) <= 2.0 * grid.h]).max()
    interior_mean = np.abs(rec.values[r <= 0.8]).mean()
    assert interior_mean < 0.05 * ridge_peak


def test_infinite_order_cutoff_weakens_streaks():
    # same grids, k = 1 versus infinite-order cutoff: energy in the
    # predicted line tubes (away from the boundary and the generators)
    # must drop strictly
    phi1, phi2 = math.pi / 4.0, 3.0 * math.pi / 4.0
    n, L = 256, 1.5
    grid = ImageGrid(n, L)
    h = grid.h
    s_max = math.sqrt(2.0) * L
    sg = SinogramGrid(n_phi=181, n_s=int(round(2 * s_max / h)) + 1, s_max=s_max,
                      phi0=phi1, phi1=phi2)
    g = forward(UNIT_DISK, ONE, sg)
    X, Y = grid.centers()
    bdist = np.abs(np.hypot(X, Y) - 1.0)

    def line_energy(kind, k):
        win = AngularWindow(phi1, phi2, kind, k)
        cfg = ReconstructionConfig("Lambda", ONE, ONE, window=win)
        rec = reconstruct(g, cfg, grid)
        lines = predicted_artifact_lines(UNIT_DISK, win)
        ldist = np.min(np.stack([np.abs((X - ln.point[0]) * ln.normal[0]
                                        + (Y - ln.point[1]) * ln.normal[1])
                                 for ln in lines]), axis=0)
        gdist = np.min(np.stack([np.hypot(X - ln.point[0], Y - ln.point[1])
                                 for ln in lines]), axis=0)
        sel = (bdist > 24 * h) & (gdist > 24 * h) & (ldist <= 3 * h)
        return float((rec.values[sel] ** 2).sum())

    e_k1 = line_energy("finite-order", 1)
    e_inf = line_energy("infinite-order", 0)
    assert e_inf < e_k1


def test_filter_chain_rejects_bad_input():
    grid = SinogramGrid(n_phi=2, n_s=64, s_max=1.0)
    g = Sinogram(grid, np.zeros((2, 64)))
    with pytest.raises(ValueError):
        filter_chain(g, "ramp", pad_factor=1)
    with pytest.raises(ValueError):
        filter_chain(g, "sobel")


def _whole_array_filter(g, kinds, pad_factor):
    """The row filter as one transform of every row at once."""
    n_s = g.grid.n_s
    sigma = 2.0 * math.pi * np.fft.fftfreq(pad_factor * n_s, d=g.grid.ds)
    spec = np.fft.fft(g.values, n=pad_factor * n_s, axis=1)
    for kind in kinds:
        spec *= filters._multiplier(kind, sigma)
    return np.fft.ifft(spec, axis=1).real[:, :n_s]


BLOCK_SINOGRAM = Sinogram(SinogramGrid(n_phi=37, n_s=50, s_max=1.3),
                          np.random.default_rng(11).standard_normal((37, 50)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rows", [1, 5, 37], ids=["one-row", "five-rows", "whole"])
@pytest.mark.parametrize("pad_factor", [2, 3])
@pytest.mark.parametrize("kinds", [(kind,) for kind in filters.FILTER_KINDS]
                         + [("hilbert", "d_ds")], ids="-".join)
def test_filter_chain_blocks_match_whole_array(kinds, pad_factor, rows, monkeypatch):
    # Blocks of 5 rows do not divide the 37 rows; the FFT transforms each
    # row alone, so every block size gives the whole-array bits.
    monkeypatch.setattr(_util, "BLOCK_PIXELS", rows * pad_factor * 50)
    np.testing.assert_array_equal(filter_chain(BLOCK_SINOGRAM, kinds, pad_factor).values,
                                  _whole_array_filter(BLOCK_SINOGRAM, kinds, pad_factor))


def test_filter_chain_output_owns_its_data():
    # The cropped real part of the padded spectrum is a view of it, which
    # would keep a pad_factor-times larger complex buffer alive.
    g = BLOCK_SINOGRAM
    for kinds in [*filters.FILTER_KINDS, ("hilbert", "d_ds")]:
        v = filter_chain(g, kinds).values
        assert v.base is None or v.base.size <= g.values.size


@pytest.mark.parametrize("operator", ["B", "Lambda"])
def test_filtering_and_reconstruct_leave_the_sinogram_untouched(operator):
    g = Sinogram(SinogramGrid(n_phi=37, n_s=50, s_max=1.8, phi0=0.0, phi1=math.pi),
                 BLOCK_SINOGRAM.values.copy())
    kept = g.values.copy()
    for kinds in [*filters.FILTER_KINDS, ("hilbert", "d_ds")]:
        filter_chain(g, kinds, 3)
    win = AngularWindow(math.pi / 4.0, 3.0 * math.pi / 4.0, "finite-order", 2)
    cfg = ReconstructionConfig(operator, ONE, ONE, win)
    grid = ImageGrid(24, 1.2)
    single = reconstruct(g, cfg, grid)
    batched = reconstruct(g, cfg, grid, windows=[None, win])
    np.testing.assert_array_equal(g.values, kept)
    np.testing.assert_array_equal(batched[1].values, single.values)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("ks", [[None], [1, 2, 3]], ids=["none", "k1-3"])
@pytest.mark.parametrize("nu", [ONE, WeightFunction.exponential(0.3)], ids=["constant", "exp"])
@pytest.mark.parametrize("operator", ["B", "Lambda"])
def test_reconstruct_pixels_returns_the_full_image_values(operator, nu, ks, cpus, usable_cpus):
    # With pixels, reconstruct returns the (windows, P) values of the mask in
    # row-major order, bitwise the full images at np.flatnonzero(mask); one
    # window without windows= gives its (P,) row.  The half range never folds.
    usable_cpus(cpus)
    grid = ImageGrid(48, 1.2)
    sg = SinogramGrid(n_phi=31, n_s=97, s_max=1.8, phi0=0.5, phi1=2.6)
    g = Sinogram(sg, np.random.default_rng(8).standard_normal((31, 97)))
    wins = [None if k is None else AngularWindow(0.7, 2.4, "finite-order", k) for k in ks]
    cfg = ReconstructionConfig(operator, ONE, nu, wins[0])
    mask = np.random.default_rng(9).random((48, 48)) < 0.3
    mask[:20, :20] = True
    at = np.flatnonzero(mask)
    values = reconstruct(g, cfg, grid, windows=wins, pixels=mask)
    assert values.shape == (len(wins), at.size)
    for vals, full in zip(values, reconstruct(g, cfg, grid, windows=wins)):
        np.testing.assert_array_equal(vals.view(np.int64),
                                      full.values.reshape(-1)[at].view(np.int64))
    np.testing.assert_array_equal(reconstruct(g, cfg, grid, pixels=mask).view(np.int64),
                                  values[0].view(np.int64))


def test_filter_chain_temporaries_are_block_sized():
    # Beyond the 720 x 768 output, a block of 21 rows padded to 1536 is two
    # planes of BLOCK_PIXELS float64 values as complex128; the spectrum, its
    # inverse and the next block's spectrum make about six.  Transforming
    # every row at once holds two 17.7 MB complex arrays: 119 planes.
    g = Sinogram(SinogramGrid(n_phi=720, n_s=768, s_max=1.7),
                 np.random.default_rng(5).standard_normal((720, 768)))
    tracemalloc.start()
    try:
        filter_chain(g, "ramp")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 720 * 768 * 8 < 8 * _util.BLOCK_PIXELS * 8
