import math
import tracemalloc

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
    ReconstructionConfig,
    SinogramGrid,
    WavefrontProbe,
    WeightFunction,
    artifact_report,
    default_probe_scales,
    forward,
    predicted_artifact_lines,
    reconstruct,
    strength_vs_order_study,
    symbol_eval,
    wavefront_probe,
)
from limitomo import filters, microlocal
from limitomo.microlocal import StudyRow, write_report_csv

ONE = WeightFunction.constant(1.0)
UNIT_DISK = Phantom((Disk((0.0, 0.0), 1.0, 1.0),))
PHI1, PHI2 = math.pi / 4.0, 3.0 * math.pi / 4.0


def _cfg(operator="B", window=None):
    return ReconstructionConfig(operator, ONE, ONE, window=window)


def test_symbol_indicator_inside_window():
    win = AngularWindow(PHI1, PHI2, "indicator")
    cfg = _cfg("B", win)
    # direction strictly inside the arc; its antipode is outside (0, pi)
    xi = np.array([math.cos(math.pi / 2.0), math.sin(math.pi / 2.0)])
    assert symbol_eval(cfg, (0.2, -0.1), xi) == 0.5


def test_symbol_full_window_unit_weights():
    cfg = _cfg("B", None)
    assert symbol_eval(cfg, (0.0, 0.0), (0.3, 0.4)) == 1.0
    cfg_l = _cfg("Lambda", None)
    assert symbol_eval(cfg_l, (0.0, 0.0), (0.0, 3.0)) == 3.0


def test_symbol_homogeneity_exact():
    win = AngularWindow(PHI1, PHI2, "finite-order", 2)
    cfg_b = _cfg("B", win)
    cfg_l = _cfg("Lambda", win)
    x = (0.1, -0.2)
    rng = np.random.default_rng(2)
    for _ in range(25):
        xi = rng.normal(size=2)
        if xi[0] == 0.0 and xi[1] == 0.0:
            continue
        for t in (2.0, 0.5, 8.0):
            assert symbol_eval(cfg_b, x, t * xi) == symbol_eval(cfg_b, x, xi)
            assert symbol_eval(cfg_l, x, t * xi) == t * symbol_eval(cfg_l, x, xi)
        t = 3.0
        assert symbol_eval(cfg_b, x, t * xi) == pytest.approx(
            symbol_eval(cfg_b, x, xi), rel=1e-12)
        assert symbol_eval(cfg_l, x, t * xi) == pytest.approx(
            t * symbol_eval(cfg_l, x, xi), rel=1e-12)


def test_symbol_positive_on_visible_directions():
    mu = WeightFunction.exponential(0.3)
    nu = WeightFunction.constant(2.0)
    for kind, k in (("indicator", 0), ("finite-order", 1), ("finite-order", 3)):
        win = AngularWindow(PHI1, PHI2, kind, max(k, 1) if kind == "finite-order" else 0)
        for op in ("B", "Lambda"):
            cfg = ReconstructionConfig(op, mu, nu, window=win)
            psis = (np.arange(360) + 0.5) * (2.0 * math.pi / 360.0)
            for psi in psis:
                xi = np.array([math.cos(psi), math.sin(psi)])
                val = symbol_eval(cfg, (0.1, 0.3), xi)
                if win.contains_direction(psi):
                    assert val > 0.0
                else:
                    assert val >= 0.0


def test_symbol_rejects_zero_frequency():
    with pytest.raises(ValueError):
        symbol_eval(_cfg(), (0.0, 0.0), (0.0, 0.0))


def test_symbol_batched_equals_row_by_row():
    psis = (np.arange(360) + 0.5) * (2.0 * math.pi / 360.0)
    xi = 1.7 * np.stack([np.cos(psis), np.sin(psis)], axis=-1)
    x = (0.1, -0.2)
    win = AngularWindow(PHI1, PHI2, "finite-order", 2)
    mu = WeightFunction.exponential(0.3)
    for op in ("B", "Lambda"):
        for window, weight in ((None, ONE), (win, ONE), (win, mu)):
            cfg = ReconstructionConfig(op, weight, ONE, window=window)
            batched = symbol_eval(cfg, x, xi)
            assert batched.shape == (360,)
            rows = [symbol_eval(cfg, x, v) for v in xi]
            assert all(type(v) is float for v in rows)
            np.testing.assert_array_equal(batched, rows)
    zero_row = xi.copy()
    zero_row[17] = 0.0
    with pytest.raises(ValueError, match="nonzero"):
        symbol_eval(_cfg(), x, zero_row)
    with pytest.raises(ValueError, match=r"\(\.\.\., 2\)"):
        symbol_eval(_cfg(), x, np.ones((360, 3)))


def test_predicted_lines_unit_disk():
    win = AngularWindow(PHI1, PHI2, "finite-order", 1)
    lines = predicted_artifact_lines(UNIT_DISK, win)
    assert len(lines) == 4
    for ln in lines:
        e = win.boundary_direction(ln.j)
        # direction orthogonal to e_j (dot may pick up one FMA rounding)
        assert abs(float(ln.direction @ e)) < 1e-12
        # tangent to the unit circle: distance from the center equals radius
        dist = abs(float(ln.normal @ (np.zeros(2) - ln.point)))
        assert abs(dist - 1.0) < 1e-12


def test_predicted_lines_empty_phantom():
    win = AngularWindow(PHI1, PHI2)
    assert predicted_artifact_lines(Phantom(()), win) == []


def test_predicted_lines_offcenter_disk():
    win = AngularWindow(math.pi / 3.0, 2.0 * math.pi / 3.0)
    center = np.array([0.3, 0.0])
    ph = Phantom((Disk((0.3, 0.0), 0.45, 1.0),))
    lines = predicted_artifact_lines(ph, win)
    assert len(lines) == 4
    for ln in lines:
        dist = abs(float(ln.normal @ (center - ln.point)))
        assert abs(dist - 0.45) < 1e-12


def test_wavefront_probe_jump_calibration():
    # conormal jump decays like 1/|xi| along its normal: slope -1 +- 0.3
    n, L = 512, 1.3
    grid = ImageGrid(n, L)
    X, Y = grid.centers()
    jump = Raster(grid, (X < 0.0).astype(float))
    probe = WavefrontProbe((0.0, 0.0), (1.0, 0.0), 0.25, default_probe_scales(n))
    slope = wavefront_probe(jump, probe)
    assert -1.3 < slope < -0.7


def test_wavefront_probe_gaussian_fast_decay():
    n, L = 512, 1.3
    grid = ImageGrid(n, L)
    X, Y = grid.centers()
    img = Raster(grid, np.exp(-(X ** 2 + Y ** 2) / (2.0 * 0.05 ** 2)))
    probe = WavefrontProbe((0.0, 0.0), (1.0, 0.0), 0.25, default_probe_scales(n))
    assert wavefront_probe(img, probe) <= -4.0


def test_wavefront_probe_no_signal_sentinel():
    n, L = 256, 1.3
    grid = ImageGrid(n, L)
    img = Raster(grid, np.zeros((n, n)))
    probe = WavefrontProbe((0.0, 0.0), (1.0, 0.0), 0.25, default_probe_scales(n))
    assert math.isnan(wavefront_probe(img, probe))


def test_wavefront_probe_validation():
    n, L = 256, 1.3
    grid = ImageGrid(n, L)
    img = Raster(grid, np.zeros((n, n)))
    with pytest.raises(ValueError):
        WavefrontProbe((0.0, 0.0), (0.0, 0.0), 0.2, (8.0, 16.0))
    with pytest.raises(ValueError):
        WavefrontProbe((0.0, 0.0), (1.0, 0.0), 0.2, (8.0,))
    with pytest.raises(ValueError):
        WavefrontProbe((0.0, 0.0), (1.0, 0.0), 0.2, (16.0, 8.0))
    with pytest.raises(ValueError, match="4 pixels"):
        wavefront_probe(img, WavefrontProbe((0.0, 0.0), (1.0, 0.0), grid.h, (8.0, 16.0)))
    with pytest.raises(ValueError, match="leaves"):
        wavefront_probe(img, WavefrontProbe((1.2, 0.0), (1.0, 0.0), 0.3, (8.0, 16.0)))
    with pytest.raises(ValueError, match="Nyquist"):
        wavefront_probe(img, WavefrontProbe((0.0, 0.0), (1.0, 0.0), 0.3, (8.0, 200.0)))


def _limited_recon(n=256, n_phi=181, L=1.2, k=1, operator="Lambda"):
    grid = ImageGrid(n, L)
    s_max = math.sqrt(2.0) * L
    sg = SinogramGrid(n_phi=n_phi, n_s=int(round(2 * s_max / grid.h)) + 1,
                      s_max=s_max, phi0=PHI1, phi1=PHI2)
    win = AngularWindow(PHI1, PHI2, "finite-order", k)
    g = forward(UNIT_DISK, ONE, sg)
    cfg = ReconstructionConfig(operator, ONE, ONE, window=win)
    return reconstruct(g, cfg, grid), grid, win


def test_artifact_report_zero_recon():
    grid = ImageGrid(128, 1.2)
    win = AngularWindow(PHI1, PHI2, "finite-order", 1)
    rep = artifact_report(Raster(grid, np.zeros((128, 128))), UNIT_DISK, win,
                          4.0 * grid.h)
    assert len(rep.lines) == 4
    assert all(s == 0.0 for s in rep.per_line_strength)
    assert all(s == 0.0 for s in rep.edge_strengths)


def test_edge_strength_is_the_peak_over_visible_tube_pixels():
    # Spikes on a zero image: at a tube pixel whose nearest normal the window
    # sees, at a tube pixel whose normal it does not see, and 4 rows off the
    # first.  Only the first is on a visible edge, and it is read whole.
    grid = ImageGrid(64, 1.5)
    h, ax = grid.h, grid.axis()
    disk = UNIT_DISK.shapes[0]
    win = AngularWindow(PHI1, PHI2, "finite-order", 1)
    top, right = np.abs(ax - 1.0).argmin(), np.abs(ax - 0.0).argmin()
    spikes = {(top, right): -2.5, (right, top): 10.0, (top + 4, right): 20.0}
    values = np.zeros((64, 64))
    for (i, j), v in spikes.items():
        values[i, j] = v
    d = disk.boundary_distance(np.array([[ax[j], ax[i]] for i, j in spikes]))
    assert d[0] <= 3.0 * h and d[1] <= 3.0 * h and d[2] > 4.0 * h
    rep = artifact_report(Raster(grid, values), UNIT_DISK, win, 4.0 * grid.h)
    assert rep.edge_strengths == (2.5,)
    full = artifact_report(Raster(grid, values), UNIT_DISK, None, 4.0 * grid.h)
    assert full.edge_strengths == (10.0,)


def test_artifact_report_rejects_small_exclusion():
    grid = ImageGrid(128, 1.2)
    win = AngularWindow(PHI1, PHI2, "finite-order", 1)
    with pytest.raises(ValueError, match="2 pixels"):
        artifact_report(Raster(grid, np.zeros((128, 128))), UNIT_DISK, win,
                        1.5 * grid.h)


def test_artifact_report_limited_angle_positive_strengths():
    rec, grid, win = _limited_recon()
    rep = artifact_report(rec, UNIT_DISK, win, 4.0 * grid.h)
    assert len(rep.lines) == 4
    assert all(s > 0.0 for s in rep.per_line_strength)
    assert rep.max_edge_strength > 0.0
    assert rep.k == 1


MIRROR_PHANTOM = Phantom((Disk((0.0, 0.05), 0.8, 1.0),
                          Ellipse((0.4, 0.3), 0.25, 0.12, 0.5, 0.5),
                          Ellipse((-0.4, 0.3), 0.25, 0.12, math.pi - 0.5, 0.5)))


def test_artifact_report_mirror_lines_have_equal_strengths():
    # A phantom and window symmetric under x -> -x: each line and its mirror
    # image sample mirror-image points, so their strengths agree.
    phantom = MIRROR_PHANTOM
    grid = ImageGrid(128, 1.2)
    s_max = math.sqrt(2.0) * grid.extent
    sg = SinogramGrid(91, 2 * 128 + 1, s_max, PHI1, PHI2)
    win = AngularWindow(PHI1, PHI2, "finite-order", 1)
    cfg = ReconstructionConfig("Lambda", ONE, ONE, window=win)
    rep = artifact_report(reconstruct(forward(phantom, ONE, sg), cfg, grid), phantom, win,
                          4.0 * grid.h)
    by_line = {(round(ln.point[0], 9), round(ln.point[1], 9), ln.j): s
               for ln, s in zip(rep.lines, rep.per_line_strength)}
    assert len(by_line) == len(rep.lines) == 12
    for (x, y, j), s in by_line.items():
        assert s == pytest.approx(by_line[(round(-x, 9), y, 3 - j)], rel=1e-9)


def test_artifact_report_full_data_control():
    # full-data reconstruction measured against the window's predicted
    # lines: no limited-angle streaks
    n, L = 256, 1.2
    grid = ImageGrid(n, L)
    s_max = math.sqrt(2.0) * L
    sg = SinogramGrid(n_phi=720, n_s=int(round(2 * s_max / grid.h)) + 1, s_max=s_max)
    g = forward(UNIT_DISK, ONE, sg)
    rec = reconstruct(g, ReconstructionConfig("B", ONE, ONE), grid)
    win = AngularWindow(PHI1, PHI2, "finite-order", 1)
    rep = artifact_report(rec, UNIT_DISK, win, 4.0 * grid.h)
    assert rep.max_line_strength < 0.05 * rep.max_edge_strength


def test_study_validation():
    win = AngularWindow(PHI1, PHI2, "finite-order", 1)
    cfg = ReconstructionConfig("B", ONE, ONE, window=win)
    grid = ImageGrid(64, 1.2)
    sg = SinogramGrid(n_phi=31, n_s=65, s_max=1.8, phi0=PHI1, phi1=PHI2)
    with pytest.raises(ValueError, match="increasing"):
        strength_vs_order_study(UNIT_DISK, cfg, [2, 2], grid, sg)
    with pytest.raises(ValueError, match="nonempty"):
        strength_vs_order_study(UNIT_DISK, cfg, [], grid, sg)
    with pytest.raises(ValueError, match="window"):
        strength_vs_order_study(UNIT_DISK, ReconstructionConfig("B", ONE, ONE),
                                [1, 2], grid, sg)


def test_study_ratio_decreases_quick():
    n, L = 128, 1.5
    grid = ImageGrid(n, L)
    s_max = math.sqrt(2.0) * L
    sg = SinogramGrid(n_phi=91, n_s=int(round(2 * s_max / grid.h)) + 1,
                      s_max=s_max, phi0=PHI1, phi1=PHI2)
    win = AngularWindow(PHI1, PHI2, "finite-order", 1)
    for op in ("B", "Lambda"):
        cfg = ReconstructionConfig(op, ONE, ONE, window=win)
        rows = strength_vs_order_study(UNIT_DISK, cfg, [1, 2], grid, sg,
                                       exclusion_radius=12.0 * grid.h)
        assert rows[1].ratio < rows[0].ratio


def test_study_persists_reports(tmp_path):
    n, L = 128, 1.5
    grid = ImageGrid(n, L)
    s_max = math.sqrt(2.0) * L
    sg = SinogramGrid(n_phi=91, n_s=int(round(2 * s_max / grid.h)) + 1,
                      s_max=s_max, phi0=PHI1, phi1=PHI2)
    win = AngularWindow(PHI1, PHI2, "finite-order", 1)
    cfg = ReconstructionConfig("B", ONE, ONE, window=win)
    rows = strength_vs_order_study(UNIT_DISK, cfg, [1, 2], grid, sg,
                                   exclusion_radius=12.0 * grid.h,
                                   report_dir=tmp_path)
    assert (tmp_path / "report_k1.csv").exists()
    assert (tmp_path / "report_k2.csv").exists()
    import json

    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["k_list"] == [1, 2]
    assert summary["rows"][0]["ratio"] == pytest.approx(rows[0].ratio)
    header = (tmp_path / "report_k1.csv").read_text().splitlines()[0]
    assert header == "k,line_id,generator_x,generator_y,j,strength,edge_strength,ratio"


def _study_setup(n=64, n_phi=46, L=1.5):
    grid = ImageGrid(n, L)
    s_max = math.sqrt(2.0) * L
    sg = SinogramGrid(n_phi=n_phi, n_s=int(round(2 * s_max / grid.h)) + 1,
                      s_max=s_max, phi0=PHI1, phi1=PHI2)
    win = AngularWindow(PHI1, PHI2, "finite-order", 1)
    return grid, sg, win


@pytest.mark.parametrize("operator", ["B", "Lambda"])
def test_study_matches_per_k_reconstructions(tmp_path, operator):
    grid, sg, win = _study_setup()
    cfg = ReconstructionConfig(operator, ONE, WeightFunction.exponential(0.3),
                               window=win)
    ks = [1, 2, 3, 4]
    rows = strength_vs_order_study(UNIT_DISK, cfg, ks, grid, sg,
                                   report_dir=tmp_path / "study")
    g = forward(UNIT_DISK, ONE, sg)
    for k, row in zip(ks, rows):
        win_k = AngularWindow(PHI1, PHI2, "finite-order", k)
        single = ReconstructionConfig(operator, ONE, cfg.nu, window=win_k)
        rep = artifact_report(reconstruct(g, single, grid), UNIT_DISK, win_k,
                              4.0 * grid.h)
        edge, line = rep.max_edge_strength, rep.max_line_strength
        assert row == StudyRow(k, line, edge, line / edge)
        write_report_csv(rep, tmp_path / f"report_k{k}.csv")
        assert ((tmp_path / "study" / f"report_k{k}.csv").read_bytes()
                == (tmp_path / f"report_k{k}.csv").read_bytes())


REPORT_SHAPES = {
    "disk": Disk((0.05, 0.1), 0.7, 1.0),
    "ellipse": Ellipse((0.2, -0.1), 0.5, 0.25, 0.4, 1.0),
    "clipped-disk": ClippedDisk((0.0, 0.05), 0.7, (1.0, 0.0), 0.3, 1.0),
}


def _bits(values):
    return np.array(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("shape", list(REPORT_SHAPES.values()), ids=list(REPORT_SHAPES))
@pytest.mark.parametrize("operator", ["B", "Lambda"])
def test_report_pixels_cover_every_pixel_the_report_reads(operator, shape):
    # Every pixel outside the report's mask set to NaN: every line and edge
    # strength keeps its bits, with the window and without one.
    grid, sg, win = _study_setup(n=128, n_phi=91)
    phantom = Phantom((shape,))
    rec = reconstruct(forward(phantom, ONE, sg),
                      ReconstructionConfig(operator, ONE, ONE, window=win), grid)
    for window in (win, None):
        mask = microlocal._mask(grid, microlocal._report_sites(grid, phantom, window,
                                                               4.0 * grid.h))
        assert 0 < mask.sum() < mask.size // 4
        want = artifact_report(rec, phantom, window, 4.0 * grid.h)
        got = artifact_report(Raster(grid, np.where(mask, rec.values, np.nan)), phantom,
                              window, 4.0 * grid.h)
        assert len(want.lines) > 0 or window is None
        np.testing.assert_array_equal(_bits(got.per_line_strength),
                                      _bits(want.per_line_strength))
        np.testing.assert_array_equal(_bits(got.edge_strengths), _bits(want.edge_strengths))


def test_study_equals_full_image_reports(tmp_path, monkeypatch):
    # The study back-projects only the union of its windows' report masks;
    # its rows and report_k*.csv bytes equal those of the full images of one
    # batched reconstruction.
    grid, sg, win = _study_setup(n=128, n_phi=91)
    phantom = Phantom(tuple(REPORT_SHAPES.values()))
    cfg = ReconstructionConfig("Lambda", ONE, WeightFunction.exponential(0.3), window=win)
    ks = [1, 2, 3]
    wins = [AngularWindow(PHI1, PHI2, "finite-order", k) for k in ks]
    masks, original = [], microlocal.reconstruct

    def spy(*args, **kwargs):
        masks.append(kwargs["pixels"])
        return original(*args, **kwargs)

    monkeypatch.setattr(microlocal, "reconstruct", spy)
    rows = strength_vs_order_study(phantom, cfg, ks, grid, sg, report_dir=tmp_path / "study")
    union = np.logical_or.reduce([
        microlocal._mask(grid, microlocal._report_sites(grid, phantom, w, 4.0 * grid.h))
        for w in wins])
    assert len(masks) == 1 and union.sum() < union.size // 4
    np.testing.assert_array_equal(masks[0], union)
    full = original(forward(phantom, ONE, sg), cfg, grid, windows=wins)
    for k, win_k, rec, row in zip(ks, wins, full, rows):
        rep = artifact_report(rec, phantom, win_k, 4.0 * grid.h)
        edge, line = rep.max_edge_strength, rep.max_line_strength
        assert row == StudyRow(k, line, edge, line / edge)
        write_report_csv(rep, tmp_path / f"report_k{k}.csv")
        assert ((tmp_path / "study" / f"report_k{k}.csv").read_bytes()
                == (tmp_path / f"report_k{k}.csv").read_bytes())


def test_study_memory_grows_by_the_mask_values_per_order(usable_cpus):
    # Each order adds only its values on the mask's P pixels: nine more
    # orders raise the peak by less than 9 P float64 values plus one n^2
    # float64 image.  A full image per order adds 9 n^2.  Lambda's stencil
    # holds less than B's padded transforms, so the pass weighs more in the peak.
    usable_cpus(1)
    grid, sg, win = _study_setup(n=128, n_phi=91)
    cfg = ReconstructionConfig("Lambda", ONE, ONE, window=win)
    P = int(microlocal._mask(grid, microlocal._report_sites(grid, UNIT_DISK, win,
                                                            4.0 * grid.h)).sum())
    peaks = []
    for ks in (range(1, 4), range(1, 13)):
        tracemalloc.start()
        try:
            strength_vs_order_study(UNIT_DISK, cfg, ks, grid, sg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 9 * P * 8 + grid.n ** 2 * 8


def test_study_filters_the_sinogram_once(monkeypatch):
    grid, sg, win = _study_setup(n=32, n_phi=16)
    calls = []
    original = filters.apply_operator_filter

    def counting(g, cfg):
        calls.append(g)
        return original(g, cfg)

    monkeypatch.setattr(filters, "apply_operator_filter", counting)
    rows = strength_vs_order_study(UNIT_DISK, ReconstructionConfig("B", ONE, ONE, window=win),
                                   [1, 2, 3], grid, sg)
    assert len(rows) == 3
    assert len(calls) == 1


def test_study_samples_its_report_geometry_once(monkeypatch):
    # The windows differ only in k, so the lines, their samples and the
    # tubes are sampled once for the pixel mask and every report.
    grid, sg, win = _study_setup(n=64, n_phi=46)
    phantom = Phantom(tuple(REPORT_SHAPES.values()))
    calls = {"_line_samples": 0, "_visible_tubes": 0}
    for name in calls:
        original = getattr(microlocal, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(microlocal, name, counting)
    cfg = ReconstructionConfig("Lambda", ONE, ONE, window=win)
    rows = strength_vs_order_study(phantom, cfg, [1, 2, 3, 4], grid, sg)
    assert len(rows) == 4
    assert calls == {"_line_samples": 1, "_visible_tubes": 1}


def test_line_with_every_sample_dropped_reads_zero():
    # An exclusion radius of 4 L drops every sample of every line, so each
    # line reads exactly 0.0 on a non-zero image, and only the tubes are read.
    rec, grid, win = _limited_recon(n=128, n_phi=91)
    radius = 4.0 * grid.extent
    rep = artifact_report(rec, UNIT_DISK, win, radius)
    assert rep.per_line_strength == (0.0,) * 4
    assert all(s > 0.0 for s in rep.edge_strengths)
    assert rep.metadata["exclusion_radius"] == radius
    tubes = np.zeros((grid.n, grid.n), dtype=bool)
    for rows, cols in microlocal._visible_tubes(grid, UNIT_DISK, win):
        tubes[rows, cols] = True
    mask = microlocal._mask(grid, microlocal._report_sites(grid, UNIT_DISK, win, radius))
    np.testing.assert_array_equal(mask, tubes)


def _reference_line_strengths(recon, phantom, window, exclusion_radius):
    # Each line on its own, on the documented offsets t = h (-m..m) with
    # m = ceil(sqrt(2) L / h) and the documented drop rules, plus the distance
    # to the generator that they imply, sampled by scipy.
    from scipy.ndimage import map_coordinates

    h, L = recon.grid.h, recon.grid.extent
    m = math.ceil(math.sqrt(2.0) * L / h)
    t = h * np.arange(-m, m + 1)
    strengths = []
    for line in predicted_artifact_lines(phantom, window):
        pts = line.point + t[:, None] * line.direction
        keep = ((phantom.boundary_distance(pts) >= exclusion_radius)
                & (np.abs(pts[:, 0]) <= L - h) & (np.abs(pts[:, 1]) <= L - h)
                & (np.hypot(pts[:, 0] - line.point[0], pts[:, 1] - line.point[1])
                   >= exclusion_radius))
        rows, cols = (pts[keep, 1] + L) / h - 0.5, (pts[keep, 0] + L) / h - 0.5
        vals = map_coordinates(recon.values, [rows, cols], order=1, mode="constant")
        strengths.append(float(np.abs(vals).max()) if vals.size else 0.0)
    return strengths


REFERENCE_PHANTOMS = {**{name: Phantom((shape,)) for name, shape in REPORT_SHAPES.items()},
                      "mirror": MIRROR_PHANTOM}


@pytest.mark.parametrize("phantom", list(REFERENCE_PHANTOMS.values()),
                         ids=list(REFERENCE_PHANTOMS))
@pytest.mark.parametrize("n", [64, 101, 256])
def test_boundary_rule_drops_every_point_near_the_generator(n, phantom):
    # Every generator lies on the phantom boundary, so a point within the
    # exclusion radius of its line's generator is within it of the boundary:
    # adding the generator-distance rule drops nothing more.
    grid, _, win = _study_setup(n=n)
    for radius in (2.0 * grid.h, 4.0 * grid.h, 8.0 * grid.h):
        lines, points, keep = microlocal._line_samples(grid, phantom, win, radius)
        assert len(lines) > 0 and keep.any()
        base = np.array([ln.point for ln in lines])[:, None, :]
        old = ((phantom.boundary_distance(points) >= radius)
               & (np.abs(points[..., 0]) <= grid.extent - grid.h)
               & (np.abs(points[..., 1]) <= grid.extent - grid.h)
               & (np.hypot(points[..., 0] - base[..., 0], points[..., 1] - base[..., 1])
                  >= radius))
        np.testing.assert_array_equal(keep, old)


@pytest.mark.parametrize("phantom", list(REFERENCE_PHANTOMS.values()),
                         ids=list(REFERENCE_PHANTOMS))
@pytest.mark.parametrize("n", [128, 101])
def test_line_strengths_match_a_per_line_reference_bitwise(n, phantom):
    grid, sg, win = _study_setup(n=n, n_phi=91)
    rec = reconstruct(forward(phantom, ONE, sg),
                      ReconstructionConfig("Lambda", ONE, ONE, window=win), grid)
    rep = artifact_report(rec, phantom, win, 4.0 * grid.h)
    assert len(rep.lines) > 0
    np.testing.assert_array_equal(_bits(rep.per_line_strength),
                                  _bits(_reference_line_strengths(rec, phantom, win,
                                                                  4.0 * grid.h)))


def test_report_csv_roundtrip(tmp_path):
    rec, grid, win = _limited_recon(n=128, n_phi=91)
    rep = artifact_report(rec, UNIT_DISK, win, 4.0 * grid.h)
    path = tmp_path / "report.csv"
    write_report_csv(rep, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + len(rep.lines)
    first = lines[1].split(",")
    assert int(first[0]) == 1  # k column
    assert float(first[5]) == pytest.approx(rep.per_line_strength[0])


def test_visibility_contrast_with_infinite_order_cutoff():
    # invisible boundary point (normal outside the window, off the lines)
    # decays at least one order faster than a visible point
    n, L = 512, 1.3
    grid = ImageGrid(n, L)
    s_max = math.sqrt(2.0) * L
    sg = SinogramGrid(n_phi=361, n_s=int(round(2 * s_max / grid.h)) + 1,
                      s_max=s_max, phi0=PHI1, phi1=PHI2)
    g = forward(UNIT_DISK, ONE, sg)
    win = AngularWindow(PHI1, PHI2, "infinite-order")
    cfg = ReconstructionConfig("Lambda", ONE, ONE, window=win)
    rec = reconstruct(g, cfg, grid)
    scales = default_probe_scales(n)
    visible = wavefront_probe(rec, WavefrontProbe((0.0, 1.0), (0.0, 1.0), 0.2, scales))
    invisible = wavefront_probe(rec, WavefrontProbe((1.0, 0.0), (1.0, 0.0), 0.2, scales))
    assert invisible <= visible - 1.0


def _sampler_points(case, shape, rng):
    n0, n1 = shape
    if case == "interior":
        return rng.uniform(0, n0 - 1, 50000), rng.uniform(0, n1 - 1, 50000)
    if case == "grid-edges":
        # every integer coordinate, with 0 and n - 1 in both axes
        r, c = np.meshgrid(np.arange(n0, dtype=float),
                           np.concatenate([np.arange(n1, dtype=float),
                                           rng.uniform(0, n1 - 1, 7)]), indexing="ij")
        return r.ravel(), c.ravel()
    # just outside each edge, the other coordinate inside
    out = np.array([-1e-12, -1e-6, -0.5, -1.0])
    r = np.concatenate([out, n0 - 1 - out, np.full(8, 0.37 * (n0 - 1))])
    c = np.concatenate([np.full(8, 0.61 * (n1 - 1)), out, n1 - 1 - out])
    return r, c


@pytest.mark.parametrize("case", ["interior", "grid-edges", "outside"])
def test_bilinear_sampler_matches_map_coordinates_bitwise(case):
    from scipy.ndimage import map_coordinates

    from limitomo.microlocal import _bilinear

    rng = np.random.default_rng(11)
    values = rng.normal(size=(37, 53))
    rows, cols = _sampler_points(case, values.shape, rng)
    got = _bilinear(values, rows, cols)
    want = map_coordinates(values, [rows, cols], order=1, mode="constant")
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    if case == "outside":
        assert np.all(got == 0.0)
