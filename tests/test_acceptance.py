"""Acceptance suite: one test per numbered criterion, printed pass lines.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
summary lines.  Grid parameters not pinned by a criterion (image extent,
offset range, angular counts for the limited-angle runs) are frozen here
at the values calibrated during development.
"""

import math
import time

import numpy as np
from scipy.ndimage import binary_erosion

from limitomo import (
    AngularWindow,
    Disk,
    Ellipse,
    ImageGrid,
    Phantom,
    Raster,
    ReconstructionConfig,
    Sinogram,
    SinogramGrid,
    WavefrontProbe,
    WeightFunction,
    backproject,
    default_probe_scales,
    filter_chain,
    forward,
    hilbert,
    predicted_artifact_lines,
    rasterize,
    reconstruct,
    strength_vs_order_study,
    symbol_eval,
    vanishing_order_probe,
    wavefront_probe,
)
from limitomo.cli import main as cli_main

ONE = WeightFunction.constant(1.0)
UNIT_DISK = Phantom((Disk((0.0, 0.0), 1.0, 1.0),))
PHI1, PHI2 = math.pi / 4.0, 3.0 * math.pi / 4.0


def _report(line: str) -> None:
    print(line, flush=True)


def _fbp_error(n: int, n_phi: int) -> float:
    L = 1.2
    grid = ImageGrid(n, L)
    s_max = 5.0  # generous range keeps the padded Hilbert tail wrap small
    sg = SinogramGrid(n_phi=n_phi, n_s=int(round(2 * s_max / grid.h)) + 1,
                      s_max=s_max)
    g = forward(UNIT_DISK, ONE, sg)
    cfg = ReconstructionConfig("B", ONE, ONE, window=None)
    rec = reconstruct(g, cfg, grid)
    f = rasterize(UNIT_DISK, grid)
    interior = binary_erosion(f.values > 0.5, iterations=2)
    return float(np.sqrt(np.sum((rec.values[interior] - f.values[interior]) ** 2)
                         / np.sum(f.values[interior] ** 2)))


def test_criterion_1_exact_inversion():
    t0 = time.time()
    err_512 = _fbp_error(512, 720)
    err_256 = _fbp_error(256, 720)
    elapsed = time.time() - t0
    _report(f"criterion 1: rel L2 error {err_512:.5f} at n=512 "
            f"(n=256: {err_256:.5f}), runtime {elapsed:.1f}s")
    assert err_512 < 0.05
    assert err_512 < err_256  # halving h reduces the error
    assert elapsed < 60.0
    _report("[PASS] criterion 1: exact inversion, full data")


def test_criterion_2_hilbert_oracle():
    grid = SinogramGrid(n_phi=2, n_s=512, s_max=1.0)
    s = grid.s_values()
    w = 0.5 * (1.0 + np.cos(math.pi * s / grid.s_max))
    omega = 8.0 * (2.0 * math.pi / (2.0 * grid.s_max))
    row = w * np.cos(omega * s)
    g = Sinogram(grid, np.vstack([row, row]))
    interior = slice(51, 461)

    hg = hilbert(g, pad_factor=2)
    err_pair = np.abs(hg.values[0][interior] - (w * np.sin(omega * s))[interior]).max()
    err_twice = np.abs(hilbert(hg).values[0][interior] + row[interior]).max()

    rng = np.random.default_rng(12)
    gr = Sinogram(grid, rng.normal(size=(2, 512)))
    err_fused = np.abs(filter_chain(gr, "ramp").values
                       - filter_chain(gr, ("hilbert", "d_ds")).values).max()
    _report(f"criterion 2: H pair {err_pair:.2e}, H^2 {err_twice:.2e}, "
            f"fused {err_fused:.2e}")
    assert err_pair < 1e-3
    assert err_twice < 1e-3
    assert err_fused < 1e-10
    _report("[PASS] criterion 2: Hilbert oracle")


def test_criterion_3_cutoff_vanishing_order():
    h_list = np.array([1e-2, 1e-3, 1e-4]) * (PHI2 - PHI1)
    devs = []
    for k in (1, 2, 3, 4):
        win = AngularWindow(PHI1, PHI2, "finite-order", k)
        for side in ("left", "right"):
            devs.append(abs(vanishing_order_probe(win, side, h_list) - k))
    _report(f"criterion 3: max |slope - k| = {max(devs):.4f} over k=1..4")
    assert max(devs) < 0.05
    _report("[PASS] criterion 3: cutoff vanishing order")


def test_criterion_4_symbol_properties():
    win = AngularWindow(PHI1, PHI2, "finite-order", 2)
    mu = WeightFunction.exponential(0.25)
    nu = WeightFunction.constant(1.5)
    cfg_b = ReconstructionConfig("B", mu, nu, window=win)
    cfg_l = ReconstructionConfig("Lambda", mu, nu, window=win)
    x = (0.15, -0.25)
    psis = (np.arange(360) + 0.5) * (2.0 * math.pi / 360.0)
    n_visible = 0
    for psi in psis:
        xi = np.array([math.cos(psi), math.sin(psi)])
        sb, sl = symbol_eval(cfg_b, x, xi), symbol_eval(cfg_l, x, xi)
        for t in (2.0, 0.5, 8.0):
            assert symbol_eval(cfg_b, x, t * xi) == sb          # degree 0, exact
            assert symbol_eval(cfg_l, x, t * xi) == t * sl      # degree 1, exact
        if win.contains_direction(psi):
            n_visible += 1
            assert sb > 0.0
            assert sl > 0.0
    _report(f"criterion 4: homogeneity exact; positivity on {n_visible} "
            "visible directions of 360")
    assert n_visible == 180
    _report("[PASS] criterion 4: symbol properties")


def test_criterion_5_artifact_geometry():
    n, L, n_phi = 512, 1.2, 361
    grid = ImageGrid(n, L)
    h = grid.h
    s_max = math.sqrt(2.0) * L
    sg = SinogramGrid(n_phi=n_phi, n_s=int(round(2 * s_max / h)) + 1,
                      s_max=s_max, phi0=PHI1, phi1=PHI2)
    win = AngularWindow(PHI1, PHI2, "finite-order", 1)
    g = forward(UNIT_DISK, ONE, sg)
    cfg = ReconstructionConfig("Lambda", ONE, ONE, window=win)
    rec = reconstruct(g, cfg, grid)

    X, Y = grid.centers()
    boundary_dist = np.abs(np.hypot(X, Y) - 1.0)
    lines = predicted_artifact_lines(UNIT_DISK, win)
    assert len(lines) == 4
    line_dist = np.min(np.stack([np.abs((X - ln.point[0]) * ln.normal[0]
                                        + (Y - ln.point[1]) * ln.normal[1])
                                 for ln in lines]), axis=0)
    energy = rec.values ** 2
    outside = boundary_dist > 3.0 * h
    contained = energy[outside & (line_dist <= 3.0 * h)].sum() / energy[outside].sum()
    _report(f"criterion 5: achieved containment {contained:.1%} "
            f"(3-pixel tubes, n={n}, n_phi={n_phi})")
    dist, normal = UNIT_DISK.shapes[0].boundary_distance(np.stack([X, Y], axis=-1), normal=True)
    visible = win.contains_direction(np.arctan2(normal[..., 1], normal[..., 0]))
    near = dist <= 12.0 * h

    def share(sel):
        return energy[outside & sel].sum() / energy[outside].sum()

    _report(f"criterion 5: counted energy by boundary distance: 3-6 px "
            f"{share(dist <= 6.0 * h):.1%}, 6-12 px {share((dist > 6.0 * h) & near):.1%}, "
            f">12 px {share(~near):.1%}; within 12 px of visible arcs "
            f"{share(near & visible):.1%}, of invisible arcs {share(near & ~visible):.1%}")
    # The smooth part of the limited-angle normal operator (interior halo
    # and edge skirt) dominates the raw pixel energy at every feasible
    # resolution, so the stated 90% is not reachable with plain energy in
    # 3-pixel tubes; the achieved percentage is recorded above and the
    # stated threshold is asserted as specified.
    assert contained >= 0.90
    _report("[PASS] criterion 5: artifact geometry containment")


def test_criterion_6_visible_vs_invisible():
    n, L = 512, 1.3
    grid = ImageGrid(n, L)
    scales = default_probe_scales(n)

    # probe calibration on a synthetic straight jump
    X, Y = grid.centers()
    jump = Raster(grid, (X < 0.0).astype(float))
    cal = wavefront_probe(jump, WavefrontProbe((0.0, 0.0), (1.0, 0.0), 0.25, scales))
    assert -1.3 < cal < -0.7

    s_max = math.sqrt(2.0) * L
    sg = SinogramGrid(n_phi=361, n_s=int(round(2 * s_max / grid.h)) + 1,
                      s_max=s_max, phi0=PHI1, phi1=PHI2)
    g = forward(UNIT_DISK, ONE, sg)
    win = AngularWindow(PHI1, PHI2, "infinite-order")
    cfg = ReconstructionConfig("Lambda", ONE, ONE, window=win)
    rec = reconstruct(g, cfg, grid)
    visible = wavefront_probe(rec, WavefrontProbe((0.0, 1.0), (0.0, 1.0), 0.2, scales))
    invisible = wavefront_probe(rec, WavefrontProbe((1.0, 0.0), (1.0, 0.0), 0.2, scales))
    _report(f"criterion 6: jump calibration {cal:.2f}; visible {visible:.2f}, "
            f"invisible {invisible:.2f}, separation {visible - invisible:.2f}")
    assert invisible <= visible - 1.0
    _report("[PASS] criterion 6: visible vs invisible singularities")


def test_criterion_7_strength_vs_order():
    n, L, n_phi = 256, 1.5, 181
    grid = ImageGrid(n, L)
    s_max = math.sqrt(2.0) * L
    sg = SinogramGrid(n_phi=n_phi, n_s=int(round(2 * s_max / grid.h)) + 1,
                      s_max=s_max, phi0=PHI1, phi1=PHI2)
    win = AngularWindow(PHI1, PHI2, "finite-order", 1)
    for op in ("B", "Lambda"):
        cfg = ReconstructionConfig(op, ONE, ONE, window=win)
        rows = strength_vs_order_study(UNIT_DISK, cfg, [1, 2, 3, 4], grid, sg,
                                       exclusion_radius=24.0 * grid.h)
        ratios = [r.ratio for r in rows]
        _report(f"criterion 7 ({op}): ratios " +
                " ".join(f"{r:.4f}" for r in ratios))
        assert all(b < a for a, b in zip(ratios[:-1], ratios[1:])), op
    _report("[PASS] criterion 7: artifact-to-edge ratio decreases in k")


def test_criterion_8_adjointness():
    n, L = 256, 1.2
    grid = ImageGrid(n, L)
    sg = SinogramGrid(n_phi=720, n_s=364, s_max=1.8)
    mu = WeightFunction.exponential(0.3)
    phantoms = (
        UNIT_DISK,
        Phantom((Disk((-0.3, 0.2), 0.55, 1.0),
                 Ellipse((0.35, -0.25), 0.45, 0.25, 0.5, 0.75))),
    )
    phis, s = sg.phis(), sg.s_values()
    worst = 0.0
    for phantom in phantoms:
        f = rasterize(phantom, grid)
        Rf = forward(f, mu, sg)
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            gv = np.zeros((sg.n_phi, sg.n_s))
            for _ in range(4):
                a, b = rng.normal(), rng.normal()
                m = int(rng.integers(0, 4))
                s0 = rng.uniform(-0.8, 0.8)
                sig = rng.uniform(0.15, 0.4)
                gv += ((a * np.cos(m * phis) + b * np.sin(m * phis))[:, None]
                       * np.exp(-(s - s0) ** 2 / (2.0 * sig ** 2))[None, :])
            g = Sinogram(sg, gv)
            lhs = np.sum(Rf.values * g.values
                         * sg.phi_weights()[:, None] * sg.s_weights()[None, :])
            rhs = np.sum(f.values * backproject(g, mu, None, grid).values) * grid.h ** 2
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    _report(f"criterion 8: worst duality mismatch {worst:.2e} over 6 pairings")
    assert worst < 0.01
    _report("[PASS] criterion 8: forward/back-projection duality")


def test_criterion_9_determinism_selftest(tmp_path, capsys):
    rc = cli_main(["selftest", "--out-dir", str(tmp_path / "selftest")])
    out = capsys.readouterr().out
    with capsys.disabled():
        _report("criterion 9: selftest output:")
        for line in out.strip().splitlines():
            _report("  " + line)
    assert rc == 0
    assert "[PASS] determinism" in out
    _report("[PASS] criterion 9: determinism selftest")
