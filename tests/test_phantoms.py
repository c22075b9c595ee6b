import importlib.util
import math
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from limitomo import (
    AngularWindow,
    ClippedDisk,
    Disk,
    Ellipse,
    ImageGrid,
    Phantom,
    Raster,
    WeightFunction,
    artifact_report,
    edge_singularities,
    rasterize,
)
from limitomo import _util
from limitomo.geometry import theta, theta_perp
from limitomo.microlocal import _visible_tubes
from limitomo.phantoms import analytic_sinogram_row

ONE = WeightFunction.constant(1.0)
DISK = Disk((0.25, -0.1), 0.8, 1.5)
ELLIPSE = Ellipse((0.2, 0.15), 0.7, 0.35, 0.6, 2.0)
CLIPPED = ClippedDisk((0.1, -0.05), 0.9, (0.6, 0.8), 0.2, 1.0)
# Lines that cut all three shapes; the first is cut short by CLIPPED's clip line.
LINES = ((0.3, 0.2), (1.2, -0.1), (2.9, 0.1))
# Smooth, strictly positive, not separable along the line.
SMOOTH = WeightFunction(
    lambda x, phi: 1.0 + 0.5 * np.sin(2.0 * x[..., 0]) * np.cos(x[..., 1] + phi)
    + 0.2 * x[..., 0] ** 2)


def brute_line_integral(phantom, weight, phi, s, n_t=200001, t_max=4.0):
    """Independent oracle: dense trapezoid sampling of the weighted indicator."""
    t = np.linspace(-t_max, t_max, n_t)
    pts = s * theta(phi) + t[:, None] * theta_perp(phi)
    vals = phantom.evaluate(pts) * weight(pts, phi)
    return np.trapezoid(vals, t)


def test_disk_chord_values():
    ph = Phantom((Disk((0.0, 0.0), 1.0, 1.0),))
    assert analytic_sinogram_row(ph, ONE, 0.7, [0.0])[0] == pytest.approx(2.0, abs=1e-12)
    assert analytic_sinogram_row(ph, ONE, 1.3, [0.6])[0] == pytest.approx(1.6, abs=1e-12)
    assert analytic_sinogram_row(ph, ONE, 0.2, [1.2])[0] == 0.0
    assert analytic_sinogram_row(ph, ONE, 0.2, [1.0])[0] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("phi,s", [(0.3, 0.2), (1.2, -0.5), (2.9, 0.75)])
def test_disk_chord_matches_brute_force(phi, s):
    ph = Phantom((DISK,))
    exact = analytic_sinogram_row(ph, ONE, phi, [s])[0]
    brute = brute_line_integral(ph, ONE, phi, s)
    assert exact == pytest.approx(brute, abs=2e-4)


@pytest.mark.parametrize("phi,s", [(0.0, 0.1), (0.9, -0.3), (2.2, 0.4), (1.5708, 0.0)])
def test_ellipse_chord_matches_brute_force(phi, s):
    ph = Phantom((ELLIPSE,))
    exact = analytic_sinogram_row(ph, ONE, phi, [s])[0]
    brute = brute_line_integral(ph, ONE, phi, s)
    assert exact == pytest.approx(brute, abs=2e-4)


@pytest.mark.parametrize("phi,s", [(0.2, 0.0), (1.0, 0.3), (2.5, -0.2), (0.7854, 0.5)])
def test_clipped_disk_chord_matches_brute_force(phi, s):
    ph = Phantom((CLIPPED,))
    exact = analytic_sinogram_row(ph, ONE, phi, [s])[0]
    brute = brute_line_integral(ph, ONE, phi, s)
    assert exact == pytest.approx(brute, abs=2e-4)


def test_weighted_line_integral_matches_brute_force():
    mu = WeightFunction.exponential(0.4)
    ph = Phantom((Disk((0.0, 0.2), 0.7, 1.0), Ellipse((-0.2, -0.3), 0.5, 0.3, 1.1, 0.5)))
    for phi, s in ((0.4, 0.1), (1.7, -0.25), (2.9, 0.5)):
        exact = analytic_sinogram_row(ph, mu, phi, [s])[0]
        brute = brute_line_integral(ph, mu, phi, s, n_t=800001)
        assert exact == pytest.approx(brute, abs=1e-5)


@pytest.mark.parametrize("lam", [-3.0, 0.3, 3.0])
@pytest.mark.parametrize("shape", [DISK, ELLIPSE, CLIPPED], ids=["disk", "ellipse", "clipped"])
def test_exponential_weights_match_closed_form(shape, lam):
    # on x(t) = s theta + t theta_perp: x . theta_perp = t and x . theta = s
    ph = Phantom((shape,))
    perp = WeightFunction.exponential(lam, "perp")
    parallel = WeightFunction.exponential(lam, "parallel")
    for phi, s in LINES:
        t0, t1 = (float(v) for v in shape.chord_interval(phi, s))
        assert t1 > t0
        want_perp = shape.density * (math.exp(lam * t1) - math.exp(lam * t0)) / lam
        want_parallel = shape.density * math.exp(lam * s) * (t1 - t0)
        assert analytic_sinogram_row(ph, perp, phi, [s])[0] == pytest.approx(want_perp,
                                                                            rel=1e-12)
        assert analytic_sinogram_row(ph, parallel, phi, [s])[0] == pytest.approx(want_parallel,
                                                                                rel=1e-12)


def test_smooth_custom_weight_matches_quad():
    ph = Phantom((DISK, ELLIPSE, CLIPPED))
    for phi, s in LINES:
        want = 0.0
        for sh in ph.shapes:
            t0, t1 = (float(v) for v in sh.chord_interval(phi, s))
            val, _ = quad(lambda t: float(SMOOTH(s * theta(phi) + t * theta_perp(phi), phi)),
                          t0, t1, epsabs=1e-13, epsrel=1e-13)
            want += sh.density * val
        assert analytic_sinogram_row(ph, SMOOTH, phi, [s])[0] == pytest.approx(want, rel=1e-12)


def _quad_exponential(shape, lam, mode, phi, s):
    # density * integral of exp(lam u) over the chord, u = t (perp) or s
    # (parallel), by quad on exp(lam (u - top)) with top the u where lam u
    # is largest, times exp(lam top): quad's sums of the unscaled weight
    # overflow at the rate bound.
    t0, t1 = (float(v) for v in shape.chord_interval(phi, s))
    if t1 <= t0:
        return 0.0
    if mode == "parallel":
        val, _ = quad(lambda t: 1.0, t0, t1, epsabs=0.0, epsrel=1e-13)
        return shape.density * math.exp(lam * s) * val
    top = t1 if lam > 0 else t0
    val, _ = quad(lambda t: math.exp(lam * (t - top)), t0, t1, epsabs=0.0, epsrel=1e-13,
                  limit=200)
    return shape.density * math.exp(lam * top) * val


@pytest.mark.parametrize("mode", ["perp", "parallel"])
@pytest.mark.parametrize("lam", [0.4, -0.4])
def test_exponential_closed_form_matches_quad(lam, mode):
    mu = WeightFunction.exponential(lam, mode)
    ph = Phantom((DISK, ELLIPSE, CLIPPED))
    for phi, s in LINES:
        want = sum(_quad_exponential(sh, lam, mode, phi, s) for sh in ph.shapes)
        assert analytic_sinogram_row(ph, mu, phi, [s])[0] == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("mode", ["perp", "parallel"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_exponential_closed_form_finite_at_rate_bound(sign, mode):
    # |lam| R = 709.7 with R the support radius and unit density, on lines
    # out to 1.5 R: the weight at a chord's larger end stays below
    # exp(709.7), while e^{lam s} on a line beyond the support overflows.
    # The chord through the centre reaches both ends of the range.
    disk = Disk((0.0, 0.0), 1.0, 1.0)
    ph = Phantom((disk,))
    R = ph.support_radius()
    lam = sign * 709.7 / R
    mu = WeightFunction.exponential(lam, mode)
    s = np.linspace(-1.5 * R, 1.5 * R, 61)
    phis = np.array([0.3, 1.9, 4.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = analytic_sinogram_row(ph, mu, phis, s)
    assert np.all(np.isfinite(rows)) and rows.max() > 1e290
    for phi, row in zip(phis, rows):
        want = [_quad_exponential(disk, lam, mode, phi, si) for si in s]
        np.testing.assert_allclose(row, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("mode", ["perp", "parallel"])
def test_exponential_rate_zero_has_constant_bits(mode):
    ph = Phantom((DISK, ELLIPSE, CLIPPED, PARALLEL_CLIP))
    assert (analytic_sinogram_row(ph, WeightFunction.exponential(0.0, mode), BLOCK_PHIS,
                                  BLOCK_S).tobytes()
            == analytic_sinogram_row(ph, ONE, BLOCK_PHIS, BLOCK_S).tobytes())


def test_exponential_rows_build_no_node_planes():
    # Bound: beyond the output, fewer than 16 planes of (shapes, angles, s)
    # float64 values, the size of one (shapes, angles, s, nodes) plane of
    # the 16-node rule, so any such plane breaks it.  The closed form holds
    # 6.8 planes (chords, their ends and a few of its terms); the rule, run
    # here on a custom weight equal to the exponential, holds about 100.
    ph = Phantom((DISK, ELLIPSE, CLIPPED))
    phis, s = np.linspace(0.0, math.pi, 30, endpoint=False), np.linspace(-1.5, 1.5, 129)
    plane = len(ph.shapes) * phis.size * s.size * 8
    for mode in ("perp", "parallel"):
        exp = WeightFunction.exponential(0.4, mode)
        peaks = []
        for mu in (exp, WeightFunction(lambda x, phi, w=exp: w(x, phi))):
            tracemalloc.start()
            try:
                out = analytic_sinogram_row(ph, mu, phis, s)
                peaks.append(tracemalloc.get_traced_memory()[1] - out.nbytes)
            finally:
                tracemalloc.stop()
        assert peaks[0] < 16 * plane < peaks[1]


@pytest.mark.parametrize("lam", [-3.0, 3.0])
@pytest.mark.parametrize("dphi", [-1e-3, 1e-3])
def test_empty_chord_far_along_line_is_zero(dphi, lam):
    # Lines nearly parallel to CLIPPED's clip line, on its far side: the chord
    # is empty and its ends lie hundreds of units out along the line, where
    # exp(lam * t) overflows.
    phi = math.atan2(0.8, 0.6) + dphi
    s = 0.6
    t0, t1 = (float(v) for v in CLIPPED.chord_interval(phi, s))
    assert t1 <= t0 and max(abs(t0), abs(t1)) > 100
    mu = WeightFunction.exponential(lam, "perp")
    with np.errstate(all="raise"):
        assert analytic_sinogram_row(Phantom((CLIPPED,)), mu, phi, [s])[0] == 0.0
        row = analytic_sinogram_row(Phantom((DISK, CLIPPED)), mu, phi, np.linspace(-2, 2, 41))
    assert np.all(np.isfinite(row))


@pytest.mark.parametrize("mu", [ONE, WeightFunction.exponential(0.3), SMOOTH],
                         ids=["constant", "exponential", "custom"])
def test_line_integral_is_one_sample_row(mu):
    ph = Phantom((DISK, ELLIPSE, CLIPPED))
    phi = 0.8
    s_row = np.linspace(-1.5, 1.5, 31)
    row = analytic_sinogram_row(ph, mu, phi, s_row)
    for s, r in zip(s_row, row):
        one = analytic_sinogram_row(ph, mu, phi, [s])[0]
        assert one == pytest.approx(r, rel=1e-14, abs=1e-15)
    assert row[0] == 0.0 and row[-1] == 0.0


# Exact binary values: at phi = 0 (and, to |sin| < 1e-15, at phi = pi) the
# lines x = s run parallel to PARALLEL_CLIP's clip line x = 0.375, which is
# itself a sampled line; s = -0.25 and s = 0.75 are tangent to its circle.
PARALLEL_CLIP = ClippedDisk((0.25, -0.125), 0.5, (1.0, 0.0), 0.125, 0.75)
BLOCK_S = np.linspace(-1.0, 1.0, 33)
BLOCK_PHIS = np.concatenate([[0.0, math.pi, math.atan2(0.8, 0.6)],
                             np.random.default_rng(8).uniform(-1.0, 7.0, 10)])


def test_parallel_clip_block_takes_both_branches():
    # In one block, the rows parallel to the clip line drop the lines beyond
    # it and keep the others whole, and the other rows divide without a
    # warning about the parallel ones.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t0, t1 = PARALLEL_CLIP.chord_interval(BLOCK_PHIS[:, None], BLOCK_S)
    for row in (0, 1):
        c = math.cos(BLOCK_PHIS[row])                 # 1 and -1
        in_half = c * BLOCK_S - 0.25 <= 0.125
        np.testing.assert_array_equal(t1[row] >= t0[row],
                                      (np.abs(0.25 * c - BLOCK_S) <= 0.5) & in_half)
    assert t0[0, 12] == t1[0, 12]                     # s = -0.25: tangent
    assert t1[0, 22] > t0[0, 22] and t1[0, 23] < t0[0, 23]   # s = 0.375 kept, next dropped


@pytest.mark.parametrize("mu", [ONE, WeightFunction.exponential(0.4),
                                WeightFunction.exponential(-0.7, "parallel"), SMOOTH],
                         ids=["constant", "perp", "parallel", "custom"])
def test_block_rows_equal_per_angle_rows_bitwise(mu):
    # Every shape kind, in one phantom and alone; a row has the bits of a
    # call for its angle alone, whatever block it comes in.
    shapes = (DISK, ELLIPSE, CLIPPED, PARALLEL_CLIP)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ph in [Phantom(shapes)] + [Phantom((sh,)) for sh in shapes]:
            block = analytic_sinogram_row(ph, mu, BLOCK_PHIS, BLOCK_S)
            assert block.shape == (BLOCK_PHIS.size, BLOCK_S.size)
            np.testing.assert_array_equal(
                np.concatenate([analytic_sinogram_row(ph, mu, BLOCK_PHIS[a:a + 4], BLOCK_S)
                                for a in range(0, BLOCK_PHIS.size, 4)]), block)
            for phi, row in zip(BLOCK_PHIS, block):
                assert row.tobytes() == analytic_sinogram_row(ph, mu, float(phi),
                                                              BLOCK_S).tobytes()
    for sh in shapes:
        t0, t1 = sh.chord_interval(BLOCK_PHIS[:, None], BLOCK_S)
        for phi, r0, r1 in zip(BLOCK_PHIS, t0, t1):
            one = sh.chord_interval(float(phi), BLOCK_S)
            assert r0.tobytes() == one[0].tobytes() and r1.tobytes() == one[1].tobytes()


def test_line_integral_linear_in_densities():
    d1 = Phantom((Disk((0.1, 0.0), 0.8, 1.0),))
    d2 = Phantom((Disk((0.1, 0.0), 0.8, 2.5),))
    both = Phantom((Disk((0.1, 0.0), 0.8, 1.0), Disk((0.1, 0.0), 0.8, 2.5)))
    phi, s = 0.9, 0.2
    v1 = analytic_sinogram_row(d1, ONE, phi, [s])[0]
    v2 = analytic_sinogram_row(d2, ONE, phi, [s])[0]
    assert v2 == pytest.approx(2.5 * v1, rel=1e-12)
    assert analytic_sinogram_row(both, ONE, phi, [s])[0] == pytest.approx(v1 + v2, rel=1e-12)


def test_line_integral_even_under_antipodal_flip():
    ph = Phantom((Disk((0.3, -0.2), 0.6, 1.0), Ellipse((0.0, 0.25), 0.5, 0.2, 0.4, 0.7)))
    for phi, s in ((0.5, 0.3), (2.0, -0.4)):
        a = analytic_sinogram_row(ph, ONE, phi, [s])[0]
        b = analytic_sinogram_row(ph, ONE, phi + math.pi, [-s])[0]
        assert a == pytest.approx(b, abs=1e-12)


def test_rasterize_pixel_membership():
    grid = ImageGrid(8, 2.0)
    ph = Phantom((Disk((0.0, 0.0), 1.0, 1.0),))
    r = rasterize(ph, grid)
    # nearest center to the origin is inside; the outer corner center is not
    assert r.values[4, 4] == 1.0   # (0.25, 0.25), |x| ~ 0.354
    assert r.values[4, 7] == 0.0   # (1.75, 0.25)


def test_rasterize_additive_overlap():
    grid = ImageGrid(8, 2.0)
    ph = Phantom((Disk((0.0, 0.0), 1.0, 1.0), Disk((0.25, 0.25), 0.5, 0.5)))
    r = rasterize(ph, grid)
    assert r.values[4, 4] == 1.5


def test_rasterize_mass_matches_area():
    grid = ImageGrid(512, 1.6)
    shapes = (
        Disk((0.0, 0.35), 0.6, 1.0),
        Ellipse((-0.45, -0.5), 0.5, 0.25, 0.7, 0.8),
        ClippedDisk((0.6, -0.5), 0.45, (1.0, 0.0), 0.1, 1.2),
    )
    ph = Phantom(shapes)
    r = rasterize(ph, grid)
    mass = r.values.sum() * grid.h ** 2
    expected = sum(sh.density * sh.area() for sh in shapes)
    assert mass == pytest.approx(expected, rel=0.01)


def test_rasterize_rejects_oversized_phantom():
    grid = ImageGrid(64, 1.0)
    ph = Phantom((Disk((0.5, 0.0), 0.8, 1.0),))
    with pytest.raises(ValueError):
        rasterize(ph, grid)


RASTER_PHANTOM = Phantom((Disk((0.3, -0.2), 0.5, 1.0),
                          Ellipse((-0.3, 0.3), 0.4, 0.2, 0.7, 0.5),
                          ClippedDisk((0.0, 0.0), 0.6, (0.6, 0.8), 0.1, 0.25)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rows", [1, 5, 37], ids=["one-row", "five-rows", "whole"])
def test_rasterize_blocks_match_whole_image(rows, monkeypatch):
    # Blocks of 5 rows do not divide the 37 rows; each pixel's membership
    # tests are elementwise, so every block size gives the whole-image bits.
    grid = ImageGrid(37, 1.2)
    monkeypatch.setattr(_util, "BLOCK_PIXELS", rows * 37)
    np.testing.assert_array_equal(rasterize(RASTER_PHANTOM, grid).values,
                                  RASTER_PHANTOM.evaluate(np.stack(grid.centers(), axis=-1)))


def test_rasterize_temporaries_are_block_sized():
    # Beyond the 512^2 output, a block of 64 rows is one plane of
    # BLOCK_PIXELS values: its coordinate planes, their stack, the shape
    # offsets and products and the running sum make about ten.  The whole
    # image at once holds 8 planes per image-sized array, 80 in all.
    tracemalloc.start()
    try:
        rasterize(RASTER_PHANTOM, ImageGrid(512, 1.2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 512 * 512 * 8 < 12 * _util.BLOCK_PIXELS * 8


def test_edge_singularities_unit_disk():
    win = AngularWindow(math.pi / 4.0, 3.0 * math.pi / 4.0, "finite-order", 1)
    ph = Phantom((Disk((0.0, 0.0), 1.0, 1.0),))
    edges = edge_singularities(ph, win)
    assert len(edges) == 4
    c = math.sqrt(2.0) / 2.0
    expected = {(1, c, c), (1, -c, -c), (2, -c, c), (2, c, -c)}
    got = {(e.j, round(e.point[0], 12), round(e.point[1], 12)) for e in edges}
    assert {(j, round(x, 12), round(y, 12)) for j, x, y in expected} == got
    for e in edges:
        assert e.boundary_curvature == pytest.approx(1.0)
        ej = win.boundary_direction(e.j)
        cross = e.normal[0] * ej[1] - e.normal[1] * ej[0]
        assert abs(cross) < 1e-12


def test_edge_singularities_ellipse():
    win = AngularWindow(math.pi / 3.0, 2.0 * math.pi / 3.0, "finite-order", 2)
    el = Ellipse((0.1, -0.2), 0.6, 0.3, 0.5, 1.0)
    ph = Phantom((el,))
    edges = edge_singularities(ph, win)
    assert len(edges) == 4  # the ellipse normal map covers every direction
    for e in edges:
        ej = win.boundary_direction(e.j)
        cross = e.normal[0] * ej[1] - e.normal[1] * ej[0]
        assert abs(cross) < 1e-9
        # point lies on the boundary: implicit form evaluates to 1
        dx, dy = e.point[0] - 0.1, e.point[1] + 0.2
        ca, sa = math.cos(0.5), math.sin(0.5)
        u = (ca * dx + sa * dy) / 0.6
        v = (-sa * dx + ca * dy) / 0.3
        assert u * u + v * v == pytest.approx(1.0, abs=1e-12)
        assert e.boundary_curvature > 0.0
        # outward orientation
        assert e.normal @ np.array([dx, dy]) > 0.0


def test_edge_singularities_empty_phantom():
    win = AngularWindow(math.pi / 4.0, 3.0 * math.pi / 4.0)
    assert edge_singularities(Phantom(()), win) == []


def test_edge_singularities_offcenter_disk():
    win = AngularWindow(math.pi / 3.0, 2.0 * math.pi / 3.0)
    ph = Phantom((Disk((0.3, 0.0), 0.45, 1.0),))
    edges = edge_singularities(ph, win)
    assert len(edges) == 4
    for e in edges:
        ej = win.boundary_direction(e.j)
        np.testing.assert_allclose(e.point, np.array([0.3, 0.0]) + 0.45 * e.normal,
                                   atol=1e-12)
        assert abs(abs(e.normal @ ej) - 1.0) < 1e-12


def test_edge_singularities_clipped_disk_segment():
    # clip plane normal aligned with e1: the straight edge matches j=1
    win = AngularWindow(math.pi / 4.0, 3.0 * math.pi / 4.0)
    e1 = win.boundary_direction(1)
    sh = ClippedDisk((0.0, 0.0), 0.8, tuple(e1), 0.2, 1.0)
    edges = edge_singularities(Phantom((sh,)), win)
    flat = [e for e in edges if e.boundary_curvature == 0.0]
    assert len(flat) == 1
    np.testing.assert_allclose(flat[0].point, 0.2 * e1, atol=1e-12)
    # the arc point on the removed side is dropped
    arc_pts = [e for e in edges if e.boundary_curvature > 0.0 and e.j == 1]
    assert len(arc_pts) == 1
    np.testing.assert_allclose(arc_pts[0].point, -0.8 * e1, atol=1e-12)


def test_shape_validation():
    with pytest.raises(ValueError):
        Disk((0.0, 0.0), -1.0)
    with pytest.raises(ValueError):
        Ellipse((0.0, 0.0), 0.5, -0.2)
    with pytest.raises(ValueError):
        ClippedDisk((0.0, 0.0), 0.5, (1.0, 0.0), 0.7)


# Exact boundary distances against dense sampling.  ECCENTRIC has a/b = 5.
ECCENTRIC = Ellipse((-0.1, 0.05), 0.2, 1.0, 0.4)
DISTANCE_SHAPES = (DISK, ELLIPSE, ECCENTRIC, CLIPPED,
                   ClippedDisk((0.0, 0.1), 0.6, (1.0, 0.0), -0.25))


def _dense_boundary(shape, m=2**16):
    """``m`` points on each boundary curve (the arc and the chord of a clipped disk)."""
    c = np.asarray(shape.center)
    if isinstance(shape, ClippedDisk):
        n = np.asarray(shape.clip_normal)
        beta = math.acos(shape.clip_offset / shape.radius)
        psi = math.atan2(n[1], n[0]) + np.linspace(beta, 2 * math.pi - beta, m)
        half = math.sqrt(shape.radius**2 - shape.clip_offset**2)
        chord = np.linspace(-half, half, m)[:, None] * np.array([-n[1], n[0]])
        return [c + shape.radius * np.stack([np.cos(psi), np.sin(psi)], -1),
                c + shape.clip_offset * n + chord]
    psi = np.linspace(0.0, 2 * math.pi, m + 1)
    a, b = (shape.radius, shape.radius) if isinstance(shape, Disk) else (shape.a, shape.b)
    angle = getattr(shape, "angle", 0.0)
    loc = np.stack([a * np.cos(psi), b * np.sin(psi)], -1)
    return [c + loc @ np.array([[math.cos(angle), -math.sin(angle)],
                                [math.sin(angle), math.cos(angle)]]).T]


def _distance_probes(shape, rng):
    c = np.asarray(shape.center)
    pts = [rng.uniform(-1.3, 1.3, (200, 2)), c + rng.normal(0, 0.02, (20, 2)),
           c[None], c + [[1e-9, 0.0], [0.0, 1e-9]]]
    if isinstance(shape, Ellipse):
        # both axes, inside and outside, in the ellipse's own frame
        u = np.linspace(-1.5, 1.5, 41)[:, None]
        ax = np.array([math.cos(shape.angle), math.sin(shape.angle)])
        pts += [c + u * ax, c + u * np.array([-ax[1], ax[0]])]
    if isinstance(shape, ClippedDisk):
        n = np.asarray(shape.clip_normal)
        half = math.sqrt(shape.radius**2 - shape.clip_offset**2)
        for sign in (1.0, -1.0):
            corner = c + shape.clip_offset * n + sign * half * np.array([-n[1], n[0]])
            pts.append(corner + rng.normal(0, 0.01, (30, 2)))
    return np.concatenate(pts)


@pytest.mark.parametrize("shape", DISTANCE_SHAPES, ids=lambda s: type(s).__name__)
def test_boundary_distance_matches_dense_sampling(shape):
    x = _distance_probes(shape, np.random.default_rng(5))
    exact = shape.boundary_distance(x)
    curves = _dense_boundary(shape)
    brute = np.full(len(x), np.inf)
    for b in curves:
        for i in range(0, len(x), 32):
            d = np.hypot(x[i:i + 32, None, 0] - b[:, 0], x[i:i + 32, None, 1] - b[:, 1])
            brute[i:i + 32] = np.minimum(brute[i:i + 32], d.min(axis=1))
    # Sampling only overestimates, by at most half the largest gap between samples.
    gap = max(np.hypot(*np.diff(b, axis=0).T).max() for b in curves)
    assert np.all(brute >= exact - 1e-14)
    assert np.all(brute <= exact + 0.5 * gap * (1 + 1e-6))


def test_boundary_distance_of_mirrored_phantom_is_mirrored():
    def mirror(sh):
        c = (-sh.center[0], sh.center[1])
        if isinstance(sh, Disk):
            return Disk(c, sh.radius)
        if isinstance(sh, Ellipse):
            return Ellipse(c, sh.a, sh.b, math.pi - sh.angle)
        n = sh.clip_normal
        return ClippedDisk(c, sh.radius, (-n[0], n[1]), sh.clip_offset)

    phantom = Phantom(DISTANCE_SHAPES)
    mirrored = Phantom(tuple(mirror(sh) for sh in DISTANCE_SHAPES))
    x = np.random.default_rng(6).uniform(-1.3, 1.3, (5000, 2))
    d = phantom.boundary_distance(x)
    d_m = mirrored.boundary_distance(x * [-1.0, 1.0])
    assert np.max(np.abs(d - d_m)) <= 1e-12
    assert np.all(Phantom(()).boundary_distance(x) == np.inf)


def _nearest_samples(x, curves):
    """Brute-force nearest boundary sample of each point: its distance, the
    sample, the unit tangent there, and whether it ends its curve."""
    best = np.full(len(x), np.inf)
    foot, tangent, end = np.zeros((len(x), 2)), np.zeros((len(x), 2)), np.zeros(len(x), bool)
    for b in curves:
        t = np.gradient(b, axis=0)
        t /= np.hypot(t[:, 0], t[:, 1])[:, None]
        for i in range(0, len(x), 32):
            d = np.hypot(x[i:i + 32, None, 0] - b[:, 0], x[i:i + 32, None, 1] - b[:, 1])
            k = d.argmin(axis=1)
            dk = d[np.arange(len(k)), k]
            better = dk < best[i:i + 32]
            sel, k = np.arange(i, i + len(k))[better], k[better]
            best[sel], foot[sel], tangent[sel] = dk[better], b[k], t[k]
            end[sel] = (k == 0) | (k == len(b) - 1)
    return best, foot, tangent, end


def _has_far_rival(x, curves, best, foot, slack, far=0.05):
    """Whether a sample more than ``far`` from the nearest one is within ``slack``
    as near: the point has no unique nearest boundary point, to sampling accuracy."""
    rival = np.zeros(len(x), bool)
    for b in curves:
        for i in range(0, len(x), 32):
            d = np.hypot(x[i:i + 32, None, 0] - b[:, 0], x[i:i + 32, None, 1] - b[:, 1])
            away = np.hypot(foot[i:i + 32, None, 0] - b[:, 0],
                            foot[i:i + 32, None, 1] - b[:, 1]) > far
            rival[i:i + 32] |= np.any(away & (d <= best[i:i + 32, None] + slack), axis=1)
    return rival


@pytest.mark.parametrize("shape", DISTANCE_SHAPES, ids=lambda s: type(s).__name__)
def test_boundary_normal_matches_dense_sampling(shape):
    x = _distance_probes(shape, np.random.default_rng(7))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dist, nrm = shape.boundary_distance(x, normal=True)
    np.testing.assert_array_equal(dist, shape.boundary_distance(x))
    np.testing.assert_allclose(np.hypot(nrm[:, 0], nrm[:, 1]), 1.0, rtol=0, atol=1e-15)

    c = np.asarray(shape.center)
    if isinstance(shape, Ellipse):
        curvature = max(shape.a, shape.b) / min(shape.a, shape.b) ** 2
    else:
        curvature = 1.0 / shape.radius
    corner = isinstance(shape, ClippedDisk)
    inner = c  # a point strictly inside the shape
    if corner:
        cn = np.asarray(shape.clip_normal)
        inner = c + 0.5 * (shape.clip_offset - shape.radius) * cn
    curves = _dense_boundary(shape, m=2**15)
    gap = max(np.hypot(*np.diff(b, axis=0).T).max() for b in curves)
    best, foot, tangent, end = _nearest_samples(x, curves)
    # The centre of a disk, or a point of an ellipse's medial segment, has
    # more than one nearest point; its normal is any of theirs.
    unique = ~_has_far_rival(x, curves, best, foot, gap)
    assert unique.mean() >= 0.85
    at_corner = end & corner
    smooth = unique & ~at_corner
    # The nearest sample is within about half a gap of the nearest point, and
    # the tangent turns by the curvature times the arc length between them.
    assert np.all(np.abs(np.sum(nrm * tangent, axis=1))[smooth] <= curvature * gap + 1e-12)
    assert np.all(np.sum(nrm * (foot - inner), axis=1)[unique] > 0.0)
    if corner:
        # Nearest to a chord end: the normal lies in the corner's normal cone,
        # spanned by the clip normal and the radius through the corner.
        assert at_corner.sum() >= 10
        for xi, p, n in zip(x[at_corner], foot[at_corner], nrm[at_corner]):
            radial = (p - c) / shape.radius
            alpha, beta = np.linalg.solve(np.stack([cn, radial], axis=-1), n)
            assert min(alpha, beta) >= -curvature * gap, (xi, alpha, beta)


@pytest.mark.parametrize("offset", [1e-300, 1e-306, 1e-308, 1e-310, 1e-312])
def test_ellipse_distance_near_major_axis_is_finite_and_quiet(offset):
    # At a subnormal offset from the major axis Newton's denominator would
    # overflow: such points take the axis's closed form, without a warning.
    ellipse = Ellipse((0.0, 0.0), 1.0, 0.5)
    x = np.array([[0.0, offset], [0.3, offset], [0.6, -offset], [1.2, offset]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = ellipse.boundary_distance(x)
        on_axis = ellipse.boundary_distance(x * [1.0, 0.0])
        d_n, nrm = ellipse.boundary_distance(x, normal=True)
        _, nrm_axis = ellipse.boundary_distance(x * [1.0, 0.0], normal=True)
    assert abs(d[0] - 0.5) <= 4e-13
    np.testing.assert_allclose(d, on_axis, rtol=1e-13, atol=0)
    # The normal is the axis point's, mirrored to the offset's side.
    np.testing.assert_array_equal(d_n, d)
    np.testing.assert_allclose(nrm, np.copysign(nrm_axis, np.stack([np.ones(4), x[:, 1]], -1)),
                               rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(nrm[[0, 3]], [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)


def _workload_shapes(kind, seeds):
    """The shape tuples of one kind in the benchmark's workloads at a few seeds."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("limitomo_bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads      # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return [sh[1:] for name in workloads.NAMES for seed in seeds
            for sh in workloads.build(name, seed).shapes if sh[0] == kind]


def _workload_ellipses(seeds=(0, 23, 31)):
    """The ellipses of the benchmark's workloads at a few seeds."""
    return [Ellipse((cx, cy), a, b, angle, rho)
            for cx, cy, a, b, angle, rho in _workload_shapes("ellipse", seeds)]


def _tube_id(shape):
    if isinstance(shape, Disk):
        return f"r{shape.radius:.4g}-c{shape.center[0]:.4g},{shape.center[1]:.4g}"
    if isinstance(shape, Ellipse):
        return f"a{shape.a:.4g}-b{shape.b:.4g}-angle{shape.angle:.4g}"
    return f"clipped-r{shape.radius:.4g}-offset{shape.clip_offset:.4g}"


@pytest.mark.parametrize("shape",
                         [Disk((cx, cy), r, rho)
                          for cx, cy, r, rho in _workload_shapes("disk", (0, 23))]
                         + [sh for sh in DISTANCE_SHAPES if isinstance(sh, Ellipse)]
                         + _workload_ellipses() + [CLIPPED], ids=_tube_id)
def test_visible_tube_is_the_exact_tube(shape):
    # The report's 3-pixel tube, with a disk's per-row annulus bound before
    # the exact distance, is the tube of the exact distance and normal over
    # every pixel centre of the image: at n = 64 and 512, with the window
    # and without, the visible tube pixels are those, and the edge strength
    # has the bits of the peak over them.
    win = AngularWindow(math.pi / 4.0, 3.0 * math.pi / 4.0, "finite-order", 1)
    phantom = Phantom((shape,))
    for n in (64, 512):
        grid = ImageGrid(n, 1.2)
        h = grid.h
        pts = np.stack(grid.centers(), axis=-1)
        dist, nrm = shape.boundary_distance(pts, normal=True)
        tube = (dist <= 3.0 * h) & np.all(np.abs(pts) <= grid.extent - h, axis=-1)
        values = np.random.default_rng(n).normal(size=(n, n))
        for window in (None, win):
            visible = tube if window is None else (
                tube & window.contains_direction(np.arctan2(nrm[..., 1], nrm[..., 0])))
            assert visible.any()
            (rows, cols), = _visible_tubes(grid, phantom, window)
            kept = np.zeros((n, n), dtype=bool)
            kept[rows, cols] = True
            np.testing.assert_array_equal(kept, visible)
            rep = artifact_report(Raster(grid, values), phantom, window, 4.0 * h)
            assert rep.edge_strengths == (np.abs(values[visible]).max(),)
