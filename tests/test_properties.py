"""Property tests (hypothesis): batched windowed back-projection, io round-trips and chords."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from limitomo import (  # noqa: E402
    AngularWindow,
    ClippedDisk,
    Disk,
    Ellipse,
    ImageGrid,
    Raster,
    Sinogram,
    SinogramGrid,
    WeightFunction,
    backproject,
    backproject_windows,
    read_raster,
    read_sinogram,
    write_raster,
    write_sinogram,
)
from limitomo.geometry import theta, theta_perp  # noqa: E402

GRID = ImageGrid(12, 1.2)
SGRID = SinogramGrid(n_phi=17, n_s=21, s_max=1.8, phi0=0.0, phi1=math.pi)


@st.composite
def windows(draw):
    ends = st.floats(0.0, math.pi, exclude_min=True, exclude_max=True)
    a, b = sorted(draw(st.lists(ends, min_size=2, max_size=2, unique=True)))
    return AngularWindow(a, b, "finite-order", draw(st.integers(1, 6)))


@settings(max_examples=40, deadline=None)
@given(wins=st.lists(windows(), min_size=1, max_size=4),
       values=st.lists(st.floats(-1e3, 1e3), min_size=SGRID.n_phi * SGRID.n_s,
                       max_size=SGRID.n_phi * SGRID.n_s),
       lam=st.sampled_from([None, -0.7, 0.5]))
def test_batched_backprojection_is_bitwise_single(wins, values, lam):
    g = Sinogram(SGRID, np.reshape(values, (SGRID.n_phi, SGRID.n_s)))
    nu = WeightFunction.constant(1.0) if lam is None else WeightFunction.exponential(lam)
    for win, img in zip(wins, backproject_windows(g, nu, wins, GRID)):
        np.testing.assert_array_equal(img.values, backproject(g, nu, win, GRID).values)


F32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
LENGTHS = st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(8, 12), extent=LENGTHS)
def test_raster_round_trip(tmp_path_factory, data, n, extent):
    values = data.draw(arrays(np.float32, (n, n), elements=F32))
    path = tmp_path_factory.mktemp("io") / "r.ltr"
    write_raster(Raster(ImageGrid(n, extent), values.astype(float)), path)
    back = read_raster(path)
    assert back.grid.n == n
    assert back.grid.extent == float(np.float32(extent))
    np.testing.assert_array_equal(back.values, values)


@st.composite
def sinogram_grids(draw):
    n_phi, n_s = draw(st.integers(2, 8)), draw(st.integers(2, 9))
    s_max = draw(LENGTHS)
    kind = draw(st.sampled_from(["full", "sub", "ambiguous"]))
    if kind == "full":
        return SinogramGrid(n_phi, n_s, s_max)
    if kind == "ambiguous":
        # A sub-range of n_phi * dphi == 2 pi: its header is the full circle's.
        phi0 = draw(st.floats(0.0, 2.0 * math.pi / n_phi, exclude_max=True))
        return SinogramGrid(n_phi, n_s, s_max, phi0,
                            phi0 + 2.0 * math.pi * (n_phi - 1) / n_phi)
    phi0 = draw(st.floats(0.0, 3.0))
    phi1 = draw(st.floats(phi0, 2.0 * math.pi, exclude_min=True))
    return SinogramGrid(n_phi, n_s, s_max, phi0, phi1)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), grid=sinogram_grids())
def test_sinogram_round_trip(tmp_path_factory, data, grid):
    # Every write reads back with its periodic flag and angle weights, or
    # raises before the file is made.
    values = data.draw(arrays(np.float32, (grid.n_phi, grid.n_s), elements=F32))
    path = tmp_path_factory.mktemp("io") / "g.lts"
    ambiguous = not grid.periodic and math.isclose(
        grid.n_phi * grid.dphi, 2.0 * math.pi, rel_tol=1e-12)
    try:
        write_sinogram(Sinogram(grid, values.astype(float)), path)
    except ValueError:
        assert not path.exists()
        return
    assert not ambiguous
    back = read_sinogram(path)
    assert (back.grid.n_phi, back.grid.n_s) == (grid.n_phi, grid.n_s)
    assert back.grid.periodic == grid.periodic
    # s_max is a float64 header field, so it comes back exactly.
    assert back.grid.s_max == grid.s_max
    np.testing.assert_allclose(back.grid.phis(), grid.phis(), rtol=0, atol=1e-12)
    np.testing.assert_allclose(back.grid.phi_weights(), grid.phi_weights(),
                               rtol=1e-12, atol=0)
    np.testing.assert_array_equal(back.values, values)


ANGLES = st.floats(0.0, 2.0 * math.pi)
SIZES = st.floats(0.05, 1.0)


@st.composite
def shapes(draw):
    center = (draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5)))
    kind = draw(st.sampled_from(["disk", "ellipse", "clipped"]))
    if kind == "disk":
        return Disk(center, draw(SIZES))
    if kind == "ellipse":
        return Ellipse(center, draw(SIZES), draw(SIZES), draw(ANGLES))
    r, alpha = draw(SIZES), draw(ANGLES)
    return ClippedDisk(center, r, (math.cos(alpha), math.sin(alpha)),
                       draw(st.floats(-0.95, 0.95)) * r)


@settings(max_examples=300, deadline=None)
@given(shape=shapes(), phi=ANGLES, s=st.floats(-1.6, 1.6))
def test_chord_interval_agrees_with_contains(shape, phi, s):
    # Along x(t) = s theta + t theta_perp, points more than 1e-9 inside
    # the chord [t0, t1] are in the shape and points more than 1e-9
    # outside it are not; t0 > t1 is the empty chord.  A line that grazes
    # the boundary (a tangent, or nearly parallel to a clip edge) has
    # endpoints that rounding sets, so it is skipped: moving it by 1e-9
    # would move an endpoint by more than 1e-6.
    t0, t1 = (float(v) for v in shape.chord_interval(phi, s))
    for ds in (-1e-9, 1e-9):
        u0, u1 = shape.chord_interval(phi, s + ds)
        assume(abs(u0 - t0) < 1e-6 and abs(u1 - t1) < 1e-6)
    t = np.linspace(-2.0, 2.0, 4001)
    inside = shape.contains(s * theta(phi) + t[:, None] * theta_perp(phi))
    assert np.all(inside[(t > t0 + 1e-9) & (t < t1 - 1e-9)])
    assert not np.any(inside[(t < t0 - 1e-9) | (t > t1 + 1e-9)])
