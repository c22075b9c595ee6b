"""Property tests (hypothesis): batched windowed back-projection, io round-trips,
chords, and hostile configs and file headers."""

import contextlib
import dataclasses
import io
import math
import struct

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from limitomo import (  # noqa: E402
    AngularWindow,
    ClippedDisk,
    ConfigError,
    Disk,
    Ellipse,
    ImageGrid,
    Raster,
    Sinogram,
    SinogramGrid,
    WeightFunction,
    backproject,
    loads_config,
    read_raster,
    read_sinogram,
    write_raster,
    write_sinogram,
)
from limitomo.cli import main  # noqa: E402
from limitomo.geometry import theta, theta_perp  # noqa: E402
from limitomo.transforms import backproject_values  # noqa: E402

GRID = ImageGrid(12, 1.2)
SGRID = SinogramGrid(n_phi=17, n_s=21, s_max=1.8, phi0=0.0, phi1=math.pi)
GRID16 = ImageGrid(16, 1.2)
SGRID16 = SinogramGrid(n_phi=8, n_s=33, s_max=1.7)


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
    for win, img in zip(wins, backproject_values(g, nu, wins, GRID)):
        np.testing.assert_array_equal(img, backproject(g, nu, win, GRID).values)


F32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
LENGTHS = st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(8, 12), extent=LENGTHS)
def test_raster_round_trip(tmp_path_factory, data, n, extent):
    values = data.draw(arrays(np.float32, (n, n), elements=F32))
    path = tmp_path_factory.mktemp("io") / "r.ltr"
    grid = ImageGrid(n, extent)
    write_raster(Raster(grid, values.astype(float)), path)
    back = read_raster(path, grid)
    assert back.grid is grid
    np.testing.assert_array_equal(back.values, values)


@st.composite
def sinogram_grids(draw):
    n_phi, n_s = draw(st.integers(2, 8)), draw(st.integers(2, 9))
    s_max = draw(LENGTHS)
    kind = draw(st.sampled_from(["full", "sub", "ambiguous"]))
    if kind == "full":
        return SinogramGrid(n_phi, n_s, s_max)
    if kind == "ambiguous":
        # A sub-range of n_phi * dphi == 2 pi: the full circle's header too.
        phi0 = draw(st.floats(0.0, 2.0 * math.pi / n_phi, exclude_max=True))
        return SinogramGrid(n_phi, n_s, s_max, phi0,
                            phi0 + 2.0 * math.pi * (n_phi - 1) / n_phi)
    phi0 = draw(st.floats(0.0, 3.0))
    phi1 = draw(st.floats(phi0, 2.0 * math.pi, exclude_min=True))
    return SinogramGrid(n_phi, n_s, s_max, phi0, phi1)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), grid=sinogram_grids())
def test_sinogram_round_trip(tmp_path_factory, data, grid):
    # Every write reads back on its own grid; a grid one offset wider, or
    # with s_max larger by a relative 1e-9, is refused.
    values = data.draw(arrays(np.float32, (grid.n_phi, grid.n_s), elements=F32))
    path = tmp_path_factory.mktemp("io") / "g.lts"
    write_sinogram(Sinogram(grid, values.astype(float)), path)
    back = read_sinogram(path, grid)
    assert back.grid is grid
    np.testing.assert_array_equal(back.values, values)
    other = data.draw(st.sampled_from([dataclasses.replace(grid, n_s=grid.n_s + 1),
                                       dataclasses.replace(grid, s_max=grid.s_max * (1 + 1e-9))]))
    with pytest.raises(ValueError, match="^the sinogram header does not match"):
        read_sinogram(path, other)


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


# Every key set, so that any one value can be swapped.
FULL_CONFIG = """
[image]
n = 16
extent = 1.2

[phantom]
shape1 = disk 0 0 0.5 1
shape2 = ellipse 0.3 0 0.4 0.2 30 0.5
shape3 = clipped-disk 0 0 0.8 1 0 0.2 1

[sinogram]
n_phi = 8
phi0_deg = 0
phi1_deg = 180
n_s = 33
s_max = 1.7

[window]
kind = finite-order
phi1_deg = 45
phi2_deg = 135
k = 1

[weights]
mu = exponential 0.5 perp
nu = constant 1.0

[reconstruction]
operator = B
filter_impl = spectral

[output]
dir = {out}
"""

HOSTILE = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e308", "-1e308", "1e400",
                     "4.9e-324", "0", "-1", "1e39", "9" * 400, "9" * 5000]),
    st.text(max_size=12))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), value=HOSTILE)
def test_hostile_config_value_is_config_error_or_config(data, value):
    # One value, or one token of a multi-token value, is swapped; the
    # loader either accepts the text or raises ConfigError.
    lines = FULL_CONFIG.format(out="out").splitlines()
    keyed = [i for i, line in enumerate(lines) if " = " in line]
    i = data.draw(st.sampled_from(keyed))
    key, old = lines[i].split(" = ")
    tokens = old.split()
    j = data.draw(st.integers(-1, len(tokens) - 1))
    if j < 0:
        tokens = [value]
    else:
        tokens[j] = value
    lines[i] = f"{key} = {' '.join(tokens)}"
    try:
        loads_config("\n".join(lines))
    except ConfigError:
        pass


MAGIC = st.binary(min_size=4, max_size=4)
COUNT = st.integers(0, 2**32 - 1)
F64_HOSTILE = [math.nan, math.inf, -math.inf, -1.0, 1e308]
# Per file kind, its header layout and a strategy for each field, in
# order; a draw equal to the field's own value is skipped.
HEADERS = {
    "raster": ("<4sIf4x", [MAGIC, COUNT, st.sampled_from(
        [math.nan, math.inf, -math.inf, 0.0, -1.0, 1e30, 0.6])]),
    "sinogram": ("<4sIddId", [MAGIC, COUNT, st.sampled_from(F64_HOSTILE + [7.0]),
                              st.sampled_from(F64_HOSTILE + [0.0]), COUNT,
                              st.sampled_from(F64_HOSTILE + [0.0])]),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(HEADERS)))
def test_hostile_file_header_exits_1_with_stage_tag(tmp_path_factory, data, kind):
    # One header field of a valid file for the 16x16 config is made
    # hostile; the subcommand reading the file exits 1 with a stage-tagged
    # error on its last stderr line and no traceback.
    tmp = tmp_path_factory.mktemp("hostile")
    cfg = tmp / "run.ini"
    cfg.write_text(FULL_CONFIG.format(out=tmp / "out").replace(
        "kind = finite-order", "kind = full"), encoding="utf-8")
    src = tmp / "file"
    if kind == "raster":
        write_raster(Raster(GRID16, np.ones((16, 16))), src)
        argv = ["forward", "--from-raster", str(src)]
    else:
        write_sinogram(Sinogram(SGRID16, np.ones((8, 33))), src)
        argv = ["reconstruct", "--sinogram", str(src)]
    fmt, fields = HEADERS[kind]
    header = struct.Struct(fmt)
    raw = src.read_bytes()
    values = list(header.unpack(raw[:header.size]))
    k = data.draw(st.integers(0, len(fields) - 1))
    new = data.draw(fields[k])
    assume(new != values[k])
    values[k] = new
    src.write_bytes(header.pack(*values) + raw[header.size:])
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv + ["--config", str(cfg), "--out", str(tmp / "out.bin")])
    assert rc == 1
    assert err.getvalue().splitlines()[-1].startswith("error [")
    assert "Traceback" not in err.getvalue()
