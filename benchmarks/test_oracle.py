"""The oracle's formulas against dense numerical integration or sampling.

    python3 -m pytest benchmarks/test_oracle.py      # or
    python3 benchmarks/test_oracle.py

These tests use only numpy, scipy and the oracle; they never import
limitomo.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
from scipy.integrate import quad

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402

SHAPES = (
    ("disk", 0.1, -0.2, 0.7, 1.0),
    ("ellipse", -0.3, 0.25, 0.45, 0.2, math.radians(35.0), 0.5),
    ("ellipse", 0.4, 0.1, 0.15, 0.3, math.radians(-70.0), -0.25),
)


def _lines(count=40, seed=7):
    rng = np.random.default_rng(seed)
    return zip(rng.uniform(0.0, 2.0 * math.pi, count), rng.uniform(-0.9, 0.9, count))


def _point(phi, s, t):
    return s * math.cos(phi) - t * math.sin(phi), s * math.sin(phi) + t * math.cos(phi)


def test_chord_interval_matches_membership_sampling():
    t = np.linspace(-2.0, 2.0, 400001)
    step = t[1] - t[0]
    for sh in SHAPES:
        for phi, s in _lines():
            X, Y = _point(phi, s, t)
            hit_t = t[oracle.inside(sh, X, Y)]
            t0, t1, hit = oracle.chord_interval(sh, phi, s)
            if hit_t.size < 3:
                assert not hit or t1 - t0 < 3 * step
                continue
            assert hit
            assert abs(hit_t[0] - t0) <= step and abs(hit_t[-1] - t1) <= step


def test_exp_chord_integral_matches_quadrature():
    for lam in (0.0, 0.3, -1.1):
        for t0, t1 in ((-0.7, 0.4), (0.2, 0.9), (-1.3, -1.29)):
            want, _ = quad(lambda u: math.exp(lam * u), t0, t1, epsabs=1e-14, epsrel=1e-13)
            got = float(oracle.exp_chord_integral(t0, t1, lam))
            assert abs(got - want) <= 1e-13


def test_sinogram_matches_dense_line_sums():
    t = np.linspace(-2.0, 2.0, 200001)
    dt = t[1] - t[0]
    phis = np.array([0.3, 1.9, 4.4])
    s = np.linspace(-0.95, 0.95, 9)
    lam = 0.3
    got = oracle.sinogram(SHAPES, phis, s, lam)
    for i, phi in enumerate(phis):
        for j, sj in enumerate(s):
            X, Y = _point(phi, sj, t)
            f = sum(oracle.density(sh) * oracle.inside(sh, X, Y) for sh in SHAPES)
            want = float(np.sum(f * np.exp(lam * t)) * dt)
            assert abs(got[i, j] - want) <= 1e-4


def test_normal_points_maximize_the_support_function():
    for sh in SHAPES:
        pts = oracle.boundary_samples(sh, 200000)
        for ang in np.linspace(0.0, 2.0 * math.pi, 13):
            e = np.array([math.cos(ang), math.sin(ang)])
            plus, minus = oracle.normal_points(sh, e)
            assert abs(plus @ e - np.max(pts @ e)) <= 1e-9
            assert abs(minus @ e - np.min(pts @ e)) <= 1e-9
            assert np.min(np.hypot(*(pts - plus).T)) <= 1e-4
            assert np.min(np.hypot(*(pts - minus).T)) <= 1e-4


def test_pixel_indicator_integrates_to_the_mass():
    n, L = 512, 1.2
    h = 2.0 * L / n
    got = oracle.pixel_indicator(SHAPES, n, L).sum() * h * h
    areas = [math.pi * sh[3] ** 2 if sh[0] == "disk" else math.pi * sh[3] * sh[4]
             for sh in SHAPES]
    want = sum(oracle.density(sh) * a for sh, a in zip(SHAPES, areas))
    slack = sum(abs(oracle.density(sh)) * oracle.perimeter(sh) for sh in SHAPES) * h
    assert abs(got - want) <= slack


def test_perimeter_matches_polyline_length():
    for sh in SHAPES:
        pts = oracle.boundary_samples(sh, 400000)
        length = float(np.sum(np.hypot(*(np.roll(pts, -1, axis=0) - pts).T)))
        assert abs(oracle.perimeter(sh) - length) <= 1e-5 * length


def test_edge_distance_is_a_tight_lower_bound():
    n, L = 64, 1.2
    got = oracle.edge_distance(SHAPES, n, L)
    ax = oracle.pixel_axis(n, L)
    X, Y = np.meshgrid(ax, ax, indexing="xy")
    pts = np.concatenate([oracle.boundary_samples(sh, 100000) for sh in SHAPES])
    rng = np.random.default_rng(3)
    for iy, ix in rng.integers(0, n, size=(200, 2)):
        true = float(np.min(np.hypot(pts[:, 0] - X[iy, ix], pts[:, 1] - Y[iy, ix])))
        assert got[iy, ix] <= true + 1e-9
        assert got[iy, ix] >= true - 2e-3


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for fn in tests:
        fn()
        print(f"ok {fn.__name__}")
    print(f"{len(tests)} passed")
