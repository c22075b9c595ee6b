"""Closed-form reference values for the benchmark's output checks.

This module shares no code with ``limitomo``: it needs only numpy and
scipy, and every formula is written out here from first principles so
that a fault in the package cannot hide in its own oracle.

Conventions match the package's documented geometry (not its code): the
image is ``[-L, L]^2`` with ``n`` pixels per axis, pixel centres at
``-L + (i + 1/2) h`` with ``h = 2L / n`` and arrays indexed ``[iy, ix]``;
the line ``(phi, s)`` is ``x(t) = s theta + t theta_perp`` with
``theta = (cos phi, sin phi)`` and ``theta_perp = (-sin phi, cos phi)``.

A shape is a tuple ``("disk", cx, cy, r, density)`` or
``("ellipse", cx, cy, a, b, angle_rad, density)``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree


def density(shape) -> float:
    return float(shape[-1])


def chord_interval(shape, phi, s):
    """Parameter interval ``[t0, t1]`` of the line ``(phi, s)`` inside the shape.

    ``phi`` and ``s`` broadcast against each other.  Returns ``(t0, t1, hit)``
    with ``t0 = t1 = 0`` where the line misses the shape.
    """
    phi = np.asarray(phi, dtype=float)
    c, sn = np.cos(phi), np.sin(phi)
    s = np.asarray(s, dtype=float)
    kind = shape[0]
    if kind == "disk":
        _, cx, cy, r, _ = shape
        d = s - (cx * c + cy * sn)            # offset of the line from the centre
        tm = -cx * sn + cy * c                # centre's coordinate along the line
        disc = r * r - d * d
        hit = disc > 0.0
        half = np.sqrt(np.where(hit, disc, 0.0))
        return np.where(hit, tm - half, 0.0), np.where(hit, tm + half, 0.0), hit
    if kind == "ellipse":
        _, cx, cy, a, b, ang, _ = shape
        ca, sa = math.cos(ang), math.sin(ang)
        # x(t) - centre = P + t D; solve A t^2 + 2 B t + C <= 0 in the
        # ellipse's own axes u (along the a-axis) and v.
        px, py = s * c - cx, s * sn - cy
        dx, dy = -sn, c
        pu, pv = ca * px + sa * py, -sa * px + ca * py
        du, dv = ca * dx + sa * dy, -sa * dx + ca * dy
        A = du * du / (a * a) + dv * dv / (b * b)
        B = pu * du / (a * a) + pv * dv / (b * b)
        C = pu * pu / (a * a) + pv * pv / (b * b) - 1.0
        disc = B * B - A * C
        hit = disc > 0.0
        root = np.sqrt(np.where(hit, disc, 0.0))
        return (np.where(hit, (-B - root) / A, 0.0),
                np.where(hit, (-B + root) / A, 0.0), hit)
    raise ValueError(f"unknown shape kind {kind!r}")


def exp_chord_integral(t0, t1, lam: float):
    """``integral_{t0}^{t1} exp(lam t) dt = (e^{lam t1} - e^{lam t0}) / lam``.

    Along ``x(t) = s theta + t theta_perp`` the weight
    ``exp(lam x . theta_perp)`` equals ``exp(lam t)``.  ``lam = 0`` gives
    the chord length.
    """
    t0 = np.asarray(t0, dtype=float)
    t1 = np.asarray(t1, dtype=float)
    if lam == 0.0:
        return t1 - t0
    return np.exp(lam * t0) * np.expm1(lam * (t1 - t0)) / lam


def sinogram(shapes, phis, s, lam: float = 0.0) -> np.ndarray:
    """Weighted line integrals ``sum_i rho_i int_chord exp(lam t) dt``.

    Returns an array of shape ``(len(phis), len(s))``.
    """
    phi = np.asarray(phis, dtype=float)[:, None]
    s = np.asarray(s, dtype=float)[None, :]
    out = np.zeros((phi.shape[0], s.shape[1]))
    for sh in shapes:
        t0, t1, hit = chord_interval(sh, phi, s)
        out += density(sh) * np.where(hit, exp_chord_integral(t0, t1, lam), 0.0)
    return out


def normal_points(shape, e):
    """Boundary points whose outward unit normal is ``+e`` and ``-e``.

    Returns ``[(point_for_plus_e), (point_for_minus_e)]``.  For a convex
    shape the point with outward normal ``m`` is where the support
    function in direction ``m`` is attained.
    """
    e = np.asarray(e, dtype=float)
    e = e / math.hypot(e[0], e[1])
    kind = shape[0]
    out = []
    for m in (e, -e):
        if kind == "disk":
            _, cx, cy, r, _ = shape
            out.append(np.array([cx + r * m[0], cy + r * m[1]]))
        elif kind == "ellipse":
            _, cx, cy, a, b, ang, _ = shape
            ca, sa = math.cos(ang), math.sin(ang)
            mu_, mv = ca * m[0] + sa * m[1], -sa * m[0] + ca * m[1]
            k = math.sqrt((a * mu_) ** 2 + (b * mv) ** 2)
            u, v = a * a * mu_ / k, b * b * mv / k
            out.append(np.array([cx + ca * u - sa * v, cy + sa * u + ca * v]))
        else:
            raise ValueError(f"unknown shape kind {kind!r}")
    return out


def pixel_axis(n: int, extent: float) -> np.ndarray:
    h = 2.0 * extent / n
    return -extent + (np.arange(n) + 0.5) * h


def inside(shape, X, Y) -> np.ndarray:
    """Membership of the points ``(X, Y)`` (boundary included)."""
    kind = shape[0]
    if kind == "disk":
        _, cx, cy, r, _ = shape
        return (X - cx) ** 2 + (Y - cy) ** 2 <= r * r
    _, cx, cy, a, b, ang, _ = shape
    ca, sa = math.cos(ang), math.sin(ang)
    u = ca * (X - cx) + sa * (Y - cy)
    v = -sa * (X - cx) + ca * (Y - cy)
    return (u / a) ** 2 + (v / b) ** 2 <= 1.0


def _centres(n: int, extent: float):
    ax = pixel_axis(n, extent)
    return np.meshgrid(ax, ax, indexing="xy")


def pixel_indicator(shapes, n: int, extent: float) -> np.ndarray:
    """Summed shape densities at the pixel centres, indexed ``[iy, ix]``."""
    X, Y = _centres(n, extent)
    out = np.zeros((n, n))
    for sh in shapes:
        out += density(sh) * inside(sh, X, Y)
    return out


def support_mask(shapes, n: int, extent: float) -> np.ndarray:
    """Pixel centres inside at least one shape."""
    X, Y = _centres(n, extent)
    return np.logical_or.reduce([inside(sh, X, Y) for sh in shapes])


def boundary_samples(shape, m: int) -> np.ndarray:
    """``m`` points evenly spaced in the parameter along the boundary."""
    psi = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
    if shape[0] == "disk":
        _, cx, cy, r, _ = shape
        return np.stack([cx + r * np.cos(psi), cy + r * np.sin(psi)], axis=-1)
    _, cx, cy, a, b, ang, _ = shape
    ca, sa = math.cos(ang), math.sin(ang)
    u, v = a * np.cos(psi), b * np.sin(psi)
    return np.stack([cx + ca * u - sa * v, cy + sa * u + ca * v], axis=-1)


def support_radius(shape) -> float:
    """Largest distance of a shape point from the origin, bounded above."""
    reach = shape[3] if shape[0] == "disk" else max(shape[3], shape[4])
    return math.hypot(shape[1], shape[2]) + reach


def perimeter(shape) -> float:
    """Boundary length (Ramanujan's second formula for an ellipse)."""
    if shape[0] == "disk":
        return 2.0 * math.pi * shape[3]
    a, b = shape[3], shape[4]
    hh = ((a - b) / (a + b)) ** 2
    return math.pi * (a + b) * (1.0 + 3.0 * hh / (10.0 + math.sqrt(4.0 - 3.0 * hh)))


def edge_distance(shapes, n: int, extent: float, m: int = 8192) -> np.ndarray:
    """Lower bound on each pixel centre's distance to any shape boundary.

    The boundary is sampled densely; the nearest-sample distance exceeds
    the true distance by less than the largest gap between samples, which
    is subtracted.
    """
    pts = [boundary_samples(sh, m) for sh in shapes]
    gap = max(float(np.max(np.hypot(*(np.roll(p, -1, axis=0) - p).T))) for p in pts)
    tree = cKDTree(np.concatenate(pts))
    X, Y = _centres(n, extent)
    dist, _ = tree.query(np.stack([X.ravel(), Y.ravel()], axis=-1))
    return (dist - gap).reshape(n, n)


def raster_tube_bound(shapes, h: float, lam: float) -> float:
    """First-order envelope of ``int |R_mu f_h - R_mu f| ds`` for the raster path.

    ``f_h`` is the bilinear interpolant of pixel-centre samples.  It equals
    ``f`` wherever the four surrounding centres lie on one side of every
    boundary, i.e. outside a tube of half-width ``sqrt(2) h`` around each
    boundary; inside, ``|f_h - f| <= |rho_i|`` per shape.  Integrating
    over ``s`` turns line integrals into an area integral, so the error
    per angle is at most ``mu_max * sum_i |rho_i| * 2 sqrt(2) h * P_i``.
    The signed errors largely cancel inside the tube, so the measured
    error is a small, steady fraction of this envelope (``convergence.py``).
    """
    r_max = max(support_radius(sh) for sh in shapes) + 2.0 * h
    mu_max = math.exp(abs(lam) * r_max)
    return mu_max * sum(abs(density(sh)) * 2.0 * math.sqrt(2.0) * h * perimeter(sh)
                        for sh in shapes)
