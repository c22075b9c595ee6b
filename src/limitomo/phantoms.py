"""Piecewise-constant test objects with closed-form line geometry.

Phantoms are additive superpositions of convex shapes (disks, ellipses and
half-plane-clipped disks).  Because every supported shape is convex with an
analytically known boundary, chord lengths, boundary normals, curvatures
and areas are all available in closed form.  The analytic sinogram rows
below (:func:`analytic_sinogram_row`) serve as the oracle for the
discrete forward transform: they integrate the weight over each
closed-form chord with a fixed Gauss-Legendre rule, exact for a constant
weight and accurate to rounding for a weight that is smooth along the
chord.  Chords take angles of shape ``(A, 1)`` against the offsets, and
write each projection out as ``cx * cos + cy * sin`` (a 2-vector dot
rounds by how it is batched), so a row has the same bits in any block.
Each shape's ``boundary_distance`` is exact and, with ``normal=True``, also
gives the outward unit normal at the nearest boundary point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _util
from .geometry import AngularWindow, ImageGrid, Raster

# How far ``|n . e|`` of a clip edge may be from 1 for its normal to count
# as parallel to ``e`` in :func:`edge_singularities`.
NORMAL_TOL = 1e-9


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = float(np.hypot(v[0], v[1]))
    if n == 0.0:
        raise ValueError("zero vector cannot be normalized")
    return v / n


def _disk_chord(center, radius: float, phi, s):
    """Chord ``(t0, t1)`` of the circle ``|x - center| <= radius``; ``t0 > t1`` if missed."""
    s = np.asarray(s, dtype=float)
    c, sn = np.cos(phi), np.sin(phi)
    cx, cy = center
    d = cx * c + cy * sn - s        # line misses if |d| > r
    disc = radius * radius - d * d
    hit = disc >= 0.0
    half = np.sqrt(np.maximum(disc, 0.0))
    tm = cy * c - cx * sn
    return np.where(hit, tm - half, 1.0), np.where(hit, tm + half, -1.0)


def _offsets(x, center):
    """Components of ``x - center`` for point(s) ``x`` of shape ``(..., 2)``."""
    x = np.asarray(x, dtype=float)
    return x[..., 0] - center[0], x[..., 1] - center[1]


def _radial(dx, dy, rho):
    """Unit vectors ``(dx, dy) / rho``; ``(1, 0)`` at ``rho = 0``, where every
    point of a circle about the origin is nearest."""
    centre = rho == 0.0
    r = np.where(centre, 1.0, rho)
    return np.stack([np.where(centre, 1.0, dx) / r, dy / r], axis=-1)


def _ellipse_nearest(e0: float, e1: float, y0: np.ndarray, y1: np.ndarray):
    """Distance from points ``(y0, y1) >= 0`` (1-D) to the ellipse with semi-axes
    ``e0 >= e1``, and the nearest point ``(p0, p1) >= 0``.

    Off the major axis the nearest point is ``(r0 y0 / (t + c), y1 / t)``, where
    ``r0 = (e0 / e1)^2``, ``c = r0 - 1`` and ``t`` is the root of
    ``f(t) = (r0 z0 / (t + c))^2 + (z1 / t)^2 - 1`` with ``z = y / e`` (Eberly,
    "Distance from a Point to an Ellipse, an Ellipsoid, or a Hyperellipsoid").
    """
    z0, z1, r0 = y0 / e0, y1 / e1, (e0 / e1) ** 2
    n0, c = r0 * z0, r0 - 1.0
    # f is convex and decreasing, and f >= 0 at max(z1, n0 - c), where one
    # term is 1.  Newton's method from there rises monotonically to the root
    # and cannot overshoot, near the axes and inside too (Newton on the
    # angle of the nearest point can); it stops when a step no longer rises.
    # t is Eberly's s + 1, which keeps its precision near the centre.
    # Since t >= z1, a <= 1 and b <= 1, the step's denominator is at most
    # 4 / z1: finite unless z1 is below twice the smallest normal float.
    # Such a point, z1 < 4.5e-308, takes the major axis's closed form below.
    off = z1 >= 2.0 * np.finfo(float).tiny
    t = np.where(off, np.maximum(z1, n0 - c), 1.0)
    idx = np.flatnonzero(off)
    while idx.size:
        ti = t[idx]
        a, b = n0[idx] / (ti + c), z1[idx] / ti
        t_next = ti + (a * a + b * b - 1.0) / (2.0 * (a * a / (ti + c) + b * b / ti))
        rises = t_next > ti
        idx = idx[rises]
        t[idx] = t_next[rises]
    # On the major axis the nearest point is (e0 q, e1 sqrt(1 - q^2)) with
    # q = e0 y0 / (e0^2 - e1^2) while that is below 1, else the vertex.
    d = e0 * e0 - e1 * e1
    q = np.divide(e0 * y0, d, out=np.ones(y0.shape), where=e0 * y0 < d)
    p0 = np.where(off, r0 * y0 / (t + c), e0 * q)
    p1 = np.where(off, y1 / t, e1 * np.sqrt(1.0 - q * q))
    return np.hypot(p0 - y0, np.where(off, p1 - y1, p1)), p0, p1


@dataclass(frozen=True, eq=False)
class Disk:
    """Disk of given center and radius."""

    center: tuple[float, float]
    radius: float
    density: float = 1.0

    def __post_init__(self):
        if not (self.radius > 0):
            raise ValueError("disk radius must be positive")
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))

    def contains(self, x) -> np.ndarray:
        dx, dy = _offsets(x, self.center)
        return dx * dx + dy * dy <= self.radius * self.radius

    def bbox_halfwidths(self) -> tuple[float, float]:
        return self.radius, self.radius

    def support_radius(self) -> float:
        return math.hypot(*self.center) + self.radius

    def area(self) -> float:
        return math.pi * self.radius * self.radius

    def boundary_distance(self, x, normal: bool = False):
        """Distance from point(s) ``x`` of shape ``(..., 2)`` to the boundary; with
        ``normal=True``, ``(distance, outward unit normal at the nearest point)``."""
        dx, dy = _offsets(x, self.center)
        rho = np.hypot(dx, dy)
        dist = np.abs(rho - self.radius)
        return (dist, _radial(dx, dy, rho)) if normal else dist

    def chord_interval(self, phi, s):
        """Intersection interval(s) of the lines ``(phi, s)`` with the shape.

        Returns ``(t0, t1)`` arrays over the broadcast shape of ``phi`` and
        ``s``; ``t0 > t1`` encodes an empty intersection.
        """
        return _disk_chord(self.center, self.radius, phi, s)

    def points_with_normal(self, e):
        """Boundary points whose outward normal is parallel to ``+-e``."""
        e = _unit(e)
        c = np.asarray(self.center)
        out = []
        for sign in (1.0, -1.0):
            out.append((c + sign * self.radius * e, sign * e, 1.0 / self.radius))
        return out


@dataclass(frozen=True, eq=False)
class Ellipse:
    """Ellipse with semi-axes ``(a, b)``; ``angle`` rotates the a-axis."""

    center: tuple[float, float]
    a: float
    b: float
    angle: float = 0.0
    density: float = 1.0

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValueError("ellipse semi-axes must be positive")
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))

    def _unit_axes(self, x):
        """Offsets of ``x`` from the centre along the a- and b-axes, over ``a`` and ``b``."""
        dx, dy = _offsets(x, self.center)
        ca, sa = math.cos(self.angle), math.sin(self.angle)
        return (ca * dx + sa * dy) / self.a, (-sa * dx + ca * dy) / self.b

    def contains(self, x) -> np.ndarray:
        u, v = self._unit_axes(x)
        return u * u + v * v <= 1.0

    def gauge(self, x) -> np.ndarray:
        """The gauge ``sqrt(u^2 + v^2)`` of point(s) ``x``, with ``(u, v)`` the
        offset from the centre in the ellipse's axes over ``(a, b)``: 1 on the
        boundary, below 1 inside."""
        u, v = self._unit_axes(x)
        return np.sqrt(u * u + v * v)

    def bbox_halfwidths(self) -> tuple[float, float]:
        ca, sa = math.cos(self.angle), math.sin(self.angle)
        wx = math.hypot(self.a * ca, self.b * sa)
        wy = math.hypot(self.a * sa, self.b * ca)
        return wx, wy

    def support_radius(self) -> float:
        return math.hypot(*self.center) + max(self.a, self.b)

    def area(self) -> float:
        return math.pi * self.a * self.b

    def boundary_distance(self, x, normal: bool = False):
        dx, dy = _offsets(x, self.center)
        ca, sa = math.cos(self.angle), math.sin(self.angle)
        k = 1 if self.a >= self.b else -1           # orders (major, minor)
        (e0, e1), (y0, y1) = (self.a, self.b)[::k], (ca * dx + sa * dy, ca * dy - sa * dx)[::k]
        dist, p0, p1 = _ellipse_nearest(e0, e1, np.abs(y0).ravel(), np.abs(y1).ravel())
        dist = dist.reshape(dx.shape)
        if not normal:
            return dist
        # The form's gradient (p0 / e0^2, p1 / e1^2) at the nearest point,
        # scaled by e1^2, with the signs of the point's own quadrant.
        gu, gv = (np.copysign(p0.reshape(dx.shape) * (e1 / e0) ** 2, y0),
                  np.copysign(p1.reshape(dx.shape), y1))[::k]
        g = np.hypot(gu, gv)
        return dist, np.stack([(ca * gu - sa * gv) / g, (sa * gu + ca * gv) / g], axis=-1)

    def chord_interval(self, phi, s):
        # Along x(t) = s theta + t theta_perp the membership form is a
        # quadratic in t; in the rotated frame the standard chord formula
        # 2ab sqrt(q^2 - s'^2)/q^2 applies with q^2 = a^2 cos^2 + b^2 sin^2.
        s = np.asarray(s, dtype=float)
        cx, cy = self.center
        c, sn = np.cos(phi), np.sin(phi)
        beta = phi - self.angle
        q2 = (self.a * np.cos(beta)) ** 2 + (self.b * np.sin(beta)) ** 2
        se = s - (cx * c + cy * sn)
        disc = q2 - se * se
        hit = disc >= 0.0
        half = self.a * self.b * np.sqrt(np.maximum(disc, 0.0)) / q2
        # chord midpoint along t: stationary point of the membership quadratic;
        # in the ellipse frame (rotated by -angle) theta is (u, v), theta_perp (-v, u)
        ca, sa = math.cos(self.angle), math.sin(self.angle)
        u, v = ca * c + sa * sn, ca * sn - sa * c
        A = (v / self.a) ** 2 + (u / self.b) ** 2
        Bh = u * v / self.b**2 - u * v / self.a**2
        # local line offset: x_local = (s - c.th) th_l + (t - c.tp) tp_l
        tm = (cy * c - cx * sn) - (Bh / A) * se
        t0 = np.where(hit, tm - half, 1.0)
        t1 = np.where(hit, tm + half, -1.0)
        return t0, t1

    def points_with_normal(self, e):
        e = _unit(e)
        ca, sa = math.cos(self.angle), math.sin(self.angle)
        R = np.array([[ca, -sa], [sa, ca]])
        m = R.T @ e                      # requested normal in the ellipse frame
        denom = math.hypot(self.a * m[0], self.b * m[1])
        loc = np.array([self.a**2 * m[0], self.b**2 * m[1]]) / denom
        cpsi, spsi = loc[0] / self.a, loc[1] / self.b
        curv = (self.a * self.b
                / ((self.a * spsi) ** 2 + (self.b * cpsi) ** 2) ** 1.5)
        c = np.asarray(self.center)
        out = []
        for sign in (1.0, -1.0):
            out.append((c + sign * (R @ loc), sign * e, float(curv)))
        return out


@dataclass(frozen=True, eq=False)
class ClippedDisk:
    """Disk intersected with the half-plane ``clip_normal . (x - c) <= clip_offset``.

    ``clip_offset`` must satisfy ``|clip_offset| < radius`` for an actual
    clip; the straight boundary segment has zero curvature.
    """

    center: tuple[float, float]
    radius: float
    clip_normal: tuple[float, float] = (1.0, 0.0)
    clip_offset: float = 0.0
    density: float = 1.0

    def __post_init__(self):
        if not (self.radius > 0):
            raise ValueError("disk radius must be positive")
        if not (abs(self.clip_offset) < self.radius):
            raise ValueError("clip offset must satisfy |d| < radius")
        n = _unit(self.clip_normal)
        object.__setattr__(self, "clip_normal", (float(n[0]), float(n[1])))
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))

    def contains(self, x) -> np.ndarray:
        dx, dy = _offsets(x, self.center)
        nx, ny = self.clip_normal
        in_disk = dx * dx + dy * dy <= self.radius * self.radius
        in_half = nx * dx + ny * dy <= self.clip_offset
        return in_disk & in_half

    def bbox_halfwidths(self) -> tuple[float, float]:
        return self.radius, self.radius

    def support_radius(self) -> float:
        return math.hypot(*self.center) + self.radius

    def area(self) -> float:
        # full disk minus the circular segment beyond the clip line
        r, d = self.radius, self.clip_offset
        seg = r * r * math.acos(d / r) - d * math.sqrt(r * r - d * d)
        return math.pi * r * r - seg

    def boundary_distance(self, x, normal: bool = False):
        """The nearer of the kept arc and the chord segment."""
        dx, dy = _offsets(x, self.center)
        nx, ny = self.clip_normal
        r, d = self.radius, self.clip_offset
        half = math.sqrt(r * r - d * d)
        u, w = nx * dx + ny * dy, nx * dy - ny * dx     # along the normal, the chord
        v = np.abs(w)
        rho = np.hypot(dx, dy)
        chord = np.hypot(u - d, np.maximum(v - half, 0.0))
        arc = np.abs(rho - r)
        # Where the ray from the centre through x meets the kept arc, the
        # arc's nearest point is the circle's; elsewhere it is a corner of
        # the chord, never nearer than the chord itself.
        on_arc = (u * r <= d * rho) & (arc < chord)
        dist = np.where(on_arc, arc, chord)
        if not normal:
            return dist
        # On the chord the normal is the clip normal; beyond a chord end, the
        # unit vector from that corner to x (there chord >= v - half > 0).
        beyond = v > half
        nu = np.divide(u - d, chord, out=np.ones(dist.shape), where=beyond)
        nw = np.divide(np.copysign(v - half, w), chord, out=np.zeros(dist.shape), where=beyond)
        flat = np.stack([nu * nx - nw * ny, nu * ny + nw * nx], axis=-1)
        return dist, np.where(on_arc[..., None], _radial(dx, dy, rho), flat)

    def chord_interval(self, phi, s):
        t0, t1 = _disk_chord(self.center, self.radius, phi, s)
        # intersect with n . (x(t) - c) = off + t g <= clip_offset, linear in t
        (cx, cy), (nx, ny) = self.center, self.clip_normal
        c, sn = np.cos(phi), np.sin(phi)
        g = ny * c - nx * sn
        off = (nx * c + ny * sn) * s - (nx * cx + ny * cy)
        # A line parallel to the clip line (|g| < 1e-15) is kept whole or
        # dropped; any other is cut at tb, dividing only where it is.
        par = np.abs(g) < 1e-15
        tb = np.divide(self.clip_offset - off, g, out=np.zeros(off.shape), where=~par)
        t0 = np.where(~par & (g < 0.0), np.maximum(t0, tb), t0)
        t1 = np.where(~par & (g > 0.0), np.minimum(t1, tb), t1)
        drop = par & (off > self.clip_offset)
        return np.where(drop, 1.0, t0), np.where(drop, -1.0, t1)

    def points_with_normal(self, e):
        e = _unit(e)
        c = np.asarray(self.center)
        n = np.asarray(self.clip_normal)
        out = []
        for sign in (1.0, -1.0):
            p = c + sign * self.radius * e
            if float(n @ (p - c)) <= self.clip_offset:
                out.append((p, sign * e, 1.0 / self.radius))
        # straight segment contributes when its fixed normal matches
        if abs(abs(float(n @ e)) - 1.0) <= NORMAL_TOL:
            out.append((c + self.clip_offset * n, n.copy(), 0.0))
        return out


Shape = Disk | Ellipse | ClippedDisk


@dataclass(frozen=True, eq=False)
class EdgeSingularity:
    """A boundary point whose normal aligns with a window boundary direction."""

    point: np.ndarray
    normal: np.ndarray
    boundary_curvature: float
    j: int

    def __post_init__(self):
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float))
        object.__setattr__(self, "normal", np.asarray(self.normal, dtype=float))


@dataclass(frozen=True, eq=False)
class Phantom:
    """Additive superposition of weighted convex shapes."""

    shapes: tuple[Shape, ...]

    def __post_init__(self):
        object.__setattr__(self, "shapes", tuple(self.shapes))

    def evaluate(self, x) -> np.ndarray:
        """Sum of shape densities at point(s) ``x`` of shape ``(..., 2)``."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1])
        for sh in self.shapes:
            out += sh.density * sh.contains(x)
        return out

    def support_radius(self) -> float:
        if not self.shapes:
            return 0.0
        return max(sh.support_radius() for sh in self.shapes)

    def fits_inside(self, grid: ImageGrid) -> bool:
        L = grid.extent
        for sh in self.shapes:
            wx, wy = sh.bbox_halfwidths()
            cx, cy = sh.center
            if abs(cx) + wx >= L or abs(cy) + wy >= L:
                return False
        return True

    def boundary_distance(self, x) -> np.ndarray:
        """Exact distance from point(s) ``x`` to the nearest shape boundary; inf without shapes."""
        return np.min([np.full(np.shape(x)[:-1], np.inf)]
                      + [sh.boundary_distance(x) for sh in self.shapes], axis=0)


def rasterize(phantom: Phantom, grid: ImageGrid) -> Raster:
    """Sample the phantom on the pixel lattice.

    Pixel values are the summed densities of the shapes containing the
    pixel center.  The image is evaluated in blocks of whole rows of about
    ``BLOCK_PIXELS`` pixels, so the point planes and each shape's
    membership test stay block-sized; every pixel has the bits of a
    whole-image evaluation.
    """
    if not phantom.fits_inside(grid):
        raise ValueError("phantom does not fit strictly inside the image extent")
    ax = grid.axis()
    out = np.empty((grid.n, grid.n))
    step = max(1, _util.BLOCK_PIXELS // grid.n)
    for r0 in range(0, grid.n, step):
        X, Y = np.meshgrid(ax, ax[r0:r0 + step])
        out[r0:r0 + step] = phantom.evaluate(np.stack([X, Y], axis=-1))
    return Raster(grid, out)


# Gauss-Legendre rules (nodes, weights) on [-1, 1].  One node is exact for
# a constant weight.  16 nodes integrate a weight that is smooth along the
# chord to rounding: exponential weights with |lam| <= 3 on chords up to
# 1.8 long agree with their closed form to about 1e-15.
_RULE_CONSTANT = np.polynomial.legendre.leggauss(1)
SMOOTH_NODES = 16
_RULE_SMOOTH = np.polynomial.legendre.leggauss(SMOOTH_NODES)


def analytic_sinogram_row(phantom: Phantom, mu, phi, s) -> np.ndarray:
    """Weighted line integrals of the phantom along the lines ``(phi, s)``.

    ``phi`` is one angle or an array of them: the result has shape
    ``phi.shape + s.shape``, and each row the bits of a call for its angle
    alone.  Every shape's chord ``[t0, t1]`` is closed form; the weight
    ``mu(x(t), phi)`` is integrated over it with a fixed Gauss-Legendre
    rule: one node for a constant weight (exact, no points built), 16
    nodes otherwise, which assumes a weight smooth along each chord.
    Lines missing (or tangent to) every shape yield 0.
    """
    s, phi = np.asarray(s, dtype=float), np.asarray(phi, dtype=float)
    if not phantom.shapes:
        return np.zeros(phi.shape + s.shape)
    phi = phi.reshape(phi.shape + (1,) * s.ndim)
    chords = np.array([sh.chord_interval(phi, s) for sh in phantom.shapes])
    t0, t1 = chords[:, 0], chords[:, 1]            # (n_shapes, *phi.shape, *s.shape)
    # An empty chord becomes [0, 0]: its ends can lie far out on the line
    # (a clip line nearly parallel to it), where the weight may overflow.
    hit = t1 > t0
    t0, t1 = np.where(hit, t0, 0.0), np.where(hit, t1, 0.0)
    half = 0.5 * (t1 - t0)
    if mu.kind == "constant":
        # the one-node sum of the rule, without its point planes
        chord_integrals = half * (mu.params[0] * _RULE_CONSTANT[1][0])
    else:
        nodes, weights = _RULE_SMOOTH
        t = (0.5 * (t0 + t1))[..., None] + half[..., None] * nodes
        # x(t) = s theta + t theta_perp, shape (n_shapes, *t0.shape[1:], nodes, 2)
        c, sn = np.cos(phi)[..., None], np.sin(phi)[..., None]
        pts = np.stack([s[..., None] * c - t * sn, s[..., None] * sn + t * c], axis=-1)
        chord_integrals = half * (mu(pts, phi[..., None]) * weights).sum(axis=-1)
    density = np.array([sh.density for sh in phantom.shapes])
    return (density.reshape((-1,) + (1,) * (chords.ndim - 2)) * chord_integrals).sum(axis=0)


def edge_singularities(phantom: Phantom, window: AngularWindow) -> list[EdgeSingularity]:
    """Boundary points whose outward normal is parallel to ``+-e1`` or ``+-e2``.

    Each returned singularity is tagged with the matching window boundary
    index ``j`` and carries the boundary curvature at that point (1/r for
    circular arcs, 0 for straight clip segments).
    """
    out: list[EdgeSingularity] = []
    for j in (1, 2):
        e = window.boundary_direction(j)
        for sh in phantom.shapes:
            for point, normal, curv in sh.points_with_normal(e):
                out.append(EdgeSingularity(point, normal, curv, j))
    return out
