"""Piecewise-constant test objects with closed-form line geometry.

Phantoms are additive superpositions of convex shapes (disks, ellipses and
half-plane-clipped disks).  Because every supported shape is convex with an
analytically known boundary, chord lengths, boundary normals, curvatures
and areas are all available in closed form.  The analytic sinogram row
below (:func:`analytic_sinogram_row`) serves as the oracle for the
discrete forward transform: it integrates the weight over each
closed-form chord with a fixed Gauss-Legendre rule, exact for a constant
weight and accurate to rounding for a weight that is smooth along the
chord.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import AngularWindow, ImageGrid, Raster, theta, theta_perp

# Boundary samples per shape in :meth:`Phantom.boundary_cloud`.
BOUNDARY_POINTS = 2048

# How far ``|n . e|`` of a clip edge may be from 1 for its normal to count
# as parallel to ``e`` in :func:`edge_singularities`.
NORMAL_TOL = 1e-9


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = float(np.hypot(v[0], v[1]))
    if n == 0.0:
        raise ValueError("zero vector cannot be normalized")
    return v / n


def _rot(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def _frame(phi: float, frame):
    """``(theta(phi), theta_perp(phi))``, or ``frame`` when the caller has it."""
    return (theta(phi), theta_perp(phi)) if frame is None else frame


def _disk_chord(center, radius: float, th, tp, s):
    """Chord ``(t0, t1)`` of the circle ``|x - center| <= radius``; ``t0 > t1`` if missed."""
    s = np.asarray(s, dtype=float)
    c = np.asarray(center)
    d = c @ th - s                  # line misses if |d| > r
    disc = radius * radius - d * d
    hit = disc >= 0.0
    half = np.sqrt(np.maximum(disc, 0.0))
    tm = float(c @ tp)
    return np.where(hit, tm - half, 1.0), np.where(hit, tm + half, -1.0)


def _offsets(x, center):
    """Components of ``x - center`` for point(s) ``x`` of shape ``(..., 2)``."""
    x = np.asarray(x, dtype=float)
    return x[..., 0] - center[0], x[..., 1] - center[1]


def _ellipse_distance(e0: float, e1: float, y0: np.ndarray, y1: np.ndarray) -> np.ndarray:
    """Distance from points ``(y0, y1) >= 0`` (1-D) to the ellipse with semi-axes ``e0 >= e1``.

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
    off_axis = np.hypot(r0 * y0 / (t + c) - y0, y1 / t - y1)
    # On the major axis the nearest point is (e0 q, e1 sqrt(1 - q^2)) with
    # q = e0 y0 / (e0^2 - e1^2) while that is below 1, else the vertex.
    d = e0 * e0 - e1 * e1
    q = np.divide(e0 * y0, d, out=np.ones(y0.shape), where=e0 * y0 < d)
    return np.where(off, off_axis, np.hypot(e0 * q - y0, e1 * np.sqrt(1.0 - q * q)))


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

    def boundary_distance(self, x) -> np.ndarray:
        """Distance from point(s) ``x`` of shape ``(..., 2)`` to the boundary."""
        return np.abs(np.hypot(*_offsets(x, self.center)) - self.radius)

    def chord_interval(self, phi: float, s, frame=None):
        """Intersection interval(s) of the line ``(phi, s)`` with the shape.

        Returns ``(t0, t1)`` arrays over the broadcast shape of ``s``;
        ``t0 > t1`` encodes an empty intersection.  ``frame`` is
        ``(theta(phi), theta_perp(phi))`` when the caller has computed it.
        """
        return _disk_chord(self.center, self.radius, *_frame(phi, frame), s)

    def boundary_points(self):
        """``BOUNDARY_POINTS`` points and outward unit normals along the boundary."""
        psi = np.linspace(0.0, 2.0 * math.pi, BOUNDARY_POINTS, endpoint=False)
        nrm = np.stack([np.cos(psi), np.sin(psi)], axis=-1)
        return np.asarray(self.center) + self.radius * nrm, nrm

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

    def contains(self, x) -> np.ndarray:
        dx, dy = _offsets(x, self.center)
        ca, sa = math.cos(self.angle), math.sin(self.angle)
        u = (ca * dx + sa * dy) / self.a
        v = (-sa * dx + ca * dy) / self.b
        return u * u + v * v <= 1.0

    def bbox_halfwidths(self) -> tuple[float, float]:
        ca, sa = math.cos(self.angle), math.sin(self.angle)
        wx = math.hypot(self.a * ca, self.b * sa)
        wy = math.hypot(self.a * sa, self.b * ca)
        return wx, wy

    def support_radius(self) -> float:
        return math.hypot(*self.center) + max(self.a, self.b)

    def area(self) -> float:
        return math.pi * self.a * self.b

    def boundary_distance(self, x) -> np.ndarray:
        dx, dy = _offsets(x, self.center)
        ca, sa = math.cos(self.angle), math.sin(self.angle)
        u, v = np.abs(ca * dx + sa * dy).ravel(), np.abs(ca * dy - sa * dx).ravel()
        args = (self.a, self.b, u, v) if self.a >= self.b else (self.b, self.a, v, u)
        return _ellipse_distance(*args).reshape(dx.shape)

    def chord_interval(self, phi: float, s, frame=None):
        # Along x(t) = s theta + t theta_perp the membership form is a
        # quadratic in t; in the rotated frame the standard chord formula
        # 2ab sqrt(q^2 - s'^2)/q^2 applies with q^2 = a^2 cos^2 + b^2 sin^2.
        s = np.asarray(s, dtype=float)
        c = np.asarray(self.center)
        beta = phi - self.angle
        q2 = (self.a * math.cos(beta)) ** 2 + (self.b * math.sin(beta)) ** 2
        th, tp = _frame(phi, frame)
        se = s - c @ th
        disc = q2 - se * se
        hit = disc >= 0.0
        half = self.a * self.b * np.sqrt(np.maximum(disc, 0.0)) / q2
        # chord midpoint along t: stationary point of the membership quadratic
        ca, sa = math.cos(self.angle), math.sin(self.angle)
        R = np.array([[ca, sa], [-sa, ca]])      # world -> ellipse frame
        thl = R @ th
        tpl = R @ tp
        A = (tpl[0] / self.a) ** 2 + (tpl[1] / self.b) ** 2
        Bh = thl[0] * tpl[0] / self.a**2 + thl[1] * tpl[1] / self.b**2
        # local line offset: x_local = (s - c.th) th_l + (t - c.tp) tp_l
        tm = float(c @ tp) - (Bh / A) * se
        t0 = np.where(hit, tm - half, 1.0)
        t1 = np.where(hit, tm + half, -1.0)
        return t0, t1

    def boundary_points(self):
        psi = np.linspace(0.0, 2.0 * math.pi, BOUNDARY_POINTS, endpoint=False)
        R = _rot(self.angle)
        loc = np.stack([self.a * np.cos(psi), self.b * np.sin(psi)], axis=-1)
        pts = np.asarray(self.center) + loc @ R.T
        nl = np.stack([np.cos(psi) / self.a, np.sin(psi) / self.b], axis=-1)
        nl = nl / np.linalg.norm(nl, axis=-1, keepdims=True)
        return pts, nl @ R.T

    def points_with_normal(self, e):
        e = _unit(e)
        R = _rot(self.angle)
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

    def boundary_distance(self, x) -> np.ndarray:
        """The nearer of the kept arc and the chord segment."""
        dx, dy = _offsets(x, self.center)
        nx, ny = self.clip_normal
        r, d = self.radius, self.clip_offset
        u, v = nx * dx + ny * dy, np.abs(nx * dy - ny * dx)   # along the normal, the chord
        rho = np.hypot(dx, dy)
        chord = np.hypot(u - d, np.maximum(v - math.sqrt(r * r - d * d), 0.0))
        # Where the ray from the centre through x meets the kept arc, the
        # arc's nearest point is the circle's; elsewhere it is a corner of
        # the chord, never nearer than the chord itself.
        return np.where(u * r <= d * rho, np.minimum(np.abs(rho - r), chord), chord)

    def chord_interval(self, phi: float, s, frame=None):
        s = np.asarray(s, dtype=float)
        c = np.asarray(self.center)
        th, tp = _frame(phi, frame)
        t0, t1 = _disk_chord(self.center, self.radius, th, tp, s)
        # intersect with n . (x(t) - c) = off + t g <= clip_offset, linear in t
        n = np.asarray(self.clip_normal)
        g = float(n @ tp)
        off = (n @ th) * s - float(n @ c)
        if abs(g) < 1e-15:
            keep = off <= self.clip_offset
            t0 = np.where(keep, t0, 1.0)
            t1 = np.where(keep, t1, -1.0)
        else:
            tb = (self.clip_offset - off) / g
            if g > 0:
                t1 = np.minimum(t1, tb)
            else:
                t0 = np.maximum(t0, tb)
        return t0, t1

    def boundary_points(self):
        c = np.asarray(self.center)
        n = np.asarray(self.clip_normal)
        alpha = math.atan2(n[1], n[0])
        beta = math.acos(self.clip_offset / self.radius)
        # kept arc: angles (relative to the clip normal) in [beta, 2 pi - beta]
        arc_len = (2.0 * math.pi - 2.0 * beta) * self.radius
        chord_half = math.sqrt(self.radius**2 - self.clip_offset**2)
        seg_len = 2.0 * chord_half
        m_arc = max(int(round(BOUNDARY_POINTS * arc_len / (arc_len + seg_len))), 8)
        m_seg = max(BOUNDARY_POINTS - m_arc, 8)
        psi = alpha + np.linspace(beta, 2.0 * math.pi - beta, m_arc)
        nrm_arc = np.stack([np.cos(psi), np.sin(psi)], axis=-1)
        pts_arc = c + self.radius * nrm_arc
        tvec = np.array([-n[1], n[0]])
        tpar = np.linspace(-chord_half, chord_half, m_seg)
        pts_seg = c + self.clip_offset * n + tpar[:, None] * tvec
        nrm_seg = np.tile(n, (m_seg, 1))
        return np.concatenate([pts_arc, pts_seg]), np.concatenate([nrm_arc, nrm_seg])

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

    def boundary_cloud(self):
        """Concatenated boundary samples of all shapes, ``BOUNDARY_POINTS`` each.

        Returns ``(points, normals, shape_index)``.
        """
        pts, nrm, idx = [], [], []
        for i, sh in enumerate(self.shapes):
            p, n = sh.boundary_points()
            pts.append(p)
            nrm.append(n)
            idx.append(np.full(len(p), i))
        if not pts:
            z = np.zeros((0, 2))
            return z, z, np.zeros(0, dtype=int)
        return np.concatenate(pts), np.concatenate(nrm), np.concatenate(idx).astype(int)


def rasterize(phantom: Phantom, grid: ImageGrid) -> Raster:
    """Sample the phantom on the pixel lattice.

    Pixel values are the summed densities of the shapes containing the
    pixel center.
    """
    if not phantom.fits_inside(grid):
        raise ValueError("phantom does not fit strictly inside the image extent")
    X, Y = grid.centers()
    return Raster(grid, phantom.evaluate(np.stack([X, Y], axis=-1)))


# Gauss-Legendre rules (nodes, weights) on [-1, 1].  One node is exact for
# a constant weight.  16 nodes integrate a weight that is smooth along the
# chord to rounding: exponential weights with |lam| <= 3 on chords up to
# 1.8 long agree with their closed form to about 1e-15.
_RULE_CONSTANT = np.polynomial.legendre.leggauss(1)
_RULE_SMOOTH = np.polynomial.legendre.leggauss(16)


def analytic_sinogram_row(phantom: Phantom, mu, phi: float, s) -> np.ndarray:
    """Weighted line integrals of the phantom along the lines ``(phi, s)``.

    Every shape's chord ``[t0, t1]`` is closed form; the weight
    ``mu(x(t), phi)`` is integrated over it with a fixed Gauss-Legendre
    rule, vectorized over ``s`` and the shapes: one node for a constant
    weight (exact), 16 nodes otherwise.  The rule assumes a weight that is
    smooth along each chord.  Lines missing (or tangent to) every shape
    yield 0.
    """
    s = np.asarray(s, dtype=float)
    if not phantom.shapes:
        return np.zeros(s.shape)
    nodes, weights = _RULE_CONSTANT if mu.kind == "constant" else _RULE_SMOOTH
    frame = (theta(phi), theta_perp(phi))
    chords = np.array([sh.chord_interval(phi, s, frame) for sh in phantom.shapes])
    t0, t1 = chords[:, 0], chords[:, 1]            # (n_shapes, *s.shape)
    # An empty chord becomes [0, 0]: its ends can lie far out on the line
    # (a clip line nearly parallel to it), where the weight may overflow.
    hit = t1 > t0
    t0, t1 = np.where(hit, t0, 0.0), np.where(hit, t1, 0.0)
    half = 0.5 * (t1 - t0)
    t = (0.5 * (t0 + t1))[..., None] + half[..., None] * nodes
    # x(t) = s theta + t theta_perp, shape (n_shapes, *s.shape, nodes, 2)
    c, sn = math.cos(phi), math.sin(phi)
    pts = np.stack([s[..., None] * c - t * sn, s[..., None] * sn + t * c], axis=-1)
    chord_integrals = half * (mu(pts, phi) * weights).sum(axis=-1)
    density = np.array([sh.density for sh in phantom.shapes]).reshape((-1,) + (1,) * s.ndim)
    return (density * chord_integrals).sum(axis=0)


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
