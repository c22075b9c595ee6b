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


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = float(np.hypot(v[0], v[1]))
    if n == 0.0:
        raise ValueError("zero vector cannot be normalized")
    return v / n


def _rot(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def _disk_chord(center, radius: float, phi: float, s):
    """Chord ``(t0, t1)`` of the circle ``|x - center| <= radius``; ``t0 > t1`` if missed."""
    s = np.asarray(s, dtype=float)
    c = np.asarray(center)
    d = c @ theta(phi) - s          # line misses if |d| > r
    disc = radius * radius - d * d
    hit = disc >= 0.0
    half = np.sqrt(np.maximum(disc, 0.0))
    tm = float(c @ theta_perp(phi))
    return np.where(hit, tm - half, 1.0), np.where(hit, tm + half, -1.0)


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
        x = np.asarray(x, dtype=float)
        dx = x[..., 0] - self.center[0]
        dy = x[..., 1] - self.center[1]
        return dx * dx + dy * dy <= self.radius * self.radius

    def bbox_halfwidths(self) -> tuple[float, float]:
        return self.radius, self.radius

    def support_radius(self) -> float:
        return math.hypot(*self.center) + self.radius

    def area(self) -> float:
        return math.pi * self.radius * self.radius

    def chord_interval(self, phi: float, s):
        """Intersection interval(s) of the line ``(phi, s)`` with the shape.

        Returns ``(t0, t1)`` arrays over the broadcast shape of ``s``;
        ``t0 > t1`` encodes an empty intersection.
        """
        return _disk_chord(self.center, self.radius, phi, s)

    def boundary_points(self, m: int = 1024):
        """Sample points, outward unit normals and curvatures along the boundary."""
        psi = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
        nrm = np.stack([np.cos(psi), np.sin(psi)], axis=-1)
        pts = np.asarray(self.center) + self.radius * nrm
        curv = np.full(m, 1.0 / self.radius)
        return pts, nrm, curv

    def points_with_normal(self, e, tol: float = 1e-9):
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
        x = np.asarray(x, dtype=float)
        dx = x[..., 0] - self.center[0]
        dy = x[..., 1] - self.center[1]
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

    def chord_interval(self, phi: float, s):
        # Along x(t) = s theta + t theta_perp the membership form is a
        # quadratic in t; in the rotated frame the standard chord formula
        # 2ab sqrt(q^2 - s'^2)/q^2 applies with q^2 = a^2 cos^2 + b^2 sin^2.
        s = np.asarray(s, dtype=float)
        c = np.asarray(self.center)
        beta = phi - self.angle
        q2 = (self.a * math.cos(beta)) ** 2 + (self.b * math.sin(beta)) ** 2
        th = theta(phi)
        se = s - c @ th
        disc = q2 - se * se
        hit = disc >= 0.0
        half = self.a * self.b * np.sqrt(np.maximum(disc, 0.0)) / q2
        # chord midpoint along t: stationary point of the membership quadratic
        tp = theta_perp(phi)
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

    def boundary_points(self, m: int = 1024):
        psi = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
        R = _rot(self.angle)
        loc = np.stack([self.a * np.cos(psi), self.b * np.sin(psi)], axis=-1)
        pts = np.asarray(self.center) + loc @ R.T
        nl = np.stack([np.cos(psi) / self.a, np.sin(psi) / self.b], axis=-1)
        nl = nl / np.linalg.norm(nl, axis=-1, keepdims=True)
        nrm = nl @ R.T
        curv = (self.a * self.b
                / ((self.a * np.sin(psi)) ** 2 + (self.b * np.cos(psi)) ** 2) ** 1.5)
        return pts, nrm, curv

    def points_with_normal(self, e, tol: float = 1e-9):
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
        x = np.asarray(x, dtype=float)
        dx = x[..., 0] - self.center[0]
        dy = x[..., 1] - self.center[1]
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

    def chord_interval(self, phi: float, s):
        s = np.asarray(s, dtype=float)
        c = np.asarray(self.center)
        th = theta(phi)
        tp = theta_perp(phi)
        t0, t1 = _disk_chord(self.center, self.radius, phi, s)
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

    def boundary_points(self, m: int = 1024):
        c = np.asarray(self.center)
        n = np.asarray(self.clip_normal)
        alpha = math.atan2(n[1], n[0])
        beta = math.acos(self.clip_offset / self.radius)
        # kept arc: angles (relative to the clip normal) in [beta, 2 pi - beta]
        arc_len = (2.0 * math.pi - 2.0 * beta) * self.radius
        chord_half = math.sqrt(self.radius**2 - self.clip_offset**2)
        seg_len = 2.0 * chord_half
        m_arc = max(int(round(m * arc_len / (arc_len + seg_len))), 8)
        m_seg = max(m - m_arc, 8)
        psi = alpha + np.linspace(beta, 2.0 * math.pi - beta, m_arc)
        nrm_arc = np.stack([np.cos(psi), np.sin(psi)], axis=-1)
        pts_arc = c + self.radius * nrm_arc
        curv_arc = np.full(m_arc, 1.0 / self.radius)
        tvec = np.array([-n[1], n[0]])
        tpar = np.linspace(-chord_half, chord_half, m_seg)
        pts_seg = c + self.clip_offset * n + tpar[:, None] * tvec
        nrm_seg = np.tile(n, (m_seg, 1))
        curv_seg = np.zeros(m_seg)
        return (np.concatenate([pts_arc, pts_seg]),
                np.concatenate([nrm_arc, nrm_seg]),
                np.concatenate([curv_arc, curv_seg]))

    def points_with_normal(self, e, tol: float = 1e-9):
        e = _unit(e)
        c = np.asarray(self.center)
        n = np.asarray(self.clip_normal)
        out = []
        for sign in (1.0, -1.0):
            p = c + sign * self.radius * e
            if float(n @ (p - c)) <= self.clip_offset:
                out.append((p, sign * e, 1.0 / self.radius))
        # straight segment contributes when its fixed normal matches
        if abs(abs(float(n @ e)) - 1.0) <= tol:
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

    def boundary_cloud(self, points_per_shape: int = 2048):
        """Concatenated boundary samples of all shapes.

        Returns ``(points, normals, curvatures, shape_index)``.
        """
        pts, nrm, curv, idx = [], [], [], []
        for i, sh in enumerate(self.shapes):
            p, n, c = sh.boundary_points(points_per_shape)
            pts.append(p)
            nrm.append(n)
            curv.append(c)
            idx.append(np.full(len(p), i))
        if not pts:
            z = np.zeros((0, 2))
            return z, z, np.zeros(0), np.zeros(0, dtype=int)
        return (np.concatenate(pts), np.concatenate(nrm),
                np.concatenate(curv), np.concatenate(idx).astype(int))


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
    nodes, weights = _RULE_CONSTANT if getattr(mu, "kind", None) == "constant" else _RULE_SMOOTH
    chords = np.array([sh.chord_interval(phi, s) for sh in phantom.shapes])
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


def edge_singularities(phantom: Phantom, window: AngularWindow,
                       tol: float = 1e-9) -> list[EdgeSingularity]:
    """Boundary points whose outward normal is parallel to ``+-e1`` or ``+-e2``.

    Each returned singularity is tagged with the matching window boundary
    index ``j`` and carries the boundary curvature at that point (1/r for
    circular arcs, 0 for straight clip segments).
    """
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    out: list[EdgeSingularity] = []
    for j in (1, 2):
        e = window.boundary_direction(j)
        for sh in phantom.shapes:
            for point, normal, curv in sh.points_with_normal(e, tol):
                out.append(EdgeSingularity(point, normal, curv, j))
    return out
