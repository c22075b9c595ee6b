"""Grids, angular windows, and the endpoint cutoff family.

Coordinate conventions used throughout the package:

- image space is the origin-centered square ``[-L, L]^2`` with ``n`` square
  pixels per axis, pixel centers at ``(-L + (i + 1/2) h, -L + (j + 1/2) h)``
  and spacing ``h = 2 L / n``;
- a direction angle ``phi`` names the unit vector
  ``theta(phi) = (cos phi, sin phi)`` with orthogonal complement
  ``theta_perp(phi) = (-sin phi, cos phi)``;
- a line is parametrized by ``(phi, s)`` as ``{x : x . theta(phi) = s}``,
  i.e. ``x(t) = s theta + t theta_perp``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

CUTOFF_KINDS = ("indicator", "finite-order", "infinite-order")

# Largest finite cutoff order: sin(pi/4)**k = 2**(-k/2) stays a normal
# float64 (>= 2**-1022), so the cutoff is nonzero over the middle half of
# the window.
MAX_ORDER = 2044


def theta(phi):
    """Unit direction vector(s) for angle(s) ``phi``, shape ``(..., 2)``."""
    phi = np.asarray(phi, dtype=float)
    return np.stack([np.cos(phi), np.sin(phi)], axis=-1)


def theta_perp(phi):
    """Rotate ``theta(phi)`` by +90 degrees."""
    phi = np.asarray(phi, dtype=float)
    return np.stack([-np.sin(phi), np.cos(phi)], axis=-1)


@dataclass(frozen=True)
class ImageGrid:
    """Origin-centered square pixel lattice on ``[-L, L]^2``.

    Parameters
    ----------
    n : int
        Pixels per axis, at least 8.
    extent : float
        Half-width ``L`` of the square.
    """

    n: int
    extent: float

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 8:
            raise ValueError("ImageGrid.n must be an integer >= 8")
        if not (0 < self.extent < math.inf):
            raise ValueError("ImageGrid.extent must be positive and finite")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "extent", float(self.extent))

    @property
    def h(self) -> float:
        """Pixel spacing ``2 L / n``."""
        return 2.0 * self.extent / self.n

    def axis(self) -> np.ndarray:
        """1-D pixel-center coordinates, shared by both axes."""
        return -self.extent + (np.arange(self.n) + 0.5) * self.h

    def centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid ``(X, Y)`` of pixel centers, indexed ``[iy, ix]``."""
        ax = self.axis()
        return np.meshgrid(ax, ax, indexing="xy")

    @property
    def pixel_radius(self) -> float:
        """Largest distance of a pixel center from the origin."""
        m = self.extent - 0.5 * self.h
        return math.sqrt(2.0) * m


@dataclass(frozen=True, eq=False)
class Raster:
    """A real-valued function sampled on an :class:`ImageGrid`.

    ``values[j, i]`` holds the sample at ``x = axis()[i]``, ``y = axis()[j]``.
    """

    grid: ImageGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n, self.grid.n):
            raise ValueError(
                f"raster shape {v.shape} does not match grid n={self.grid.n}"
            )
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class SinogramGrid:
    """Uniform ``(phi, s)`` sampling lattice.

    The angular range ``[phi0, phi1]`` is either the full circle
    (``phi1 - phi0 == 2 pi``, sampled without the duplicate endpoint and
    integrated with uniform periodic weights) or a proper subinterval
    (sampled inclusively and integrated with trapezoid weights).  Offsets
    are ``n_s`` points spread evenly over ``[-s_max, s_max]`` inclusive,
    symmetric about 0.
    """

    n_phi: int
    n_s: int
    s_max: float
    phi0: float = 0.0
    phi1: float = TWO_PI

    def __post_init__(self):
        if int(self.n_phi) != self.n_phi or self.n_phi < 2:
            raise ValueError("SinogramGrid.n_phi must be an integer >= 2")
        if int(self.n_s) != self.n_s or self.n_s < 2:
            raise ValueError("SinogramGrid.n_s must be an integer >= 2")
        # 2 s_max spans the offsets, so it must be finite too.
        if not (0 < 2.0 * self.s_max < math.inf):
            raise ValueError("SinogramGrid.s_max must be positive, with 2 s_max finite")
        if not (0.0 <= self.phi0 < self.phi1 <= TWO_PI + 1e-12):
            raise ValueError("SinogramGrid requires 0 <= phi0 < phi1 <= 2*pi")
        object.__setattr__(self, "n_phi", int(self.n_phi))
        object.__setattr__(self, "n_s", int(self.n_s))
        object.__setattr__(self, "s_max", float(self.s_max))
        object.__setattr__(self, "phi0", float(self.phi0))
        object.__setattr__(self, "phi1", float(self.phi1))

    @property
    def periodic(self) -> bool:
        """True when the range covers the full circle."""
        return abs((self.phi1 - self.phi0) - TWO_PI) < 1e-9

    @property
    def dphi(self) -> float:
        span = self.phi1 - self.phi0
        return span / self.n_phi if self.periodic else span / (self.n_phi - 1)

    @property
    def ds(self) -> float:
        return 2.0 * self.s_max / (self.n_s - 1)

    def phis(self) -> np.ndarray:
        if self.periodic:
            return self.phi0 + self.dphi * np.arange(self.n_phi)
        return np.linspace(self.phi0, self.phi1, self.n_phi)

    def phi_weights(self) -> np.ndarray:
        """Quadrature weights for integration over the angular range."""
        w = np.full(self.n_phi, self.dphi)
        if not self.periodic:
            w[0] *= 0.5
            w[-1] *= 0.5
        return w

    def s_values(self) -> np.ndarray:
        return np.linspace(-self.s_max, self.s_max, self.n_s)

    def s_weights(self) -> np.ndarray:
        """Trapezoid weights for integration in the offset variable."""
        w = np.full(self.n_s, self.ds)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


@dataclass(frozen=True)
class AngularWindow:
    """Accessible direction arc ``(phi1, phi2)`` with its cutoff.

    The cutoff ``kappa`` is positive on the open arc, zero outside
    ``[phi1, phi2]`` and normalized to 1 at the midpoint.  Three families
    are supported:

    - ``"indicator"``: 1 on the closed arc;
    - ``"finite-order"``: ``sin(pi (phi - phi1) / (phi2 - phi1)) ** k``,
      which vanishes to order exactly ``k`` at both endpoints;
    - ``"infinite-order"``: the standard bump
      ``exp(1 - 1 / (1 - u^2))`` in ``u = 2 (phi - mid) / (phi2 - phi1)``.
    """

    phi1: float
    phi2: float
    kind: str = "finite-order"
    k: int = 1

    def __post_init__(self):
        if self.kind not in CUTOFF_KINDS:
            raise ValueError(f"unknown cutoff kind {self.kind!r}; expected one of {CUTOFF_KINDS}")
        if not (self.phi1 < self.phi2):
            raise ValueError("phi1 < phi2 required")
        if not (0.0 < self.phi1 and self.phi2 < math.pi):
            raise ValueError("window endpoints must lie strictly inside (0, pi)")
        if self.kind == "finite-order":
            if int(self.k) != self.k or not 1 <= self.k <= MAX_ORDER:
                raise ValueError(f"finite-order cutoff requires integer 1 <= k <= {MAX_ORDER}")
        object.__setattr__(self, "phi1", float(self.phi1))
        object.__setattr__(self, "phi2", float(self.phi2))
        object.__setattr__(self, "k", int(self.k))

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.phi1 + self.phi2)

    @property
    def width(self) -> float:
        return self.phi2 - self.phi1

    @property
    def e1(self) -> np.ndarray:
        """Boundary direction ``(cos phi1, sin phi1)``."""
        return np.array([math.cos(self.phi1), math.sin(self.phi1)])

    @property
    def e2(self) -> np.ndarray:
        """Boundary direction ``(cos phi2, sin phi2)``."""
        return np.array([math.cos(self.phi2), math.sin(self.phi2)])

    def boundary_direction(self, j: int) -> np.ndarray:
        if j == 1:
            return self.e1
        if j == 2:
            return self.e2
        raise ValueError("boundary index j must be 1 or 2")

    def kappa(self, phi):
        """Evaluate the cutoff at real angle(s) ``phi``.

        The support lies inside ``(0, pi)``, so direction angles in
        ``[0, 2*pi)`` can be passed directly; no circular wrapping is
        applied.
        """
        phi = np.asarray(phi, dtype=float)
        inside = (phi >= self.phi1) & (phi <= self.phi2)
        out = np.zeros(phi.shape)
        if self.kind == "indicator":
            out[inside] = 1.0
        elif self.kind == "finite-order":
            u = (phi[inside] - self.phi1) / self.width
            out[inside] = np.sin(np.pi * u) ** self.k
        else:
            u = 2.0 * (phi[inside] - self.midpoint) / self.width
            v = np.zeros(u.shape)
            strict = np.abs(u) < 1.0
            v[strict] = np.exp(1.0 - 1.0 / (1.0 - u[strict] ** 2))
            out[inside] = v
        if out.ndim == 0:
            return float(out)
        return out

    def contains_direction(self, psi) -> np.ndarray | bool:
        """Whether the frequency direction at angle ``psi`` is visible.

        A direction is visible when it or its antipode falls in the open
        arc ``(phi1, phi2)``.
        """
        w = np.asarray(psi, dtype=float) % math.pi
        vis = (w > self.phi1) & (w < self.phi2)
        if vis.ndim == 0:
            return bool(vis)
        return vis


def vanishing_order_probe(window: AngularWindow, side: str, h_list) -> float:
    """Estimate the vanishing order of the cutoff at a window endpoint.

    Evaluates ``kappa`` at offsets ``h`` inward from the chosen endpoint and
    returns the least-squares slope of ``log kappa`` against ``log h``.  For
    a finite-order cutoff the slope approximates its order ``k``; for the
    indicator it is ~0.

    Parameters
    ----------
    window : AngularWindow
    side : {"left", "right"}
        Probe at ``phi1 + h`` or ``phi2 - h``.
    h_list : sequence of float
        At least 3 positive offsets, small against the window width.
    """
    h = np.asarray(h_list, dtype=float)
    if h.size < 3:
        raise ValueError("vanishing_order_probe needs at least 3 offsets")
    if np.any(h <= 0):
        raise ValueError("probe offsets must be positive")
    if side == "left":
        phi = window.phi1 + h
    elif side == "right":
        phi = window.phi2 - h
    else:
        raise ValueError("side must be 'left' or 'right'")
    vals = np.asarray(window.kappa(phi), dtype=float)
    vals = np.maximum(vals, 1e-300)
    slope = np.polyfit(np.log(h), np.log(vals), 1)[0]
    return float(slope)
