"""Discrete weighted X-ray transform and weighted back-projection.

The forward transform evaluates ``g(phi, s) = integral over {x.theta = s}
of mu(x, theta) f(x)``; the back-projection evaluates
``integral over the angular range of kappa(phi) nu(x, phi) g(phi, x.theta)``.
Both are plain quadrature rules.  The raster forward operator is Joseph's
projector (Joseph, IEEE TMI 1(3):192-196, 1982): one step per pixel line
across the dominant direction of the line, with linear interpolation
within that pixel line.  The back-projection is trapezoid (or
uniform-periodic) in ``phi`` with linear interpolation in ``s``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import for_each_chunk
from .geometry import AngularWindow, ImageGrid, Raster, SinogramGrid
from .phantoms import Phantom, analytic_sinogram_row

# Pixels per back-projection block: one float64 plane of it is 256 KiB,
# so the k-study's four accumulators and the block's temporaries stay in
# cache while every active angle is added to them.
BLOCK_PIXELS = 32768


class WeightFunction:
    """Strictly positive smooth weight ``w(x, phi)`` on image x direction.

    Instances are callable: ``w(x, phi)`` with ``x`` of shape ``(..., 2)``
    and ``phi`` a scalar or array broadcastable against ``x[..., 0]``.
    The result broadcasts against ``x[..., 0]`` and ``phi`` but need not
    have their full shape: a constant weight returns the scalar ``c``, so
    every caller multiplies by the weight on one path whatever its kind.
    """

    def __init__(self, fn, kind: str = "custom", params: tuple = ()):
        self._fn = fn
        self.kind = kind
        self.params = params

    def __call__(self, x, phi):
        return self._fn(np.asarray(x, dtype=float), phi)

    def __repr__(self):
        args = " ".join(repr(p) for p in self.params)
        return f"WeightFunction({self.kind}{' ' + args if args else ''})"

    @classmethod
    def constant(cls, c: float) -> "WeightFunction":
        if not (0 < c < math.inf):
            raise ValueError("constant weight must be positive and finite")
        c = float(c)

        def fn(x, phi):
            return c

        return cls(fn, "constant", (c,))

    @classmethod
    def exponential(cls, lam: float, mode: str = "perp") -> "WeightFunction":
        """Weight ``exp(lam * x . theta_perp)`` (or ``x . theta`` for ``mode="parallel"``)."""
        if mode not in ("perp", "parallel"):
            raise ValueError("exponential weight mode must be 'perp' or 'parallel'")
        lam = float(lam)
        if not math.isfinite(lam):
            raise ValueError("exponential weight rate must be finite")

        def fn(x, phi):
            c, s = np.cos(phi), np.sin(phi)
            if mode == "perp":
                proj = -x[..., 0] * s + x[..., 1] * c
            else:
                proj = x[..., 0] * c + x[..., 1] * s
            return np.exp(lam * proj)

        return cls(fn, "exponential", (lam, mode))


@dataclass(frozen=True, eq=False)
class Sinogram:
    """Samples of ``g(phi, s)`` on a :class:`SinogramGrid` (``n_phi x n_s``)."""

    grid: SinogramGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_phi, self.grid.n_s):
            raise ValueError(
                f"sinogram shape {v.shape} does not match grid "
                f"({self.grid.n_phi}, {self.grid.n_s})"
            )
        object.__setattr__(self, "values", v)


def _forward_raster(raster: Raster, mu: WeightFunction, sgrid: SinogramGrid) -> np.ndarray:
    if not np.all(np.isfinite(raster.values)):
        raise ValueError("raster contains non-finite values")
    grid = raster.grid
    n, L, h = grid.n, grid.extent, grid.h
    if sgrid.s_max < math.sqrt(2.0) * L - 1e-12:
        raise ValueError("s_max too small: raster support requires s_max >= sqrt(2) * extent")
    ax = grid.axis()
    s = sgrid.s_values()
    phis = sgrid.phis()
    # flat[0] holds the image rows and flat[1] its columns, each zero-padded
    # with one zero on the left and two on the right, so an index clipped
    # to [0, n + 1] and its right neighbour read 0 off the image.
    img = raster.values
    flat = np.pad(np.stack([img, img.T]), ((0, 0), (0, 0), (1, 2))).reshape(2, -1)
    base = (np.arange(n) * (n + 3))[None, :]

    out = np.empty((sgrid.n_phi, sgrid.n_s))

    def worker(sl: slice) -> None:
        # Crossing points as an (n_s, n, 2) view of two contiguous planes.
        xy = np.empty((2, sgrid.n_s, n))
        pts = np.moveaxis(xy, 0, -1)
        for i in range(sl.start, sl.stop):
            c, sn = math.cos(phis[i]), math.sin(phis[i])
            # One step per pixel line along the line's dominant axis: the
            # rows (y = a_j) when |cos| >= |sin|, the columns (x = a_j) otherwise.
            k = 0 if abs(c) >= abs(sn) else 1
            a, b = (c, sn) if k == 0 else (sn, c)
            u, v = xy[k], xy[1 - k]
            np.subtract(s[:, None], ax * b, out=u)
            u /= a
            v[...] = ax
            q = np.clip((u + L) / h + 0.5, 0.0, n + 1.0)
            # f0 + frac * (f1 - f0) in place: q becomes frac and idx steps
            # to the right neighbour, so each worker holds fewer planes.
            idx = q.astype(np.intp)
            q -= idx
            idx += base
            f0 = flat[k].take(idx)
            idx += 1
            f = flat[k].take(idx)
            f -= f0
            f *= q
            f += f0
            del q, idx, f0
            f *= mu(pts, phis[i])
            out[i] = f.sum(axis=1) * (h / abs(a))

    for_each_chunk(worker, sgrid.n_phi)
    return out


def forward(source: Phantom | Raster, mu: WeightFunction,
            sgrid: SinogramGrid) -> Sinogram:
    """Weighted X-ray transform of a phantom or raster.

    Phantom sources use the analytic path (the oracle), one
    :func:`~limitomo.phantoms.analytic_sinogram_row` per angle: closed-form
    chords with the weight integrated by a fixed Gauss-Legendre rule, exact
    for a constant weight and accurate to rounding for a weight smooth
    along each chord.  Raster sources use Joseph's projector: the line
    crosses each of the ``n`` pixel rows when ``|cos phi| >= |sin phi|``
    (each pixel column otherwise), the raster is interpolated linearly
    within that row or column at the crossing, multiplied by the weight
    there, and the sum is scaled by ``h / max(|cos phi|, |sin phi|)``.
    Beyond the outermost pixel centre a row or column ramps linearly to
    zero over one pixel spacing (half a pixel outside the image edge) and
    is zero further out; this only matters for rasters that are non-zero
    on their border.
    """
    if isinstance(source, Phantom):
        if sgrid.s_max < source.support_radius() - 1e-12:
            raise ValueError("s_max too small: sinogram does not cover the phantom support")
        s = sgrid.s_values()
        phis = sgrid.phis()
        values = np.zeros((sgrid.n_phi, sgrid.n_s))
        for i, phi in enumerate(phis):
            values[i] = analytic_sinogram_row(source, mu, float(phi), s)
        return Sinogram(sgrid, values)
    if isinstance(source, Raster):
        return Sinogram(sgrid, _forward_raster(source, mu, sgrid))
    raise TypeError("source must be a Phantom or a Raster")


def backproject(g: Sinogram, nu: WeightFunction,
                window: AngularWindow | None, igrid: ImageGrid) -> Raster:
    """Weighted, cutoff-modulated back-projection onto an image grid.

    For each pixel ``x`` this accumulates
    ``sum_phi w_phi kappa(phi) nu(x, phi) g(phi, x . theta(phi))`` with
    linear interpolation in ``s``; ``window=None`` means ``kappa == 1``
    over the sinogram's angular range.  The image is bit-identical for
    every thread count.  With ``window=None`` on a full circle and a
    constant weight the angles ``phi`` and ``phi + pi`` may be folded
    first; :func:`backproject_windows` says when, and gives the 1e-13
    tolerance.
    """
    return backproject_windows(g, nu, [window], igrid)[0]


def backproject_windows(g: Sinogram, nu: WeightFunction, windows,
                        igrid: ImageGrid) -> list[Raster]:
    """:func:`backproject` for several windows in one pass over the angles.

    Each active angle interpolates its row at ``x . theta`` and evaluates
    ``nu`` once, then adds the row, times ``w_phi kappa(phi) nu``, to the
    image of every window that uses it.  The image is cut into blocks of
    whole rows, about ``BLOCK_PIXELS`` pixels each, so the accumulators
    stay in cache; each block builds its own pixel points.  One worker per
    usable CPU, and never more workers than blocks, takes a contiguous run
    of whole blocks; the angles are never split.  Each pixel gets the same
    operations in the same order, so each image is bit-identical to a
    single-window call and for every thread count.

    Opposite-angle fold: angle ``phi_i + pi`` reads the line of
    ``phi_i`` at offset ``-s``.  On a full circle with ``n_phi = 2 m``,
    when every window is ``None`` and ``nu`` is a constant weight
    (``nu.kind == "constant"``), row ``i + m`` reversed in ``s`` is added
    to row ``i`` and the same kernel runs over the ``m`` folded rows: half
    the interpolations.  The result is within 1e-13 of the image maximum
    of the unfolded sum, not bitwise, because ``s_values()`` is
    ``linspace`` and not bitwise symmetric.  Every other call (a cutoff, a
    half range, an odd ``n_phi``, any other weight kind) is unfolded, so
    a ``None`` window batched with cutoff windows gets the unfolded bits.
    """
    if not np.all(np.isfinite(g.values)):
        raise ValueError("sinogram contains non-finite values")
    if igrid.pixel_radius > g.grid.s_max + 1e-12:
        raise ValueError(
            "image grid has pixels with |x . theta| > s_max; increase s_max"
        )
    phis = g.grid.phis()
    wphi = g.grid.phi_weights()
    rows = g.values
    s = g.grid.s_values()
    ax = igrid.axis()
    # Opposite-angle fold (see the docstring).  The periodic weights are
    # uniform, so the folded row i keeps w_i.
    m = phis.size // 2
    if (g.grid.periodic and phis.size % 2 == 0 and all(w is None for w in windows)
            and nu.kind == "constant"):
        rows = np.add(rows[:m], rows[m:, ::-1], out=np.empty((m, s.size)))
        phis, wphi = phis[:m], wphi[:m]
    coef = np.array([(1.0 if w is None else w.kappa(phis)) * wphi for w in windows])
    n = igrid.n
    out = np.zeros((len(windows), n * n))
    active = np.nonzero(coef.any(axis=0))[0]
    step = max(1, BLOCK_PIXELS // n)

    def worker(blocks: slice) -> None:
        # Whole blocks of image rows, each a contiguous run of pixels; the
        # slices stop the last block at the image's last row.
        for r0 in range(blocks.start * step, blocks.stop * step, step):
            px = slice(r0 * n, (r0 + step) * n)
            y = ax[r0:r0 + step]
            pts = np.stack(np.meshgrid(ax, y, copy=False), axis=-1).reshape(-1, 2)
            for i in active:
                c, sn = math.cos(phis[i]), math.sin(phis[i])
                gi = np.interp(ax * c + y[:, None] * sn, s, rows[i]).ravel()
                nu_i = nu(pts, phis[i])
                for k in np.nonzero(coef[:, i])[0]:
                    out[k, px] += (coef[k, i] * nu_i) * gi
                # Free this angle's planes before the next one allocates its own.
                del gi, nu_i

    for_each_chunk(worker, math.ceil(n / step))
    return [Raster(igrid, img.reshape(n, n)) for img in out]
