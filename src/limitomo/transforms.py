"""Discrete weighted X-ray transform and weighted back-projection.

The forward transform evaluates ``g(phi, s) = integral over {x.theta = s}
of mu(x, theta) f(x)``; the back-projection evaluates
``integral over the angular range of kappa(phi) nu(x, phi) g(phi, x.theta)``.
Both are plain quadrature rules.  The raster forward operator is Joseph's
projector (Joseph, IEEE TMI 1(3):192-196, 1982): one step per pixel line
across the dominant direction of the line, with linear interpolation
within that pixel line.  The back-projection is trapezoid (or
uniform-periodic) in ``phi`` with linear interpolation in ``s``.
The exponential weight is ``exp(p0 x) exp(p1 y)`` everywhere, so both
projectors evaluate it per angle as two short ``exp`` vectors.
Both forward paths compute only the lines that can meet the source and
leave every other line at +0.0, so a sparse source costs less and each
computed sample keeps the bits of a full-range evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _util
from .geometry import AngularWindow, ImageGrid, Raster, SinogramGrid
from .phantoms import SMOOTH_NODES, Phantom, analytic_sinogram_row


def _exp_rates(lam: float, mode: str, phi):
    """``(p0, p1) = lam theta_perp`` (``perp``) or ``lam theta``: weight ``exp(p0 x + p1 y)``."""
    c, s = np.cos(phi), np.sin(phi)
    return (-lam * s, lam * c) if mode == "perp" else (lam * c, lam * s)


class WeightFunction:
    """Strictly positive smooth weight ``w(x, phi)`` on image x direction.

    Instances are callable: ``w(x, phi)`` with ``x`` of shape ``(..., 2)``
    and ``phi`` a scalar or array broadcastable against ``x[..., 0]``.
    The result broadcasts against ``x[..., 0]`` and ``phi`` but need not
    have their full shape: a constant weight returns the scalar ``c``.
    The projectors evaluate it by ``kind`` (see :meth:`on_grid` and :func:`forward`).
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

    def on_grid(self, x, y):
        """``phi -> w`` at the points ``(x[j], y[i])``, bit for bit, broadcastable
        to ``(y.size, x.size)``: the scalar, an outer product, or a call on points."""
        if self.kind == "constant":
            return lambda phi: self.params[0]
        if self.kind == "exponential":
            def at(phi):
                p0, p1 = _exp_rates(*self.params, phi)
                return np.exp(p1 * y)[:, None] * np.exp(p0 * x)
            return at
        pts = np.stack(np.meshgrid(x, y, copy=False), axis=-1)
        return lambda phi: self(pts, phi)

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
            p0, p1 = _exp_rates(lam, mode, phi)
            return np.exp(p0 * x[..., 0]) * np.exp(p1 * x[..., 1])

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
    img = raster.values
    out = np.zeros((sgrid.n_phi, sgrid.n_s))
    # The first and last non-zero pixel centre of each image row: the
    # support's extreme projections in every direction lie among them.
    nz = img != 0.0
    rows = np.nonzero(nz.any(axis=1))[0]
    if rows.size == 0:
        return out
    px = ax[np.concatenate([nz[rows].argmax(axis=1), n - 1 - nz[rows, ::-1].argmax(axis=1)])]
    py = np.tile(ax[rows], 2)
    # flat[0] holds the image rows and flat[1] its columns, each zero-padded
    # with one zero on the left and two on the right, so an index clipped
    # to [0, n + 1] and its right neighbour read 0 off the image.
    flat = np.pad(np.stack([img, img.T]), ((0, 0), (0, 0), (1, 2))).reshape(2, -1)
    base = (np.arange(n) * (n + 3))[None, :]

    def worker(sl: slice) -> None:
        for i in range(sl.start, sl.stop):
            c, sn = math.cos(phis[i]), math.sin(phis[i])
            # A sample is non-zero only within |a| h <= h in s of a non-zero
            # pixel centre; the second h absorbs rounding.  The lines outside
            # [lo, hi) meet no non-zero pixel and keep the zeros of out.
            proj = px * c + py * sn
            lo, hi = np.searchsorted(s, (proj.min() - 2.0 * h, proj.max() + 2.0 * h))
            si = s[lo:hi]
            # One step per pixel line along the line's dominant axis: the
            # rows (y = a_j) when |cos| >= |sin|, the columns (x = a_j) otherwise.
            k = 0 if abs(c) >= abs(sn) else 1
            a, b = (c, sn) if k == 0 else (sn, c)
            # Line s crosses pixel line a_j at u = (s - a_j b) / a along it;
            # q = (u + L) / h + 0.5 is that crossing in padded pixels.
            q = np.add.outer(si * (1.0 / (a * h)) + (L / h + 0.5), ax * (-b / (a * h)))
            np.clip(q, 0.0, n + 1.0, out=q)
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
            if mu.kind == "exponential":
                # At the crossing p . x = (p_k / a) s + (p_{1-k} - p_k b / a) a_j:
                # weight each pixel line before the sum and each line's sum
                # after it, so no factor exceeds exp(|lam| max(s_max, sqrt(2) L)).
                p = _exp_rates(*mu.params, phis[i])
                f *= np.exp(ax * (p[1 - k] - p[k] * (b / a)))
                out[i, lo:hi] = f.sum(axis=1) * np.exp(si * (p[k] / a)) * (h / abs(a))
                continue
            if mu.kind == "constant":
                f *= mu.params[0]
            else:  # the weight at each crossing point (u, a_j), in (x, y) order
                xy = (np.subtract.outer(si, ax * b) / a, np.broadcast_to(ax, f.shape))
                f *= mu(np.stack(xy if k == 0 else xy[::-1], axis=-1), phis[i])
            out[i, lo:hi] = f.sum(axis=1) * (h / abs(a))

    _util.for_each_chunk(worker, sgrid.n_phi)
    return out


def forward(source: Phantom | Raster, mu: WeightFunction,
            sgrid: SinogramGrid) -> Sinogram:
    """Weighted X-ray transform of a phantom or raster.

    Phantom sources use the analytic path (the oracle): closed-form chords
    with the weight integrated by a fixed Gauss-Legendre rule, exact for a
    constant weight and accurate to rounding for a weight smooth along each
    chord, one :func:`~limitomo.phantoms.analytic_sinogram_row` call per
    block of angles of about ``BLOCK_PIXELS`` chord nodes.  The blocks run
    serially: a thread pool gained nothing on the 720-angle ``analyze``
    sinogram (2 CPUs) and raised the peak resident set by 4 MB.  Raster
    sources use Joseph's projector: the line crosses each of the ``n``
    pixel rows when ``|cos phi| >= |sin phi|`` (each pixel column
    otherwise), the raster is interpolated linearly within that row or
    column at the crossing, multiplied by the weight there, and the sum is
    scaled by ``h / max(|cos phi|, |sin phi|)``.  The crossing index is one
    outer sum for every weight kind; an exponential weight factors into a
    pixel-line factor, applied before the sum, and an ``s`` factor that
    scales it.  Only lines that can meet the source are computed; the rest
    are +0.0.  The analytic path takes ``|s|`` up to the support radius,
    with one node of margin on each side.  The raster path takes, per
    angle, the ``s`` within ``2h`` of the projections of the first and last
    non-zero pixel centre of each image row: a Joseph sample is non-zero
    only within ``h`` of a non-zero pixel centre, and the second ``h``
    absorbs rounding.  Each computed sample has the bits of a full-range
    call.  Beyond the outermost pixel centre a row or column ramps linearly
    to zero over one pixel spacing (half a pixel outside the image edge)
    and is zero further out; this only matters for rasters that are
    non-zero on their border.
    """
    if isinstance(source, Phantom):
        r = source.support_radius()
        if sgrid.s_max < r - 1e-12:
            raise ValueError("s_max too small: sinogram does not cover the phantom support")
        s = sgrid.s_values()
        # Lines with |s| beyond the support radius miss every shape and keep
        # the +0.0 of values; one node of margin on each side.
        hit = slice(max(np.searchsorted(s, -r) - 1, 0), np.searchsorted(s, r, side="right") + 1)
        values = np.zeros((sgrid.n_phi, sgrid.n_s))
        phis, s = sgrid.phis(), s[hit]
        # Blocks of angles whose (shapes, angles, s, nodes) planes hold
        # about BLOCK_PIXELS values each, walked serially.
        nodes = 1 if mu.kind == "constant" else SMOOTH_NODES
        step = max(1, _util.BLOCK_PIXELS // (max(len(source.shapes), 1) * s.size * nodes))
        for a0 in range(0, sgrid.n_phi, step):
            values[a0:a0 + step, hit] = analytic_sinogram_row(source, mu, phis[a0:a0 + step], s)
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
    stay in cache; ``nu`` is evaluated on each block by
    :meth:`WeightFunction.on_grid`, with the bits of ``nu`` itself on the
    block's pixel points.  One worker per
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
    out = np.zeros((len(windows), n, n))
    active = np.nonzero(coef.any(axis=0))[0]
    step = max(1, _util.BLOCK_PIXELS // n)

    def worker(blocks: slice) -> None:
        # Whole blocks of image rows, each a contiguous run of pixels; the
        # slices stop the last block at the image's last row.
        for r0 in range(blocks.start * step, blocks.stop * step, step):
            rs = slice(r0, r0 + step)
            y = ax[rs]
            nu_at = nu.on_grid(ax, y)
            for i in active:
                c, sn = math.cos(phis[i]), math.sin(phis[i])
                gi = np.interp(ax * c + y[:, None] * sn, s, rows[i])
                nu_i = nu_at(phis[i])
                for k in np.nonzero(coef[:, i])[0]:
                    out[k, rs] += (coef[k, i] * nu_i) * gi
                # Free this angle's planes before the next one allocates its own.
                del gi, nu_i

    _util.for_each_chunk(worker, math.ceil(n / step))
    return [Raster(igrid, img) for img in out]
