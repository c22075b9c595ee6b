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
leave every other line at +0.0, so a sparse source costs less.  The
raster path also steps only through the pixel lines that hold the source
and, on a full circle, serves ``phi`` and ``phi + pi`` from one plane:
its samples are within 1e-13 of the per-angle rows, not bitwise equal.
The back-projection folds ``phi`` and ``phi + pi`` into one interpolation
on a full circle without a cutoff or a mask, for a constant or an
exponential weight: its image is within 1e-13 of the image maximum of the
per-angle sum.
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
        x = np.asarray(x, dtype=float)
        if self.kind == "custom":
            return self._fn(x, phi)
        return self.on_grid(x[..., 0], x[..., 1])(phi)

    def __repr__(self):
        args = " ".join(repr(p) for p in self.params)
        return f"WeightFunction({self.kind}{' ' + args if args else ''})"

    def on_grid(self, x, y):
        """``phi -> w`` at the points ``(x, y)``, bit for bit, for coordinates that
        broadcast together: the scalar, two short ``exp`` vectors on a block of
        rows ``(x, y[:, None])``, or a call on the points.  It holds the one
        formula of each built-in kind; a call evaluates them through it."""
        if self.kind == "constant":
            return lambda phi: self.params[0]
        if self.kind == "exponential":
            def at(phi):
                p0, p1 = _exp_rates(*self.params, phi)
                return np.exp(p0 * x) * np.exp(p1 * y)
            return at
        pts = np.stack(np.broadcast_arrays(x, y), axis=-1)
        return lambda phi: self(pts, phi)

    @classmethod
    def constant(cls, c: float) -> "WeightFunction":
        if not (0 < c < math.inf):
            raise ValueError("constant weight must be positive and finite")
        return cls(None, "constant", (float(c),))

    @classmethod
    def exponential(cls, lam: float, mode: str = "perp") -> "WeightFunction":
        """Weight ``exp(lam * x . theta_perp)`` (or ``x . theta`` for ``mode="parallel"``)."""
        if mode not in ("perp", "parallel"):
            raise ValueError("exponential weight mode must be 'perp' or 'parallel'")
        lam = float(lam)
        if not math.isfinite(lam):
            raise ValueError("exponential weight rate must be finite")
        return cls(None, "exponential", (lam, mode))


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


def _folds(sgrid: SinogramGrid) -> bool:
    """Whether angle ``i + m`` is angle ``i`` plus pi: ``n_phi = 2 m`` on a full circle."""
    m = sgrid.n_phi // 2
    return sgrid.periodic and sgrid.n_phi % 2 == 0 and abs(m * sgrid.dphi - math.pi) <= 1e-14


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
    # The pixel lines that hold a non-zero pixel: rows (k = 0), columns (k = 1).
    cols = np.nonzero(nz.any(axis=0))[0]
    spans = [slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)]
    # pair[k] holds the image rows (k = 0) and columns (k = 1), each padded
    # with one zero on the left and two on the right, as f0 + (f1 - f0) i:
    # an index clipped to [0, n + 1] reads itself and its right neighbour
    # in one gather, and 0 off the image.  f1 - f0 is one subtract over the
    # flat table, which crosses from one line to the next only at the
    # unread last entry, 0 - 0.
    pair = np.zeros((2, n, n + 3), dtype=complex)
    pair.real[0, :, 1:n + 1] = img
    pair.real[1, :, 1:n + 1] = img.T
    flat = pair.reshape(-1)
    np.subtract(flat.real[1:], flat.real[:-1], out=flat.imag[:-1])
    base = (np.arange(2 * n) * (n + 3)).reshape(2, n)
    # One step per pixel line along the line's dominant axis: the rows
    # (y = a_j, k = 0) when |cos| >= |sin|, the columns (x = a_j) otherwise.
    ks = [0 if abs(math.cos(phi)) >= abs(math.sin(phi)) else 1 for phi in phis]
    # Opposite-angle fold: line (phi + pi, s) crosses every pixel line where
    # (phi, -s) does, so angles i and i + m share one plane, read reversed in
    # s, unless |cos| and |sin| tie to rounding on opposite sides at them.
    m = sgrid.n_phi // 2
    planes = [[i] for i in range(sgrid.n_phi)]
    if _folds(sgrid):
        planes = ([[i, i + m] if ks[i] == ks[i + m] else [i] for i in range(m)]
                  + [[i + m] for i in range(m) if ks[i] != ks[i + m]])

    def worker(sl: slice) -> None:
        for i, *partner in planes[sl]:
            c, sn = math.cos(phis[i]), math.sin(phis[i])
            # A sample is non-zero only within |a| h <= h in s of a non-zero
            # pixel centre; the second h absorbs rounding.  The lines outside
            # [lo, hi), and the partner's outside the mirror [n_s - hi,
            # n_s - lo), meet no non-zero pixel and keep the zeros of out.
            proj = px * c + py * sn
            lo, hi = np.searchsorted(s, (proj.min() - 2.0 * h, proj.max() + 2.0 * h))
            k = ks[i]
            a, b = (c, sn) if k == 0 else (sn, c)
            axk = ax[spans[k]]
            # Line s crosses pixel line a_j at u = (s - a_j b) / a along it;
            # q = (u + L) / h + 0.5 is that crossing in padded pixels.  The
            # plane f holds q, then its fraction, then the interpolated values.
            f = np.add.outer(s[lo:hi] * (1.0 / (a * h)) + (L / h + 0.5), axk * (-b / (a * h)))
            np.clip(f, 0.0, n + 1.0, out=f)
            # z holds the index, then the pairs (f0, f1 - f0) it gathers, and
            # f0 + frac (f1 - f0) is formed in the plane of the fraction.
            z = f.astype(np.intp)
            f -= np.floor(f)
            z += base[k, spans[k]]
            z = np.take(flat, z)
            np.multiply(z.imag, f, out=f)
            f += z.real
            del z
            # Each angle weights the plane and sums each line; at phi + pi
            # the line parameters are (-a, -b).
            mirror = slice(sgrid.n_s - hi, sgrid.n_s - lo)
            for j, sign, at, plane in [(i, 1.0, slice(lo, hi), f),
                                       *[(j, -1.0, mirror, f[::-1]) for j in partner]]:
                aj, bj, si, e = sign * a, sign * b, s[at], 1.0
                if mu.kind == "exponential":
                    # At the crossing p . x = (p_k / a) s + (p_{1-k} - p_k b / a) a_j:
                    # weight each pixel line before the sum and each line's sum
                    # after it, so no factor exceeds exp(|lam| max(s_max, sqrt(2) L)).
                    p = _exp_rates(*mu.params, phis[j])
                    w = np.exp(axk * (p[1 - k] - p[k] * (bj / aj)))
                    e = np.exp(si * (p[k] / aj))
                elif mu.kind == "constant":
                    w = mu.params[0]
                else:  # the weight at each crossing point (u, a_j), in (x, y) order
                    xy = (np.subtract.outer(si, axk * bj) / aj, np.broadcast_to(axk, f.shape))
                    w = mu(np.stack(xy if k == 0 else xy[::-1], axis=-1), phis[j])
                out[j, at] = np.multiply(plane, w).sum(axis=1) * e * (h / abs(a))

    _util.for_each_chunk(worker, len(planes))
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
    with one node of margin on each side, and each computed sample has
    the bits of a full-range call.  The raster path takes, per angle, the
    ``s`` within ``2h`` of the projections of the first and last non-zero
    pixel centre of each image row: a Joseph sample is non-zero only
    within ``h`` of a non-zero pixel centre, and the second ``h`` absorbs
    rounding.  It steps only through the pixel lines that hold a non-zero
    pixel.  On a full circle with ``n_phi = 2 m`` and ``|m dphi - pi| <=
    1e-14`` (the back-projection's fold rule) line ``(phi + pi, s)`` crosses
    each pixel line where ``(phi, -s)`` does: angles ``i`` and ``i + m``
    share one plane, read reversed in ``s`` over the mirror ``[n_s - hi,
    n_s - lo)`` of the lines of ``i``, each with its own weight and sum,
    unless a 45-degree tie makes them step through different pixel lines.
    Raster samples are within 1e-13 of each row's maximum of the per-angle
    projector, not bitwise (``s_values()`` is not bitwise symmetric and the
    span regroups the sum), and bit-identical for every thread count.  A
    row or column ramps linearly to zero over one pixel spacing beyond its
    outermost pixel centre and is zero further out; this only matters for
    rasters that are non-zero on their border.
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
                window: AngularWindow | None, igrid: ImageGrid, pixels=None) -> Raster:
    """Weighted, cutoff-modulated back-projection onto an image grid.

    For each pixel ``x`` this accumulates
    ``sum_phi w_phi kappa(phi) nu(x, phi) g(phi, x . theta(phi))`` with
    linear interpolation in ``s``; ``window=None`` means ``kappa == 1``
    over the sinogram's angular range.  The image is bit-identical for
    every thread count.  With ``window=None`` on a full circle and a
    constant or exponential weight, ``phi`` and ``phi + pi`` may be folded
    into one interpolation, and for a constant weight ``phi`` and ``pi -
    phi`` too; :func:`backproject_windows` says when, and gives the 1e-13
    tolerance.  ``pixels`` restricts the sum to a mask.
    """
    return backproject_windows(g, nu, [window], igrid, pixels)[0]


def backproject_windows(g: Sinogram, nu: WeightFunction, windows,
                        igrid: ImageGrid, pixels=None) -> list[Raster]:
    """:func:`backproject` for several windows in one pass over the angles.

    Every call runs one per-angle loop: each active angle interpolates its
    row at ``x . theta`` and evaluates ``nu`` once, then adds the row, times
    ``w_phi kappa(phi) nu``, to the image of every window that uses it
    (a factor of exactly 1.0 skips its multiply, which keeps the bits).  The
    image is cut into blocks of whole rows, about ``BLOCK_PIXELS`` pixels
    each, so the accumulators stay in cache; ``nu`` is evaluated on each
    block by :meth:`WeightFunction.on_grid`, with the bits of ``nu`` itself
    on the block's pixel points.  One worker per usable CPU, and never more
    workers than blocks, takes a contiguous run of whole blocks; the angles
    are never split.  Each pixel gets the same operations in the same
    order, so each image is bit-identical to a single-window call and for
    every thread count.

    ``pixels``, a boolean ``(n, n)`` mask, computes only the masked pixels:
    a block is then a run of the mask's pixel centres, one run per usable
    CPU and at most ``BLOCK_PIXELS`` each, accumulated into ``(windows, P)``
    arrays for the mask's ``P`` pixels and scattered into images that are
    +0.0 elsewhere.  The centres are visited by 16 x 16 tiles (tile rows top
    to bottom, tiles left to right, row-major inside a tile): consecutive
    points then have nearby ``x . theta``, so ``np.interp``, which searches
    from its last answer, takes about half the time per point of row-major
    order on the k-study's scattered masks.  Each masked pixel gets the
    operations of the unmasked call in the same order, so it keeps its bits.
    A masked call never folds.

    Opposite-angle fold: angle ``phi_i + pi`` reads the line of ``phi_i``
    at offset ``-s``.  On a full circle with ``n_phi = 2 m`` and
    ``|m dphi - pi| <= 1e-14``, when every window is ``None`` and there is
    no mask, a constant or an exponential ``nu`` folds.  For a constant
    weight (``nu.kind == "constant"``) row ``i + m`` reversed in ``s`` is
    added to row ``i`` and the sum scaled by its coefficient ``w_phi c``,
    the same for every row: ``m`` folded rows that the loop adds with the
    factor 1.0.
    Mirror pairs then halve the index searches again: angle ``phi_j = pi -
    phi_i`` reads at ``(x, y)`` the offset ``phi_i`` reads at ``(-x, y)``,
    and ``ImageGrid.axis()`` is symmetric about 0.  The partner is ``j =
    rint((pi - phi_i - phi_0) / dphi)``, kept when ``i < j < m`` and
    ``|phi_i + phi_j - pi| <= 1e-14``.  Each folded angle that is not a
    partner is then one complex row of the same loop, the paired ones
    first: its folded row is the real part and its partner's the imaginary
    part (zero without one).  Each block adds the complex planes of every
    angle into one complex accumulator per window, then adds its real part
    to the image and its imaginary part reversed in ``x``, once per block.
    Complex blocks have ``BLOCK_PIXELS // (2 n)`` rows; a grid without a
    pair keeps real rows, added into the image.  An exponential weight
    (``nu.kind == "exponential"``) differs at ``phi`` and ``phi + pi``, so
    its ``m`` rows are complex and carry the coefficient, ``w_phi (g_i + 1j
    g_{i+m}[::-1])``: each is interpolated once at ``x . theta_i``, and the
    loop adds its real part times ``nu(x, phi_i)`` and then, as angle ``i +
    m``, its imaginary part times ``nu(x, phi_{i+m})``, each weight from
    :meth:`WeightFunction.on_grid` at its own angle, into the image.  Its
    blocks keep ``BLOCK_PIXELS // n`` rows: only the interpolated plane is
    complex, and half as many blocks halve the per-angle interpreter work
    that two workers contend for.  A folded image is within 1e-13 of the
    image maximum of the unfolded sum, not bitwise, because ``s_values()``
    and ``axis()`` are not bitwise symmetric, and it is bit-identical for
    every thread count and block size.  Every other call (a cutoff, a half
    range, an odd ``n_phi``, a custom weight, a mask) is unfolded, so a
    ``None`` window batched with cutoff windows gets the unfolded bits.
    """
    if len(windows) == 0:
        raise ValueError("windows must be nonempty")
    if not np.all(np.isfinite(g.values)):
        raise ValueError("sinogram contains non-finite values")
    if igrid.pixel_radius > g.grid.s_max + 1e-12:
        raise ValueError(
            "image grid has pixels with |x . theta| > s_max; increase s_max"
        )
    n = igrid.n
    if pixels is not None:
        pixels = np.asarray(pixels, dtype=bool)
        if pixels.shape != (n, n):
            raise ValueError(f"pixel mask shape {pixels.shape} does not match the "
                             f"image grid ({n}, {n})")
    phis = g.grid.phis()
    wphi = g.grid.phi_weights()
    rows = g.values
    s = g.grid.s_values()
    ax = igrid.axis()
    # Opposite-angle fold and mirror pairs (see the docstring).  The periodic
    # weights are uniform, so folded rows carry their coefficient, w_i c or
    # w_i, and the loop sees unit weights.
    m = phis.size // 2
    folds = pixels is None and _folds(g.grid) and all(w is None for w in windows)
    split = folds and nu.kind == "exponential"
    if split:
        # Row i holds angle i in its real part and angle i + m, reversed in
        # s, in its imaginary part.
        rows = np.empty((m, s.size), dtype=complex)
        rows.real, rows.imag = g.values[:m], g.values[m:, ::-1]
        rows *= wphi[0]
        wphi = np.ones(phis.size)
    elif folds and nu.kind == "constant":
        wc = wphi[0] * nu.params[0]

        def fold(k, into):
            np.add(g.values[k], g.values[k + m, ::-1], out=into)
            into *= wc

        i = np.arange(m)
        j = np.rint((math.pi - phis[:m] - phis[0]) / g.grid.dphi).astype(np.intp)
        ok = (i < j) & (j < m)
        ok[ok] = np.abs(phis[i[ok]] + phis[j[ok]] - math.pi) <= 1e-14
        # One row per paired angle, then per angle without a partner.
        solo = np.ones(m, dtype=bool)
        solo[i[ok]] = solo[j[ok]] = False
        own = np.concatenate([i[ok], i[solo]])
        rows = np.zeros((own.size, s.size), dtype=complex if ok.any() else float)
        for r, a in zip(rows, own):
            fold(a, r.real)
            if ok[a]:
                fold(j[a], r.imag)
        phis, wphi, nu = phis[own], np.ones(own.size), WeightFunction.constant(1.0)
    # Complex rows hold opposite angles (an exponential fold), split into
    # their parts, or mirror pairs, added into a complex accumulator per block.
    paired = np.iscomplexobj(rows) and not split
    coef = np.array([(1.0 if w is None else w.kappa(phis)) * wphi for w in windows])
    # A split row's angle i + m comes right after angle i: 0, m, 1, m + 1, ...
    active = (np.arange(2 * m).reshape(2, m).T.ravel() if split
              else np.nonzero(coef.any(axis=0))[0])
    # Each active angle once per call: its row (None for angle i + m of an
    # exponential fold), its angle and the windows it adds to with their
    # coefficients.
    work = [(rows[i] if i < len(rows) else None, phis[i],
             [(k, coef[k, i]) for k in np.nonzero(coef[:, i])[0]]) for i in active]
    # A block is a pair of coordinates that broadcast together and the
    # accumulators they add to: whole image rows (ax, y[:, None]), or a run
    # of the mask's pixel centres.
    if pixels is None:
        out = np.zeros((len(windows), n, n))
        # A mirror-paired block's complex planes hold as many bytes as real ones.
        step = max(1, _util.BLOCK_PIXELS // (n * (2 if paired else 1)))
        n_blocks = math.ceil(n / step)

        def block(b):
            rs = slice(b * step, (b + 1) * step)
            return ax, ax[rs, None], out[:, rs]
    else:
        # The mask's pixels by 16 x 16 tiles (see the docstring): a stable
        # sort of the row-major indices by one key, the tile's index.
        at = np.flatnonzero(pixels)
        at = at[np.argsort(at // (16 * n) * n + at % n // 16, kind="stable")]
        px, py = ax[at % n], ax[at // n]
        acc = np.zeros((len(windows), at.size))
        # One run per usable CPU, of at most BLOCK_PIXELS points each.
        step = max(1, min(_util.BLOCK_PIXELS, math.ceil(at.size / _util.thread_count())))
        n_blocks = math.ceil(at.size / step)

        def block(b):
            ps = slice(b * step, (b + 1) * step)
            return px[ps], py[ps], acc[:, ps]

    def worker(blocks: slice) -> None:
        # Each block is a contiguous run of pixels; the slices stop the last
        # block at the last row or point.
        for b in range(blocks.start, blocks.stop):
            x, y, dest = block(b)
            nu_at = nu.on_grid(x, y)
            # Real rows and the parts of split rows add into the images,
            # mirror pairs into one complex plane per window, and a factor of
            # exactly 1.0 skips its multiply.
            # At most one product plane per block, reused by every angle and window.
            into = np.zeros(dest.shape, dtype=complex) if paired else dest
            term = None
            for row, phi, ks in work:
                if row is None:
                    gi, opposite = opposite, None
                else:
                    gi = np.interp(x * math.cos(phi) + y * math.sin(phi), s, row)
                    if split:
                        gi, opposite = gi.real, gi.imag
                nu_i = nu_at(phi)
                for k, ck in ks:
                    f = nu_i if ck == 1.0 else ck * nu_i
                    if isinstance(f, float) and f == 1.0:
                        into[k] += gi
                    else:
                        term = np.multiply(f, gi, out=term)
                        into[k] += term
                # Free this angle's planes before the next one allocates its own.
                del gi, nu_i, f
            if paired:
                # The partner pi - phi reads at (x, y) what phi reads at
                # (-x, y): its plane is reversed in x.
                dest += into.real
                dest += into.imag[..., ::-1]

    _util.for_each_chunk(worker, n_blocks)
    if pixels is not None:
        out = np.zeros((len(windows), n, n))
        out.reshape(len(windows), -1)[:, at] = acc
    return [Raster(igrid, img) for img in out]
