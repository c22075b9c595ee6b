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
The back-projection may fold opposite and mirror angles on a full circle,
within 1e-13 of the image maximum of the per-angle sum; the fold rule is
stated once, on :func:`backproject_values`.
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


def _mirror_groups(sgrid: SinogramGrid) -> list[tuple[int, int | None]]:
    """The mirror groups of a :func:`_folds` grid (see :func:`backproject_values`)."""
    phis, m = sgrid.phis(), sgrid.n_phi // 2
    i = np.arange(m)
    j = np.rint((math.pi - phis[:m] - phis[0]) / sgrid.dphi).astype(np.intp)
    ok = (i < j) & (j < m)
    ok[ok] = np.abs(phis[i[ok]] + phis[j[ok]] - math.pi) <= 1e-14
    solo = np.ones(m, dtype=bool)
    solo[i[ok]] = solo[j[ok]] = False
    return [(int(a), int(j[a])) for a in i[ok]] + [(int(a), None) for a in i[solo]]


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
    with a built-in weight's closed-form integral over them, or a custom
    weight's fixed Gauss-Legendre rule, one
    :func:`~limitomo.phantoms.analytic_sinogram_row` call per block of
    angles of about ``BLOCK_PIXELS`` chords (custom: chord nodes).  The
    blocks run serially: a thread pool gained nothing on the 720-angle
    ``analyze`` sinogram (2 CPUs) and raised the peak resident set by 4 MB.  Raster
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
        # Blocks of angles whose (shapes, angles, s) planes, and a custom
        # weight's (shapes, angles, s, nodes) planes, hold about
        # BLOCK_PIXELS values each, walked serially.
        nodes = SMOOTH_NODES if mu.kind == "custom" else 1
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
    over the sinogram's angular range.  It is :func:`backproject_values`
    for one window, which says when opposite and mirror angles fold.
    """
    return Raster(igrid, backproject_values(g, nu, [window], igrid)[0])


def backproject_values(g: Sinogram, nu: WeightFunction, windows,
                       igrid: ImageGrid, pixels=None) -> np.ndarray:
    """The weighted back-projection of :func:`backproject` for several windows in
    one pass over the angles, as one ``(windows, n, n)`` array.

    Every call but an exponential fold (below) runs one per-angle loop:
    each active angle interpolates its row at ``x . theta`` and evaluates
    ``nu`` once, then adds the row, times ``w_phi kappa(phi) nu``, to the
    image of every window that uses it (a factor of exactly 1.0 skips its
    multiply, which keeps the bits).  The image is cut into blocks of whole
    rows, about ``BLOCK_PIXELS`` pixels each, so the accumulators stay in
    cache; ``nu`` is evaluated on each block by
    :meth:`WeightFunction.on_grid`, with the bits of ``nu`` itself on the
    block's pixel points.  One worker per usable CPU, and never more
    workers than blocks, takes a contiguous run of whole blocks; the angles
    are never split.  Each pixel gets the same operations in the same
    order, so each image is bit-identical to a single-window call and for
    every thread count.

    ``pixels``, a boolean ``(n, n)`` mask, computes only the masked pixels
    and returns no image but the ``(windows, P)`` values of the mask's
    ``P`` pixels in its row-major order (``np.flatnonzero(pixels)``).  A
    block is then a run of the mask's pixel centres, one run per usable CPU
    and at most ``BLOCK_PIXELS`` each.  The centres are visited by 16 x 16
    tiles (tile rows top to bottom, tiles left to right, row-major inside a
    tile): consecutive points then have nearby ``x . theta``, so
    ``np.interp``, which searches from its last answer, takes about half the
    time per point of row-major order on the k-study's scattered masks.
    Each masked pixel gets the operations of the unmasked call in the same
    order, so it keeps its bits.  A masked call never folds.

    Opposite-angle fold: angle ``phi_i + pi`` reads the line of ``phi_i``
    at offset ``-s``.  On a full circle with ``n_phi = 2 m`` and
    ``|m dphi - pi| <= 1e-14``, when every window is ``None`` and there is
    no mask, a constant or an exponential ``nu`` folds.  For a constant
    weight (``nu.kind == "constant"``) row ``i + m`` reversed in ``s`` is
    added to row ``i`` and the sum scaled by its coefficient ``w_phi c``,
    the same for every row: ``m`` folded rows that the loop adds with the
    factor 1.0.
    Mirror groups then halve the index searches again: angle ``phi_j = pi -
    phi_i`` reads at ``(x, y)`` the offset ``phi_i`` reads at ``(-x, y)``,
    and ``ImageGrid.axis()`` is symmetric about 0.  The partner is ``j =
    rint((pi - phi_i - phi_0) / dphi)``, kept when ``i < j < m`` and
    ``|phi_i + phi_j - pi| <= 1e-14``; the pairs ``(i, j)`` come first,
    then each angle without one as ``(i, None)``.  Each group is one
    complex row of the loop, the folded rows of ``i`` and ``j`` (zero
    without one) as its parts; each block adds every group into one complex
    accumulator per window, then its real part to the image and its
    imaginary part reversed in ``x``.  A grid without a pair keeps real
    rows.  An exponential ``nu`` differs at ``phi`` and ``phi + pi``, so its
    ``m`` rows are complex, ``w_phi (g_i + 1j g_{i+m}[::-1])``, and its own
    block kernel takes the groups: rows ``i`` and ``j`` are interpolated on
    one ``x . theta_i`` plane and weighted by one plane ``E = nu(x,
    phi_i)`` from :meth:`WeightFunction.on_grid` and its reciprocal, since
    ``nu(x, phi + pi) = 1 / nu(x, phi)``: ``(E, 1 / E)`` for angles ``i``
    and ``i + m``, and for ``j`` and ``j + m``, added reversed in ``x``,
    ``(1 / E, E)`` (``perp``) or ``(E, 1 / E)`` (``parallel``).  Blocks
    with complex rows have ``BLOCK_PIXELS // (2 n)`` rows.  A folded image
    is within 1e-13 of the image maximum of the unfolded sum, not bitwise,
    because ``s_values()`` and ``axis()`` are not bitwise symmetric and ``1
    / E`` is not bitwise the weight at ``phi + pi``, and it is
    bit-identical for every thread count and block size.  Every other call
    (a cutoff, a half range, an odd ``n_phi``, a custom weight, a mask) is
    unfolded, so a ``None`` window batched with cutoff windows gets the
    unfolded bits.
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
    # Opposite-angle fold and mirror groups (see the docstring).  The periodic
    # weights are uniform, so folded rows carry their coefficient, w_i c or
    # w_i, and the kernels see unit weights.
    m = phis.size // 2
    folds = pixels is None and _folds(g.grid) and all(w is None for w in windows)
    exp_fold = folds and nu.kind == "exponential"
    groups = _mirror_groups(g.grid) if folds else None
    if exp_fold:
        # Row i holds angle i in its real part and angle i + m, reversed in
        # s, in its imaginary part.
        rows = np.empty((m, s.size), dtype=complex)
        rows.real, rows.imag = g.values[:m], g.values[m:, ::-1]
        rows *= wphi[0]
    elif folds and nu.kind == "constant":
        wc = wphi[0] * nu.params[0]

        def fold(k, into):
            np.add(g.values[k], g.values[k + m, ::-1], out=into)
            into *= wc

        # One row per group: the folded row of i, and of its partner j in
        # the imaginary part; complex if there is a pair, which comes first.
        rows = np.zeros((len(groups), s.size), dtype=float if groups[0][1] is None else complex)
        for r, (i, j) in zip(rows, groups):
            fold(i, r.real)
            if j is not None:
                fold(j, r.imag)
        phis = phis[[i for i, _ in groups]]
        wphi, nu = np.ones(phis.size), WeightFunction.constant(1.0)
    # Complex rows hold mirror groups, added into a complex accumulator per
    # block, or opposite angles (an exponential fold).
    paired = np.iscomplexobj(rows)
    if not exp_fold:
        coef = np.array([(1.0 if w is None else w.kappa(phis)) * wphi for w in windows])
        # Each active angle once per call: its row, its angle and the windows
        # it adds to with their coefficients.
        work = [(rows[i], phis[i], [(k, coef[k, i]) for k in np.nonzero(coef[:, i])[0]])
                for i in np.nonzero(coef.any(axis=0))[0]]
    # A block is a pair of coordinates that broadcast together and the
    # accumulators they add to: whole image rows (ax, y[:, None]), or a run
    # of the mask's pixel centres.
    if pixels is None:
        out = np.zeros((len(windows), n, n))
        # A complex plane holds as many bytes as two real ones.
        step = max(1, _util.BLOCK_PIXELS // (n * (2 if paired else 1)))
        n_blocks = math.ceil(n / step)

        def block(b):
            rs = slice(b * step, (b + 1) * step)
            return ax, ax[rs, None], out[:, rs]
    else:
        # The mask's pixels by 16 x 16 tiles (see the docstring): a stable
        # sort of the row-major indices by one key, the tile's index.
        at = np.flatnonzero(pixels)
        order = np.argsort(at // (16 * n) * n + at % n // 16, kind="stable")
        at = at[order]
        px, py = ax[at % n], ax[at // n]
        acc = np.zeros((len(windows), at.size))
        # One run per usable CPU, of at most BLOCK_PIXELS points each.
        step = max(1, min(_util.BLOCK_PIXELS, math.ceil(at.size / _util.thread_count())))
        n_blocks = math.ceil(at.size / step)

        def block(b):
            ps = slice(b * step, (b + 1) * step)
            return px[ps], py[ps], acc[:, ps]

    def per_angle(x, y, dest):
        nu_at = nu.on_grid(x, y)
        # Real rows add into the images, mirror groups into one complex
        # plane per window, and a factor of exactly 1.0 skips its multiply.
        # At most one product plane per block, reused by every angle and window.
        into = np.zeros(dest.shape, dtype=complex) if paired else dest
        term = None
        for row, phi, ks in work:
            gi = np.interp(x * math.cos(phi) + y * math.sin(phi), s, row)
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

    def exp_group(x, y, dest):
        # Per group, one x . theta_i plane, the rows of i and j interpolated
        # on it and one weight plane E = nu(x, phi_i): angles i and i + m add
        # with the weights (E, 1 / E), and angles j and j + m, into a plane
        # added reversed in x, with (1 / E, E) for perp and (E, 1 / E) for
        # parallel, since nu(x, phi + pi) = 1 / nu(x, phi).
        nu_at = nu.on_grid(x, y)
        img, mirror, term = dest[0], np.zeros(dest.shape[1:]), np.empty(dest.shape[1:])
        for i, j in groups:
            p = x * math.cos(phis[i]) + y * math.sin(phis[i])
            gi, gj = [None if k is None else np.interp(p, s, rows[k]) for k in (i, j)]
            del p
            e = nu_at(phis[i])
            r = 1.0 / e
            for into, gk, (a, b) in ((img, gi, (e, r)),
                                     (mirror, gj, (r, e) if nu.params[1] == "perp" else (e, r))):
                if gk is not None:
                    into += np.multiply(gk.real, a, out=term)
                    into += np.multiply(gk.imag, b, out=term)
            # Free this group's planes before the next one allocates its own.
            del gi, gj, gk, e, r, a, b
        img += mirror[:, ::-1]
        dest[1:] = img

    kernel = exp_group if exp_fold else per_angle

    def worker(blocks: slice) -> None:
        # Each block is a contiguous run of pixels; the slices stop the last
        # block at the last row or point.
        for b in range(blocks.start, blocks.stop):
            kernel(*block(b))

    _util.for_each_chunk(worker, n_blocks)
    if pixels is None:
        return out
    # Back to row-major order one window at a time, so the only copy is one row.
    for values in acc:
        values[order] = values.copy()
    return acc
