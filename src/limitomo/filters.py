"""Row-wise 1-D filters in the offset variable and the composed operators.

The spectral filters act per sinogram row through a zero-padded FFT: the
row is extended to ``pad_factor * n_s`` samples, multiplied in frequency
by the requested symbol(s), inverted and cropped back.  With angular
frequency ``sigma`` the symbols are

- Hilbert transform (kernel ``1/(t - s)``): ``-i sign(sigma)``;
- ``d/ds``: ``i sigma``;
- ``-d^2/ds^2``: ``sigma^2``;
- ramp ``|sigma|``, the fused form of Hilbert then ``d/ds`` since
  ``(i sigma)(-i sign sigma) = |sigma|``.

Padding suppresses circular wrap-around of the nonlocal Hilbert kernel;
the operators are meant on the line, not the circle.  The rows are
transformed in blocks of about ``BLOCK_PIXELS`` padded values into one
real output that owns its data, with the bits of the whole-array
transform.  Each operator has one row filter: ``B`` the spectral ramp,
``Lambda`` the finite-difference stencil :func:`neg_d2_ds2`.  The spectral
derivatives ``filter_chain(g, "d_ds")`` and ``filter_chain(g, "neg_d2_ds2")``
serve the oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _util
from .geometry import AngularWindow, ImageGrid, Raster
from .transforms import Sinogram, WeightFunction, backproject, backproject_values

FILTER_KINDS = ("hilbert", "d_ds", "neg_d2_ds2", "ramp")


def _multiplier(kind: str, sigma: np.ndarray) -> np.ndarray:
    if kind == "hilbert":
        return -1j * np.sign(sigma)
    if kind == "d_ds":
        return 1j * sigma
    if kind == "neg_d2_ds2":
        return sigma.astype(complex) ** 2
    if kind == "ramp":
        return np.abs(sigma).astype(complex)
    raise ValueError(f"unknown filter kind {kind!r}; expected one of {FILTER_KINDS}")


def filter_chain(g: Sinogram, kinds, pad_factor: int = 2) -> Sinogram:
    """Apply a chain of spectral symbols in a single padded transform.

    Successive symbols multiply the same padded spectrum, so a chain is
    equal (to rounding) to the single fused symbol given by their product.
    Blocks of about ``BLOCK_PIXELS`` padded values are transformed in turn
    and their cropped real parts written into one real output that owns its
    data; the FFT transforms each row alone, so the bits are those of the
    whole-array transform.
    """
    if pad_factor < 2:
        raise ValueError("pad_factor must be at least 2")
    kinds = (kinds,) if isinstance(kinds, str) else tuple(kinds)
    n_s = g.grid.n_s
    M = pad_factor * n_s
    sigma = 2.0 * math.pi * np.fft.fftfreq(M, d=g.grid.ds)
    symbols = [_multiplier(kind, sigma) for kind in kinds]
    out = np.empty_like(g.values)
    step = max(1, _util.BLOCK_PIXELS // M)
    for r0 in range(0, out.shape[0], step):
        spec = np.fft.fft(g.values[r0:r0 + step], n=M, axis=1)
        for symbol in symbols:
            spec *= symbol
        out[r0:r0 + step] = np.fft.ifft(spec, axis=1).real[:, :n_s]
    return Sinogram(g.grid, out)


def hilbert(g: Sinogram, pad_factor: int = 2) -> Sinogram:
    """Row-wise Hilbert transform with the ``1/(t - s)`` kernel convention.

    With this convention ``H(cos(w .)) = sin(w .)`` and ``H o H = -Id``.
    """
    return filter_chain(g, "hilbert", pad_factor)


def neg_d2_ds2(g: Sinogram) -> Sinogram:
    """Row-wise ``-d^2/ds^2`` by finite differences.

    The stencil ``-(g[j+1] - 2 g[j] + g[j-1]) / ds^2``, shifted one sample
    inward at the ends (still exact on quadratics); a row needs at least
    3 samples.
    """
    if g.grid.n_s < 3:
        raise ValueError(f"the -d^2/ds^2 stencil needs rows of at least 3 samples, "
                         f"got n_s = {g.grid.n_s}")
    v = g.values
    ds2 = g.grid.ds ** 2
    out = np.empty_like(v)
    # The interior is formed in place, with the operations of
    # -(v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]) / ds2 in its order.
    mid = np.multiply(v[:, 1:-1], 2.0, out=out[:, 1:-1])
    np.subtract(v[:, 2:], mid, out=mid)
    mid += v[:, :-2]
    np.negative(mid, out=mid)
    mid /= ds2
    out[:, 0] = -(v[:, 2] - 2.0 * v[:, 1] + v[:, 0]) / ds2
    out[:, -1] = -(v[:, -1] - 2.0 * v[:, -2] + v[:, -3]) / ds2
    return Sinogram(g.grid, out)


@dataclass(frozen=True, eq=False)
class ReconstructionConfig:
    """Selection of reconstruction operator and its ingredients.

    ``operator="B"`` composes back-projection with the Hilbert-derivative
    filter, the spectral ramp (order 0, exact inversion for full data and
    unit weights); ``operator="Lambda"`` uses the ``-d^2/ds^2`` stencil
    (order 1, emphasizes singularities).  ``window=None`` means full
    angular data with no cutoff.
    """

    operator: str
    mu: WeightFunction
    nu: WeightFunction
    window: AngularWindow | None = None

    def __post_init__(self):
        if self.operator not in ("B", "Lambda"):
            raise ValueError("operator must be 'B' or 'Lambda'")


def apply_operator_filter(g: Sinogram, cfg: ReconstructionConfig) -> Sinogram:
    """The row filter of the selected operator, before back-projection."""
    if cfg.operator == "B":
        return filter_chain(g, "ramp")
    return neg_d2_ds2(g)


def reconstruct(g: Sinogram, cfg: ReconstructionConfig, igrid: ImageGrid,
                windows=None, pixels=None) -> Raster | np.ndarray:
    """Filtered back-projection reconstruction of a sinogram.

    Applies the operator's row filter, back-projects with the weight
    ``nu`` and the window cutoff, and scales the result by ``1/(4 pi)``
    in place.  The sinogram must have been produced with weight
    ``cfg.mu`` over an angular range covering the window.

    Without ``windows`` and ``pixels`` the result is one raster, computed
    by :func:`~limitomo.transforms.backproject`.  Otherwise it is the one
    array of :func:`~limitomo.transforms.backproject_values`: ``windows``,
    a sequence of windows (``None`` for no cutoff), replaces ``cfg.window``
    and the sinogram is filtered once for all of them; ``pixels``, a
    boolean ``(n, n)`` mask, keeps only the mask's ``P`` pixels in its
    row-major order.  The shape is ``(W, n, n)`` or ``(W, P)``, with ``W =
    1`` without ``windows``; each window's values are bit-identical to a
    single-window call and for every thread count.
    :func:`~limitomo.transforms.backproject_values` states when opposite
    and mirror angles fold.
    """
    wins = [cfg.window] if windows is None else list(windows)
    lo, hi = g.grid.phi0, g.grid.phi1
    for win in wins:
        if win is not None and (win.phi1 < lo - 1e-12 or win.phi2 > hi + 1e-12):
            raise ValueError("sinogram angular range does not cover the window")
    filt = apply_operator_filter(g, cfg)
    if windows is None and pixels is None:
        out = backproject(filt, cfg.nu, cfg.window, igrid)
        np.divide(out.values, 4.0 * math.pi, out=out.values)
        return out
    out = backproject_values(filt, cfg.nu, wins, igrid, pixels)
    return np.divide(out, 4.0 * math.pi, out=out)
