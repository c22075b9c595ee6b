"""Binary containers for rasters and sinograms.

Raster files ("raw-f32") carry a 16-byte header -- magic ``LTR1``, pixel
count ``n`` (uint32 LE), extent ``L`` (float32 LE), 4 reserved bytes --
followed by ``n*n`` row-major little-endian float32 samples.  Sinogram
files use magic ``LTS1`` and the header fields
``(n_phi: uint32, phi0: float64, dphi: float64, n_s: uint32,
s_max: float64)`` followed by ``n_phi*n_s`` row-major little-endian
float32 samples.  A header is a check, not the geometry: the readers take
the grid the caller expects (a run's config), reject a payload shorter or
longer than the header states, then reject a header that does not
describe that grid, and return the samples on it.  16-bit PGM output is
for visual inspection only: min-max normalized, big-endian samples, top
row at largest ``y``; a constant raster maps to all zeros.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .geometry import ImageGrid, Raster, SinogramGrid
from .transforms import Sinogram

RASTER_MAGIC = b"LTR1"
SINO_MAGIC = b"LTS1"
_RASTER_HEADER = struct.Struct("<4sIf4x")
_SINO_HEADER = struct.Struct("<4sIddId")

RASTER_FORMATS = ("raw-f32", "pgm16")


def _check_payload(fh, samples: int, what: str) -> None:
    """Raise before reading unless the rest of the file is ``samples`` float32 samples."""
    have, want = os.fstat(fh.fileno()).st_size - fh.tell(), 4 * samples
    if have < want:
        raise ValueError(f"{what}: truncated payload ({have} of {want} bytes)")
    if have > want:
        raise ValueError(f"{what}: {have - want} bytes after the payload")


def _float32_payload(values: np.ndarray, what: str) -> np.ndarray:
    """Samples as a C-ordered little-endian float32 array; raise unless all are finite there.

    The check runs on the cast array: a finite float64 beyond the float32
    range (about 3.4e38) casts to inf.
    """
    with np.errstate(over="ignore"):
        data = values.astype("<f4", order="C")
    # The minimum and maximum are NaN if any sample is and reach either
    # infinity; unlike np.isfinite they hold no array of the payload's size.
    if not (np.isfinite(data.min(initial=0.0)) and np.isfinite(data.max(initial=0.0))):
        raise ValueError(f"{what} contains non-finite values as float32")
    return data


def write_raster(raster: Raster, path, fmt: str = "raw-f32") -> None:
    """Write a raster as raw-f32 (bit-exact) or pgm16 (for inspection)."""
    values = raster.values
    if fmt == "raw-f32":
        header = _RASTER_HEADER.pack(RASTER_MAGIC, raster.grid.n,
                                     raster.grid.extent)
        data = _float32_payload(values, "raster")
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(data)
        return
    if fmt == "pgm16":
        if not np.all(np.isfinite(values)):
            raise ValueError("raster contains non-finite values")
        lo, hi = float(values.min()), float(values.max())
        if hi > lo:
            norm = (values - lo) / (hi - lo)
        else:
            norm = np.zeros_like(values)
        pix = np.round(norm * 65535.0).astype(">u2")
        n = raster.grid.n
        with open(path, "wb") as fh:
            fh.write(f"P5\n{n} {n}\n65535\n".encode("ascii"))
            fh.write(pix[::-1].tobytes(order="C"))  # top row = largest y
        return
    raise ValueError(f"unknown raster format {fmt!r}; expected one of {RASTER_FORMATS}")


def _check_header(what: str, section: str, fields: dict, rel_tol: float) -> None:
    """Raise unless each ``name: (header value, config value)`` agrees to a relative ``rel_tol``."""
    # A relative 1e-12 is equality for the uint32 counts.
    bad = [f"{name} = {have:.17g} (config {want:.17g})"
           for name, (have, want) in fields.items()
           if not math.isclose(have, want, rel_tol=rel_tol)]
    if bad:
        raise ValueError(f"the {what} header does not match the config's [{section}]: "
                         + ", ".join(bad))


def read_raster(path, grid: ImageGrid) -> Raster:
    """Read a raw-f32 raster file onto ``grid``; its header must hold ``grid`` as written."""
    with open(path, "rb") as fh:
        header = fh.read(_RASTER_HEADER.size)
        if len(header) != _RASTER_HEADER.size:
            raise ValueError(f"{path}: truncated raster header")
        magic, n, extent = _RASTER_HEADER.unpack(header)
        if magic != RASTER_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {RASTER_MAGIC!r}")
        _check_payload(fh, n * n, f"{path}: raster n = {n}")
        with np.errstate(over="ignore"):
            stored = float(np.float32(grid.extent))
        _check_header("raster", "image", {"n": (n, grid.n), "extent": (extent, stored)}, 0.0)
        data = np.fromfile(fh, dtype="<f4", count=n * n)
    return Raster(grid, data.reshape(n, n).astype(float))


def write_sinogram(sino: Sinogram, path) -> None:
    """Write a sinogram with its geometry header."""
    g = sino.grid
    header = _SINO_HEADER.pack(SINO_MAGIC, g.n_phi, g.phi0, g.dphi,
                               g.n_s, g.s_max)
    data = _float32_payload(sino.values, "sinogram")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data)


def read_sinogram(path, grid: SinogramGrid) -> Sinogram:
    """Read a sinogram file onto ``grid``; its header fields must be ``grid``'s to 1e-12."""
    with open(path, "rb") as fh:
        header = fh.read(_SINO_HEADER.size)
        if len(header) != _SINO_HEADER.size:
            raise ValueError(f"{path}: truncated sinogram header")
        magic, n_phi, phi0, dphi, n_s, s_max = _SINO_HEADER.unpack(header)
        if magic != SINO_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {SINO_MAGIC!r}")
        _check_payload(fh, n_phi * n_s, f"{path}: sinogram {n_phi}x{n_s}")
        _check_header("sinogram", "sinogram", {
            "n_phi": (n_phi, grid.n_phi), "n_s": (n_s, grid.n_s), "phi0": (phi0, grid.phi0),
            "dphi": (dphi, grid.dphi), "s_max": (s_max, grid.s_max)}, 1e-12)
        data = np.fromfile(fh, dtype="<f4", count=n_phi * n_s)
    return Sinogram(grid, data.reshape(n_phi, n_s).astype(float))
