"""Symbols, artifact-line prediction, wavefront probing and order studies.

This is the measurement layer for limited-angle streaks: the principal
symbol of the reconstruction operators, the geometric prediction of the
artifact lines generated by edge singularities (boundary points whose
normal matches a window boundary direction), a windowed-Fourier decay
probe acting as a computable wavefront-set proxy, and the study that
tracks artifact strength against the cutoff's vanishing order.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .config import check_buffer
from .filters import ReconstructionConfig, reconstruct
from .geometry import AngularWindow, ImageGrid, Raster, SinogramGrid
from .phantoms import Disk, EdgeSingularity, Phantom, edge_singularities
from .transforms import forward

NO_SIGNAL = float("nan")

# Scales on the :func:`default_probe_scales` ladder.
PROBE_SCALES = 12

# Half-width, in pixels, of the boundary tube an edge strength is read on.
TUBE_PIXELS = 3.0


def symbol_eval(cfg: ReconstructionConfig, x, xi) -> float | np.ndarray:
    """Principal symbol of the configured operator at ``(x, xi)``.

    Evaluates
    ``0.5 [kappa(xi/|xi|) nu(x, xi) mu(x, xi)
          + kappa(-xi/|xi|) nu(x, -xi) mu(x, -xi)]``
    with the weights extended zero-homogeneously in ``xi`` (evaluated at
    the direction angle); the Lambda symbol carries an extra ``|xi|``.
    ``xi`` holds nonzero rows, shape ``(..., 2)``; ``x`` broadcasts against
    ``xi[..., 0]``.  Returns shape ``xi.shape[:-1]``, a float for one ``xi``.
    """
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if xi.ndim == 0 or xi.shape[-1] != 2:
        raise ValueError("frequency vectors must have shape (..., 2)")
    if np.any((xi[..., 0] == 0.0) & (xi[..., 1] == 0.0)):
        raise ValueError("frequency vectors must be nonzero")
    psi = np.arctan2(xi[..., 1], xi[..., 0]) % (2.0 * math.pi)
    psi_op = (psi + math.pi) % (2.0 * math.pi)
    if cfg.window is None:
        k1 = k2 = np.ones(psi.shape)
    else:
        k1, k2 = cfg.window.kappa(psi), cfg.window.kappa(psi_op)
    val = 0.5 * (k1 * cfg.nu(x, psi) * cfg.mu(x, psi)
                 + k2 * cfg.nu(x, psi_op) * cfg.mu(x, psi_op))
    if cfg.operator == "Lambda":
        val = np.hypot(xi[..., 0], xi[..., 1]) * val
    return float(val) if np.ndim(val) == 0 else val


@dataclass(frozen=True, eq=False)
class ArtifactLine:
    """Predicted streak line through an edge singularity.

    The line passes through the generator's base point with direction
    orthogonal to the window boundary direction ``e_j`` (so ``e_j`` is its
    unit normal).
    """

    generator: EdgeSingularity
    j: int
    point: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float))
        object.__setattr__(self, "direction", np.asarray(self.direction, dtype=float))

    @property
    def normal(self) -> np.ndarray:
        d = self.direction
        return np.array([d[1], -d[0]])


def predicted_artifact_lines(phantom: Phantom, window: AngularWindow) -> list[ArtifactLine]:
    """Streak lines generated by the phantom's edge singularities."""
    lines = []
    for gen in edge_singularities(phantom, window):
        e = window.boundary_direction(gen.j)
        direction = np.array([-e[1], e[0]])
        lines.append(ArtifactLine(gen, gen.j, gen.point, direction))
    return lines


@dataclass(frozen=True, eq=False)
class WavefrontProbe:
    """Local directional frequency-decay measurement setup.

    ``scales`` are frequency magnitudes in cycles per image extent
    (DFT mode units), strictly increasing with at least two entries.
    """

    point: np.ndarray
    direction: np.ndarray
    window_radius: float
    scales: tuple[float, ...]

    def __post_init__(self):
        p = np.asarray(self.point, dtype=float)
        d = np.asarray(self.direction, dtype=float)
        nd = math.hypot(d[0], d[1])
        if nd == 0.0:
            raise ValueError("probe direction must be nonzero")
        sc = tuple(float(s) for s in self.scales)
        if len(sc) < 2:
            raise ValueError("probe needs at least 2 scales")
        if any(b <= a for a, b in zip(sc[:-1], sc[1:])):
            raise ValueError("probe scales must be strictly increasing")
        object.__setattr__(self, "point", p)
        object.__setattr__(self, "direction", d / nd)
        object.__setattr__(self, "window_radius", float(self.window_radius))
        object.__setattr__(self, "scales", sc)


def default_probe_scales(n: int) -> tuple[float, ...]:
    """Geometric ladder of ``PROBE_SCALES`` scales over [8, n/4] cycles per extent."""
    return tuple(np.geomspace(8.0, n / 4.0, PROBE_SCALES))


def wavefront_probe(img: Raster, probe: WavefrontProbe) -> float:
    """Directional smoothness exponent at a point of the image.

    Multiplies the image by a raised-cosine bump at the probe point, takes
    the 2-D DFT, samples its magnitude along the probe direction at the
    listed scales, and returns the least-squares slope of ``log |F|``
    against ``log |xi|`` (more negative means smoother).  Returns NaN
    ("no signal") when every sampled magnitude is below 1e-12.
    """
    grid = img.grid
    n, L, h = grid.n, grid.extent, grid.h
    R = probe.window_radius
    if R < 4.0 * h:
        raise ValueError("probe window radius must be at least 4 pixels")
    px, py = probe.point
    if abs(px) + R > L or abs(py) + R > L:
        raise ValueError("probe window leaves the image grid")
    if probe.scales[-1] > n / 2 - 1:
        raise ValueError("probe scales exceed the grid Nyquist mode")
    X, Y = grid.centers()
    r = np.hypot(X - px, Y - py)
    bump = np.where(r <= R, 0.5 * (1.0 + np.cos(math.pi * np.minimum(r / R, 1.0))), 0.0)
    F = np.fft.fftshift(np.fft.fft2(img.values * bump))
    mag = np.abs(F)
    sc = np.asarray(probe.scales)
    mx = sc * probe.direction[0]
    my = sc * probe.direction[1]
    samples = _bilinear(mag, my + n // 2, mx + n // 2)
    if np.all(samples < 1e-12):
        return NO_SIGNAL
    logs = np.log(np.maximum(samples, 1e-300))
    slope = np.polyfit(np.log(sc), logs, 1)[0]
    return float(slope)


@dataclass(frozen=True, eq=False)
class ArtifactReport:
    """Measured artifact and edge strengths for one reconstruction."""

    lines: tuple[ArtifactLine, ...]
    per_line_strength: tuple[float, ...]
    edge_strengths: tuple[float, ...]
    k: int | None
    metadata: dict = field(default_factory=dict)

    @property
    def max_line_strength(self) -> float:
        return max(self.per_line_strength, default=0.0)

    @property
    def max_edge_strength(self) -> float:
        return max(self.edge_strengths, default=0.0)


def _cells(shape, rows, cols):
    """Where bilinear interpolation at fractional indices reads a ``shape`` array:
    the inside mask, the top-left cell ``(i, j)`` of the four neighbours read,
    and the fractions ``(ty, tx)``.  A point outside ``[0, n - 1]`` reads cell
    ``(0, 0)`` and gets 0."""
    n0, n1 = shape
    inside = (rows >= 0) & (rows <= n0 - 1) & (cols >= 0) & (cols <= n1 - 1)
    r, c = np.where(inside, rows, 0.0), np.where(inside, cols, 0.0)
    # The last row or column interpolates from the cell before it, with weight 1.
    i, j = np.minimum(r.astype(np.intp), n0 - 2), np.minimum(c.astype(np.intp), n1 - 2)
    return inside, i, j, r - i, c - j


def _bilinear(values: np.ndarray, rows, cols) -> np.ndarray:
    """Bilinear interpolation at fractional indices, 0 outside ``[0, n - 1]``; the
    bits of ``scipy.ndimage.map_coordinates(order=1, mode="constant")``."""
    inside, i, j, ty, tx = _cells(values.shape, rows, cols)
    out = (values[i, j] * (1 - ty) * (1 - tx) + values[i, j + 1] * (1 - ty) * tx
           + values[i + 1, j] * ty * (1 - tx) + values[i + 1, j + 1] * ty * tx)
    return np.where(inside, out, 0.0)


def _grid_index(grid: ImageGrid, pts: np.ndarray):
    """Fractional ``(row, column)`` indices of points ``(..., 2)`` among the pixel centres."""
    cols = (pts[..., 0] + grid.extent) / grid.h - 0.5
    rows = (pts[..., 1] + grid.extent) / grid.h - 0.5
    return rows, cols


def _box_candidates(shape, x: np.ndarray, y: np.ndarray, radius: float):
    """``(row, column)`` indices of the pixels of the box ``y`` by ``x`` that may
    lie within ``radius`` of the shape's boundary.

    A disk's tube is the annulus ``r - radius <= rho <= r + radius``, so each
    row keeps the ``x`` whose squared offset from the centre lies between the
    annulus's bounds at the row's ``y``.  Both squared bounds are widened by
    ``1e-9 (r + radius)^2``, far above the rounding of the squares and of
    ``rho``, so the bound drops only points farther than ``radius``.  Other
    shapes keep the box.
    """
    if not isinstance(shape, Disk):
        return np.nonzero(np.ones((y.size, x.size), dtype=bool))
    (cx, cy), r = shape.center, shape.radius
    dx2, dy2 = (x - cx) ** 2, (y - cy) ** 2
    slack = 1e-9 * (r + radius) ** 2
    lo = max(r - radius, 0.0) ** 2 - slack - dy2
    hi = (r + radius) ** 2 + slack - dy2
    return np.nonzero((dx2 >= lo[:, None]) & (dx2 <= hi[:, None]))


def _line_samples(grid: ImageGrid, phantom: Phantom, window: AngularWindow | None,
                  exclusion_radius: float):
    """The predicted lines and the ``(lines, t)`` lattice :func:`artifact_report`
    samples them on: ``(lines, points, keep)``.  ``points[l, i]`` is line ``l``'s
    generator plus ``t_i`` times its direction, ``t = h (-m..m)`` with
    ``m = ceil(sqrt(2) L / h)``; ``keep`` is false where the report drops it."""
    h, L = grid.h, grid.extent
    if exclusion_radius < 2.0 * h:
        raise ValueError("exclusion radius must be at least 2 pixels")
    lines = predicted_artifact_lines(phantom, window) if window is not None else []
    # Offsets symmetric about the generator: the mirror image of a line in
    # a mirror-symmetric phantom runs the other way and samples the same points.
    m = math.ceil(math.sqrt(2.0) * L / h)
    t = h * np.arange(-m, m + 1)
    base = np.array([ln.point for ln in lines]).reshape(-1, 1, 2)
    step = np.array([ln.direction for ln in lines]).reshape(-1, 1, 2)
    points = base + t[:, None] * step
    # One distance call for all lines: the ellipse's Newton loop costs per call.
    # Every generator lies on the boundary, so this also drops the points
    # within the radius of the line's own generator.
    keep = phantom.boundary_distance(points) >= exclusion_radius
    keep &= (np.abs(points[..., 0]) <= L - h) & (np.abs(points[..., 1]) <= L - h)
    return lines, points, keep


def _visible_tubes(grid: ImageGrid, phantom: Phantom, window: AngularWindow | None):
    """For each shape, the ``(rows, columns)`` of the pixels whose centre lies
    within ``TUBE_PIXELS`` pixels of its boundary, at most ``L - h`` from the
    image centre in each coordinate, and whose nearest boundary point has a
    normal in the window (every one with ``window=None``)."""
    ax, L, h = grid.axis(), grid.extent, grid.h
    radius = TUBE_PIXELS * h
    inner = np.abs(ax) <= L - h
    tubes = []
    for sh in phantom.shapes:
        # The bounding box grown by the tube; normals only on the tube.
        ix, iy = (np.flatnonzero(inner & (np.abs(ax - c) <= w + radius))
                  for c, w in zip(sh.center, sh.bbox_halfwidths()))
        r, c = _box_candidates(sh, ax[ix], ax[iy], radius)
        pts = np.stack([ax[ix[c]], ax[iy[r]]], axis=-1)
        tube = sh.boundary_distance(pts) <= radius
        if window is not None:
            _, nrm = sh.boundary_distance(pts[tube], normal=True)
            tube[tube] = window.contains_direction(np.arctan2(nrm[:, 1], nrm[:, 0]))
        tubes.append((iy[r[tube]], ix[c[tube]]))
    return tubes


def _peak(vals: np.ndarray) -> float:
    return float(np.abs(vals).max()) if vals.size else 0.0


def _report_sites(grid: ImageGrid, phantom: Phantom, window: AngularWindow | None,
                  exclusion_radius: float):
    """What a report reads: ``(lines, points, keep, tubes, exclusion_radius)``,
    the :func:`_line_samples` lattice, the :func:`_visible_tubes` and the radius
    the lattice's points were dropped by.  It reads the window only through its
    arc."""
    lines, points, keep = _line_samples(grid, phantom, window, exclusion_radius)
    return lines, points, keep, _visible_tubes(grid, phantom, window), float(exclusion_radius)


def _measure(recon: Raster, sites, window: AngularWindow | None,
             metadata: dict | None = None) -> ArtifactReport:
    """The report of ``recon`` read at ``sites``, the :func:`_report_sites` of its grid."""
    grid = recon.grid
    lines, points, keep, tubes, exclusion_radius = sites
    # Only kept points count: the others may lie on pixels never computed.
    sampled = _bilinear(recon.values, *_grid_index(grid, points))
    strengths = np.max(np.abs(sampled), axis=-1, where=keep, initial=0.0)
    edge_strengths = [_peak(recon.values[rows, cols]) for rows, cols in tubes]
    k = window.k if window is not None and window.kind == "finite-order" else None
    meta = {
        "n": grid.n,
        "extent": grid.extent,
        "exclusion_radius": exclusion_radius,
        "tube_radius": float(TUBE_PIXELS * grid.h),
    }
    if metadata:
        meta.update(metadata)
    return ArtifactReport(tuple(lines), tuple(strengths.tolist()), tuple(edge_strengths), k, meta)


def _mask(grid: ImageGrid, sites) -> np.ndarray:
    """The boolean ``(n, n)`` mask of the pixels :func:`_measure` reads at ``sites``:
    the four bilinear neighbours of every kept lattice point and every visible
    tube pixel, so a reconstruction whose masked pixels are exact gives the
    report of the full image, whatever lies outside the mask."""
    _, points, keep, tubes, _ = sites
    mask = np.zeros((grid.n, grid.n), dtype=bool)
    _, i, j, _, _ = _cells(mask.shape, *_grid_index(grid, points[keep]))
    for di in (0, 1):
        for dj in (0, 1):
            mask[i + di, j + dj] = True
    for rows, cols in tubes:
        mask[rows, cols] = True
    return mask


def artifact_report(recon: Raster, phantom: Phantom,
                    window: AngularWindow | None, exclusion_radius: float,
                    metadata: dict | None = None) -> ArtifactReport:
    """Measure streak and edge strengths of a reconstruction.

    Every predicted artifact line is sampled every pixel, symmetrically
    about its generator, on one ``(lines, t)`` lattice; points within
    ``exclusion_radius`` of the phantom boundary, which holds every
    generator, by each shape's exact distance (``Phantom.boundary_distance``),
    are dropped and the peak absolute value of the rest is the line strength
    (0.0 when none is left).  A shape's edge strength is the peak absolute
    value at the pixel centres within ``tube_radius`` (3 pixels) of its
    boundary whose nearest boundary point has a normal in the window; with
    ``window=None`` the whole tube counts as visible.  Only samples and
    pixels at most ``L - h`` from the image centre in each coordinate count.
    """
    sites = _report_sites(recon.grid, phantom, window, exclusion_radius)
    return _measure(recon, sites, window, metadata)


@dataclass(frozen=True)
class StudyRow:
    """One line of the strength-versus-order table."""

    k: int
    line_strength: float
    edge_strength: float
    ratio: float


def strength_vs_order_study(phantom: Phantom, base_cfg: ReconstructionConfig,
                            k_list, igrid: ImageGrid, sgrid: SinogramGrid,
                            exclusion_radius: float | None = None,
                            report_dir=None) -> list[StudyRow]:
    """Reconstruct once per cutoff order and tabulate strength ratios.

    The sinogram is computed once with ``base_cfg.mu`` and filtered once;
    one back-projection pass over its angles then reconstructs it with
    the finite-order cutoff of every order ``k`` on identical grids (see
    :func:`~limitomo.filters.reconstruct` with ``windows``).  The
    windows differ only in ``k``, which the report geometry (the lines'
    ``(lines, t)`` sample lattice and the tubes) never reads, so it is
    sampled once.  The pass returns the values of only the pixels that
    geometry reads, with the bits of a full image there; each order's are
    scattered into one reused image, +0.0 elsewhere, measured at that
    geometry, so every report equals :func:`artifact_report` of the full
    reconstruction, and summarized as
    ``(k, max line strength, max edge strength, ratio)``.  When
    ``report_dir`` is given, per-k CSV reports and a JSON summary are
    written there.  Orders whose full images would exceed
    ``MAX_BUFFER_BYTES`` together are rejected first.
    """
    ks = [int(k) for k in k_list]
    if not ks:
        raise ValueError("k_list must be nonempty")
    if any(b <= a for a, b in zip(ks[:-1], ks[1:])):
        raise ValueError("k_list must be strictly increasing")
    if base_cfg.window is None:
        raise ValueError("strength study requires a windowed configuration")
    if exclusion_radius is None:
        exclusion_radius = 4.0 * igrid.h

    wins = [AngularWindow(base_cfg.window.phi1, base_cfg.window.phi2,
                          "finite-order", k) for k in ks]
    # Every order gets the values of the mask's P pixels: bound them at their
    # worst case, P = n^2, before any work.
    check_buffer(f"stack of {len(ks)} {igrid.n}x{igrid.n} float64 images",
                 8 * len(ks) * igrid.n ** 2)
    # The windows differ only in k, which the report geometry never reads,
    # so one geometry, and its pixel set, serves every window.
    sites = _report_sites(igrid, phantom, wins[0], exclusion_radius)
    mask = _mask(igrid, sites)
    sino = forward(phantom, base_cfg.mu, sgrid)
    values = reconstruct(sino, base_cfg, igrid, windows=wins, pixels=mask)
    recon = Raster(igrid, np.zeros((igrid.n, igrid.n)))
    rows: list[StudyRow] = []
    reports: list[ArtifactReport] = []
    for k, win, vals in zip(ks, wins, values):
        recon.values[mask] = vals
        rep = _measure(recon, sites, win)
        reports.append(rep)
        edge = rep.max_edge_strength
        line = rep.max_line_strength
        ratio = line / edge if edge > 0 else math.inf
        rows.append(StudyRow(k, line, edge, ratio))

    if report_dir is not None:
        from pathlib import Path

        out = Path(report_dir)
        out.mkdir(parents=True, exist_ok=True)
        for k, rep in zip(ks, reports):
            write_report_csv(rep, out / f"report_k{k}.csv")
        write_study_summary(rows, out / "summary.json")
    return rows


def _line_records(report: ArtifactReport) -> list[dict]:
    """One record per predicted line, shared by the CSV and JSON reports."""
    return [{"line_id": i, "j": line.j,
             "generator": [float(line.point[0]), float(line.point[1])],
             "direction": [float(line.direction[0]), float(line.direction[1])],
             "strength": strength}
            for i, (line, strength) in enumerate(zip(report.lines,
                                                     report.per_line_strength))]


def _write_json(payload: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_report_csv(report: ArtifactReport, path) -> None:
    """Write one artifact report as CSV.

    Columns: k, line_id, generator_x, generator_y, j, strength,
    edge_strength, ratio.
    """
    edge = report.max_edge_strength
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "line_id", "generator_x", "generator_y", "j",
                    "strength", "edge_strength", "ratio"])
        for rec in _line_records(report):
            strength = rec["strength"]
            ratio = strength / edge if edge > 0 else math.inf
            w.writerow([report.k if report.k is not None else "",
                        rec["line_id"], f"{rec['generator'][0]:.12g}",
                        f"{rec['generator'][1]:.12g}", rec["j"],
                        f"{strength:.12g}", f"{edge:.12g}", f"{ratio:.12g}"])


def write_report_json(report: ArtifactReport, path) -> None:
    """Write one artifact report as JSON; ``config_sha256`` comes from its metadata."""
    lines = [{key: v for key, v in rec.items() if key != "strength"}
             for rec in _line_records(report)]
    _write_json({
        "config_sha256": report.metadata.get("config_sha256"),
        "k": report.k,
        "max_line_strength": report.max_line_strength,
        "max_edge_strength": report.max_edge_strength,
        "per_line_strength": list(report.per_line_strength),
        "edge_strengths": list(report.edge_strengths),
        "lines": lines,
        "metadata": report.metadata,
    }, path)


def write_study_summary(rows: list[StudyRow], path) -> None:
    """Write the strength-versus-order table as JSON."""
    _write_json({
        "k_list": [r.k for r in rows],
        "rows": [
            {"k": r.k, "line_strength": r.line_strength,
             "edge_strength": r.edge_strength, "ratio": r.ratio}
            for r in rows
        ],
    }, path)
