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

from .filters import ReconstructionConfig, reconstruct
from .geometry import AngularWindow, ImageGrid, Raster, SinogramGrid
from .phantoms import EdgeSingularity, Ellipse, Phantom, edge_singularities
from .transforms import forward

NO_SIGNAL = float("nan")

# Scales on the :func:`default_probe_scales` ladder.
PROBE_SCALES = 12


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


def _bilinear(values: np.ndarray, rows, cols) -> np.ndarray:
    """Bilinear interpolation at fractional indices, 0 outside ``[0, n - 1]``; the
    bits of ``scipy.ndimage.map_coordinates(order=1, mode="constant")``."""
    n0, n1 = values.shape
    inside = (rows >= 0) & (rows <= n0 - 1) & (cols >= 0) & (cols <= n1 - 1)
    r, c = np.where(inside, rows, 0.0), np.where(inside, cols, 0.0)
    # The last row or column interpolates from the cell before it, with weight 1.
    i, j = np.minimum(r.astype(np.intp), n0 - 2), np.minimum(c.astype(np.intp), n1 - 2)
    ty, tx = r - i, c - j
    out = (values[i, j] * (1 - ty) * (1 - tx) + values[i, j + 1] * (1 - ty) * tx
           + values[i + 1, j] * ty * (1 - tx) + values[i + 1, j + 1] * ty * tx)
    return np.where(inside, out, 0.0)


def _sample_raster(raster: Raster, pts: np.ndarray) -> np.ndarray:
    grid = raster.grid
    cols = (pts[..., 0] + grid.extent) / grid.h - 0.5
    rows = (pts[..., 1] + grid.extent) / grid.h - 0.5
    return _bilinear(raster.values, rows, cols)


def _tube(shape, pts: np.ndarray, radius: float) -> np.ndarray:
    """Whether each point of ``pts`` (``(..., 2)``) is within ``radius`` of the
    shape's boundary by its exact distance.

    An ellipse's distance is a Newton solve, so its points are screened first
    by the gauge ``q``.  The ellipse is convex and contains the disk of radius
    ``r = min(a, b)`` about its centre, so ``q`` is subadditive with ``q(y) <=
    |y| / r``, and the distance is at least ``r |q - 1|``, inside and outside.
    The margin ``1e-9 max(a, b) (1 + radius / r)`` is far above the rounding of
    ``q`` and of the distance near the tube, so the screen drops only points
    farther than ``radius``.
    """
    if not isinstance(shape, Ellipse):
        return shape.boundary_distance(pts) <= radius
    r = min(shape.a, shape.b)
    slack = 1e-9 * max(shape.a, shape.b) * (1.0 + radius / r)
    near = r * np.abs(shape.gauge(pts) - 1.0) <= radius + slack
    tube = np.zeros_like(near)
    tube[near] = shape.boundary_distance(pts[near]) <= radius
    return tube


def artifact_report(recon: Raster, phantom: Phantom,
                    window: AngularWindow | None, exclusion_radius: float,
                    metadata: dict | None = None) -> ArtifactReport:
    """Measure streak and edge strengths of a reconstruction.

    Each predicted artifact line is sampled every pixel, symmetrically about
    its generator; points within ``exclusion_radius`` of the generator, or of
    the phantom boundary by each shape's exact distance
    (``Phantom.boundary_distance``), are dropped and the peak absolute value
    of the rest is the line strength.  A shape's edge strength is the peak
    absolute value at the pixel centres within ``tube_radius`` (3 pixels) of
    its boundary whose nearest boundary point has a normal in the window;
    with ``window=None`` the whole tube counts as visible.  Only samples and
    pixels at most ``L - h`` from the image centre in each coordinate count.
    """
    grid = recon.grid
    h, L = grid.h, grid.extent
    if exclusion_radius < 2.0 * h:
        raise ValueError("exclusion radius must be at least 2 pixels")
    tube_radius = 3.0 * h

    lines = predicted_artifact_lines(phantom, window) if window is not None else []
    # Offsets symmetric about the generator: the mirror image of a line in
    # a mirror-symmetric phantom runs the other way and samples the same points.
    m = math.ceil(math.sqrt(2.0) * L / h)
    t = h * np.arange(-m, m + 1)
    along = np.array([ln.point + t[:, None] * ln.direction for ln in lines]).reshape(-1, t.size, 2)
    # One distance call for all lines: the ellipse's Newton loop costs per call.
    far = phantom.boundary_distance(along) >= exclusion_radius
    strengths = []
    for line, pts, keep in zip(lines, along, far):
        keep &= (np.abs(pts[:, 0]) <= L - h) & (np.abs(pts[:, 1]) <= L - h)
        keep &= np.hypot(pts[:, 0] - line.point[0], pts[:, 1] - line.point[1]) >= exclusion_radius
        vals = np.abs(_sample_raster(recon, pts[keep]))
        strengths.append(float(vals.max()) if vals.size else 0.0)

    # Per-shape peak |recon| over the visible tube pixels of its bounding
    # box; normals only on the tube, the distance alone on the box.
    ax = grid.axis()
    inner = np.abs(ax) <= L - h
    edge_strengths = []
    for sh in phantom.shapes:
        ix, iy = (np.flatnonzero(inner & (np.abs(ax - c) <= w + tube_radius))
                  for c, w in zip(sh.center, sh.bbox_halfwidths()))
        pts = np.stack(np.meshgrid(ax[ix], ax[iy]), axis=-1)
        tube = _tube(sh, pts, tube_radius)
        if window is not None:
            _, nrm = sh.boundary_distance(pts[tube], normal=True)
            tube[tube] = window.contains_direction(np.arctan2(nrm[:, 1], nrm[:, 0]))
        vals = np.abs(recon.values[np.ix_(iy, ix)][tube])
        edge_strengths.append(float(vals.max()) if vals.size else 0.0)

    k = window.k if window is not None and window.kind == "finite-order" else None
    meta = {
        "n": grid.n,
        "extent": grid.extent,
        "exclusion_radius": float(exclusion_radius),
        "tube_radius": float(tube_radius),
    }
    if metadata:
        meta.update(metadata)
    return ArtifactReport(tuple(lines), tuple(strengths), tuple(edge_strengths), k, meta)


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
    :func:`~limitomo.filters.reconstruct` with ``windows``).  Each image
    is measured with :func:`artifact_report` and summarized as
    ``(k, max line strength, max edge strength, ratio)``.  When
    ``report_dir`` is given, per-k CSV reports and a JSON summary are
    written there.
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
    sino = forward(phantom, base_cfg.mu, sgrid)
    recons = reconstruct(sino, base_cfg, igrid, windows=wins)
    rows: list[StudyRow] = []
    reports: list[ArtifactReport] = []
    for k, win, recon in zip(ks, wins, recons):
        rep = artifact_report(recon, phantom, win, exclusion_radius)
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
