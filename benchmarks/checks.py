"""Per-round output checks and the paper's figures, one set per workload.

Every check compares a CLI output with values the oracle computes on its
own, or with a property the method must have; none compares with a stored
copy of an earlier output.  Files are read with this module's own readers
of the documented raster (``LTR1``) and sinogram (``LTS1``) formats.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

import oracle
import workloads

# The raster path's per-angle L1 error may be at most this fraction of the
# oracle's first-order tube envelope.  From n = 64 to 512 the measured
# fraction stays at 0.028-0.036 while the error halves with h (README.md,
# convergence.py); the allowance is twice the coarsest grid's fraction.
RASTER_ENVELOPE_FRACTION = 0.08

_RASTER = struct.Struct("<4sIf4x")
_SINO = struct.Struct("<4sIddId")


def read_raster(path):
    """``(n, extent, values)`` of a raw-f32 raster file; values stay float32."""
    raw = Path(path).read_bytes()
    magic, n, extent = _RASTER.unpack_from(raw)
    if magic != b"LTR1":
        raise ValueError(f"{path}: bad magic {magic!r}")
    values = np.frombuffer(raw, dtype="<f4", offset=_RASTER.size)
    return n, extent, values.reshape(n, n)


def read_sinogram(path):
    """``(n_phi, phi0, dphi, n_s, s_max, values)`` of a sinogram file."""
    raw = Path(path).read_bytes()
    magic, n_phi, phi0, dphi, n_s, s_max = _SINO.unpack_from(raw)
    if magic != b"LTS1":
        raise ValueError(f"{path}: bad magic {magic!r}")
    values = np.frombuffer(raw, dtype="<f4", offset=_SINO.size)
    return n_phi, phi0, dphi, n_s, s_max, values.reshape(n_phi, n_s)


def _ulp32(x):
    return np.spacing(np.abs(np.asarray(x)).astype(np.float32)).astype(float)


def _grid(n_phi: int, n_s: int, s_max: float):
    """Full-circle angles and inclusive offsets, as the file format defines them."""
    return (2.0 * math.pi / n_phi) * np.arange(n_phi), np.linspace(-s_max, s_max, n_s)


def file_hashes(round_dir: Path, inputs) -> dict:
    """SHA-256 of every file of a round except the named inputs."""
    out = {}
    for p in sorted(round_dir.rglob("*")):
        if p.is_file() and p.relative_to(round_dir).as_posix() not in inputs:
            out[p.relative_to(round_dir).as_posix()] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


class Checker:
    """Checks one workload's rounds; the oracle's values are computed once."""

    def __init__(self, wl: workloads.Workload):
        self.wl = wl
        self._expected = None
        self.first_hashes = None

    def check_round(self, round_dir: Path):
        """Returns ``(checks, figures, hashes)``; a check is ``(name, ok, detail)``."""
        fn = {"analyze-full": self._analyze_full, "study-window": self._study_window,
              "weighted-roundtrip": self._weighted_roundtrip}[self.wl.name]
        checks, figures = [], {}
        for name, run in fn(round_dir, figures):
            try:
                ok, detail = run()
            except (OSError, ValueError, KeyError, IndexError, struct.error) as exc:
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            checks.append((name, bool(ok), detail))
        hashes = file_hashes(round_dir, self.wl.configs)
        if self.first_hashes is None:
            self.first_hashes = hashes
        same = hashes == self.first_hashes
        checks.append(("outputs_bit_identical_across_rounds", same,
                       "" if same else "output SHA-256 differs from the first round"))
        return checks, figures, hashes

    # -- shared checks ------------------------------------------------------

    @staticmethod
    def _raster_exact(path, truth):
        _, _, got = read_raster(path)
        bad = int(np.count_nonzero(got != truth.astype(np.float32)))
        return bad == 0, f"{bad} pixel(s) differ from the pixel-centre indicator"

    # -- analyze-full -------------------------------------------------------

    def _analyze_full(self, d: Path, figures: dict):
        g = self.wl.grid
        n, L = g["n"], g["extent"]
        out = d / "out"
        if self._expected is None:
            phis, s = _grid(g["n_phi"], g["n_s"], g["s_max"])
            self._expected = {
                "sino": oracle.sinogram(self.wl.shapes, phis, s),
                "truth": oracle.pixel_indicator(self.wl.shapes, n, L),
                "far": oracle.edge_distance(self.wl.shapes, n, L) >= 3.0 * (2.0 * L / n),
                "support": oracle.support_mask(self.wl.shapes, n, L),
            }
        e = self._expected

        def sinogram_chords():
            n_phi, _, _, n_s, s_max, got = read_sinogram(out / "sinogram.lts")
            if (n_phi, n_s) != e["sino"].shape or abs(s_max - g["s_max"]) > 1e-12:
                return False, f"grid {n_phi}x{n_s}, s_max {s_max!r}"
            want = e["sino"]
            tol = 2.0 * _ulp32(want) + _ulp32(np.max(np.abs(want)))
            worst = float(np.max(np.abs(got - want) / tol))
            return worst <= 1.0, f"worst error {worst:.3g} of the float32 tolerance"

        def recon_interior():
            # Criterion 1's measure: the object's own pixels, away from edges.
            _, _, rec = read_raster(out / "recon.ltr")
            m = e["far"] & e["support"]
            err = float(np.linalg.norm(rec[m] - e["truth"][m]) / np.linalg.norm(e["truth"][m]))
            figures["interior_rel_l2"] = err
            figures["exterior_mean"] = float(np.mean(rec[e["far"] & ~e["support"]]))
            return err < 0.05, f"relative L2 error {err:.4f} on support pixels >= 3h from edges"

        yield "phantom_raster_exact", lambda: self._raster_exact(out / "phantom.ltr", e["truth"])
        yield "sinogram_chords", sinogram_chords
        yield "recon_interior_within_5pct", recon_interior

    # -- study-window -------------------------------------------------------

    def _study_window(self, d: Path, figures: dict):
        out = d / "out"
        phis = [math.radians(a) for a in self.wl.grid["window_deg"]]
        if self._expected is None:
            self._expected = [(j, p) for j, phi in ((1, phis[0]), (2, phis[1]))
                              for sh in self.wl.shapes
                              for p in oracle.normal_points(sh, (math.cos(phi), math.sin(phi)))]
        expected = self._expected

        @functools.cache
        def rows(k):
            with open(out / f"report_k{k}.csv", newline="") as fh:
                return list(csv.DictReader(fh))

        def line_counts():
            want = len(self.wl.shapes) * 2 * 2
            bad = [(k, len(rows(k))) for k in workloads.K_LIST
                   if len(rows(k)) != want or any(int(r["k"]) != k for r in rows(k))]
            return not bad, f"want {want} lines per report; bad (k, lines): {bad}"

        def generators():
            bad = []
            for k in workloads.K_LIST:
                got = [(int(r["j"]), np.array([float(r["generator_x"]), float(r["generator_y"])]))
                       for r in rows(k)]
                for j, p in expected:
                    hits = sum(1 for gj, gp in got if gj == j and np.max(np.abs(gp - p)) <= 1e-9)
                    if hits != 1:
                        bad.append((k, j, p.round(6).tolist(), hits))
            return not bad, f"tangent points not matched exactly once: {bad[:4]}"

        def ratios():
            summary = json.loads((out / "summary.json").read_text())
            vals = [float(r["ratio"]) for k in workloads.K_LIST for r in rows(k)]
            vals += [float(r["ratio"]) for r in summary["rows"]]
            for r in summary["rows"]:
                figures[f"k{r['k']}"] = {"line_strength": r["line_strength"],
                                         "edge_strength": r["edge_strength"],
                                         "ratio": r["ratio"]}
            figures["mirror_gap"] = {f"k{k}": _mirror_gap(rows(k)) for k in workloads.K_LIST}
            bad = [v for v in vals if not (math.isfinite(v) and 0.0 < v < 1.0)]
            return not bad, f"{len(bad)} ratio(s) outside (0, 1): {bad[:4]}"

        yield "one_line_per_shape_endpoint_sign", line_counts
        yield "generators_are_tangent_points", generators
        yield "ratios_finite_in_0_1", ratios

    # -- weighted-roundtrip -------------------------------------------------

    def _weighted_roundtrip(self, d: Path, figures: dict):
        g = self.wl.grid
        n, L, lam = g["n"], g["extent"], g["lam"]
        h = 2.0 * L / n
        if self._expected is None:
            phis, s = _grid(g["n_phi"], g["n_s"], g["s_max"])
            ref_phis, _ = _grid(g["ref_n_phi"], g["n_s"], g["s_max"])
            ws = np.full(s.size, s[1] - s[0])
            ws[[0, -1]] *= 0.5
            self._expected = {
                "truth": oracle.pixel_indicator(self.wl.shapes, n, L),
                "ref": oracle.sinogram(self.wl.shapes, ref_phis, s, lam),
                "stride": g["n_phi"] // g["ref_n_phi"],
                "ws": ws,
                "weights": (2.0 * math.pi / g["n_phi"]) * ws[None, :],
                "g": workloads.duality_test_sinogram(self.wl.seed, phis, s),
                "l1_bound": RASTER_ENVELOPE_FRACTION
                * oracle.raster_tube_bound(self.wl.shapes, h, lam),
            }
        e = self._expected

        def analytic_vs_formula():
            *_, got = read_sinogram(d / "analytic.lts")
            want = e["ref"]
            if got.shape != want.shape:
                return False, f"shape {got.shape}"
            tol = _ulp32(want) + 1e-9 * len(self.wl.shapes)
            worst = float(np.max(np.abs(got - want) / tol))
            figures["analytic_max_abs_error"] = float(np.max(np.abs(got - want)))
            return worst <= 1.0, f"worst error {worst:.3g} of (1e-9 per chord + float32 ulp)"

        def raster_vs_analytic():
            *_, got = read_sinogram(d / "raster.lts")
            rows = got[::e["stride"]]
            if rows.shape != e["ref"].shape:
                return False, f"shape {got.shape}"
            diff = rows - e["ref"]
            l1 = np.abs(diff) @ e["ws"]
            figures["raster_max_l1_per_angle"] = float(l1.max())
            figures["raster_l1_bound"] = e["l1_bound"]
            figures["raster_rel_l2"] = float(np.linalg.norm(diff) / np.linalg.norm(e["ref"]))
            return float(l1.max()) <= e["l1_bound"], \
                f"max L1 error per angle {l1.max():.4g} against bound {e['l1_bound']:.4g}"

        def duality():
            *_, rf = read_sinogram(d / "raster.lts")
            _, _, f = read_raster(d / "phantom.ltr")
            bp = np.load(d / workloads.DUALITY_FILE)
            lhs = float(np.sum(rf * e["g"] * e["weights"]))
            rhs = float(np.sum(f * bp) * h * h)
            mismatch = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
            figures["duality_mismatch"] = mismatch
            return mismatch < 0.01, f"<R f, g> = {lhs:.6g}, <f, R* g> = {rhs:.6g}"

        def recon_finite():
            rn, _, rec = read_raster(d / "recon.ltr")
            return rn == n and bool(np.all(np.isfinite(rec))), f"n = {rn}"

        yield "phantom_raster_exact", lambda: self._raster_exact(d / "phantom.ltr", e["truth"])
        yield "analytic_matches_exp_chord_formula", analytic_vs_formula
        yield "raster_within_discretisation_bound", raster_vs_analytic
        yield "duality_within_1pct", duality
        yield "reconstruction_finite", recon_finite


def _mirror_gap(rows) -> float:
    """Largest relative strength gap between a line and its mirror image in x -> -x."""
    pts = [(float(r["generator_x"]), float(r["generator_y"]), int(r["j"]),
            float(r["strength"])) for r in rows]
    gap = 0.0
    for x, y, j, s in pts:
        for x2, y2, j2, s2 in pts:
            if j2 == 3 - j and abs(x2 + x) <= 1e-9 and abs(y2 - y) <= 1e-9 \
                    and max(s, s2) > 0.0:
                gap = max(gap, abs(s - s2) / max(s, s2))
    return gap
