"""Deterministic self-check: filter oracles, cutoff orders, symbols.

``run_selftest`` recomputes the analytic filter checks, the cutoff
vanishing-order probe and the symbol properties, writes every computed
array as raw float32, repeats the whole computation a second time into a
sibling directory, and byte-compares the two runs.  One PASS/FAIL line is
printed per check; the return code is 0 only if all checks pass.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .filters import ReconstructionConfig, filter_chain, hilbert
from .geometry import AngularWindow, SinogramGrid, vanishing_order_probe
from .microlocal import symbol_eval
from .transforms import Sinogram, WeightFunction


def _hilbert_arrays() -> dict[str, np.ndarray]:
    grid = SinogramGrid(n_phi=2, n_s=512, s_max=1.0)
    s = grid.s_values()
    # Hann taper over the full window keeps the row interior-supported and
    # band-limited well below the carrier, so H(w cos) = w sin holds.
    w = 0.5 * (1.0 + np.cos(math.pi * s / grid.s_max))
    omega = 8.0 * (2.0 * math.pi / (2.0 * grid.s_max))
    row = w * np.cos(omega * s)
    g = Sinogram(grid, np.vstack([row, row]))
    hg = hilbert(g)
    hhg = hilbert(hg)
    fused = filter_chain(g, "ramp")
    chained = filter_chain(g, ("hilbert", "d_ds"))
    return {
        "hilbert_out": hg.values[0],
        "hilbert_target": w * np.sin(omega * s),
        "hilbert_twice": hhg.values[0],
        "hilbert_row": row,
        "fused": fused.values[0],
        "chained": chained.values[0],
    }


def _kappa_arrays() -> dict[str, np.ndarray]:
    phi1, phi2 = math.pi / 4.0, 3.0 * math.pi / 4.0
    width = phi2 - phi1
    h_list = np.array([1e-2, 1e-3, 1e-4]) * width
    slopes = []
    for k in (1, 2, 3, 4):
        win = AngularWindow(phi1, phi2, "finite-order", k)
        slopes.append(vanishing_order_probe(win, "left", h_list))
    return {"kappa_slopes": np.array(slopes)}


def _symbol_arrays() -> dict[str, np.ndarray]:
    win = AngularWindow(math.pi / 4.0, 3.0 * math.pi / 4.0, "finite-order", 2)
    one = WeightFunction.constant(1.0)
    cfg_b = ReconstructionConfig("B", one, one, window=win)
    cfg_l = ReconstructionConfig("Lambda", one, one, window=win)
    x = np.array([0.1, -0.2])
    psis = (np.arange(360) + 0.5) * (2.0 * math.pi / 360.0)
    xi = np.stack([np.cos(psis), np.sin(psis)], axis=-1)
    return {"symbol_b": symbol_eval(cfg_b, x, xi),
            "symbol_b_scaled": symbol_eval(cfg_b, x, 2.0 * xi),
            "symbol_lambda_3": symbol_eval(cfg_l, x, 3.0 * xi)}


def _compute_all() -> dict[str, np.ndarray]:
    out = {}
    out.update(_hilbert_arrays())
    out.update(_kappa_arrays())
    out.update(_symbol_arrays())
    return out


def _write_arrays(arrays: dict[str, np.ndarray], directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, arr in arrays.items():
        arr.astype("<f4").tofile(directory / f"{name}.f32")


def run_selftest(out_dir) -> int:
    out = Path(out_dir)
    failures = 0

    def check(name: str, ok: bool, detail: str):
        nonlocal failures
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}: {detail}")
        if not ok:
            failures += 1

    runs = []
    for tag in ("run1", "run2"):
        arrays = _compute_all()
        _write_arrays(arrays, out / tag)
        runs.append(arrays)
    arrays = runs[0]

    interior = slice(51, 461)  # 10% margins of the 512-sample rows
    err_pair = np.max(np.abs(arrays["hilbert_out"][interior]
                             - arrays["hilbert_target"][interior]))
    check("hilbert pair", err_pair < 1e-3,
          f"max |H(w cos) - w sin| = {err_pair:.3e} (tol 1e-3)")
    err_twice = np.max(np.abs(arrays["hilbert_twice"][interior]
                              + arrays["hilbert_row"][interior]))
    check("hilbert involution", err_twice < 1e-3,
          f"max |H^2 g + g| = {err_twice:.3e} (tol 1e-3)")
    err_fused = np.max(np.abs(arrays["fused"] - arrays["chained"]))
    check("fused ramp", err_fused < 1e-10,
          f"max |(H d/ds) g - ramp g| = {err_fused:.3e} (tol 1e-10)")

    devs = np.abs(arrays["kappa_slopes"] - np.array([1.0, 2.0, 3.0, 4.0]))
    check("cutoff vanishing order", bool(np.all(devs < 0.05)),
          f"max |slope - k| = {devs.max():.3e} over k=1..4 (tol 0.05)")

    hom = np.max(np.abs(arrays["symbol_b_scaled"] - arrays["symbol_b"]))
    check("symbol homogeneity", hom == 0.0,
          f"max |symbol(2 xi) - symbol(xi)| = {hom:.3e} (exact)")
    phi1, phi2 = math.pi / 4.0, 3.0 * math.pi / 4.0
    psis = (np.arange(360) + 0.5) * (2.0 * math.pi / 360.0)
    wrapped = psis % math.pi
    vis = (wrapped > phi1) & (wrapped < phi2)
    pos = bool(np.all(arrays["symbol_b"][vis] > 0.0)
               and np.all(arrays["symbol_lambda_3"][vis] > 0.0))
    check("symbol positivity", pos,
          f"{int(vis.sum())} visible directions all positive")

    identical = True
    for name in runs[0]:
        b1 = (out / "run1" / f"{name}.f32").read_bytes()
        b2 = (out / "run2" / f"{name}.f32").read_bytes()
        if b1 != b2:
            identical = False
    check("determinism", identical, "raw outputs byte-identical across two runs")

    return 0 if failures == 0 else 1
