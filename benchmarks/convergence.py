"""How the raster-path error falls as the pixel size h halves.

    python3 benchmarks/convergence.py [--seeds 1 2 3] [--sizes 64 128 256 512]

For the weighted-roundtrip phantom of each seed, rasterizes it at each
size, runs limitomo's raster forward path on the 36 reference angles and
compares with the oracle's exponential chord formula.  Prints the largest
per-angle L1 error in s, the ratio of that error to the oracle's tube
envelope (``raster_tube_bound``, itself proportional to h), and the factor by
which the error fell since the previous size.  A first-order method shows
a steady ratio and factors near 2; README.md derives the benchmark's
bound from this table.  Takes about 20 s per seed at the default sizes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from limitomo import ImageGrid, SinogramGrid, WeightFunction, forward, rasterize  # noqa: E402
from limitomo.config import loads_config  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--sizes", type=int, nargs="+", default=[64, 128, 256, 512])
    args = ap.parse_args(argv)

    g = workloads.weighted_roundtrip(0).grid
    sgrid = SinogramGrid(g["ref_n_phi"], g["n_s"], g["s_max"])
    s = sgrid.s_values()
    ws = sgrid.s_weights()
    mu = WeightFunction.exponential(g["lam"])
    print(f"{'seed':>4} {'n':>5} {'h':>9} {'max L1 error':>13} {'/ envelope':>13} {'fall':>6}")
    for seed in args.seeds:
        wl = workloads.weighted_roundtrip(seed)
        phantom = loads_config(wl.configs["roundtrip.ini"]).phantom
        want = oracle.sinogram(wl.shapes, sgrid.phis(), s, g["lam"])
        prev = None
        for n in args.sizes:
            grid = ImageGrid(n, g["extent"])
            got = forward(rasterize(phantom, grid), mu, sgrid).values
            err = float(np.max(np.abs(got - want) @ ws))
            bound = oracle.raster_tube_bound(wl.shapes, grid.h, g["lam"])
            fall = f"{prev / err:6.2f}" if prev else "     -"
            print(f"{seed:>4} {n:>5} {grid.h:9.5f} {err:13.4e} {err / bound:13.4f} {fall}")
            prev = err
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
