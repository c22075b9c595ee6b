"""Streak strength versus the cutoff's vanishing order.

Runs the limited-angle pipeline for cutoffs vanishing to order k = 1..4
at the window endpoints, for both the order-0 operator (B) and the
order-1 Lambda operator, and tabulates the artifact-to-edge strength
ratio.  Higher k damps the streaks; the ratio decreases monotonically.
"""

import math
from pathlib import Path

from limitomo import (
    AngularWindow,
    Disk,
    ImageGrid,
    Phantom,
    ReconstructionConfig,
    SinogramGrid,
    WeightFunction,
    strength_vs_order_study,
)

out_dir = Path(__file__).resolve().parent / "output"
out_dir.mkdir(exist_ok=True)

phantom = Phantom((Disk((0.0, 0.0), 1.0, 1.0),))
one = WeightFunction.constant(1.0)
phi1, phi2 = math.pi / 4.0, 3.0 * math.pi / 4.0

n, L = 256, 1.5
grid = ImageGrid(n, L)
s_max = math.sqrt(2.0) * L
sgrid = SinogramGrid(n_phi=181, n_s=int(round(2 * s_max / grid.h)) + 1,
                     s_max=s_max, phi0=phi1, phi1=phi2)
window = AngularWindow(phi1, phi2, "finite-order", 1)

for op in ("B", "Lambda"):
    cfg = ReconstructionConfig(op, one, one, window=window)
    rows = strength_vs_order_study(phantom, cfg, [1, 2, 3, 4], grid, sgrid,
                                   exclusion_radius=24.0 * grid.h,
                                   report_dir=out_dir / f"study_{op}")
    print(f"\noperator {op}:")
    print(f"{'k':>3} {'streak':>12} {'edge':>12} {'ratio':>10}")
    for r in rows:
        print(f"{r.k:>3} {r.line_strength:>12.5g} {r.edge_strength:>12.5g} "
              f"{r.ratio:>10.5f}")
    print(f"per-k CSV reports in {out_dir / f'study_{op}'}")
