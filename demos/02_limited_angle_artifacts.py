"""Limited-angle Lambda reconstruction and its predicted streaks.

Reconstructs the unit disk from a 90-degree angular window with a cutoff
that vanishes to first order at the window endpoints, predicts the four
streak lines generated by the edge singularities (boundary points whose
normal matches a window boundary direction), and measures streak and edge
strengths.
"""

import math
from pathlib import Path

import numpy as np

from limitomo import (
    AngularWindow,
    Disk,
    ImageGrid,
    Phantom,
    ReconstructionConfig,
    SinogramGrid,
    WeightFunction,
    artifact_report,
    forward,
    predicted_artifact_lines,
    reconstruct,
    write_raster,
)
from limitomo.microlocal import write_report_csv

out_dir = Path(__file__).resolve().parent / "output"
out_dir.mkdir(exist_ok=True)

phantom = Phantom((Disk((0.0, 0.0), 1.0, 1.0),))
one = WeightFunction.constant(1.0)
phi1, phi2 = math.pi / 4.0, 3.0 * math.pi / 4.0
window = AngularWindow(phi1, phi2, "finite-order", k=1)

n, L = 512, 1.2
grid = ImageGrid(n, L)
s_max = math.sqrt(2.0) * L
sgrid = SinogramGrid(n_phi=361, n_s=int(round(2 * s_max / grid.h)) + 1,
                     s_max=s_max, phi0=phi1, phi1=phi2)

print(f"angular window: ({math.degrees(phi1):.0f}, {math.degrees(phi2):.0f}) deg, "
      f"cutoff order k={window.k}")
sino = forward(phantom, one, sgrid)
cfg = ReconstructionConfig("Lambda", one, one, window=window)
rec = reconstruct(sino, cfg, grid)

lines = predicted_artifact_lines(phantom, window)
print(f"{len(lines)} predicted streak lines (tangent to the disk):")
for ln in lines:
    print(f"  through ({ln.point[0]:+.4f}, {ln.point[1]:+.4f}), "
          f"direction ({ln.direction[0]:+.4f}, {ln.direction[1]:+.4f}), j={ln.j}")

report = artifact_report(rec, phantom, window, exclusion_radius=4.0 * grid.h)
print(f"peak streak strength:  {report.max_line_strength:.4f}")
print(f"peak visible-edge strength: {report.max_edge_strength:.4f}")
print(f"streak / edge ratio:   {report.max_line_strength / report.max_edge_strength:.4f}")

write_raster(rec, out_dir / "limited_angle_lambda.pgm", fmt="pgm16")
write_report_csv(report, out_dir / "limited_angle_report.csv")
print(f"wrote {out_dir / 'limited_angle_lambda.pgm'} and limited_angle_report.csv")

try:
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(5, 5))
    v = np.percentile(np.abs(rec.values), 99.5)
    ax.imshow(rec.values, origin="lower", cmap="gray", vmin=-v, vmax=v,
              extent=[-L, L, -L, L])
    t = np.linspace(-2.0, 2.0, 2)
    for ln in lines:
        ax.plot(ln.point[0] + t * ln.direction[0], ln.point[1] + t * ln.direction[1],
                "r--", lw=0.8)
    ax.set_xlim(-L, L)
    ax.set_ylim(-L, L)
    ax.set_title("limited-angle Lambda recon + predicted streaks")
    fig.tight_layout()
    fig.savefig(out_dir / "limited_angle_lambda.png", dpi=120)
    print(f"wrote {out_dir / 'limited_angle_lambda.png'}")
except ImportError:
    print("matplotlib not available; skipped the figure")
