"""Contour-grid data: q_r and efficiency over the exponent square.

Builds the 2-D sweep behind the contour pictures (q_r and eta as functions
of alpha_1 and alpha_2 at fixed widths) and writes it as long-format CSV,
one row per grid node.  Plotting is left to whatever tool reads the CSV.
The grid's per-node columns are (nx, ny) arrays, so the counts and the best
node come from whole-array operations, without a CycleReport per node.

Usage: python3 demos/05_parameter_sweep.py [OUT.csv]
"""

import sys

import numpy as np

from fracstirling import CycleParams, SweepAxis, sweep

out_path = sys.argv[1] if len(sys.argv) > 1 else "sweep_alpha_square.csv"

base = CycleParams(
    width_a=1.0, width_b=1.5, alpha_1=1.5, alpha_2=1.5, t_hot=4.0, t_cold=3.0
)
ax = SweepAxis("alpha_1", 1.02, 2.0, 40)
ay = SweepAxis("alpha_2", 1.02, 2.0, 40)
grid = sweep(base, ax, ay)
q_r, work, eta = (grid.columns[name] for name in ("q_r", "work", "efficiency"))
ok = np.ones(q_r.shape, dtype=bool)
for ij in grid.errors:
    ok[ij] = False
engine = ok & (work > 0)

rows = ["alpha_1,alpha_2,q_r,work,efficiency,regime"]
for i, x in enumerate(ax.values()):
    for j, y in enumerate(ay.values()):
        if not ok[i, j]:
            rows.append(f"{x:.6f},{y:.6f},nan,nan,nan,error")
            continue
        regime = "engine" if engine[i, j] else "non_engine"
        rows.append(f"{x:.6f},{y:.6f},{q_r[i, j]:.10g},{work[i, j]:.10g},{eta[i, j]:.10g},{regime}")

with open(out_path, "w", newline="") as fh:
    fh.write("\n".join(rows) + "\n")

# the first node of largest efficiency among the engine nodes
best = np.where(engine, eta, -np.inf)
i, j = np.unravel_index(np.argmax(best), best.shape)
print(f"wrote {len(rows) - 1} nodes to {out_path}")
print(f"engine regime at {np.count_nonzero(engine)} nodes")
print(f"q_r > 0 at {np.count_nonzero(ok & (q_r > 0))} nodes, "
      f"q_r < 0 at {np.count_nonzero(ok & (q_r < 0))} nodes")
print("both signs present, so the q_r = 0 contour crosses this square;")
print(f"best engine efficiency {best[i, j]:.6f} at alpha_1 = {ax.values()[i]:.4f}, "
      f"alpha_2 = {ay.values()[j]:.4f} (carnot reference 0.25)")
