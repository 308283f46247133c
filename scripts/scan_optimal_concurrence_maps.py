#!/usr/bin/env python3
"""Phase-optimized concurrence over the (omega_A, omega_B) quadrant with the
probability paid at the optimizing phase (exchange model).  Inside the band
omega_B/(1+2 omega_B^2) <= omega_A <= omega_B the optimum is exactly C = 1;
left of it the resonant phase is best, right of it the anti-resonant one.

Not a plain CLI scan (each cell runs the per-point optimizer), so this
script drives the library directly and writes through the same grid
serializer the CLI uses."""

import sys
from pathlib import Path

from entscat import Axis, ModelKind, optimal_concurrence, write_csv
from entscat.sweep import make_grid

OUT = Path(__file__).resolve().parent.parent / "out"


def run(out_dir=OUT):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "exchange_optimal_grid.csv"
    axes = (Axis("omegaA", 0.02, 3.0, 100), Axis("omegaB", 0.02, 3.0, 100))
    rows = []
    for omega_a in axes[0].values():
        for omega_b in axes[1].values():
            report = optimal_concurrence(omega_a, omega_b)
            rows.append((report.concurrence, report.probability, report.phase_choice))
    columns = ("C_opt", "P_opt", "sin2kd_opt")
    write_csv(make_grid("optimal-map", ModelKind.SPIN_EXCHANGE, axes, {}, columns, rows), path)
    return [path]


if __name__ == "__main__":
    run(sys.argv[1] if len(sys.argv) > 1 else OUT)
