#!/usr/bin/env python3
"""The paper's figure datasets, one recipe per file.

    python scripts/recipes.py [NAME ...] [--out DIR]

runs the named recipes (every recipe when none is named) in one process
and writes each one's CSV into DIR (default: ``out/`` at the repository
root).  ``RECIPES`` maps a recipe name to its output file name and either
the ``entscat`` argv that writes it or a function of the output path.
"""

import argparse
from pathlib import Path

from entscat import Axis, ModelKind, cli, optimal_concurrence, write_csv
from entscat.sweep import make_grid

OUT = Path(__file__).resolve().parent.parent / "out"


def _optimal_concurrence_map(path):
    # each cell runs the per-point optimizer, which no CLI scan does; the
    # columns go through the same grid serializer the CLI uses
    axes = (Axis("omegaA", 0.02, 3.0, 100), Axis("omegaB", 0.02, 3.0, 100))
    reports = [optimal_concurrence(a, b) for a in axes[0].values() for b in axes[1].values()]
    fields = {"C_opt": "concurrence", "P_opt": "probability", "sin2kd_opt": "phase_choice"}
    columns = {name: [getattr(report, field) for report in reports] for name, field in fields.items()}
    write_csv(make_grid("optimal-map", ModelKind.SPIN_EXCHANGE, axes, {}, columns), path)


RECIPES = {
    # How many bounces matter: observables rebuilt from the bounce series cut
    # at n = 0, 1, 3 next to the exact curves, over the same momentum axis as
    # the equal-couplings scan.  Already at n = 1 the curves hug the exact
    # ones for k above the opacity crossover.
    "scan_bounce_truncation_vs_k": ("exchange_truncation_vs_k.csv", [
        "truncate", "--model", "xy", "--gA", "3", "--gB", "3", "--axis", "k=0.05:10:200", "--n", "0,1,3",
    ]),
    # Per-side concurrences and probabilities versus incident momentum for
    # the contact model at equal couplings g = 1.5: same resonance structure
    # as the exchange model, but the reflected and transmitted detections
    # separate.
    "scan_contact_equal_couplings_vs_k": ("contact_cp_vs_k.csv", [
        "scan", "--model", "heis", "--gA", "1.5", "--gB", "1.5", "--axis", "k=0.05:10:200",
    ]),
    # 2D maps of the per-side concurrences and probabilities over (g_A, k)
    # at fixed g_B = 1.5 for the contact model, where the transmitted and
    # reflected detections genuinely differ.
    "scan_contact_momentum_coupling_maps": ("contact_cp_ga_k.csv", [
        "scan", "--model", "heis", "--gB", "1.5", "--axis", "gA=0.05:6:81", "--axis", "k=0.05:10:120",
    ]),
    # Concurrence and detection probability versus incident momentum for the
    # exchange model at equal couplings g = 3: the resonance comb with unit
    # concurrence at integer k and oscillations that damp out for k above
    # the opacity crossover.
    "scan_equal_couplings_vs_k": ("exchange_cp_vs_k.csv", [
        "scan", "--model", "xy", "--gA", "3", "--gB", "3", "--axis", "k=0.05:10:200",
    ]),
    # 2D maps of concurrence and probability over (g_A, k) at fixed g_B = 3
    # for the exchange model: the resonance ridges in the momentum-coupling
    # plane.
    "scan_momentum_coupling_maps": ("exchange_cp_ga_k.csv", [
        "scan", "--model", "xy", "--gB", "3", "--axis", "gA=0.05:6:81", "--axis", "k=0.05:10:120",
    ]),
    # Phase-optimized concurrence over the (omega_A, omega_B) quadrant with
    # the probability paid at the optimizing phase (exchange model).  Inside
    # the band omega_B/(1 + 2 omega_B^2) <= omega_A <= omega_B the optimum is
    # exactly C = 1; left of it the resonant phase is best, right of it the
    # anti-resonant one.
    "scan_optimal_concurrence_maps": ("exchange_optimal_grid.csv", _optimal_concurrence_map),
    # Concurrence and probability over the (omega_A, omega_B) quadrant at the
    # resonant phase sin^2(kd) = 1 for the exchange model: the probability
    # crests toward 1/2 near omega_A = 1/sqrt(2) at large omega_B, and C = 1
    # runs along omega_A = omega_B/(1 + 2 omega_B^2).
    "scan_resonant_coupling_maps": ("exchange_resonant_grid.csv", [
        "scan", "--model", "xy", "--sin2kd", "1", "--axis", "omegaA=0.02:3:100", "--axis", "omegaB=0.02:3:100",
    ]),
}


def run(name, out_dir=OUT):
    """Write recipe ``name``'s file into ``out_dir``; returns the written paths."""
    file_name, recipe = RECIPES[name]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / file_name
    if callable(recipe):
        recipe(path)
    else:
        code = cli.main([*recipe, "--out", str(path)])
        if code != 0:
            raise SystemExit(code)
    return [path]


def main(argv=None):
    parser = argparse.ArgumentParser(description="Write the figure datasets.")
    parser.add_argument("names", nargs="*", metavar="NAME", help="recipes to run (default: all)")
    parser.add_argument("--out", default=OUT, help="output directory (default: out/)")
    args = parser.parse_args(argv)
    unknown = [name for name in args.names if name not in RECIPES]
    if unknown:
        parser.error(f"unknown recipe {', '.join(unknown)}; known: {', '.join(RECIPES)}")
    for name in args.names or RECIPES:
        run(name, args.out)


if __name__ == "__main__":
    main()
