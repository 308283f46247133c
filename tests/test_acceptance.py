"""Acceptance suite: one test per exit criterion, at the stated tolerance,
each printing a single PASS/FAIL line with the measured figure of merit
(run with ``pytest tests/test_acceptance.py -v -s`` to see them)."""

import importlib.util
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from entscat import (
    DimensionlessPoint,
    ModelKind,
    amplitudes,
    model1_probability,
    model1_ratio,
    observables_at,
    optimal_concurrence,
    find_global_p_opt,
    run_scan,
    site_coefficients,
    solve_amplitudes_numeric,
    truncated_amplitudes,
    unit_concurrence_phase,
)
from entscat.sweep import Axis
from test_optimize import searched_p_opt

XY = ModelKind.SPIN_EXCHANGE
HEIS = ModelKind.HEISENBERG_CONTACT
SEED = 42
spec = importlib.util.spec_from_file_location("recipes", Path(__file__).resolve().parent.parent / "scripts" / "recipes.py")
recipes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(recipes)


def report(criterion: int, ok: bool, detail: str) -> None:
    line = f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def seeded_sample(model, count=1000, seed=SEED):
    rng = np.random.default_rng(seed)
    omegas = rng.uniform(0.0, 20.0, size=(count, 2))
    phases = rng.uniform(0.0, math.pi, size=count)
    return [
        DimensionlessPoint(float(w[0]), float(w[1]), float(p), model)
        for w, p in zip(omegas, phases)
    ]


def test_criterion_01_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for model in (XY, HEIS):
        for pt in seeded_sample(model):
            closed = amplitudes(pt)
            numeric = solve_amplitudes_numeric(pt)
            worst = max(
                worst,
                max(abs(x - y) for x, y in zip(closed, numeric)),
            )
    elapsed = time.perf_counter() - start
    report(
        1,
        worst < 1e-10 and elapsed < 5.0,
        f"closed vs numeric max |diff| = {worst:.3e} (< 1e-10) over 2x1000 points in {elapsed:.2f}s (< 5s)",
    )


def test_criterion_02_unitarity():
    worst_closed = worst_numeric = worst_closure = 0.0
    for model in (XY, HEIS):
        for pt in seeded_sample(model):
            closed = amplitudes(pt)
            numeric = solve_amplitudes_numeric(pt)
            worst_closed = max(worst_closed, abs(closed.flux() - 1.0))
            worst_numeric = max(worst_numeric, abs(numeric.flux() - 1.0))
            if model is XY:
                obs = observables_at(pt)
                closure = (
                    abs(closed.t_noflip) ** 2
                    + abs(closed.r_noflip) ** 2
                    + 2.0 * obs.probability_t
                )
                worst_closure = max(worst_closure, abs(closure - 1.0))
    report(
        2,
        worst_closed < 1e-12 and worst_numeric < 1e-10 and worst_closure < 1e-12,
        f"flux deviation closed {worst_closed:.3e} (< 1e-12), numeric {worst_numeric:.3e} (< 1e-10), "
        f"exchange closure {worst_closure:.3e} (< 1e-12)",
    )


def test_criterion_03_global_optimum_reproduction():
    start = time.perf_counter()
    omega_a, omega_b, p = find_global_p_opt()
    elapsed = time.perf_counter() - start
    reference_a, reference_b, reference_p = searched_p_opt()  # the numerical search
    dev_b = abs(omega_b - reference_b)
    dev_a = abs(omega_a - reference_a)
    dev_p = abs(p - reference_p)
    report(
        3,
        dev_b < 1e-8 and dev_a < 1e-8 and dev_p < 1e-8 and elapsed < 1.0,
        f"omega_b={omega_b:.10f} (|d|={dev_b:.2e}), omega_a={omega_a:.10f} (|d|={dev_a:.2e}), "
        f"P={p:.10f} (|d|={dev_p:.2e}), all < 1e-8, in {elapsed:.3f}s (< 1s)",
    )


def test_criterion_04_probability_supremum():
    # exact rational arithmetic through the same function proves the strict
    # increase on a grid reaching 1e6, where float probabilities saturate
    # below their last representable step under 1/2
    omega_a = Fraction(0.7071067811865476)  # exact dyadic value of float 1/sqrt(2)
    grid = sorted(set(
        [Fraction(10) ** j for j in range(-2, 7)]
        + [3 * Fraction(10) ** j for j in range(-2, 6)]
    ))
    values = [model1_probability(omega_a, b, 1) for b in grid]
    strictly_increasing = all(x < y for x, y in zip(values, values[1:]))
    top = model1_probability(2**-0.5, 1e6, 1)
    below_half = all(v < Fraction(1, 2) for v in values)
    report(
        4,
        strictly_increasing and below_half and top > 0.49999,
        f"strictly increasing on {len(grid)}-point grid to 1e6 (exact arithmetic), "
        f"all < 1/2, float P(1/sqrt2, 1e6) = {top!r} > 0.49999",
    )


def test_criterion_05_unit_concurrence_region():
    rng = np.random.default_rng(SEED)
    worst_a = worst_c = 0.0
    for _ in range(1000):
        omega_b = math.exp(rng.uniform(math.log(0.05), math.log(3.0)))
        lower = omega_b / (1.0 + 2.0 * omega_b**2)
        omega_a = lower + rng.uniform(0.0, 1.0) * (omega_b - lower)
        s = unit_concurrence_phase(omega_a, omega_b).sin2_kd
        assert s is not None
        worst_a = max(worst_a, abs(model1_ratio(omega_a, omega_b, s) - 1.0))
        obs = observables_at(
            DimensionlessPoint(omega_a, omega_b, math.asin(math.sqrt(s)), XY)
        )
        worst_c = max(worst_c, abs(obs.concurrence_t - 1.0))

    s_grid = np.linspace(0.0, 1.0, 10_000)
    infeasible = 0
    grid_ok = True
    for i in range(1000):
        omega_b = math.exp(rng.uniform(math.log(0.05), math.log(3.0)))
        lower = omega_b / (1.0 + 2.0 * omega_b**2)
        if i % 2 == 0:  # right of the region, margin keeps a >= 1.02
            omega_a = omega_b * (1.0 + rng.uniform(0.02, 3.0))
        else:  # left of the region, margin keeps max(a) <= 0.985
            omega_a = lower * rng.uniform(0.015, 0.985)
        if unit_concurrence_phase(omega_a, omega_b).sin2_kd is None:
            infeasible += 1
        ratios = (omega_a / omega_b) * np.sqrt(
            1.0 + 4.0 * omega_b**2 * (1.0 + omega_b**2) * s_grid
        )
        grid_best = float((2.0 / (ratios + 1.0 / ratios)).max())
        rule_best = optimal_concurrence(omega_a, omega_b).concurrence
        if grid_best > 1.0 - 1e-6 or grid_best > rule_best + 1e-10:
            grid_ok = False
    report(
        5,
        worst_a <= 1e-12 and worst_c <= 1e-12 and infeasible == 1000 and grid_ok,
        f"inside: |a-1| <= {worst_a:.2e}, |C-1| <= {worst_c:.2e} (<= 1e-12); "
        f"outside: {infeasible}/1000 infeasible, dense phase grids stay below 1-1e-6 "
        f"and below the regime-rule optimum + 1e-10",
    )


def test_criterion_06_resonance_optimality():
    rng = np.random.default_rng(SEED)
    worst = -math.inf
    for _ in range(1000):
        omega_a = rng.uniform(1e-9, 20.0)
        omega_b = rng.uniform(1e-9, 20.0)
        p_res = model1_probability(omega_a, omega_b, 1.0)
        p_rand = model1_probability(omega_a, omega_b, rng.uniform(0.0, 1.0, size=100))
        worst = max(worst, float((p_rand - p_res).max()))
    # spot-check the amplitude route agrees with the dominance
    for _ in range(100):
        omega_a = rng.uniform(1e-9, 20.0)
        omega_b = rng.uniform(1e-9, 20.0)
        s = rng.uniform(0.0, 1.0)
        p_res = observables_at(DimensionlessPoint(omega_a, omega_b, math.pi / 2, XY)).probability_t
        p_s = observables_at(
            DimensionlessPoint(omega_a, omega_b, math.asin(math.sqrt(s)), XY)
        ).probability_t
        worst = max(worst, p_s - p_res)
    report(
        6,
        worst <= 1e-14,
        f"P(resonance) dominates random phases: worst margin violation {worst:.3e} (<= 1e-14)",
    )


def test_criterion_07_one_bounce_interference():
    worst_trunc = worst_full = 0.0
    for omega in (0.3, 0.6, 1.0):
        pt = DimensionlessPoint(omega, omega, math.pi, XY)
        tr = truncated_amplitudes(pt, 1)
        ratio_1 = abs(tr.t_flipa) / abs(tr.t_flipb)
        u = omega * omega
        predicted = 1.0 + u**3 / (1.0 + 2.0 * u + 2.0 * u * u)
        worst_trunc = max(worst_trunc, abs(ratio_1 - predicted))
        full = amplitudes(pt)
        worst_full = max(worst_full, abs(abs(full.t_flipa) / abs(full.t_flipb) - 1.0))
    report(
        7,
        worst_trunc <= 1e-12 and worst_full <= 1e-12,
        f"one-bounce ratio matches 1 + w^6/(1+2w^2+2w^4) to {worst_trunc:.2e}, "
        f"full series restores a = 1 to {worst_full:.2e} (<= 1e-12)",
    )


def test_criterion_08_truncation_convergence():
    rng = np.random.default_rng(SEED)
    violations = 0
    checked = 0
    for _ in range(100):
        omega_a = rng.uniform(0.0, 10.0)
        omega_b = rng.uniform(0.0, 10.0)
        phase = rng.uniform(0.0, math.pi)
        pt = DimensionlessPoint(omega_a, omega_b, phase, XY)
        a = site_coefficients(omega_a, XY)
        b = site_coefficients(omega_b, XY)
        q = abs(a.r * b.r)
        full = amplitudes(pt)
        prefs = (
            abs(a.t * b.t),
            abs(a.t * a.t * b.r),
            abs(a.t * b.f),
            abs(a.t * b.f),
            abs(a.f * a.t * b.r),
            abs(a.f * a.t * b.r),
        )
        offsets = (1, 0, 1, 1, 0, 0)  # first omitted series index is n + offset
        for n in range(0, 21):
            tr = truncated_amplitudes(pt, n)
            for dev, pref, off in zip(
                (abs(x - y) for x, y in zip(tr, full)),
                prefs,
                offsets,
            ):
                checked += 1
                if dev > pref * q ** (n + off) / (1.0 - q) * (1.0 + 1e-9) + 1e-15:
                    violations += 1
    report(
        8,
        violations == 0,
        f"geometric tail bound holds for every channel, n = 0..20, 100 points "
        f"({checked} comparisons, {violations} violations)",
    )


def test_criterion_09_figure_shapes():
    # exchange model, equal couplings g = 3: unit concurrence at integer k,
    # oscillations damping toward 1 above the opacity crossover k ~ 3
    axis = Axis("k", 0.05, 10.0, 200)
    grid = run_scan((axis,), {"gA": 3.0, "gB": 3.0}, XY)
    ks = np.array(axis.values())
    concurrence = grid.columns["C_t"]
    peaks_ok = all(
        concurrence[int(np.argmin(np.abs(ks - target)))] > 1.0 - 1e-12
        for target in (1.0, 2.0, 3.0)
    )
    depths = [
        1.0 - concurrence[(ks >= nu) & (ks <= nu + 1)].min() for nu in range(3, 10)
    ]
    damped = all(x > y for x, y in zip(depths, depths[1:]))

    # contact model, equal couplings g = 1.5: sides genuinely separate
    grid2 = run_scan((axis,), {"gA": 1.5, "gB": 1.5}, HEIS)
    c_t, p_t, c_r, p_r = (grid2.columns[name] for name in ("C_t", "P_t", "C_r", "P_r"))
    side_gap = max(float(np.abs(c_t - c_r).max()), float(np.abs(p_t - p_r).max()))
    report(
        9,
        peaks_ok and damped and side_gap > 1e-3,
        f"C = 1 at k = 1, 2, 3; oscillation depths {depths[0]:.2e} -> {depths[-1]:.2e} "
        f"strictly damped; contact-model side gap {side_gap:.3f} > 1e-3",
    )


def test_criterion_10_exchange_side_symmetry():
    worst_c = worst_p = 0.0
    for pt in seeded_sample(XY):
        obs = observables_at(pt)
        worst_p = max(worst_p, abs(obs.probability_t - obs.probability_r))
        if obs.concurrence_t is not None:
            worst_c = max(worst_c, abs(obs.concurrence_t - obs.concurrence_r))
    report(
        10,
        worst_c < 1e-12 and worst_p < 1e-12,
        f"transmitted vs reflected: |dC| <= {worst_c:.2e}, |dP| <= {worst_p:.2e} (< 1e-12)",
    )


def test_criterion_11_cli_determinism(tmp_path):
    start = time.perf_counter()
    compared = 0
    identical = True
    for name in recipes.RECIPES:
        first = recipes.run(name, tmp_path / "first")
        second = recipes.run(name, tmp_path / "second")
        for a, b in zip(first, second):
            compared += 1
            if Path(a).read_bytes() != Path(b).read_bytes():
                identical = False
    elapsed = time.perf_counter() - start
    report(
        11,
        identical and elapsed < 60.0,
        f"{len(recipes.RECIPES)} recipes x 2 runs: {compared} files byte-identical, "
        f"total {elapsed:.1f}s (< 60s)",
    )
