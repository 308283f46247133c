"""Reference values for the benchmark's correctness gates.

A numpy transcription of the closed forms and observables as the seed code
computes them (``closedform.site_coefficients``/``amplitudes``/
``truncated_amplitudes`` and ``observables.concurrence_and_ratio``).  It
imports nothing from ``entscat``, so a change to the package cannot move
the reference along with it.  ``frozen.json`` holds values the seed code
itself produced at fixed anchor points; ``selftest.py`` checks this module
against them, which ties the reference to the seed code for any grid.

Values are compared with ``|value - ref| <= RTOL * |ref| + ATOL``.  The
seed code and this transcription agree to a few ulps; the tolerance leaves
room for last-ulp drift (``np.exp`` against ``cmath.exp``, a different
summation order) and still catches any change in the physics.
"""

from __future__ import annotations

import math

import numpy as np

RTOL = 1e-9
ATOL = 1e-12

XY = "xy"


def axis_values(start: float, stop: float, count: int) -> np.ndarray:
    """Grid coordinates as ``sweep.Axis.values`` lays them out."""
    step = (stop - start) / (count - 1)
    vals = [start + i * step for i in range(count)]
    vals[-1] = stop
    return np.array(vals)


def fold_phase(phase: np.ndarray) -> np.ndarray:
    """Fold into [0, pi) as ``core.validate`` does."""
    phase = np.asarray(phase, dtype=float)
    folded = np.fmod(phase, math.pi)
    folded = np.where(folded < 0.0, folded + math.pi, folded)
    folded = np.where(folded >= math.pi, folded - math.pi, folded)
    return np.where((phase >= 0.0) & (phase < math.pi), phase, folded)


def _site(omega: np.ndarray, model: str):
    w = np.asarray(omega, dtype=float)
    if model == XY:
        den = 1.0 + w * w
        one = np.ones_like(w, dtype=complex)
        return (1.0 / den + 0j, -w * w / den + 0j, -1j * w / den, one, 0.0 * one)
    den = (1.0 + 1j * w) * (1.0 - 3j * w)
    return (
        (1.0 - 1j * w) / den,
        1j * w * (1.0 + 3j * w) / den,
        -2j * w / den,
        1.0 / (1.0 + 1j * w),
        -1j * w / (1.0 + 1j * w),
    )


def flip_amplitudes(omega_a, omega_b, phase, model: str):
    """(t_flipb, r_flipb, t_flipa, r_flipa) of the exact two-site solution."""
    phase = fold_phase(phase)
    ta, ra, fa, tsa, rsa = _site(omega_a, model)
    tb, rb, fb, tsb, rsb = _site(omega_b, model)
    ea = np.exp(1j * phase)
    em = np.exp(-1j * phase)
    e2 = np.exp(2j * phase)
    if model == XY:
        den = 1.0 - ra * rb * e2
        t_fb = ta * fb * ea / den
        t_fa = (1.0 + ta * rb * e2 / den) * fa * ea
        return t_fb, t_fb * ea, t_fa, t_fa * em
    sigma_a = fa * fa * rsb * e2 / (1.0 - ra * rsb * e2)
    sigma_b = fb * fb * rsa * e2 / (1.0 - rb * rsa * e2)
    ta_d, rb_d = ta + sigma_a, rb + sigma_b
    den = 1.0 - (ra + sigma_a) * rb_d * e2
    den_b = 1.0 - rsa * rb * e2
    den_a = 1.0 - ra * rsb * e2
    reach_b = ta_d * ea / den
    t_fb = reach_b * fb * (1.0 + rsa * tb * e2 / den_b)
    r_fb = reach_b * fb * tsa * ea / den_b
    stand_a = 1.0 + ta_d * rb_d * e2 / den
    t_fa = stand_a * fa * tsb * ea / den_a
    r_fa = stand_a * fa * (1.0 + ta * rsb * e2 / den_a)
    return t_fb, r_fb, t_fa, r_fa


def truncated_flip_amplitudes(omega_a, omega_b, phase, n: int):
    """Transmitted (t_flipb, t_flipa) of the exchange model, bounces cut at n."""
    phase = fold_phase(phase)
    ta, ra, fa, _, _ = _site(omega_a, XY)
    _, rb, fb, _, _ = _site(omega_b, XY)
    ea = np.exp(1j * phase)
    e2 = np.exp(2j * phase)
    q = rb * ra * e2

    def partial(last):
        if last < 0:
            return 0.0 * q
        total = np.ones_like(q)
        for _ in range(last):
            total = 1.0 + q * total
        return total

    t_fb = ta * fb * ea * partial(n)
    t_fa = fa * ea * (1.0 + ta * rb * e2 * partial(n - 1))
    return t_fb, t_fa


def concurrence_probability(w_updown, w_downup):
    """Concurrence (NaN where nothing is detectable) and probability."""
    x = np.abs(w_updown)
    y = np.abs(w_downup)
    prob = x ** 2 + y ** 2
    scale = np.maximum(x, y)
    with np.errstate(invalid="ignore", divide="ignore"):
        xs, ys = x / scale, y / scale
        conc = 2.0 * xs * ys / (xs * xs + ys * ys)
    return np.where(scale == 0.0, np.nan, conc), prob


def scan_columns(omega_a, omega_b, phase, model: str) -> dict[str, np.ndarray]:
    """The ``scan`` columns C_t, P_t, C_r, P_r."""
    t_fb, r_fb, t_fa, r_fa = flip_amplitudes(omega_a, omega_b, phase, model)
    c_t, p_t = concurrence_probability(t_fb, t_fa)
    c_r, p_r = concurrence_probability(r_fb, r_fa)
    return {"C_t": c_t, "P_t": p_t, "C_r": c_r, "P_r": p_r}


def truncation_columns(omega_a, omega_b, phase, orders) -> dict[str, np.ndarray]:
    """The ``truncate`` columns C_n<N>, P_n<N> per order, then C_exact, P_exact."""
    cols = {}
    for n in orders:
        cols[f"C_n{n}"], cols[f"P_n{n}"] = concurrence_probability(
            *truncated_flip_amplitudes(omega_a, omega_b, phase, n)
        )
    t_fb, _, t_fa, _ = flip_amplitudes(omega_a, omega_b, phase, XY)
    cols["C_exact"], cols["P_exact"] = concurrence_probability(t_fb, t_fa)
    return cols


def outside(values, ref) -> np.ndarray:
    """Elementwise: is the value outside the tolerance of the reference?
    Undefined entries (NaN) must be undefined in both."""
    values = np.asarray(values, dtype=float)
    ref = np.asarray(ref, dtype=float)
    undefined = np.isnan(ref)
    with np.errstate(invalid="ignore"):
        close = np.abs(values - ref) <= RTOL * np.abs(ref) + ATOL
    return np.where(undefined, ~np.isnan(values), ~close)
