"""Closed-form scattering amplitudes for the two-site delta problem.

Single site, exchange model (opacity w):

    t = 1/(1+w^2),   r = -w^2/(1+w^2),   f = -i w/(1+w^2)

Single site, contact model, with D = (1+i w)(1-3i w):

    t = (1-i w)/D,   r = i w (1+3i w)/D,   f = -2i w/D
    t_same = 1/(1+i w),   r_same = -i w/(1+i w)

Two sites separated by the gap phase p (= k d), with E = exp(i p):

    t_noflip = t_A t_B E / (1 - r_A r_B E^2)
    r_noflip = r_A + t_A^2 r_B E^2 / (1 - r_A r_B E^2)
    t_flipb  = t_A f_B E / (1 - r_A r_B E^2),          r_flipb = t_flipb * E
    t_flipa  = (1 + t_A r_B E^2/(1 - r_A r_B E^2)) f_A E,  r_flipa = t_flipa / E

For the contact model the same skeleton holds with t, r replaced by dressed
values t~ = t + Sigma, r~ = r + Sigma, where Sigma resums the virtual
flip-and-return excursions to the partner site, plus extra bare bounce
factors after the real flip (see :func:`amplitudes`).

The denominators 1 - r_A r_B E^2 resum the mediator bouncing between the
sites; truncating that geometric series after n bounces
(:func:`truncated_amplitudes`) exposes how the bounce interference builds
the entanglement.
"""

from __future__ import annotations

import cmath

import numpy as np

from .core import (
    AmplitudeSet,
    DimensionlessPoint,
    DomainError,
    ModelKind,
    NumericError,
    SiteCoefficients,
    UnsupportedModelError,
    check_opacity,
    first_cell,
    validate,
)


def _site_terms(omega, model):
    """(t, r, f, t_same, r_same) of one site of opacity ``omega``.

    Written with ``+ - * /`` only, so ``omega`` may be a float or a numpy
    array.  The exchange model's t, r, t_same and r_same come out real.
    """
    if model is ModelKind.SPIN_EXCHANGE:
        den = 1.0 + omega * omega
        return 1.0 / den, -omega * omega / den, -1j * omega / den, 1.0, 0.0
    if model is ModelKind.HEISENBERG_CONTACT:
        den = (1.0 + 1j * omega) * (1.0 - 3j * omega)
        same = 1.0 + 1j * omega
        return (
            (1.0 - 1j * omega) / den,
            1j * omega * (1.0 + 3j * omega) / den,
            -2j * omega / den,
            1.0 / same,
            -1j * omega / same,
        )
    raise UnsupportedModelError(f"unknown model {model!r}")


def site_coefficients(omega: float, model: ModelKind) -> SiteCoefficients:
    """Amplitudes of a single delta scatterer of opacity ``omega``.

    Both models satisfy |t|^2 + |r|^2 + 2|f|^2 = 1 and
    |t_same|^2 + |r_same|^2 = 1 exactly.
    """
    check_opacity("omega", omega)
    return SiteCoefficients(*map(complex, _site_terms(omega, model)))


def _dressed(a, b, e2):
    """Contact-model (t_a, r_a, t_b, r_b, sigma_a, sigma_b) from the site
    terms of :func:`_site_terms`; see :func:`dressed_coefficients`."""
    a_t, a_r, a_f, _, a_rs = a
    b_t, b_r, b_f, _, b_rs = b
    sigma_a = a_f * a_f * b_rs * e2 / (1.0 - a_r * b_rs * e2)
    sigma_b = b_f * b_f * a_rs * e2 / (1.0 - b_r * a_rs * e2)
    return a_t + sigma_a, a_r + sigma_a, b_t + sigma_b, b_r + sigma_b, sigma_a, sigma_b


def dressed_coefficients(pt: DimensionlessPoint):
    """Bounce-dressed no-flip coefficients for the contact model.

    Returns (t_a, r_a, t_b, r_b, sigma_a, sigma_b) where the self-energy

        sigma_A = f_A^2 r_same_B E^2 / (1 - r_A r_same_B E^2)

    resums the excursions in which the mediator flips at one site, bounces
    off the partner in the aligned-spin state, and flips back.  Only the
    contact model has them; the exchange model is transparent to the
    aligned-spin mediator (r_same = 0), so raising it is an error.
    """
    pt = validate(pt)
    if pt.model is not ModelKind.HEISENBERG_CONTACT:
        raise UnsupportedModelError("dressed coefficients exist only for the contact model")
    return _dressed(_site_terms(pt.omega_a, pt.model), _site_terms(pt.omega_b, pt.model), cmath.exp(2j * pt.phase))


def _bounce_sum(x, q, terms):
    """x (1 + q + ... + q^(terms-1)): the first ``terms`` terms of the bounce
    series of x, each bounce a factor q = r_A r_B E^2; all of it, x/(1 - q),
    when ``terms`` is None."""
    if terms is None:
        return x / (1.0 - q)
    total = 0.0
    for _ in range(terms):
        total = 1.0 + q * total
    return x * total


def _closed_forms(omega_a, omega_b, ea, em, e2, model, bounces=None):
    """The six two-site amplitudes (t_noflip, r_noflip, t_flipb, r_flipb,
    t_flipa, r_flipa) at opacities ``omega_a``, ``omega_b`` with the phase
    factors ``ea`` = E, ``em`` = 1/E and ``e2`` = E^2, keeping at most
    ``bounces`` bounces (exchange model only), or all of them when None.

    This is the only statement of the two-site closed forms.  It uses
    ``+ - * /`` only, so :func:`amplitudes` runs it on Python complex scalars
    and :func:`grid_amplitudes` on broadcast numpy arrays.
    """
    if bounces is not None:
        if model is not ModelKind.SPIN_EXCHANGE:
            raise UnsupportedModelError("bounce truncation is defined for the exchange model only")
        if not isinstance(bounces, int) or bounces < 0:
            raise DomainError(f"bounce count must be a non-negative integer, got {bounces!r}")
    a = _site_terms(omega_a, model)
    b = _site_terms(omega_b, model)
    a_t, a_r, a_f, a_ts, a_rs = a
    b_t, b_r, b_f, b_ts, b_rs = b
    if model is ModelKind.SPIN_EXCHANGE:
        # paths that leave through B bounce up to n times, those back through A up to n - 1
        q = a_r * b_r * e2
        through_b = None if bounces is None else bounces + 1
        t_nf = _bounce_sum(a_t * b_t * ea, q, through_b)
        r_nf = a_r + _bounce_sum(a_t * a_t * b_r * e2, q, bounces)
        t_fb = _bounce_sum(a_t * b_f * ea, q, through_b)
        t_fa = (1.0 + _bounce_sum(a_t * b_r * e2, q, bounces)) * a_f * ea
        return t_nf, r_nf, t_fb, t_fb * ea, t_fa, t_fa * em

    ta_d, ra_d, tb_d, rb_d, _, _ = _dressed(a, b, e2)
    den = 1.0 - ra_d * rb_d * e2
    den_b = 1.0 - a_rs * b_r * e2  # post-flip bouncing, flip happened at B
    den_a = 1.0 - a_r * b_rs * e2  # post-flip bouncing, flip happened at A
    t_nf = ta_d * tb_d * ea / den
    r_nf = ra_d + ta_d * ta_d * rb_d * e2 / den
    reach_b = ta_d * ea / den
    t_fb = reach_b * b_f * (1.0 + a_rs * b_t * e2 / den_b)
    r_fb = reach_b * b_f * a_ts * ea / den_b
    stand_a = 1.0 + ta_d * rb_d * e2 / den
    t_fa = stand_a * a_f * b_ts * ea / den_a
    r_fa = stand_a * a_f * (1.0 + a_t * b_rs * e2 / den_a)
    return t_nf, r_nf, t_fb, r_fb, t_fa, r_fa


def _not_finite(pt: DimensionlessPoint) -> NumericError:
    return NumericError(
        f"amplitudes are not finite in float64 at omega_a={pt.omega_a!r}, "
        f"omega_b={pt.omega_b!r}, phase={pt.phase!r} (model {pt.model.value})",
        pt,
    )


def _at_point(pt: DimensionlessPoint, bounces=None):
    """:func:`_closed_forms` at one validated point with cmath phase
    factors.  Raises NumericError unless all six amplitudes are finite."""
    phase = pt.phase
    try:
        amps = _closed_forms(pt.omega_a, pt.omega_b, cmath.exp(1j * phase), cmath.exp(-1j * phase),
                             cmath.exp(2j * phase), pt.model, bounces)
        # |amplitude| <= 1, so the sum is finite exactly when every term is
        finite = cmath.isfinite(sum(amps))
    except ZeroDivisionError:  # a denominator rounded to exactly 0 (numpy gives inf there)
        finite = False
    if not finite:
        raise _not_finite(pt)
    return amps


def amplitudes(pt: DimensionlessPoint) -> AmplitudeSet:
    """Exact two-site amplitudes for the three open channels.

    The denominators cannot vanish for real phase because |r_A r_B| < 1 at
    any finite opacity.  In float64 they can: r rounds to -1 for omega
    above about 1e8, and omega^2 overflows above about 1e154.  A result
    that is not finite raises NumericError with the point attached.
    """
    pt = validate(pt)
    return AmplitudeSet(*_at_point(pt))


def truncated_amplitudes(pt: DimensionlessPoint, n: int) -> AmplitudeSet:
    """Exchange-model amplitudes with at most ``n`` bounces kept.

    A bounce is one factor of (r_A r_B E^2); n = 0 keeps only the direct
    paths (for the reflection off A that is the bare r_A, for the A-flip
    the bare f_A E).  As n grows each field converges geometrically to the
    matching field of :func:`amplitudes`.

    The contact model is rejected: its nested series have no single
    bounce-count convention, so no truncation is defined for it here.
    """
    return AmplitudeSet(*_at_point(validate(pt), n))


def grid_amplitudes(omega_a, omega_b, phase, model: ModelKind, bounces: int | None = None):
    """Array form of :func:`amplitudes` (``bounces`` None) or of
    :func:`truncated_amplitudes` (``bounces`` = n, exchange model only).

    ``omega_a``, ``omega_b`` and ``phase`` are broadcastable arrays of
    opacities and folded phases that the caller has already validated.
    Returns the six amplitude arrays from the same closed forms as the
    scalar path; numpy's complex arithmetic may round the last digits
    differently.  Raises NumericError at the first cell, in row-major order,
    where an amplitude is not finite.
    """
    with np.errstate(all="ignore"):
        factors = np.exp(1j * phase), np.exp(-1j * phase), np.exp(2j * phase)
        amps = _closed_forms(omega_a, omega_b, *factors, model, bounces)
        bad = ~np.isfinite(sum(amps))
    if bad.any():
        raise _not_finite(DimensionlessPoint(*first_cell(bad, omega_a, omega_b, phase), model))
    return amps

