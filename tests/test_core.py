import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entscat import (
    DimensionlessPoint,
    DomainError,
    ModelKind,
    PhysicalPoint,
    ValidationError,
    amplitudes,
    observables_at,
    optimal_concurrence,
    to_dimensionless,
    validate,
)
from entscat.core import point_at

XY = ModelKind.SPIN_EXCHANGE
HEIS = ModelKind.HEISENBERG_CONTACT


class TestUnitConversion:
    def test_paper_unit_example(self):
        pt = to_dimensionless(PhysicalPoint(3.0, 3.0, 3.0, 1.0), XY)
        assert pt.omega_a == 1.0
        assert pt.omega_b == 1.0
        assert pt.phase == 3.0 * math.pi
        assert pt.model is XY

    def test_zero_couplings(self):
        pt = to_dimensionless(PhysicalPoint(0.0, 0.0, 1.0, 1.0), XY)
        assert (pt.omega_a, pt.omega_b, pt.phase) == (0.0, 0.0, math.pi)

    def test_direct_arithmetic(self):
        pt = to_dimensionless(PhysicalPoint(1.5, 1.5, 2.0, 1.0), HEIS)
        assert pt.omega_a == pytest.approx(0.75, rel=1e-15)
        assert pt.omega_b == pytest.approx(0.75, rel=1e-15)
        assert pt.phase == pytest.approx(2.0 * math.pi, rel=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_bad_k_names_field(self, bad):
        with pytest.raises(DomainError, match="k"):
            to_dimensionless(PhysicalPoint(1.0, 1.0, bad, 1.0), XY)

    def test_bad_d_names_field(self):
        with pytest.raises(DomainError, match="d"):
            to_dimensionless(PhysicalPoint(1.0, 1.0, 1.0, -2.0), XY)

    def test_negative_coupling_rejected(self):
        with pytest.raises(DomainError, match="g_b"):
            to_dimensionless(PhysicalPoint(1.0, -1.0, 1.0, 1.0), XY)

    @given(
        g_a=st.floats(0.0, 50.0),
        g_b=st.floats(0.0, 50.0),
        k=st.floats(1e-3, 100.0),
        d=st.floats(0.1, 10.0),
    )
    @settings(max_examples=200)
    def test_round_trip(self, g_a, g_b, k, d):
        pt = to_dimensionless(PhysicalPoint(g_a, g_b, k, d), XY)
        assert (pt.omega_a, pt.omega_b, pt.phase) == (g_a / k, g_b / k, math.pi * k * d)


class TestValidate:
    def test_folds_phase_and_keeps_original(self):
        pt = validate(DimensionlessPoint(1.0, 1.0, 3.0 * math.pi, XY))
        assert 0.0 <= pt.phase < math.pi
        assert abs(pt.phase) < 1e-12 or abs(pt.phase - math.pi) < 1e-12
        assert pt.phase_original == 3.0 * math.pi

    def test_canonical_point_passes_through(self):
        pt = DimensionlessPoint(0.5, 1.2, 2.0, XY)
        assert validate(pt) is pt

    def test_negative_phase_folds_into_window(self):
        pt = validate(DimensionlessPoint(1.0, 1.0, -0.25, XY))
        assert 0.0 <= pt.phase < math.pi
        assert pt.phase == pytest.approx(math.pi - 0.25, abs=1e-15)

    @pytest.mark.parametrize("omega_a", [-1.0, math.nan, math.inf])
    def test_bad_omega_rejected(self, omega_a):
        with pytest.raises(ValidationError):
            validate(DimensionlessPoint(omega_a, 1.0, 0.0, XY))

    def test_non_finite_phase_rejected(self):
        with pytest.raises(ValidationError):
            validate(DimensionlessPoint(1.0, 1.0, math.inf, XY))

    def test_array_point_is_checked_and_folded_cell_by_cell(self):
        cells = [(0.5, 1.0, 2.0), (1.0, 0.0, -0.25), (2.0, 3.0, 3.0 * math.pi)]
        pt = validate(DimensionlessPoint(*np.array(cells).T, XY))
        for i, cell in enumerate(cells):
            one = validate(DimensionlessPoint(*cell, XY))
            assert (pt.omega_a[i], pt.omega_b[i], pt.phase[i]) == (one.omega_a, one.omega_b, one.phase)
        assert pt.phase_original.tolist() == [c[2] for c in cells]
        # the error is the one the first bad cell raises on its own
        cells[1] = (-1.0, math.nan, 0.0)
        cells[2] = (math.inf, 1.0, 0.0)
        with pytest.raises(ValidationError) as alone:
            validate(DimensionlessPoint(*cells[1], XY))
        with pytest.raises(ValidationError) as stacked:
            validate(DimensionlessPoint(*np.array(cells).T, XY))
        assert str(stacked.value) == str(alone.value)


class TestPointAt:
    def test_a_sample_is_the_point_it_would_be_on_its_own(self):
        cells = [(0.5, 1.0, 2.0), (1.0, 0.0, -0.25), (2.0, 3.0, 3.0 * math.pi)]
        stack = validate(DimensionlessPoint(*np.array(cells).T, HEIS))
        for i, cell in enumerate(cells):
            one = point_at(stack, i)
            assert one == validate(DimensionlessPoint(*cell, HEIS))  # the raw phase is folded again
            assert all(type(x) is float for x in (one.omega_a, one.omega_b, one.phase))
        assert point_at(stack, 0).phase_original is None  # already canonical

    def test_fields_broadcast_and_the_index_is_row_major(self):
        stack = DimensionlessPoint(np.array([[1.0], [2.0]]), np.array([3.0, 4.0, 5.0]), 0.5, XY)
        assert point_at(stack, 4) == DimensionlessPoint(2.0, 4.0, 0.5, XY)

    def test_a_scalar_point_is_its_own_sample(self):
        pt = validate(DimensionlessPoint(1.0, 2.0, -0.25, XY))
        assert point_at(pt, 0) == pt


@pytest.mark.parametrize(
    "record",
    [
        DimensionlessPoint(1.0, 2.0, 0.5, HEIS),
        observables_at(DimensionlessPoint(1.0, 2.0, 0.5, HEIS)),
        optimal_concurrence(0.5, 2.0),
    ],
    ids=type,
)
def test_query_records_are_slotted_frozen_and_replaceable(record):
    # one record per query, so no per-instance __dict__; callers derive one
    # record from another with dataclasses.replace, for a point (a frozen
    # dataclass) and a result (a NamedTuple) alike, and with _replace for a result
    assert not hasattr(record, "__dict__")
    name = dataclasses.fields(record)[0].name
    if isinstance(record, tuple):
        error, replaces = AttributeError, (dataclasses.replace, type(record)._replace)
    else:
        error, replaces = dataclasses.FrozenInstanceError, (dataclasses.replace,)
    with pytest.raises(error):
        setattr(record, name, 0.25)
    for replace in replaces:
        changed = replace(record, **{name: 0.25})
        assert type(changed) is type(record) and getattr(changed, name) == 0.25
        assert replace(changed, **{name: getattr(record, name)}) == record


@given(
    omega_a=st.floats(0.0, 5.0),
    omega_b=st.floats(0.0, 5.0),
    phase=st.floats(0.0, math.pi, exclude_max=True),
    nu=st.integers(-5, 5),
    model=st.sampled_from([XY, HEIS]),
)
@settings(max_examples=150, deadline=None)
def test_phase_periodicity(omega_a, omega_b, phase, nu, model):
    # Everything downstream folds the phase, so a pi shift must not move
    # amplitude magnitudes or observables beyond the float error of the
    # shift itself.  Componentwise equality additionally holds unless the
    # raw phase sits within rounding of the fold boundary, where the two
    # evaluations legitimately land on opposite ends of [0, pi) and the
    # odd-in-phase transmissions flip sign.
    base = DimensionlessPoint(omega_a, omega_b, phase, model)
    shifted = DimensionlessPoint(omega_a, omega_b, phase + nu * math.pi, model)
    amp_a = amplitudes(base)
    amp_b = amplitudes(shifted)
    for x, y in zip(amp_a, amp_b):
        assert abs(abs(x) - abs(y)) < 1e-12
    if abs(validate(base).phase - validate(shifted).phase) < 1.0:
        for x, y in zip(amp_a, amp_b):
            assert abs(x - y) < 1e-12
    obs_a = observables_at(base)
    obs_b = observables_at(shifted)
    assert abs(obs_a.probability_t - obs_b.probability_t) < 1e-12
    assert abs(obs_a.probability_r - obs_b.probability_r) < 1e-12
    if obs_a.concurrence_t is not None:
        assert abs(obs_a.concurrence_t - obs_b.concurrence_t) < 1e-12
