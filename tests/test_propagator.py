"""Tests for the exact free-evolution multipliers."""

import numpy as np
import pytest

from kdvb.errors import ParameterError
from kdvb.propagator import ModelParams, propagate, semigroup_residual
from kdvb.spectral import (
    GridSpec,
    RealField,
    SpectralField,
    dealias,
    forward_transform,
    hermitian_residual,
)


@pytest.fixture
def grid():
    return GridSpec(box_length=12.0, modes=64)


@pytest.fixture
def field(grid):
    rng = np.random.default_rng(1)
    return dealias(forward_transform(RealField(rng.standard_normal(grid.modes), grid)))


class TestModelParams:
    def test_ranges(self):
        ModelParams(0.0, 1.0)
        ModelParams(1.0, 0.1)
        with pytest.raises(ParameterError, match="epsilon"):
            ModelParams(-0.1, 1.0)
        with pytest.raises(ParameterError, match="epsilon"):
            ModelParams(1.5, 1.0)
        with pytest.raises(ParameterError, match="alpha"):
            ModelParams(0.5, 0.0)


class TestPropagate:
    def test_t_zero_is_identity(self, field):
        out = propagate(field, 0.0, ModelParams(0.7, 0.4))
        assert np.array_equal(out.coeffs, field.coeffs)

    def test_dispersive_flow_is_unitary_per_mode(self, field):
        out = propagate(field, 0.37, ModelParams(0.0, 1.0))
        assert np.allclose(np.abs(out.coeffs), np.abs(field.coeffs), atol=1e-14)

    def test_single_mode_damping_and_phase(self):
        # unit frequency, eps = alpha = 1, t = 1: amplitude e^-1, phase +1
        grid = GridSpec(box_length=2 * np.pi, modes=16)
        coeffs = np.zeros(16, dtype=complex)
        coeffs[1] = 1.0
        coeffs[15] = 1.0
        u = propagate(
            __import__("kdvb.spectral", fromlist=["SpectralField"]).SpectralField(
                coeffs, grid
            ),
            1.0,
            ModelParams(1.0, 1.0),
        )
        assert abs(u.coeffs[1]) == pytest.approx(np.exp(-1.0), rel=1e-14)
        assert np.angle(u.coeffs[1]) == pytest.approx(1.0, abs=1e-14)

    def test_mass_invariant(self, field):
        for params, t in [(ModelParams(0.9, 0.3), 2.1), (ModelParams(0.0, 1.0), -3.0)]:
            out = propagate(field, t, params)
            assert out.coeffs[0] == field.coeffs[0]

    def test_l2_contraction_strict_for_positive_eps(self, field):
        out = propagate(field, 0.5, ModelParams(0.4, 0.8))
        assert out.l2_norm() < field.l2_norm()

    def test_real_fields_stay_real(self, field):
        out = propagate(field, 1.3, ModelParams(0.2, 0.6))
        assert hermitian_residual(out) <= 1e-13


class TestSemigroup:
    def test_zero_times(self, field):
        assert semigroup_residual(field, 0.0, 0.0, ModelParams(0.5, 0.5)) == 0.0

    def test_zero_field(self, grid):
        # no norm to divide by: the residual is 0.0, not 0/0
        zero = SpectralField(np.zeros(grid.modes, dtype=complex), grid)
        assert semigroup_residual(zero, 0.3, 0.9, ModelParams(0.5, 0.7)) == 0.0

    def test_dispersive_composes_for_mixed_signs(self, field):
        assert semigroup_residual(field, 1.7, -0.9, ModelParams(0.0, 1.0)) <= 1e-12

    def test_dissipative_composition_law(self, field):
        p = ModelParams(0.5, 0.7)
        assert semigroup_residual(field, 0.3, 0.9, p) <= 1e-12

    def test_composition_matches_multiplier_product_oracle(self, field):
        # independent check: literal per-mode product of the two factors
        p = ModelParams(0.5, 0.7)
        xi = field.grid.wavenumbers()

        def mult(t):
            sym = np.where(xi != 0, np.abs(xi) ** (2 * p.alpha), 0.0)
            return np.exp(-p.epsilon * sym * abs(t) + 1j * xi**3 * t)

        composed = propagate(propagate(field, 0.3, p), 0.9, p)
        expected = field.coeffs * mult(0.3) * mult(0.9)
        assert np.allclose(composed.coeffs, expected, rtol=1e-13, atol=1e-16)

    def test_negative_times_rejected_when_dissipative(self, field):
        with pytest.raises(ParameterError, match="t1, t2 >= 0"):
            semigroup_residual(field, -0.1, 0.5, ModelParams(0.5, 0.5))
