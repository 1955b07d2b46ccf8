"""Tests for the experiment drivers and benchmark data."""

import numpy as np
import pytest

from kdvb.errors import ParameterError, ResolutionError
from kdvb.experiments import (
    critical_index,
    gaussian_initial_data,
    h1_bound_check,
    inviscid_sweep,
    power_law_initial_data,
    rate_fit,
    scaling_check,
    soliton_initial_data,
)
from kdvb.propagator import ModelParams
from kdvb.reports import SweepReport
from kdvb.spectral import (
    GridSpec,
    RealField,
    dealias,
    forward_transform,
    hermitian_residual,
    inverse_transform,
    spatial_derivative,
)


class TestCriticalIndex:
    @pytest.mark.parametrize(
        "alpha,expected",
        [(0.3, -0.75), (0.5, -0.75), (0.75, -6.0 / 7.0), (1.0, -1.0)],
    )
    def test_values(self, alpha, expected):
        assert critical_index(alpha) == pytest.approx(expected)

    def test_continuity_at_branch_point(self):
        assert critical_index(0.5) == pytest.approx(-3.0 / (5.0 - 2.0 * 0.5))

    def test_constant_on_low_branch(self):
        values = {critical_index(a) for a in (0.05, 0.2, 0.35, 0.5)}
        assert values == {-0.75}

    def test_range_validated(self):
        with pytest.raises(ParameterError, match="alpha"):
            critical_index(0.0)
        with pytest.raises(ParameterError, match="alpha"):
            critical_index(1.2)


class TestSolitonData:
    def test_peak_value_and_location(self):
        grid = GridSpec(box_length=32.0, modes=256)
        phi = soliton_initial_data(4.0, x0=10.0, grid=grid)
        x = grid.collocation_points()
        assert phi.values.max() == pytest.approx(6.0, rel=1e-12)
        assert x[np.argmax(phi.values)] == pytest.approx(10.0, abs=grid.box_length / 256)

    def test_quadrupled_speed_halves_width(self):
        grid = GridSpec(box_length=64.0, modes=512)
        narrow = soliton_initial_data(4.0, x0=32.0, grid=grid)
        wide = soliton_initial_data(1.0, x0=32.0, grid=grid)

        def half_width(field):
            peak = field.values.max()
            above = field.values >= peak / 2.0
            return above.sum() * grid.box_length / grid.modes

        assert half_width(wide) == pytest.approx(2.0 * half_width(narrow), rel=0.05)

    def test_traveling_wave_pde_residual(self):
        # -c phi' + phi''' + (phi^2)' must vanish for the profile
        grid = GridSpec(box_length=64.0, modes=1024)
        c = 4.0
        phi = soliton_initial_data(c, x0=32.0, grid=grid)
        u = dealias(forward_transform(phi))
        sq = dealias(
            forward_transform(
                RealField(inverse_transform(u).values ** 2, grid)
            )
        )
        residual = (
            -c * spatial_derivative(u, 1).coeffs
            + spatial_derivative(u, 3).coeffs
            + spatial_derivative(sq, 1).coeffs
        )
        assert np.linalg.norm(residual) / np.linalg.norm(u.coeffs) <= 1e-10

    def test_box_too_small_rejected(self):
        grid = GridSpec(box_length=32.0, modes=256)
        with pytest.raises(ResolutionError, match="box_length"):
            soliton_initial_data(0.5, x0=0.0, grid=grid)


class TestRoughData:
    def test_hermitian_and_seeded(self):
        grid = GridSpec(box_length=8.0, modes=128)
        a = power_law_initial_data(grid, -1.51, l2_norm=0.5, seed=7)
        b = power_law_initial_data(grid, -1.51, l2_norm=0.5, seed=7)
        c = power_law_initial_data(grid, -1.51, l2_norm=0.5, seed=8)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)
        u = forward_transform(a)
        assert hermitian_residual(u) <= 1e-12
        assert u.l2_norm() == pytest.approx(0.5, rel=1e-12)


class TestRateFit:
    def synthetic_report(self, power):
        ladder = (1e-1, 1e-2, 1e-3, 1e-4)
        return SweepReport(
            parameter="epsilon",
            values=ladder,
            observables=tuple({"observable": e**power} for e in ladder),
            fit=None,
            seed=0,
        )

    def test_linear_and_square_root(self):
        assert rate_fit(self.synthetic_report(1.0)) == pytest.approx(1.0, abs=1e-12)
        assert rate_fit(self.synthetic_report(0.5)) == pytest.approx(0.5, abs=1e-12)

    def test_non_monotone_warns(self):
        report = SweepReport(
            parameter="epsilon",
            values=(1e-1, 1e-2, 1e-3),
            observables=({"observable": 1.0}, {"observable": 2.0}, {"observable": 0.5}),
            fit=None,
            seed=0,
        )
        with pytest.warns(UserWarning, match="r\\^2"):
            rate_fit(report)


def small_grid_phi():
    grid = GridSpec(box_length=16.0, modes=96)
    return gaussian_initial_data(grid, width=1.5, l2_norm=1.5, modulation=1.0)


class TestInviscidSweep:
    def test_zero_data_zero_observables(self):
        grid = GridSpec(box_length=16.0, modes=64)
        phi = RealField(np.zeros(64), grid)
        rep = inviscid_sweep(phi, 1.0, (1e-1, 1e-2), t_final=0.05, s=0.0, dt=5e-3)
        assert all(rec["observable"] == 0.0 for rec in rep.observables)

    def test_observables_decrease_and_norm_monotone_in_s(self):
        phi = small_grid_phi()
        rep0 = inviscid_sweep(
            phi, 0.8, (1e-1, 1e-2, 1e-3), t_final=0.25, s=0.0, dt=2e-3,
            snapshot_stride=5,
        )
        obs0 = [rec["observable"] for rec in rep0.observables]
        assert obs0[0] > obs0[1] > obs0[2] > 0
        rep_neg = inviscid_sweep(
            phi, 0.8, (1e-1, 1e-2, 1e-3), t_final=0.25, s=-0.5, dt=2e-3,
            snapshot_stride=5,
        )
        for a, b in zip(rep_neg.observables, rep0.observables):
            assert a["observable"] <= b["observable"] + 1e-15

    def test_ladder_validated(self):
        phi = small_grid_phi()
        with pytest.raises(ParameterError, match="decreasing"):
            inviscid_sweep(phi, 1.0, (1e-2, 1e-1), t_final=0.1, s=0.0, dt=5e-3)
        with pytest.raises(ParameterError, match="\\(0, 1\\]"):
            inviscid_sweep(phi, 1.0, (2.0, 0.1), t_final=0.1, s=0.0, dt=5e-3)


class TestScalingCheck:
    def test_identity_at_unit_lambda(self):
        grid = GridSpec(box_length=16.0, modes=64)
        phi = gaussian_initial_data(grid, width=1.5, l2_norm=0.5)
        assert scaling_check(phi, ModelParams(0.3, 0.9), 0, t_final=0.1, dt=5e-3) == 0.0

    def test_dispersive_scaling_invariance(self):
        grid = GridSpec(box_length=32.0, modes=192)
        phi = soliton_initial_data(4.0, x0=16.0, grid=grid)
        d = scaling_check(phi, ModelParams(0.0, 1.0), 1, t_final=0.2, dt=1e-3)
        assert d <= 1e-7

    def test_dissipative_scaling_invariance(self):
        grid = GridSpec(box_length=32.0, modes=192)
        phi = soliton_initial_data(4.0, x0=16.0, grid=grid)
        d = scaling_check(phi, ModelParams(0.5, 1.0), 1, t_final=0.2, dt=1e-3)
        assert d <= 1e-7


class TestH1Bound:
    def test_zero_data(self):
        grid = GridSpec(box_length=16.0, modes=64)
        phi = RealField(np.zeros(64), grid)
        rep = h1_bound_check(phi, 0.8, (1.0, 0.1), t_final=0.05, dt=5e-3)
        assert all(rec["observable"] == 0.0 for rec in rep.observables)

    def test_dispersive_entry_is_bare_h1_sup(self):
        phi = small_grid_phi()
        rep = h1_bound_check(
            phi, 0.8, (0.1, 0.0), t_final=0.1, dt=2e-3, snapshot_stride=5
        )
        eps0 = rep.observables[-1]
        assert eps0["epsilon"] == 0.0
        assert eps0["observable"] == pytest.approx(eps0["sup_h1"])
        assert np.isfinite(eps0["observable"])

    def test_band_is_narrow_for_smooth_data(self):
        phi = small_grid_phi()
        rep = h1_bound_check(
            phi, 0.8, (1.0, 0.1, 0.01), t_final=0.25, dt=2e-3, snapshot_stride=5
        )
        obs = [rec["observable"] for rec in rep.observables]
        assert max(obs) / min(obs) <= 3.0
