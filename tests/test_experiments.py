"""Tests for the experiment drivers and benchmark data."""

import numpy as np
import pytest

from kdvb import evolve, experiments
from kdvb.errors import DivergenceError, ParameterError, ResolutionError
from kdvb.evolve import SolverConfig, solve
from kdvb.experiments import (
    critical_index,
    gaussian_initial_data,
    h1_bound_check,
    inviscid_sweep,
    power_law_initial_data,
    rate_fit,
    scaling_check,
    sine_initial_data,
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


class TestSineData:
    @pytest.mark.parametrize("index", [1, 21, -21])
    def test_index_inside_the_dealiased_band(self, index):
        grid = GridSpec(box_length=16.0, modes=64)
        u = forward_transform(sine_initial_data(grid, 0.5, index))
        # the whole mass lies in the band that the solver keeps
        assert dealias(u).l2_norm() == pytest.approx(0.5 * np.sqrt(8.0), rel=1e-12)

    @pytest.mark.parametrize("index", [22, -22, 40, 10**30])
    def test_index_outside_the_band_is_rejected(self, index):
        with pytest.raises(ParameterError, match="wavenumber_index"):
            sine_initial_data(GridSpec(box_length=16.0, modes=64), 0.5, index)


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


def solve_one_at_a_time(phi, cfgs):
    return tuple(solve(phi, cfg) for cfg in cfgs)


def per_run_divergence(phi, alpha, ladder, dt, t_final):
    """The DivergenceError message of solving the ladder one epsilon at a
    time, in order, or None when no solve diverges."""
    for eps in ladder:
        cfg = SolverConfig(ModelParams(eps, alpha), phi.grid, dt, t_final)
        try:
            solve(phi, cfg)
        except DivergenceError as exc:
            return f"epsilon = {eps}: {exc}"
    return None


class TestBatchedSweeps:
    """The sweeps step their ladders together; each report must equal the
    one made by solving every epsilon on its own."""

    def test_inviscid_sweep_equals_per_run_path(self, monkeypatch):
        phi = power_law_initial_data(GridSpec(8.0, 128), -1.51, 0.5, seed=7)
        args = (phi, 1.0, (1e-1, 1e-2, 1e-3, 1e-4))
        kwargs = dict(t_final=0.1, s=-0.5, dt=2e-3, snapshot_stride=5)
        batched = inviscid_sweep(*args, **kwargs)
        monkeypatch.setattr(experiments, "solve_ladder", solve_one_at_a_time)
        assert batched == inviscid_sweep(*args, **kwargs)

    def test_h1_bound_equals_per_run_path(self, monkeypatch):
        phi = small_grid_phi()
        args = (phi, 0.8, (1.0, 0.1, 0.01, 0.0))
        kwargs = dict(t_final=0.1, dt=2e-3, snapshot_stride=3)
        batched = h1_bound_check(*args, **kwargs)
        monkeypatch.setattr(experiments, "solve_ladder", solve_one_at_a_time)
        assert batched == h1_bound_check(*args, **kwargs)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "l2_norm,ladder,expected",
        [
            # every row diverges, epsilon = 1 last (step 5 against step 4)
            (28.0, (1.0, 0.1, 0.0), "epsilon = 1.0: non-finite state detected at step 5"),
            # epsilon = 1 stays finite
            (24.0, (1.0, 0.1), "epsilon = 0.1: non-finite state detected at step 5"),
        ],
    )
    def test_h1_bound_divergence_matches_per_run_path(self, l2_norm, ladder, expected):
        phi = gaussian_initial_data(GridSpec(32.0, 64), width=2.0, l2_norm=l2_norm)
        message = per_run_divergence(phi, 1.0, ladder, 0.05, 0.5)
        assert message.startswith(expected)
        with pytest.raises(DivergenceError) as exc:
            h1_bound_check(phi, 1.0, ladder, t_final=0.5, dt=0.05)
        assert str(exc.value) == message

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nothing_is_solved_again_after_a_batch_error(self, monkeypatch):
        solves = []

        def counted(phi, cfg, nonlinearity=None):
            solves.append(cfg)
            return solve(phi, cfg, nonlinearity)

        monkeypatch.setattr(evolve, "solve", counted)
        monkeypatch.setattr(experiments, "solve", counted)
        phi = gaussian_initial_data(GridSpec(32.0, 64), width=2.0, l2_norm=28.0)
        with pytest.raises(DivergenceError, match="epsilon = 1.0: "):
            h1_bound_check(phi, 1.0, (1.0, 0.1, 0.0), t_final=0.5, dt=0.05)
        assert solves == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_inviscid_divergence_names_reference_first(self):
        phi = gaussian_initial_data(GridSpec(32.0, 64), width=2.0, l2_norm=28.0)
        message = per_run_divergence(phi, 1.0, (0.0, 1.0), 0.05, 0.5)
        assert message.startswith("epsilon = 0.0: ")
        with pytest.raises(DivergenceError) as exc:
            inviscid_sweep(phi, 1.0, (1.0,), t_final=0.5, s=0.0, dt=0.05)
        assert str(exc.value) == message
