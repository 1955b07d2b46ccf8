"""Tests for the experiment drivers and benchmark data."""

import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from kdvb import evolve, experiments
from kdvb.errors import DivergenceError, ParameterError, ResolutionError
from kdvb.evolve import SolverConfig, Trajectory, solve
from kdvb.experiments import (
    critical_index,
    energy_check,
    gaussian_initial_data,
    h1_bound_check,
    inviscid_sweep,
    power_law_initial_data,
    rate_check,
    rate_fit,
    scaling_check,
    sine_initial_data,
    soliton_initial_data,
)
from kdvb.norms import build_energy_ledger, l2_dissipation_residual, sobolev_norm
from kdvb.propagator import ModelParams
from kdvb.reports import fit_power_law
from kdvb.spectral import (
    GridSpec,
    RealField,
    dealias,
    forward_transform,
    hermitian_residual,
    inverse_transform,
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
        ik = 1j * grid.wavenumbers()
        residual = -c * ik * u.coeffs + ik**3 * u.coeffs + ik * sq.coeffs
        assert np.linalg.norm(residual) / np.linalg.norm(u.coeffs) <= 1e-10

    def test_box_too_small_rejected(self):
        grid = GridSpec(box_length=32.0, modes=256)
        with pytest.raises(ResolutionError, match="box_length"):
            soliton_initial_data(0.5, x0=0.0, grid=grid)


class TestGaussianData:
    def test_modulation_is_even(self):
        # 1 + cos(-m x)/2 is 1 + cos(m x)/2 bit for bit, and not the bare bump
        grid = GridSpec(box_length=16.0, modes=64)
        plus, minus, bare = (
            gaussian_initial_data(grid, 2.0, 1.0, m).values for m in (1.0, -1.0, 0.0)
        )
        assert np.array_equal(minus, plus)
        assert not np.array_equal(plus, bare)

    def test_modulated_bump_is_its_closed_form(self):
        # exp(-(x/w)^2) (1 + cos(m x)/2) about the box centre, scaled to the l2 norm
        grid = GridSpec(box_length=16.0, modes=64)
        x = grid.collocation_points() - 8.0
        bump = np.exp(-((x / 2.0) ** 2)) * (1.0 + 0.5 * np.cos(3.0 * x))
        want = 1.5 * bump / np.sqrt(np.sum(bump**2) * 16.0 / 64)
        got = gaussian_initial_data(grid, 2.0, 1.5, 3.0).values
        np.testing.assert_allclose(got, want, rtol=1e-13)

    @pytest.mark.parametrize("modulation", [np.nan, np.inf, -np.inf])
    def test_non_finite_modulation_rejected(self, modulation):
        with pytest.raises(ParameterError, match="modulation"):
            gaussian_initial_data(GridSpec(box_length=16.0, modes=64), 2.0, 1.0, modulation)

    @pytest.mark.parametrize("l2_norm", [np.nan, np.inf, -np.inf])
    def test_non_finite_l2_norm_rejected(self, l2_norm):
        with pytest.raises(ParameterError, match="l2_norm"):
            gaussian_initial_data(GridSpec(box_length=16.0, modes=64), 2.0, l2_norm)


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

    def test_modulus_follows_the_power_law(self):
        # |coeff(k)| / <xi_k>^p is one constant over the kept band
        grid = GridSpec(box_length=8.0, modes=128)
        u = forward_transform(power_law_initial_data(grid, -1.51, l2_norm=0.5, seed=7))
        xi = grid.wavenumbers()
        kept = grid.dealias_mask() & (xi != 0)
        ratios = np.abs(u.coeffs[kept]) / np.hypot(1.0, xi[kept]) ** -1.51
        assert np.ptp(ratios) <= 1e-12 * np.max(ratios)

    def test_phases_are_the_seeded_draws(self):
        # kept mode k has phase 2 pi r_k mod 2 pi with r = default_rng(seed).random(M),
        # and its mirror -k the opposite phase
        grid = GridSpec(box_length=8.0, modes=128)
        u = forward_transform(power_law_initial_data(grid, -1.51, l2_norm=0.5, seed=7))
        r = np.random.default_rng(7).random(grid.modes)
        k = np.flatnonzero(grid.dealias_mask()[: grid.modes // 2])[1:]
        turn = np.exp(2j * np.pi * r[k])
        assert np.max(np.abs(np.angle(u.coeffs[k] / turn))) <= 1e-9
        assert np.max(np.abs(np.angle(u.coeffs[-k] * turn))) <= 1e-9

    def test_empty_band_is_parameter_error(self):
        # every nonzero mode's <xi>^-1e300 underflows; the suite turns
        # RuntimeWarnings into errors, so a 0/0 would fail here
        grid = GridSpec(box_length=32.0, modes=64)
        with pytest.raises(ParameterError, match="no nonzero mode"):
            power_law_initial_data(grid, -1e300, l2_norm=0.5, seed=7)

    @pytest.mark.parametrize("seed", [-1, 2.5, True, 2**64])
    def test_seed_outside_the_cli_range_rejected(self, seed):
        grid = GridSpec(box_length=16.0, modes=64)
        with pytest.raises(ParameterError, match="seed"):
            power_law_initial_data(grid, -1.51, l2_norm=0.5, seed=seed)

    @pytest.mark.parametrize("l2_norm", [np.nan, np.inf, -np.inf])
    def test_non_finite_l2_norm_rejected(self, l2_norm):
        grid = GridSpec(box_length=16.0, modes=64)
        with pytest.raises(ParameterError, match="l2_norm"):
            power_law_initial_data(grid, -1.51, l2_norm=l2_norm, seed=7)


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

    def test_band_edge_at_a_whole_cutoff(self):
        # at M = 96 the 2/3 cutoff is the wavenumber 32 itself, which the
        # strict cutoff leaves out of the band
        grid = GridSpec(box_length=16.0, modes=96)
        sine_initial_data(grid, 0.5, 31)
        with pytest.raises(ParameterError, match="wavenumber_index"):
            sine_initial_data(grid, 0.5, 32)

    @pytest.mark.parametrize("index", [1.5, 2.0, True])
    def test_non_integer_index_is_rejected(self, index):
        # at 1.5 the field would not be periodic: values[0] is 0, values[-1] is not
        with pytest.raises(ParameterError, match="wavenumber_index must be an integer"):
            sine_initial_data(GridSpec(box_length=16.0, modes=64), 0.5, index)

    @pytest.mark.parametrize("amplitude", [np.nan, np.inf, -np.inf])
    def test_non_finite_amplitude_rejected(self, amplitude):
        with pytest.raises(ParameterError, match="amplitude"):
            sine_initial_data(GridSpec(box_length=16.0, modes=64), amplitude, 1)


class TestRateFit:
    def synthetic_report(self, power):
        ladder = (1e-1, 1e-2, 1e-3, 1e-4)
        return {"values": ladder, "observables": [{"observable": e**power} for e in ladder]}

    def test_linear_and_square_root(self):
        assert rate_fit(self.synthetic_report(1.0)) == pytest.approx(1.0, abs=1e-12)
        assert rate_fit(self.synthetic_report(0.5)) == pytest.approx(0.5, abs=1e-12)

    def test_non_monotone_warns(self):
        report = {
            "values": (1e-1, 1e-2, 1e-3),
            "observables": [{"observable": 1.0}, {"observable": 2.0}, {"observable": 0.5}],
        }
        with pytest.warns(UserWarning, match="r\\^2"):
            rate_fit(report)

    def test_falling_sweep_with_a_tie_is_monotone(self):
        report = {
            "values": (1e-1, 1e-2, 1e-3),
            "observables": [{"observable": 2.0}, {"observable": 1.0}, {"observable": 1.0}],
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rate_fit(report) > 0

    def test_inexact_fit_has_the_hand_r_squared(self):
        # log-log points (0, 0), (a, a), (2a, a) with a = ln 2: the line has
        # slope 1/2, residual sum a^2/6 and total sum 2a^2/3, so r^2 = 3/4
        assert fit_power_law([1, 2, 4], [1, 2, 2])["r_squared"] == 0.75

    @pytest.mark.parametrize("n", range(3, 9))
    @pytest.mark.parametrize("value", [5.0, 7.0])
    def test_flat_data_has_unit_r_squared(self, n, value):
        # the mean of n equal logs need not be their value exactly, so the
        # total sum of squares was roundoff (r^2 = -13.86 for seven 5.0s)
        fit = fit_power_law(np.arange(1.0, n + 1), np.full(n, value))
        assert fit["r_squared"] == 1.0

    def test_exact_power_law_has_unit_r_squared(self):
        ladder = np.array([1e-1, 1e-2, 1e-3, 1e-4])
        fit = fit_power_law(ladder, 3.0 * ladder**0.5)
        assert fit["r_squared"] == pytest.approx(1.0, abs=1e-12)


@pytest.fixture
def no_solve(monkeypatch):
    """experiments.solve_ladder made to fail: a refusal must come before any solve."""

    def refuse(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(experiments, "solve_ladder", refuse)


class Solved(Exception):
    """Raised by a stubbed solve, to show that a driver reached it."""


def small_grid_phi():
    grid = GridSpec(box_length=16.0, modes=96)
    return gaussian_initial_data(grid, width=1.5, l2_norm=1.5, modulation=1.0)


def sweep_cfg(phi, alpha, t_final, dt, snapshot_stride=1):
    """The config a driver sweeps over phi's grid; sweeps replace its epsilon."""
    return SolverConfig(ModelParams(0.0, alpha), phi.grid, dt, t_final, snapshot_stride)


class TestInviscidSweep:
    def test_zero_data_zero_observables(self):
        grid = GridSpec(box_length=16.0, modes=64)
        phi = RealField(np.zeros(64), grid)
        rep = inviscid_sweep(phi, sweep_cfg(phi, 1.0, 0.05, 5e-3), (1e-1, 1e-2), s=0.0)
        assert all(rec["observable"] == 0.0 for rec in rep["observables"])

    def test_observables_decrease_and_norm_monotone_in_s(self):
        phi = small_grid_phi()
        cfg = sweep_cfg(phi, 0.8, 0.25, 2e-3, snapshot_stride=5)
        rep0 = inviscid_sweep(phi, cfg, (1e-1, 1e-2, 1e-3), s=0.0)
        obs0 = [rec["observable"] for rec in rep0["observables"]]
        assert obs0[0] > obs0[1] > obs0[2] > 0
        rep_neg = inviscid_sweep(phi, cfg, (1e-1, 1e-2, 1e-3), s=-0.5)
        for a, b in zip(rep_neg["observables"], rep0["observables"]):
            assert a["observable"] <= b["observable"] + 1e-15

    def test_ladder_validated(self):
        phi = small_grid_phi()
        with pytest.raises(ParameterError, match="decreasing"):
            inviscid_sweep(phi, sweep_cfg(phi, 1.0, 0.1, 5e-3), (1e-2, 1e-1), s=0.0)
        with pytest.raises(ParameterError, match="\\(0, 1\\]"):
            inviscid_sweep(phi, sweep_cfg(phi, 1.0, 0.1, 5e-3), (2.0, 0.1), s=0.0)
        for s in (0.5, np.nan, -np.inf):
            with pytest.raises(ParameterError, match="s <= 0"):
                inviscid_sweep(phi, sweep_cfg(phi, 1.0, 0.1, 5e-3), (1e-1, 1e-2), s=s)

    # (t_final, dt, stride): criterion 04's schedule, a stride that leaves a
    # shortened last interval and one past the run's steps
    @pytest.mark.parametrize("schedule", [(1.0, 0.01, 10), (0.1, 2e-3, 7), (0.05, 5e-3, 20)])
    def test_floor_companion_shares_the_reference_schedule(self, monkeypatch, schedule):
        # _sup_distance compares rows, so the dt/2 run at twice the stride
        # must store its snapshots at exactly the reference's times
        phi = small_grid_phi()
        runs = []

        def zero_runs(phi, cfgs):
            runs.extend(Trajectory(np.zeros((len(c.snapshot_steps), 96)), c) for c in cfgs)
            return tuple(runs)

        monkeypatch.setattr(experiments, "solve_ladder", zero_runs)
        inviscid_sweep(phi, sweep_cfg(phi, 1.0, *schedule), (1e-1, 1e-2), s=0.0)
        reference, *_, fine = runs
        assert fine.config.dt == reference.config.dt / 2
        assert fine.times.tobytes() == reference.times.tobytes()

    def test_schedule_mismatch_is_rejected(self):
        phi = small_grid_phi()
        a = solve(phi, sweep_cfg(phi, 1.0, 0.1, 5e-3))
        b = solve(phi, sweep_cfg(phi, 1.0, 0.1, 5e-3, snapshot_stride=2))
        with pytest.raises(ParameterError, match="snapshot schedule"):
            experiments._sup_distance(a, b, 0.0)

    def test_non_finite_data_is_a_parameter_error_not_a_divergence(self, monkeypatch):
        # every row of the batch is refused before its first step, the
        # ratio-2 floor run included
        def no_step(self, h):
            raise AssertionError("a step ran")

        monkeypatch.setattr(evolve._Stepper, "__call__", no_step)
        grid = GridSpec(box_length=16.0, modes=64)
        phi = RealField(np.full(64, np.nan), grid)
        with pytest.raises(ParameterError, match="non-finite"):
            inviscid_sweep(phi, sweep_cfg(phi, 1.0, 0.05, 5e-3), (1e-1, 1e-2), s=0.0)
        with pytest.raises(ParameterError, match="non-finite"):
            solve(phi, sweep_cfg(phi, 1.0, 0.05, 5e-3))


class TestRateCheck:
    def test_one_epsilon_rejected_before_any_solve(self, no_solve):
        phi = small_grid_phi()
        with pytest.raises(ParameterError, match=r"at least two epsilons, got \[0.1\]$"):
            rate_check(phi, sweep_cfg(phi, 1.0, 0.1, 5e-3), (0.1,), s=0.0)

    def test_record_is_the_sweep_with_its_rate_fit(self):
        phi = small_grid_phi()
        args = (phi, sweep_cfg(phi, 1.0, 0.1, 2e-3, snapshot_stride=5), (1e-1, 1e-2, 1e-3), 0.0)
        report = inviscid_sweep(*args)
        assert rate_check(*args) == {**report, "rate_slope": rate_fit(report)}


class TestScalingCheck:
    def test_identity_at_unit_lambda(self):
        grid = GridSpec(box_length=16.0, modes=64)
        phi = gaussian_initial_data(grid, width=1.5, l2_norm=0.5)
        cfg = SolverConfig(ModelParams(0.3, 0.9), grid, dt=5e-3, t_final=0.1)
        assert scaling_check(phi, cfg, 0) == 0.0

    @pytest.mark.parametrize(
        "lambda_exp,error",
        [
            (-1, ParameterError),
            (1.5, ParameterError),
            (2.0, ParameterError),
            (True, ParameterError),
            (2000, ParameterError),
            (10**300, ParameterError),
            (340, Solved),
            (341, ParameterError),
        ],
        ids=["-1", "1.5", "2.0", "True", "2000", "1e300", "cap", "cap+1"],
    )
    def test_lambda_rule_is_checked_before_the_base_solve(self, monkeypatch, lambda_exp, error):
        # here lam**3 binds: 2**-(3 * 340) is the last normal power of 8
        def solved(*args, **kwargs):
            raise Solved

        monkeypatch.setattr(experiments, "solve", solved)
        grid = GridSpec(box_length=16.0, modes=64)
        phi = gaussian_initial_data(grid, width=1.5, l2_norm=0.5)
        cfg = SolverConfig(ModelParams(0.3, 0.9), grid, dt=5e-3, t_final=0.1)
        with pytest.raises(error, match="lambda_exp" if error is ParameterError else None):
            scaling_check(phi, cfg, lambda_exp)

    # the grid, data and config whose float64 room in lambda_exp is binding,
    # and that room: lam**3, the box L 2**m, the horizon T 8**m, the data lam**2 phi
    ROOMS = {
        "lam-cubed": ((16.0, 1.0, 5e-3, 0.1), 340),
        "box": ((2.0**1000, 1.0, 5e-3, 0.1), 23),
        "horizon": ((16.0, 1.0, 2.0**90, 2.0**100), 307),
        "data": ((16.0, 2.0**-900, 5e-3, 0.1), 34),
    }

    @staticmethod
    def float64_room(phi, cfg):
        """The largest m whose rescaled run fits in float64, by trying each m."""
        nonzero = phi.values[phi.values != 0]

        def finite(x, e):
            try:
                return math.ldexp(x, e) < math.inf
            except OverflowError:
                return False

        def fits(m):
            return (
                math.ldexp(1.0, -3 * m) >= sys.float_info.min
                and finite(cfg.grid.box_length, m)
                and finite(cfg.t_final, 3 * m)
                and bool(np.all(np.abs(np.ldexp(nonzero, -2 * m)) >= sys.float_info.min))
            )

        m = 0
        while fits(m + 1):
            m += 1
        return m

    @pytest.mark.parametrize("binding", ROOMS)
    def test_lambda_cap_is_the_tightest_float64_room(self, monkeypatch, binding):
        def solved(*args, **kwargs):
            raise Solved

        monkeypatch.setattr(experiments, "solve", solved)
        (box_length, amplitude, dt, t_final), room = self.ROOMS[binding]
        grid = GridSpec(box_length, 64)
        phi = sine_initial_data(grid, amplitude, 1)
        cfg = SolverConfig(ModelParams(0.3, 0.9), grid, dt, t_final)
        assert self.float64_room(phi, cfg) == room
        with pytest.raises(Solved):
            scaling_check(phi, cfg, room)
        with pytest.raises(ParameterError, match=rf"integer in \[0, {room}\]"):
            scaling_check(phi, cfg, room + 1)

    @pytest.mark.parametrize("lambda_exp", [2, 4, 60])
    @pytest.mark.parametrize("eps,alpha", [(0.0, 0.7), (0.4, 1.0)], ids=["eps=0", "alpha=1"])
    def test_even_lambda_is_exact(self, eps, alpha, lambda_exp):
        # every scale is a power of 2, the sqrt of the box included, and no
        # fractional power of a wavenumber is taken, so the two runs agree
        # bit for bit; a wrong power of lam anywhere leaves a distance
        grid = GridSpec(box_length=16.0, modes=64)
        phi = gaussian_initial_data(grid, width=1.5, l2_norm=0.5)
        cfg = SolverConfig(ModelParams(eps, alpha), grid, dt=5e-3, t_final=0.1)
        assert scaling_check(phi, cfg, lambda_exp) == 0.0

    def test_dispersive_scaling_invariance(self):
        grid = GridSpec(box_length=32.0, modes=192)
        phi = soliton_initial_data(4.0, x0=16.0, grid=grid)
        d = scaling_check(phi, SolverConfig(ModelParams(0.0, 1.0), grid, 1e-3, 0.2), 1)
        assert d <= 1e-7

    def test_dissipative_scaling_invariance(self):
        grid = GridSpec(box_length=32.0, modes=192)
        phi = soliton_initial_data(4.0, x0=16.0, grid=grid)
        d = scaling_check(phi, SolverConfig(ModelParams(0.5, 1.0), grid, 1e-3, 0.2), 1)
        assert d <= 1e-7


class TestH1Bound:
    @pytest.mark.parametrize("ladder", [(), (1.5,)], ids=["empty", "above-one"])
    def test_ladder_outside_the_unit_interval_rejected_before_any_solve(self, no_solve, ladder):
        phi = small_grid_phi()
        with pytest.raises(ParameterError, match=r"eps_ladder must be non-empty in \[0, 1\]"):
            h1_bound_check(phi, sweep_cfg(phi, 0.8, 0.05, 5e-3), ladder)

    def test_zero_observable_is_parameter_error(self):
        # every observable is 0, so the band ratio would be 0/0
        grid = GridSpec(box_length=16.0, modes=64)
        phi = RealField(np.zeros(64), grid)
        with pytest.raises(ParameterError, match="non-zero data: observable 0 at epsilon = 1,"):
            h1_bound_check(phi, sweep_cfg(phi, 0.8, 0.05, 5e-3), (1.0, 0.1))

    def test_dispersive_entry_is_bare_h1_sup(self):
        phi = small_grid_phi()
        rep = h1_bound_check(phi, sweep_cfg(phi, 0.8, 0.1, 2e-3, snapshot_stride=5), (0.1, 0.0))
        eps0 = rep["observables"][-1]
        assert eps0["epsilon"] == 0.0
        assert eps0["observable"] == pytest.approx(eps0["sup_h1"])
        assert np.isfinite(eps0["observable"])

    def test_observables_are_the_h1_sup_and_the_dissipation_integral(self):
        phi = small_grid_phi()
        cfg = sweep_cfg(phi, 0.8, 0.1, 2e-3, snapshot_stride=5)
        rep = h1_bound_check(phi, cfg, (1.0, 0.1))
        xi = phi.grid.wavenumbers()
        for rec in rep["observables"]:
            traj = solve(phi, replace(cfg, params=ModelParams(rec["epsilon"], 0.8)))
            sup_h1 = max(sobolev_norm(state, 1.0) for state in traj.states)
            assert rec["sup_h1"] == pytest.approx(sup_h1, rel=1e-14)
            # ||Lambda^(2 alpha) u||^2 summed directly, then the trapezoid rule
            rates = np.sum(np.abs(xi) ** (4 * 0.8) * np.abs(traj.coeffs) ** 2, axis=1)
            integral = np.trapezoid(rates, traj.times)
            assert rec["dissipation_integral"] == pytest.approx(integral, rel=1e-12)

    def test_band_is_narrow_for_smooth_data(self):
        phi = small_grid_phi()
        cfg = sweep_cfg(phi, 0.8, 0.25, 2e-3, snapshot_stride=5)
        rep = h1_bound_check(phi, cfg, (1.0, 0.1, 0.01))
        obs = [rec["observable"] for rec in rep["observables"]]
        assert rep["band_ratio"] == max(obs) / min(obs)
        assert rep["band_ratio"] <= 3.0


class TestEnergyCheck:
    @staticmethod
    def cfg(phi):
        return SolverConfig(ModelParams(0.3, 0.8), phi.grid, 2e-3, 0.1, snapshot_stride=5)

    def test_record_is_the_base_ledger_and_its_residual(self):
        phi = small_grid_phi()
        rec = energy_check(phi, self.cfg(phi), refine_check=False)
        base = solve(phi, self.cfg(phi))
        ledger = build_energy_ledger(base)
        assert rec.keys() == {"ledger", "ledger_residual"}
        assert rec["ledger"].keys() == ledger.keys()
        assert all(np.array_equal(rec["ledger"][key], ledger[key]) for key in ledger)
        assert rec["ledger_residual"] == l2_dissipation_residual(base)

    def test_refinement_is_the_dt_half_residual_and_the_ratio(self):
        # the dt/2 run steps on the base run's clock, bit for bit its single solve
        phi = small_grid_phi()
        rec = energy_check(phi, self.cfg(phi), refine_check=True)
        fine = solve(phi, replace(self.cfg(phi), dt=1e-3))
        assert rec["ledger_residual_refined"] == l2_dissipation_residual(fine)
        assert rec["refinement_factor"] == rec["ledger_residual"] / l2_dissipation_residual(fine)

    def test_zero_data_has_refinement_factor_zero(self):
        # both residuals are 0; the floor under the divisor keeps 0/0 out
        grid = GridSpec(box_length=16.0, modes=64)
        phi = RealField(np.zeros(64), grid)
        rec = energy_check(phi, self.cfg(phi), refine_check=True)
        assert rec["ledger_residual"] == rec["ledger_residual_refined"] == 0.0
        assert rec["refinement_factor"] == 0.0


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
            return str(exc)
    return None


class TestBatchedSweeps:
    """The sweeps step their ladders together; each report must equal the
    one made by solving every epsilon on its own."""

    def test_inviscid_sweep_equals_per_run_path(self, monkeypatch):
        phi = power_law_initial_data(GridSpec(8.0, 128), -1.51, 0.5, seed=7)
        args = (phi, sweep_cfg(phi, 1.0, 0.1, 2e-3, snapshot_stride=5), (1e-1, 1e-2, 1e-3, 1e-4))
        batched = inviscid_sweep(*args, s=-0.5)
        monkeypatch.setattr(experiments, "solve_ladder", solve_one_at_a_time)
        assert batched == inviscid_sweep(*args, s=-0.5)

    def test_h1_bound_equals_per_run_path(self, monkeypatch):
        phi = small_grid_phi()
        args = (phi, sweep_cfg(phi, 0.8, 0.1, 2e-3, snapshot_stride=3), (1.0, 0.1, 0.01, 0.0))
        batched = h1_bound_check(*args)
        monkeypatch.setattr(experiments, "solve_ladder", solve_one_at_a_time)
        assert batched == h1_bound_check(*args)

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
            h1_bound_check(phi, sweep_cfg(phi, 1.0, 0.5, 0.05), ladder)
        assert str(exc.value) == message

    def test_nothing_is_solved_again_after_a_batch_error(self, monkeypatch):
        solves = []

        def counted(phi, cfg):
            solves.append(cfg)
            return solve(phi, cfg)

        monkeypatch.setattr(evolve, "solve", counted)
        monkeypatch.setattr(experiments, "solve", counted)
        phi = gaussian_initial_data(GridSpec(32.0, 64), width=2.0, l2_norm=28.0)
        with pytest.raises(DivergenceError, match="epsilon = 1.0: "):
            h1_bound_check(phi, sweep_cfg(phi, 1.0, 0.5, 0.05), (1.0, 0.1, 0.0))
        assert solves == []

    def test_inviscid_divergence_names_reference_first(self):
        phi = gaussian_initial_data(GridSpec(32.0, 64), width=2.0, l2_norm=28.0)
        message = per_run_divergence(phi, 1.0, (0.0, 1.0), 0.05, 0.5)
        assert message.startswith("epsilon = 0.0: ")
        with pytest.raises(DivergenceError) as exc:
            inviscid_sweep(phi, sweep_cfg(phi, 1.0, 0.5, 0.05), (1.0,), s=0.0)
        assert str(exc.value) == message
