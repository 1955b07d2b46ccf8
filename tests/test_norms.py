"""Tests for Sobolev/dyadic diagnostics, modulation norms, and ledgers."""

from dataclasses import replace

import numpy as np
import pytest

from free_flow import free_flow
from kdvb import norms
from kdvb.errors import ContractViolationError, ResolutionError
from kdvb.evolve import SolverConfig, Trajectory, solve
from kdvb.norms import (
    build_energy_ledger,
    dyadic_profile,
    hamiltonian,
    l2_dissipation_residual,
    sobolev_norm,
    spectral_energies,
    xk_norm,
    xk_norm_bands,
)
from kdvb.propagator import ModelParams, propagate
from kdvb.spectral import GridSpec, RealField, SpectralField, forward_transform


def smooth_traj(eps=0.3, alpha=0.8, dt=1e-3, t_final=0.3, stride=5, modes=128):
    grid = GridSpec(box_length=32.0, modes=modes)
    x = grid.collocation_points()
    vals = np.exp(-(((x - 16.0) / 3.0) ** 2)) * (1.0 + 0.3 * np.cos(x - 16.0))
    vals /= np.sqrt(np.sum(vals**2) * grid.box_length / grid.modes)
    cfg = SolverConfig(
        params=ModelParams(eps, alpha), grid=grid, dt=dt, t_final=t_final,
        snapshot_stride=stride,
    )
    return solve(RealField(vals, grid), cfg)


class TestSobolevNorm:
    def test_s_zero_is_l2(self):
        grid = GridSpec(box_length=9.0, modes=64)
        rng = np.random.default_rng(0)
        u = forward_transform(RealField(rng.standard_normal(64), grid))
        assert sobolev_norm(u, 0.0) == pytest.approx(u.l2_norm(), rel=1e-14)

    def test_single_unit_mode(self):
        grid = GridSpec(box_length=2 * np.pi, modes=16)
        coeffs = np.zeros(16, dtype=complex)
        coeffs[1] = 1.0
        assert sobolev_norm(SpectralField(coeffs, grid), 1.0) == pytest.approx(
            np.sqrt(2.0)
        )

    def test_monotone_in_s(self):
        grid = GridSpec(box_length=9.0, modes=64)
        rng = np.random.default_rng(1)
        u = forward_transform(RealField(rng.standard_normal(64), grid))
        values = [sobolev_norm(u, s) for s in (-1.0, -0.5, 0.0, 0.5, 1.0)]
        assert all(a <= b + 1e-14 for a, b in zip(values, values[1:]))


class TestSpectralEnergies:
    def test_matrix_rows_equal_single_rows(self):
        rng = np.random.default_rng(5)
        coeffs = rng.standard_normal((150, 48)) + 1j * rng.standard_normal((150, 48))
        weights = (1.0, rng.random(48))
        sums = spectral_energies(coeffs, *weights)
        for i, row in enumerate(coeffs):
            assert [s[i] for s in sums] == spectral_energies(row, *weights)


class TestDyadicProfile:
    def test_single_mode_lands_in_its_band(self):
        grid = GridSpec(box_length=2 * np.pi, modes=32)
        coeffs = np.zeros(32, dtype=complex)
        coeffs[4] = 1.0  # xi = 4 sits in band 3 = [4, 8)
        prof = dyadic_profile(SpectralField(coeffs, grid))
        assert prof[3] == pytest.approx(1.0)
        assert np.sum(prof**2) == pytest.approx(1.0)
        others = np.delete(prof, 3)
        assert np.max(others) == 0.0

    def test_zero_field(self):
        grid = GridSpec(box_length=1.0, modes=16)
        prof = dyadic_profile(SpectralField(np.zeros(16, complex), grid))
        assert np.all(prof == 0)

    def test_exact_pythagoras(self):
        grid = GridSpec(box_length=5.0, modes=256)
        rng = np.random.default_rng(2)
        u = forward_transform(RealField(rng.standard_normal(256), grid))
        prof = dyadic_profile(u)
        assert np.sum(prof**2) == pytest.approx(u.l2_norm() ** 2, rel=1e-12)


def band_limited_state(grid: GridSpec, band: int, seed: int = 3) -> SpectralField:
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(grid.modes, dtype=complex)
    xi = grid.wavenumbers()
    half = grid.modes // 2
    lo, hi = (0.0, 1.0) if band == 0 else (2.0 ** (band - 1), 2.0**band)
    for k in range(1, half):
        if lo <= abs(xi[k]) < hi:
            coeffs[k] = rng.standard_normal() + 1j * rng.standard_normal()
            coeffs[grid.modes - k] = np.conj(coeffs[k])
    return SpectralField(coeffs, grid)


def free_trajectory(u0: SpectralField, dt_snap: float, n: int) -> Trajectory:
    p = ModelParams(0.0, 1.0)
    times = np.arange(n) * dt_snap
    coeffs = [propagate(u0, float(t), p).coeffs for t in times]
    cfg = SolverConfig(
        params=p, grid=u0.grid, dt=dt_snap, t_final=float(times[-1]), snapshot_stride=1
    )
    return Trajectory(coeffs, cfg)


class TestXkNorm:
    def test_free_evolution_concentrates_at_zero_modulation(self):
        grid = GridSpec(box_length=16.0, modes=64)
        traj = free_trajectory(band_limited_state(grid, band=2), dt_snap=0.04, n=1000)
        bands = xk_norm_bands(traj, 2, window=float(traj.times[-1]))
        assert np.sum(bands[1:]) <= 0.2 * np.sum(bands)

    def test_single_mode_lands_in_its_modulation_band(self):
        # the mode pair xi = +-2 whose coefficient runs as exp(i (xi^3 + 5) t)
        # sits at modulation tau - xi^3 = +-5, in band 3 = [4, 8)
        grid = GridSpec(box_length=2 * np.pi, modes=16)
        dt_snap, n = 0.05, 256
        times = np.arange(n) * dt_snap
        coeffs = np.zeros((n, 16), dtype=complex)
        coeffs[:, 2] = np.exp(1j * (2.0**3 + 5.0) * times)
        coeffs[:, -2] = np.conj(coeffs[:, 2])
        cfg = SolverConfig(ModelParams(0.0, 1.0), grid, dt_snap, float(times[-1]))
        bands = xk_norm_bands(Trajectory(coeffs, cfg), 2, window=float(times[-1]))
        assert np.argmax(bands) == 3
        # time Parseval: the unweighted band masses sum to 2 pi dt_snap
        # times the squared norm of the tapered coefficients
        masses = (bands / 2.0 ** (0.5 * np.arange(len(bands)))) ** 2
        tapered = coeffs[:, [2, -2]] * norms._taper(n)[:, None]
        parseval = 2 * np.pi * dt_snap * np.sum(np.abs(tapered) ** 2)
        assert np.sum(masses) == pytest.approx(parseval, rel=1e-12)

    def test_modulation_wrap_is_the_principal_reduction(self):
        # carriers on the DFT grid at tau - xi^3 = +-4.03, 0.03 inside band
        # 3 = [4, 8): a wrap off by 0.0005 of its span 2 pi / dt_snap (0.063)
        # drops one of them into band 2
        dt_snap, n = 0.05, 256
        span = 2 * np.pi / dt_snap
        omega = 30 * span / n
        grid = GridSpec(box_length=2 * np.pi / np.cbrt(omega - 4.03), modes=16)
        times = np.arange(n) * dt_snap
        coeffs = np.zeros((n, 16), dtype=complex)
        coeffs[:, 1] = np.exp(1j * omega * times)
        coeffs[:, -1] = np.conj(coeffs[:, 1])
        cfg = SolverConfig(ModelParams(0.0, 1.0), grid, dt_snap, float(times[-1]))
        bands = xk_norm_bands(Trajectory(coeffs, cfg), 2, window=float(times[-1]))
        # the same bands with sigma reduced as sigma - span * round(sigma / span)
        f = np.fft.fft(coeffs[:, [1, -1]] * norms._taper(n)[:, None], axis=0) * dt_snap
        tau = 2 * np.pi * np.fft.fftfreq(n, d=dt_snap)
        sigma = tau[:, None] - grid.wavenumbers()[[1, -1]] ** 3
        reduced = sigma - span * np.round(sigma / span)
        mass = np.bincount(
            norms.dyadic_band_indices(reduced.ravel()), weights=np.abs(f.ravel()) ** 2 * span / n
        )
        want = 2.0 ** (0.5 * np.arange(len(mass))) * np.sqrt(mass)
        np.testing.assert_allclose(bands, want, rtol=1e-12)

    @pytest.mark.parametrize("n", [5, 16, 40, 257])
    def test_taper_is_a_raised_cosine(self, n):
        # sin^2(theta / 2) at theta = pi (j + 1/2) / edge over each outer tenth, 1 between
        edge = max(1, round(0.1 * n))
        want = np.ones(n)
        want[:edge] = np.sin(0.5 * np.pi * (np.arange(edge) + 0.5) / edge) ** 2
        want[n - edge :] = want[:edge][::-1]
        np.testing.assert_allclose(norms._taper(n), want, rtol=1e-12)

    def test_zero_trajectory(self):
        grid = GridSpec(box_length=16.0, modes=64)
        traj = free_trajectory(SpectralField(np.zeros(64, complex), grid), 0.05, 32)
        assert xk_norm(traj, 1, window=1.0) == 0.0
        # |xi| < 4 pi on this grid: band 10 holds no mode
        assert xk_norm_bands(traj, 10, window=1.0).size == 0

    def test_homogeneity(self):
        grid = GridSpec(box_length=16.0, modes=64)
        u = band_limited_state(grid, band=2)
        traj = free_trajectory(u, 0.05, 64)
        scaled = free_trajectory(SpectralField(3.0 * u.coeffs, grid), 0.05, 64)
        a = xk_norm(traj, 2, window=3.0)
        b = xk_norm(scaled, 2, window=3.0)
        assert b == pytest.approx(3.0 * a, rel=1e-12)

    def test_too_few_snapshots(self):
        grid = GridSpec(box_length=16.0, modes=64)
        traj = free_trajectory(band_limited_state(grid, 1), 0.05, 32)
        with pytest.raises(ResolutionError, match="snapshots"):
            xk_norm(traj, 1, window=0.3)

    def test_negative_band_rejected(self):
        grid = GridSpec(box_length=16.0, modes=64)
        traj = free_trajectory(band_limited_state(grid, 1), 0.05, 32)
        # band 1.5 holds no mode, so it would read 0; 2.0 is refused as
        # GridSpec refuses modes=32.0
        for band in (-1, 1.5, 2.0, True):
            with pytest.raises(ContractViolationError, match="band index"):
                xk_norm_bands(traj, band, window=1.0)

    @pytest.mark.parametrize("window", [0.0, -1.0, 1.56, float("nan")])
    def test_window_outside_the_run_rejected(self, window):
        # the run ends at t_final = 31 * 0.05 = 1.55; "must lie in", since a
        # window that passes the rule fails later as "only 0 snapshots in window"
        grid = GridSpec(box_length=16.0, modes=64)
        traj = free_trajectory(band_limited_state(grid, 1), 0.05, 32)
        with pytest.raises(ResolutionError, match="must lie in"):
            xk_norm_bands(traj, 1, window=window)

    def test_shortened_last_interval_is_dropped(self):
        # 197 steps at stride 5: snapshots every 0.05 up to 1.95, then 1.97
        traj = smooth_traj(eps=0.0, alpha=1.0, dt=1e-2, t_final=1.97, stride=5, modes=64)
        assert traj.times[-1] == 1.97 and len(traj.times) == 41
        # the same rows on the 195-step schedule, which ends on a full interval
        by_hand = Trajectory(traj.coeffs[:-1], replace(traj.config, t_final=1.95))
        for k in (1, 2):
            got = xk_norm_bands(traj, k, window=1.97)
            want = xk_norm_bands(by_hand, k, window=1.95)
            assert np.array_equal(got, want)
        # 72 steps at stride 5: 15 snapshots and a shortened 16th at 0.72
        # leave 15 once it is dropped
        short = Trajectory(traj.coeffs[np.r_[:15, -1]], replace(traj.config, t_final=0.72))
        assert len(short.times) == 16
        with pytest.raises(ResolutionError, match="15 uniform snapshots"):
            xk_norm_bands(short, 1, window=0.72)

    def test_full_last_interval_is_kept_within_the_whole_step_slack(self):
        # t_final 1.8e-12 past 2000 steps of 1e-3, inside SolverConfig's 1e-12
        # relative slack, ends on an interval 1.8e-9 longer than the rest: a
        # full one, whose snapshot is kept as on the exact schedule
        grid = GridSpec(box_length=16.0, modes=64)
        exact = free_trajectory(band_limited_state(grid, 1), 1e-3, 2001)
        slack = Trajectory(exact.coeffs, replace(exact.config, t_final=2.0 * (1 + 9e-13)))
        assert slack.times[-1] - slack.times[-2] > (1 + 1e-9) * 1e-3
        for k in (1, 2):
            got = xk_norm_bands(slack, k, window=slack.config.t_final)
            assert np.array_equal(got, xk_norm_bands(exact, k, window=2.0))


class TestDissipationLedger:
    def test_dispersive_case_reduces_to_conservation(self):
        traj = smooth_traj(eps=0.0, alpha=1.0, dt=1e-3, t_final=0.3)
        assert l2_dissipation_residual(traj) <= 1e-8

    def test_linear_only_residual_is_quadrature_limited(self):
        grid = GridSpec(box_length=32.0, modes=128)
        x = grid.collocation_points()
        vals = np.exp(-(((x - 16.0) / 3.0) ** 2))
        residuals = {}
        for stride in (8, 4):
            cfg = SolverConfig(
                params=ModelParams(0.5, 0.8), grid=grid, dt=1e-3, t_final=0.4,
                snapshot_stride=stride,
            )
            with free_flow():
                traj = solve(RealField(vals, grid), cfg)
            residuals[stride] = l2_dissipation_residual(traj)
        assert residuals[8] <= 1e-5
        # trapezoid error scales with the snapshot spacing squared
        assert residuals[8] / residuals[4] == pytest.approx(4.0, abs=1.0)

    def test_full_solve_residual(self):
        traj = smooth_traj(eps=0.3, alpha=0.8, dt=1e-3, t_final=0.3, stride=5)
        assert l2_dissipation_residual(traj) <= 1e-5

    def test_zero_data_gives_absolute_residual(self):
        grid = GridSpec(box_length=8.0, modes=32)
        cfg = SolverConfig(params=ModelParams(0.5, 0.5), grid=grid, dt=0.01, t_final=0.1)
        traj = solve(RealField(np.zeros(32), grid), cfg)
        assert l2_dissipation_residual(traj) == 0.0

    @pytest.mark.parametrize("eps", [0.0, 0.3])
    def test_residual_is_the_ledger_residual(self, eps):
        traj = smooth_traj(eps=eps, t_final=0.1, stride=10)
        ledger = build_energy_ledger(traj)
        relative = float(np.max(np.abs(ledger["residual"]))) / ledger["half_l2_sq"][0]
        assert l2_dissipation_residual(traj) == relative

    def test_ledger_columns_match_single_field_functions(self):
        traj = smooth_traj(t_final=0.1, stride=10)
        ledger = build_energy_ledger(traj)
        assert np.array_equal(ledger["hamiltonian"], [hamiltonian(s) for s in traj.states])
        assert np.array_equal(ledger["h1_norm"], [sobolev_norm(s, 1.0) for s in traj.states])

    def test_ledger_invariants(self):
        traj = smooth_traj(t_final=0.1, stride=10)
        ledger = build_energy_ledger(traj)
        assert ledger["dissipated"][0] == 0.0
        assert np.all(np.diff(ledger["dissipated"]) >= 0)


class TestHamiltonian:
    def test_zero_field(self):
        grid = GridSpec(box_length=4.0, modes=32)
        assert hamiltonian(SpectralField(np.zeros(32, complex), grid)) == 0.0

    def test_sine_closed_form(self):
        grid = GridSpec(box_length=2 * np.pi, modes=64)
        x = grid.collocation_points()
        u = forward_transform(RealField(np.sin(x), grid))
        assert hamiltonian(u) == pytest.approx(2 * np.pi, rel=1e-12)

    def test_conserved_along_dispersive_flow(self):
        traj = smooth_traj(eps=0.0, alpha=1.0, dt=1e-3, t_final=1.0, stride=100)
        values = [hamiltonian(s) for s in traj.states]
        drift = abs(values[-1] - values[0]) / abs(values[0])
        assert drift <= 1e-6
