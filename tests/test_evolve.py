"""Tests for the ETDRK4 solver with exact linear flow."""

import contextlib
import functools
import io
import json
import pickle
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from free_flow import free_flow
from kdvb import evolve
from kdvb.errors import ContractViolationError, DivergenceError, ParameterError
from kdvb.evolve import (
    MAX_STEPS,
    SolverConfig,
    Trajectory,
    nonlinear_term,
    read_trajectory,
    solve,
    solve_ladder,
    step,
    write_trajectory,
)
from kdvb.experiments import (
    gaussian_initial_data,
    power_law_initial_data,
    soliton_initial_data,
)
from kdvb.propagator import ModelParams, linear_symbol, propagate
from kdvb.spectral import (
    GridSpec,
    RealField,
    SpectralField,
    dealias,
    forward_transform,
    hermitian_residual,
    inverse_transform,
    synthesize,
)


@pytest.fixture
def tableau_builds(monkeypatch):
    """A list that grows by one entry per ETDRK4 tableau built."""
    builds = []
    init = evolve._Stepper.__init__

    def counted(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(evolve._Stepper, "__init__", counted)
    return builds


def smooth_data(grid: GridSpec, amplitude: float = 1.0) -> RealField:
    x = grid.collocation_points() - grid.box_length / 2.0
    values = amplitude * np.exp(-((x / 2.5) ** 2)) * (1.0 + 0.3 * np.cos(x))
    return RealField(values, grid)


class TestNonlinearTerm:
    def test_sine_closed_form(self):
        grid = GridSpec(box_length=2 * np.pi, modes=64)
        x = grid.collocation_points()
        u = dealias(forward_transform(RealField(np.sin(x), grid)))
        out = inverse_transform(nonlinear_term(u))
        assert np.allclose(out.values, -np.sin(2 * x), atol=1e-12)

    def test_constant_maps_to_zero(self):
        grid = GridSpec(box_length=3.0, modes=32)
        u = forward_transform(RealField(np.full(32, 1.7), grid))
        assert np.max(np.abs(nonlinear_term(u).coeffs)) <= 1e-14

    def test_zero_mean_output(self):
        grid = GridSpec(box_length=5.0, modes=64)
        rng = np.random.default_rng(2)
        u = dealias(forward_transform(RealField(rng.standard_normal(64), grid)))
        assert abs(nonlinear_term(u).coeffs[0]) <= 1e-14

    @pytest.mark.parametrize("modes", [64, 96, 384])
    def test_band_is_alias_free(self, modes):
        # band-filling data: its square has no alias on a 2M grid, and the
        # strict cutoff leaves none on the band at M divisible by 3 either
        grid = GridSpec(box_length=5.0, modes=modes)
        rng = np.random.default_rng(modes)
        u = dealias(forward_transform(RealField(rng.standard_normal(modes), grid)))
        # the reference squares on 2M points, zero-padded in the unitary
        # convention (coeff = sqrt(L) / n fft on n points), keeps |k| < M/3
        # of the square and applies the derivative -i xi
        half, root_l = modes // 2, np.sqrt(grid.box_length)
        padded = np.zeros(2 * modes, dtype=complex)
        padded[:half], padded[-half:] = u.coeffs[:half], u.coeffs[half:]
        w = np.fft.ifft(padded * (2 * modes / root_l)).real
        square = np.fft.fft(w * w) * (root_l / (2 * modes))
        square = np.concatenate((square[:half], square[-half:]))
        k = grid.integer_wavenumbers()
        reference = np.where(np.abs(k) < modes / 3, -1j * grid.wavenumbers() * square, 0.0)
        coeffs = nonlinear_term(u).coeffs
        assert np.linalg.norm(coeffs - reference) <= 1e-15 * np.linalg.norm(reference)

    def test_reads_the_half_spectrum_of_a_non_hermitian_u(self):
        # only k = 0..M/2 are read, the zero and Nyquist entries by their
        # real parts: u and the real field of that half-spectrum agree
        grid = GridSpec(box_length=5.0, modes=64)
        rng = np.random.default_rng(3)
        c = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        c[~grid.dealias_mask()] = 0.0
        c[32] = 0.7 - 0.2j  # the Nyquist entry, outside the band but read
        h = c[:33].copy()
        h[0], h[-1] = h[0].real, h[-1].real
        projected = np.concatenate((h, np.conj(h[-2:0:-1])))
        assert hermitian_residual(SpectralField(c, grid)) > 0.1
        out = nonlinear_term(SpectralField(c, grid))
        assert np.array_equal(out.coeffs, nonlinear_term(SpectralField(projected, grid)).coeffs)
        assert hermitian_residual(out) == 0.0


class TestStep:
    def test_zero_field_fixed_point(self):
        grid = GridSpec(box_length=4.0, modes=32)
        u = forward_transform(RealField(np.zeros(32), grid))
        out = step(u, 0.01, ModelParams(0.3, 0.9))
        assert np.max(np.abs(out.coeffs)) == 0.0

    def test_linear_only_reproduces_propagator(self):
        grid = GridSpec(box_length=4.0, modes=64)
        u = dealias(forward_transform(smooth_data(grid)))
        p = ModelParams(0.4, 0.7)
        with free_flow():
            stepped = step(u, 0.02, p)
        exact = propagate(u, 0.02, p)
        assert np.allclose(stepped.coeffs, exact.coeffs, rtol=1e-14, atol=1e-16)

    def test_dt_validated(self):
        grid = GridSpec(box_length=4.0, modes=32)
        u = forward_transform(RealField(np.zeros(32), grid))
        with pytest.raises(ParameterError, match="dt"):
            step(u, -0.1, ModelParams(0.0, 1.0))
        # step checks the ETD-argument bound of SolverConfig: at M = 64,
        # dt = 1e200 puts max |dt L(xi)| at 1.2e205, past 5.6e102
        grid = GridSpec(box_length=4.0, modes=64)
        u = dealias(forward_transform(smooth_data(grid)))
        with pytest.raises(ParameterError, match=r"dt = 1e\+200 .*5\.6438e\+102"):
            step(u, 1e200, ModelParams(0.1, 1.0))
        for dt in (np.inf, np.nan):
            with pytest.raises(ParameterError, match="positive and finite"):
                step(u, dt, ModelParams(0.1, 1.0))

    def test_fourth_order_self_convergence(self):
        # errors against a dt/8 reference shrink 16x per dt halving; the three
        # solves step as one ladder, dt being 16, 8 and 1 times 6.25e-5
        grid = GridSpec(box_length=16.0, modes=96)
        phi = smooth_data(grid, amplitude=1.5)
        p = ModelParams(0.1, 0.8)
        cfgs = [
            SolverConfig(params=p, grid=grid, dt=dt, t_final=0.5, snapshot_stride=10**9)
            for dt in (1e-3, 5e-4, 5e-4 / 8.0)
        ]
        *runs, ref = (traj.coeffs[-1] for traj in solve_ladder(phi, cfgs))
        errs = [np.linalg.norm(run - ref) for run in runs]
        ratio = errs[0] / errs[1]
        assert 15.0 <= ratio <= 17.0


def reference_step(stepper: evolve._Stepper, grid: GridSpec, h: np.ndarray) -> np.ndarray:
    """One ETDRK4 step written as plain allocating expressions, on the
    stepper's tableau, whose q, f1, f2 and f3 carry N's multiplier: the
    order of operations the in-place step keeps, squaring through the
    unscaled irfft as the stepper does."""
    m = grid.modes

    def p(x):
        w = np.fft.irfft(x, m, norm="forward")
        return np.fft.rfft(w * w)

    e_half, q = stepper.e_half, stepper.q
    p0 = p(h)
    q_p0 = q * p0
    e_h = e_half * h
    a = e_h + q_p0
    pa = p(a)
    pb = p(e_h + q * pa)
    pc = p(e_half * a + stepper.q_twice * pb - q_p0)
    return stepper.e_full * h + stepper.f1 * p0 + stepper.f2_twice * (pa + pb) + stepper.f3 * pc


def unfolded_step(grid: GridSpec, params: list, dts: list, h: np.ndarray) -> np.ndarray:
    """One Cox-Matthews ETDRK4 step of each row of h, written from its
    definition: the phi-function coefficients carry no multiplier, and
    each stage evaluates the whole N, the multiplier times rfft(irfft(x)**2)
    with numpy's default-normalised irfft, so the multiplier is -i xi on the
    dealiased modes times the coefficient convention's M / sqrt(L)."""
    m = grid.modes
    half = m // 2 + 1
    sym = np.array([linear_symbol(grid, p)[:half] for p in params])
    sym[:, -1] = sym[:, -1].real
    dt = np.array(dts)[:, None]
    z = dt * sym
    coefficient = functools.partial(evolve._etd_coefficient, z)
    q = dt * coefficient(lambda w: (np.exp(0.5 * w) - 1.0) / w, evolve._Q_SERIES)
    f1 = dt * coefficient(
        lambda w: (-4.0 - w + np.exp(w) * (4.0 - 3.0 * w + w * w)) / w**3, evolve._F1_SERIES
    )
    f2 = dt * coefficient(lambda w: (2.0 + w + np.exp(w) * (w - 2.0)) / w**3, evolve._F2_SERIES)
    f3 = dt * coefficient(
        lambda w: (-4.0 - 3.0 * w - w * w + np.exp(w) * (4.0 - w)) / w**3, evolve._F3_SERIES
    )
    mask = grid.dealias_mask()[:half]
    mult = -1j * grid.wavenumbers()[:half] * mask * (m / np.sqrt(grid.box_length))

    def n(x):
        return mult * np.fft.rfft(np.fft.irfft(x, m) ** 2)

    e_half = np.exp(0.5 * z)
    nu = n(h)
    a = e_half * h + q * nu
    na = n(a)
    b = e_half * h + q * na
    nb = n(b)
    nc = n(e_half * a + q * (2.0 * nb - nu))
    return np.exp(z) * h + f1 * nu + 2.0 * f2 * (na + nb) + f3 * nc


class TestStepperBuffers:
    """Each stepper steps in its own preallocated buffers."""

    @staticmethod
    def stepper_and_state(rows: int):
        grid = GridSpec(box_length=16.0, modes=96)
        h = evolve._to_half(dealias(forward_transform(smooth_data(grid, 1.5))).coeffs)
        params = [ModelParams(0.1 * b, 0.8) for b in range(rows)]
        stepper = evolve._Stepper(grid, params, [1e-3 * (b + 1) for b in range(rows)])
        return grid, stepper, np.outer(np.arange(1.0, rows + 1), h)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_step_equals_the_plain_expressions_bit_for_bit(self, rows):
        grid, stepper, h = self.stepper_and_state(rows)
        for _ in range(20):
            expected = reference_step(stepper, grid, h)
            h = stepper(h)
            assert np.array_equal(h, expected)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_returned_state_survives_the_next_call(self, rows):
        _, stepper, h = self.stepper_and_state(rows)
        first = stepper(h)
        kept = first.copy()
        second = stepper(first)
        assert np.array_equal(first, kept)
        assert np.array_equal(stepper(h), kept)
        buffers = (stepper.p0, stepper.pa, stepper.pb, stepper.pc, stepper.s, stepper.t, h)
        for state in (first, second):
            assert not any(np.shares_memory(state, b) for b in buffers)
        assert not np.shares_memory(first, second)

    def test_nonlinear_term_result_survives_a_later_call(self):
        grid = GridSpec(box_length=5.0, modes=64)
        rng = np.random.default_rng(7)
        u, v = (
            dealias(forward_transform(RealField(rng.standard_normal(64), grid)))
            for _ in range(2)
        )
        first = nonlinear_term(u)
        kept = first.coeffs.copy()
        nonlinear_term(v)
        assert np.array_equal(first.coeffs, kept)
        assert np.array_equal(nonlinear_term(u).coeffs, kept)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        rows=st.sampled_from([1, 3]),
        modes=st.sampled_from([64, 96, 384]),
        eps=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
        alpha=st.floats(0.05, 1.0),
        dt=st.floats(1e-4, 2e-3),
    )
    def test_folded_multiplier_agrees_with_the_full_nonlinearity(
        self, rows, modes, eps, alpha, dt
    ):
        # the stepper folds N's multiplier into q, f1, f2 and f3; the
        # reference weighs the whole N with the unfolded coefficients
        grid = GridSpec(box_length=16.0, modes=modes)
        params = [ModelParams(e, alpha) for e in eps[:rows]]
        dts = [dt * (b + 1) for b in range(rows)]
        folded = evolve._Stepper(grid, params, dts)
        h = evolve._to_half(dealias(forward_transform(smooth_data(grid, 1.5))).coeffs)
        x = y = np.outer(np.arange(1.0, rows + 1), h)
        for _ in range(20):
            x, y = folded(x), unfolded_step(grid, params, dts, y)
        assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)


class TestSolve:
    def test_zero_data_zero_trajectory(self):
        grid = GridSpec(box_length=4.0, modes=32)
        cfg = SolverConfig(
            params=ModelParams(0.5, 0.5), grid=grid, dt=0.01, t_final=0.1
        )
        traj = solve(RealField(np.zeros(32), grid), cfg)
        assert all(np.max(np.abs(s.coeffs)) == 0.0 for s in traj.states)

    @pytest.mark.parametrize(
        "flow", [contextlib.nullcontext, free_flow], ids=["quadratic", "free_flow"]
    )
    def test_first_snapshot_is_one_step(self, flow):
        # solve and step share one stepping core: bit-for-bit agreement
        grid = GridSpec(box_length=16.0, modes=96)
        phi = smooth_data(grid, amplitude=1.5)
        p = ModelParams(0.2, 0.7)
        cfg = SolverConfig(params=p, grid=grid, dt=1e-2, t_final=0.05)
        with flow():
            traj = solve(phi, cfg)
            stepped = step(dealias(forward_transform(phi)), cfg.dt, p)
        assert np.array_equal(traj.states[1].coeffs, stepped.coeffs)

    def test_snapshot_schedule(self):
        # 10 steps at stride 3: the last snapshot interval is one step
        grid = GridSpec(box_length=4.0, modes=32)
        cfg = SolverConfig(
            params=ModelParams(0.0, 1.0),
            grid=grid,
            dt=0.01,
            t_final=0.1,
            snapshot_stride=3,
        )
        traj = solve(smooth_data(grid, 0.1), cfg)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == 0.1
        assert np.allclose(traj.times[1:-1], [0.03, 0.06, 0.09])
        # 3 * 0.1 is 0.30000000000000004: the last time is t_final itself
        cfg = SolverConfig(cfg.params, grid, dt=0.1, t_final=0.3, snapshot_stride=2)
        assert solve(smooth_data(grid, 0.1), cfg).times.tolist() == [0.0, 0.2, 0.3]

    def test_one_tableau_for_a_whole_step_schedule(self, tableau_builds, monkeypatch):
        # criterion 02's schedule: divmod(8.0, 0.0004) is (19999, 0.0004 - 4e-16),
        # yet 8.0 is 20,000 whole steps, all under one tableau.  The count is
        # the loop's, so the step itself is stubbed out to keep the test quick
        monkeypatch.setattr(evolve._Stepper, "__call__", lambda self, h: h)
        grid = GridSpec(box_length=32.0, modes=16)
        cfg = SolverConfig(ModelParams(0.0, 1.0), grid, 0.0004, 8.0, snapshot_stride=2500)
        traj = solve(smooth_data(grid, 0.1), cfg)
        assert cfg.steps == 20_000 and len(tableau_builds) == 1
        assert traj.times[-1] == 8.0 and len(traj.times) == 9

    def test_mean_conserved(self):
        grid = GridSpec(box_length=8.0, modes=64)
        x = grid.collocation_points()
        phi = RealField(0.5 + np.exp(-((x - 4) ** 2)), grid)
        cfg = SolverConfig(
            params=ModelParams(0.3, 0.6), grid=grid, dt=1e-3, t_final=0.2,
            snapshot_stride=20,
        )
        traj = solve(phi, cfg)
        means = [s.coeffs[0] for s in traj.states]
        assert np.max(np.abs(np.diff(means))) <= 1e-12 * max(abs(means[0]), 1.0)

    def test_dispersive_l2_conservation(self):
        grid = GridSpec(box_length=16.0, modes=128)
        phi = smooth_data(grid)
        cfg = SolverConfig(
            params=ModelParams(0.0, 1.0), grid=grid, dt=1e-3, t_final=0.5,
            snapshot_stride=100,
        )
        traj = solve(phi, cfg)
        norms = [s.l2_norm() for s in traj.states]
        drift = abs(norms[-1] - norms[0]) / norms[0]
        assert drift <= 1e-10

    def test_dissipative_l2_decreases(self):
        grid = GridSpec(box_length=16.0, modes=128)
        rng = np.random.default_rng(4)
        phi = RealField(0.2 * rng.standard_normal(128), grid)
        cfg = SolverConfig(
            params=ModelParams(1.0, 1.0), grid=grid, dt=1e-3, t_final=1.0,
            snapshot_stride=100,
        )
        traj = solve(phi, cfg)
        norms = np.array([s.l2_norm() for s in traj.states])
        assert norms[-1] < norms[0]
        # snapshot-to-snapshot monotone within the stated 10 dt^4 slack
        assert np.all(np.diff(norms) <= 10.0 * cfg.dt**4 * norms[0])

    def test_soliton_translates(self):
        grid = GridSpec(box_length=32.0, modes=256)
        phi = soliton_initial_data(4.0, x0=8.0, grid=grid)
        cfg = SolverConfig(
            params=ModelParams(0.0, 1.0), grid=grid, dt=1e-3, t_final=1.0,
            snapshot_stride=10**9,
        )
        traj = solve(phi, cfg)
        target = forward_transform(soliton_initial_data(4.0, x0=12.0, grid=grid))
        err = np.linalg.norm(traj.states[-1].coeffs - target.coeffs)
        assert err / np.linalg.norm(target.coeffs) <= 1e-6

    def test_states_dealiased_and_hermitian(self):
        grid = GridSpec(box_length=8.0, modes=64)
        cfg = SolverConfig(
            params=ModelParams(0.2, 0.9), grid=grid, dt=1e-3, t_final=0.05,
            snapshot_stride=10,
        )
        traj = solve(smooth_data(grid), cfg)
        mask = grid.dealias_mask()
        for s in traj.states:
            assert np.all(s.coeffs[~mask] == 0)
            assert hermitian_residual(s) <= 1e-12
        # stepped states are rebuilt from the rfft half-spectrum: exactly Hermitian
        assert all(hermitian_residual(s) == 0.0 for s in traj.states[1:])

    @pytest.mark.parametrize("modes", [96, 384])
    @pytest.mark.parametrize("eps,alpha", [(0.0, 1.0), (0.3, 0.8)])
    def test_matches_full_fft_etdrk4_reference(self, modes, eps, alpha):
        # a plain ETDRK4 loop on full complex-FFT coefficients, with the
        # Cox-Matthews coefficients written through phi-functions
        grid = GridSpec(box_length=16.0, modes=modes)
        values = smooth_data(grid, amplitude=1.5).values
        dt, n_steps = 1e-3, 500

        m = grid.modes
        k = np.fft.fftfreq(m, d=1.0 / m)
        xi = 2.0 * np.pi * k / grid.box_length
        keep = np.abs(k) < m / 3
        z = dt * (1j * xi**3 - eps * np.where(xi != 0, np.abs(xi) ** (2 * alpha), 0.0))

        def phis(w):
            # phi_1, phi_2, phi_3: Taylor series near 0, recurrence beyond
            small = np.abs(w) < 1.0
            ws = np.where(small, w, 0.0)
            fact = np.cumprod(np.arange(1.0, 40.0))
            series = [sum(ws**j / fact[j + n - 1] for j in range(30)) for n in (1, 2, 3)]
            wb = np.where(small, 1.0, w)
            p1 = (np.exp(wb) - 1.0) / wb
            p2 = (p1 - 1.0) / wb
            p3 = (p2 - 0.5) / wb
            return [np.where(small, s, b) for s, b in zip(series, (p1, p2, p3))]

        p1, p2, p3 = phis(z)
        e, e_half = np.exp(z), np.exp(z / 2)
        q = 0.5 * dt * phis(z / 2)[0]
        f1 = dt * (p1 - 3.0 * p2 + 4.0 * p3)
        f2 = dt * (p2 - 2.0 * p3)
        f3 = dt * (4.0 * p3 - p2)

        def nl(c):
            u = np.fft.ifft(c).real
            return -1j * xi * np.where(keep, np.fft.fft(u * u), 0.0)

        c = np.where(keep, np.fft.fft(values), 0.0)
        for _ in range(n_steps):
            n0 = nl(c)
            a = e_half * c + q * n0
            na = nl(a)
            b = e_half * c + q * na
            nb = nl(b)
            cc = e_half * a + q * (2.0 * nb - n0)
            nc = nl(cc)
            c = e * c + f1 * n0 + 2.0 * f2 * (na + nb) + f3 * nc
        reference = np.fft.ifft(c).real

        cfg = SolverConfig(
            params=ModelParams(eps, alpha), grid=grid, dt=dt, t_final=n_steps * dt,
            snapshot_stride=10**9,
        )
        traj = solve(RealField(values, grid), cfg)
        assert len(traj.states) == 2
        ours = inverse_transform(traj.states[-1]).values
        rel = np.linalg.norm(ours - reference) / np.linalg.norm(reference)
        assert rel <= 1e-12

    def test_divergence_detected_with_step_index(self):
        grid = GridSpec(box_length=4.0, modes=64)
        phi = smooth_data(grid, amplitude=50.0)
        cfg = SolverConfig(
            params=ModelParams(0.0, 1.0), grid=grid, dt=0.5, t_final=10.0
        )
        with pytest.raises(DivergenceError, match="step") as info:
            solve(phi, cfg)
        # a worker process hands its divergence back pickled
        copy = pickle.loads(pickle.dumps(info.value))
        assert str(copy) == str(info.value)
        assert (copy.step_index, copy.time, copy.run) == (
            info.value.step_index, info.value.time, info.value.run
        )

    def test_vast_finite_state_is_not_divergence(self):
        # entries near 1e200 overflow the squared norm that screens each tick,
        # while every entry stays finite: the exact scan must clear them
        grid = GridSpec(box_length=4.0, modes=64)
        phi = smooth_data(grid, amplitude=1e200)
        p = ModelParams(0.0, 1.0)
        cfg = SolverConfig(params=p, grid=grid, dt=0.01, t_final=0.1)
        with free_flow():
            traj = solve(phi, cfg)
        assert len(traj.times) == 11 and np.all(np.isfinite(traj.coeffs))
        assert not np.isfinite(np.vdot(traj.coeffs[-1], traj.coeffs[-1]).real)
        exact = propagate(SpectralField(traj.coeffs[0], grid), 0.1, p)
        error = np.max(np.abs(traj.coeffs[-1] - exact.coeffs))
        assert error <= 1e-13 * np.max(np.abs(exact.coeffs))

    def test_resolution_robustness(self):
        # doubling the mode count leaves the terminal state essentially fixed;
        # width 1.5 keeps the periodization tail of the data at 5e-13
        terminal = {}
        for modes in (128, 256):
            grid = GridSpec(box_length=16.0, modes=modes)
            x = grid.collocation_points() - 8.0
            phi = RealField(np.exp(-((x / 1.5) ** 2)) * (1.0 + 0.3 * np.cos(x)), grid)
            cfg = SolverConfig(
                params=ModelParams(0.1, 0.8), grid=grid, dt=5e-4, t_final=0.5,
                snapshot_stride=10**9,
            )
            traj = solve(phi, cfg)
            terminal[modes] = traj.states[-1]
        coarse = terminal[128].coeffs
        fine = terminal[256]
        half = 64
        embedded = np.concatenate([fine.coeffs[:half], fine.coeffs[256 - half :]])
        rel = np.linalg.norm(embedded - coarse) / np.linalg.norm(coarse)
        assert rel <= 1e-8

    def test_against_independent_classical_rk4_oracle(self):
        # cross-validate against a from-scratch classical RK4 on the
        # spectral ODE, written here with its own transform normalization
        grid = GridSpec(box_length=16.0, modes=64)
        x = grid.collocation_points()
        values = np.exp(-(((x - 8.0) / 2.0) ** 2)) * (1.0 + 0.4 * np.sin(x))
        eps, alpha = 0.3, 0.8

        m = grid.modes
        xi = 2.0 * np.pi * np.fft.fftfreq(m, d=grid.box_length / m)
        keep = np.abs(np.fft.fftfreq(m, d=1.0 / m)) < m / 3
        lin = 1j * xi**3 - eps * np.where(xi != 0, np.abs(xi) ** (2 * alpha), 0.0)

        def rhs(c):
            u = np.fft.ifft(c).real
            return lin * c - 1j * xi * np.where(keep, np.fft.fft(u * u), 0.0)

        c = np.where(keep, np.fft.fft(values), 0.0)
        h = 2.5e-4
        for _ in range(1000):
            k1 = rhs(c)
            k2 = rhs(c + 0.5 * h * k1)
            k3 = rhs(c + 0.5 * h * k2)
            k4 = rhs(c + h * k3)
            c = c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        oracle_values = np.fft.ifft(c).real

        cfg = SolverConfig(
            params=ModelParams(eps, alpha), grid=grid, dt=1e-3, t_final=0.25,
            snapshot_stride=10**9,
        )
        traj = solve(RealField(values, grid), cfg)
        ours = inverse_transform(traj.states[-1]).values
        rel = np.linalg.norm(ours - oracle_values) / np.linalg.norm(oracle_values)
        assert rel <= 1e-8

    def test_config_validation(self):
        grid = GridSpec(box_length=4.0, modes=32)
        p = ModelParams(0.0, 1.0)
        with pytest.raises(ParameterError, match="dt"):
            SolverConfig(params=p, grid=grid, dt=0.2, t_final=0.1)
        # 1.0 / 0.003 is 333.3 steps, and no short last step is taken
        with pytest.raises(ParameterError, match=r"t_final = 1\.0 .* dt = 0\.003"):
            SolverConfig(params=p, grid=grid, dt=0.003, t_final=1.0)
        with pytest.raises(ParameterError, match="stride"):
            SolverConfig(params=p, grid=grid, dt=0.01, t_final=0.1, snapshot_stride=0)

    @pytest.mark.parametrize("stride", [2.5, float("nan"), 1e300])
    def test_non_integer_stride_rejected(self, stride):
        p, grid = ModelParams(0.0, 1.0), GridSpec(box_length=8.0, modes=32)
        with pytest.raises(ParameterError, match="snapshot_stride must be an integer"):
            SolverConfig(p, grid, 0.01, 0.1, snapshot_stride=stride)
        assert SolverConfig(p, grid, 0.01, 0.1, snapshot_stride=np.int64(2)).steps == 10

    def test_grid_mismatch_rejected(self):
        grid = GridSpec(box_length=4.0, modes=32)
        other = GridSpec(box_length=4.0, modes=64)
        cfg = SolverConfig(params=ModelParams(0.0, 1.0), grid=grid, dt=0.01, t_final=0.1)
        with pytest.raises(ContractViolationError, match="grid"):
            solve(RealField(np.zeros(64), other), cfg)

    def test_step_count_capped(self):
        grid = GridSpec(box_length=4.0, modes=32)
        p = ModelParams(0.0, 1.0)
        SolverConfig(params=p, grid=grid, dt=1.0, t_final=float(MAX_STEPS))
        for t_final in (MAX_STEPS + 0.5, 1e15, float("inf")):
            with pytest.raises(ParameterError, match="MAX_STEPS"):
                SolverConfig(params=p, grid=grid, dt=1.0, t_final=t_final)

    def test_etd_argument_capped(self):
        # the closed-form ETDRK4 coefficients cube z = dt L(xi), finite up to
        # float max ** (1/3) = 5.6438e102; at M = 64 and dt = 1e-3 a box of
        # 1e-32 puts max |z| at 8.1e99, 1e-40 at 8.1e123 and 1e-60 at 8.1e183
        p = ModelParams(0.1, 1.0)
        grid = GridSpec(box_length=1e-32, modes=64)
        phi = gaussian_initial_data(grid, width=1e-33, l2_norm=1.0)
        traj = solve(phi, SolverConfig(params=p, grid=grid, dt=1e-3, t_final=1e-2))
        assert np.all(np.isfinite(traj.coeffs))
        for box_length in (1e-40, 1e-60):
            grid = GridSpec(box_length=box_length, modes=64)
            with pytest.raises(ParameterError, match=r"dt = 0\.001 .*5\.6438e\+102"):
                SolverConfig(params=p, grid=grid, dt=1e-3, t_final=1e-2)
        # a step past the bound on an ordinary grid
        grid = GridSpec(box_length=4.0, modes=32)
        with pytest.raises(ParameterError, match="ETDRK4"):
            SolverConfig(params=p, grid=grid, dt=1e100, t_final=1e100)


# (box_length, alpha, epsilon rows, dt, initial data) of criteria 04, 05
# and 06: the reference plus ladder of the inviscid and rate sweeps and
# the h1-bound ladder
CRITERION_LADDERS = {
    "04": (32.0, 1.0, (0.0, 0.1, 0.01, 0.001, 0.0001), 0.01,
           lambda g: gaussian_initial_data(g, width=2.0, l2_norm=4.0, modulation=2.0)),
    "05": (8.0, 1.0, (0.0, 0.1, 0.01, 0.001, 0.0001), 0.002,
           lambda g: power_law_initial_data(g, decay_exponent=-1.51, l2_norm=0.5, seed=1234)),
    "06": (32.0, 0.8, (1.0, 0.1, 0.01, 0.001), 0.005,
           lambda g: gaussian_initial_data(g, width=2.0, l2_norm=2.0, modulation=1.0)),
}


class TestSolveLadder:
    @pytest.mark.parametrize("modes", [256, 384, 512])
    @pytest.mark.parametrize("criterion", sorted(CRITERION_LADDERS))
    def test_rows_equal_single_solves_bit_for_bit(self, criterion, modes):
        box, alpha, ladder, dt, data = CRITERION_LADDERS[criterion]
        grid = GridSpec(box_length=box, modes=modes)
        phi = data(grid)
        # 31 steps, snapshots every 7 steps and after the last
        cfgs = [
            SolverConfig(ModelParams(eps, alpha), grid, dt, 31 * dt, snapshot_stride=7)
            for eps in ladder
        ]
        batched = solve_ladder(phi, cfgs)
        assert len(batched) == len(cfgs)
        for traj, cfg in zip(batched, cfgs):
            single = solve(phi, cfg)
            assert traj.config is cfg
            assert np.array_equal(traj.times, single.times)
            assert np.array_equal(traj.coeffs, single.coeffs)
            assert not traj.coeffs.flags.writeable
            assert traj.coeffs.flags.c_contiguous

    # (dt of each row as a multiple of the smallest, snapshot strides,
    # t_final in units of the smallest dt, a multiple of every ratio): every
    # row but the stride-1 one ends on a short snapshot interval
    MIXED_SCHEDULES = {
        "halves": ((2, 1, 2, 1, 2, 1), (7, 3, 1, 14, 5, 4), 62),
        "ratio3": ((3, 1, 2, 3), (3, 5, 4, 3), 12),
    }

    @pytest.mark.parametrize("modes", [256, 384, 512])
    @pytest.mark.parametrize("schedule", sorted(MIXED_SCHEDULES))
    def test_mixed_dt_and_stride_rows_equal_single_solves(self, schedule, modes):
        box, alpha, ladder, dt, data = CRITERION_LADDERS["05"]
        grid = GridSpec(box_length=box, modes=modes)
        phi = data(grid)
        ratios, strides, n_fine = self.MIXED_SCHEDULES[schedule]
        fine = dt / 2
        cfgs = [
            SolverConfig(ModelParams(eps, alpha), grid, r * fine, n_fine * fine, stride)
            for eps, r, stride in zip(ladder + (0.05,), ratios, strides)
        ]
        for traj, cfg in zip(solve_ladder(phi, cfgs), cfgs):
            single = solve(phi, cfg)
            assert traj.config is cfg
            assert np.array_equal(traj.times, single.times)
            assert np.array_equal(traj.coeffs, single.coeffs)

    @pytest.mark.parametrize("modes", [256, 384, 512])
    def test_refine_pair_on_divmod_inexact_schedule(self, modes, tableau_builds, monkeypatch):
        # criterion 01's schedule: divmod(1.0, 0.0005) is (1999, 0.0005 - 2e-17),
        # yet 1.0 is 2000 whole steps of dt and 4000 of dt/2.  The pair builds
        # two tableaux, both rows and the dt/2 row alone, and none for a
        # short last step.  The counts are the loop's, so the step itself is
        # stubbed out; the ratio-2 rows of MIXED_SCHEDULES check the values
        monkeypatch.setattr(evolve._Stepper, "__call__", lambda self, h: h)
        grid = GridSpec(box_length=64.0, modes=modes)
        phi = gaussian_initial_data(grid, width=1.5, l2_norm=1.0, modulation=2.0)
        base = SolverConfig(ModelParams(0.3, 0.8), grid, 0.0005, 1.0, snapshot_stride=10)
        cfgs = [base, SolverConfig(base.params, grid, 0.00025, 1.0, snapshot_stride=10)]
        assert [cfg.steps for cfg in cfgs] == [2000, 4000]
        traj = solve_ladder(phi, cfgs)[-1]
        assert len(tableau_builds) == 2
        assert traj.times[-1] == 1.0 and len(traj.times) == 401

    def test_configs_must_share_schedule(self):
        grid = GridSpec(box_length=16.0, modes=64)
        phi = smooth_data(grid)
        # 0.03 is 3 steps of 0.01 and 10 of 0.003
        base = SolverConfig(ModelParams(0.1, 1.0), grid, dt=0.01, t_final=0.03)
        with pytest.raises(ParameterError, match="share"):
            solve_ladder(phi, [])
        others = [
            SolverConfig(ModelParams(0.1, 1.0), GridSpec(16.0, 128), dt=0.01, t_final=0.03),
            SolverConfig(ModelParams(0.1, 1.0), grid, dt=0.01, t_final=0.06),
            SolverConfig(ModelParams(0.1, 1.0), grid, dt=0.003, t_final=0.03),
        ]
        for other in others:
            with pytest.raises(ParameterError, match="share"):
                solve_ladder(phi, [base, other])

    def test_batch_rule_is_checked_before_the_data(self):
        # solve_ladder checks the batch first: data on neither config's grid, and
        # non-finite at that, still meets the batch rule's ParameterError
        phi = RealField(np.full(32, np.nan), GridSpec(16.0, 32))
        grid = GridSpec(box_length=16.0, modes=64)
        cfgs = [
            SolverConfig(ModelParams(0.1, 1.0), grid, dt, t_final=0.03) for dt in (0.01, 0.003)
        ]
        with pytest.raises(ParameterError, match="share"):
            solve_ladder(phi, cfgs)

    def test_divergence_names_first_diverging_step(self):
        # alone, epsilon = 1 diverges at step 5 and epsilon = 0 at step 4
        grid = GridSpec(box_length=32.0, modes=64)
        phi = gaussian_initial_data(grid, width=2.0, l2_norm=28.0)
        cfgs = [SolverConfig(ModelParams(e, 1.0), grid, 0.05, 0.5) for e in (1.0, 0.0)]
        singles = []
        for cfg in cfgs:
            with pytest.raises(DivergenceError) as single:
                solve(phi, cfg)
            singles.append(single.value)
        with pytest.raises(DivergenceError) as batched:
            solve_ladder(phi, cfgs)
        assert [e.step_index for e in singles] == [5, 4]
        # the batch names run 0, at its own step, as its single solve does
        assert batched.value.run == 0
        assert batched.value.step_index == singles[0].step_index
        assert batched.value.time == singles[0].time
        assert str(batched.value) == str(singles[0])

    def test_divergence_on_the_last_step_is_stamped_t_final(self):
        # alone, epsilon = 1 at dt 0.05 turns non-finite on its step 6, the
        # last of t_final = 0.3, where 6 * 0.05 is 0.30000000000000004
        grid = GridSpec(box_length=32.0, modes=64)
        phi = gaussian_initial_data(grid, width=2.0, l2_norm=28.0)
        cfg = SolverConfig(ModelParams(1.0, 1.0), grid, 0.05, 0.3)
        assert cfg.steps * cfg.dt != cfg.t_final
        with pytest.raises(DivergenceError) as batched:
            solve_ladder(phi, [cfg, replace(cfg, dt=cfg.dt / 2)])
        assert (batched.value.run, batched.value.step_index) == (0, cfg.steps - 1)
        assert batched.value.time == cfg.t_final

    def test_equal_grids_share_a_batch(self):
        # three GridSpec objects with one value: the data's and each config's
        phi = smooth_data(GridSpec(16.0, 64))
        cfgs = [
            SolverConfig(ModelParams(e, 1.0), GridSpec(16.0, 64), dt=0.01, t_final=0.1)
            for e in (0.1, 0.0)
        ]
        assert cfgs[0].grid is not cfgs[1].grid
        for traj, cfg in zip(solve_ladder(phi, cfgs), cfgs):
            single = solve(phi, cfg)
            assert np.array_equal(traj.times, single.times)
            assert np.array_equal(traj.coeffs, single.coeffs)
        other = SolverConfig(ModelParams(0.1, 1.0), GridSpec(16.0, 128), 0.01, 0.1)
        with pytest.raises(ParameterError, match="share"):
            solve_ladder(phi, [cfgs[0], other])

    # (l2_norm, t_final, (epsilon, dt) of each run).  Alone at l2_norm 28
    # and dt 0.05, epsilon = 1 diverges at step 5 and epsilon <= 0.1 at
    # step 4; at l2_norm 24, epsilon = 1 stays finite and 0.1 diverges at
    # step 5; dt 0.1 stays finite to t = 0.3 and diverges at step 3.
    DIVERGING_BATCHES = {
        "run1_after_finite_run0": (24.0, 0.5, ((1.0, 0.05), (0.1, 0.05))),
        "finer_companion": (28.0, 0.3, ((0.1, 0.1), (0.1, 0.05))),
        "coarse_run0_last": (28.0, 0.5, ((1.0, 0.1), (0.0, 0.05))),
        "middle_run": (28.0, 0.5, ((1.0, 0.025), (1.0, 0.05), (0.0, 0.05))),
    }

    @pytest.mark.parametrize("batch", sorted(DIVERGING_BATCHES))
    def test_divergence_is_the_first_diverging_single_solve(self, batch):
        l2_norm, t_final, runs = self.DIVERGING_BATCHES[batch]
        grid = GridSpec(box_length=32.0, modes=64)
        phi = gaussian_initial_data(grid, width=2.0, l2_norm=l2_norm)
        cfgs = [SolverConfig(ModelParams(e, 1.0), grid, dt, t_final) for e, dt in runs]
        alone = []
        for b, cfg in enumerate(cfgs):
            try:
                solve(phi, cfg)
            except DivergenceError as exc:
                alone.append((b, exc))
        (first, expected), *_ = alone
        with pytest.raises(DivergenceError) as batched:
            solve_ladder(phi, cfgs)
        assert batched.value.run == first
        assert batched.value.step_index == expected.step_index
        assert batched.value.time == expected.time
        assert str(batched.value) == str(expected)


@functools.cache
def mutation_base() -> bytes:
    """The trajectory.bin bytes of an M = 16 solve with 3 snapshots."""
    grid = GridSpec(box_length=8.0, modes=16)
    cfg = SolverConfig(ModelParams(0.3, 0.8), grid, dt=0.01, t_final=0.02)
    buf = io.BytesIO()
    write_trajectory(buf, solve(smooth_data(grid, 0.5), cfg))
    return buf.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_mutated_trajectory_reads_or_fails_by_name(data):
    # flip, delete or insert 1-4 bytes anywhere: the reader returns count fields
    # or raises ContractViolationError, and nothing else escapes
    blob = bytearray(mutation_base())
    for _ in range(data.draw(st.integers(1, 4))):
        edit = data.draw(st.sampled_from(["flip", "delete", "insert"]))
        at = data.draw(st.integers(0, len(blob) - 1))
        if edit == "flip":
            blob[at] ^= data.draw(st.integers(1, 255))
        elif edit == "delete":
            del blob[at]
        else:
            blob.insert(at, data.draw(st.integers(0, 255)))
    try:
        times, fields, manifest = read_trajectory(io.BytesIO(bytes(blob)))
    except ContractViolationError:
        return
    assert len(times) == len(fields) == manifest["count"]


class TestTrajectorySerialization:
    def test_round_trip(self):
        grid = GridSpec(box_length=8.0, modes=32)
        cfg = SolverConfig(
            params=ModelParams(0.3, 0.8), grid=grid, dt=0.01, t_final=0.05,
            snapshot_stride=2,
        )
        traj = solve(smooth_data(grid, 0.5), cfg)
        buf = io.BytesIO()
        write_trajectory(buf, traj)
        buf.seek(0)
        times, fields, manifest = read_trajectory(buf)
        assert manifest["count"] == len(traj.states)
        assert manifest["params"] == {"epsilon": 0.3, "alpha": 0.8}
        assert np.allclose(times, traj.times)
        for field, state in zip(fields, traj.states):
            assert np.allclose(field.values, inverse_transform(state).values)

    @staticmethod
    def written(traj) -> bytes:
        buf = io.BytesIO()
        write_trajectory(buf, traj)
        return buf.getvalue()

    def test_layout_parses_without_kdvb(self):
        grid = GridSpec(box_length=8.0, modes=32)
        cfg = SolverConfig(ModelParams(0.3, 0.8), grid, dt=0.01, t_final=0.05, snapshot_stride=2)
        traj = solve(smooth_data(grid, 0.5), cfg)
        blob = self.written(traj)
        (size,) = struct.unpack_from("<I", blob, 0)
        manifest = json.loads(blob[4 : 4 + size])
        assert manifest == {
            "count": 4,
            "dt": 0.01,
            "snapshot_stride": 2,
            "params": {"epsilon": 0.3, "alpha": 0.8},
        }
        pos = 4 + size
        for t, expected in zip(traj.times, synthesize(traj.coeffs, grid.box_length)):
            assert blob[pos : pos + 8] == b"KDVBSNAP"
            (size,) = struct.unpack_from("<I", blob, pos + 8)
            header = json.loads(blob[pos + 12 : pos + 12 + size])
            assert header == {
                "box_length": 8.0,
                "modes": 32,
                "time": t,
                "epsilon": 0.3,
                "alpha": 0.8,
                "normalization": "unitary-l2",
            }
            pos += 12 + size
            values = np.frombuffer(blob[pos : pos + 8 * 32], dtype="<f8")
            assert values.tobytes() == expected.tobytes()
            pos += 8 * 32
        assert pos == len(blob)

    def test_bad_magic_and_truncation_are_contract_violations(self):
        grid = GridSpec(box_length=8.0, modes=32)
        cfg = SolverConfig(ModelParams(0.3, 0.8), grid, dt=0.01, t_final=0.02)
        blob = self.written(solve(smooth_data(grid, 0.5), cfg))
        magic_at = blob.index(b"KDVBSNAP")
        bad = blob[:magic_at] + b"NOTMAGIC" + blob[magic_at + 8 :]
        with pytest.raises(ContractViolationError, match="magic"):
            read_trajectory(io.BytesIO(bad))
        # cut inside the manifest's byte count, a snapshot header and the last values
        for cut in (2, magic_at + 14, len(blob) - 1):
            with pytest.raises(ContractViolationError, match="ends early"):
                read_trajectory(io.BytesIO(blob[:cut]))

    @staticmethod
    def framed(doc) -> bytes:
        blob = json.dumps(doc).encode()
        return struct.pack("<I", len(blob)) + blob

    BAD_MANIFESTS = [
        b"{not json",
        b"\xff\xfe",
        b"[3]",
        b'{"dt": 0.01}',
        b'{"count": 3.0}',
        b'{"count": "3"}',
        b'{"count": true}',
        b'{"count": -1}',
        # a Trajectory holds at least one snapshot, so no writer makes count 0
        b'{"count": 0}',
        # nested past the decoder's recursion limit
        pytest.param(b"[" * 100_000 + b"]" * 100_000, id="nested-too-deep"),
    ]
    BAD_HEADERS = [
        {"box_length": 8.0, "time": 0.0},
        {"box_length": 8.0, "modes": 16.0, "time": 0.0},
        {"box_length": 8.0, "modes": 16},
        {"box_length": "8", "modes": 16, "time": 0.0},
        {"box_length": 8.0, "modes": 7, "time": 0.0},
        {"box_length": -8.0, "modes": 16, "time": 0.0},
        # json writes and reads these as the literals NaN and Infinity
        pytest.param({"box_length": 8.0, "modes": 16, "time": float("nan")}, id="time-nan"),
        pytest.param({"box_length": 8.0, "modes": 16, "time": float("inf")}, id="time-inf"),
    ]

    @pytest.mark.parametrize("manifest", BAD_MANIFESTS)
    def test_bad_manifest_is_contract_violation(self, manifest):
        blob = mutation_base()
        (size,) = struct.unpack_from("<I", blob, 0)
        bad = struct.pack("<I", len(manifest)) + manifest + blob[4 + size :]
        with pytest.raises(ContractViolationError, match="manifest"):
            read_trajectory(io.BytesIO(bad))

    @pytest.mark.parametrize("header", BAD_HEADERS)
    def test_bad_header_is_contract_violation(self, header):
        blob = mutation_base()
        at = blob.index(b"KDVBSNAP") + 8
        (size,) = struct.unpack_from("<I", blob, at)
        bad = blob[:at] + self.framed(header) + blob[at + 4 + size :]
        with pytest.raises(ContractViolationError, match="header"):
            read_trajectory(io.BytesIO(bad))

    def test_bytes_after_the_last_record_are_contract_violation(self):
        with pytest.raises(ContractViolationError, match="after its last record"):
            read_trajectory(io.BytesIO(mutation_base() + b"\x00\x00"))

    def test_trajectory_invariants(self):
        grid = GridSpec(box_length=8.0, modes=32)
        cfg = SolverConfig(params=ModelParams(0.0, 1.0), grid=grid, dt=0.01, t_final=0.05)
        traj = solve(smooth_data(grid, 0.5), cfg)
        assert not traj.times.flags.writeable
        with pytest.raises(ContractViolationError, match="schedule's 6 snapshots"):
            Trajectory(traj.coeffs[:-1], cfg)

    # (dt, t_final, stride): 72 steps of an inexact dt at a stride that
    # divides them, two that do not, one equal to them and one past them
    SCHEDULES = [
        (0.01, 0.72, 8), (0.01, 0.72, 5), (0.01, 0.72, 7), (0.01, 0.72, 72),
        (0.01, 0.72, 100), (0.05, 0.3, 1), (0.0004, 8.0, 2500), (0.0005, 1.0, 10),
    ]

    @pytest.mark.parametrize("dt,t_final,stride", SCHEDULES)
    def test_times_are_the_config_schedule(self, dt, t_final, stride):
        # the rule written out on its own: every stride steps from 0, the last
        # at exactly t_final
        cfg = SolverConfig(ModelParams(0.0, 1.0), GridSpec(8.0, 16), dt, t_final, stride)
        stored = [*range(stride, cfg.steps, stride), cfg.steps]
        want = np.array([0.0, *(i * dt for i in stored[:-1]), t_final])
        times = Trajectory(np.zeros((len(want), 16), complex), cfg).times
        assert times.tobytes() == want.tobytes()
        assert cfg.snapshot_steps == [0, *stored]

    def test_states_are_rows_of_one_read_only_matrix(self):
        grid = GridSpec(box_length=8.0, modes=32)
        cfg = SolverConfig(params=ModelParams(0.3, 0.8), grid=grid, dt=0.01, t_final=0.05)
        traj = solve(smooth_data(grid, 0.5), cfg)
        assert traj.coeffs.shape == (len(traj.times), grid.modes)
        assert not traj.coeffs.flags.writeable
        for i, state in enumerate(traj.states):
            assert state.grid is grid
            assert np.array_equal(state.coeffs, traj.coeffs[i])
        source = np.array(traj.coeffs)
        copied = Trajectory(source, cfg)
        source[:] = 0.0
        assert np.array_equal(copied.coeffs, traj.coeffs)
        # a read-only matrix that owns its memory is taken without a copy
        assert Trajectory(traj.coeffs, cfg).coeffs is traj.coeffs
        assert traj.coeffs.base is None

    @pytest.mark.parametrize("shape", [(6, 30), (5, 32), (7, 32), (32,), (6, 32, 1)])
    def test_coeff_shape_must_match_times_and_modes(self, shape):
        grid = GridSpec(box_length=8.0, modes=32)
        cfg = SolverConfig(params=ModelParams(0.0, 1.0), grid=grid, dt=0.01, t_final=0.05)
        with pytest.raises(ContractViolationError, match="shape"):
            Trajectory(np.zeros(shape, complex), cfg)
