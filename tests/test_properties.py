"""Property tests of the solver's invariants on random band-limited data."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from free_flow import free_flow
from kdvb.evolve import SolverConfig, solve, solve_ladder, step
from kdvb.experiments import scaling_check
from kdvb.norms import l2_dissipation_residual
from kdvb.propagator import ModelParams, linear_symbol, propagate, semigroup_residual
from kdvb.spectral import GridSpec, RealField, dealias, forward_transform, hermitian_residual

# fixed example sequence, no shared example database, no timing limit
FIXED = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def band_limited_fields(draw) -> RealField:
    """A real field whose spectrum is random up to a drawn band below 2/3 M/2."""
    modes = draw(st.sampled_from([16, 32, 64, 96, 128]))
    grid = GridSpec(box_length=draw(st.floats(2.0, 40.0)), modes=modes)
    band = draw(st.integers(1, modes // 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    half = np.zeros(modes // 2 + 1, dtype=np.complex128)
    half[: band + 1] = rng.standard_normal(band + 1) + 1j * rng.standard_normal(band + 1)
    values = np.fft.irfft(half, modes)
    amplitude = draw(st.floats(0.1, 2.0))
    return RealField(amplitude * values / np.max(np.abs(values)), grid)


@st.composite
def band_filling_fields(draw) -> RealField:
    """A real field with random coefficients at every mode of the dealiased band.

    96 is divisible by 3, so its 2/3 cutoff M/3 is itself a wavenumber,
    which the strict cutoff leaves out.
    """
    modes = draw(st.sampled_from([16, 32, 64, 96, 128]))
    grid = GridSpec(box_length=draw(st.floats(2.0, 40.0)), modes=modes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    band = grid.dealias_mask()[: modes // 2 + 1]
    half = np.where(band, rng.standard_normal(len(band)) + 1j * rng.standard_normal(len(band)), 0)
    values = np.fft.irfft(half, modes)
    amplitude = draw(st.floats(0.1, 2.0))
    return RealField(amplitude * values / np.max(np.abs(values)), grid)


params = st.builds(ModelParams, st.floats(0.0, 1.0), st.floats(0.05, 1.0))


@FIXED
@given(band_limited_fields(), params, st.floats(1e-4, 0.1))
def test_linear_step_is_propagator(phi, p, dt):
    u = dealias(forward_transform(phi))
    with free_flow():
        stepped = step(u, dt, p).coeffs
    exact = propagate(u, dt, p).coeffs
    atol = 1e-15 * np.max(np.abs(exact))
    assert np.allclose(stepped, exact, rtol=1e-14, atol=atol)


@FIXED
@given(band_limited_fields(), params, st.floats(1e-4, 1e-3))
def test_solve_keeps_states_exactly_hermitian(phi, p, dt):
    cfg = SolverConfig(params=p, grid=phi.grid, dt=dt, t_final=8 * dt, snapshot_stride=3)
    traj = solve(phi, cfg)
    for state in traj.states[1:]:
        assert np.all(np.isfinite(state.coeffs))
        assert hermitian_residual(state) == 0.0


@FIXED
@given(
    band_limited_fields(),
    st.lists(st.tuples(params, st.booleans(), st.integers(1, 4)), min_size=1, max_size=6),
    st.floats(1e-4, 1e-3),
    st.integers(1, 9),
)
def test_ladder_rows_equal_single_solves(phi, rows, dt, n_steps):
    # per row: params, a step of dt or dt/2, and a snapshot stride; t_final
    # is n_steps steps of dt
    cfgs = [
        SolverConfig(
            params=p,
            grid=phi.grid,
            dt=dt / 2 if halve else dt,
            t_final=n_steps * dt,
            snapshot_stride=stride,
        )
        for p, halve, stride in rows
    ]
    for traj, cfg in zip(solve_ladder(phi, cfgs), cfgs):
        single = solve(phi, cfg)
        assert np.array_equal(traj.times, single.times)
        assert np.array_equal(traj.coeffs, single.coeffs)


@FIXED
@given(band_limited_fields(), st.floats(0.05, 1.0), st.floats(1e-4, 0.1), st.integers(1, 4))
def test_quadratic_ledger_at_roundoff_for_free_flow(phi, alpha, dt, stride):
    # with epsilon = 0 and the quadratic term off, the flow is the unitary
    # propagator, so (1/2)||u||^2 + D(t) with D = 0 keeps its initial value
    cfg = SolverConfig(ModelParams(0.0, alpha), phi.grid, dt, 12 * dt, snapshot_stride=stride)
    with free_flow():
        traj = solve(phi, cfg)
    assert l2_dissipation_residual(traj) <= 1e-14


@FIXED
@given(band_limited_fields())
def test_parseval(phi):
    grid = phi.grid
    coeffs = forward_transform(phi).coeffs
    physical = (grid.box_length / grid.modes) * np.sum(phi.values**2)
    assert np.sum(np.abs(coeffs) ** 2) == pytest.approx(physical, rel=1e-14)


@FIXED
@given(band_limited_fields(), params, st.floats(0.0, 2.0), st.floats(0.0, 2.0))
def test_semigroup_law(phi, p, t1, t2):
    u = forward_transform(phi)
    # each mode's exponent L(xi) t is rounded in proportion to its size
    exponent = np.max(np.abs(linear_symbol(phi.grid, p))[np.abs(u.coeffs) > 0]) * (t1 + t2)
    assert semigroup_residual(u, t1, t2, p) <= 1e-15 * (1.0 + exponent)


@FIXED
@given(
    band_filling_fields(),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0, exclude_min=True),
    st.sampled_from([1, 2]),
    st.floats(1e-4, 1e-2),
    st.integers(1, 4),
)
def test_scaling_map(phi, eps, alpha, lambda_exp, dt, n_steps):
    # u -> lam^2 u(lam x, lam^3 t), epsilon -> lam^(3 - 2 alpha) epsilon maps
    # solutions to solutions; the two runs carry the same modes, so they
    # agree to roundoff: at most 6.9e-16 over 5,000 random examples
    cfg = SolverConfig(ModelParams(eps, alpha), phi.grid, dt, n_steps * dt)
    distance = scaling_check(phi, cfg, lambda_exp)
    assert distance <= 1e-14
