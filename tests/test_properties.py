"""Property tests of the solver's invariants on random band-limited data."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvb.evolve import SolverConfig, solve, step, zero_nonlinearity
from kdvb.propagator import ModelParams, propagate
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


params = st.builds(ModelParams, st.floats(0.0, 1.0), st.floats(0.05, 1.0))


@FIXED
@given(band_limited_fields(), params, st.floats(1e-4, 0.1))
def test_linear_step_is_propagator(phi, p, dt):
    u = dealias(forward_transform(phi))
    stepped = step(u, dt, p, nonlinearity=zero_nonlinearity).coeffs
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
