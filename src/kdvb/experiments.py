"""Headline numerics: inviscid limit, rate fit, scaling invariance, and
the uniform H1 bound, plus benchmark initial data.

The inviscid sweep solves the dissipative equation on a ladder of
epsilon values and measures the sup-in-time H^s distance to the
epsilon = 0 solution computed with the same grid and step, so the shared
discretization error largely cancels in the difference.  The reported
floor is the self-convergence error of the reference solve (dt versus
dt/2), the resolution-limited scale against which the smallest-epsilon
observable is judged.  The reference, the ladder and the dt/2 run are
stepped as one batch (see ``kdvb.evolve.solve_ladder``), as is the
ladder of the H1 bound; ``solve_batch`` prefixes a DivergenceError with
the epsilon of the run it names.

The scaling map u -> lam^2 u(lam x, lam^3 t) with epsilon ->
lam^(3-2a) epsilon is probed with lam = 2^-m by re-solving on a box
enlarged by 2^m at the same mode density; data transfers between the
two grids by exact Fourier-band embedding.
"""

from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np

from .errors import DivergenceError, ParameterError, ResolutionError
from .evolve import SolverConfig, Trajectory, solve, solve_ladder
from .norms import cumulative_trapezoid, spectral_energies
from .propagator import ModelParams
from .reports import SweepReport, fit_power_law
from .spectral import (
    GridSpec,
    RealField,
    SpectralField,
    forward_transform,
    inverse_transform,
    resize_band,
)


def critical_index(alpha: float) -> float:
    """The bilinear-estimate threshold: -3/4 for alpha <= 1/2, else
    -3/(5 - 2 alpha); continuous at the branch point."""
    if not 0 < alpha <= 1:
        raise ParameterError(f"alpha must lie in (0, 1], got {alpha}")
    if alpha <= 0.5:
        return -0.75
    return -3.0 / (5.0 - 2.0 * alpha)


def soliton_initial_data(c: float, x0: float, grid: GridSpec) -> RealField:
    """The traveling-wave profile (3c/2) sech^2(sqrt(c)/2 (x - x0)).

    Under the pure dispersive flow (epsilon = 0) this profile translates
    at speed c.  The box must be large enough that the profile has
    decayed below 1e-12 of its peak at the edges.
    """
    if not c > 0:
        raise ParameterError(f"soliton speed must be positive, got {c}")
    edge_decay = np.cosh(np.sqrt(c) / 2.0 * grid.box_length / 2.0) ** -2
    if edge_decay > 1e-12:
        raise ResolutionError(
            f"box_length {grid.box_length} too small for speed {c}: "
            f"edge amplitude {edge_decay:.2e} of peak exceeds 1e-12"
        )
    x = grid.collocation_points()
    y = x - x0
    y -= grid.box_length * np.round(y / grid.box_length)
    values = 1.5 * c / np.cosh(0.5 * np.sqrt(c) * y) ** 2
    return RealField(values, grid)


def gaussian_initial_data(
    grid: GridSpec, width: float, l2_norm: float = 1.0, modulation: float = 0.0
) -> RealField:
    """A centered Gaussian bump, optionally modulated, scaled to l2_norm."""
    if not width > 0:
        raise ParameterError(f"gaussian width must be positive, got {width}")
    if l2_norm < 0:
        raise ParameterError(f"l2_norm must be nonnegative, got {l2_norm}")
    x = grid.collocation_points() - grid.box_length / 2.0
    values = np.exp(-((x / width) ** 2))
    if modulation > 0:
        values = values * (1.0 + 0.5 * np.cos(modulation * x))
    current = np.sqrt(np.sum(values**2) * grid.box_length / grid.modes)
    return RealField(values * (l2_norm / current), grid)


def power_law_initial_data(
    grid: GridSpec,
    decay_exponent: float,
    l2_norm: float,
    seed: int,
) -> RealField:
    """Random-phase data with |coeff(xi)| proportional to <xi>^decay_exponent.

    decay_exponent = -1.51 puts the data just inside H^1.  The zero mode
    is left empty and the dealiased band is filled; the draw is fixed by
    the seed.
    """
    if l2_norm < 0:
        raise ParameterError(f"l2_norm must be nonnegative, got {l2_norm}")
    rng = np.random.default_rng(seed)
    xi = grid.wavenumbers()
    half = grid.modes // 2
    profile = (1.0 + xi**2) ** (decay_exponent / 2.0)
    phases = np.exp(2j * np.pi * rng.random(grid.modes))
    coeffs = profile * phases
    coeffs[0] = 0.0
    coeffs[half] = 0.0
    # impose Hermitian symmetry from the positive half
    coeffs[half + 1 :] = np.conj(coeffs[1:half][::-1])
    coeffs = np.where(grid.dealias_mask(), coeffs, 0.0)
    norm = np.linalg.norm(coeffs)
    field = SpectralField(coeffs * (l2_norm / norm), grid)
    return inverse_transform(field)


def sine_initial_data(grid: GridSpec, amplitude: float, wavenumber_index: int) -> RealField:
    """amplitude * sin(2 pi wavenumber_index x / L), for an index inside the
    dealiased band, since the solver zeroes every mode outside it."""
    cutoff = grid.dealias_fraction * grid.modes / 2.0
    if not abs(wavenumber_index) <= cutoff:
        raise ParameterError(
            f"wavenumber_index must lie in the dealiased band |k| <= {cutoff:.6g} "
            f"of {grid.modes} modes, got {wavenumber_index}"
        )
    x = grid.collocation_points()
    return RealField(
        amplitude * np.sin(2.0 * np.pi * wavenumber_index * x / grid.box_length), grid
    )


def _sup_distance(a: Trajectory, b: Trajectory, s: float) -> float:
    """sup over common snapshot times of || a(t) - b(t) ||_{H^s}."""
    if a.coeffs.shape != b.coeffs.shape:
        raise ParameterError("trajectories must share their snapshot schedule")
    weight = (1.0 + a.grid.wavenumbers() ** 2) ** s
    (energies,) = spectral_energies(a.coeffs - b.coeffs, weight)
    return float(np.sqrt(np.max(energies)))


def _sweep_configs(
    grid: GridSpec,
    epsilons: tuple[float, ...],
    alpha: float,
    dt: float,
    t_final: float,
    snapshot_stride: int,
) -> list[SolverConfig]:
    """One solver config per epsilon, sharing the rest."""
    return [
        SolverConfig(ModelParams(e, alpha), grid, dt, t_final, snapshot_stride)
        for e in epsilons
    ]


def solve_batch(phi: RealField, cfgs: Sequence[SolverConfig]) -> tuple[Trajectory, ...]:
    try:
        return solve_ladder(phi, cfgs)
    except DivergenceError as exc:
        exc.args = (f"epsilon = {cfgs[exc.run].params.epsilon}: {exc}",)
        raise


def inviscid_sweep(
    phi: RealField,
    alpha: float,
    eps_ladder: tuple[float, ...],
    t_final: float,
    s: float,
    dt: float,
    snapshot_stride: int = 1,
    seed: int = 0,
) -> SweepReport:
    """sup-in-time H^s distance to the KdV solution for each epsilon.

    eps_ladder must be decreasing in (0, 1]; every run, including the
    epsilon = 0 reference and its dt/2 floor companion, shares the grid.
    """
    ladder = tuple(float(e) for e in eps_ladder)
    if not ladder or any(not 0 < e <= 1 for e in ladder):
        raise ParameterError(f"eps_ladder must be non-empty in (0, 1], got {ladder}")
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ParameterError("eps_ladder must be strictly decreasing")
    if s > 0:
        raise ParameterError(f"sweep is defined for s <= 0, got {s}")

    grid = phi.grid
    # the dt/2 floor run rides on the same clock, storing every other tick
    cfgs = _sweep_configs(grid, (0.0,) + ladder, alpha, dt, t_final, snapshot_stride)
    cfgs += _sweep_configs(grid, (0.0,), alpha, dt / 2.0, t_final, 2 * snapshot_stride)
    reference, *runs, fine = solve_batch(phi, cfgs)
    observables = [
        {"epsilon": e, "observable": _sup_distance(traj, reference, s)}
        for e, traj in zip(ladder, runs)
    ]
    floor = _sup_distance(reference, fine, s)

    return SweepReport(
        parameter="epsilon",
        values=ladder,
        observables=tuple(observables),
        fit=None,
        seed=seed,
        meta={
            "alpha": alpha,
            "sobolev_s": s,
            "t_final": t_final,
            "dt": dt,
            "floor": floor,
            "grid": {"box_length": grid.box_length, "modes": grid.modes},
        },
    )


def rate_fit(report: SweepReport) -> float:
    """Least-squares slope of log observable against log epsilon.

    Warns (with the fit's r^2) when the observables are not monotone in
    epsilon, which makes the fitted rate unreliable.
    """
    eps = np.asarray(report.values, dtype=np.float64)
    obs = np.asarray([rec["observable"] for rec in report.observables])
    if len(obs) < 2 or np.any(obs <= 0):
        raise ParameterError("rate fit needs at least two strictly positive observables")
    fit = fit_power_law(eps, obs)
    diffs = np.diff(obs)
    if not (np.all(diffs >= 0) or np.all(diffs <= 0)):
        warnings.warn(
            f"observables not monotone in epsilon; fit r^2 = {fit['r_squared']:.4f}",
            stacklevel=2,
        )
    return fit["slope"]


def scaling_check(
    phi: RealField,
    params: ModelParams,
    lambda_exp: int,
    t_final: float,
    dt: float,
) -> float:
    """Relative L2 distance between the base solve and the pulled-back
    rescaled solve with lam = 2^-lambda_exp.

    The rescaled run uses box lam^-1 L with lam^-1 M modes, data
    lam^2 phi(lam x), dissipation lam^(3-2a) epsilon, horizon lam^-3 T,
    and step lam^-3 dt, then is compared after exact band restriction.
    Wavenumber m on the fine grid is xi_m / lam, so copying coefficients
    index by index realizes phi -> phi(lam x) exactly.
    """
    if lambda_exp < 0 or int(lambda_exp) != lambda_exp:
        raise ParameterError(f"lambda_exp must be a nonnegative integer, got {lambda_exp}")
    lam = 2.0**-lambda_exp
    grid = phi.grid
    factor = int(round(1.0 / lam))

    base_cfg = SolverConfig(
        params=params, grid=grid, dt=dt, t_final=t_final, snapshot_stride=10**9
    )
    base = solve(phi, base_cfg)

    fine_grid = GridSpec(
        box_length=grid.box_length * factor,
        modes=grid.modes * factor,
        dealias_fraction=grid.dealias_fraction,
    )
    if factor == 1:
        phi_scaled_real = phi
    else:
        # unitary coefficients scale by lam^2 * sqrt(1/lam) = lam^(3/2)
        embedded = resize_band(forward_transform(phi).coeffs, fine_grid.modes)
        phi_scaled_real = inverse_transform(SpectralField(embedded * lam**1.5, fine_grid))
    scaled_params = ModelParams(
        epsilon=params.epsilon * lam ** (3.0 - 2.0 * params.alpha),
        alpha=params.alpha,
    )
    scaled_cfg = SolverConfig(
        params=scaled_params,
        grid=fine_grid,
        dt=dt / lam**3,
        t_final=t_final / lam**3,
        snapshot_stride=10**9,
    )
    scaled = solve(phi_scaled_real, scaled_cfg)

    pulled_back = resize_band(scaled.coeffs[-1], grid.modes) * lam**-1.5
    target = base.coeffs[-1]
    defect = np.linalg.norm(pulled_back - target)
    return float(defect / np.linalg.norm(target))


def h1_bound_check(
    phi: RealField,
    alpha: float,
    eps_ladder: tuple[float, ...],
    t_final: float,
    dt: float,
    snapshot_stride: int = 1,
    seed: int = 0,
) -> SweepReport:
    """Per epsilon: sup_t ||u||_H1 + sqrt(eps) (int ||Lambda^(2a) u||^2)^(1/2).

    The time integral uses trapezoid quadrature over snapshots.  A
    uniform bound across the ladder is the expected behavior; the report
    carries the observables for the band check.
    """
    ladder = tuple(float(e) for e in eps_ladder)
    if not ladder or any(not 0 <= e <= 1 for e in ladder):
        raise ParameterError(f"eps_ladder must be non-empty in [0, 1], got {ladder}")
    xi = phi.grid.wavenumbers()
    # ||Lambda^(2 alpha) u||^2 = sum |xi|^(4 alpha) |coeff|^2
    weights = (1.0 + xi**2, np.abs(xi) ** (4.0 * alpha))
    observables = []
    trajs = solve_batch(phi, _sweep_configs(phi.grid, ladder, alpha, dt, t_final, snapshot_stride))
    for eps, traj in zip(ladder, trajs):
        h1_sq, rates = spectral_energies(traj.coeffs, *weights)
        sup_h1 = float(np.sqrt(np.max(h1_sq)))
        integral = float(cumulative_trapezoid(rates, traj.times)[-1])
        observables.append(
            {
                "epsilon": eps,
                "observable": float(sup_h1 + np.sqrt(eps * integral)),
                "sup_h1": sup_h1,
                "dissipation_integral": integral,
            }
        )
    return SweepReport(
        parameter="epsilon",
        values=ladder,
        observables=tuple(observables),
        fit=None,
        seed=seed,
        meta={"alpha": alpha, "t_final": t_final, "dt": dt},
    )
