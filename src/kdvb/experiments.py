"""Headline numerics: the energy ledger check, inviscid limit and rate,
scaling invariance, and the uniform H1 bound, plus benchmark initial data.

Each driver takes the SolverConfig it sweeps, which holds the grid,
alpha, dt, t_final and snapshot stride.  A sweep runs it once per ladder
entry, with that epsilon in place of its own (``dataclasses.replace``);
``scaling_check`` solves it as given, then its rescaled image.

The inviscid sweep solves the dissipative equation on a ladder of
epsilon values and measures the sup-in-time H^s distance to the
epsilon = 0 solution computed with the same grid and step, so the shared
discretization error largely cancels in the difference.  The reported
floor is the self-convergence error of the reference solve (dt versus
dt/2), the resolution-limited scale against which the smallest-epsilon
observable is judged.  The reference, the ladder and the dt/2 run are
stepped as one batch (see ``kdvb.evolve.solve_ladder``), as are the H1
bound's ladder and the energy run with its dt/2 companion; a
DivergenceError names the run of its batch by epsilon and dt.

An error the initial data causes is an InitialDataError, which
``kdvb.cli`` names by the data's kind.

The scaling map u -> lam^2 u(lam x, lam^3 t) with epsilon ->
lam^(3-2a) epsilon is probed with lam = 2^-m by re-solving on a box
enlarged by 2^m at the same mode density; data transfers between the
two grids by exact Fourier-band embedding.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np

from .errors import InitialDataError, ParameterError, ResolutionError
from .evolve import SolverConfig, Trajectory, solve, solve_ladder
from .norms import (
    build_energy_ledger,
    cumulative_trapezoid,
    l2_dissipation_residual,
    spectral_energies,
)
from .propagator import ModelParams
from .reports import fit_power_law, strictly_monotone
from .spectral import (
    MAX_MODES,
    GridSpec,
    RealField,
    dissipation_symbol,
    forward_transform,
    is_integer,
    is_seed,
    resize_band,
    sobolev_weight,
    synthesize,
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
        raise InitialDataError(f"soliton speed must be positive, got {c}")
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
    grid: GridSpec, width: float, l2_norm: float, modulation: float = 0.0
) -> RealField:
    """A centered Gaussian bump times 1 + cos(m x)/2 (m = modulation,
    finite), scaled to l2_norm."""
    if not width > 0:
        raise InitialDataError(f"gaussian width must be positive, got {width}")
    if not 0 <= l2_norm < np.inf:
        raise InitialDataError(f"l2_norm must be nonnegative and finite, got {l2_norm}")
    if not np.isfinite(modulation):
        raise InitialDataError(f"gaussian modulation must be finite, got {modulation}")
    x = grid.collocation_points() - grid.box_length / 2.0
    values = np.exp(-((x / width) ** 2))
    if modulation != 0:
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
    the seed, an integer in [0, 2**64).
    """
    if not 0 <= l2_norm < np.inf:
        raise InitialDataError(f"l2_norm must be nonnegative and finite, got {l2_norm}")
    if not is_seed(seed):
        raise InitialDataError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    rng = np.random.default_rng(seed)
    half = grid.modes // 2
    profile = sobolev_weight(grid, decay_exponent / 2.0)
    phases = np.exp(2j * np.pi * rng.random(grid.modes))
    coeffs = profile * phases
    coeffs[0] = 0.0
    coeffs[half] = 0.0
    # impose Hermitian symmetry from the positive half
    coeffs[half + 1 :] = np.conj(coeffs[1:half][::-1])
    coeffs = np.where(grid.dealias_mask(), coeffs, 0.0)
    norm = np.linalg.norm(coeffs)
    if norm == 0:
        raise InitialDataError("the dealiased band holds no nonzero mode of <xi>^decay_exponent")
    return RealField(synthesize(coeffs * (l2_norm / norm), grid.box_length), grid)


def sine_initial_data(grid: GridSpec, amplitude: float, wavenumber_index: int) -> RealField:
    """amplitude * sin(2 pi wavenumber_index x / L), for an integer index
    (so the field is periodic) inside the dealiased band, since the solver
    zeroes every mode outside it."""
    if not is_integer(wavenumber_index):
        raise InitialDataError(f"wavenumber_index must be an integer, got {wavenumber_index!r}")
    cutoff = grid.dealias_fraction * grid.modes / 2.0
    if not abs(wavenumber_index) < cutoff:
        raise InitialDataError(
            f"wavenumber_index must lie in the dealiased band |k| < {cutoff:.6g} "
            f"of {grid.modes} modes, got {wavenumber_index}"
        )
    if not np.isfinite(amplitude):
        raise InitialDataError(f"sine amplitude must be finite, got {amplitude}")
    x = grid.collocation_points()
    return RealField(
        amplitude * np.sin(2.0 * np.pi * wavenumber_index * x / grid.box_length), grid
    )


def _sup_distance(a: Trajectory, b: Trajectory, s: float) -> float:
    """sup over common snapshot times of || a(t) - b(t) ||_{H^s}."""
    if a.coeffs.shape != b.coeffs.shape:
        raise ParameterError("trajectories must share their snapshot schedule")
    (energies,) = spectral_energies(a.coeffs - b.coeffs, sobolev_weight(a.grid, s))
    return float(np.sqrt(np.max(energies)))


def inviscid_sweep(
    phi: RealField, cfg: SolverConfig, eps_ladder: tuple[float, ...], s: float
) -> dict:
    """sup-in-time H^s distance to the KdV solution for each epsilon, as
    the record {"values": the ladder, "observables": one record per epsilon,
    "meta"}.

    Every run is cfg with its own epsilon (cfg's own epsilon is not used);
    eps_ladder must be decreasing in (0, 1].  The epsilon = 0 reference,
    the ladder and the reference's dt/2 floor companion share the grid.
    """
    ladder = tuple(float(e) for e in eps_ladder)
    if not ladder or any(not 0 < e <= 1 for e in ladder):
        raise ParameterError(f"eps_ladder must be non-empty in (0, 1], got {ladder}")
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ParameterError("eps_ladder must be strictly decreasing")
    if not -np.inf < s <= 0:
        raise ParameterError(f"sweep is defined for finite s <= 0, got {s}")

    cfgs = [replace(cfg, params=ModelParams(e, cfg.params.alpha)) for e in (0.0,) + ladder]
    # the dt/2 floor run rides on the same clock, storing every other tick
    cfgs.append(replace(cfgs[0], dt=cfg.dt / 2.0, snapshot_stride=2 * cfg.snapshot_stride))
    reference, *runs, fine = solve_ladder(phi, cfgs)
    observables = [
        {"epsilon": e, "observable": _sup_distance(traj, reference, s)}
        for e, traj in zip(ladder, runs)
    ]
    floor = _sup_distance(reference, fine, s)

    return {
        "values": list(ladder),
        "observables": observables,
        "meta": {
            "alpha": cfg.params.alpha,
            "sobolev_s": s,
            "t_final": cfg.t_final,
            "dt": cfg.dt,
            "floor": floor,
            "grid": {"box_length": cfg.grid.box_length, "modes": cfg.grid.modes},
        },
    }


def rate_fit(report: dict) -> float:
    """Least-squares slope of log observable against log epsilon over a
    sweep record's values and observables.

    Warns (with the fit's r^2) when the observables are not monotone in
    epsilon, which makes the fitted rate unreliable.
    """
    eps = np.asarray(report["values"], dtype=np.float64)
    obs = np.asarray([rec["observable"] for rec in report["observables"]])
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


def rate_check(phi: RealField, cfg: SolverConfig, eps_ladder: tuple[float, ...], s: float) -> dict:
    """``inviscid_sweep``'s record plus "rate_slope", its ``rate_fit``; fewer
    than two epsilons is a ParameterError raised before any solve."""
    if len(eps_ladder) < 2:
        raise ParameterError(f"rate needs at least two epsilons, got {list(eps_ladder)}")
    report = inviscid_sweep(phi, cfg, eps_ladder, s)
    return {**report, "rate_slope": rate_fit(report)}


def scaling_check(phi: RealField, cfg: SolverConfig, lambda_exp: int) -> float:
    """Relative L2 distance between the base solve, cfg from phi, and the
    pulled-back rescaled solve with lam = 2^-lambda_exp.

    Both runs store only their final state.  The rescaled run uses box
    lam^-1 L with lam^-1 M modes, data lam^2 phi(lam x), dissipation
    lam^(3-2a) epsilon, horizon lam^-3 T, and step lam^-3 dt, then is
    compared after exact band restriction.
    Wavenumber m on the fine grid is xi_m / lam, so copying coefficients
    index by index realizes phi -> phi(lam x) exactly.  The fine grid is
    dealiased at lam times the base fraction, which keeps the same
    indices |m| < dealias_fraction M / 2 (exactly, lam being a power of
    2), so both runs carry the same modes and differ only by roundoff.

    A lambda_exp that is not an integer (a bool is not one) with
    modes * 2**lambda_exp <= MAX_MODES is a ParameterError raised before
    the base solve; data whose base solve ends at norm 0 is an InitialDataError.
    """
    grid, params = cfg.grid, cfg.params
    # in integers, since 2**lambda_exp may be vast
    max_exp = (MAX_MODES // grid.modes).bit_length() - 1
    if not (is_integer(lambda_exp) and 0 <= lambda_exp <= max_exp):
        raise ParameterError(
            f"lambda_exp must be an integer in [0, {max_exp}], so that the rescaled grid's "
            f"modes * 2**lambda_exp stays within MAX_MODES = {MAX_MODES}, got {lambda_exp!r}"
        )
    factor = 2**lambda_exp
    lam = 1.0 / factor

    base = solve(phi, replace(cfg, snapshot_stride=10**9))
    target = base.coeffs[-1]
    target_norm = np.linalg.norm(target)
    if target_norm == 0.0:
        raise InitialDataError("scaling_check needs non-zero data: the base solve ends at norm 0")

    fine_grid = GridSpec(
        box_length=grid.box_length * factor,
        modes=grid.modes * factor,
        dealias_fraction=grid.dealias_fraction * lam,
    )
    if factor == 1:
        phi_scaled_real = phi
    else:
        # unitary coefficients scale by lam^2 * sqrt(1/lam) = lam^(3/2)
        embedded = resize_band(forward_transform(phi).coeffs, fine_grid.modes) * lam**1.5
        phi_scaled_real = RealField(synthesize(embedded, fine_grid.box_length), fine_grid)
    scaled_params = ModelParams(params.epsilon * lam ** (3.0 - 2.0 * params.alpha), params.alpha)
    scaled_cfg = SolverConfig(
        scaled_params, fine_grid, cfg.dt / lam**3, cfg.t_final / lam**3, snapshot_stride=10**9
    )
    scaled = solve(phi_scaled_real, scaled_cfg)

    pulled_back = resize_band(scaled.coeffs[-1], grid.modes) * lam**-1.5
    defect = np.linalg.norm(pulled_back - target)
    return float(defect / target_norm)


def h1_bound_check(
    phi: RealField, cfg: SolverConfig, eps_ladder: tuple[float, ...]
) -> dict:
    """Per epsilon: sup_t ||u||_H1 + sqrt(eps) (int ||Lambda^(2a) u||^2)^(1/2).

    Every run is cfg with its own epsilon (cfg's own epsilon is not used);
    eps_ladder must be strictly monotone in [0, 1].  The time integral
    uses trapezoid quadrature over snapshots.  A uniform bound across the
    ladder is the expected behavior; the record, shaped as
    ``inviscid_sweep``'s, adds "band_ratio", max over min of the
    observables, and data that gives an observable 0 is an InitialDataError.
    """
    ladder = tuple(float(e) for e in eps_ladder)
    if not ladder or any(not 0 <= e <= 1 for e in ladder):
        raise ParameterError(f"eps_ladder must be non-empty in [0, 1], got {ladder}")
    if not strictly_monotone(ladder):
        raise ParameterError(f"eps_ladder must be strictly monotone, got {list(ladder)}")
    alpha = cfg.params.alpha
    # ||Lambda^(2 alpha) u||^2 = sum |xi|^(4 alpha) |coeff|^2
    weights = (sobolev_weight(cfg.grid, 1.0), dissipation_symbol(cfg.grid, alpha) ** 2)
    observables = []
    trajs = solve_ladder(phi, [replace(cfg, params=ModelParams(e, alpha)) for e in ladder])
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
    obs = [rec["observable"] for rec in observables]
    if min(obs) == 0.0:
        raise InitialDataError(
            f"h1-bound needs non-zero data: observable 0 at epsilon = "
            f"{ladder[obs.index(0.0)]:g}, so the band ratio is undefined"
        )
    return {
        "values": list(ladder),
        "observables": observables,
        "band_ratio": max(obs) / min(obs),
        "meta": {"alpha": alpha, "t_final": cfg.t_final, "dt": cfg.dt},
    }


def energy_check(phi: RealField, cfg: SolverConfig, refine_check: bool) -> dict:
    """The record {"ledger": build_energy_ledger's columns, "ledger_residual"}
    of cfg solved from phi.  refine_check adds cfg at dt/2, stepped on the
    same clock: its "ledger_residual_refined" and the "refinement_factor",
    the base residual over the refined one."""
    cfgs = [cfg, replace(cfg, dt=cfg.dt / 2)] if refine_check else [cfg]
    base, *refined = solve_ladder(phi, cfgs)
    residual = l2_dissipation_residual(base)
    record = {"ledger": build_energy_ledger(base), "ledger_residual": residual}
    if refined:
        fine = l2_dissipation_residual(refined[0])
        record.update(ledger_residual_refined=fine, refinement_factor=residual / max(fine, 1e-300))
    return record
