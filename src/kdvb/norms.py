"""Sobolev and dyadic diagnostics, modulation norms, and energy ledgers.

Dyadic bands are the sharp, disjoint variant: band 0 is |xi| < 1 and band
k >= 1 is 2^(k-1) <= |xi| < 2^k, so the band energies satisfy Pythagoras
exactly on the lattice.  The same sharp bands grade the modulation
variable tau - xi^3 in the space-time norm.  Both band profiles,
``dyadic_profile`` and ``xk_norm_bands``, are arrays indexed by band.

Two ledgers track the solve: the quadratic ledger pairs (1/2)||u||^2 with
the accumulated dissipation epsilon * int ||Lambda^alpha u||^2, whose sum
is constant along exact solutions; the second records the functional
H[u] = int (u_x)^2 - (2/3) u^3 + u^2 dx.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolationError, ResolutionError
from .evolve import Trajectory
from .spectral import (
    GridSpec,
    SpectralField,
    dissipation_symbol,
    is_integer,
    resize_band,
    sobolev_weight,
    synthesize,
)


def _defect(half_l2: np.ndarray, dissipated: np.ndarray) -> np.ndarray:
    return half_l2 + dissipated - half_l2[0]


# Rows per block in spectral_energies: its |coeff|^2 and product
# temporaries then hold at most this many rows however long the
# trajectory, so they do not set a run's peak memory.
_BLOCK_ROWS = 64


def spectral_energies(coeffs: np.ndarray, *weights) -> list[np.ndarray]:
    """sum_k w(k) |coeff(k)|^2 over the last axis of coeffs (one value per
    snapshot row) for each weight w, with |coeff|^2 formed once per block
    of rows."""
    if coeffs.ndim > 1 and len(coeffs) > _BLOCK_ROWS:
        starts = range(0, len(coeffs), _BLOCK_ROWS)
        blocks = [spectral_energies(coeffs[i : i + _BLOCK_ROWS], *weights) for i in starts]
        return [np.concatenate(sums) for sums in zip(*blocks)]
    power = np.abs(coeffs) ** 2
    return [np.sum(w * power, axis=-1) for w in weights]


def cumulative_trapezoid(values: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Trapezoid-rule integrals of values from times[0] to each of times."""
    increments = 0.5 * (values[1:] + values[:-1]) * np.diff(times)
    return np.concatenate([[0.0], np.cumsum(increments)])


def sobolev_norm(u: SpectralField, s: float) -> float:
    """H^s norm (sum_k (1 + xi_k^2)^s |coeff(k)|^2)^(1/2)."""
    (energy,) = spectral_energies(u.coeffs, sobolev_weight(u.grid, s))
    return float(np.sqrt(energy))


def dyadic_band_indices(xi: np.ndarray) -> np.ndarray:
    """Sharp band index per wavenumber: 0 for |xi| < 1, else floor(log2|xi|) + 1."""
    axi = np.abs(xi)
    out = np.zeros(xi.shape, dtype=np.int64)
    big = axi >= 1.0
    out[big] = np.floor(np.log2(axi[big])).astype(np.int64) + 1
    return out


def dyadic_profile(u: SpectralField) -> np.ndarray:
    """The band norms ||P_k u|| over the sharp dyadic bands, entry k for
    band k up to the grid's highest; their squares sum to ||u||^2."""
    bands = dyadic_band_indices(u.grid.wavenumbers())
    return np.sqrt(np.bincount(bands, weights=np.abs(u.coeffs) ** 2))


def _taper(n: int) -> np.ndarray:
    """Raised-cosine taper over the first and last 10 percent of n samples."""
    w = np.ones(n)
    edge = max(1, int(round(0.1 * n)))
    ramp = 0.5 * (1.0 - np.cos(np.pi * (np.arange(edge) + 0.5) / edge))
    w[:edge] = ramp
    w[-edge:] = ramp[::-1]
    return w


def xk_norm_bands(traj: Trajectory, k: int, window: float) -> np.ndarray:
    """Weighted modulation bands of the band-k projected solution, whose
    sum is its discrete space-time modulation norm ``xk_norm``.

    The solution is restricted to the snapshots in [0, window], which its
    config spaces dt_snap = snapshot_stride * dt apart but for a shortened
    last interval (steps not a multiple of the stride), whose snapshot is
    dropped; at least 16 must remain.  They are tapered with a raised
    cosine on the outer 10 percent, band-projected in xi, and transformed
    in time.  Each space-time mode is graded by the sharp dyadic band of
    its modulation tau - xi^3 (reduced to the principal interval
    (-pi/dt_snap, pi/dt_snap], the maximal resolvable modulation).  Entry
    j is 2^(j/2) times the L2 norm of modulation band j; the array is empty
    when band k holds no mode of the grid.
    """
    if not (is_integer(k) and k >= 0):
        raise ContractViolationError(f"band index must be a nonnegative integer, got {k}")
    if not 0 < window <= traj.times[-1] * (1 + 1e-12):
        raise ResolutionError(
            f"window {window} must lie in (0, t_final = {traj.times[-1]}]"
        )
    cfg = traj.config
    n = int(np.count_nonzero(traj.times <= window * (1 + 1e-12)))
    if n == len(traj.times) and cfg.steps % cfg.snapshot_stride:
        n -= 1
    if n < 16:
        raise ResolutionError(f"only {n} uniform snapshots in window; need at least 16")
    dt_snap = cfg.snapshot_stride * cfg.dt

    xi = traj.grid.wavenumbers()
    band_mask = dyadic_band_indices(xi) == k
    coeffs = traj.coeffs[:n, band_mask]
    xi_band = xi[band_mask]

    tapered = coeffs * _taper(n)[:, None]
    # Time DFT: F(tau_m, xi) with tau_m = 2 pi m / (n dt_snap).
    f = np.fft.fft(tapered, axis=0) * dt_snap
    tau = 2.0 * np.pi * np.fft.fftfreq(n, d=dt_snap)

    tau_span = 2.0 * np.pi / dt_snap
    sigma = tau[:, None] - xi_band[None, :] ** 3
    sigma = (sigma + 0.5 * tau_span) % tau_span - 0.5 * tau_span

    bands = dyadic_band_indices(sigma.ravel())
    mass = (np.abs(f.ravel()) ** 2) * (tau_span / n)
    band_values = np.sqrt(np.bincount(bands, weights=mass))
    return (2.0 ** (0.5 * np.arange(len(band_values)))) * band_values


def xk_norm(traj: Trajectory, k: int, window: float) -> float:
    """The band-k modulation norm: the sum of ``xk_norm_bands``."""
    return float(np.sum(xk_norm_bands(traj, k, window)))


def _cubic_integral(coeffs: np.ndarray, grid: GridSpec) -> float:
    """int u^3 dx of one coefficient row on a 2x zero-padded grid."""
    m2 = 2 * grid.modes
    w = synthesize(resize_band(coeffs, m2), grid.box_length)
    return np.sum(w**3) * (grid.box_length / m2)


def hamiltonian(u: SpectralField) -> float:
    """H[u] = int (u_x)^2 - (2/3) u^3 + u^2 dx.

    The quadratic terms are summed spectrally; the cubic term is a
    collocation integral on a 2x zero-padded grid, exact for band-limited
    fields.
    """
    (quad,) = spectral_energies(u.coeffs, sobolev_weight(u.grid, 1.0))
    return float(quad - (2.0 / 3.0) * _cubic_integral(u.coeffs, u.grid))


def _quadratic_ledger(traj: Trajectory, *weights) -> list[np.ndarray]:
    """(1/2)||u||^2 and the accumulated dissipation per snapshot, then
    sum_k w(k) |coeff(k)|^2 for each further weight, in one pass of
    spectral_energies."""
    p = traj.params
    l2_sq, rates, *rest = spectral_energies(
        traj.coeffs, 1.0, dissipation_symbol(traj.grid, p.alpha), *weights
    )
    return [0.5 * l2_sq, cumulative_trapezoid(p.epsilon * rates, traj.times), *rest]


def build_energy_ledger(traj: Trajectory) -> dict:
    """Both ledgers along a trajectory, one array per snapshot series keyed
    by its ledger.csv column: t, half_l2_sq, dissipated, residual (the
    defect (1/2)||u||^2 + D(t) - (1/2)||phi||^2), hamiltonian, h1_norm.
    The quadratic part of H is the squared H^1 norm, so only the cubic term
    is taken row by row."""
    half_l2, dissipated, h1_sq = _quadratic_ledger(traj, sobolev_weight(traj.grid, 1.0))
    cubic = np.array([_cubic_integral(c, traj.grid) for c in traj.coeffs])
    return {
        "t": traj.times,
        "half_l2_sq": half_l2,
        "dissipated": dissipated,
        "residual": _defect(half_l2, dissipated),
        "hamiltonian": h1_sq - (2.0 / 3.0) * cubic,
        "h1_norm": np.sqrt(h1_sq),
    }


def l2_dissipation_residual(traj: Trajectory) -> float:
    """The maximal defect of traj's quadratic ledger, relative to
    (1/2)||phi||^2 (the absolute defect when phi vanishes): that of
    build_energy_ledger(traj)'s residual column, but evaluating neither H
    nor the H^1 norm."""
    half_l2, dissipated = _quadratic_ledger(traj)
    defect = float(np.max(np.abs(_defect(half_l2, dissipated))))
    return defect / half_l2[0] if half_l2[0] > 0 else defect
