"""Sobolev and dyadic diagnostics, modulation norms, and energy ledgers.

Dyadic bands are the sharp, disjoint variant: band 0 is |xi| < 1 and band
k >= 1 is 2^(k-1) <= |xi| < 2^k, so the band energies satisfy Pythagoras
exactly on the lattice.  The same sharp bands grade the modulation
variable tau - xi^3 in the space-time norm.

Two ledgers track the solve: the quadratic ledger pairs (1/2)||u||^2 with
the accumulated dissipation epsilon * int ||Lambda^alpha u||^2, whose sum
is constant along exact solutions; the second records the functional
H[u] = int (u_x)^2 - (2/3) u^3 + u^2 dx.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, ResolutionError
from .evolve import Trajectory
from .reports import format_csv
from .spectral import SpectralField, dissipation_symbol, resize_band


@dataclass(frozen=True, eq=False)
class DyadicProfile:
    """Per-band L2 energies ||P_k u|| over the sharp dyadic bands."""

    k_indices: np.ndarray
    band_energies: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.k_indices, dtype=np.int64)
        e = np.asarray(self.band_energies, dtype=np.float64)
        if k.shape != e.shape:
            raise ContractViolationError("band index and energy arrays differ in length")
        object.__setattr__(self, "k_indices", k)
        object.__setattr__(self, "band_energies", e)

    def total_energy_sq(self) -> float:
        return float(np.sum(self.band_energies**2))


@dataclass(frozen=True, eq=False)
class EnergyLedger:
    """Snapshot series of the quadratic ledger and the H functional."""

    times: np.ndarray
    l2_half_sq: np.ndarray
    dissipated: np.ndarray
    hamiltonian: np.ndarray
    h1_norms: np.ndarray

    def __post_init__(self):
        n = len(self.times)
        for name in ("l2_half_sq", "dissipated", "hamiltonian", "h1_norms"):
            if len(getattr(self, name)) != n:
                raise ContractViolationError(f"ledger column {name} has wrong length")
        if self.dissipated[0] != 0.0:
            raise ContractViolationError("dissipated must start at 0")
        if np.any(np.diff(self.dissipated) < 0):
            raise ContractViolationError("dissipated must be nondecreasing")

    def residuals(self) -> np.ndarray:
        """Ledger defect (1/2)||u||^2 + D(t) - (1/2)||phi||^2 per snapshot."""
        return self.l2_half_sq + self.dissipated - self.l2_half_sq[0]

    def relative_residual(self) -> float:
        """Maximal defect of the quadratic ledger, relative to (1/2)||phi||^2.

        Returns the absolute defect when the initial data vanishes.
        """
        defect = float(np.max(np.abs(self.residuals())))
        initial = self.l2_half_sq[0]
        return defect / initial if initial > 0 else defect


def sobolev_norm(u: SpectralField, s: float) -> float:
    """H^s norm (sum_k (1 + xi_k^2)^s |coeff(k)|^2)^(1/2)."""
    xi = u.grid.wavenumbers()
    weights = (1.0 + xi**2) ** s
    return float(np.sqrt(np.sum(weights * np.abs(u.coeffs) ** 2)))


def dyadic_band_indices(xi: np.ndarray) -> np.ndarray:
    """Sharp band index per wavenumber: 0 for |xi| < 1, else floor(log2|xi|) + 1."""
    axi = np.abs(xi)
    out = np.zeros(xi.shape, dtype=np.int64)
    big = axi >= 1.0
    out[big] = np.floor(np.log2(axi[big])).astype(np.int64) + 1
    return out


def dyadic_profile(u: SpectralField) -> DyadicProfile:
    """Decompose ||u||^2 across the sharp dyadic bands."""
    bands = dyadic_band_indices(u.grid.wavenumbers())
    n_bands = int(bands.max()) + 1
    energy_sq = np.bincount(bands, weights=np.abs(u.coeffs) ** 2, minlength=n_bands)
    return DyadicProfile(np.arange(n_bands), np.sqrt(energy_sq))


def _taper(n: int, edge_fraction: float = 0.1) -> np.ndarray:
    """Raised-cosine taper over the first and last edge_fraction of n samples."""
    w = np.ones(n)
    edge = max(1, int(round(edge_fraction * n)))
    ramp = 0.5 * (1.0 - np.cos(np.pi * (np.arange(edge) + 0.5) / edge))
    w[:edge] = ramp
    w[-edge:] = ramp[::-1]
    return w


@dataclass(frozen=True)
class XkReport:
    """Weighted modulation-band sum with its truncation bookkeeping."""

    value: float
    band_values: tuple[float, ...]
    max_resolved_modulation: float
    truncation_band: int


def xk_norm_report(traj: Trajectory, k: int, window: float) -> XkReport:
    """Discrete space-time modulation norm of the band-k projected solution.

    The solution is restricted to the snapshots in [0, window], tapered
    with a raised cosine on the outer 10 percent, band-projected in xi,
    and transformed in time.  Each space-time mode is graded by the sharp
    dyadic band of its modulation tau - xi^3 (reduced to the principal
    interval (-pi/dt, pi/dt], the maximal resolvable modulation), and the
    bands are summed with weights 2^(j/2).
    """
    if k < 0:
        raise ContractViolationError(f"band index must be nonnegative, got {k}")
    if window <= 0 or window > traj.times[-1] * (1 + 1e-12):
        raise ResolutionError(
            f"window {window} must lie in (0, t_final = {traj.times[-1]}]"
        )
    in_window = traj.times <= window * (1 + 1e-12)
    n = int(np.count_nonzero(in_window))
    if n < 16:
        raise ResolutionError(f"only {n} snapshots in window; need at least 16")
    times = traj.times[in_window]
    dt_snap = float(times[1] - times[0])
    gaps = np.diff(times)
    if np.max(np.abs(gaps - dt_snap)) > 1e-9 * dt_snap:
        # a shortened final interval is dropped; anything else is malformed
        if np.max(np.abs(gaps[:-1] - dt_snap)) > 1e-9 * dt_snap:
            raise ResolutionError("snapshots are not uniformly spaced in the window")
        n -= 1
        if n < 16:
            raise ResolutionError(f"only {n} uniform snapshots in window; need 16")
        times = times[:n]

    xi = traj.grid.wavenumbers()
    band_mask = dyadic_band_indices(xi) == k
    coeffs = traj.coeff_matrix()[:n][:, band_mask]
    xi_band = xi[band_mask]
    if coeffs.size == 0:
        return XkReport(0.0, (), np.pi / dt_snap, 0)

    tapered = coeffs * _taper(n)[:, None]
    # Time DFT: F(tau_m, xi) with tau_m = 2 pi m / (n dt_snap).
    f = np.fft.fft(tapered, axis=0) * dt_snap
    tau = 2.0 * np.pi * np.fft.fftfreq(n, d=dt_snap)

    tau_span = 2.0 * np.pi / dt_snap
    sigma = tau[:, None] - xi_band[None, :] ** 3
    sigma = (sigma + 0.5 * tau_span) % tau_span - 0.5 * tau_span

    bands = dyadic_band_indices(sigma.ravel())
    mass = (np.abs(f.ravel()) ** 2) * (tau_span / n)
    band_energy_sq = np.bincount(bands, weights=mass)
    band_values = np.sqrt(band_energy_sq)
    j = np.arange(len(band_values))
    weighted = (2.0 ** (0.5 * j)) * band_values
    max_sigma = 0.5 * tau_span
    return XkReport(
        value=float(np.sum(weighted)),
        band_values=tuple(float(v) for v in weighted),
        max_resolved_modulation=float(max_sigma),
        truncation_band=int(dyadic_band_indices(np.array([max_sigma]))[0]),
    )


def xk_norm(traj: Trajectory, k: int, window: float) -> float:
    """Scalar value of the band-k modulation norm (see xk_norm_report)."""
    return xk_norm_report(traj, k, window).value


def dissipation_rate(u: SpectralField, epsilon: float, alpha: float) -> float:
    """epsilon * ||Lambda^alpha u||^2 on the lattice."""
    sym = dissipation_symbol(u.grid, alpha)
    return float(epsilon * np.sum(sym * np.abs(u.coeffs) ** 2))


def hamiltonian(u: SpectralField) -> float:
    """H[u] = int (u_x)^2 - (2/3) u^3 + u^2 dx.

    The quadratic terms are summed spectrally; the cubic term is a
    collocation integral on a 2x zero-padded grid, exact for band-limited
    fields.
    """
    grid = u.grid
    xi = grid.wavenumbers()
    quad = np.sum((xi**2 + 1.0) * np.abs(u.coeffs) ** 2)

    m2 = 2 * grid.modes
    padded = resize_band(u.coeffs, m2)
    w = np.fft.ifft(padded * (m2 / np.sqrt(grid.box_length))).real
    cubic = np.sum(w**3) * (grid.box_length / m2)
    return float(quad - (2.0 / 3.0) * cubic)


def build_energy_ledger(traj: Trajectory) -> EnergyLedger:
    """Evaluate both ledgers along a trajectory, with trapezoid quadrature
    for the accumulated dissipation."""
    p = traj.params
    rates = np.array(
        [dissipation_rate(s, p.epsilon, p.alpha) for s in traj.states]
    )
    half_l2 = np.array([0.5 * s.l2_norm() ** 2 for s in traj.states])
    dissipated = np.concatenate(
        [[0.0], np.cumsum(0.5 * (rates[1:] + rates[:-1]) * np.diff(traj.times))]
    )
    ham = np.array([hamiltonian(s) for s in traj.states])
    h1 = np.array([sobolev_norm(s, 1.0) for s in traj.states])
    return EnergyLedger(traj.times, half_l2, dissipated, ham, h1)


def l2_dissipation_residual(traj: Trajectory) -> float:
    """The relative quadratic-ledger residual of traj (see
    EnergyLedger.relative_residual)."""
    return build_energy_ledger(traj).relative_residual()


def write_ledger_csv(stream: io.TextIOBase, ledger: EnergyLedger) -> None:
    """Emit the ledger as CSV with 17 significant digits per float."""
    columns = (
        ledger.times,
        ledger.l2_half_sq,
        ledger.dissipated,
        ledger.residuals(),
        ledger.hamiltonian,
        ledger.h1_norms,
    )
    stream.write(
        format_csv(
            ("t", "half_l2_sq", "dissipated", "residual", "hamiltonian", "h1_norm"),
            zip(*columns),
        )
    )
