"""Exact free semigroups of the linear flow as Fourier multipliers.

The dispersive factor exp(i xi^3 t) is the Airy group; with dissipation
the multiplier is exp(-epsilon |xi|^(2 alpha) |t| + i xi^3 t), defined for
every real t through the |t| extension.  On t >= 0 these operators form a
semigroup; across t = 0 the damping direction flips, so no composition
law is claimed for mixed-sign times unless epsilon = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .spectral import GridSpec, SpectralField, dissipation_symbol


@dataclass(frozen=True)
class ModelParams:
    """Dissipation strength epsilon and order alpha; epsilon = 0 is pure KdV."""

    epsilon: float
    alpha: float

    def __post_init__(self):
        if not 0 <= self.epsilon <= 1:
            raise ParameterError(f"epsilon must lie in [0, 1], got {self.epsilon}")
        if not 0 < self.alpha <= 1:
            raise ParameterError(f"alpha must lie in (0, 1], got {self.alpha}")


def linear_symbol(grid: GridSpec, p: ModelParams) -> np.ndarray:
    """The Fourier symbol i xi^3 - epsilon |xi|^(2 alpha) of the linear flow.

    xi^3 is formed as xi * xi * xi, which is exactly odd in xi (a vectorized
    power need not be), so the symbol is exactly conjugate-symmetric and
    the flow maps real fields to real fields to the last bit.
    """
    xi = grid.wavenumbers()
    return 1j * (xi * xi * xi) - p.epsilon * dissipation_symbol(grid, p.alpha)


def propagator_multiplier(grid: GridSpec, t: float, p: ModelParams) -> np.ndarray:
    """exp(-epsilon |xi|^(2 alpha) |t| + i xi^3 t) on the wavenumber lattice."""
    sym = linear_symbol(grid, p)
    return np.exp(sym.real * abs(t) + 1j * sym.imag * t)


def propagate(u: SpectralField, t: float, p: ModelParams) -> SpectralField:
    """Apply the free evolution for time t (any sign) exactly."""
    return SpectralField(u.coeffs * propagator_multiplier(u.grid, t, p), u.grid)


def semigroup_residual(
    u: SpectralField, t1: float, t2: float, p: ModelParams
) -> float:
    """Relative L2 distance between the composed and one-shot evolutions.

    For epsilon > 0 the |t| extension breaks the composition law across
    t = 0, so negative times are rejected; with epsilon = 0 the multiplier
    is a pure phase and any signs are admissible.
    """
    if p.epsilon > 0 and (t1 < 0 or t2 < 0):
        raise ParameterError(
            f"semigroup law requires t1, t2 >= 0 when epsilon > 0, got ({t1}, {t2})"
        )
    two_step = propagate(propagate(u, t1, p), t2, p)
    one_step = propagate(u, t1 + t2, p)
    defect = np.linalg.norm(two_step.coeffs - one_step.coeffs)
    norm = np.linalg.norm(u.coeffs)
    return float(defect / norm) if norm > 0 else float(defect)
