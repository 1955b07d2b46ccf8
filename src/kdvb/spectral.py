"""Periodic-box spectral core: grids, transforms, symbols, dealiasing.

A real field u on the box [0, L) is sampled at M collocation points
x_j = j L / M and represented by complex Fourier coefficients on the
integer wavenumber lattice k in {-M/2, ..., M/2 - 1} with physical
wavenumbers xi_k = 2 pi k / L (stored in FFT order).

Normalization is unitary in L2: with

    coeff(k) = (sqrt(L) / M) * sum_j u(x_j) exp(-i xi_k x_j),

Parseval holds without stray factors,

    sum_k |coeff(k)|^2 = (L / M) sum_j |u(x_j)|^2 = int |u|^2 dx,

the latter equality being the exact trapezoid quadrature on the periodic
grid.  The DC coefficient of the constant field 1 is sqrt(L).

A derivative is the multiplier i xi_k, and the fractional dissipation
symbol (``dissipation_symbol``) is |xi_k|^(2 alpha) with the zero mode
mapped to 0, so the mean of the field is untouched by dissipation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, ParameterError

# Largest lattice a GridSpec accepts: one complex field of this size is
# 16 MiB, so a mistyped mode count fails by name instead of in allocation.
MAX_MODES = 2**20
# Largest wavenumber whose cube, the dispersive symbol, is a finite float.
_MAX_WAVENUMBER = sys.float_info.max ** (1 / 3)


def is_integer(value) -> bool:
    """True for an int or a numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_number(value) -> bool:
    """True for an integer (as ``is_integer``) or a float, numpy's
    included; a string is not one."""
    return is_integer(value) or isinstance(value, (float, np.floating))


def is_seed(value) -> bool:
    """True for an integer (as ``is_integer``) in [0, 2**64), the seeds a
    run takes."""
    return is_integer(value) and 0 <= value < 2**64


@dataclass(frozen=True)
class GridSpec:
    """Periodic spatial box and its discrete wavenumber lattice; grids
    compare by value.  modes must be an even integer (an int or a numpy
    integer) in [8, MAX_MODES]; anything else, 32.0 included, is a
    ParameterError."""

    box_length: float
    modes: int

    def __post_init__(self):
        if not 0 < self.box_length < math.inf:
            raise ParameterError(
                f"box_length must be positive and finite, got {self.box_length}"
            )
        if not (is_integer(self.modes) and 8 <= self.modes <= MAX_MODES and self.modes % 2 == 0):
            raise ParameterError(
                f"modes must be an even integer, >= 8 and <= {MAX_MODES}, got {self.modes}"
            )
        if not math.pi * self.modes / self.box_length <= _MAX_WAVENUMBER:
            raise ParameterError(
                f"box_length {self.box_length} puts the largest wavenumber pi M / L "
                f"past {_MAX_WAVENUMBER:.6g}, where its cube overflows"
            )

    def collocation_points(self) -> np.ndarray:
        """Grid points x_j = j L / M, j = 0..M-1."""
        return np.arange(self.modes) * (self.box_length / self.modes)

    def integer_wavenumbers(self) -> np.ndarray:
        """Integer lattice k in FFT order: 0, 1, ..., M/2-1, -M/2, ..., -1."""
        return np.fft.fftfreq(self.modes, d=1.0 / self.modes).astype(np.int64)

    def wavenumbers(self) -> np.ndarray:
        """Physical wavenumbers xi_k = 2 pi k / L in FFT order."""
        return (2.0 * np.pi / self.box_length) * self.integer_wavenumbers()

    @property
    def dealias_cutoff(self) -> float:
        """M / 3, the cutoff of every grid's one dealiasing rule: the strict
        2/3 rule keeps |k| < M / 3, so at M divisible by 3 it drops the
        aliasing edge modes +-M/3."""
        return self.modes / 3.0

    def dealias_mask(self) -> np.ndarray:
        """Boolean mask of the kept modes, |k| < ``dealias_cutoff``."""
        return np.abs(self.integer_wavenumbers()) < self.dealias_cutoff


@dataclass(frozen=True, eq=False)
class RealField:
    """Collocation samples of a real-valued field on a grid."""

    values: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (self.grid.modes,):
            raise ContractViolationError(
                f"field length {values.shape} does not match grid modes {self.grid.modes}"
            )
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Fourier coefficients of a field, indexed by wavenumber in FFT order.

    Fields obtained from ``forward_transform`` of a real field satisfy the
    Hermitian symmetry coeff(-k) = conj(coeff(k)); every operation in this
    module preserves it.  Diagnostic fields may be constructed directly
    from arbitrary coefficients, so the symmetry is checkable via
    ``hermitian_residual`` rather than enforced at construction.
    """

    coeffs: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if coeffs.shape != (self.grid.modes,):
            raise ContractViolationError(
                f"coefficient length {coeffs.shape} does not match grid modes {self.grid.modes}"
            )
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    def l2_norm(self) -> float:
        """L2 norm of the field, sqrt(sum |coeff|^2)."""
        return float(np.linalg.norm(self.coeffs))


def forward_transform(f: RealField) -> SpectralField:
    """Forward discrete Fourier transform in the unitary-L2 convention."""
    scale = np.sqrt(f.grid.box_length) / f.grid.modes
    return SpectralField(np.fft.fft(f.values) * scale, f.grid)


def inverse_transform(u: SpectralField) -> RealField:
    """Inverse transform back to collocation samples.

    The imaginary part of the inverse FFT is discarded; it is at roundoff
    level for Hermitian-symmetric input.
    """
    return RealField(synthesize(u.coeffs, u.grid.box_length), u.grid)


def synthesize(coeffs: np.ndarray, box_length: float) -> np.ndarray:
    """Real parts of the collocation values of FFT-order coefficients on a
    box of length box_length, transformed along the last axis, so every
    row of a coefficient matrix at once."""
    return np.fft.ifft(coeffs * (coeffs.shape[-1] / np.sqrt(box_length))).real


def sobolev_weight(grid: GridSpec, s: float) -> np.ndarray:
    """The H^s weight <xi>^(2 s) = (1 + xi^2)^s."""
    return (1.0 + grid.wavenumbers() ** 2) ** s


def dissipation_symbol(grid: GridSpec, alpha: float) -> np.ndarray:
    """The multiplier |xi|^(2 alpha) with the zero mode mapped to 0."""
    if not 0 < alpha <= 1:
        raise ParameterError(f"alpha must lie in (0, 1], got {alpha}")
    xi = grid.wavenumbers()
    out = np.zeros_like(xi)
    nonzero = xi != 0
    out[nonzero] = np.abs(xi[nonzero]) ** (2.0 * alpha)
    return out


def dealias(u: SpectralField) -> SpectralField:
    """Zero every coefficient with |k| >= M / 3 (``GridSpec.dealias_mask``)."""
    return SpectralField(np.where(u.grid.dealias_mask(), u.coeffs, 0.0), u.grid)


def resize_band(coeffs: np.ndarray, modes: int) -> np.ndarray:
    """Copy FFT-order coefficients index by index into a lattice of
    ``modes`` entries: zero-padded above the band when growing, truncated
    to the low band when shrinking."""
    half = min(len(coeffs), modes) // 2
    out = np.zeros(modes, dtype=np.complex128)
    out[:half] = coeffs[:half]
    out[modes - half :] = coeffs[len(coeffs) - half :]
    return out


def hermitian_residual(u: SpectralField) -> float:
    """Relative deviation from coeff(-k) = conj(coeff(k)).

    The unpaired Nyquist mode -M/2 contributes through its imaginary part
    (it must be real for a real field).  Returns an absolute value when
    the field is zero.
    """
    c = u.coeffs
    mirrored = np.conj(c[(-np.arange(u.grid.modes)) % u.grid.modes])
    nyq = u.grid.modes // 2
    mirrored[nyq] = np.conj(c[nyq])
    defect = np.linalg.norm(c - mirrored) + abs(c[nyq].imag)
    norm = np.linalg.norm(c)
    return float(defect / norm) if norm > 0 else float(defect)

