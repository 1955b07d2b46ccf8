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

Differentiation multiplies coeff(k) by (i xi_k)^order and the fractional
dissipation symbol multiplies by |xi_k|^(2 alpha) with the zero mode
mapped to 0, so the mean of the field is untouched by dissipation.
"""

from __future__ import annotations

import io
import json
import math
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, ParameterError

SNAPSHOT_MAGIC = b"KDVBSNAP"
NORMALIZATION = "unitary-l2"
# Largest lattice a GridSpec accepts: one complex field of this size is
# 16 MiB, so a mistyped mode count fails by name instead of in allocation.
MAX_MODES = 2**20
# Largest wavenumber whose cube, the dispersive symbol, is a finite float.
_MAX_WAVENUMBER = sys.float_info.max ** (1 / 3)


@dataclass(frozen=True)
class GridSpec:
    """Periodic spatial box and its discrete wavenumber lattice; grids
    compare by value."""

    box_length: float
    modes: int
    dealias_fraction: float = 2.0 / 3.0

    def __post_init__(self):
        if not 0 < self.box_length < math.inf:
            raise ParameterError(
                f"box_length must be positive and finite, got {self.box_length}"
            )
        if not 8 <= self.modes <= MAX_MODES or self.modes % 2 != 0:
            raise ParameterError(
                f"modes must be even, >= 8 and <= {MAX_MODES}, got {self.modes}"
            )
        if not math.pi * self.modes / self.box_length <= _MAX_WAVENUMBER:
            raise ParameterError(
                f"box_length {self.box_length} puts the largest wavenumber pi M / L "
                f"past {_MAX_WAVENUMBER:.6g}, where its cube overflows"
            )
        if not 0 < self.dealias_fraction <= 1:
            raise ParameterError(
                f"dealias_fraction must lie in (0, 1], got {self.dealias_fraction}"
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

    def dealias_mask(self) -> np.ndarray:
        """Boolean mask keeping |k| <= dealias_fraction * M / 2."""
        cutoff = self.dealias_fraction * self.modes / 2.0
        return np.abs(self.integer_wavenumbers()) <= cutoff


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


def spatial_derivative(u: SpectralField, order: int) -> SpectralField:
    """Differentiate order times: coeff(k) -> (i xi_k)^order coeff(k)."""
    if order not in (1, 2, 3):
        raise ParameterError(f"derivative order must be 1, 2, or 3, got {order}")
    symbol = (1j * u.grid.wavenumbers()) ** order
    return SpectralField(u.coeffs * symbol, u.grid)


def dissipation_symbol(grid: GridSpec, alpha: float) -> np.ndarray:
    """The multiplier |xi|^(2 alpha) with the zero mode mapped to 0."""
    if not 0 < alpha <= 1:
        raise ParameterError(f"alpha must lie in (0, 1], got {alpha}")
    xi = grid.wavenumbers()
    out = np.zeros_like(xi)
    nonzero = xi != 0
    out[nonzero] = np.abs(xi[nonzero]) ** (2.0 * alpha)
    return out


def fractional_dissipation(u: SpectralField, alpha: float) -> SpectralField:
    """Apply the fractional dissipation symbol |xi|^(2 alpha)."""
    return SpectralField(u.coeffs * dissipation_symbol(u.grid, alpha), u.grid)


def dealias(u: SpectralField) -> SpectralField:
    """Zero every coefficient with |k| > dealias_fraction * M / 2."""
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


# ---------------------------------------------------------------------------
# Snapshot binary format
#
# Layout: 8-byte magic "KDVBSNAP", a little-endian uint32 header length,
# a JSON header {box_length, modes, time, epsilon, alpha, normalization},
# then M little-endian float64 collocation values.
# ---------------------------------------------------------------------------


def write_snapshot(
    stream: io.BufferedIOBase,
    field: RealField,
    time: float,
    epsilon: float,
    alpha: float,
) -> None:
    """Append one snapshot record to a binary stream."""
    header = {
        "box_length": field.grid.box_length,
        "modes": field.grid.modes,
        "time": time,
        "epsilon": epsilon,
        "alpha": alpha,
        "normalization": NORMALIZATION,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    stream.write(SNAPSHOT_MAGIC)
    stream.write(struct.pack("<I", len(blob)))
    stream.write(blob)
    stream.write(np.asarray(field.values, dtype="<f8").tobytes())


def read_snapshot(stream: io.BufferedIOBase) -> tuple[RealField, dict]:
    """Read one snapshot record; returns the field and its header dict."""
    magic = stream.read(len(SNAPSHOT_MAGIC))
    if magic != SNAPSHOT_MAGIC:
        raise ContractViolationError(f"bad snapshot magic {magic!r}")
    (hlen,) = struct.unpack("<I", stream.read(4))
    header = json.loads(stream.read(hlen).decode("utf-8"))
    modes = int(header["modes"])
    values = np.frombuffer(stream.read(8 * modes), dtype="<f8").copy()
    grid = GridSpec(box_length=float(header["box_length"]), modes=modes)
    return RealField(values, grid), header
