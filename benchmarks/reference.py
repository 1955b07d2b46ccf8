"""Fixed reference computations that gauge how fast the machine runs right
now, independent of kdvb.

The machine this benchmark was written on (a 2-core VM sharing its host)
changes speed by up to 2x for tens of seconds at a time, which moves every
wall time of a run by about the same factor; within a minute, runs of the
same code differed by 60% in raw pass time.  A short burst of fixed work
of the same kind as the workload, timed just before and after each
measurement, lets the measurement be rescaled to a fixed machine speed.

Two kinds of burst match the two kinds of kdvb work:

- ``spectral``: a pseudo-spectral ETDRK-like loop at M = 256, 384 and 512, with FFT
  pairs, elementwise products and a defensive-copy dataclass per call
  (the solver workloads);
- ``arrays``: outer index sums, a sort-based ``np.unique`` and a weighted
  ``bincount`` over 1.2e5 values, and elementwise powers (the sampled
  multiplier and sharpness calculus).

Nothing here imports kdvb, so no change to the package can change them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from numpy.fft import fft, fftfreq, ifft  # bound here, so tracing never wraps them

# Rescaled times read as seconds on a machine where one burst of the
# workload's kind takes this long (about its time on the 2-core Xeon VM the
# benchmark was written on, numpy 2.4.6).
NOMINAL_S = {"spectral": 0.04, "arrays": 0.04}


@dataclass(frozen=True, eq=False)
class _Field:
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128).copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)


def _lattice(m: int) -> np.ndarray:
    return fftfreq(m, d=1.0 / m).astype(np.int64)


def _quadratic(c: np.ndarray, m: int) -> np.ndarray:
    w = ifft(_Field(c).coeffs * m).real
    out = -0.2j * _lattice(m) * fft(w * w) / m
    return _Field(np.where(np.abs(_lattice(m)) <= m / 3, out, 0.0)).coeffs


def _spectral() -> None:
    for m, steps in ((256, 50), (384, 40), (512, 40)):
        _etd_loop(m, steps)


def _etd_loop(m: int, steps: int) -> None:
    k = _lattice(m)
    e = np.exp(1e-4j * k**3)
    c = np.where(np.abs(k) <= m / 3, np.exp(-0.01 * k * k) + 0j, 0.0)
    for _ in range(steps):
        n0 = _quadratic(c, m)
        a = e * c + 1e-4 * n0
        na = _quadratic(a, m)
        b = e * c + 1e-4 * na
        nb = _quadratic(b, m)
        nc = _quadratic(e * a + 1e-4 * (2 * nb - n0), m)
        c = e * c + 1e-4 * (n0 + 2 * (na + nb) + nc) / 6


def _arrays(rounds: int = 6, n: int = 350) -> None:
    i = np.arange(n)
    xi = (i * 7919) % 1009
    tau = (i * 104729) % 4099
    for r in range(rounds):
        g = (1.0 + xi) ** -0.75 * (1.0 + (tau - xi + r) ** 2.0) ** -0.25
        keys = ((xi[:, None] - xi[None, :]) * 8192 + (tau[:, None] - tau[None, :])).ravel()
        mass = (g[:, None] * g[None, :]).ravel()
        keep = np.abs(keys) % 3 != 0
        uniq, inverse = np.unique(keys[keep], return_inverse=True)
        cell = np.bincount(inverse, weights=mass[keep])
        np.sum((np.abs(uniq) ** 0.5 * cell) ** 2)


_KINDS = {"spectral": _spectral, "arrays": _arrays}


def burst(kind: str) -> float:
    """Wall seconds of one fixed reference computation of the given kind."""
    t0 = time.perf_counter()
    _KINDS[kind]()
    return time.perf_counter() - t0
