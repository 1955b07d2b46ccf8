"""Characteristic-function probes of the weighted bilinear estimate.

The probe data concentrates near the cubic characteristic surface
tau = xi^3, in a set that the scale N and alpha fix: for alpha <= 1/2

    A = { N <= xi <= N + 1,  N <= |tau - xi^3| <= 2N }

and for alpha >= 1/2

    B = { N <= xi <= N + N^(alpha - 1/2),
          N^(2 alpha) <= |tau - xi^3| <= 2 N^(2 alpha) },

which is A at alpha = 1/2.  A probe stores the set S alone: f = chi_S +
chi_(-S), so f is even and ||f||^2 = 2 |S|.  The functional convolves the
inner-weighted f with itself, applies the outer weight

    |xi| (1 + |xi|)^s (1 + |xi|^(2 alpha) + |tau - xi^3|)^(-1/2 + delta),

takes the L2 norm over the near-origin chunk of the convolution (the
third of the interaction rectangle away from the origin, where |xi| is
comparable to the set width), and divides by ||f||^2.  The growth rate
of this ratio in N changes sign at the critical exponent
s = -3/4 (alpha <= 1/2) or s = -3/(5 - 2 alpha) (alpha > 1/2), up to the
delta regularization.

Discretization: the spec alone fixes the lattice; no caller chooses it.
Cells live on the origin-aligned lattice (i d_xi, j d_tau) with
d_xi = w / CELLS_ACROSS_THIN and d_tau = h / CELLS_ACROSS_THIN, 16 cells
across the set width w and across the modulation height h, so the mirrored
set lands exactly on the lattice and pair sums of cell indices stay on it.
S is 17 xi-columns of at most 4h/d_tau + 1 = 65 rows, so the convolution
is one tau correlation per column pair in the near-origin window (about
170), not a sum over about 3e5 cell pairs; no array grows with N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, ParameterError, RangeError, ResolutionError
from .reports import fit_power_law, strictly_monotone

DELTA_DEFAULT = 0.01
CELLS_ACROSS_THIN = 16


@dataclass(frozen=True)
class CounterexampleSpec:
    """Scale and dissipation order of one probe, which fix its set, and the
    delta of the functional's outer weight."""

    scale_n: float
    alpha: float
    delta: float = DELTA_DEFAULT

    def __post_init__(self):
        if not 16 <= self.scale_n < math.inf:
            raise ParameterError(f"scale_n must be >= 16 and finite, got {self.scale_n}")
        if not 0 < self.alpha <= 1:
            raise ParameterError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not 0 < self.delta < 0.25:
            raise ParameterError(f"delta must be a small positive number, got {self.delta}")

    def set_width(self) -> float:
        """xi-extent of the set: 1 (A) or N^(alpha - 1/2) (B)."""
        return self.scale_n ** max(self.alpha - 0.5, 0.0)

    def modulation_height(self) -> float:
        """|tau - xi^3| slab height: N (A) or N^(2 alpha) (B)."""
        return self.scale_n ** max(2.0 * self.alpha, 1.0)

    def lattice_steps(self) -> tuple[float, float]:
        """(d_xi, d_tau): the set width and the modulation height, each cut
        into CELLS_ACROSS_THIN cells."""
        return (
            self.set_width() / CELLS_ACROSS_THIN,
            self.modulation_height() / CELLS_ACROSS_THIN,
        )


@dataclass(frozen=True, eq=False)
class CounterexampleFunction:
    """f = chi_S + chi_(-S), a {0, 1}-valued even function, stored as S.

    xi_idx and tau_idx, 1-D integer arrays of one length, list the lattice
    indices of every cell of S; -S is implied, not stored.
    """

    spec: CounterexampleSpec
    xi_idx: np.ndarray
    tau_idx: np.ndarray

    def __post_init__(self):
        pair = (self.xi_idx, self.tau_idx)
        flat = [isinstance(a, np.ndarray) and a.ndim == 1 and a.dtype.kind in "iu" for a in pair]
        if not (all(flat) and len(self.xi_idx) == len(self.tau_idx)):
            got = " and ".join(f"{np.asarray(a).dtype} of shape {np.shape(a)}" for a in pair)
            raise ContractViolationError(
                f"xi_idx and tau_idx must be 1-D integer arrays of one length, got {got}"
            )

    def l2_norm_sq(self) -> float:
        d_xi, d_tau = self.spec.lattice_steps()
        return 2 * len(self.xi_idx) * (d_xi * d_tau)


def build_counterexample(spec: CounterexampleSpec) -> CounterexampleFunction:
    """Rasterize the spec's set S on its lattice by cell-center membership.

    float64 resolves every tau lattice index only below 2**53; a scale_n
    whose outermost index, ((N + w)^3 + 2h) / d_tau, reaches that is a
    RangeError.  The bound is taken in logs, where the cube cannot overflow.
    """
    n = spec.scale_n
    try:
        w = spec.set_width()
        h = spec.modulation_height()
        d_xi, d_tau = spec.lattice_steps()
        log_index = np.logaddexp(3.0 * math.log(n + w), math.log(2.0 * h)) - math.log(d_tau)
    except OverflowError:  # N^(2 alpha) itself overflows, far past the bound
        log_index = math.inf
    if log_index >= 53.0 * math.log(2.0):
        raise RangeError(
            f"scale_n = {n:g} puts tau lattice indices at 2**53 or beyond, "
            "where float64 no longer resolves the lattice"
        )

    i_lo = int(np.ceil(n / d_xi))
    i_hi = int(np.floor((n + w) / d_xi))
    xi_cols = np.arange(i_lo, i_hi + 1)
    xi_vals = xi_cols * d_xi

    xi_list = []
    tau_list = []
    for i, xi in zip(xi_cols, xi_vals):
        center = xi**3
        for sign in (1.0, -1.0):
            lo = center + sign * h
            hi = center + sign * 2.0 * h
            j_lo = int(np.ceil(min(lo, hi) / d_tau))
            j_hi = int(np.floor(max(lo, hi) / d_tau))
            rows = np.arange(j_lo, j_hi + 1)
            xi_list.append(np.full(rows.shape, i))
            tau_list.append(rows)
    return CounterexampleFunction(spec, np.concatenate(xi_list), np.concatenate(tau_list))


def _modulation(xi: np.ndarray, tau: np.ndarray, alpha: float) -> np.ndarray:
    """y = |xi|^(2a) + |tau - xi^3|.  Without their (1 + |xi|)^(-+s) factors
    the inner weight is (1 + y^2)^(-1/4) and the outer |xi| (1 + y)^(-1/2 + delta)."""
    return np.abs(xi) ** (2.0 * alpha) + np.abs(tau - xi**3)


class _PairLattice:
    """The s-independent part of bilinear_functional for one probe f.

    The s-free inner weights of S fill a dense (column, row) array, each
    xi-column at its own row offset.  For each column pair (col_a, col_b)
    in the near-origin window, np.correlate of the two columns sums the
    S x (-S) cell pairs into their output cells (a cell of -S carries its
    image's weight: both weights are even).  These are all the pairs in the
    window when every cell of S has xi_idx > CELLS_ACROSS_THIN // 4: then
    no cell sits at xi = 0, and two cells of one sign sum past the window's
    edge, CELLS_ACROSS_THIN // 2.  A cell at xi_idx <= CELLS_ACROSS_THIN // 4
    is a ContractViolationError; then an S whose window is empty is a
    ResolutionError, and an S that lists a cell twice (f is {0, 1}-valued)
    a ContractViolationError.  inverse maps these (pair, mass) entries to
    the occupied cells xi_cells, tau_cells; ratio(s) weighs column pair
    (a, b) by ((1 + |xi_a|)(1 + |xi_b|))^(-s).
    """

    def __init__(self, f: CounterexampleFunction):
        self.f = f
        d_xi, d_tau = f.spec.lattice_steps()
        self.cell_area = d_xi * d_tau
        if np.any(f.xi_idx <= CELLS_ACROSS_THIN // 4):
            raise ContractViolationError(
                f"f has a cell at xi_idx <= {CELLS_ACROSS_THIN // 4}, where pairs of "
                "cells of one sign reach the near-origin window"
            )
        cols, col = np.unique(f.xi_idx, return_inverse=True)
        # the set width is CELLS_ACROSS_THIN columns
        offset = cols[:, None] - cols[None, :]
        gap = np.abs(offset)
        near = (gap >= CELLS_ACROSS_THIN // 6) & (gap <= CELLS_ACROSS_THIN // 2)
        if not np.any(near):
            raise ResolutionError("near-origin window is empty: f has too few xi-columns")
        self.col_a, self.col_b = np.nonzero(near)

        row0 = np.array([f.tau_idx[col == c].min() for c in range(len(cols))])
        row = f.tau_idx - row0[col]
        weight = np.zeros((len(cols), row.max() + 1))
        if np.bincount(col * weight.shape[1] + row).max() > 1:
            raise ContractViolationError("f is {0, 1}-valued: a cell is listed more than once")
        y = _modulation(f.xi_idx * d_xi, f.tau_idx * d_tau, f.spec.alpha)
        weight[col, row] = (1.0 + y**2) ** (-0.25)
        pairs = zip(self.col_a, self.col_b)
        mass = np.array([np.correlate(weight[a], weight[b], "full") for a, b in pairs])
        # positive weights, no cancellation: the nonzero entries are exactly
        # the output cells that some cell pair reaches
        self.pair, lag = np.nonzero(mass)
        self.mass = mass[self.pair, lag]
        self.xi_cols = cols * d_xi
        i_out = offset[self.col_a, self.col_b][self.pair]
        j_out = (row0[self.col_a] - row0[self.col_b])[self.pair] + lag - (weight.shape[1] - 1)

        i_min, j_min = i_out.min(), j_out.min()
        j_span = int(j_out.max() - j_min + 1)
        keys = (i_out - i_min).astype(np.int64) * j_span + (j_out - j_min)
        # np.unique, not a dense bincount over keys: the key span,
        # (i range) * j_span, reaches about 8e9 at N = 1e7
        uniq, self.inverse = np.unique(keys, return_inverse=True)
        self.xi_cells = (uniq // j_span + i_min) * d_xi
        self.tau_cells = (uniq % j_span + j_min) * d_tau
        y = _modulation(self.xi_cells, self.tau_cells, f.spec.alpha)
        self.outer = np.abs(self.xi_cells) * (1.0 + y) ** (-0.5 + f.spec.delta)

    def ratio(self, s_test: float) -> float:
        """bilinear_functional(f, s_test)."""
        # an |s_test| too large for float64 overflows to the RangeError below
        with np.errstate(over="ignore", invalid="ignore"):
            col_factor = (1.0 + self.xi_cols) ** (-s_test)
            pair_factor = (col_factor[self.col_a] * col_factor[self.col_b])[self.pair]
            cell_mass = np.bincount(self.inverse, weights=pair_factor * self.mass)

            conv_values = (2.0 * self.cell_area) * cell_mass
            weighted = (1.0 + np.abs(self.xi_cells)) ** s_test * self.outer * conv_values
            norm_sq = np.sum(weighted**2) * self.cell_area
        if not np.isfinite(norm_sq):
            raise RangeError("bilinear functional overflowed; reduce the scale ladder")
        return float(np.sqrt(norm_sq) / self.f.l2_norm_sq())


def bilinear_functional(f: CounterexampleFunction, s_test: float) -> float:
    """Ratio of the weighted near-origin convolution norm to ||f||^2 at the
    test exponent s_test; 0 for an f with no cells, a ContractViolationError
    for one with a cell at xi_idx <= CELLS_ACROSS_THIN // 4 (every set
    ``build_counterexample`` makes starts at column 64 or beyond) or with a
    cell listed twice, and a ResolutionError for one whose xi-columns give
    no pair in the window.

    The convolution is accumulated only over output cells with |xi|
    between one sixth and one half of the full interaction width, the
    away-from-origin third of the interaction rectangle.
    """
    if len(f.xi_idx) == 0:
        return 0.0
    return _PairLattice(f).ratio(s_test)


def exponent_sweep(
    alpha: float,
    s_list: tuple[float, ...],
    n_ladder: tuple[float, ...],
    delta: float = DELTA_DEFAULT,
) -> dict:
    """Fit the growth exponent of the bilinear ratio in N for each s and
    locate the slope sign change.

    Returns the record {"parameter": "s", "values": s_list, "observables":
    one record per s, "meta", "crossover_estimate"}.

    The crossover estimate interpolates the fitted slope linearly in s
    across the first sign change in increasing s: a positive slope then a
    zero or negative one, or a zero then a negative one.  meta["regime"]
    names the probe set alpha selects: low_alpha (A) for alpha <= 1/2,
    else high_alpha (B).
    """
    if not s_list:
        raise ParameterError("s_list must be non-empty")
    if not strictly_monotone(s_list):
        raise ParameterError(f"s_list must be strictly monotone, got {list(s_list)}")
    if len(n_ladder) < 4:
        raise ParameterError("n_ladder needs at least 4 dyadic points")
    if any(b <= a for a, b in zip(n_ladder, n_ladder[1:])):
        raise ParameterError("n_ladder must be strictly increasing")
    # every N's set first: a ladder past the tau-lattice bound fails
    # before any pair work
    functions = [build_counterexample(CounterexampleSpec(n, alpha, delta)) for n in n_ladder]
    ratios_by_n = []
    for f in functions:
        lattice = _PairLattice(f)
        ratios_by_n.append([lattice.ratio(s) for s in s_list])
        del lattice  # one lattice alive at a time: released before the next is built
    ratios_by_s = list(zip(*ratios_by_n))
    ns = np.asarray(n_ladder, dtype=np.float64)
    slopes = [fit_power_law(ns, ratios)["slope"] for ratios in ratios_by_s]

    crossover = None
    s_arr = np.asarray(s_list)
    order = np.argsort(s_arr)
    for lo, hi in zip(order[:-1], order[1:]):
        a, b = slopes[lo], slopes[hi]
        if a > 0 >= b or a >= 0 > b:
            crossover = s_arr[lo] + (s_arr[hi] - s_arr[lo]) * a / (a - b)
            break

    observables = [
        {"s": float(s), "slope": float(sl), "ratios": list(r), "n_ladder": list(ns)}
        for s, sl, r in zip(s_list, slopes, ratios_by_s)
    ]
    regime = "low_alpha" if alpha <= 0.5 else "high_alpha"
    return {
        "parameter": "s",
        "values": [float(s) for s in s_list],
        "observables": observables,
        "meta": {"alpha": alpha, "regime": regime, "delta": delta},
        "crossover_estimate": None if crossover is None else float(crossover),
    }
