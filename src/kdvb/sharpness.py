"""Characteristic-function probes of the weighted bilinear estimate.

The probe data concentrates near the cubic characteristic surface
tau = xi^3.  In the low-order regime (alpha <= 1/2) the set is

    A = { N <= xi <= N + 1,  N <= |tau - xi^3| <= 2N }

and in the high-order regime (alpha >= 1/2)

    B = { N <= xi <= N + N^(alpha - 1/2),
          N^(2 alpha) <= |tau - xi^3| <= 2 N^(2 alpha) },

with f = chi_set + chi_(-set), so f is even and ||f||^2 = 2 |set|.  The
functional convolves the inner-weighted f with itself, applies the outer
weight

    |xi| (1 + |xi|)^s (1 + |xi|^(2 alpha) + |tau - xi^3|)^(-1/2 + delta),

takes the L2 norm over the near-origin chunk of the convolution (the
third of the interaction rectangle away from the origin, where |xi| is
comparable to the set width), and divides by ||f||^2.  The growth rate
of this ratio in N changes sign at the critical exponent
s = -3/4 (alpha <= 1/2) or s = -3/(5 - 2 alpha) (alpha > 1/2), up to the
delta regularization.

Discretization: cells live on the origin-aligned lattice (i d_xi, j d_tau)
with d_xi a sixteenth of the set width and d_tau a sixteenth of the
modulation height, so the mirrored set lands exactly on the lattice and
pair sums of cell indices stay on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, RangeError, ResolutionError
from .reports import SweepReport, fit_power_law, format_csv

DELTA_DEFAULT = 0.01
CELLS_ACROSS_THIN = 16


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Origin-aligned rectangular lattice in (xi, tau)."""

    d_xi: float
    d_tau: float

    def __post_init__(self):
        if self.d_xi <= 0 or self.d_tau <= 0:
            raise ParameterError("grid steps must be positive")

    def cell_area(self) -> float:
        return self.d_xi * self.d_tau


@dataclass(frozen=True)
class CounterexampleSpec:
    """Regime, scale, test exponent, and dissipation order of one probe."""

    regime: str
    scale_n: float
    s_test: float
    alpha: float
    delta: float = DELTA_DEFAULT

    def __post_init__(self):
        if self.regime not in ("low_alpha", "high_alpha"):
            raise ParameterError(f"regime must be low_alpha or high_alpha, got {self.regime!r}")
        if self.scale_n < 16:
            raise ParameterError(f"scale_n must be >= 16, got {self.scale_n}")
        if not 0 < self.alpha <= 1:
            raise ParameterError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.regime == "low_alpha" and self.alpha > 0.5:
            raise ParameterError("low_alpha regime requires alpha <= 1/2")
        if self.regime == "high_alpha" and self.alpha < 0.5:
            raise ParameterError("high_alpha regime requires alpha in [1/2, 1]")
        if not 0 < self.delta < 0.25:
            raise ParameterError(f"delta must be a small positive number, got {self.delta}")

    def set_width(self) -> float:
        """xi-extent of the set: 1 (low regime) or N^(alpha - 1/2) (high)."""
        if self.regime == "low_alpha":
            return 1.0
        return self.scale_n ** (self.alpha - 0.5)

    def modulation_height(self) -> float:
        """|tau - xi^3| slab height: N (low regime) or N^(2 alpha) (high)."""
        if self.regime == "low_alpha":
            return self.scale_n
        return self.scale_n ** (2.0 * self.alpha)

    def default_grid(self) -> PhaseSpaceGrid:
        return PhaseSpaceGrid(
            d_xi=self.set_width() / CELLS_ACROSS_THIN,
            d_tau=self.modulation_height() / CELLS_ACROSS_THIN,
        )


@dataclass(frozen=True, eq=False)
class CounterexampleFunction:
    """A {0, amplitude}-valued even function stored as occupied lattice cells.

    xi_idx and tau_idx list every occupied cell of both mirror halves as
    integer lattice indices; positive marks the cells with xi > 0.
    """

    spec: CounterexampleSpec
    grid: PhaseSpaceGrid
    xi_idx: np.ndarray
    tau_idx: np.ndarray
    amplitude: float = 1.0

    def l2_norm_sq(self) -> float:
        return self.amplitude**2 * len(self.xi_idx) * self.grid.cell_area()

    def is_even(self) -> bool:
        cells = set(zip(self.xi_idx.tolist(), self.tau_idx.tolist()))
        return all((-i, -j) in cells for (i, j) in cells)


def build_counterexample(
    spec: CounterexampleSpec, grid: PhaseSpaceGrid | None = None
) -> CounterexampleFunction:
    """Rasterize chi_set + chi_(-set) on the lattice by cell-center membership.

    float64 resolves every tau lattice index only below 2**53; a scale_n
    whose outermost index, ((N + w)^3 + 2h) / d_tau, reaches that is a
    RangeError.  The bound is taken in logs, where the cube cannot overflow.
    """
    n = spec.scale_n
    try:
        if grid is None:
            grid = spec.default_grid()
        w = spec.set_width()
        h = spec.modulation_height()
        log_index = np.logaddexp(3.0 * math.log(n + w), math.log(2.0 * h)) - math.log(grid.d_tau)
    except OverflowError:  # N^(2 alpha) itself overflows, far past the bound
        log_index = math.inf
    if log_index >= 53.0 * math.log(2.0):
        raise RangeError(
            f"scale_n = {n:g} puts tau lattice indices at 2**53 or beyond, "
            "where float64 no longer resolves the lattice"
        )
    if grid.d_xi > w / 8 or grid.d_tau > h / 8:
        raise ResolutionError(
            "grid must resolve each thin dimension with at least 8 cells: "
            f"d_xi = {grid.d_xi:.3g} vs width {w:.3g}, d_tau = {grid.d_tau:.3g} vs height {h:.3g}"
        )

    i_lo = int(np.ceil(n / grid.d_xi))
    i_hi = int(np.floor((n + w) / grid.d_xi))
    xi_cols = np.arange(i_lo, i_hi + 1)
    xi_vals = xi_cols * grid.d_xi

    xi_list = []
    tau_list = []
    for i, xi in zip(xi_cols, xi_vals):
        center = xi**3
        for sign in (1.0, -1.0):
            lo = center + sign * h
            hi = center + sign * 2.0 * h
            j_lo = int(np.ceil(min(lo, hi) / grid.d_tau))
            j_hi = int(np.floor(max(lo, hi) / grid.d_tau))
            rows = np.arange(j_lo, j_hi + 1)
            xi_list.append(np.full(rows.shape, i))
            tau_list.append(rows)
    xi_idx = np.concatenate(xi_list)
    tau_idx = np.concatenate(tau_list)
    # mirror half: f(-xi, -tau) = f(xi, tau)
    xi_idx = np.concatenate([xi_idx, -xi_idx])
    tau_idx = np.concatenate([tau_idx, -tau_idx])
    return CounterexampleFunction(spec=spec, grid=grid, xi_idx=xi_idx, tau_idx=tau_idx)


def _inner_weight(xi: np.ndarray, tau: np.ndarray, spec: CounterexampleSpec) -> np.ndarray:
    """(1 + |xi|)^(-s) <|xi|^(2a) + |tau - xi^3|>^(-1/2) applied to f."""
    y = np.abs(xi) ** (2.0 * spec.alpha) + np.abs(tau - xi**3)
    return (1.0 + np.abs(xi)) ** (-spec.s_test) * (1.0 + y**2) ** (-0.25)


def _outer_weight(xi: np.ndarray, tau: np.ndarray, spec: CounterexampleSpec) -> np.ndarray:
    """|xi| (1 + |xi|)^s (1 + |xi|^(2a) + |tau - xi^3|)^(-1/2 + delta)."""
    y = 1.0 + np.abs(xi) ** (2.0 * spec.alpha) + np.abs(tau - xi**3)
    return np.abs(xi) * (1.0 + np.abs(xi)) ** spec.s_test * y ** (-0.5 + spec.delta)


def bilinear_functional(f: CounterexampleFunction) -> float:
    """Ratio of the weighted near-origin convolution norm to ||f||^2.

    The convolution is accumulated only over output cells with |xi|
    between one sixth and one half of the full interaction width, the
    away-from-origin third of the interaction rectangle.
    """
    spec, grid = f.spec, f.grid
    if len(f.xi_idx) == 0 or f.amplitude == 0.0:
        return 0.0
    positive = f.xi_idx > 0
    xi_p, tau_p = f.xi_idx[positive], f.tau_idx[positive]
    xi_m, tau_m = -xi_p, -tau_p

    g_p = f.amplitude * _inner_weight(xi_p * grid.d_xi, tau_p * grid.d_tau, spec)
    g_m = f.amplitude * _inner_weight(xi_m * grid.d_xi, tau_m * grid.d_tau, spec)

    # all cross pairs (+set) x (-set); the convolution counts both orders
    i_out = (xi_p[:, None] + xi_m[None, :]).ravel()
    j_out = (tau_p[:, None] + tau_m[None, :]).ravel()
    mass = (2.0 * grid.cell_area() ** 2) * (g_p[:, None] * g_m[None, :]).ravel()

    width_cells = int(round(spec.set_width() / grid.d_xi))
    keep = (np.abs(i_out) >= max(1, width_cells // 6)) & (
        np.abs(i_out) <= width_cells // 2
    )
    if not np.any(keep):
        raise ResolutionError("near-origin window is empty; grid too coarse")
    i_out, j_out, mass = i_out[keep], j_out[keep], mass[keep]

    i_min, j_min = i_out.min(), j_out.min()
    j_span = int(j_out.max() - j_min + 1)
    keys = (i_out - i_min).astype(np.int64) * j_span + (j_out - j_min)
    uniq, inverse = np.unique(keys, return_inverse=True)
    cell_mass = np.bincount(inverse, weights=mass)
    xi_cells = (uniq // j_span + i_min) * grid.d_xi
    tau_cells = (uniq % j_span + j_min) * grid.d_tau

    conv_values = cell_mass / grid.cell_area()
    weighted = _outer_weight(xi_cells, tau_cells, spec) * conv_values
    norm_sq = np.sum(weighted**2) * grid.cell_area()
    if not np.isfinite(norm_sq):
        raise RangeError("bilinear functional overflowed; reduce the scale ladder")
    return float(np.sqrt(norm_sq) / f.l2_norm_sq())


def exponent_sweep(
    regime: str,
    alpha: float,
    s_list: tuple[float, ...],
    n_ladder: tuple[float, ...],
    delta: float = DELTA_DEFAULT,
) -> SweepReport:
    """Fit the growth exponent of the bilinear ratio in N for each s and
    locate the slope sign change.

    The crossover estimate interpolates the fitted slope linearly in s
    between the last nonnegative and first negative slope.
    """
    if not s_list:
        raise ParameterError("s_list must be non-empty")
    if len(n_ladder) < 4:
        raise ParameterError("n_ladder needs at least 4 dyadic points")
    if any(b <= a for a, b in zip(n_ladder, n_ladder[1:])):
        raise ParameterError("n_ladder must be strictly increasing")
    ratios_by_s = []
    slopes = []
    ns = np.asarray(n_ladder, dtype=np.float64)
    for s in s_list:
        ratios = []
        for n in n_ladder:
            spec = CounterexampleSpec(
                regime=regime, scale_n=n, s_test=s, alpha=alpha, delta=delta
            )
            ratios.append(bilinear_functional(build_counterexample(spec)))
        ratios_by_s.append(tuple(ratios))
        slopes.append(fit_power_law(ns, ratios)["slope"])

    crossover = None
    s_arr = np.asarray(s_list)
    order = np.argsort(s_arr)
    for lo, hi in zip(order[:-1], order[1:]):
        a, b = slopes[lo], slopes[hi]
        if a > 0 >= b or a >= 0 > b:
            crossover = s_arr[lo] + (s_arr[hi] - s_arr[lo]) * a / (a - b)
            break

    observables = tuple(
        {"s": float(s), "slope": float(sl), "ratios": list(r), "n_ladder": list(ns)}
        for s, sl, r in zip(s_list, slopes, ratios_by_s)
    )
    return SweepReport(
        parameter="s",
        values=tuple(float(s) for s in s_list),
        observables=observables,
        fit=None,
        seed=0,
        meta={"alpha": alpha, "regime": regime, "delta": delta},
        crossover_estimate=None if crossover is None else float(crossover),
    )


def write_sweep_csv(stream, report: SweepReport) -> None:
    """sharpness sweep rows: alpha, s, N, ratio, slope, crossover_estimate."""
    alpha = report.meta["alpha"]
    cross = report.crossover_estimate
    rows = (
        (alpha, rec["s"], n, ratio, rec["slope"], cross)
        for rec in report.observables
        for n, ratio in zip(rec["n_ladder"], rec["ratios"])
    )
    stream.write(
        format_csv(("alpha", "s", "N", "ratio", "slope", "crossover_estimate"), rows)
    )
