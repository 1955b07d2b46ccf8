"""Multiplier calculus on zero-sum frequency hyperplanes.

The low-frequency smoothing weight m equals 1 below the cutoff N and
(|xi|/N)^s above it; I is the Fourier multiplier operator with symbol m.
On the hyperplane xi_1 + ... + xi_k = 0 the cubic resonance function is
h_k = i (xi_1^3 + ... + xi_k^3) and the dissipation symbol is
beta_{alpha,k} = sum |xi_j|^(2 alpha).  The correction multipliers

    M3 = i (m^2(xi_1) xi_1 + m^2(xi_2) xi_2 + m^2(xi_3) xi_3)
    sigma3 = -M3 / (h3 - eps beta_3)          (sigma3^- is sigma3 at -xi)
    M4 = -(3i/2) [sigma3(xi_1, xi_2, xi_3 + xi_4) (xi_3 + xi_4)]_sym
    sigma4 = -M4 / (h4 - eps beta_4)
    M5 = -2i [sigma4(xi_1, xi_2, xi_3, xi_4 + xi_5) (xi_4 + xi_5)]_sym

define the corrected energies E_I^3 = E_I^2 + Lambda_3(sigma3) and
E_I^4 = E_I^3 + Lambda_4(sigma4), where Lambda_k is the k-linear
hyperplane functional.  Symmetrization [.]_sym averages over the full
permutation group, so the six distinct pairings in M4 (ten in M5) each
carry weight 1/6 (1/10).

Lattice normalization: Lambda_k carries the prefactor L^(1 - k/2), which
makes Lambda_2 with unit multiplier equal the squared L2 norm and makes
the quadratic ledger identity

    d/dt ||I u||^2 = -eps Lambda_2(m(xi_1) m(xi_2) beta_{alpha,2})
                     + (2/3) Lambda_3(M3)

hold exactly for the dealiased discrete flow of u_t + u_xxx
+ eps |d_x|^(2a) u + (u^2)_x = 0.  (The quadratic nonlinearity carries
twice the flux of u u_x; with M3 as above the net constant is 2/3.)

Resonance-function evaluation uses the factored on-hyperplane forms
3i xi_1 xi_2 xi_3 and 3i (xi_1+xi_2)(xi_1+xi_3)(xi_1+xi_4), which are
free of the catastrophic cancellation the raw cube sums suffer when the
frequencies are widely separated.

The multipliers are array kernels: ``m_weight(xi)`` and, on ``xs``, a
sequence of k broadcastable arrays whose slot j holds xi_j of every tuple
(kept on the hyperplane by the caller), ``beta_values``, ``h4_values``,
``m3_values``, ``sigma3_values``, ``m4_values``, ``sigma4_values`` and
``m5_values``.  Each kernel is the one place of its formula, and it calls
the kernels below it on its own slots: a slot, a frequency or a pair sum,
keeps its one-slot terms m^2(xi) xi and |xi|^(2 alpha) once computed, so
every pairing that takes the slot shares them.  The quotient kernels
(sigma3, M4, sigma4, M5) return ``(values, resonant)``: where a
denominator vanishes (|den| <= 1e-30) the value is 0, and the boolean mask
is set only under a numerator above 1e-30, so 0/0 maps to 0 with the mask
unset; M4 and M5 join their inner masks.  No kernel raises on the resonant
set; ``modified_energy`` raises ``ResonantDenominatorError``.  A kernel
given another number of slots than its k raises ``ContractViolationError``.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    ContractViolationError,
    ParameterError,
    ResolutionError,
    ResonantDenominatorError,
)
from .evolve import Trajectory
from .norms import spectral_energies
from .propagator import ModelParams
from .reports import fit_power_law
from .spectral import SpectralField, dissipation_symbol, is_integer, is_seed

_TINY = 1e-30

# Largest n_samples of one m4_bound_sample call: at the cap, on the ladder
# (16, 32), a call takes about 0.85 s on a 2-core VM and its process peaks at
# about 50 MB, the draws of its first batch, 4e6 of them, being held one
# block at a time.
MAX_SAMPLES = 10**6
# Draws per block of the uniform draws, the rejection test and the M4
# evaluation.  A batch that fits one block is drawn in one call; a larger one
# is drawn block by block from the batch's stream.  The rest is elementwise,
# so the block size leaves reports unchanged; it bounds the draws held at
# once to 3 * 8 * M4_BLOCK bytes, 2.4 MB, whatever the batch.
M4_BLOCK = 10**5
# Draws per requested sample after which a sampler annulus is a ParameterError.
MAX_DRAWS_PER_SAMPLE = 1000
# Default annulus ratios N_i / N1 of the pointwise-bound sampler.
RATIOS_DEFAULT = (1.0, 0.75, 0.5)


@dataclass(frozen=True)
class IMultiplierSpec:
    """Cutoff N and exponent s of the smoothing weight m(xi) = min(1, (|xi|/N)^s)."""

    cutoff_n: float
    s_exp: float

    def __post_init__(self):
        if not self.cutoff_n > 0:
            raise ParameterError(f"cutoff_n must be positive, got {self.cutoff_n}")
        if not -0.75 <= self.s_exp <= 0:
            raise ParameterError(f"s_exp must lie in [-3/4, 0], got {self.s_exp}")


@dataclass(frozen=True)
class DyadicConfig:
    """Dyadic annuli for the pointwise-bound sampler.

    Magnitudes are N_i = ratios[i] * N1 with 1 = ratios[0] >= ... and
    |xi_i| drawn uniformly from [N_i, 2 N_i] with random signs; N1 runs
    over n1_ladder.  ratios[1] >= 1/4 keeps the top two comparable, and
    a ratio sum > 1/2 keeps the zero-sum constraint realizable (at 1/2,
    |xi_1| >= N1 has probability zero).  seed, the sampler's generator seed,
    is an integer in [0, 2**64), the range the CLI accepts.
    """

    n1_ladder: tuple[float, ...]
    ratios: tuple[float, float, float] = RATIOS_DEFAULT
    seed: int = 0

    def __post_init__(self):
        ladder = tuple(float(n) for n in self.n1_ladder)
        object.__setattr__(self, "n1_ladder", ladder)
        if len(ladder) < 2 or any(not 0 < n < math.inf for n in ladder):
            raise ParameterError(
                f"n1_ladder needs at least two positive finite entries, got {list(ladder)}"
            )
        if any(b <= a for a, b in zip(ladder, ladder[1:])):
            raise ParameterError("n1_ladder must be strictly increasing")
        if len(self.ratios) != 3:
            raise ParameterError(f"ratios needs exactly 3 entries, got {self.ratios}")
        r2, r3, r4 = self.ratios
        if not (1.0 >= r2 >= r3 >= r4 > 0):
            raise ParameterError(f"ratios must be nonincreasing in (0, 1], got {self.ratios}")
        if r2 < 0.25:
            raise ParameterError("ratios[0] < 1/4 breaks the comparable-top-pair constraint")
        if r2 + r3 + r4 <= 0.5:
            raise ParameterError(
                f"ratio sum <= 1/2 makes the zero-sum constraint unrealizable, got {self.ratios}"
            )
        if not is_seed(self.seed):
            raise ParameterError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")


# ---------------------------------------------------------------------------
# Multiplier kernels on arrays of hyperplane tuples (see the module docstring)
# ---------------------------------------------------------------------------


def m_weight(xi, spec: IMultiplierSpec) -> np.ndarray:
    """The smoothing weight m(xi): 1 below the cutoff, (|xi|/N)^s above."""
    ratio = np.maximum(np.abs(np.asarray(xi, dtype=np.float64)) / spec.cutoff_n, 1.0)
    return ratio**spec.s_exp


def _msq(xi, spec):
    return m_weight(xi, spec) ** 2


class _Slot:
    """One slot array xi with its one-slot terms, each computed on first use
    and kept: flux = m^2(xi) xi, the M3 term, and dissipation = |xi|^(2 alpha),
    the beta term.  Every pairing that takes a slot shares its terms."""

    def __init__(self, xi, spec: IMultiplierSpec | None, alpha: float | None):
        self.xi, self.spec, self.alpha = xi, spec, alpha

    @functools.cached_property
    def flux(self):
        return _msq(self.xi, self.spec) * self.xi

    @functools.cached_property
    def dissipation(self):
        return np.abs(self.xi) ** (2 * self.alpha)

    def __add__(self, other: _Slot) -> _Slot:
        """The slot of the pair sum xi + other.xi."""
        return _Slot(self.xi + other.xi, self.spec, self.alpha)


def _slots(xs, k: int, kernel: str, spec=None, alpha=None) -> list[_Slot]:
    """The slots of xs, checked to be the k slots the kernel takes: a _Slot is
    kept with the terms it holds, and an array is wrapped."""
    if len(xs) != k:
        raise ContractViolationError(f"{kernel} takes k = {k} slots, got {len(xs)}")
    return [x if isinstance(x, _Slot) else _Slot(x, spec, alpha) for x in xs]


def _guarded_quotient(num, den):
    """-num/den with 0/0 mapped to 0; returns (values, resonant_mask).

    One division at the broadcast shape of num and den; the entries with
    |den| <= 1e-30 are then set to 0 in place, and only on those is |num|
    read for the mask."""
    num, den = np.broadcast_arrays(num, den)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        values = np.asarray(-num / den)
    small = np.abs(den) <= _TINY
    values[small] = 0.0
    resonant = np.zeros_like(small)
    resonant[small] = np.abs(num[small]) > _TINY
    return values, resonant


def _pair_symmetrized(slots, inner, prefactor):
    """prefactor times the mean over the k(k-1)/2 merged pairs {c, d} of
    inner((rest..., x_c + x_d)) (x_c + x_d), with rest the other k - 2
    slots in order; returns (values, resonant) with the resonant masks of
    every inner call joined.  Each pair-sum slot serves one pairing and is
    dropped after it."""
    k = len(slots)
    total = 0.0
    resonant = np.zeros(np.broadcast(*(s.xi for s in slots)).shape, dtype=bool)
    kept_slots = list(itertools.combinations(range(k), k - 2))
    for kept in kept_slots:
        c, d = (i for i in range(k) if i not in kept)
        pair = slots[c] + slots[d]
        vals, res = inner((*(slots[i] for i in kept), pair))
        total = total + vals * pair.xi
        resonant |= res
    return (prefactor / len(kept_slots)) * total, resonant


def m3_values(xs, spec: IMultiplierSpec) -> np.ndarray:
    """M3 = i sum m^2(xi_j) xi_j on three slots; no denominator, so no mask."""
    a, b, c = _slots(xs, 3, "m3_values", spec)
    return 1j * (a.flux + b.flux + c.flux)


def beta_values(xs, alpha: float):
    """beta_{alpha,k} = sum |xi_j|^(2 alpha) over the k slots, alpha in (0, 1]."""
    if not 0 < alpha <= 1:
        raise ParameterError(f"alpha must lie in (0, 1], got {alpha}")
    return sum(s.dissipation for s in _slots(xs, len(xs), "beta_values", alpha=alpha))


def _eps_beta(slots, params: ModelParams):
    """eps beta_k on the slots: 0.0 at eps = 0, where no |xi|^(2 alpha) is formed."""
    return params.epsilon * beta_values(slots, params.alpha) if params.epsilon else 0.0


def sigma3_values(xs, spec: IMultiplierSpec, params: ModelParams):
    """(sigma3, resonant) on three slots, sigma3 = -M3 / (h3 - eps beta_3) with
    h3 = 3i xi_1 xi_2 xi_3.  M3 and h3 are odd and beta_3 even, so sigma3^-,
    over h3 + eps beta_3, is ``sigma3_values([-x for x in xs], spec, params)``."""
    slots = _slots(xs, 3, "sigma3_values", spec, params.alpha)
    a, b, c = slots
    h3 = 3j * np.asarray(a.xi) * np.asarray(b.xi) * np.asarray(c.xi)
    return _guarded_quotient(m3_values(slots, spec), h3 - _eps_beta(slots, params))


def m4_values(xs, spec: IMultiplierSpec, params: ModelParams):
    """(M4, resonant) on four slots: the six-pairing symmetrization of sigma3."""
    slots = _slots(xs, 4, "m4_values", spec, params.alpha)
    return _pair_symmetrized(slots, lambda ys: sigma3_values(ys, spec, params), -1.5j)


def h4_values(xs) -> np.ndarray:
    """h4 = i sum xi_j^3 on four slots, as 3i (xi_1+xi_2)(xi_1+xi_3)(xi_1+xi_4)."""
    x1, x2, x3, x4 = (s.xi for s in _slots(xs, 4, "h4_values"))
    return 3j * (x1 + x2) * (x1 + x3) * (x1 + x4)


def sigma4_values(xs, spec: IMultiplierSpec, params: ModelParams):
    """(sigma4, resonant) on four slots, sigma4 = -M4 / (h4 - eps beta_4); the
    mask joins M4's with this quotient's own."""
    slots = _slots(xs, 4, "sigma4_values", spec, params.alpha)
    num, resonant = m4_values(slots, spec, params)
    den = h4_values(slots) - _eps_beta(slots, params)
    values, res4 = _guarded_quotient(num, den)
    return values, resonant | res4


def m5_values(xs, spec: IMultiplierSpec, params: ModelParams):
    """(M5, resonant) on five slots: the ten-pairing symmetrization of sigma4."""
    slots = _slots(xs, 5, "m5_values", spec, params.alpha)
    return _pair_symmetrized(slots, lambda ys: sigma4_values(ys, spec, params), -2j)


# ---------------------------------------------------------------------------
# Sampled verification of the M4 pointwise bound
# ---------------------------------------------------------------------------


def _least_magnitude(arrays) -> np.ndarray:
    """min_j |a_j| elementwise over the arrays, as one running minimum."""
    arrays = iter(arrays)
    least = np.abs(next(arrays))
    for a in arrays:
        np.minimum(least, np.abs(a), out=least)
    return least


def _annulus_tuples(u: np.ndarray, n1: float, mags: np.ndarray) -> np.ndarray:
    """The (4, n) tuples of the (3, b) draws u that pass the rejection tests
    of ``_sample_annulus_tuples``, in draw order; mags holds N_2, N_3, N_4.
    A function of its own, so the block's temporaries are freed before the
    sampler yields the tuples for evaluation."""
    # sign(u) (1 + |u|) N_i, formed in place
    x234 = np.abs(u)
    x234 += 1.0
    np.copysign(x234, u, out=x234)
    x234 *= mags
    x1 = -np.sum(x234, axis=0)
    abs1 = np.abs(x1)
    in_annulus = (abs1 >= n1) & (abs1 <= 2 * n1)
    xs = np.empty((4, np.count_nonzero(in_annulus)))
    np.compress(in_annulus, x1, out=xs[0])
    np.compress(in_annulus, x234, axis=1, out=xs[1:])
    floor = 1e-9 * np.max(np.abs(xs), axis=0)
    pair_sums = (xs[i] + xs[j] for i, j in itertools.combinations(range(4), 2))
    ok = _least_magnitude(itertools.chain(xs, pair_sums)) > floor
    return np.compress(ok, xs, axis=1)


def _uniform_blocks(rng: np.random.Generator, batch: int) -> Iterator[np.ndarray]:
    """rng.uniform(-1, 1, size=(3, batch)) bit for bit, as (3, n) blocks of
    M4_BLOCK columns drawn one at a time.

    A batch of at most M4_BLOCK columns is that one draw, a single block.  In
    a larger batch, row r of the draw takes the rng's doubles r * batch
    onwards, one 64-bit output each, so it is drawn from a copy of rng's PCG64
    bit generator advanced that far; rng itself is advanced past all 3 * batch
    draws before the first block, so its later draws do not depend on the
    blocks taken.
    """
    if batch <= M4_BLOCK:
        yield rng.uniform(-1.0, 1.0, size=(3, batch))
        return
    bits = rng.bit_generator
    rows = [np.random.Generator(copy.copy(bits).advance(r * batch)) for r in range(3)]
    bits.advance(3 * batch)
    for start in range(0, batch, M4_BLOCK):
        yield np.array([g.uniform(-1.0, 1.0, min(M4_BLOCK, batch - start)) for g in rows])


def _sample_annulus_tuples(
    rng: np.random.Generator,
    n1: float,
    ratios: tuple[float, float, float],
    count: int,
) -> Iterator[np.ndarray]:
    """count zero-sum 4-tuples with |xi_1| in [N1, 2N1], |xi_i| in [N_i, 2N_i],
    as (4, n) blocks of the tuples kept from M4_BLOCK draws each.

    Each of xi_2, xi_3, xi_4 takes one uniform draw u in [-1, 1) and is
    sign(u) (1 + |u|) N_i: a magnitude uniform in [N_i, 2N_i] and an
    independent fair sign.  xi_1 = -(xi_2 + xi_3 + xi_4); rejection keeps
    it in its annulus and discards tuples within 1e-9 relative of a
    resonant zero (vanishing frequency or pair sum).  An annulus that has
    used more than MAX_DRAWS_PER_SAMPLE * count draws is a ParameterError.
    """
    mags = np.array([n1 * r for r in ratios])[:, None]
    needed, drawn = count, 0
    while needed > 0:
        if drawn > MAX_DRAWS_PER_SAMPLE * count:
            share = f"{(count - needed) / drawn:.2g} of its {drawn} draws for {count} samples"
            raise ParameterError(f"annulus N1 = {n1:g} with ratios {list(ratios)} kept {share}")
        batch = max(4 * needed, 1024)
        drawn += batch
        for u in _uniform_blocks(rng, batch):
            kept = _annulus_tuples(u, n1, mags)[:, :needed]  # rows stay contiguous
            needed -= kept.shape[1]
            if kept.size:
                yield kept
            if needed == 0:
                break


def m4_bound_sample(
    dyadic_config: DyadicConfig,
    spec: IMultiplierSpec,
    params: ModelParams,
    n_samples: int,
) -> dict:
    """Sample the ratio of |sigma4| = |M4| / |h4 - eps beta_4| to its pointwise
    envelope m^2(min magnitude) / prod (N + |xi_i|) over dyadic annuli.

    The envelope minimum runs over the four frequencies and the three
    distinct pair sums.  Returns the bound report: "max_ratios", the
    per-ladder maxima over "N_ladder"; "slope", the least-squares slope of
    log max-ratio versus log N1; "config", the annuli in words; "seed"; and
    "samples", the tuples kept per ladder point.
    """
    if not (is_integer(n_samples) and 10_000 <= n_samples <= MAX_SAMPLES):
        raise ParameterError(
            f"need 1e4 <= n_samples <= MAX_SAMPLES = {MAX_SAMPLES}, got {n_samples}"
        )
    rng = np.random.default_rng(dyadic_config.seed)
    max_ratios = []
    for n1 in dyadic_config.n1_ladder:
        block_maxima = []
        for xs in _sample_annulus_tuples(rng, n1, dyadic_config.ratios, n_samples):
            # magnitudes past float64 give a non-finite maximum: a RangeError in the fit
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                sigma4, resonant = sigma4_values(xs, spec, params)
                sums = (xs[0] + xs[1], xs[0] + xs[2], xs[0] + xs[3])
                envelope = _msq(_least_magnitude([*xs, *sums]), spec)
                for x in xs:
                    envelope /= spec.cutoff_n + np.abs(x)
                ratio = np.abs(sigma4)
                ratio /= envelope
                ratio[resonant] = 0.0
                block_maxima.append(np.max(ratio))
        max_ratios.append(float(np.max(block_maxima)))
    ladder, ratios = list(dyadic_config.n1_ladder), list(dyadic_config.ratios)
    return {
        "config": f"N1 in {ladder}, (N2,N3,N4) = N1 * {ratios}",
        "N_ladder": ladder,
        "max_ratios": max_ratios,
        "slope": fit_power_law(ladder, max_ratios)["slope"],
        "seed": dyadic_config.seed,
        "samples": n_samples,
    }


# ---------------------------------------------------------------------------
# Hyperplane functionals on the wavenumber lattice
# ---------------------------------------------------------------------------

_LAMBDA_MAX_MODES = {2: 4096, 3: 256, 4: 64, 5: 64}


def _zero_sum_lattice(free: Sequence[np.ndarray], modes: int):
    """The lattice of k_1 + ... + k_k = 0 over the k - 1 free integer
    wavenumber ranges.

    Returns the free ranges, each on its own broadcast axis, the dependent
    last index -(k_1 + ... + k_(k-1)), and the mask of tuples whose last
    index lies in the grid's range [-M/2, M/2 - 1].
    """
    n = len(free)
    axes = [np.reshape(r, [-1 if j == i else 1 for j in range(n)]) for i, r in enumerate(free)]
    last = -sum(axes)
    half = modes // 2
    return axes, last, (last >= -half) & (last <= half - 1)


def lambda_k(
    multiplier: Callable[..., np.ndarray],
    fields: Sequence[SpectralField],
) -> complex:
    """Discrete hyperplane functional
    Lambda_k = L^(1-k/2) sum_{k_1+...+k_k = 0} m(xi) u_1(k_1)...u_k(k_k).

    ``multiplier`` receives k broadcastable frequency arrays.  With unit
    multiplier and k = 2 this is the squared L2 norm.
    """
    k = len(fields)
    if not 2 <= k <= 5:
        raise ContractViolationError(f"lambda_k supports k = 2..5, got {k}")
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise ContractViolationError("lambda_k fields must share one grid")
    m_modes = grid.modes
    if m_modes > _LAMBDA_MAX_MODES[k]:
        raise ContractViolationError(
            f"lambda_k with k = {k} accepts at most {_LAMBDA_MAX_MODES[k]} modes"
        )
    kint = grid.integer_wavenumbers()
    dxi = 2.0 * np.pi / grid.box_length
    gamma = grid.box_length ** (1.0 - 0.5 * k)
    coeffs = [f.coeffs for f in fields]

    # k = 5 takes the leading index one nonzero entry at a time, which
    # bounds memory at O(M^3)
    if k < 5:
        leads = [kint]
    else:
        leads = [kint[i : i + 1] for i in range(m_modes) if coeffs[0][i] != 0]
    total = 0.0 + 0.0j
    for lead in leads:
        axes, last, valid = _zero_sum_lattice([lead] + [kint] * (k - 2), m_modes)
        vals = multiplier(*(a * dxi for a in axes), last * dxi)
        prod = coeffs[0][axes[0] % m_modes]
        for c, a in zip(coeffs[1:], axes[1:] + [last]):
            prod = prod * c[a % m_modes]
        total += np.sum(np.where(valid, vals * prod, 0.0))
    return complex(gamma * total)


def modified_energy(
    order: int,
    u: SpectralField,
    spec: IMultiplierSpec,
    params: ModelParams,
) -> float:
    """E_I^2 = ||I u||^2, E_I^3 = E_I^2 + Lambda_3(sigma3),
    E_I^4 = E_I^3 + Lambda_4(sigma4).

    Orders 3 and 4 need nondegenerate denominators: order 3 with eps = 0
    requires a vanishing zero mode, and order 4 requires eps > 0 (the
    lattice contains opposite pairs, which are resonant for sigma4).
    """
    if order not in (2, 3, 4):
        raise ParameterError(f"order must be 2, 3, or 4, got {order}")
    (e2,) = spectral_energies(u.coeffs, _msq(u.grid.wavenumbers(), spec))
    if order == 2:
        return float(e2)

    if params.epsilon == 0 and abs(u.coeffs[0]) > 1e-13 * max(u.l2_norm(), _TINY):
        raise ResonantDenominatorError(
            "order >= 3 with eps = 0 requires a zero-mode-free field"
        )

    def sigma3_mult(*xs):
        values, resonant = sigma3_values(xs, spec, params)
        if params.epsilon > 0 and np.any(resonant):
            raise ResonantDenominatorError("resonant sigma3 denominator on lattice")
        return values

    e3 = e2 + complex(lambda_k(sigma3_mult, [u, u, u])).real
    if order == 3:
        return float(e3)

    if params.epsilon == 0:
        raise ResonantDenominatorError(
            "E_I^4 needs eps > 0: opposite lattice pairs are sigma4-resonant"
        )

    e4 = e3 + complex(lambda_k(lambda *xs: sigma4_values(xs, spec, params)[0], [u] * 4)).real
    return float(e4)


def _m3_flux(coeffs: np.ndarray, grid, spec: IMultiplierSpec) -> np.ndarray:
    """Lambda_3(M3) of each row of an (S, M) coefficient matrix, by the identity
    in ``denergy_identity_residual``; complex FFTs, so rows need not be Hermitian."""
    kint = np.fft.fftshift(grid.integer_wavenumbers())
    xi = np.fft.fftshift(grid.wavenumbers())
    c = np.fft.fftshift(coeffs, axes=-1)
    # zero-padded to 2M, the autoconvolution is linear; its entry n is wavenumber n - M
    auto = np.fft.ifft(np.fft.fft(c, 2 * grid.modes) ** 2)
    g = _msq(xi, spec) * xi
    return 3j * grid.box_length ** (-0.5) * np.sum(g * c * auto[..., grid.modes - kint], axis=-1)


def denergy_identity_residual(traj: Trajectory, spec: IMultiplierSpec) -> float:
    """Defect of the quadratic ledger identity along a trajectory.

    Compares the centered difference of E_I^2 = ||I u||^2 between
    snapshots against the instantaneous right-hand side

        -eps Lambda_2(m(xi_1) m(xi_2) beta_{alpha,2}) + (2/3) Lambda_3(M3),

    and returns the maximal defect over interior snapshots, divided by
    scale = max(sup |rhs|, sup E_I^2 / time span).

    M3 = i (g(xi_1) + g(xi_2) + g(xi_3)) with g = m^2 xi is a sum of one-slot
    terms and the lattice {k_1 + k_2 + k_3 = 0, all k_j in [-M/2, M/2 - 1]}
    is permutation-invariant, so Lambda_3(M3) = 3i L^(-1/2) sum_k g(xi_k)
    u(k) S(-k) with S the linear autoconvolution of u over the grid's
    wavenumbers: one FFT pair of length 2M, O(M log M) a snapshot, not O(M^2).
    """
    if len(traj.times) < 3:
        raise ResolutionError("need at least three snapshots for a centered difference")
    params = traj.params
    xi = traj.grid.wavenumbers()
    msq = _msq(xi, spec)
    diss_weight = 2.0 * params.epsilon * msq * dissipation_symbol(traj.grid, params.alpha)
    energies, diss = spectral_energies(traj.coeffs, msq, diss_weight)
    rhs = -diss + (2.0 / 3.0) * _m3_flux(traj.coeffs, traj.grid, spec).real
    dts = traj.times[2:] - traj.times[:-2]
    lhs = (energies[2:] - energies[:-2]) / dts
    defects = np.abs(lhs - rhs[1:-1])
    span = traj.times[-1] - traj.times[0]
    scale = max(float(np.max(np.abs(rhs))), float(np.max(energies)) / span, _TINY)
    return float(np.max(defects) / scale)


def rearrangement_check(
    a: Sequence[float], b: Sequence[float]
) -> tuple[float, float]:
    """prod (a_i + b_i) for the given pairing versus both arrays sorted
    ascending; the given pairing always dominates.  Python floats: on
    tuples this short they are faster than numpy."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ContractViolationError("rearrangement_check needs two equal-length 1-d arrays")
    a, b = a.tolist(), b.tolist()
    if any(not x >= 0 for x in a + b):
        raise ParameterError("rearrangement_check requires nonnegative entries")
    lhs = math.prod(x + y for x, y in zip(a, b))
    rhs = math.prod(x + y for x, y in zip(sorted(a), sorted(b)))
    return lhs, rhs
