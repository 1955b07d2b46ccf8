"""Time integration by fourth-order exponential time differencing with
the exact linear flow.

Writing the equation as u_t = L u + N(u) with L the Fourier-diagonal
operator -d_xxx - epsilon |d_x|^(2 alpha) and N(u) = -d_x(u^2), each
step applies the propagator exp(L dt) exactly and integrates the
nonlinearity with the Cox-Matthews ETDRK4 quadrature.  With N = 0 one
step reproduces the exact propagator; the scheme is globally fourth
order, and its stiff error constants are far smaller than those of the
plain integrating-factor RK4 (whose exp(L dt) stage factors amplify the
cross terms at |xi^3 dt| of order one enough to push soliton-transport
convergence out of its clean fourth-order window in double precision).

The phi-function coefficients are entire in z = L dt and are evaluated
by their Taylor series for |z| <= 1 and by the closed forms beyond,
which keeps every regime cancellation-free.

The quadratic product is formed in physical space and dealiased with the
strict 2/3 rule, |k| < M/3, so the retained modes carry the exact convolution.
N is that product's rfft times one multiplier (the derivative, the dealias
mask and the transform scales), and the stepper folds the multiplier into
its ETDRK4 coefficients, so a stage evaluates only irfft, square and rfft.

The state is stepped as the real-FFT half-spectrum: the M/2 + 1
coefficients k = 0..M/2 of a real field, the negative wavenumbers being
their conjugates.  Full FFT order appears only in a stored snapshot (one
row of the trajectory's coefficient matrix, rebuilt exactly
Hermitian-symmetric after t = 0) and in the public ``step`` and
``nonlinear_term``.  The Nyquist entry stands for both k = -M/2 and
k = M/2; its derivative factor is 0 and its linear symbol keeps only the
dissipative real part, so it stays real.

A run takes ``SolverConfig.steps`` = round(t_final / dt) whole steps; a
t_final that is not a whole number of steps is a ParameterError, so
there is no short last step.  Its config alone fixes which steps it stores
(``snapshot_steps``) and their times (``step_time``, t_final at the last).

One stepping loop, ``_march``, owns a batch: it checks the batch, fixes
each run's snapshots before the first tick and returns the trajectories.
Its state is a (B, M/2 + 1) array, one tableau row per run: ``solve``
steps one run as a (1, M/2 + 1) batch, ``solve_ladder`` B runs that
share the grid and t_final; their params and snapshot strides may differ,
and so may their dt, each an integer multiple of the smallest.  The loop
ticks at the smallest dt and steps the rows that are due on each tick
together, so a run with twice the step rides on every other tick.  Every stage
acts on each element or along the last axis, so each row is bit for bit
the single solve of its run, while the 8 FFT calls and 21 other array
operations of a tick are paid once for all its rows.  A batch shares the
grid because the FFT length and the tableau's wavenumbers are the
grid's, which is why the rescaled run of ``scaling_check`` (a larger box
with more modes) stays single.  Batched together are the epsilon = 0
reference, the ladder and the dt/2 floor of ``inviscid_sweep``, the
ladder of ``h1_bound_check`` and the run of ``energy_check`` with its
dt/2 refinement.  Each tick screens its new state with one reduction, the
squared norm, and scans the rows only when that is not finite.  A row
that turns non-finite records its own DivergenceError, naming its epsilon
and dt; run 0's is raised at once, and otherwise the first diverged
run's after the last tick, as its single solve would.

A step's only new array is the state it returns.  Each stepper
preallocates one buffer per stage square, two for the stage arithmetic
and one real (rows, M) buffer for the physical-space square, which the
FFTs fill through ``out=`` (numpy >= 2.0).  The stage sums run in place
with the operand order and grouping of the plain expressions, so a step
is bit for bit the allocating one.
"""

from __future__ import annotations

import json
import math
import struct
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ContractViolationError, DivergenceError, InitialDataError, ParameterError
from .propagator import ModelParams, linear_symbol
from .spectral import (
    GridSpec,
    RealField,
    SpectralField,
    forward_transform,
    is_integer,
    is_number,
    synthesize,
)

# Largest number of time steps one solve may take.  Steps are counted, not
# listed, so memory does not bound the count; time does: at 60-400 us a
# step (M = 256 to 4096), 10**7 steps take 10 minutes to an hour, and a
# larger count is a mistaken dt or t_final.
MAX_STEPS = 10**7
# Largest |dt L(xi)| whose cube, formed by the closed-form ETDRK4
# coefficients, is a finite float.
_MAX_ETD_ARGUMENT = sys.float_info.max ** (1 / 3)


def _check_dt(grid: GridSpec, p: ModelParams, dt: float) -> None:
    """A step dt must be positive and finite, and keep the largest |dt L(xi)|
    within the range whose cube the closed-form ETDRK4 coefficients form."""
    if not 0 < dt < np.inf:
        raise ParameterError(f"dt must be positive and finite, got {dt}")
    largest = float(np.abs(linear_symbol(grid, p)).max()) * dt
    if not largest <= _MAX_ETD_ARGUMENT:
        raise ParameterError(
            f"dt = {dt} puts |dt L(xi)| at {largest:.6g}, past "
            f"{_MAX_ETD_ARGUMENT:.6g}, where the ETDRK4 coefficients overflow"
        )


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping parameters for one solve.

    t_final must be a whole number of steps dt, and snapshot_stride an
    integer (an int or a numpy integer, not a bool) >= 1; a stride of 2.5,
    nan or 1e300 is a ParameterError.
    """

    params: ModelParams
    grid: GridSpec
    dt: float
    t_final: float
    snapshot_stride: int = 1

    def __post_init__(self):
        _check_dt(self.grid, self.params, self.dt)
        if not self.t_final > 0:
            raise ParameterError(f"t_final must be positive, got {self.t_final}")
        if not (is_integer(self.snapshot_stride) and self.snapshot_stride >= 1):
            raise ParameterError(
                f"snapshot_stride must be an integer >= 1, got {self.snapshot_stride}"
            )
        if not self.t_final / self.dt <= MAX_STEPS:
            raise ParameterError(
                f"t_final / dt = {self.t_final / self.dt:.6g} steps exceeds "
                f"MAX_STEPS = {MAX_STEPS}"
            )
        if abs(self.steps * self.dt - self.t_final) > 1e-12 * self.t_final:
            raise ParameterError(
                f"t_final = {self.t_final} must be a whole number of steps dt = {self.dt}"
            )

    @property
    def steps(self) -> int:
        """The number of steps of size dt that make up t_final."""
        return round(self.t_final / self.dt)

    @property
    def snapshot_steps(self) -> list[int]:
        """The steps a run stores: every snapshot_stride-th from 0, then the
        last, which closes a shorter interval unless the stride divides steps."""
        return [*range(0, self.steps, self.snapshot_stride), self.steps]

    def step_time(self, step: int) -> float:
        """The time of a step: exactly t_final at the last, else step * dt."""
        return self.t_final if step == self.steps else step * self.dt


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded states of one solve, on its config's snapshot schedule.

    ``times`` is built from ``config``: the ``step_time`` of each of its
    ``snapshot_steps``, multiples of snapshot_stride * dt, the last t_final.
    ``coeffs`` is one read-only (n_snapshots, M) matrix, row i holding the
    FFT-order coefficients at times[i]; any other shape is a
    ContractViolationError.  The constructor copies it once, unless it is
    already a read-only C-ordered complex matrix that owns its memory (as
    the solver hands over): nothing can write that without first
    re-enabling writes, so it is taken as it is.
    """

    coeffs: np.ndarray
    config: SolverConfig
    times: np.ndarray = field(init=False)

    def __post_init__(self):
        times = np.array([self.config.step_time(i) for i in self.config.snapshot_steps])
        coeffs = self.coeffs
        if not (
            isinstance(coeffs, np.ndarray)
            and coeffs.dtype == np.complex128
            and coeffs.base is None
            and not coeffs.flags.writeable
            and coeffs.flags.c_contiguous
        ):
            coeffs = np.array(coeffs, dtype=np.complex128)
        if coeffs.shape != (len(times), self.config.grid.modes):
            raise ContractViolationError(
                f"coefficient shape {coeffs.shape} does not match the schedule's "
                f"{len(times)} snapshots and {self.config.grid.modes} modes"
            )
        times.setflags(write=False)
        coeffs.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def states(self) -> tuple[SpectralField, ...]:
        """The snapshots as SpectralFields, built on each access."""
        return tuple(SpectralField(c, self.grid) for c in self.coeffs)

    @property
    def grid(self) -> GridSpec:
        return self.config.grid

    @property
    def params(self) -> ModelParams:
        return self.config.params


def _to_half(coeffs: np.ndarray) -> np.ndarray:
    """The rfft half-spectrum k = 0..M/2 of FFT-order coefficients, read as
    a real field: the negative wavenumbers are implied by conjugation, and
    the zero and Nyquist entries keep only their real parts."""
    h = coeffs[: len(coeffs) // 2 + 1].copy()
    h[0] = h[0].real
    h[-1] = h[-1].real
    return h


def _to_full(h: np.ndarray) -> np.ndarray:
    """FFT-order coefficients of the real fields with half-spectra h along
    the last axis, Hermitian-symmetric exactly."""
    return np.concatenate((h, h[..., -2:0:-1].conj()), axis=-1)


def _multiplier(grid: GridSpec) -> np.ndarray:
    """The factor that takes the rfft of the physical-space square to N on
    rfft half-spectra: the derivative -i xi, the dealias mask and both
    transform scales together.  The strict cutoff drops the Nyquist entry,
    whose mode k = -M/2 pairs with no +M/2 on the lattice."""
    m = grid.modes
    half = m // 2 + 1
    mult = -1j * grid.wavenumbers()[:half] * (m / np.sqrt(grid.box_length))
    mult[~grid.dealias_mask()[:half]] = 0.0
    return mult


def _half_square(
    grid: GridSpec, shape: tuple[int, ...]
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """rfft(irfft(h)**2) on rfft half-spectra of one grid, for states of the
    given shape: N before its multiplier.  The physical-space square lives
    in one preallocated real buffer of shape (*shape[:-1], M), and
    ``sq(h, out)`` returns out, filled.
    """
    m = grid.modes
    w = np.empty((*shape[:-1], m))
    rfft, irfft, multiply = np.fft.rfft, np.fft.irfft, np.multiply

    def sq(h: np.ndarray, out: np.ndarray) -> np.ndarray:
        irfft(h, m, out=w)
        multiply(w, w, out=w)
        return rfft(w, out=out)

    return sq


def nonlinear_term(u: SpectralField) -> SpectralField:
    """N(u) = -d_x(u^2), evaluated pseudospectrally and dealiased."""
    h = _to_half(u.coeffs)
    out = _half_square(u.grid, h.shape)(h, np.empty_like(h))
    return SpectralField(_to_full(np.multiply(_multiplier(u.grid), out, out=out)), u.grid)


def _phi_series(z: np.ndarray, coeffs: tuple[float, ...]) -> np.ndarray:
    """Horner evaluation of sum_k coeffs[k] z^k."""
    out = np.full(z.shape, coeffs[-1], dtype=np.complex128)
    for d in reversed(coeffs[:-1]):
        out = out * z + d
    return out


def _etd_coefficient(z: np.ndarray, closed, series_coeffs) -> np.ndarray:
    """Entire-function coefficient: closed form away from the origin,
    Taylor series inside |z| <= 1 where the closed form cancels."""
    small = np.abs(z) <= 1.0
    out = np.empty(z.shape, dtype=np.complex128)
    zs = z[small]
    out[small] = _phi_series(zs, series_coeffs)
    zb = z[~small]
    out[~small] = closed(zb)
    return out


def _factorials(n: int) -> np.ndarray:
    out = np.ones(n)
    for k in range(2, n):
        out[k] = out[k - 1] * k
    return out


_FACT = _factorials(40)
_N_TERMS = 26
_Q_SERIES = tuple(0.5 ** (k + 1) / _FACT[k + 1] for k in range(_N_TERMS))
_F1_SERIES = tuple(
    4.0 / _FACT[k + 3] - 3.0 / _FACT[k + 2] + 1.0 / _FACT[k + 1]
    for k in range(_N_TERMS)
)
_F2_SERIES = tuple(-2.0 / _FACT[k + 3] + 1.0 / _FACT[k + 2] for k in range(_N_TERMS))
_F3_SERIES = tuple(4.0 / _FACT[k + 3] - 1.0 / _FACT[k + 2] for k in range(_N_TERMS))
# (factor, closed form, series) of q, f1, 2 f2 and f3, each factor dt phi(L dt) N's multiplier
_PHI = (
    (1.0, lambda w: (np.exp(0.5 * w) - 1.0) / w, _Q_SERIES),
    (1.0, lambda w: (-4.0 - w + np.exp(w) * (4.0 - 3.0 * w + w * w)) / w**3, _F1_SERIES),
    (2.0, lambda w: (2.0 + w + np.exp(w) * (w - 2.0)) / w**3, _F2_SERIES),
    (1.0, lambda w: (-4.0 - 3.0 * w - w * w + np.exp(w) * (4.0 - w)) / w**3, _F3_SERIES),
)


class _Stepper:
    """ETDRK4 on the rfft half-spectrum for one grid.

    The tableau has one row per entry of params and dts, and row b of a
    (B, M/2 + 1) state takes a step of dts[b] under params[b]; one run is
    a (1, M/2 + 1) state.
    The tableau comes from the single propagator symbol restricted to
    k = 0..M/2; at the Nyquist entry only its real (dissipative) part is
    kept, so a real state stays exactly real.

    N's multiplier is folded into the coefficients that weigh a stage
    nonlinearity (q, 2 q, f1, 2 f2 and f3), so the stages call ``p``, the
    physical-space square rfft(irfft(h)**2), and never multiply by it.

    The stepper owns its working memory, allocated once in the tableau's
    shape: p0, pa, pb and pc for the stage squares, s and t for the stage
    arithmetic and, inside p, one (rows, M) real buffer.  A
    call steps in place in them, bit for bit as the allocating stage
    formulas of ``__call__``, and returns a new array, never a buffer; so
    one stepper must not be called from two threads at once.
    """

    def __init__(self, grid: GridSpec, params: Sequence[ModelParams], dts: Sequence[float]):
        half = grid.modes // 2 + 1
        sym = np.array([linear_symbol(grid, p)[:half] for p in params])
        dt = np.array(dts)[:, None]
        sym[:, -1] = sym[:, -1].real
        z = dt * sym
        mult = _multiplier(grid)
        self.e_full = np.exp(z)
        self.e_half = np.exp(0.5 * z)
        self.q, self.f1, self.f2_twice, self.f3 = (
            factor * dt * _etd_coefficient(z, closed, series) * mult
            for factor, closed, series in _PHI
        )
        self.q_twice = 2.0 * self.q
        shape = self.e_full.shape
        self.p = _half_square(grid, shape)
        self.p0, self.pa, self.pb, self.pc, self.s, self.t = (
            np.empty(shape, dtype=np.complex128) for _ in range(6)
        )

    def __call__(self, h: np.ndarray) -> np.ndarray:
        """One step of each row of h, returned as a new array.

        The stages are, in this operand order and grouping,
        a = e_half h + q p0, b = e_half h + q pa,
        c = e_half a + (2 q) pb - q p0 and the step
        e_full h + f1 p0 + f2 (pa + pb) + f3 pc summed left to right.  q p0
        waits in t until c; e_half h, then b, then (2 q) pb wait in pc's
        buffer until pc is due.
        """
        p, e_half, q, s, t, w = self.p, self.e_half, self.q, self.s, self.t, self.pc
        mul, add = np.multiply, np.add
        p0 = p(h, self.p0)
        e_h = mul(e_half, h, out=w)
        a = add(e_h, mul(q, p0, out=t), out=s)
        pa = p(a, self.pa)
        b = add(e_h, mul(q, pa, out=self.pb), out=w)
        pb = p(b, self.pb)
        c = add(mul(e_half, a, out=s), mul(self.q_twice, pb, out=w), out=s)
        pc = p(np.subtract(c, t, out=s), self.pc)
        x = mul(self.e_full, h)
        add(x, mul(self.f1, p0, out=s), out=x)
        add(x, mul(self.f2_twice, add(pa, pb, out=s), out=s), out=x)
        return add(x, mul(self.f3, pc, out=s), out=x)


def step(u: SpectralField, dt: float, p: ModelParams) -> SpectralField:
    """One ETDRK4 step of size dt of the real field with coefficients u.

    Only the coefficients of u at k = 0..M/2 are read (the zero and
    Nyquist ones by their real parts), and the result is exactly
    Hermitian-symmetric.  dt is checked as ``SolverConfig`` checks it.
    """
    _check_dt(u.grid, p, dt)
    grid = u.grid
    stepper = _Stepper(grid, [p], [dt])
    return SpectralField(_to_full(stepper(_to_half(u.coeffs)[None])[0]), grid)


# a diverging row overflows on its way to the non-finite state that names its
# step in a DivergenceError; numpy's warnings would only repeat that
@np.errstate(over="ignore", invalid="ignore")
def _march(phi: RealField, cfgs: Sequence[SolverConfig]) -> list[Trajectory]:
    """The stepping loop: phi stepped under each of cfgs, one Trajectory each.

    The configs must share grid and t_final, and each dt must be an integer
    multiple r of the smallest (r * min dt == dt in floating point), else
    ParameterError; non-finite dealiased initial data is an InitialDataError.
    Each run's ``snapshot_steps`` are placed on the ticks before the first.
    Row b takes its step i on tick r_b i of the smallest dt, so each tick
    steps its due rows together under one stepper cached per tuple of due
    rows.  A row that turns non-finite on its step i records the error of
    step i - 1 at the ``step_time`` of i, named by its epsilon and dt, and
    steps on; run 0's is raised at once, any other after the last tick.
    """
    dt0 = min((cfg.dt for cfg in cfgs), default=0.0)
    ratios = [round(cfg.dt / dt0) for cfg in cfgs]
    if (
        not cfgs
        or len({(cfg.grid, cfg.t_final) for cfg in cfgs}) != 1
        or any(r * dt0 != cfg.dt for cfg, r in zip(cfgs, ratios))
    ):
        raise ParameterError(
            "solve_ladder needs one or more configs that share grid and t_final, "
            f"each dt an integer multiple of the smallest; got dt {[c.dt for c in cfgs]}"
        )
    grid = cfgs[0].grid
    if phi.grid != grid:
        raise ContractViolationError("initial data grid does not match solver grid")
    c = np.where(grid.dealias_mask(), forward_transform(phi).coeffs, 0.0)
    if not np.all(np.isfinite(c)):
        raise InitialDataError("initial data has non-finite dealiased coefficients")

    # snapshots: tick -> (run, row) pairs stored after it.  Each run stores
    # into one preallocated matrix that its trajectory takes over without a
    # copy, so a batch holds each snapshot once.
    snapshots, coeffs = {}, []
    for b, (cfg, r) in enumerate(zip(cfgs, ratios)):
        stored = cfg.snapshot_steps
        for row, i in enumerate(stored[1:], 1):
            snapshots.setdefault(r * i, []).append((b, row))
        coeffs.append(np.empty((len(stored), grid.modes), dtype=np.complex128))
        coeffs[b][0] = c

    steppers: dict[tuple, tuple[Callable, object]] = {}  # due rows -> stepper, index
    errors: dict[int, DivergenceError] = {}
    h = np.tile(_to_half(c), (len(cfgs), 1))
    for j in range(1, max(cfg.steps for cfg in cfgs) + 1):  # the finest run's steps
        # from a list: tuple() of a generator fills CPython's tuple free lists
        due = tuple([b for b, r in enumerate(ratios) if not j % r])
        entry = steppers.get(due)
        if entry is None:
            stepper = _Stepper(grid, [cfgs[b].params for b in due], [cfgs[b].dt for b in due])
            # the due rows' index in the state: None for all rows, a slice (a
            # view, cheaper than a list) for one row of several, else a list
            index = list(due) if len(due) > 1 else slice(due[0], due[0] + 1)
            entry = steppers[due] = stepper, None if len(due) == len(cfgs) else index
        stepper, index = entry
        if index is None:
            h = new = stepper(h)
        else:
            h[index] = new = stepper(h[index])
        # one reduction: the squared norm is finite when every entry is, and
        # the exact scan below runs only when it is not (a state past ~1e154
        # overflows it with every entry finite)
        if not math.isfinite(np.vdot(new, new).real):
            for b in map(int, np.flatnonzero(~np.isfinite(h).all(1))):
                if b not in errors:
                    i, cfg = j // ratios[b], cfgs[b]
                    t = cfg.step_time(i)
                    errors[b] = DivergenceError(i - 1, t, b, cfg.params.epsilon, cfg.dt)
            if 0 in errors:
                raise errors[0]
        for b, row in snapshots.get(j, ()):
            coeffs[b][row] = _to_full(h[b])
    if errors:
        raise errors[min(errors)]
    for m in coeffs:
        m.setflags(write=False)
    return [Trajectory(m, cfg) for m, cfg in zip(coeffs, cfgs)]


def solve(phi: RealField, cfg: SolverConfig) -> Trajectory:
    """Integrate from phi to t_final, recording every snapshot_stride steps.

    The initial data is dealiased before stepping; the state is then
    stepped as an rfft half-spectrum, and every stored state after t = 0
    is dealiased and exactly Hermitian-symmetric.  A non-finite state aborts
    with a DivergenceError naming epsilon, dt, the step and its time;
    non-finite initial data is an InitialDataError, raised before any step.
    """
    return _march(phi, [cfg])[0]


def solve_ladder(phi: RealField, cfgs: Sequence[SolverConfig]) -> tuple[Trajectory, ...]:
    """The solves of phi under each of cfgs, stepped together by ``_march``.

    ``_march`` checks the batch: the configs must share grid and t_final,
    and each dt must be an integer multiple of the smallest (dt == r * min
    dt in floating point), else ParameterError; params and snapshot_stride
    may differ.  Each tick of the smallest dt steps the due runs as one
    (B, M/2 + 1) half-spectrum, and trajectory b equals ``solve(phi,
    cfgs[b])`` bit for bit.  If any run turns non-finite, the
    DivergenceError raised is the one ``solve`` raises for the first
    config, in order, that diverges alone: its epsilon, dt, step and time,
    with its index in cfgs as ``run``.
    """
    return tuple(_march(phi, cfgs))


SNAPSHOT_MAGIC = b"KDVBSNAP"


def _write_json(stream, doc: dict) -> None:
    """A little-endian uint32 byte count, then doc as sorted-key JSON."""
    blob = json.dumps(doc, sort_keys=True).encode("utf-8")
    stream.write(struct.pack("<I", len(blob)) + blob)


def _read(stream, size: int) -> bytes:
    blob = stream.read(size)
    if len(blob) != size:
        raise ContractViolationError(f"trajectory ends early: {len(blob)} of {size} bytes read")
    return blob


def _read_json(stream, what: str, checks: dict) -> dict:
    """A length-prefixed JSON object whose entries pass checks {key: predicate};
    anything else is a ContractViolationError naming what."""
    (size,) = struct.unpack("<I", _read(stream, 4))
    try:
        doc = json.loads(_read(stream, size))
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, or nesting too deep
        raise ContractViolationError(f"trajectory {what} is not JSON: {exc}") from None
    if not isinstance(doc, dict) or not all(k in doc and ok(doc[k]) for k, ok in checks.items()):
        raise ContractViolationError(f"trajectory {what} needs {sorted(checks)}, got {doc!r:.200}")
    return doc


def write_trajectory(stream, traj: Trajectory) -> None:
    """Write traj as trajectory.bin: the manifest {count, dt,
    snapshot_stride, params}, then per snapshot the magic "KDVBSNAP", the
    header {box_length, modes, time, epsilon, alpha, normalization} and M
    little-endian float64 collocation values; each JSON length-prefixed."""
    cfg = traj.config
    params = {"epsilon": cfg.params.epsilon, "alpha": cfg.params.alpha}
    manifest = {"count": len(traj.times), "dt": cfg.dt, "snapshot_stride": cfg.snapshot_stride}
    _write_json(stream, {**manifest, "params": params})
    header = {"box_length": cfg.grid.box_length, "modes": cfg.grid.modes, **params}
    values = np.asarray(synthesize(traj.coeffs, cfg.grid.box_length), dtype="<f8")
    for t, row in zip(traj.times, values):
        stream.write(SNAPSHOT_MAGIC)
        _write_json(stream, {**header, "time": float(t), "normalization": "unitary-l2"})
        stream.write(row.tobytes())


def read_trajectory(stream) -> tuple[list[float], list, dict]:
    """Read back a trajectory.bin stream: (times, real fields, manifest).
    A bad magic, a stream that ends early or goes on past the last record,
    and JSON that does not parse, lacks a key the reader uses or has it of
    the wrong kind or out of range (a count below 1: a Trajectory holds at
    least one snapshot; a time that is not finite) are each a
    ContractViolationError."""
    manifest = _read_json(stream, "manifest", {"count": lambda v: is_integer(v) and v > 0})
    times, fields = [], []
    keys = {
        "box_length": is_number,
        "modes": is_integer,
        "time": lambda v: is_number(v) and -math.inf < v < math.inf,
    }
    for _ in range(manifest["count"]):
        magic = _read(stream, len(SNAPSHOT_MAGIC))
        if magic != SNAPSHOT_MAGIC:
            raise ContractViolationError(f"bad snapshot magic {magic!r}")
        header = _read_json(stream, "header", keys)
        try:
            grid = GridSpec(float(header["box_length"]), header["modes"])
            times.append(float(header["time"]))
        except (ParameterError, OverflowError) as exc:
            raise ContractViolationError(f"trajectory header: {exc}") from None
        fields.append(RealField(np.frombuffer(_read(stream, 8 * grid.modes), "<f8"), grid))
    if stream.read(1):
        raise ContractViolationError("trajectory has bytes after its last record")
    return times, fields, manifest
