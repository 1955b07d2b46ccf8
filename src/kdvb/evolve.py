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

The state is stepped as the real-FFT half-spectrum: the M/2 + 1
coefficients k = 0..M/2 of a real field, the negative wavenumbers being
their conjugates.  Full FFT order appears only in a stored snapshot (one
row of the trajectory's coefficient matrix, rebuilt exactly
Hermitian-symmetric after t = 0) and in the public ``step`` and
``nonlinear_term``.  The Nyquist entry stands for both k = -M/2 and
k = M/2; its derivative factor is 0 and its linear symbol keeps only the
dissipative real part, so it stays real.

One stepping loop serves both entries.  ``solve`` steps a 1-D
(M/2 + 1,) state.  ``solve_ladder`` steps B runs that share the grid and
t_final as one (B, M/2 + 1) array, one tableau row per run; their
params and snapshot strides may differ, and so may their dt, each an
integer multiple of the smallest.  The loop ticks at the smallest dt and
steps the rows that are due on each tick together, so a run with twice
the step rides on every other tick.  Every stage acts on each element or
along the last axis, so each row is bit for bit the single solve of its
run, while the 8 FFT calls and about 25 stage operations of a tick are
paid once for all its rows.  A batch shares the grid because the FFT
length and the tableau's wavenumbers are the grid's, which is why the
rescaled run of ``scaling_check`` (a larger box with more modes) stays
single.  Batched together are the epsilon = 0 reference, the ladder and
the dt/2 floor of ``inviscid_sweep``, the ladder of ``h1_bound_check``
and the energy run with its dt/2 refinement.  A row that turns
non-finite records its own DivergenceError; the first run that diverges
raises its error once the runs before it have finished, as its single
solve would.
"""

from __future__ import annotations

import json
import struct
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ContractViolationError, DivergenceError, ParameterError
from .propagator import ModelParams, linear_symbol
from .spectral import (
    GridSpec,
    RealField,
    SpectralField,
    forward_transform,
    synthesize,
)

Nonlinearity = Callable[[np.ndarray], np.ndarray]

# Largest number of time steps one solve may take.  Steps are counted, not
# listed, so memory does not bound the count; time does: at 60-400 us a
# step (M = 256 to 4096), 10**7 steps take 10 minutes to an hour, and a
# larger count is a mistaken dt or t_final.
MAX_STEPS = 10**7
# Largest |dt L(xi)| whose cube, formed by the closed-form ETDRK4
# coefficients, is a finite float.
_MAX_ETD_ARGUMENT = sys.float_info.max ** (1 / 3)


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping parameters for one solve."""

    params: ModelParams
    grid: GridSpec
    dt: float
    t_final: float
    snapshot_stride: int = 1

    def __post_init__(self):
        if not self.dt > 0:
            raise ParameterError(f"dt must be positive, got {self.dt}")
        if not self.t_final > 0:
            raise ParameterError(f"t_final must be positive, got {self.t_final}")
        if self.dt > self.t_final:
            raise ParameterError(
                f"dt = {self.dt} exceeds t_final = {self.t_final}"
            )
        if self.snapshot_stride < 1:
            raise ParameterError(
                f"snapshot_stride must be >= 1, got {self.snapshot_stride}"
            )
        if not self.t_final / self.dt <= MAX_STEPS:
            raise ParameterError(
                f"t_final / dt = {self.t_final / self.dt:.6g} steps exceeds "
                f"MAX_STEPS = {MAX_STEPS}"
            )
        largest = float(np.abs(linear_symbol(self.grid, self.params)).max()) * self.dt
        if not largest <= _MAX_ETD_ARGUMENT:
            raise ParameterError(
                f"dt = {self.dt} puts |dt L(xi)| at {largest:.6g}, past "
                f"{_MAX_ETD_ARGUMENT:.6g}, where the ETDRK4 coefficients overflow"
            )


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded states of one solve, uniformly spaced in time.

    Snapshots sit at multiples of snapshot_stride * dt starting from 0;
    the final interval may be shorter when t_final is not a multiple.
    ``coeffs`` is one read-only (n_snapshots, M) matrix, row i holding the
    FFT-order coefficients at times[i].  The constructor copies it once,
    unless it is already a read-only C-ordered complex matrix that owns
    its memory (as the solver hands over): nothing can write that without
    first re-enabling writes, so it is taken as it is.
    """

    times: np.ndarray
    coeffs: np.ndarray
    config: SolverConfig

    def __post_init__(self):
        times = np.array(self.times, dtype=np.float64)
        coeffs = self.coeffs
        if not (
            isinstance(coeffs, np.ndarray)
            and coeffs.dtype == np.complex128
            and coeffs.base is None
            and not coeffs.flags.writeable
            and coeffs.flags.c_contiguous
        ):
            coeffs = np.array(coeffs, dtype=np.complex128)
        if times.ndim != 1 or coeffs.shape != (len(times), self.config.grid.modes):
            raise ContractViolationError(
                f"coefficient shape {coeffs.shape} does not match times length "
                f"{times.shape} and {self.config.grid.modes} modes"
            )
        if len(times) == 0 or times[0] != 0.0:
            raise ContractViolationError("trajectory must start at t = 0")
        if np.any(np.diff(times) <= 0):
            raise ContractViolationError("trajectory times must be increasing")
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


def _half_nonlinearity(grid: GridSpec) -> Nonlinearity:
    """N on rfft half-spectra of one grid.

    One cached multiplier folds the derivative -i xi, the dealias mask and
    both transform scales together; the strict cutoff drops the Nyquist
    entry, whose mode k = -M/2 pairs with no +M/2 on the lattice.
    """
    m = grid.modes
    half = m // 2 + 1
    mult = -1j * grid.wavenumbers()[:half] * (m / np.sqrt(grid.box_length))
    mult[~grid.dealias_mask()[:half]] = 0.0
    rfft, irfft = np.fft.rfft, np.fft.irfft

    def nl(h: np.ndarray) -> np.ndarray:
        w = irfft(h, m)
        return mult * rfft(w * w)

    return nl


def nonlinear_term(u: SpectralField) -> SpectralField:
    """N(u) = -d_x(u^2), evaluated pseudospectrally and dealiased."""
    return SpectralField(
        _to_full(_half_nonlinearity(u.grid)(_to_half(u.coeffs))), u.grid
    )


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


class _Stepper:
    """ETDRK4 on the rfft half-spectrum for one grid.

    The tableau has one row per entry of params and dts, and row b of a
    (B, M/2 + 1) state takes a step of dts[b] under params[b]; a single
    entry gives a 1-D tableau that steps a (M/2 + 1,) state, the faster
    shape for one run.
    The tableau comes from the single propagator symbol restricted to
    k = 0..M/2; at the Nyquist entry only its real (dissipative) part is
    kept, so a real state stays exactly real.  ``nl`` maps half-spectra to
    half-spectra along the last axis and defaults to N.
    """

    def __init__(
        self,
        grid: GridSpec,
        params: Sequence[ModelParams],
        dts: Sequence[float],
        nl: Nonlinearity | None = None,
    ):
        self.nl = _half_nonlinearity(grid) if nl is None else nl
        half = grid.modes // 2 + 1
        sym = np.array([linear_symbol(grid, p)[:half] for p in params])
        if len(params) == 1:
            sym, dt = sym[0], dts[0]
        else:
            dt = np.array(dts)[:, None]
        sym[..., -1] = sym[..., -1].real
        z = dt * sym
        self.e_full = np.exp(z)
        self.e_half = np.exp(0.5 * z)
        self.q = dt * _etd_coefficient(
            z, lambda w: (np.exp(0.5 * w) - 1.0) / w, _Q_SERIES
        )
        self.f1 = dt * _etd_coefficient(
            z,
            lambda w: (-4.0 - w + np.exp(w) * (4.0 - 3.0 * w + w * w)) / w**3,
            _F1_SERIES,
        )
        self.f2_twice = 2.0 * dt * _etd_coefficient(
            z,
            lambda w: (2.0 + w + np.exp(w) * (w - 2.0)) / w**3,
            _F2_SERIES,
        )
        self.f3 = dt * _etd_coefficient(
            z,
            lambda w: (-4.0 - 3.0 * w - w * w + np.exp(w) * (4.0 - w)) / w**3,
            _F3_SERIES,
        )

    def __call__(self, h: np.ndarray) -> np.ndarray:
        """One step of each row of h."""
        nl, e_half, q = self.nl, self.e_half, self.q
        n0 = nl(h)
        e_h = e_half * h
        a = e_h + q * n0
        na = nl(a)
        nb = nl(e_h + q * na)
        nc = nl(e_half * a + q * (2.0 * nb - n0))
        return self.e_full * h + self.f1 * n0 + self.f2_twice * (na + nb) + self.f3 * nc


def step(
    u: SpectralField,
    dt: float,
    p: ModelParams,
    nonlinearity: Nonlinearity | None = None,
) -> SpectralField:
    """One ETDRK4 step of size dt of the real field with coefficients u.

    Only the coefficients of u at k = 0..M/2 are read (the zero and
    Nyquist ones by their real parts), and the result is exactly
    Hermitian-symmetric.  ``nonlinearity`` maps rfft half-spectra to
    half-spectra and defaults to N; passing a substitute (for instance
    ``zero_nonlinearity``) isolates the linear flow, which this scheme
    reproduces exactly.
    """
    if not dt > 0:
        raise ParameterError(f"dt must be positive, got {dt}")
    grid = u.grid
    stepper = _Stepper(grid, [p], [dt], nonlinearity)
    return SpectralField(_to_full(stepper(_to_half(u.coeffs))), grid)


# a diverging row overflows on its way to the non-finite state that names its
# step in a DivergenceError; numpy's warnings would only repeat that
@np.errstate(over="ignore", invalid="ignore")
def _march(
    phi: RealField,
    cfgs: Sequence[SolverConfig],
    nonlinearity: Nonlinearity | None,
) -> list[tuple[list[float], np.ndarray]]:
    """The stepping loop: phi stepped under each of cfgs, which share grid
    and t_final and whose dt are integer multiples of the smallest.

    The loop ticks at the smallest dt; row b, with ratio r = dt_b / min dt,
    takes its step i on tick r i, so on each tick the due rows step
    together, with one stepper cached per set of due steps.  A row that
    turns non-finite on its step i records the error of step i - 1 and
    steps on.  Returns per config the snapshot times and the
    (snapshots, M) matrix of the stored states in FFT order.
    """
    grid = cfgs[0].grid
    if phi.grid != grid:
        raise ContractViolationError("initial data grid does not match solver grid")
    c = np.where(grid.dealias_mask(), forward_transform(phi).coeffs, 0.0)

    dt0 = min(cfg.dt for cfg in cfgs)
    # plans: per run its ratio r = dt / dt0, full steps, all steps n, dt and
    # short last step (0 when t_final is a multiple of dt).  snapshots: tick
    # -> rows that store a snapshot after it.  Each row stores into one
    # preallocated matrix that its trajectory takes over without a copy, so
    # a batch holds each snapshot once.
    plans, snapshots, runs = [], {}, []
    for b, cfg in enumerate(cfgs):
        n_full, rem = divmod(cfg.t_final, cfg.dt)
        n_full = int(n_full)
        if rem < 1e-12 * cfg.dt and n_full > 0:
            rem = 0.0
        r, n = round(cfg.dt / dt0), n_full + (rem > 0)
        plans.append((r, n_full, n, cfg.dt, rem))
        stored = [*range(cfg.snapshot_stride, n, cfg.snapshot_stride), n]
        for i in stored:
            snapshots.setdefault(r * i, []).append(b)
        coeffs = np.empty((len(stored) + 1, grid.modes), dtype=np.complex128)
        coeffs[0] = c
        runs.append(([0.0], coeffs))
    ends = [r * n for r, _, n, _, _ in plans]  # the tick of each run's last step

    def t_after(b: int, i: int) -> float:  # the time of run b after its step i
        return cfgs[b].t_final if i == plans[b][2] else i * cfgs[b].dt

    nl = _half_nonlinearity(grid) if nonlinearity is None else nonlinearity
    steppers: dict[tuple, tuple[Callable, object]] = {}  # due steps -> stepper, rows
    errors: dict[int, DivergenceError] = {}
    h = _to_half(c)
    if len(cfgs) > 1:
        h = np.tile(h, (len(cfgs), 1))
    for j in range(1, max(ends) + 1):
        # from a list: tuple() of a generator fills CPython's tuple free lists
        due = tuple(
            [
                None if j % r or j > r * n else dt if j <= r * n_full else rem
                for r, n_full, n, dt, rem in plans
            ]
        )
        entry = steppers.get(due)
        if entry is None:
            rows = [b for b, d in enumerate(due) if d is not None]
            stepper = (
                _Stepper(grid, [cfgs[b].params for b in rows], [due[b] for b in rows], nl)
                if rows
                else lambda h: h  # every row waits for a coarser step
            )
            # the due rows' index in the state: None for all rows, an int for
            # one row of several (stepped as a 1-D view), else a list
            index = None if len(rows) == len(due) else rows[0] if len(rows) == 1 else rows
            entry = steppers[due] = stepper, index
        stepper, index = entry
        if index is None:
            h = new = stepper(h)
        else:
            h[index] = new = stepper(h[index])
        if not np.isfinite(new).all():
            for b in map(int, np.flatnonzero(~np.isfinite(h.reshape(len(cfgs), -1)).all(1))):
                if b not in errors:
                    i = j // plans[b][0]
                    errors[b] = DivergenceError(step_index=i - 1, time=t_after(b, i))
                    errors[b].run = b
        if errors and max(ends[: min(errors)], default=0) <= j:
            raise errors[min(errors)]
        for b in snapshots.get(j, ()):
            times, coeffs = runs[b]
            coeffs[len(times)] = _to_full(h if len(cfgs) == 1 else h[b])
            times.append(t_after(b, j // plans[b][0]))
    for _, coeffs in runs:
        coeffs.setflags(write=False)
    return runs


def solve(
    phi: RealField,
    cfg: SolverConfig,
    nonlinearity: Nonlinearity | None = None,
) -> Trajectory:
    """Integrate from phi to t_final, recording every snapshot_stride steps.

    The initial data is dealiased before stepping; the state is then
    stepped as an rfft half-spectrum, and every stored state after t = 0
    is dealiased and exactly Hermitian-symmetric.  A non-finite state
    aborts with a DivergenceError naming the step.
    """
    ((times, coeffs),) = _march(phi, [cfg], nonlinearity)
    return Trajectory(times, coeffs, cfg)


def solve_ladder(phi: RealField, cfgs: Sequence[SolverConfig]) -> tuple[Trajectory, ...]:
    """The solves of phi under each of cfgs, stepped together.

    The configs must share grid and t_final, and each dt must be an
    integer multiple of the smallest (dt == r * min dt in floating point);
    params and snapshot_stride may differ.  Each tick of the smallest dt
    steps the due runs as one (B, M/2 + 1) half-spectrum (one run as a 1-D
    state), and trajectory b equals ``solve(phi, cfgs[b])`` bit for bit.
    If any run turns non-finite, the DivergenceError raised is the one
    ``solve`` raises for the first config, in order, that diverges alone:
    its step and time, with its index in cfgs as ``run``.
    """
    dt0 = min((cfg.dt for cfg in cfgs), default=0.0)
    if (
        not cfgs
        or len({(cfg.grid, cfg.t_final) for cfg in cfgs}) != 1
        or any(round(cfg.dt / dt0) * dt0 != cfg.dt for cfg in cfgs)
    ):
        raise ParameterError(
            "solve_ladder needs one or more configs that share grid and t_final, "
            f"each dt an integer multiple of the smallest; got dt {[c.dt for c in cfgs]}"
        )
    return tuple(Trajectory(*run, cfg) for run, cfg in zip(_march(phi, cfgs, None), cfgs))


def zero_nonlinearity(c: np.ndarray) -> np.ndarray:
    """Substitute nonlinearity that switches the quadratic term off."""
    return np.zeros_like(c)


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
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ContractViolationError(f"trajectory {what} is not JSON: {exc}") from None
    if not isinstance(doc, dict) or not all(k in doc and ok(doc[k]) for k, ok in checks.items()):
        raise ContractViolationError(f"trajectory {what} needs {sorted(checks)}, got {doc!r:.200}")
    return doc


def _is_number(value) -> bool:
    return type(value) in (int, float)  # a JSON true or false is not one


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
    the wrong kind or out of range are each a ContractViolationError."""
    manifest = _read_json(stream, "manifest", {"count": lambda v: type(v) is int and v >= 0})
    times, fields = [], []
    keys = {"box_length": _is_number, "modes": lambda v: type(v) is int, "time": _is_number}
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
