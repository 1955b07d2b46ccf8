"""Time the stepping layers of kdvb.evolve and print them as one JSON document.

For each M in {256, 384, 1024, 4096} and each batch of 1 and 6 rows, on a
dealiased soliton state (L = 32, alpha = 1, the rows' epsilon 0 to 0.5,
dt = 1e-4), three layers are timed per call:

- ``square_us``: one stage square, ``_half_square(grid, shape)(h, out)``;
- ``stepper_us``: one ``_Stepper`` call, a whole ETDRK4 step;
- ``ffts_us``: the 8 FFT calls a step makes, 4 unscaled irfft
  (norm="forward") and 4 rfft of the state's shape into preallocated
  buffers, the step's FFT floor.

The three are timed in turn within each of ``--repeats`` rounds, each
sample the mean over enough calls that one stepper sample takes about
2 ms, and ``stepper_over_ffts`` is the stepper sample over the FFT sample
of the same round.  Each timing gives the median and quartiles of its
samples, ``raw`` and ``rescaled`` to a fixed machine speed by the
``spectral`` reference burst of benchmarks/reference.py, run before and
after each (M, rows) group: a rescaled time is the raw one times
NOMINAL_S / (mean of the two bursts).  The ratio is dimensionless, so the
rescaling cancels in it and it is given once.

The package is imported from this checkout's src/ directory, and
benchmarks/reference.py is imported without writing bytecode, so nothing
under benchmarks/ changes.  Run from anywhere:

    python tools/layers.py [--repeats 15]
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
sys.dont_write_bytecode, _writes_bytecode = True, sys.dont_write_bytecode
import reference  # noqa: E402

sys.dont_write_bytecode = _writes_bytecode
from kdvb import evolve  # noqa: E402
from kdvb.propagator import ModelParams  # noqa: E402
from kdvb.spectral import GridSpec, RealField, dealias, forward_transform  # noqa: E402

MODES = (256, 384, 1024, 4096)
ROWS = (1, 6)
BOX_LENGTH = 32.0
DT = 1e-4
# calls per sample: enough that one stepper sample takes about this long
SAMPLE_S = 2e-3


def _state(grid: GridSpec, rows: int) -> np.ndarray:
    """A dealiased c = 4 soliton's half-spectrum, row b scaled by 1 + b / 10."""
    x = grid.collocation_points() - grid.box_length / 4.0
    u = RealField(2.0 / np.cosh(x) ** 2, grid)
    h = evolve._to_half(dealias(forward_transform(u)).coeffs)
    return np.outer(1.0 + np.arange(rows) / 10.0, h)


def _fft_floor(m: int, h: np.ndarray):
    """The 8 FFT calls of one step, into buffers of the step's shapes."""
    w = np.empty((*h.shape[:-1], m))
    out = np.empty_like(h)
    rfft, irfft = np.fft.rfft, np.fft.irfft

    def ffts():
        for _ in range(4):
            irfft(h, m, norm="forward", out=w)
            rfft(w, out=out)

    return ffts


def _per_call(fn, number: int) -> float:
    start = time.perf_counter()
    for _ in range(number):
        fn()
    return (time.perf_counter() - start) / number


def _quartiles(samples: list[float], scale: float = 1.0) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median": median * scale, "q1": q1 * scale, "q3": q3 * scale}


def time_group(modes: int, rows: int, repeats: int) -> dict:
    """One (M, rows) entry of the table."""
    grid = GridSpec(box_length=BOX_LENGTH, modes=modes)
    params = [ModelParams(0.1 * b, 1.0) for b in range(rows)]
    stepper = evolve._Stepper(grid, params, [DT] * rows)
    h = _state(grid, rows)
    square = evolve._half_square(grid, h.shape)
    out = np.empty_like(h)
    layers = {
        "square_us": lambda: square(h, out),
        "stepper_us": lambda: stepper(h),
        "ffts_us": _fft_floor(modes, h),
    }
    for fn in layers.values():
        fn()
    number = max(1, math.ceil(SAMPLE_S / _per_call(layers["stepper_us"], 3)))
    bursts = [reference.burst("spectral")]
    samples = {name: [] for name in layers}
    for _ in range(repeats):
        for name, fn in layers.items():
            samples[name].append(_per_call(fn, number) * 1e6)
    bursts.append(reference.burst("spectral"))
    scale = reference.NOMINAL_S["spectral"] / statistics.mean(bursts)
    entry = {"modes": modes, "rows": rows, "calls_per_sample": number, "burst_s": bursts}
    for name, values in samples.items():
        entry[name] = {"raw": _quartiles(values), "rescaled": _quartiles(values, scale)}
    ratios = [s / f for s, f in zip(samples["stepper_us"], samples["ffts_us"])]
    entry["stepper_over_ffts"] = _quartiles(ratios)
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=15, help="samples per timing, >= 2")
    args = parser.parse_args(argv)
    if args.repeats < 2:
        parser.error(f"--repeats must be at least 2, got {args.repeats}")
    table = [time_group(m, rows, args.repeats) for m in MODES for rows in ROWS]
    doc = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "repeats": args.repeats,
        "nominal_s": reference.NOMINAL_S["spectral"],
        "layers": table,
    }
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
