"""Benchmark of the kdvb package on three workloads.

    python3 benchmarks/run.py --workload {transport,ensemble,calculus}
        --seed N --seconds S --trace {0,1}

Run from the root of a kdvb checkout; the package is imported from its
``src/`` directory, so nothing needs installing.  One process, numpy
threads capped at 1.

Set-up (importing kdvb afresh, generating and parsing the pass-0
configs, and for ``calculus`` building the criterion-09 trajectories) runs
``SETUP_REPEATS`` times, spread over the run; ``setup_s`` is the median.
Passes over the workload's operations run back to back (a closed loop,
one caller) until the next pass would end past ``--seconds``.  Each
operation's outputs are checked against the acceptance suite's tolerances
after it is timed; a miss, an exception or a non-zero exit counts as a
failed operation.

Every timing is rescaled to a fixed machine speed by the reference bursts
of ``reference.py`` run just before and after it (see there for why); the
raw wall times are printed in the ``env`` line.

With ``--trace 0`` the end-to-end metrics are printed: the median pass
time, the set-up time and the peak resident memory.  With ``--trace 1``
half the time runs untraced passes and half runs traced ones, and the
per-layer metrics of the traced passes are printed, with the tracing
overhead as ``trace.overhead_ratio``; the spans are written to
``benchmarks/traces/<workload>.npz`` at the end.  The last line of
standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
KDVB_MODULES = (
    "cli", "evolve", "experiments", "imethod", "norms", "propagator",
    "reports", "sharpness", "spectral",
)
SETUP_REPEATS = 5
# A reference burst runs before a pass when this long has passed since the last.
BURST_INTERVAL_S = 1.0
# Traced passes take their inputs from pass indices starting here, so the
# first traced pass has the same inputs in every traced run of one seed.
TRACE_PASS_BASE = 1_000_000


class Gauge:
    """Reference bursts taken between measurements.  A measurement made
    after burst i is rescaled by the mean of bursts i - 1 to i + 2, the two
    before it and the two after: single bursts are noisier than a pass."""

    def __init__(self, kind: str):
        self.kind = kind
        self.bursts: list[float] = []
        self._last = -math.inf

    def take(self, force: bool = False) -> int:
        """Run a burst if forced or due; return the index of the latest."""
        if force or time.perf_counter() - self._last >= BURST_INTERVAL_S:
            self.bursts.append(reference.burst(self.kind))
            self._last = time.perf_counter()
        return len(self.bursts) - 1

    def scaled(self, measured: list[tuple[float, int]]) -> list[float]:
        nominal = reference.NOMINAL_S[self.kind]
        return [
            seconds * nominal / statistics.mean(self.bursts[max(i - 1, 0):i + 3])
            for seconds, i in measured
        ]


def import_kdvb(baseline: set[str]) -> SimpleNamespace:
    """Import kdvb as a fresh interpreter would: every module of a package
    that the benchmark itself had not imported (kdvb, and whatever kdvb
    brings in) is dropped first."""
    for name in [n for n in sys.modules if n.partition(".")[0] not in baseline]:
        del sys.modules[name]
    return SimpleNamespace(
        **{name: importlib.import_module(f"kdvb.{name}") for name in KDVB_MODULES}
    )


class Bench:
    """One run: the kdvb modules and set-up products the passes use, the
    speed gauge, and the set-up timings."""

    def __init__(self, workload: str, seed: int, scratch: Path):
        self.workload, self.seed, self.scratch = workload, seed, scratch
        self.baseline = {name.partition(".")[0] for name in sys.modules}
        self.gauge = Gauge(workloads.REFERENCE_KIND[workload])
        self.setups: list[tuple[float, int]] = []
        sys.path.insert(0, str(SRC))
        self.set_up()
        origin = Path(self.kdvb.cli.__file__).resolve()
        if SRC.resolve() not in origin.parents:
            raise RuntimeError(f"kdvb imported from {origin}, not from {SRC}")

    def set_up(self) -> None:
        """Import kdvb afresh, parse the pass-0 configs, build set-up state."""
        before = self.gauge.take()
        t0 = time.perf_counter()
        kdvb = import_kdvb(self.baseline)
        for doc in workloads.CONFIGS[self.workload](self.seed, 0).values():
            kdvb.cli.parse_config(json.dumps(doc))
        state = workloads.setup_state(kdvb, self.workload)
        self.setups.append((time.perf_counter() - t0, before))
        self.gauge.take(force=True)
        self.kdvb, self.state = kdvb, state

    def operations(self, index: int) -> list[workloads.Operation]:
        return workloads.operations(
            self.kdvb, self.workload, self.seed, index, self.scratch / f"pass{index}", self.state
        )


class Passes:
    """Pass timings, operation counts and failures of one phase of a run."""

    def __init__(self, bench: Bench):
        self.bench = bench
        self.timed: list[tuple[float, int]] = []  # (seconds, burst index before)
        self.attempted = 0
        self.failed = 0

    def run(self, first_index: int, budget_s: float, tracer=None,
            set_up_between: bool = False) -> None:
        """Run passes until the next one would end past budget_s.  With
        set_up_between, further set-ups are spread evenly over the phase,
        so that their median is not taken from one stretch of time."""
        bench = self.bench
        start = time.perf_counter()
        while not self.timed or (
            time.perf_counter() - start + self.median_wall() <= budget_s
        ):
            before = bench.gauge.take()
            index = first_index + len(self.timed)
            ops = bench.operations(index)
            if tracer is None:
                broken, elapsed = self._execute(ops)
            else:
                broken, elapsed = tracer.run_pass(lambda: self._execute(ops, tracer))
            self.timed.append((elapsed, before))
            for op in ops:
                if op.name in broken:
                    continue
                try:
                    op.check()
                except (workloads.CheckFailed, OSError, KeyError, ValueError) as exc:
                    self._fail(op.name, exc)
            shutil.rmtree(bench.scratch / f"pass{index}", ignore_errors=True)
            done = len(bench.setups)
            if set_up_between and done < SETUP_REPEATS and (
                time.perf_counter() - start >= budget_s * done / SETUP_REPEATS
            ):
                bench.set_up()
        bench.gauge.take(force=True)
        while set_up_between and len(bench.setups) < SETUP_REPEATS:
            bench.set_up()

    def _execute(self, ops, tracer=None) -> tuple[set[str], float]:
        """Execute the operations; return those that raised and the time taken."""
        broken = set()
        elapsed = 0.0
        for op in ops:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                written = op.execute()
            except Exception as exc:  # a failed operation is counted, not fatal
                elapsed += time.perf_counter() - t0
                broken.add(op.name)
                self._fail(op.name, exc)
                continue
            elapsed += time.perf_counter() - t0
            if tracer is not None:
                tracer.counts["cli.artifact_bytes"] += written
        return broken, elapsed

    def _fail(self, name: str, exc: Exception) -> None:
        self.failed += 1
        print(f"FAILED {name}: {type(exc).__name__}: {exc}", file=sys.stderr)

    def wall_times(self) -> list[float]:
        return [seconds for seconds, _ in self.timed]

    def median_wall(self) -> float:
        return statistics.median(self.wall_times())

    def median(self) -> float:
        """Median pass time at nominal machine speed."""
        return statistics.median(self.bench.gauge.scaled(self.timed))


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


LAYER_UNITS = {
    "calls": "count", "steps": "count", "snapshots": "count", "bytes": "bytes",
    "constructed": "count", "solves": "count", "ledger_snapshots": "count",
    "samples": "count", "cells": "count", "artifact_bytes": "bytes",
    "copy_bytes_computed": "bytes", "flops_computed": "flop", "busy_s": "s",
    "self_s": "s", "step_us": "us", "us_per_1e4_samples": "us",
    "share_of_solve": "ratio", "overhead_ratio": "ratio",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CONFIGS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / "kdvb" / "__init__.py").is_file():
        print(f"error: no kdvb package under {SRC}; run from a kdvb checkout",
              file=sys.stderr)
        return 2

    # on SIGTERM, unwind through the finally below so the scratch is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    scratch = Path(tempfile.mkdtemp(prefix=".scratch-", dir=BENCH_DIR))
    try:
        bench = Bench(args.workload, args.seed, scratch)
        untraced = Passes(bench)
        if args.trace:
            untraced.run(0, args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            traced = Passes(bench)
            try:
                traced.run(TRACE_PASS_BASE, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            layer = tracer.layer_metrics(untraced.median(), traced.median())
            metrics = {
                name: metric(value, LAYER_UNITS[name.rsplit(".", 1)[1]])
                for name, value in layer.items()
            }
            trace_dir = BENCH_DIR / "traces"
            trace_dir.mkdir(exist_ok=True)
            np.savez(trace_dir / f"{args.workload}.npz", **tracer.span_table())
            phases = [untraced, traced]
        else:
            untraced.run(0, args.seconds, set_up_between=True)
            metrics = {
                "pass_s": metric(untraced.median(), "s"),
                "setup_s": metric(statistics.median(bench.gauge.scaled(bench.setups)), "s"),
                "peak_rss_mb": metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
                ),
            }
            phases = [untraced]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    env = {
        "git_sha": git_sha(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": [len(p.timed) for p in phases],
        "pass_wall_s": [p.wall_times() for p in phases],
        "pass_burst_index": [[i for _, i in p.timed] for p in phases],
        "setup_wall_s": [seconds for seconds, _ in bench.setups],
        "setup_burst_index": [i for _, i in bench.setups],
        "burst_s": bench.gauge.bursts,
    }
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print("env " + json.dumps(env))
    failed = sum(p.failed for p in phases)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(p.attempted for p in phases),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
