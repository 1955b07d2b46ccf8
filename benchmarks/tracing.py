"""Span tracing installed from outside the package, for the traced run only.

``install`` rebinds the public functions of each kdvb layer, wherever a
kdvb module holds a reference to them (``from ... import`` copies such as
``kdvb.cli.solve`` and ``kdvb.experiments.solve`` included), plus
``numpy.fft.fft``/``ifft``, ``GridSpec.integer_wavenumbers`` and the
``SpectralField`` constructor.  Every wrapped call appends one span
(name, parent, start, end) to in-memory arrays; nothing is written while
passes run.  ``Tracer.layer_metrics`` folds the spans into per-pass busy
and self times, and counters come from the same wrappers.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (span name, module, attribute): module-level functions of each layer.
FUNCTIONS = (
    ("evolve.solve", "kdvb.evolve", "solve"),
    ("evolve.nonlinear_term", "kdvb.evolve", "nonlinear_term"),
    ("evolve.write_trajectory", "kdvb.evolve", "write_trajectory"),
    ("spectral.transform", "kdvb.spectral", "forward_transform"),
    ("spectral.transform", "kdvb.spectral", "inverse_transform"),
    ("propagator.propagator_multiplier", "kdvb.propagator", "propagator_multiplier"),
    ("experiments.sweep", "kdvb.experiments", "inviscid_sweep"),
    ("experiments.sweep", "kdvb.experiments", "h1_bound_check"),
    ("experiments.sweep", "kdvb.experiments", "scaling_check"),
    ("experiments.initial_data", "kdvb.experiments", "soliton_initial_data"),
    ("experiments.initial_data", "kdvb.experiments", "gaussian_initial_data"),
    ("experiments.initial_data", "kdvb.experiments", "power_law_initial_data"),
    ("norms.build_energy_ledger", "kdvb.norms", "build_energy_ledger"),
    ("norms.sobolev_norm", "kdvb.norms", "sobolev_norm"),
    ("norms.hamiltonian", "kdvb.norms", "hamiltonian"),
    ("imethod.m4_bound_sample", "kdvb.imethod", "m4_bound_sample"),
    ("imethod.denergy_identity_residual", "kdvb.imethod", "denergy_identity_residual"),
    ("sharpness.build_counterexample", "kdvb.sharpness", "build_counterexample"),
    ("sharpness.bilinear_functional", "kdvb.sharpness", "bilinear_functional"),
    ("cli.parse_config", "kdvb.cli", "parse_config"),
    ("cli.run", "kdvb.cli", "run"),
    ("fft", "numpy.fft", "fft"),
    ("fft", "numpy.fft", "ifft"),
)

PASS_SPAN = "bench.pass"


def solve_step_count(cfg) -> int:
    """ETDRK4 steps of one solve, fixed by its dt and t_final (the same
    split into full steps plus a remainder step that the solver makes)."""
    n_full, remainder = divmod(cfg.t_final, cfg.dt)
    n_full = int(n_full)
    if remainder < 1e-12 * cfg.dt and n_full > 0:
        remainder = 0.0
    return n_full + (1 if remainder > 0 else 0)


def _fft_flops(a, n=None, axis=-1, *_, **__) -> float:
    """5 N log2 N per transform of length N (computed, not measured)."""
    shape = np.shape(a)
    length = n if n is not None else shape[axis]
    count = int(np.prod(shape)) // max(shape[axis], 1)
    return 5.0 * length * math.log2(length) * count if length > 1 else 0.0


class Tracer:
    """In-memory span store plus the counters taken at the same wrappers."""

    def __init__(self):
        self.name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts = Counter()
        self.pass_counts: list[Counter] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        return self.name_ids.setdefault(name, len(self.name_ids))

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1])
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self.stack.pop()
        self.span_start[idx] = t0
        self.span_end[idx] = t1

    def span(self, name: str, fn, before=None, after=None):
        """Wrap fn in a span.  Counter hooks see the call's bound arguments:
        before(args) runs first and its value is passed on to
        after(args, result, state)."""
        name_id = self._name_id(name)
        perf = time.perf_counter
        sig = inspect.signature(fn) if after is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                state = before(bound.arguments) if before is not None else None
            idx = self._open(name_id)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, t0, perf())
            if sig is not None:
                after(bound.arguments, result, state)
            return result

        return wrapper

    def run_pass(self, body):
        """Run one traced pass under a root span; keep its counters."""
        self.counts = Counter()
        idx = self._open(self._name_id(PASS_SPAN))
        t0 = time.perf_counter()
        try:
            return body()
        finally:
            self._close(idx, t0, time.perf_counter())
            self.pass_counts.append(self.counts)

    # -- installation ------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        """Point every kdvb (and numpy.fft) name bound to original at wrapper."""
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "kdvb" or mod_name.startswith("kdvb.") or mod_name == "numpy.fft"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _set_class_attr(self, cls, attr: str, value) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, value)

    def install(self) -> None:
        def after_solve(a, traj, _):
            self.counts["evolve.steps"] += solve_step_count(a["cfg"])
            self.counts["evolve.snapshots"] += len(traj.states)

        def after_write(a, _, start):
            self.counts["evolve.write_trajectory.bytes"] += a["stream"].tell() - start

        def after_ledger(a, *_):
            self.counts["norms.ledger_snapshots"] += len(a["traj"].states)

        def after_m4(a, *_):
            self.counts["imethod.samples"] += a["n_samples"] * len(a["dyadic_config"].n1_ladder)

        def after_bilinear(a, *_):
            self.counts["sharpness.cells"] += len(a["f"].xi_idx)

        hooks = {
            "solve": (None, after_solve),
            "write_trajectory": (lambda a: a["stream"].tell(), after_write),
            "build_energy_ledger": (None, after_ledger),
            "m4_bound_sample": (None, after_m4),
            "bilinear_functional": (None, after_bilinear),
        }
        for name, mod_name, attr in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            if name == "fft":
                wrapper = self._fft_span(original)
            else:
                wrapper = self.span(name, original, *hooks.get(attr, (None, None)))
            self._rebind(original, wrapper)

        spectral = sys.modules["kdvb.spectral"]
        self._set_class_attr(
            spectral.GridSpec,
            "integer_wavenumbers",
            self.span("spectral.integer_wavenumbers", spectral.GridSpec.integer_wavenumbers),
        )
        post_init = spectral.SpectralField.__post_init__

        def counted_post_init(field):
            post_init(field)
            self.counts["spectral.SpectralField.constructed"] += 1
            self.counts["spectral.copy_bytes_computed"] += field.coeffs.nbytes

        self._set_class_attr(spectral.SpectralField, "__post_init__", counted_post_init)

    def _fft_span(self, original):
        traced = self.span("fft", original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.counts["fft.flops_computed"] += _fft_flops(*args, **kwargs)
            return traced(*args, **kwargs)

        return wrapper

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- aggregation -------------------------------------------------------

    def layer_metrics(self, untraced_pass_s: float, traced_pass_s: float) -> dict[str, float]:
        """Per-pass layer metrics.  Times are means over the traced passes;
        counts are those of the first traced pass, whose inputs are fixed
        by the seed, so they repeat exactly from run to run."""
        names = np.frombuffer(self.span_name, dtype=np.uint16)
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        dur = np.frombuffer(self.span_end, dtype=np.float64) - np.frombuffer(
            self.span_start, dtype=np.float64
        )
        n = len(names)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        ids = self.name_ids
        passes = max(len(self.pass_counts), 1)
        pass_ids = np.flatnonzero(names == ids[PASS_SPAN])
        first_pass = pass_ids[0] if len(pass_ids) else 0
        first_end = pass_ids[1] if len(pass_ids) > 1 else n

        def of(name):
            return names == ids[name] if name in ids else np.zeros(n, dtype=bool)

        def busy(name):
            return float(dur[of(name)].sum()) / passes

        def self_s(name):
            return float(self_time[of(name)].sum()) / passes

        def calls(name):
            return int(np.count_nonzero(of(name)[first_pass:first_end]))

        def under(name):
            """Spans with an ancestor named name."""
            target = of(name)
            out = np.zeros(n, dtype=bool)
            anc = parent.copy()
            live = anc >= 0
            while live.any():
                out[live] |= target[anc[live]]
                anc[live] = parent[anc[live]]
                live = anc >= 0
            return out

        counts = self.pass_counts[0] if self.pass_counts else Counter()
        steps = counts["evolve.steps"]
        samples = counts["imethod.samples"]
        solve_busy = busy("evolve.solve")
        fft_in_solve = float(dur[of("fft") & under("evolve.solve")].sum()) / passes
        in_sweep = under("experiments.sweep")[first_pass:first_end]
        metrics = {
            "evolve.solve.calls": calls("evolve.solve"),
            "evolve.solve.busy_s": solve_busy,
            "evolve.solve.self_s": self_s("evolve.solve"),
            "evolve.steps": steps,
            "evolve.step_us": solve_busy / steps * 1e6 if steps else 0.0,
            "evolve.nonlinear_term.calls": calls("evolve.nonlinear_term"),
            "evolve.nonlinear_term.busy_s": busy("evolve.nonlinear_term"),
            "evolve.snapshots": counts["evolve.snapshots"],
            "evolve.write_trajectory.busy_s": busy("evolve.write_trajectory"),
            "evolve.write_trajectory.bytes": counts["evolve.write_trajectory.bytes"],
            "fft.calls": calls("fft"),
            "fft.busy_s": busy("fft"),
            "fft.flops_computed": counts["fft.flops_computed"],
            "fft.share_of_solve": fft_in_solve / solve_busy if solve_busy else 0.0,
            "spectral.integer_wavenumbers.calls": calls("spectral.integer_wavenumbers"),
            "spectral.integer_wavenumbers.busy_s": busy("spectral.integer_wavenumbers"),
            "spectral.SpectralField.constructed": counts["spectral.SpectralField.constructed"],
            "spectral.copy_bytes_computed": counts["spectral.copy_bytes_computed"],
            "spectral.transform.calls": calls("spectral.transform"),
            "spectral.transform.busy_s": busy("spectral.transform"),
            "propagator.propagator_multiplier.calls": calls("propagator.propagator_multiplier"),
            "experiments.sweep.busy_s": busy("experiments.sweep"),
            "experiments.sweep.self_s": self_s("experiments.sweep"),
            "experiments.solves": int(
                np.count_nonzero(of("evolve.solve")[first_pass:first_end] & in_sweep)
            ),
            "experiments.initial_data.busy_s": busy("experiments.initial_data"),
            "norms.build_energy_ledger.calls": calls("norms.build_energy_ledger"),
            "norms.build_energy_ledger.busy_s": busy("norms.build_energy_ledger"),
            "norms.ledger_snapshots": counts["norms.ledger_snapshots"],
            "norms.sobolev_norm.calls": calls("norms.sobolev_norm"),
            "norms.sobolev_norm.busy_s": busy("norms.sobolev_norm"),
            "norms.hamiltonian.calls": calls("norms.hamiltonian"),
            "norms.hamiltonian.busy_s": busy("norms.hamiltonian"),
            "imethod.m4_bound_sample.calls": calls("imethod.m4_bound_sample"),
            "imethod.m4_bound_sample.busy_s": busy("imethod.m4_bound_sample"),
            "imethod.samples": samples,
            "imethod.us_per_1e4_samples": (
                busy("imethod.m4_bound_sample") / samples * 1e10 if samples else 0.0
            ),
            "imethod.denergy_identity_residual.calls": calls("imethod.denergy_identity_residual"),
            "imethod.denergy_identity_residual.busy_s": busy("imethod.denergy_identity_residual"),
            "sharpness.build_counterexample.busy_s": busy("sharpness.build_counterexample"),
            "sharpness.bilinear_functional.calls": calls("sharpness.bilinear_functional"),
            "sharpness.bilinear_functional.busy_s": busy("sharpness.bilinear_functional"),
            "sharpness.cells": counts["sharpness.cells"],
            "cli.parse_config.busy_s": busy("cli.parse_config"),
            "cli.run.calls": calls("cli.run"),
            "cli.run.busy_s": busy("cli.run"),
            "cli.run.self_s": self_s("cli.run"),
            "cli.artifact_bytes": counts["cli.artifact_bytes"],
            "trace.overhead_ratio": traced_pass_s / untraced_pass_s - 1.0,
        }
        return metrics

    def span_table(self) -> dict[str, np.ndarray]:
        """All recorded spans as arrays, for writing out after the run."""
        return {
            "names": np.array(sorted(self.name_ids, key=self.name_ids.get)),
            "name_id": np.frombuffer(self.span_name, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int64).copy(),
            "start_s": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end_s": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }
