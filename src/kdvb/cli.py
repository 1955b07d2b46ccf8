"""Configuration parsing, subcommand dispatch, and artifact emission.

A run is described by one JSON document.  Common keys:

    subcommand       one of solve, energy, inviscid, rate, scaling,
                     sharpness, imethod-bounds, h1-bound
    epsilon, alpha   model parameters (epsilon in [0, 1], alpha in (0, 1])
    modes, box_length, dealias_fraction        spatial grid
    dt, t_final, snapshot_stride               time stepping
    seed             integer in [0, 2**64), defaults to 0
    out              output directory (the --out flag overrides)
    initial_data     {"kind": "soliton" | "gaussian" | "power_law" | "sine", ...}

plus one experiment block named after the subcommand (its allowed keys
and their kinds are listed in ``_COMMANDS``).  Unknown keys anywhere are
rejected, and every numeric value, in the common keys, the initial data
and the experiment block alike, must be a finite number.

Artifacts are byte-deterministic for a fixed config, seed, and software
environment: results (CSV/JSON) and manifest.json never embed clocks;
wall time goes to the separate timing.json sidecar, which is excluded
from the determinism contract.

Exit codes (one per error class, in ``_EXIT_CODES``): 0 success;
2 config, parameter, contract or resonant-denominator error;
3 numerical divergence or overflow; 4 resolution error; 1 anything else.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    ContractViolationError,
    DivergenceError,
    ParameterError,
    RangeError,
    ResolutionError,
    ResonantDenominatorError,
)
from .evolve import SolverConfig, solve, write_trajectory
from .experiments import (
    gaussian_initial_data,
    h1_bound_check,
    inviscid_sweep,
    power_law_initial_data,
    rate_fit,
    scaling_check,
    solve_batch,
    soliton_initial_data,
)
from .imethod import MAX_SAMPLES, DyadicConfig, IMultiplierSpec, m4_bound_sample
from .norms import build_energy_ledger, l2_dissipation_residual, write_ledger_csv
from .propagator import ModelParams
from .reports import SweepReport, canonical_json, format_csv
from .sharpness import exponent_sweep, write_sweep_csv
from .spectral import GridSpec, RealField

_COMMON_KEYS = {
    "subcommand",
    "epsilon",
    "alpha",
    "modes",
    "box_length",
    "dealias_fraction",
    "dt",
    "t_final",
    "snapshot_stride",
    "seed",
    "out",
    "initial_data",
}

# Value kinds for _coerce: float, int, bool, _SEED, _FLOATS (a list of
# floats), or None for a non-numeric value taken as given.
_SEED = "seed"
_FLOATS = "floats"

# initial_data kind -> {key: value kind}, besides "kind" itself
_DATA_KEYS = {
    "soliton": {"c": float, "x0": float},
    "gaussian": {"width": float, "l2_norm": float, "modulation": float},
    "power_law": {"decay_exponent": float, "l2_norm": float, "seed": _SEED},
    "sine": {"amplitude": float, "wavenumber_index": int},
}

_DEFAULTS = {
    "dealias_fraction": 2.0 / 3.0,
    "snapshot_stride": 1,
    "seed": 0,
    "t_final": 1.0,
    "out": "kdvb_out",
}


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run description."""

    subcommand: str
    params: ModelParams
    grid: GridSpec
    dt: float
    t_final: float
    snapshot_stride: int
    seed: int
    out_path: Path
    initial_data: dict
    experiment: dict = field(default_factory=dict)

    def resolved(self) -> dict:
        """The config as it will be echoed into the manifest."""
        return {
            "subcommand": self.subcommand,
            "epsilon": self.params.epsilon,
            "alpha": self.params.alpha,
            "modes": self.grid.modes,
            "box_length": self.grid.box_length,
            "dealias_fraction": self.grid.dealias_fraction,
            "dt": self.dt,
            "t_final": self.t_final,
            "snapshot_stride": self.snapshot_stride,
            "seed": self.seed,
            "out": str(self.out_path),
            "initial_data": self.initial_data,
            self.subcommand: self.experiment,
        }


def _require(doc: dict, key: str):
    if key not in doc:
        raise ConfigError(f"missing required key {key!r}")
    return doc[key]


def _coerce(value, name: str, kind=float):
    """value coerced by kind (see _SEED and _FLOATS); a non-numeric value
    (true and false included) or non-finite number, a non-integral value
    for an int or seed, a seed outside [0, 2**64), or a bool kind given
    anything but true or false, is a config error naming the key."""
    if kind is None:
        return value
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{name} must be true or false, got {value!r}")
        return value
    if kind == _FLOATS:
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list of finite numbers, got {value!r}")
        return [_coerce(v, f"{name}[{i}]") for i, v in enumerate(value)]
    try:
        # a JSON boolean is not a number, though float(True) is 1.0
        number = math.nan if isinstance(value, bool) else float(value)
        finite = math.isfinite(number)
    except (TypeError, ValueError, OverflowError):
        finite = False
    if not finite:
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if kind is float:
        return number
    if not number.is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    # an int is taken exactly: a float cannot hold every seed below 2**64
    number = int(value) if isinstance(value, int) else int(number)
    if kind == _SEED and not 0 <= number < 2**64:
        raise ConfigError(f"{name} must lie in [0, 2**64), got {value!r}")
    return number


def _number(doc: dict, key: str, kind=float):
    """doc[key] coerced by kind."""
    return _coerce(_require(doc, key), key, kind)


def _coerce_block(block: dict, kinds: dict, name: str) -> dict:
    """Every value of block coerced by its key's kind in kinds."""
    return {key: _coerce(value, f"{name}.{key}", kinds[key]) for key, value in block.items()}


def parse_config(text: str) -> RunConfig:
    """Validate a JSON run description; errors name the offending key."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")

    sub = _require(doc, "subcommand")
    if sub not in SUBCOMMANDS:
        raise ConfigError(f"subcommand must be one of {SUBCOMMANDS}, got {sub!r}")

    allowed = _COMMON_KEYS | {sub}
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    merged = {**_DEFAULTS, **doc}

    try:
        params = ModelParams(
            epsilon=_number(merged, "epsilon"),
            alpha=_number(merged, "alpha"),
        )
    except ParameterError as exc:
        raise ConfigError(f"model parameters: {exc}") from exc

    try:
        grid = GridSpec(
            box_length=_number(merged, "box_length"),
            modes=_number(merged, "modes", int),
            dealias_fraction=_number(merged, "dealias_fraction"),
        )
    except ParameterError as exc:
        raise ConfigError(f"grid: {exc}") from exc

    _, block_keys, needs_solver = _COMMANDS[sub]
    dt = _number(merged, "dt") if needs_solver or "dt" in merged else 1e-3
    t_final = _number(merged, "t_final")
    stride = _number(merged, "snapshot_stride", int)
    if needs_solver:
        try:
            SolverConfig(
                params=params, grid=grid, dt=dt, t_final=t_final, snapshot_stride=stride
            )
        except ParameterError as exc:
            raise ConfigError(f"solver: {exc}") from exc

    data = merged.get("initial_data", {"kind": "gaussian", "width": 2.0, "l2_norm": 1.0})
    if not isinstance(data, dict) or "kind" not in data:
        raise ConfigError("initial_data must be an object with a 'kind' key")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in _DATA_KEYS:
        raise ConfigError(
            f"initial_data.kind must be one of {sorted(_DATA_KEYS)}, got {kind!r}"
        )
    data_kinds = {"kind": None, **_DATA_KEYS[kind]}
    bad = set(data) - set(data_kinds)
    if bad:
        raise ConfigError(f"unknown initial_data keys for {kind!r}: {sorted(bad)}")
    data = _coerce_block(data, data_kinds, "initial_data")

    experiment = merged.get(sub, {})
    if not isinstance(experiment, dict):
        raise ConfigError(f"experiment block {sub!r} must be an object")
    bad = set(experiment) - set(block_keys)
    if bad:
        raise ConfigError(f"unknown keys in {sub!r} block: {sorted(bad)}")
    experiment = _coerce_block(experiment, block_keys, sub)
    if experiment.get("n_samples", 0) > MAX_SAMPLES:
        raise ConfigError(
            f"{sub}.n_samples = {experiment['n_samples']} exceeds MAX_SAMPLES = {MAX_SAMPLES}"
        )

    out = merged["out"]
    if not isinstance(out, str):
        raise ConfigError(f"out must be a path string, got {out!r}")

    return RunConfig(
        subcommand=sub,
        params=params,
        grid=grid,
        dt=dt,
        t_final=t_final,
        snapshot_stride=stride,
        seed=_number(merged, "seed", _SEED),
        out_path=Path(out),
        initial_data=data,
        experiment=experiment,
    )


def build_initial_data(cfg: RunConfig) -> RealField:
    data = cfg.initial_data
    kind = data["kind"]
    if kind == "soliton":
        return soliton_initial_data(
            c=data.get("c", 4.0), x0=data.get("x0", 0.0), grid=cfg.grid
        )
    if kind == "gaussian":
        return gaussian_initial_data(
            cfg.grid,
            width=data.get("width", 2.0),
            l2_norm=data.get("l2_norm", 1.0),
            modulation=data.get("modulation", 0.0),
        )
    if kind == "power_law":
        return power_law_initial_data(
            cfg.grid,
            decay_exponent=data.get("decay_exponent", -1.51),
            l2_norm=data.get("l2_norm", 0.5),
            seed=data.get("seed", cfg.seed),
        )
    amp = data.get("amplitude", 1.0)
    index = data.get("wavenumber_index", 1)
    x = cfg.grid.collocation_points()
    return RealField(
        amp * np.sin(2.0 * np.pi * index * x / cfg.grid.box_length), cfg.grid
    )


def _solver_config(cfg: RunConfig) -> SolverConfig:
    return SolverConfig(
        params=cfg.params,
        grid=cfg.grid,
        dt=cfg.dt,
        t_final=cfg.t_final,
        snapshot_stride=cfg.snapshot_stride,
    )


def _sweep_csv_rows(report: SweepReport) -> str:
    rows = ((value, rec["observable"]) for value, rec in zip(report.values, report.observables))
    return format_csv(("epsilon", "observable"), rows)


def _ledger_artifact(traj, artifacts: dict) -> float:
    """Write ledger.csv for traj; return its relative ledger residual."""
    ledger = build_energy_ledger(traj)
    csv = io.StringIO()
    write_ledger_csv(csv, ledger)
    artifacts["ledger.csv"] = csv.getvalue().encode()
    return ledger.relative_residual()


def _run_solve(cfg: RunConfig, artifacts: dict) -> dict:
    traj = solve(build_initial_data(cfg), _solver_config(cfg))
    buf = io.BytesIO()
    write_trajectory(buf, traj)
    artifacts["trajectory.bin"] = buf.getvalue()
    return {"snapshots": len(traj.times), "ledger_residual": _ledger_artifact(traj, artifacts)}


def _run_energy(cfg: RunConfig, artifacts: dict) -> dict:
    cfgs = [_solver_config(cfg)]
    if cfg.experiment.get("refine_check", False):
        cfgs.append(replace(cfgs[0], dt=cfg.dt / 2))
    # the dt/2 run is stepped on the base run's clock, so both are held
    base, *refined = solve_batch(build_initial_data(cfg), cfgs, name_epsilon=False)
    result = {"ledger_residual": _ledger_artifact(base, artifacts)}
    if refined:
        result["ledger_residual_refined"] = l2_dissipation_residual(refined[0])
        result["refinement_factor"] = result["ledger_residual"] / max(
            result["ledger_residual_refined"], 1e-300
        )
    return result


def _sweep_result(cfg: RunConfig, report: SweepReport, experiment: str) -> dict:
    """CLI-facing sweep record: experiment, params, ladder, observables,
    fit, floors, seed, grid, dt."""
    return {
        "experiment": experiment,
        "params": {"epsilon": cfg.params.epsilon, "alpha": cfg.params.alpha},
        "ladder": list(report.values),
        "observables": list(report.observables),
        "fit": report.fit,
        "floors": {"self_convergence": report.meta.get("floor")},
        "seed": report.seed,
        "grid": {"box_length": cfg.grid.box_length, "modes": cfg.grid.modes},
        "dt": cfg.dt,
        "meta": report.meta,
    }


def _run_inviscid(cfg: RunConfig, artifacts: dict, with_rate: bool) -> dict:
    block = cfg.experiment
    ladder = tuple(block.get("eps_ladder", (1e-1, 1e-2, 1e-3, 1e-4)))
    if with_rate and len(ladder) < 2:
        raise ParameterError(f"rate needs at least two epsilons, got {list(ladder)}")
    report = inviscid_sweep(
        build_initial_data(cfg),
        alpha=cfg.params.alpha,
        eps_ladder=ladder,
        t_final=cfg.t_final,
        s=block.get("sobolev_s", 0.0),
        dt=cfg.dt,
        snapshot_stride=cfg.snapshot_stride,
        seed=cfg.seed,
    )
    artifacts["sweep.csv"] = _sweep_csv_rows(report).encode()
    result = _sweep_result(cfg, report, "rate" if with_rate else "inviscid")
    if with_rate:
        result["rate_slope"] = rate_fit(report)
    return result


def _run_scaling(cfg: RunConfig, artifacts: dict) -> dict:
    distance = scaling_check(
        build_initial_data(cfg),
        cfg.params,
        lambda_exp=cfg.experiment.get("lambda_exp", 1),
        t_final=cfg.t_final,
        dt=cfg.dt,
    )
    return {"distance": distance}


def _run_sharpness(cfg: RunConfig, artifacts: dict) -> dict:
    block = cfg.experiment
    alpha = cfg.params.alpha
    regime = block.get("regime", "low_alpha" if alpha <= 0.5 else "high_alpha")
    s_list = tuple(_require(block, "s_list"))
    n_ladder = tuple(_require(block, "n_ladder"))
    report = exponent_sweep(regime, alpha, s_list, n_ladder, delta=block.get("delta", 0.01))
    csv = io.StringIO()
    write_sweep_csv(csv, report)
    artifacts["sweep.csv"] = csv.getvalue().encode()
    return report.to_dict()


def _run_imethod_bounds(cfg: RunConfig, artifacts: dict) -> dict:
    block = cfg.experiment
    dyadic = DyadicConfig(
        n1_ladder=tuple(_require(block, "n1_ladder")),
        ratios=tuple(block.get("ratios", (1.0, 0.75, 0.5))),
        seed=cfg.seed,
    )
    spec = IMultiplierSpec(
        cutoff_n=block.get("cutoff_n", 0.5), s_exp=block.get("s_exp", -0.74)
    )
    report = m4_bound_sample(dyadic, spec, cfg.params, block.get("n_samples", 10_000))
    artifacts["bound_report.json"] = (report.to_json() + "\n").encode()
    return {
        "slope": report.slope_vs_logn,
        "max_ratio": report.max_ratio,
        "max_ratios": list(report.max_ratios),
    }


def _run_h1_bound(cfg: RunConfig, artifacts: dict) -> dict:
    report = h1_bound_check(
        build_initial_data(cfg),
        alpha=cfg.params.alpha,
        eps_ladder=tuple(cfg.experiment.get("eps_ladder", (1.0, 0.1, 0.01, 0.001))),
        t_final=cfg.t_final,
        dt=cfg.dt,
        snapshot_stride=cfg.snapshot_stride,
        seed=cfg.seed,
    )
    artifacts["sweep.csv"] = _sweep_csv_rows(report).encode()
    obs = [rec["observable"] for rec in report.observables]
    result = _sweep_result(cfg, report, "h1-bound")
    result["band_ratio"] = max(obs) / min(obs)
    return result


_INVISCID_KEYS = {"eps_ladder": _FLOATS, "sobolev_s": float}

# subcommand -> (runner, experiment-block {key: value kind}, needs a time-stepping solve)
_COMMANDS = {
    "solve": (_run_solve, {}, True),
    "energy": (_run_energy, {"refine_check": bool}, True),
    "inviscid": (functools.partial(_run_inviscid, with_rate=False), _INVISCID_KEYS, True),
    "rate": (functools.partial(_run_inviscid, with_rate=True), _INVISCID_KEYS, True),
    "scaling": (_run_scaling, {"lambda_exp": int}, True),
    "sharpness": (
        _run_sharpness,
        {"s_list": _FLOATS, "n_ladder": _FLOATS, "delta": float, "regime": None},
        False,
    ),
    "imethod-bounds": (
        _run_imethod_bounds,
        {
            "n1_ladder": _FLOATS,
            "ratios": _FLOATS,
            "cutoff_n": float,
            "s_exp": float,
            "n_samples": int,
        },
        False,
    ),
    "h1-bound": (_run_h1_bound, {"eps_ladder": _FLOATS}, True),
}
SUBCOMMANDS = tuple(_COMMANDS)

# error class -> process exit code
_EXIT_CODES = {
    ConfigError: 2,
    ParameterError: 2,
    ContractViolationError: 2,
    ResonantDenominatorError: 2,
    DivergenceError: 3,
    RangeError: 3,
    ResolutionError: 4,
}


def run(cfg: RunConfig) -> int:
    """Execute the configured experiment; write artifacts and manifest.

    Returns the process exit code.  On failure an error.json artifact
    records the exception class and message.
    """
    cfg.out_path.mkdir(parents=True, exist_ok=True)
    artifacts: dict[str, bytes] = {}
    started = time.monotonic()
    runner = _COMMANDS[cfg.subcommand][0]
    try:
        result = runner(cfg, artifacts)
    except tuple(_EXIT_CODES) as exc:
        code = next(c for cls, c in _EXIT_CODES.items() if isinstance(exc, cls))
        return _fail(exc, code, cfg.out_path)

    resolved = cfg.resolved()
    result["config"] = resolved
    artifacts["result.json"] = (canonical_json(result) + "\n").encode()
    config_comment = ("# config: " + canonical_json(resolved).replace("\n", " ") + "\n").encode()
    for name in list(artifacts):
        if name.endswith(".csv"):
            artifacts[name] = config_comment + artifacts[name]
    manifest = {
        "config": resolved,
        "versions": {
            "kdvb": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "floors": result.get("floors"),
        "seed": cfg.seed,
    }
    artifacts["manifest.json"] = (canonical_json(manifest) + "\n").encode()
    for name, blob in sorted(artifacts.items()):
        (cfg.out_path / name).write_bytes(blob)
    # wall time is deliberately outside the deterministic artifact set
    (cfg.out_path / "timing.json").write_text(
        canonical_json({"wall_time_s": time.monotonic() - started}) + "\n"
    )
    return 0


def _fail(exc: Exception, code: int, out_path: Path | None = None) -> int:
    """Print the error record to stderr, and to out_path/error.json when
    an output directory is known; return the exit code."""
    payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    if out_path is not None:
        try:
            out_path.mkdir(parents=True, exist_ok=True)
            (out_path / "error.json").write_text(canonical_json(payload) + "\n")
        except OSError:
            pass
    print(canonical_json(payload), file=sys.stderr)
    return code


def _named_out(text: str) -> Path | None:
    """The output directory a config document names by a string "out"."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return None
    out = doc.get("out") if isinstance(doc, dict) else None
    return Path(out) if isinstance(out, str) else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="kdvb",
        description="Pseudospectral experiments for the dissipative KdV equation",
    )
    parser.add_argument("--config", required=True, help="path to a JSON run description")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)
    out = None if args.out is None else Path(args.out)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        return _fail(ConfigError(str(exc)), 2, out)
    try:
        cfg = parse_config(text)
        if out is not None:
            cfg = replace(cfg, out_path=out)
        if args.seed is not None:
            cfg = replace(cfg, seed=_coerce(args.seed, "--seed", _SEED))
    except ConfigError as exc:
        # a document rejected before its out was validated may still name one
        return _fail(exc, 2, out if out is not None else _named_out(text))
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
