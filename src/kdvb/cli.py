"""Configuration parsing, subcommand dispatch, and artifact emission.

A run is described by one JSON document.  Its top-level keys are listed
in ``_TOP``; its ``initial_data`` object takes the keys of its kind in
``_INITIAL_DATA``; and it holds one experiment block named after the
subcommand, whose keys are listed in ``_COMMANDS``.  Each table gives a
key's value kind and default.  Unknown keys anywhere are rejected, and
every numeric value must be a finite number.

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

from . import __version__, experiments
from .errors import (
    ConfigError,
    ContractViolationError,
    DivergenceError,
    ParameterError,
    RangeError,
    ResolutionError,
    ResonantDenominatorError,
)
from .evolve import SolverConfig, solve, solve_ladder, write_trajectory
from .experiments import h1_bound_check, inviscid_sweep, rate_fit, scaling_check
from .imethod import MAX_SAMPLES, DyadicConfig, IMultiplierSpec, m4_bound_sample
from .norms import build_energy_ledger, l2_dissipation_residual, write_ledger_csv
from .propagator import ModelParams
from .reports import SweepReport, canonical_json, format_csv
from .sharpness import DELTA_DEFAULT, exponent_sweep, write_sweep_csv
from .spectral import GridSpec, RealField

# Schema tables map each key to (value kind, default).  A default is a
# value, REQUIRED, or a function of the top-level values computing one.
REQUIRED = object()

# Value kinds for _coerce: float, int, _SEED (an int in [0, 2**64)),
# _FLOATS (a list of floats), or one of the JSON types in _TYPES.
_SEED = "seed"
_FLOATS = "floats"
_TYPES = {bool: "true or false", str: "a string", dict: "an object"}

_TOP = {
    "subcommand": (str, REQUIRED),
    "epsilon": (float, REQUIRED),
    "alpha": (float, REQUIRED),
    "modes": (int, REQUIRED),
    "box_length": (float, REQUIRED),
    "dealias_fraction": (float, 2.0 / 3.0),
    # only a solve steps by dt; the calculus subcommands just echo it
    "dt": (float, lambda top: REQUIRED if _COMMANDS[top["subcommand"]][2] else 1e-3),
    "t_final": (float, 1.0),
    "snapshot_stride": (int, 1),
    "seed": (_SEED, 0),
    "out": (str, "kdvb_out"),
    "initial_data": (dict, {"kind": "gaussian", "width": 2.0, "l2_norm": 1.0}),
}

# initial_data kind -> (its constructor's name in kdvb.experiments, schema);
# the constructor is looked up when called, so a wrapper bound over the
# module attribute sees the call
_INITIAL_DATA = {
    "soliton": ("soliton_initial_data", {"c": (float, 4.0), "x0": (float, 0.0)}),
    "gaussian": (
        "gaussian_initial_data",
        {"width": (float, 2.0), "l2_norm": (float, 1.0), "modulation": (float, 0.0)},
    ),
    "power_law": (
        "power_law_initial_data",
        {
            "decay_exponent": (float, -1.51),
            "l2_norm": (float, 0.5),
            "seed": (_SEED, lambda top: top["seed"]),
        },
    ),
    "sine": ("sine_initial_data", {"amplitude": (float, 1.0), "wavenumber_index": (int, 1)}),
}


def _coerce(value, name: str, kind):
    """value coerced by kind; a value of another JSON type (a boolean is
    not a number) or a non-finite number, a non-integral value for an int
    or seed, or a seed outside [0, 2**64), is a config error naming the key."""
    if kind in _TYPES:
        if not isinstance(value, kind):
            raise ConfigError(f"{name} must be {_TYPES[kind]}, got {value!r}")
        return value
    if kind == _FLOATS:
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list of finite numbers, got {value!r}")
        return tuple(_coerce(v, f"{name}[{i}]", float) for i, v in enumerate(value))
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


def _checked(obj: dict, schema: dict, name: str, top: dict | None = None) -> dict:
    """obj's values coerced by their kinds in schema, defaults filled in.

    An unknown key, a missing required key or a value of the wrong kind
    is a config error naming it.  Computed defaults read top, the
    top-level values; when top is None, obj is the top level itself and
    they read its values before them.
    """
    unknown = set(obj) - set(schema)
    if unknown:
        raise ConfigError(f"unknown keys in {name or 'config'}: {sorted(unknown)}")
    values = {}
    for key, (kind, default) in schema.items():
        label = f"{name}.{key}" if name else key
        if key in obj:
            values[key] = _coerce(obj[key], label, kind)
            continue
        if callable(default):
            default = default(values if top is None else top)
        if default is REQUIRED:
            raise ConfigError(f"missing required key {label!r}")
        values[key] = default
    return values


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run description.

    initial_data and experiment hold the keys the document gave; data and
    block hold them checked, with every default filled in.  These are
    computed on construction, replace() included, so a power-law seed
    left to default follows a changed run seed.
    """

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
    data: dict = field(init=False, repr=False)
    block: dict = field(init=False, repr=False)

    def __post_init__(self):
        top = self._top()
        kind = self.initial_data.get("kind")
        if kind not in tuple(_INITIAL_DATA):
            raise ConfigError(
                f"initial_data.kind must be one of {sorted(_INITIAL_DATA)}, got {kind!r}"
            )
        schema = {"kind": (str, REQUIRED), **_INITIAL_DATA[kind][1]}
        object.__setattr__(self, "data", _checked(self.initial_data, schema, "initial_data", top))
        block = _checked(self.experiment, _COMMANDS[self.subcommand][1], self.subcommand, top)
        if block.get("n_samples", 0) > MAX_SAMPLES:
            raise ConfigError(
                f"{self.subcommand}.n_samples = {block['n_samples']} "
                f"exceeds MAX_SAMPLES = {MAX_SAMPLES}"
            )
        object.__setattr__(self, "block", block)

    def _top(self) -> dict:
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
        }

    def resolved(self) -> dict:
        """The config as it will be echoed into the manifest: every
        top-level value, and of initial_data and the experiment block
        only the keys the document gave."""
        return {
            **self._top(),
            "initial_data": {key: self.data[key] for key in self.initial_data},
            self.subcommand: {key: self.block[key] for key in self.experiment},
        }


def parse_config(text: str) -> RunConfig:
    """Validate a JSON run description; errors name the offending key."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # besides malformed text: an integer past the interpreter's digit
        # limit, or nesting past its recursion limit
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    sub = _coerce(doc, "config", dict).get("subcommand")
    if sub not in SUBCOMMANDS:
        raise ConfigError(f"subcommand must be one of {SUBCOMMANDS}, got {sub!r}")
    top = _checked(doc, {**_TOP, sub: (dict, {})}, "")
    try:
        params = ModelParams(top["epsilon"], top["alpha"])
        grid = GridSpec(top["box_length"], top["modes"], top["dealias_fraction"])
        if _COMMANDS[sub][2]:
            SolverConfig(params, grid, top["dt"], top["t_final"], top["snapshot_stride"])
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(
        subcommand=sub,
        params=params,
        grid=grid,
        dt=top["dt"],
        t_final=top["t_final"],
        snapshot_stride=top["snapshot_stride"],
        seed=top["seed"],
        out_path=Path(top["out"]),
        initial_data=top["initial_data"],
        experiment=top[sub],
    )


def build_initial_data(cfg: RunConfig) -> RealField:
    """The configured initial field; a non-finite one is a ParameterError
    naming its kind, raised before any step."""
    params = dict(cfg.data)
    kind = params.pop("kind")
    initial = getattr(experiments, _INITIAL_DATA[kind][0])(grid=cfg.grid, **params)
    if not np.all(np.isfinite(initial.values)):
        raise ParameterError(f"initial_data.kind {kind!r} gives a non-finite field for {params}")
    return initial


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
    if cfg.block["refine_check"]:
        cfgs.append(replace(cfgs[0], dt=cfg.dt / 2))
    # the dt/2 run is stepped on the base run's clock, so both are held
    base, *refined = solve_ladder(build_initial_data(cfg), cfgs)
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
    ladder = cfg.block["eps_ladder"]
    if with_rate and len(ladder) < 2:
        raise ParameterError(f"rate needs at least two epsilons, got {list(ladder)}")
    report = inviscid_sweep(
        build_initial_data(cfg),
        alpha=cfg.params.alpha,
        eps_ladder=ladder,
        t_final=cfg.t_final,
        s=cfg.block["sobolev_s"],
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
        lambda_exp=cfg.block["lambda_exp"],
        t_final=cfg.t_final,
        dt=cfg.dt,
    )
    return {"distance": distance}


def _run_sharpness(cfg: RunConfig, artifacts: dict) -> dict:
    block = cfg.block
    report = exponent_sweep(
        block["regime"], cfg.params.alpha, block["s_list"], block["n_ladder"], block["delta"]
    )
    csv = io.StringIO()
    write_sweep_csv(csv, report)
    artifacts["sweep.csv"] = csv.getvalue().encode()
    return report.to_dict()


def _run_imethod_bounds(cfg: RunConfig, artifacts: dict) -> dict:
    block = cfg.block
    dyadic = DyadicConfig(block["n1_ladder"], block["ratios"], cfg.seed)
    spec = IMultiplierSpec(cutoff_n=block["cutoff_n"], s_exp=block["s_exp"])
    report = m4_bound_sample(dyadic, spec, cfg.params, block["n_samples"])
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
        eps_ladder=cfg.block["eps_ladder"],
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


_INVISCID = {"eps_ladder": (_FLOATS, (1e-1, 1e-2, 1e-3, 1e-4)), "sobolev_s": (float, 0.0)}

# subcommand -> (runner, experiment-block schema, needs a time-stepping solve)
_COMMANDS = {
    "solve": (_run_solve, {}, True),
    "energy": (_run_energy, {"refine_check": (bool, False)}, True),
    "inviscid": (functools.partial(_run_inviscid, with_rate=False), _INVISCID, True),
    "rate": (functools.partial(_run_inviscid, with_rate=True), _INVISCID, True),
    "scaling": (_run_scaling, {"lambda_exp": (int, 1)}, True),
    "sharpness": (
        _run_sharpness,
        {
            "s_list": (_FLOATS, REQUIRED),
            "n_ladder": (_FLOATS, REQUIRED),
            "delta": (float, DELTA_DEFAULT),
            "regime": (str, lambda top: "low_alpha" if top["alpha"] <= 0.5 else "high_alpha"),
        },
        False,
    ),
    "imethod-bounds": (
        _run_imethod_bounds,
        {
            "n1_ladder": (_FLOATS, REQUIRED),
            "ratios": (_FLOATS, (1.0, 0.75, 0.5)),
            "cutoff_n": (float, 0.5),
            "s_exp": (float, -0.74),
            "n_samples": (int, 10_000),
        },
        False,
    ),
    "h1-bound": (_run_h1_bound, {"eps_ladder": (_FLOATS, (1.0, 0.1, 0.01, 0.001))}, True),
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
