"""Configuration parsing, subcommand dispatch, and artifact emission.

A run is described by one JSON document.  Its top-level keys are listed
in ``_TOP``; its ``initial_data`` object takes the keys of its kind in
``_INITIAL_DATA``; and it holds one experiment block named after the
subcommand, whose keys are listed in ``_COMMANDS``.  Each table gives a
key's value kind and default.  Unknown keys anywhere are rejected, and
every numeric value must be a finite number.

``parse_config`` builds every RunConfig.  It checks the top level,
builds the model, the grid and, for a subcommand that steps, the one
SolverConfig the run steps with; it then applies the --seed and --out
overrides, and only then checks initial_data and the block against the
final top-level values, so a power-law seed left to default follows
--seed.  Those checks are of keys and kinds: whether an initial_data or
block value is in range is decided by the API call that takes it, which
raises a ParameterError when the run starts, before any solve or draw;
``run`` names an InitialDataError by its initial_data.kind.

Artifacts are byte-deterministic for a fixed config, seed, and software
environment: results (CSV/JSON) and manifest.json never embed clocks;
wall time goes to the separate timing.json sidecar, which is excluded
from the determinism contract.

Exit codes (one per error class, in ``_EXIT_CODES``): 0 success;
2 config, parameter, contract or resonant-denominator error;
3 numerical divergence or overflow, or a NaN or infinity in the result;
4 resolution error; 1 anything else.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, experiments
from .errors import (
    ConfigError,
    ContractViolationError,
    DivergenceError,
    InitialDataError,
    ParameterError,
    RangeError,
    ResolutionError,
    ResonantDenominatorError,
)
from .evolve import SolverConfig, solve, write_trajectory
from .experiments import energy_check, scaling_check
from .imethod import RATIOS_DEFAULT, DyadicConfig, IMultiplierSpec, m4_bound_sample
from .norms import build_energy_ledger, l2_dissipation_residual
from .propagator import ModelParams
from .reports import canonical_json, format_csv
from .sharpness import DELTA_DEFAULT, exponent_sweep
from .spectral import GridSpec, RealField, is_number, is_seed

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
    """value coerced by kind; a value of another JSON type (a boolean or a
    numeric string is not a number) or a non-finite number, a non-integral
    value for an int or seed, or a seed outside [0, 2**64), is a config
    error naming the key."""
    if kind in _TYPES:
        if not isinstance(value, kind):
            raise ConfigError(f"{name} must be {_TYPES[kind]}, got {value!r}")
        return value
    if kind == _FLOATS:
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list of finite numbers, got {value!r}")
        return tuple(_coerce(v, f"{name}[{i}]", float) for i, v in enumerate(value))
    try:
        number = float(value) if is_number(value) else math.nan
    except OverflowError:  # an integer past the largest float
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if kind is float:
        return number
    if not number.is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    # an int is taken exactly: a float cannot hold every seed below 2**64
    number = int(value) if isinstance(value, int) else int(number)
    if kind == _SEED and not is_seed(number):
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
    """A fully validated run description, built only by ``parse_config``.

    solver is the one SolverConfig of a subcommand that steps, None for
    sharpness and imethod-bounds.  data and block are initial_data and the
    experiment block checked, with every default filled in; echo is the
    config as echoed into the manifest and every result: every top-level
    value, and of initial_data and the experiment block only the keys the
    document gave.  Nothing is derived again from these fields, so a
    changed run is parsed again (``parse_config``'s seed and out), not
    built by replace().
    """

    subcommand: str
    params: ModelParams
    grid: GridSpec
    solver: SolverConfig | None
    seed: int
    out_path: Path
    data: dict = field(repr=False)
    block: dict = field(repr=False)
    echo: dict = field(repr=False)


def _decode(text: str):
    """The JSON document in text; text the decoder rejects is a ConfigError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # besides malformed text: an integer past the interpreter's digit
        # limit, or nesting past its recursion limit
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def parse_config(text: str, seed: int | None = None, out: Path | None = None) -> RunConfig:
    """Validate a JSON run description; errors name the offending key.
    seed and out, when given, replace the document's (--seed and --out)."""
    doc = _decode(text)
    sub = _coerce(doc, "config", dict).get("subcommand")
    if sub not in SUBCOMMANDS:
        raise ConfigError(f"subcommand must be one of {SUBCOMMANDS}, got {sub!r}")
    top = _checked(doc, {**_TOP, sub: (dict, {})}, "")
    try:
        params = ModelParams(top["epsilon"], top["alpha"])
        grid = GridSpec(top["box_length"], top["modes"], top["dealias_fraction"])
        solver = None
        if _COMMANDS[sub][2]:
            solver = SolverConfig(params, grid, top["dt"], top["t_final"], top["snapshot_stride"])
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc
    if seed is not None:
        top["seed"] = _coerce(seed, "--seed", _SEED)
    out_path = Path(top["out"]) if out is None else out
    initial_data, given_block = top.pop("initial_data"), top.pop(sub)
    kind = initial_data.get("kind")
    if kind not in tuple(_INITIAL_DATA):
        raise ConfigError(
            f"initial_data.kind must be one of {sorted(_INITIAL_DATA)}, got {kind!r}"
        )
    schema = {"kind": (str, REQUIRED), **_INITIAL_DATA[kind][1]}
    data = _checked(initial_data, schema, "initial_data", top)
    block = _checked(given_block, _COMMANDS[sub][1], sub, top)
    echo = {
        **top,
        "out": str(out_path),
        "initial_data": {key: data[key] for key in initial_data},
        sub: {key: block[key] for key in given_block},
    }
    return RunConfig(sub, params, grid, solver, top["seed"], out_path, data, block, echo)


def build_initial_data(cfg: RunConfig) -> RealField:
    """The configured initial field; a ParameterError of its constructor is an
    InitialDataError, and so is a non-finite field, which the solver refuses
    before any step.  A vast or tiny parameter overflows either to its limit
    (exp(-inf) = 0) or to a non-finite field, so numpy's warnings are not printed."""
    params = dict(cfg.data)
    kind = params.pop("kind")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return getattr(experiments, _INITIAL_DATA[kind][0])(grid=cfg.grid, **params)


def _run_solve(cfg: RunConfig, artifacts: dict) -> dict:
    traj = solve(build_initial_data(cfg), cfg.solver)
    buf = io.BytesIO()
    write_trajectory(buf, traj)
    artifacts["trajectory.bin"] = buf.getvalue()
    ledger = build_energy_ledger(traj)
    artifacts["ledger.csv"] = format_csv(ledger, zip(*ledger.values())).encode()
    return {"snapshots": len(traj.times), "ledger_residual": l2_dissipation_residual(traj)}


def _run_energy(cfg: RunConfig, artifacts: dict) -> dict:
    result = energy_check(build_initial_data(cfg), cfg.solver, cfg.block["refine_check"])
    ledger = result.pop("ledger")
    artifacts["ledger.csv"] = format_csv(ledger, zip(*ledger.values())).encode()
    return result


def _run_sweep(cfg: RunConfig, artifacts: dict) -> dict:
    """Run the subcommand's driver in _SWEEPS, write its sweep.csv and return
    its result record: experiment, params, ladder, observables, fit (null),
    floors, seed, grid, dt, meta, and the driver's own top-level scalars."""
    driver = getattr(experiments, _SWEEPS[cfg.subcommand])
    report = driver(build_initial_data(cfg), cfg.solver, *cfg.block.values())
    ladder, observables, meta = (report.pop(key) for key in ("values", "observables", "meta"))
    rows = ((rec["epsilon"], rec["observable"]) for rec in observables)
    artifacts["sweep.csv"] = format_csv(("epsilon", "observable"), rows).encode()
    return {
        **report,
        "experiment": cfg.subcommand,
        "params": {"epsilon": cfg.params.epsilon, "alpha": cfg.params.alpha},
        "ladder": ladder,
        "observables": observables,
        "fit": None,
        "floors": {"self_convergence": meta.get("floor")},
        "seed": cfg.seed,
        "grid": {"box_length": cfg.grid.box_length, "modes": cfg.grid.modes},
        "dt": cfg.solver.dt,
        "meta": meta,
    }


def _run_scaling(cfg: RunConfig, artifacts: dict) -> dict:
    distance = scaling_check(build_initial_data(cfg), cfg.solver, cfg.block["lambda_exp"])
    return {"distance": distance}


def _run_sharpness(cfg: RunConfig, artifacts: dict) -> dict:
    block = cfg.block
    report = exponent_sweep(cfg.params.alpha, block["s_list"], block["n_ladder"], block["delta"])
    alpha, crossover = report["meta"]["alpha"], report["crossover_estimate"]
    rows = (
        (alpha, rec["s"], n, ratio, rec["slope"], crossover)
        for rec in report["observables"]
        for n, ratio in zip(rec["n_ladder"], rec["ratios"])
    )
    header = ("alpha", "s", "N", "ratio", "slope", "crossover_estimate")
    artifacts["sweep.csv"] = format_csv(header, rows).encode()
    return {**report, "fit": None, "seed": cfg.seed}


def _run_imethod_bounds(cfg: RunConfig, artifacts: dict) -> dict:
    block = cfg.block
    dyadic = DyadicConfig(block["n1_ladder"], block["ratios"], cfg.seed)
    spec = IMultiplierSpec(cutoff_n=block["cutoff_n"], s_exp=block["s_exp"])
    report = m4_bound_sample(dyadic, spec, cfg.params, block["n_samples"])
    artifacts["bound_report.json"] = (json.dumps(report, sort_keys=True) + "\n").encode()
    slope, ratios = report["slope"], report["max_ratios"]
    return {"slope": slope, "max_ratio": max(ratios), "max_ratios": ratios}


# sweep subcommand -> its driver's name in kdvb.experiments, looked up when
# called as _INITIAL_DATA's constructors are; it takes the block's values in
# schema order
_SWEEPS = {"inviscid": "inviscid_sweep", "rate": "rate_check", "h1-bound": "h1_bound_check"}
_INVISCID = {"eps_ladder": (_FLOATS, (1e-1, 1e-2, 1e-3, 1e-4)), "sobolev_s": (float, 0.0)}

# subcommand -> (runner, experiment-block schema, needs a time-stepping solve)
_COMMANDS = {
    "solve": (_run_solve, {}, True),
    "energy": (_run_energy, {"refine_check": (bool, False)}, True),
    "inviscid": (_run_sweep, _INVISCID, True),
    "rate": (_run_sweep, _INVISCID, True),
    "scaling": (_run_scaling, {"lambda_exp": (int, 1)}, True),
    "sharpness": (
        _run_sharpness,
        {
            "s_list": (_FLOATS, REQUIRED),
            "n_ladder": (_FLOATS, REQUIRED),
            "delta": (float, DELTA_DEFAULT),
        },
        False,
    ),
    "imethod-bounds": (
        _run_imethod_bounds,
        {
            "n1_ladder": (_FLOATS, REQUIRED),
            "ratios": (_FLOATS, RATIOS_DEFAULT),
            "cutoff_n": (float, 0.5),
            "s_exp": (float, -0.74),
            "n_samples": (int, 10_000),
        },
        False,
    ),
    "h1-bound": (_run_sweep, {"eps_ladder": (_FLOATS, (1.0, 0.1, 0.01, 0.001))}, True),
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
    try:
        cfg.out_path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _fail(ConfigError(f"cannot make out directory {str(cfg.out_path)!r}: {exc}"))
    artifacts: dict[str, bytes] = {}
    started = time.monotonic()
    runner = _COMMANDS[cfg.subcommand][0]
    try:
        result = runner(cfg, artifacts)
        result["config"] = cfg.echo
        # a NaN or infinity in the result is a RangeError here, before any
        # artifact is written
        artifacts["result.json"] = (canonical_json(result) + "\n").encode()
    except InitialDataError as exc:
        kind = cfg.data["kind"]
        return _fail(ParameterError(f"initial_data.kind {kind!r}: {exc}"), cfg.out_path)
    except tuple(_EXIT_CODES) as exc:
        return _fail(exc, cfg.out_path)

    config_comment = ("# config: " + canonical_json(cfg.echo).replace("\n", " ") + "\n").encode()
    for name in list(artifacts):
        if name.endswith(".csv"):
            artifacts[name] = config_comment + artifacts[name]
    manifest = {
        "config": cfg.echo,
        "versions": {
            "kdvb": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "floors": result.get("floors"),
        "seed": cfg.seed,
    }
    try:
        for name, blob in sorted(artifacts.items()):
            path = cfg.out_path / name
            path.write_bytes(blob)
        # wall time is deliberately outside the deterministic artifact set
        path = cfg.out_path / "timing.json"
        path.write_text(canonical_json({"wall_time_s": time.monotonic() - started}) + "\n")
        # written last, so a manifest marks a run whose every artifact was written
        path = cfg.out_path / "manifest.json"
        path.write_bytes((canonical_json(manifest) + "\n").encode())
    except OSError as exc:
        return _fail(ConfigError(f"cannot write artifact {str(path)!r}: {exc}"), cfg.out_path)
    return 0


def _fail(exc: Exception, out_path: Path | None = None) -> int:
    """Print the error record of exc, one of the classes in _EXIT_CODES,
    to stderr, and to out_path/error.json when an output directory is
    known; return its exit code."""
    code = next(c for cls, c in _EXIT_CODES.items() if isinstance(exc, cls))
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
        doc = _decode(text)
    except ConfigError:
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
        return _fail(ConfigError(str(exc)), out)
    try:
        cfg = parse_config(text, seed=args.seed, out=out)
    except ConfigError as exc:
        # a document rejected before its out was validated may still name one
        return _fail(exc, out if out is not None else _named_out(text))
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
