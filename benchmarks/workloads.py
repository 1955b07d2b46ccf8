"""Workload definitions: per-pass inputs, the operations of one pass, and
the correctness gate applied to every operation's output.

Each workload replays committed acceptance configs (criterion 01-08)
through ``kdvb.cli.run``; criterion 09 has no CLI surface and is called
through the API.  The config templates are copied here so that the
benchmark's inputs cannot change when ``configs/`` does.  Tolerances are
the acceptance suite's own and are not loosened.

Inputs of pass ``i`` under workload seed ``s`` come from
``numpy.random.default_rng([s, i])``; pass 0 under ``DEFAULT_SEED``
reproduces the committed configs exactly.  Varying the inputs per pass
keeps a cache that outlives one ``cli.run`` call from turning repeated
passes into lookups, which a CLI user (one config per process) never gets.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

DEFAULT_SEED = 0

# Verbatim copies of configs/criterion0*.json at the commit that added the
# benchmark (the "out" key is set per operation).
TEMPLATES = {
    "criterion01": {
        "alpha": 0.8, "box_length": 64.0, "dt": 0.0005,
        "energy": {"refine_check": True},
        "epsilon": 0.3,
        "initial_data": {"kind": "gaussian", "l2_norm": 1.0, "modulation": 2.0, "width": 1.5},
        "modes": 512, "seed": 0, "snapshot_stride": 10, "subcommand": "energy", "t_final": 1.0,
    },
    "criterion02": {
        "alpha": 1.0, "box_length": 32.0, "dt": 0.0004, "epsilon": 0.0,
        "initial_data": {"c": 4.0, "kind": "soliton", "x0": 8.0},
        "modes": 384, "seed": 0, "snapshot_stride": 2500, "subcommand": "solve", "t_final": 8.0,
    },
    "criterion03": {
        "alpha": 1.0, "box_length": 32.0, "dt": 0.0005, "epsilon": 0.5,
        "initial_data": {"c": 4.0, "kind": "soliton", "x0": 16.0},
        "modes": 256, "scaling": {"lambda_exp": 1}, "seed": 0, "subcommand": "scaling",
        "t_final": 0.5,
    },
    "criterion04": {
        "alpha": 1.0, "box_length": 32.0, "dt": 0.01, "epsilon": 0.0,
        "initial_data": {"kind": "gaussian", "l2_norm": 4.0, "modulation": 2.0, "width": 2.0},
        "inviscid": {"eps_ladder": [0.1, 0.01, 0.001, 0.0001], "sobolev_s": 0.0},
        "modes": 256, "seed": 0, "snapshot_stride": 10, "subcommand": "inviscid", "t_final": 1.0,
    },
    "criterion05": {
        "alpha": 1.0, "box_length": 8.0, "dt": 0.002, "epsilon": 0.0,
        "initial_data": {"decay_exponent": -1.51, "kind": "power_law", "l2_norm": 0.5, "seed": 1234},
        "modes": 512,
        "rate": {"eps_ladder": [0.1, 0.01, 0.001, 0.0001], "sobolev_s": 0.0},
        "seed": 1234, "snapshot_stride": 25, "subcommand": "rate", "t_final": 1.0,
    },
    "criterion06": {
        "alpha": 0.8, "box_length": 32.0, "dt": 0.005, "epsilon": 0.0,
        "h1-bound": {"eps_ladder": [1.0, 0.1, 0.01, 0.001]},
        "initial_data": {"kind": "gaussian", "l2_norm": 2.0, "modulation": 1.0, "width": 2.0},
        "modes": 256, "seed": 0, "snapshot_stride": 10, "subcommand": "h1-bound", "t_final": 1.0,
    },
    "criterion07": {
        "alpha": 0.25, "box_length": 16.0, "epsilon": 0.0, "modes": 64, "seed": 0,
        "sharpness": {
            "delta": 0.01,
            "n_ladder": [16.0, 32.0, 64.0, 128.0],
            "s_list": [-1.05, -0.9, -0.75, -0.6, -0.45],
        },
        "subcommand": "sharpness",
    },
    "criterion08": {
        "alpha": 0.5, "box_length": 16.0, "epsilon": 0.0,
        "imethod-bounds": {
            "cutoff_n": 0.5,
            "n1_ladder": [16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0],
            "n_samples": 10000,
            "ratios": [1.0, 0.75, 0.5],
            "s_exp": -0.74,
        },
        "modes": 64, "seed": 42, "subcommand": "imethod-bounds",
    },
}

# Criterion 09: the quadratic ledger identity on a 128-mode gaussian solve,
# checked at snapshot strides 10 (coarse) and 5 (fine).
IDENTITY_STRIDES = (10, 5)


class CheckFailed(Exception):
    """An operation's output missed an acceptance tolerance."""


@dataclass
class Operation:
    """One unit of work in a pass.  execute() is the timed part and returns
    the bytes of artifacts written; check() applies the acceptance gate."""

    name: str
    execute: Callable[[], int]
    check: Callable[[], None]


def pass_rng(seed: int, pass_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, pass_index])


def _committed(seed: int, pass_index: int) -> bool:
    return seed == DEFAULT_SEED and pass_index == 0


def transport_configs(seed: int, pass_index: int) -> dict[str, dict]:
    doc = copy.deepcopy(TEMPLATES["criterion02"])
    if not _committed(seed, pass_index):
        doc["initial_data"]["x0"] = round(float(pass_rng(seed, pass_index).uniform(4.0, 28.0)), 6)
    return {"criterion02": doc}


def ensemble_configs(seed: int, pass_index: int) -> dict[str, dict]:
    docs = {name: copy.deepcopy(TEMPLATES[name]) for name in
            ("criterion01", "criterion03", "criterion04", "criterion05", "criterion06")}
    if not _committed(seed, pass_index):
        draw = int(pass_rng(seed, pass_index).integers(0, 2**31 - 1))
        for doc in docs.values():
            doc["seed"] = draw
        docs["criterion05"]["initial_data"]["seed"] = draw
    return docs


def calculus_configs(seed: int, pass_index: int) -> dict[str, dict]:
    docs = {name: copy.deepcopy(TEMPLATES[name]) for name in ("criterion07", "criterion08")}
    if not _committed(seed, pass_index):
        docs["criterion08"]["seed"] = int(pass_rng(seed, pass_index).integers(0, 2**31 - 1))
    return docs


CONFIGS = {
    "transport": transport_configs,
    "ensemble": ensemble_configs,
    "calculus": calculus_configs,
}

# The reference burst (reference.py) whose kind of work each workload does.
REFERENCE_KIND = {"transport": "spectral", "ensemble": "spectral", "calculus": "arrays"}


# ---------------------------------------------------------------------------
# Correctness gate (acceptance-suite tolerances)
# ---------------------------------------------------------------------------


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _read_trajectory_final(path: Path) -> tuple[np.ndarray, dict]:
    """Last snapshot of a trajectory.bin: (values, header).  Parsed here,
    not through kdvb, so the check does not trust the code under test."""
    blob = path.read_bytes()
    (hlen,) = np.frombuffer(blob[:4], dtype="<u4")
    manifest = json.loads(blob[4:4 + hlen])
    pos = 4 + int(hlen)
    values, header = None, None
    for _ in range(int(manifest["count"])):
        _require(blob[pos:pos + 8] == b"KDVBSNAP", "trajectory.bin: bad snapshot magic")
        (slen,) = np.frombuffer(blob[pos + 8:pos + 12], dtype="<u4")
        header = json.loads(blob[pos + 12:pos + 12 + slen])
        start = pos + 12 + int(slen)
        modes = int(header["modes"])
        values = np.frombuffer(blob[start:start + 8 * modes], dtype="<f8")
        pos = start + 8 * modes
    _require(pos == len(blob), "trajectory.bin: trailing bytes")
    return values, header


def check_transport(doc: dict, out: Path) -> None:
    """Criterion 02: one box transit returns the soliton to its initial
    profile within relative L2 shape error 1e-6."""
    values, header = _read_trajectory_final(out / "trajectory.bin")
    transit = doc["box_length"] / doc["initial_data"]["c"]
    _require(abs(header["time"] - transit) <= 1e-12 * transit,
             f"final snapshot at t = {header['time']}, expected one transit {transit}")
    c, x0 = doc["initial_data"]["c"], doc["initial_data"]["x0"]
    length, modes = doc["box_length"], doc["modes"]
    y = np.arange(modes) * (length / modes) - x0
    y -= length * np.round(y / length)
    phi = 1.5 * c / np.cosh(0.5 * math.sqrt(c) * y) ** 2
    err = float(np.linalg.norm(values - phi) / np.linalg.norm(phi))
    _require(err <= 1e-6, f"criterion02 shape error {err:.3e} > 1e-6")


def check_result(name: str, doc: dict, result: dict) -> None:
    if name == "criterion01":
        _require(result["ledger_residual"] <= 1e-5,
                 f"criterion01 ledger residual {result['ledger_residual']:.3e} > 1e-5")
        _require(result["refinement_factor"] >= 4.0,
                 f"criterion01 refinement factor {result['refinement_factor']:.3f} < 4")
    elif name == "criterion03":
        _require(result["distance"] <= 1e-7,
                 f"criterion03 scaling distance {result['distance']:.3e} > 1e-7")
    elif name == "criterion04":
        obs = [rec["observable"] for rec in result["observables"]]
        floor = result["floors"]["self_convergence"]
        _require(all(a > b for a, b in zip(obs, obs[1:])),
                 f"criterion04 observables not strictly decreasing: {obs}")
        _require(obs[-1] <= 10.0 * floor,
                 f"criterion04 last observable {obs[-1]:.3e} > 10 x floor {floor:.3e}")
    elif name == "criterion05":
        _require(result["rate_slope"] >= 0.4,
                 f"criterion05 rate slope {result['rate_slope']:.4f} < 0.4")
    elif name == "criterion06":
        _require(result["band_ratio"] <= 3.0,
                 f"criterion06 band ratio {result['band_ratio']:.3f} > 3")
    elif name == "criterion07":
        alpha = doc["alpha"]
        target = -0.75 if alpha <= 0.5 else -3.0 / (5.0 - 2.0 * alpha)
        cross = result["crossover_estimate"]
        _require(cross is not None and abs(cross - target) <= 0.1,
                 f"criterion07 crossover {cross} not within 0.1 of {target:.4f}")
    elif name == "criterion08":
        _require(abs(result["slope"]) <= 0.1,
                 f"criterion08 m4 slope {result['slope']:+.4f} outside +-0.1")
    else:
        raise KeyError(name)


def check_identity(coarse: float, fine: float) -> None:
    """Criterion 09: residual <= 1e-4 with snapshot-halving ratio in [2.8, 5.7]."""
    _require(coarse <= 1e-4, f"criterion09 identity residual {coarse:.3e} > 1e-4")
    ratio = coarse / fine if fine > 0 else math.inf
    _require(2.8 <= ratio <= 5.7, f"criterion09 halving ratio {ratio:.3f} outside [2.8, 5.7]")


# ---------------------------------------------------------------------------
# Set-up and operations
# ---------------------------------------------------------------------------


def identity_trajectories(kdvb) -> tuple:
    """The criterion-09 trajectories, built once during set-up."""
    grid = kdvb.spectral.GridSpec(box_length=32.0, modes=128)
    phi = kdvb.experiments.gaussian_initial_data(grid, width=3.0, l2_norm=1.0, modulation=0.3)
    params = kdvb.propagator.ModelParams(0.3, 0.8)
    return tuple(
        kdvb.evolve.solve(
            phi,
            kdvb.evolve.SolverConfig(
                params=params, grid=grid, dt=1e-3, t_final=0.5, snapshot_stride=stride
            ),
        )
        for stride in IDENTITY_STRIDES
    )


def cli_operation(kdvb, name: str, doc: dict, out: Path) -> Operation:
    """Parse one config, run it through kdvb.cli.run, gate its outputs.
    execute() returns the bytes of the deterministic artifacts written."""
    doc = {**doc, "out": str(out)}

    def execute() -> int:
        code = kdvb.cli.run(kdvb.cli.parse_config(json.dumps(doc)))
        _require(code == 0, f"{name}: kdvb.cli.run exited {code}")
        # timing.json holds a wall time, so its size varies from run to run
        return sum(p.stat().st_size for p in out.iterdir() if p.name != "timing.json")

    def check() -> None:
        if name == "criterion02":
            check_transport(doc, out)
        else:
            check_result(name, doc, json.loads((out / "result.json").read_text()))

    return Operation(name, execute, check)


def identity_operation(kdvb, trajectories: tuple) -> Operation:
    """Criterion 09 through the API, on trajectories built in set-up."""
    residuals = []

    def execute() -> int:
        spec = kdvb.imethod.IMultiplierSpec(cutoff_n=8.0, s_exp=-0.74)
        residuals.extend(
            kdvb.imethod.denergy_identity_residual(traj, spec) for traj in trajectories
        )
        return 0

    return Operation("criterion09", execute, lambda: check_identity(*residuals))


def setup_state(kdvb, workload: str) -> tuple:
    """Inputs built once per run: the criterion-09 trajectories (calculus)."""
    return identity_trajectories(kdvb) if workload == "calculus" else ()


def operations(kdvb, workload: str, seed: int, pass_index: int, pass_dir: Path,
               trajectories: tuple) -> list[Operation]:
    """The operations of one pass; each CLI run writes its own directory."""
    ops = [
        cli_operation(kdvb, name, doc, pass_dir / name)
        for name, doc in CONFIGS[workload](seed, pass_index).items()
    ]
    if workload == "calculus":
        ops.append(identity_operation(kdvb, trajectories))
    return ops
