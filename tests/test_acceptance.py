"""Acceptance suite: every headline criterion at its stated tolerance.

Each test prints one `[criterion NN] ... PASS` line (visible under
``pytest -s``); an assertion failure marks the criterion red.  The CLI
configs mirroring criteria 1-8 live in configs/ and back the
determinism criterion, which also holds the result.json each config
ships to its criterion's bound; the ledger-identity and rearrangement
checks (criteria 9-10) have no CLI surface and are re-run twice at API
level instead.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kdvb
from kdvb.cli import parse_config, run
from kdvb.evolve import SolverConfig, solve, solve_ladder
from kdvb.experiments import (
    critical_index,
    energy_check,
    gaussian_initial_data,
    h1_bound_check,
    inviscid_sweep,
    power_law_initial_data,
    rate_fit,
    scaling_check,
    soliton_initial_data,
)
from kdvb.imethod import (
    DyadicConfig,
    IMultiplierSpec,
    denergy_identity_residual,
    m4_bound_sample,
    rearrangement_check,
)
from kdvb.propagator import ModelParams
from kdvb.sharpness import exponent_sweep
from kdvb.spectral import GridSpec, forward_transform

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(number: int, label: str, detail: str) -> None:
    print(f"[criterion {number:02d}] {label}: {detail} PASS")


class TestCriterion01DissipationLedger:
    def test_l2_ledger_residual_and_refinement(self):
        grid = GridSpec(box_length=64.0, modes=512)
        phi = gaussian_initial_data(grid, width=1.5, l2_norm=1.0, modulation=2.0)
        cfg = SolverConfig(
            params=ModelParams(0.3, 0.8), grid=grid, dt=5e-4, t_final=1.0, snapshot_stride=10
        )
        rec = energy_check(phi, cfg, refine_check=True)
        assert rec["ledger_residual"] <= 1e-5
        assert rec["refinement_factor"] >= 4.0
        report(
            1,
            "L2 dissipation identity",
            f"residual {rec['ledger_residual']:.3e} <= 1e-5, "
            f"refinement x{rec['refinement_factor']:.1f} >= 4;",
        )


class TestCriterion02SolitonTransport:
    def test_one_box_transit_and_richardson(self):
        grid = GridSpec(box_length=32.0, modes=384)
        c = 4.0
        phi = soliton_initial_data(c, x0=8.0, grid=grid)
        target = forward_transform(phi).coeffs
        transit = grid.box_length / c

        # both runs step on one clock; each row is its single solve bit for bit
        cfgs = [
            SolverConfig(
                params=ModelParams(0.0, 1.0), grid=grid, dt=dt, t_final=transit,
                snapshot_stride=10**9,
            )
            for dt in (4e-4, 2e-4)
        ]
        err, err_half = (
            np.linalg.norm(traj.coeffs[-1] - target) / np.linalg.norm(target)
            for traj in solve_ladder(phi, cfgs)
        )
        assert err <= 1e-6
        ratio = err / err_half
        assert 14.0 <= ratio <= 18.0
        report(
            2,
            "KdV soliton transport",
            f"shape error {err:.3e} <= 1e-6, Richardson ratio {ratio:.2f} in 16+-2;",
        )


class TestCriterion03ScalingInvariance:
    def test_half_lambda_cross_solve(self):
        grid = GridSpec(box_length=32.0, modes=256)
        phi = soliton_initial_data(4.0, x0=16.0, grid=grid)
        cfg = SolverConfig(ModelParams(0.5, 1.0), grid, dt=5e-4, t_final=0.5)
        distance = scaling_check(phi, cfg, lambda_exp=1)
        assert distance <= 1e-7
        report(3, "scaling invariance", f"cross-solve distance {distance:.3e} <= 1e-7;")


@pytest.fixture(scope="module")
def inviscid_phi():
    grid = GridSpec(box_length=32.0, modes=256)
    return gaussian_initial_data(grid, width=2.0, l2_norm=4.0, modulation=2.0)


class TestCriterion04InviscidLimit:
    @pytest.mark.parametrize("s", [0.0, -0.5])
    def test_observable_decreases_to_floor(self, inviscid_phi, s):
        cfg = SolverConfig(
            ModelParams(0.0, 1.0), inviscid_phi.grid, dt=1e-2, t_final=1.0, snapshot_stride=10
        )
        rep = inviscid_sweep(inviscid_phi, cfg, eps_ladder=(1e-1, 1e-2, 1e-3, 1e-4), s=s)
        obs = [rec["observable"] for rec in rep["observables"]]
        assert all(a > b for a, b in zip(obs, obs[1:]))
        floor = rep["meta"]["floor"]
        assert obs[-1] <= 10.0 * floor
        report(
            4,
            f"inviscid limit (s = {s})",
            f"observables decreasing, min {obs[-1]:.3e} <= 10 x floor {floor:.3e};",
        )


class TestCriterion05RateBound:
    def test_rough_data_rate(self):
        grid = GridSpec(box_length=8.0, modes=512)
        phi = power_law_initial_data(grid, -1.51, l2_norm=0.5, seed=1234)
        cfg = SolverConfig(ModelParams(0.0, 1.0), grid, dt=2e-3, t_final=1.0, snapshot_stride=25)
        rep = inviscid_sweep(phi, cfg, eps_ladder=(1e-1, 1e-2, 1e-3, 1e-4), s=0.0)
        slope = rate_fit(rep)
        assert slope >= 0.4
        report(5, "inviscid rate bound", f"fitted slope {slope:.3f} >= 0.4;")


class TestCriterion06H1UniformBound:
    def test_band(self):
        grid = GridSpec(box_length=32.0, modes=256)
        phi = gaussian_initial_data(grid, width=2.0, l2_norm=2.0, modulation=1.0)
        cfg = SolverConfig(ModelParams(0.0, 0.8), grid, dt=5e-3, t_final=1.0, snapshot_stride=10)
        rep = h1_bound_check(phi, cfg, eps_ladder=(1.0, 0.1, 0.01, 0.001))
        assert rep["band_ratio"] <= 3.0
        report(6, "H1 uniform bound", f"observable band max/min {rep['band_ratio']:.2f} <= 3;")


class TestCriterion07SharpnessCrossover:
    CASES = [
        (0.25, "low_alpha", (-1.05, -0.9, -0.75, -0.6, -0.45)),
        (0.75, "high_alpha", (-1.15, -1.0, -0.857, -0.7, -0.55)),
        (1.0, "high_alpha", (-1.3, -1.15, -1.0, -0.85, -0.7)),
    ]

    @pytest.mark.parametrize("alpha,regime,s_list", CASES)
    def test_crossover_matches_critical_index(self, alpha, regime, s_list):
        rep = exponent_sweep(alpha, s_list, (16.0, 32.0, 64.0, 128.0))
        assert rep["meta"]["regime"] == regime
        target = critical_index(alpha)
        assert rep["crossover_estimate"] == pytest.approx(target, abs=0.1)
        report(
            7,
            f"sharpness crossover (alpha = {alpha})",
            f"crossover {rep['crossover_estimate']:+.3f} within 0.1 of {target:+.3f};",
        )


class TestCriterion08M4PointwiseBound:
    LADDER = tuple(float(2**j) for j in range(4, 11))

    @pytest.mark.parametrize("eps", [0.0, 1e-3, 1.0])
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_sampled_ratio_slope_flat(self, eps, alpha):
        cfg = DyadicConfig(n1_ladder=self.LADDER, ratios=(1.0, 0.75, 0.5), seed=42)
        rep = m4_bound_sample(
            cfg, IMultiplierSpec(0.5, -0.74), ModelParams(eps, alpha), 10_000
        )
        assert abs(rep["slope"]) <= 0.1
        report(
            8,
            f"quartic multiplier bound (eps = {eps}, alpha = {alpha})",
            f"max-ratio slope {rep['slope']:+.3f} within +-0.1;",
        )


def _identity_trajectory(stride: int):
    grid = GridSpec(box_length=32.0, modes=128)
    phi = gaussian_initial_data(grid, width=3.0, l2_norm=1.0, modulation=0.3)
    cfg = SolverConfig(
        params=ModelParams(0.3, 0.8), grid=grid, dt=1e-3, t_final=0.5,
        snapshot_stride=stride,
    )
    return solve(phi, cfg)


class TestCriterion09EnergyDerivativeIdentity:
    def test_residual_and_quartering(self):
        spec = IMultiplierSpec(cutoff_n=8.0, s_exp=-0.74)
        coarse = denergy_identity_residual(_identity_trajectory(10), spec)
        fine = denergy_identity_residual(_identity_trajectory(5), spec)
        assert coarse <= 1e-4
        ratio = coarse / fine
        assert 2.8 <= ratio <= 5.7
        report(
            9,
            "quadratic ledger identity",
            f"residual {coarse:.3e} <= 1e-4, snapshot-halving ratio {ratio:.2f};",
        )


class TestCriterion10Rearrangement:
    def test_no_violations(self):
        rng = np.random.default_rng(2024)
        checked = 0
        for _ in range(100_000 // 8):
            k = int(rng.integers(2, 9))
            a = rng.random(k) * rng.choice([0.1, 1.0, 100.0])
            b = rng.random(k) * rng.choice([0.1, 1.0, 100.0])
            for _ in range(8):
                lhs, rhs = rearrangement_check(a, b)
                assert lhs >= rhs - 1e-12 * max(lhs, 1.0)
                a = rng.permutation(a)
                checked += 1
        assert checked == 100_000
        report(10, "rearrangement inequality", f"{checked} tuples, zero violations;")


def assert_shipped_bound(stem: str, result: dict) -> None:
    """The bound of the criterion a config mirrors, with its acceptance
    test's tolerance, asserted on the result.json that config ships."""
    if stem == "criterion01":
        assert result["ledger_residual"] <= 1e-5
        assert result["refinement_factor"] >= 4.0
    elif stem == "criterion02":
        # a plain solve with no Richardson output: the transport bound is
        # checked at API level only (TestCriterion02SolitonTransport)
        pass
    elif stem == "criterion03":
        assert result["distance"] <= 1e-7
    elif stem == "criterion04":
        obs = [rec["observable"] for rec in result["observables"]]
        assert all(a > b for a, b in zip(obs, obs[1:]))
        assert obs[-1] <= 10.0 * result["floors"]["self_convergence"]
    elif stem == "criterion05":
        assert result["rate_slope"] >= 0.4
    elif stem == "criterion06":
        assert result["band_ratio"] <= 3.0
    elif stem == "criterion07":
        target = critical_index(result["meta"]["alpha"])
        assert result["crossover_estimate"] == pytest.approx(target, abs=0.1)
    elif stem == "criterion08":
        assert abs(result["slope"]) <= 0.1
    else:
        raise AssertionError(f"no bound is known for {stem}")


def _artifacts(out: Path) -> dict:
    """The bytes of every artifact in out but the timing.json sidecar."""
    return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "timing.json"}


def _cli_process(config_text: str, cwd: Path) -> subprocess.Popen:
    """``python -m kdvb.cli`` on config_text in a fresh interpreter, started in
    cwd on the kdvb package these tests import; a RuntimeWarning is an error."""
    (cwd / "config.json").write_text(config_text)
    src = str(Path(kdvb.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    command = [sys.executable, "-W", "error::RuntimeWarning", "-m", "kdvb.cli"]
    return subprocess.Popen(
        [*command, "--config", "config.json"],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


class TestCriterion11Determinism:
    CONFIGS = sorted(CONFIG_DIR.glob("criterion0*.json"))
    # their second run is a fresh interpreter running alongside the first: the
    # subprocess costs about 0.3 s to start, which pays only on the longest runs
    FRESH_INTERPRETER = ("criterion01", "criterion02")

    def test_configs_exist(self):
        assert len(self.CONFIGS) == 8

    @pytest.mark.parametrize(
        "config_path", CONFIGS, ids=lambda p: p.stem if hasattr(p, "stem") else str(p)
    )
    def test_cli_reruns_byte_identical(self, config_path, tmp_path, monkeypatch):
        # the relative out "out" lets runs in two working directories echo the
        # same config; an in-process rerun overwrites the first run's artifacts
        doc = json.loads(config_path.read_text())
        doc["out"] = "out"
        text = json.dumps(doc)
        first_cwd, child_cwd = tmp_path / "first", tmp_path / "second"
        first_cwd.mkdir()
        child = None
        if config_path.stem in self.FRESH_INTERPRETER:
            child_cwd.mkdir()
            child = _cli_process(text, child_cwd)
        try:
            cfg = parse_config(text)
            monkeypatch.chdir(first_cwd)
            assert run(cfg) == 0
            first = _artifacts(first_cwd / "out")
            if child is None:
                assert run(cfg) == 0
                second = _artifacts(first_cwd / "out")
            else:
                _, err = child.communicate(timeout=600)
                assert child.returncode == 0, err
                second = _artifacts(child_cwd / "out")
        finally:
            if child is not None and child.poll() is None:
                child.kill()
                child.communicate()
        assert first == second
        assert_shipped_bound(config_path.stem, json.loads(first["result.json"]))
        rerun = "in-process" if child is None else "fresh-interpreter"
        report(
            11,
            f"determinism ({config_path.stem})",
            f"byte-identical {rerun} re-run, shipped result within its bound;",
        )

    def test_api_level_determinism_for_non_cli_criteria(self):
        spec = IMultiplierSpec(cutoff_n=8.0, s_exp=-0.74)
        a = denergy_identity_residual(_identity_trajectory(10), spec)
        b = denergy_identity_residual(_identity_trajectory(10), spec)
        assert a == b
        rng1 = np.random.default_rng(99)
        rng2 = np.random.default_rng(99)
        pair1 = rearrangement_check(rng1.random(6), rng1.random(6))
        pair2 = rearrangement_check(rng2.random(6), rng2.random(6))
        assert pair1 == pair2
        report(11, "determinism (criteria 9-10, API level)", "identical re-runs;")
