"""Acceptance suite: every headline criterion at its stated tolerance.

Each test prints one `[criterion NN] ... PASS` line (visible under
``pytest -s``); an assertion failure marks the criterion red.  The CLI
configs in configs/ are the only definition of the shipped point of
criteria 1-8: each runs once a session, as its determinism pair
(criterion 11), and criteria 1 and 3-8 check the result.json of the
pair's first run.  A point with no shipped config is the shipped document
with the keys it changes, run once through the CLI and checked the same
way.  Criterion 2's dt/2 Richardson pair and criteria 9-10 have no CLI
surface and are solved at API level.
"""

import functools
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
from kdvb.experiments import critical_index, gaussian_initial_data, soliton_initial_data
from kdvb.imethod import IMultiplierSpec, denergy_identity_residual, rearrangement_check
from kdvb.propagator import ModelParams
from kdvb.spectral import GridSpec, forward_transform

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
STEMS = [path.stem for path in sorted(CONFIG_DIR.glob("criterion0*.json"))]
# their second run is a fresh interpreter running alongside the first: the
# subprocess costs about 0.3 s to start, which pays only on the longest runs
FRESH_INTERPRETER = ("criterion01", "criterion02")


def report(number: int, label: str, detail: str) -> None:
    print(f"[criterion {number:02d}] {label}: {detail} PASS")


def shipped(stem: str) -> dict:
    """The document of configs/<stem>.json."""
    return json.loads((CONFIG_DIR / f"{stem}.json").read_text())


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


def _determinism_pair(stem: str, cwd: Path) -> tuple[dict, dict]:
    """The artifacts of two runs of configs/<stem>.json with the relative
    out "out", so runs in two working directories echo the same config.
    The first runs in process in cwd/first; the second is a fresh
    interpreter in cwd/second, started before it, for a FRESH_INTERPRETER
    stem, and otherwise a second in-process run over the first's artifacts."""
    doc = shipped(stem)
    doc["out"] = "out"
    text = json.dumps(doc)
    first_cwd, child_cwd = cwd / "first", cwd / "second"
    first_cwd.mkdir()
    child = None
    if stem in FRESH_INTERPRETER:
        child_cwd.mkdir()
        child = _cli_process(text, child_cwd)
    try:
        cfg = parse_config(text)
        with pytest.MonkeyPatch.context() as patch:
            patch.chdir(first_cwd)
            assert run(cfg) == 0
            first = _artifacts(first_cwd / "out")
            if child is None:
                assert run(cfg) == 0
                return first, _artifacts(first_cwd / "out")
        _, err = child.communicate(timeout=600)
        assert child.returncode == 0, err
        return first, _artifacts(child_cwd / "out")
    finally:
        if child is not None and child.poll() is None:
            child.kill()
            child.communicate()


@pytest.fixture(scope="session")
def determinism_pair(tmp_path_factory):
    """stem -> the artifacts of configs/<stem>.json's determinism pair, run
    once a session, on the first request."""
    return functools.cache(lambda stem: _determinism_pair(stem, tmp_path_factory.mktemp(stem)))


@pytest.fixture
def criterion_result(determinism_pair, tmp_path):
    """(stem, **changes) -> the result.json of configs/<stem>.json with
    changes applied, an object value merged into the document's.  The
    shipped document itself reads its determinism pair's first run; any
    other runs once through the CLI in tmp_path."""

    def result(stem: str, **changes) -> dict:
        doc = shipped(stem)
        for key, value in changes.items():
            doc[key] = {**doc[key], **value} if isinstance(value, dict) else value
        if doc == shipped(stem):
            return json.loads(determinism_pair(stem)[0]["result.json"])
        assert run(parse_config(json.dumps(doc), out=tmp_path)) == 0
        return json.loads((tmp_path / "result.json").read_text())

    return result


class TestCriterion01DissipationLedger:
    def test_l2_ledger_residual_and_refinement(self, criterion_result):
        rec = criterion_result("criterion01")
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
    def test_half_lambda_cross_solve(self, criterion_result):
        distance = criterion_result("criterion03")["distance"]
        assert distance <= 1e-7
        report(3, "scaling invariance", f"cross-solve distance {distance:.3e} <= 1e-7;")


class TestCriterion04InviscidLimit:
    @pytest.mark.parametrize("s", [0.0, -0.5])
    def test_observable_decreases_to_floor(self, criterion_result, s):
        rec = criterion_result("criterion04", inviscid={"sobolev_s": s})
        obs = [r["observable"] for r in rec["observables"]]
        assert all(a > b for a, b in zip(obs, obs[1:]))
        floor = rec["floors"]["self_convergence"]
        assert obs[-1] <= 10.0 * floor
        report(
            4,
            f"inviscid limit (s = {s})",
            f"observables decreasing, min {obs[-1]:.3e} <= 10 x floor {floor:.3e};",
        )


class TestCriterion05RateBound:
    def test_rough_data_rate(self, criterion_result):
        slope = criterion_result("criterion05")["rate_slope"]
        assert slope >= 0.4
        report(5, "inviscid rate bound", f"fitted slope {slope:.3f} >= 0.4;")


class TestCriterion06H1UniformBound:
    def test_band(self, criterion_result):
        band_ratio = criterion_result("criterion06")["band_ratio"]
        assert band_ratio <= 3.0
        report(6, "H1 uniform bound", f"observable band max/min {band_ratio:.2f} <= 3;")


class TestCriterion07SharpnessCrossover:
    # the shipped config's s_list (None) at alpha = 0.25, its own at the others
    CASES = [
        (0.25, "low_alpha", None),
        (0.75, "high_alpha", [-1.15, -1.0, -0.857, -0.7, -0.55]),
        (1.0, "high_alpha", [-1.3, -1.15, -1.0, -0.85, -0.7]),
    ]

    @pytest.mark.parametrize(
        "alpha,regime,s_list",
        CASES,
        ids=[f"{alpha}-{regime}-s_list{i}" for i, (alpha, regime, _) in enumerate(CASES)],
    )
    def test_crossover_matches_critical_index(self, criterion_result, alpha, regime, s_list):
        block = {} if s_list is None else {"s_list": s_list}
        rec = criterion_result("criterion07", alpha=alpha, sharpness=block)
        assert rec["meta"]["regime"] == regime
        target = critical_index(rec["meta"]["alpha"])
        assert rec["crossover_estimate"] == pytest.approx(target, abs=0.1)
        report(
            7,
            f"sharpness crossover (alpha = {alpha})",
            f"crossover {rec['crossover_estimate']:+.3f} within 0.1 of {target:+.3f};",
        )


class TestCriterion08M4PointwiseBound:
    @pytest.mark.parametrize("eps", [0.0, 1e-3, 1.0])
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_sampled_ratio_slope_flat(self, criterion_result, eps, alpha):
        slope = criterion_result("criterion08", epsilon=eps, alpha=alpha)["slope"]
        assert abs(slope) <= 0.1
        report(
            8,
            f"quartic multiplier bound (eps = {eps}, alpha = {alpha})",
            f"max-ratio slope {slope:+.3f} within +-0.1;",
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


class TestCriterion11Determinism:
    def test_configs_exist(self):
        assert len(STEMS) == 8

    @pytest.mark.parametrize("stem", STEMS)
    def test_cli_reruns_byte_identical(self, determinism_pair, stem):
        first, second = determinism_pair(stem)
        assert first == second
        rerun = "fresh-interpreter" if stem in FRESH_INTERPRETER else "in-process"
        report(11, f"determinism ({stem})", f"byte-identical {rerun} re-run;")

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
