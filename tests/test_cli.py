"""Tests for config parsing, dispatch, artifacts, and exit codes."""

import json
from pathlib import Path

import pytest

from kdvb import cli
from kdvb.cli import build_initial_data, main, parse_config, run
from kdvb.errors import (
    ConfigError,
    ContractViolationError,
    DivergenceError,
    ParameterError,
    RangeError,
    ResolutionError,
    ResonantDenominatorError,
)


def solve_doc(out, **overrides):
    doc = {
        "subcommand": "solve",
        "epsilon": 0.1,
        "alpha": 1.0,
        "modes": 64,
        "box_length": 32.0,
        "dt": 1e-3,
        "t_final": 0.05,
        "out": str(out),
        "initial_data": {"kind": "gaussian", "width": 2.0, "l2_norm": 1.0},
    }
    doc.update(overrides)
    return doc


class TestParseConfig:
    def test_minimal_solve_accepts_defaults(self, tmp_path):
        cfg = parse_config(json.dumps(solve_doc(tmp_path)))
        assert cfg.grid.dealias_fraction == pytest.approx(2.0 / 3.0)
        assert cfg.snapshot_stride == 1
        assert cfg.seed == 0
        echoed = cfg.resolved()
        assert echoed["epsilon"] == 0.1
        assert echoed["solve"] == {}

    @pytest.mark.parametrize(
        "override,message",
        [
            ({"epsilon": 1.5}, r"\[0, 1\]"),
            ({"alpha": 0}, r"\(0, 1\]"),
            ({"modes": 9}, "even"),
            ({"subcommand": "frobnicate"}, "subcommand"),
            ({"mystery_key": 1}, "mystery_key"),
            ({"initial_data": {"kind": "vortex"}}, "kind"),
            ({"solve": {"extra": 1}}, "extra"),
        ],
    )
    def test_rejections_name_the_offender(self, tmp_path, override, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(json.dumps(solve_doc(tmp_path, **override)))

    def test_integral_float_accepted_for_integer_key(self, tmp_path):
        cfg = parse_config(json.dumps(solve_doc(tmp_path, modes=64.0, snapshot_stride=2.0)))
        assert cfg.grid.modes == 64 and type(cfg.grid.modes) is int
        assert cfg.snapshot_stride == 2 and type(cfg.snapshot_stride) is int

    def test_not_json(self):
        with pytest.raises(ConfigError, match="JSON"):
            parse_config("{nope")

    def test_spec_minimal_document(self):
        # the smallest viable solve document: defaults fill the rest
        doc = {"subcommand": "solve", "epsilon": 0.1, "alpha": 1, "modes": 256,
               "box_length": 64, "dt": 1e-3, "t_final": 1}
        cfg = parse_config(json.dumps(doc))
        assert cfg.initial_data["kind"] == "gaussian"
        assert cfg.out_path.name == "kdvb_out"

    def test_initial_data_kinds(self, tmp_path):
        for data in (
            {"kind": "soliton", "c": 4.0, "x0": 1.0},
            {"kind": "power_law", "decay_exponent": -1.51, "l2_norm": 0.4, "seed": 3},
            {"kind": "sine", "amplitude": 0.5, "wavenumber_index": 2},
        ):
            cfg = parse_config(json.dumps(solve_doc(tmp_path, initial_data=data)))
            field = build_initial_data(cfg)
            assert field.values.shape == (64,)


class TestRun:
    def test_solve_artifacts(self, tmp_path):
        cfg = parse_config(json.dumps(solve_doc(tmp_path / "run")))
        assert run(cfg) == 0
        names = {p.name for p in (tmp_path / "run").iterdir()}
        assert {
            "trajectory.bin",
            "ledger.csv",
            "result.json",
            "manifest.json",
            "timing.json",
        } <= names
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["config"]["modes"] == 64
        assert "wall_time" not in json.dumps(manifest)

    def test_reruns_are_byte_identical(self, tmp_path):
        out = tmp_path / "det"
        cfg = parse_config(json.dumps(solve_doc(out, seed=11)))
        assert run(cfg) == 0
        first = {
            p.name: p.read_bytes()
            for p in out.iterdir()
            if p.name != "timing.json"
        }
        assert run(cfg) == 0
        second = {
            p.name: p.read_bytes()
            for p in out.iterdir()
            if p.name != "timing.json"
        }
        assert first == second

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exit_code(self, tmp_path):
        doc = solve_doc(
            tmp_path / "bad",
            epsilon=0.0,
            dt=0.5,
            t_final=5.0,
            initial_data={"kind": "gaussian", "width": 1.0, "l2_norm": 60.0},
        )
        code = run(parse_config(json.dumps(doc)))
        assert code == 3
        error = json.loads((tmp_path / "bad" / "error.json").read_text())
        assert error["error"] == "DivergenceError"

    def test_resolution_exit_code(self, tmp_path):
        doc = solve_doc(
            tmp_path / "res", initial_data={"kind": "soliton", "c": 0.1, "x0": 0.0}
        )
        assert run(parse_config(json.dumps(doc))) == 4

    @pytest.mark.parametrize(
        "exc,code",
        [
            (ConfigError("x"), 2),
            (ParameterError("x"), 2),
            (ContractViolationError("x"), 2),
            (ResonantDenominatorError("x"), 2),
            (DivergenceError(3, 0.1), 3),
            (RangeError("x"), 3),
            (ResolutionError("x"), 4),
        ],
    )
    def test_each_error_class_exit_code(self, tmp_path, monkeypatch, exc, code):
        def failing_runner(cfg, artifacts):
            raise exc

        monkeypatch.setitem(cli._COMMANDS, "solve", (failing_runner, {}, True))
        assert run(parse_config(json.dumps(solve_doc(tmp_path / "e")))) == code
        error = json.loads((tmp_path / "e" / "error.json").read_text())
        assert error == {"error": type(exc).__name__, "exit_code": code, "message": str(exc)}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_exit_code(self, tmp_path):
        doc = {
            "subcommand": "sharpness",
            "epsilon": 0.1,
            "alpha": 0.25,
            "modes": 64,
            "box_length": 32.0,
            "out": str(tmp_path / "ovf"),
            "sharpness": {"s_list": [-1000.0, -999.0], "n_ladder": [16, 32, 64, 128]},
        }
        assert run(parse_config(json.dumps(doc))) == 3
        error = json.loads((tmp_path / "ovf" / "error.json").read_text())
        assert error["error"] == "RangeError"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_h1_bound_divergence_names_epsilon(self, tmp_path):
        doc = solve_doc(
            tmp_path / "h1",
            subcommand="h1-bound",
            dt=0.05,
            t_final=0.5,
            initial_data={"kind": "gaussian", "width": 2.0, "l2_norm": 400.0},
        )
        assert run(parse_config(json.dumps(doc))) == 3
        error = json.loads((tmp_path / "h1" / "error.json").read_text())
        assert error["error"] == "DivergenceError"
        assert error["message"].startswith("epsilon = 1.0: non-finite state")

    def test_inviscid_rows_in_ladder_order(self, tmp_path):
        doc = {
            "subcommand": "inviscid",
            "epsilon": 0.0,
            "alpha": 1.0,
            "modes": 64,
            "box_length": 16.0,
            "dt": 5e-3,
            "t_final": 0.05,
            "out": str(tmp_path / "inv"),
            "initial_data": {"kind": "gaussian", "width": 1.5, "l2_norm": 1.0},
            "inviscid": {"eps_ladder": [1e-1, 1e-2], "sobolev_s": 0.0},
        }
        assert run(parse_config(json.dumps(doc))) == 0
        rows = (tmp_path / "inv" / "sweep.csv").read_text().splitlines()
        assert rows[0].startswith("# config:")
        assert rows[1] == "epsilon,observable"
        assert [float(r.split(",")[0]) for r in rows[2:]] == [1e-1, 1e-2]
        result = json.loads((tmp_path / "inv" / "result.json").read_text())
        assert result["floors"]["self_convergence"] > 0
        assert result["experiment"] == "inviscid"
        assert result["ladder"] == [1e-1, 1e-2]
        assert result["grid"] == {"box_length": 16.0, "modes": 64}

    def test_sharpness_emits_crossover(self, tmp_path):
        doc = {
            "subcommand": "sharpness",
            "epsilon": 0.0,
            "alpha": 0.25,
            "modes": 64,
            "box_length": 16.0,
            "out": str(tmp_path / "sh"),
            "sharpness": {
                "s_list": [-0.9, -0.75, -0.6],
                "n_ladder": [16.0, 32.0, 64.0, 128.0],
            },
        }
        assert run(parse_config(json.dumps(doc))) == 0
        result = json.loads((tmp_path / "sh" / "result.json").read_text())
        assert result["crossover_estimate"] == pytest.approx(-0.75, abs=0.1)
        lines = (tmp_path / "sh" / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "alpha,s,N,ratio,slope,crossover_estimate"

    def test_imethod_bounds_report_schema(self, tmp_path):
        doc = {
            "subcommand": "imethod-bounds",
            "epsilon": 0.0,
            "alpha": 0.5,
            "modes": 64,
            "box_length": 16.0,
            "out": str(tmp_path / "im"),
            "seed": 5,
            "imethod-bounds": {
                "n1_ladder": [16.0, 32.0, 64.0],
                "cutoff_n": 0.5,
                "s_exp": -0.74,
                "n_samples": 10000,
            },
        }
        assert run(parse_config(json.dumps(doc))) == 0
        report = json.loads((tmp_path / "im" / "bound_report.json").read_text())
        assert set(report) == {"config", "N_ladder", "max_ratios", "slope", "seed", "samples"}
        assert report["seed"] == 5
        assert report["samples"] == 10000


class TestMain:
    def test_cli_round_trip(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(solve_doc(tmp_path / "a")))
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "b" / "result.json").exists()
        assert not (tmp_path / "a").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "absent.json")]) == 2
        assert "ConfigError" in capsys.readouterr().err

    def test_config_error_exit(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(solve_doc(tmp_path, epsilon=2.0)))
        assert main(["--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize(
        "override",
        [
            {"epsilon": "abc"},
            {"modes": "x"},
            {"t_final": float("inf")},
            {"box_length": float("inf")},
            {"seed": -1},
            {"initial_data": {"kind": "power_law", "seed": -1}},
            {"modes": 1e12},
            {"inviscid": {"eps_ladder": ["a"]}, "subcommand": "inviscid"},
            {"modes": 64.7},
            {"scaling": {"lambda_exp": 1.9}, "subcommand": "scaling"},
            {"energy": {"refine_check": "yes"}, "subcommand": "energy"},
            {"energy": {"refine_check": [1]}, "subcommand": "energy"},
        ],
    )
    def test_bad_scalar_is_config_error(self, tmp_path, capsys, override):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(solve_doc(tmp_path, **override)))
        assert main(["--config", str(cfg_path)]) == 2
        key = next(iter(override))
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "subcommand,block",
        [
            ("imethod-bounds", {"n1_ladder": [8.0, 16.0], "ratios": [1.0]}),
            ("imethod-bounds", {"n1_ladder": [8.0, 16.0], "ratios": [1.0, 0.75, 0.5, 0.25]}),
            ("rate", {"eps_ladder": []}),
            ("rate", {"eps_ladder": [0.1]}),
            ("inviscid", {"eps_ladder": []}),
            ("h1-bound", {"eps_ladder": []}),
            ("sharpness", {"s_list": [-0.5], "n_ladder": [16, 16, 16, 16]}),
        ],
    )
    def test_degenerate_block_is_parameter_error(self, tmp_path, capsys, subcommand, block):
        cfg_path = tmp_path / "cfg.json"
        doc = solve_doc(tmp_path / "out", subcommand=subcommand, **{subcommand: block})
        cfg_path.write_text(json.dumps(doc))
        assert main(["--config", str(cfg_path)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        payload = json.loads((tmp_path / "out" / "error.json").read_text())
        assert payload["error"] == "ParameterError"

    def test_seed_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(solve_doc(tmp_path / "s", seed=1)))
        assert main(["--config", str(cfg_path), "--seed", "99"]) == 0
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_negative_seed_override_is_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(solve_doc(tmp_path / "s")))
        assert main(["--config", str(cfg_path), "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err
