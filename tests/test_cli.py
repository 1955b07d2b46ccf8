"""Tests for config parsing, dispatch, artifacts, and exit codes."""

import copy
import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvb import cli, evolve, experiments
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
from kdvb.evolve import SolverConfig, solve
from kdvb.imethod import MAX_SAMPLES

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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

    @pytest.mark.parametrize(
        "text",
        ['{"subcommand": "solve", "epsilon": ' + "1" * 5000 + "}", "[" * 10**5 + "]" * 10**5],
        ids=["5000-digit-number", "deep-nesting"],
    )
    def test_json_beyond_the_decoder_limits(self, text):
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_spec_minimal_document(self):
        # the smallest viable solve document: defaults fill the rest
        doc = {"subcommand": "solve", "epsilon": 0.1, "alpha": 1, "modes": 256,
               "box_length": 64, "dt": 1e-3, "t_final": 1}
        cfg = parse_config(json.dumps(doc))
        assert cfg.initial_data["kind"] == "gaussian"
        assert cfg.out_path.name == "kdvb_out"

    @pytest.mark.parametrize(
        "subcommand,block,missing",
        [
            ("sharpness", {"n_ladder": [16, 32, 64, 128]}, "s_list"),
            ("sharpness", {"s_list": [-0.75]}, "n_ladder"),
            ("imethod-bounds", {"n_samples": 10_000}, "n1_ladder"),
        ],
    )
    def test_missing_required_block_key(self, tmp_path, capsys, subcommand, block, missing):
        doc = solve_doc(tmp_path / "out", subcommand=subcommand, **{subcommand: block})
        with pytest.raises(ConfigError, match=f"{subcommand}.{missing}"):
            parse_config(json.dumps(doc))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["--config", str(cfg_path)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        payload = json.loads((tmp_path / "out" / "error.json").read_text())
        assert payload["error"] == "ConfigError"
        assert f"{subcommand}.{missing}" in payload["message"]

    def test_block_defaults_filled_but_not_echoed(self, tmp_path):
        doc = solve_doc(tmp_path, subcommand="sharpness", alpha=0.75)
        doc["sharpness"] = {"s_list": [-0.6], "n_ladder": [16, 32, 64, 128]}
        cfg = parse_config(json.dumps(doc))
        assert cfg.block["regime"] == "high_alpha"
        assert cfg.block["delta"] == 0.01
        assert cfg.resolved()["sharpness"] == {
            "s_list": (-0.6,),
            "n_ladder": (16.0, 32.0, 64.0, 128.0),
        }

    def test_power_law_seed_defaults_to_the_run_seed(self, tmp_path):
        data = {"kind": "power_law"}
        cfg = parse_config(json.dumps(solve_doc(tmp_path, seed=3, initial_data=data)))
        assert cfg.data["seed"] == 3
        assert replace(cfg, seed=9).data["seed"] == 9
        assert replace(cfg, seed=9).resolved()["initial_data"] == data
        data["seed"] = 5
        cfg = parse_config(json.dumps(solve_doc(tmp_path, seed=3, initial_data=data)))
        assert replace(cfg, seed=9).data["seed"] == 5

    def test_constructor_reached_through_its_module_name(self, tmp_path, monkeypatch):
        calls = []
        gaussian = experiments.gaussian_initial_data

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return gaussian(*args, **kwargs)

        monkeypatch.setattr(experiments, "gaussian_initial_data", counted)
        build_initial_data(parse_config(json.dumps(solve_doc(tmp_path))))
        assert len(calls) == 1 and calls[0]["width"] == 2.0

    def test_initial_data_kinds(self, tmp_path):
        for data in (
            {"kind": "soliton", "c": 4.0, "x0": 1.0},
            {"kind": "power_law", "decay_exponent": -1.51, "l2_norm": 0.4, "seed": 3},
            {"kind": "sine", "amplitude": 0.5, "wavenumber_index": 2},
        ):
            cfg = parse_config(json.dumps(solve_doc(tmp_path, initial_data=data)))
            field = build_initial_data(cfg)
            assert field.values.shape == (64,)


CRITERIA = [json.loads(p.read_text()) for p in sorted(CONFIG_DIR.glob("criterion*.json"))]
SCHEMA_KEYS = sorted(
    {*cli._TOP}
    | {key for _, schema in cli._INITIAL_DATA.values() for key in schema}
    | {key for _, schema, _ in cli._COMMANDS.values() for key in schema}
)
# arbitrary JSON: null, booleans, strings, numbers huge or non-finite
# (json.dumps writes NaN and Infinity tokens), nested lists and objects
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.text(max_size=6)
    | st.sampled_from([*cli.SUBCOMMANDS, *cli._INITIAL_DATA, "low_alpha", "high_alpha"])
    | st.integers(-(10**400), 10**400)
    | st.floats(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_fuzzed_config_raises_only_config_error(data):
    # one key of a criterion config replaced, dropped or added, at top
    # level, in initial_data or in the experiment block
    doc = copy.deepcopy(data.draw(st.sampled_from(CRITERIA)))
    where = data.draw(st.sampled_from(["", "initial_data", doc["subcommand"]]))
    target = doc[where] if isinstance(doc.get(where), dict) else doc
    action = data.draw(st.sampled_from(["replace", "drop", "add"]))
    if action == "add":
        target[data.draw(st.sampled_from(SCHEMA_KEYS) | st.text(max_size=6))] = data.draw(
            JSON_VALUES
        )
    elif action == "drop":
        del target[data.draw(st.sampled_from(sorted(target)))]
    else:
        target[data.draw(st.sampled_from(sorted(target)))] = data.draw(JSON_VALUES)
    try:
        parse_config(json.dumps(doc))
    except ConfigError:
        pass


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

    @pytest.mark.parametrize(
        "alpha,n_ladder",
        [
            (0.25, [1e7, 2e7, 4e7, 8e7]),
            (0.25, [3e7, 6e7, 1.2e8, 2.4e8]),
            (0.25, [1e10, 2e10, 4e10, 8e10]),
            (0.75, [1e200, 2e200, 4e200, 8e200]),
        ],
    )
    def test_tau_lattice_overflow_is_range_error(self, tmp_path, capsys, alpha, n_ladder):
        doc = solve_doc(tmp_path / "out", subcommand="sharpness", alpha=alpha)
        doc["sharpness"] = {"s_list": [-0.75], "n_ladder": n_ladder}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["--config", str(cfg_path)]) == 3
        assert "Traceback" not in capsys.readouterr().err
        payload = json.loads((tmp_path / "out" / "error.json").read_text())
        assert payload["error"] == "RangeError"
        assert "scale_n" in payload["message"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "data,message",
        [
            ({"kind": "gaussian", "width": 0}, "width"),
            ({"kind": "gaussian", "width": -2.0}, "width"),
            ({"kind": "gaussian", "l2_norm": -1}, "l2_norm"),
            ({"kind": "power_law", "l2_norm": -1}, "l2_norm"),
            ({"kind": "power_law", "decay_exponent": 1e5}, "initial_data.kind 'power_law'"),
            ({"kind": "power_law", "decay_exponent": -1e5}, "initial_data.kind 'power_law'"),
        ],
    )
    def test_bad_initial_data_is_parameter_error(self, tmp_path, capsys, data, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(solve_doc(tmp_path / "out", initial_data=data)))
        assert main(["--config", str(cfg_path)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        payload = json.loads((tmp_path / "out" / "error.json").read_text())
        assert payload["error"] == "ParameterError"
        assert message in payload["message"]

    @pytest.mark.parametrize("index", [40, -22, 10**30])
    def test_sine_outside_the_dealiased_band_is_parameter_error(self, tmp_path, capsys, index):
        data = {"kind": "sine", "amplitude": 0.5, "wavenumber_index": index}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(solve_doc(tmp_path / "out", initial_data=data)))
        assert main(["--config", str(cfg_path)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        payload = json.loads((tmp_path / "out" / "error.json").read_text())
        assert payload["error"] == "ParameterError"
        assert "wavenumber_index" in payload["message"]

    def test_sine_at_the_band_edge_runs(self, tmp_path):
        data = {"kind": "sine", "amplitude": 0.5, "wavenumber_index": 21}
        assert run(parse_config(json.dumps(solve_doc(tmp_path, initial_data=data)))) == 0

    def test_box_length_past_the_symbol_range_is_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(solve_doc(tmp_path / "out", box_length=1e-300)))
        assert main(["--config", str(cfg_path)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        payload = json.loads((tmp_path / "out" / "error.json").read_text())
        assert payload["error"] == "ConfigError"
        assert "box_length" in payload["message"]

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


@pytest.fixture
def stepper_calls(monkeypatch):
    """A list that grows by one entry per ETDRK4 stepper call."""
    calls = []
    step = evolve._Stepper.__call__

    def counted(self, h):
        calls.append(1)
        return step(self, h)

    monkeypatch.setattr(evolve._Stepper, "__call__", counted)
    return calls


class TestBatchedCompanions:
    """The dt/2 companion solves step on their parent's clock."""

    @pytest.mark.parametrize(
        "criterion,calls", [("01", 4_000), ("04", 200), ("05", 1_000)]
    )
    def test_one_stepper_call_per_tick_of_the_finest_clock(
        self, tmp_path, stepper_calls, criterion, calls
    ):
        # the per-run path made 6,000, 300 and 1,500 calls: the dt/2 run
        # stepped on its own after its parent
        doc = json.loads((CONFIG_DIR / f"criterion{criterion}.json").read_text())
        doc["out"] = str(tmp_path / "out")
        assert run(parse_config(json.dumps(doc))) == 0
        assert len(stepper_calls) == calls

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "subcommand,block,prefix",
        [("energy", {}, ""), ("h1-bound", {"eps_ladder": [0.1]}, "epsilon = 0.1: ")],
    )
    def test_one_run_divergence_is_stepped_once(
        self, tmp_path, stepper_calls, subcommand, block, prefix
    ):
        # alone, this run diverges at step 4: five stepper calls, not ten
        doc = solve_doc(
            tmp_path / "out",
            subcommand=subcommand,
            **{subcommand: block},
            dt=0.05,
            t_final=0.5,
            initial_data={"kind": "gaussian", "width": 2.0, "l2_norm": 28.0},
        )
        assert run(parse_config(json.dumps(doc))) == 3
        assert len(stepper_calls) == 5
        message = json.loads((tmp_path / "out" / "error.json").read_text())["message"]
        assert message == prefix + "non-finite state detected at step 4 (t = 0.25)"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_energy_refine_divergence_matches_per_run_path(self, tmp_path, monkeypatch):
        # dt = 0.1 stays finite over its 3 steps; dt/2 diverges at its step 4
        doc = solve_doc(
            tmp_path / "batched",
            subcommand="energy",
            energy={"refine_check": True},
            dt=0.1,
            t_final=0.3,
            initial_data={"kind": "gaussian", "width": 2.0, "l2_norm": 28.0},
        )
        cfg = parse_config(json.dumps(doc))
        base = SolverConfig(cfg.params, cfg.grid, cfg.dt, cfg.t_final)
        phi = build_initial_data(cfg)
        solve(phi, base)
        with pytest.raises(DivergenceError) as alone:
            solve(phi, SolverConfig(cfg.params, cfg.grid, cfg.dt / 2, cfg.t_final))
        assert alone.value.step_index == 4

        assert run(cfg) == 3
        batched = json.loads((tmp_path / "batched" / "error.json").read_text())
        for module in (cli, experiments):
            monkeypatch.setattr(
                module, "solve_ladder", lambda phi, cfgs: tuple(solve(phi, c) for c in cfgs)
            )
        doc["out"] = str(tmp_path / "per_run")
        assert run(parse_config(json.dumps(doc))) == 3
        per_run = json.loads((tmp_path / "per_run" / "error.json").read_text())
        assert batched == per_run == {
            "error": "DivergenceError",
            "exit_code": 3,
            "message": str(alone.value),
        }


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
            {"epsilon": True},
            {"modes": True},
            {"seed": True},
            {"initial_data": {"kind": "sine", "amplitude": False}},
            {"inviscid": {"eps_ladder": [True, 0.01]}, "subcommand": "inviscid"},
            {"initial_data": {"kind": ["x"]}},
            {"out": 5},
            {"out": None},
        ],
    )
    def test_bad_scalar_is_config_error(self, tmp_path, capsys, override):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**solve_doc(tmp_path), **override}))
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
            ("sharpness", {"s_list": [], "n_ladder": [16, 32, 64, 128]}),
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

    def test_step_count_above_cap_is_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(solve_doc(tmp_path / "a", dt=1e-3, t_final=1e12)))
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert "Traceback" not in capsys.readouterr().err
        payload = json.loads((tmp_path / "out" / "error.json").read_text())
        assert payload["error"] == "ConfigError"
        assert "MAX_STEPS" in payload["message"]

    def test_sample_count_above_cap_is_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        block = {"n1_ladder": [8.0, 16.0], "n_samples": 1e15}
        doc = solve_doc(tmp_path / "out", subcommand="imethod-bounds", **{"imethod-bounds": block})
        cfg_path.write_text(json.dumps(doc))
        assert main(["--config", str(cfg_path)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        payload = json.loads((tmp_path / "out" / "error.json").read_text())
        assert payload["error"] == "ConfigError"
        assert "MAX_SAMPLES" in payload["message"]
        block["n_samples"] = MAX_SAMPLES
        assert parse_config(json.dumps(doc)).experiment["n_samples"] == MAX_SAMPLES

    def test_config_error_written_to_the_config_out(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(solve_doc(tmp_path / "named", epsilon=True)))
        assert main(["--config", str(cfg_path)]) == 2
        payload = json.loads((tmp_path / "named" / "error.json").read_text())
        assert payload["error"] == "ConfigError"
        assert "epsilon" in payload["message"]
        # --out still wins over the config's own out
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "flag")]) == 2
        assert (tmp_path / "flag" / "error.json").exists()

    def test_one_epsilon_rate_ladder_rejected_before_solving(self, tmp_path, monkeypatch):
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapper

        for module in (cli, experiments):
            for name in ("solve", "solve_ladder"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(getattr(module, name)))
        cfg_path = tmp_path / "cfg.json"
        doc = solve_doc(tmp_path / "out", subcommand="rate", rate={"eps_ladder": [0.1]})
        cfg_path.write_text(json.dumps(doc))
        assert main(["--config", str(cfg_path)]) == 2
        assert json.loads((tmp_path / "out" / "error.json").read_text())["error"] == (
            "ParameterError"
        )
        assert calls == []

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
