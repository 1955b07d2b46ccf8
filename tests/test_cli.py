"""Tests for config parsing, dispatch, artifacts, and exit codes."""

import copy
import json
import math
import tempfile
import time
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
        assert cfg.solver.snapshot_stride == 1
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
        assert cfg.solver.snapshot_stride == 2 and type(cfg.solver.snapshot_stride) is int

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
        assert cfg.data["kind"] == "gaussian"
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
        text = json.dumps(solve_doc(tmp_path, seed=3, initial_data=data))
        assert parse_config(text).data["seed"] == 3
        assert parse_config(text, seed=9).data["seed"] == 9
        assert parse_config(text, seed=9).resolved()["initial_data"] == data
        data["seed"] = 5
        text = json.dumps(solve_doc(tmp_path, seed=3, initial_data=data))
        assert parse_config(text, seed=9).data["seed"] == 5

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


# edge values for the calculus blocks: in range, on a bound, just past it,
# zero, negative, tiny and vast
EDGE_FLOATS = [1.0, 0.75, 0.5, 0.25, 0.13, 0.125, 0.1, 0.0, -0.5, 1e-300, 2.0, 1e300]
CALCULUS_EDGES = {
    "imethod-bounds": {
        "ratios": st.lists(st.sampled_from(EDGE_FLOATS), min_size=2, max_size=4),
        "n1_ladder": st.lists(
            st.sampled_from([16.0, 32.0, 1e6, 1e150, 1e300, 1e-300, 0.0, -16.0]),
            min_size=1,
            max_size=3,
        ),
        "cutoff_n": st.sampled_from([0.5, 16.0, 1e6, 1e300, 1e-300, 0.0, -1.0]),
        "s_exp": st.sampled_from([-0.74, -0.75, -0.7500001, 0.0, 1e-300, -1e-300, 0.5]),
    },
    "sharpness": {
        "s_list": st.lists(
            st.sampled_from([-1.05, -0.75, 0.0, -5.0, 5.0, 1e300, -1e300]), max_size=3
        ),
        "n_ladder": st.lists(
            st.sampled_from([16.0, 32.0, 64.0, 128.0, 1e5, 1e7, 1e300, 15.0, 0.0]),
            min_size=3,
            max_size=5,
        ).map(sorted),
        "delta": st.sampled_from([0.01, 0.5, 1e-300, 0.0, 1e300]),
    },
}


def _finite_numbers(node) -> bool:
    if isinstance(node, dict):
        return all(_finite_numbers(v) for v in node.values())
    if isinstance(node, list):
        return all(_finite_numbers(v) for v in node)
    return not isinstance(node, float) or math.isfinite(node)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_fuzzed_calculus_run_exits_by_name(data):
    # criterion 07 or 08 (n_samples 1e4) with edge values in 1-3 keys of its
    # block, through main: parse_config and run
    doc = copy.deepcopy(
        data.draw(st.sampled_from([c for c in CRITERIA if c["subcommand"] in CALCULUS_EDGES]))
    )
    edges = CALCULUS_EDGES[doc["subcommand"]]
    block = doc[doc["subcommand"]]
    for key in data.draw(st.lists(st.sampled_from(sorted(edges)), min_size=1, max_size=3)):
        block[key] = data.draw(edges[key])
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        cfg_path = Path(tmp) / "cfg.json"
        cfg_path.write_text(json.dumps({**doc, "out": str(out)}))
        code = main(["--config", str(cfg_path)])
        assert code in (0, 2, 3, 4)
        assert (out / "error.json").exists() == (code != 0)
        if code == 0:
            # strict JSON: NaN and Infinity tokens are rejected too
            text = (out / "result.json").read_text()
            result = json.loads(text, parse_constant=lambda token: math.nan)
            assert _finite_numbers(result)


# tiny documents of the stepping subcommands: M = 64 and 20 steps of dt
# (scaling's rescaled run has 2**lambda_exp times the modes)
STEPPING_BLOCKS = {
    "solve": {},
    "energy": {"refine_check": True},
    "inviscid": {"eps_ladder": [0.1, 0.01], "sobolev_s": -0.5},
    "rate": {"eps_ladder": [0.1, 0.01, 0.001]},
    "scaling": {"lambda_exp": 1},
    "h1-bound": {"eps_ladder": [1.0, 0.1, 0.0]},
}
STEPPING_DATA = [
    {"kind": "gaussian", "width": 2.0, "l2_norm": 1.0, "modulation": 0.5},
    {"kind": "soliton", "c": 4.0, "x0": 16.0},
    {"kind": "power_law", "decay_exponent": -1.51, "l2_norm": 0.5, "seed": 3},
    {"kind": "sine", "amplitude": 0.5, "wavenumber_index": 2},
]
STEPPING_TOP = ("epsilon", "alpha", "modes", "box_length", "dealias_fraction", "dt", "t_final",
                "snapshot_stride", "seed")
# zero, subnormals, tiny, vast, 2**53, a few signs and ordinary values
EDGE_NUMBERS = st.sampled_from(
    [0, 0.0, 5e-324, 1e-310, 1e-300, 1e300, -1e300, 2**53, -1.0, 0.5, 1, 2.0]
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_fuzzed_stepping_run_exits_by_name(data):
    # a tiny document of a stepping subcommand with edge numbers in 1-3 of
    # its top-level, initial_data or block keys (a ladder drawn whole, of
    # 2-4 entries), through main: parse_config and run
    sub = data.draw(st.sampled_from(sorted(STEPPING_BLOCKS)))
    doc = solve_doc(None, subcommand=sub, dt=0.01, t_final=0.2)
    doc["initial_data"] = dict(data.draw(st.sampled_from(STEPPING_DATA)))
    doc[sub] = dict(STEPPING_BLOCKS[sub])
    keys = [("", k) for k in STEPPING_TOP]
    keys += [("initial_data", k) for k in doc["initial_data"] if k != "kind"]
    keys += [(sub, k) for k in doc[sub]]
    for where, key in data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3)):
        target = doc[where] if where else doc
        if key == "eps_ladder":
            target[key] = data.draw(st.lists(EDGE_NUMBERS, min_size=2, max_size=4))
        else:
            target[key] = data.draw(EDGE_NUMBERS)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        cfg_path = Path(tmp) / "cfg.json"
        cfg_path.write_text(json.dumps({**doc, "out": str(out)}))
        code = main(["--config", str(cfg_path)])
        assert code in (0, 2, 3, 4)
        assert (out / "error.json").exists() == (code != 0)
        if code == 0:
            # strict JSON: NaN and Infinity tokens are rejected too
            text = (out / "result.json").read_text()
            result = json.loads(text, parse_constant=lambda token: math.nan)
            assert _finite_numbers(result)


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

    @pytest.mark.parametrize(
        "data,overrides,code",
        [
            # the profile overflows, or underflows to a zero norm
            ({"kind": "power_law", "decay_exponent": 1e300}, {}, 2),
            ({"kind": "power_law", "decay_exponent": -1e300}, {}, 2),
            ({"kind": "power_law"}, {"dealias_fraction": 1e-300}, 2),
            ({"kind": "gaussian", "modulation": 1e300}, {"box_length": 1e300}, 2),
            # exp(-inf) = 0 away from the center, or cosh(inf) at the edge
            ({"kind": "gaussian", "width": 5e-324}, {}, 0),
            ({"kind": "gaussian"}, {"box_length": 1e300}, 0),
            ({"kind": "soliton", "c": 4.0, "x0": 16.0}, {"box_length": 2.0**53}, 0),
            ({"kind": "soliton", "c": 2.0**53}, {}, 3),
        ],
    )
    def test_vast_or_tiny_initial_data_prints_only_its_record(
        self, tmp_path, capsys, data, overrides, code
    ):
        cfg_path = tmp_path / "cfg.json"
        doc = solve_doc(tmp_path / "out", initial_data=data, **overrides)
        cfg_path.write_text(json.dumps(doc))
        assert main(["--config", str(cfg_path)]) == code
        err = capsys.readouterr().err
        if code:
            assert json.loads(err) == json.loads((tmp_path / "out" / "error.json").read_text())
        else:
            assert err == ""

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

    def test_step_past_the_etd_range_is_config_error(self, tmp_path, capsys):
        # dt L(xi) reaches 8.1e183 at box_length 1e-60, past the 5.6e102 whose
        # cube the ETDRK4 coefficients can form
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(solve_doc(tmp_path / "out", box_length=1e-60)))
        assert main(["--config", str(cfg_path)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        payload = json.loads((tmp_path / "out" / "error.json").read_text())
        assert payload["error"] == "ConfigError"
        assert "dt = 0.001" in payload["message"] and "ETDRK4" in payload["message"]

    def test_box_length_inside_the_etd_range_runs(self, tmp_path):
        assert run(parse_config(json.dumps(solve_doc(tmp_path, box_length=1e-32)))) == 0

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

    @pytest.mark.parametrize(
        "data",
        [
            {"kind": "gaussian", "l2_norm": 0.0},
            # its H1 norm squared underflows to 0
            {"kind": "power_law", "l2_norm": 1e-300},
        ],
    )
    def test_h1_bound_of_zero_data_is_parameter_error(self, tmp_path, capsys, data):
        doc = solve_doc(
            tmp_path / "out",
            subcommand="h1-bound",
            t_final=0.01,
            initial_data=data,
            **{"h1-bound": {"eps_ladder": [0.1, 0.01]}},
        )
        assert run(parse_config(json.dumps(doc))) == 2
        assert "Traceback" not in capsys.readouterr().err
        payload = json.loads((tmp_path / "out" / "error.json").read_text())
        assert payload["error"] == "ParameterError"
        assert "non-zero data" in payload["message"]
        assert repr(data["kind"]) in payload["message"]

    def test_scaling_of_zero_data_is_parameter_error(self, tmp_path):
        doc = solve_doc(
            tmp_path / "out",
            subcommand="scaling",
            t_final=0.01,
            initial_data={"kind": "sine", "wavenumber_index": 0},
        )
        assert run(parse_config(json.dumps(doc))) == 2
        payload = json.loads((tmp_path / "out" / "error.json").read_text())
        assert payload["error"] == "ParameterError"
        assert "non-zero data" in payload["message"]
        assert not (tmp_path / "out" / "result.json").exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_result_is_range_error(self, tmp_path, monkeypatch, value):
        # JSON has no NaN or infinity: nothing but error.json is written
        monkeypatch.setattr(cli, "scaling_check", lambda *args, **kwargs: value)
        doc = solve_doc(tmp_path / "out", subcommand="scaling")
        assert run(parse_config(json.dumps(doc))) == 3
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["error.json"]
        payload = json.loads((tmp_path / "out" / "error.json").read_text())
        assert payload["error"] == "RangeError"
        with pytest.raises(RangeError, match="non-finite"):
            cli.canonical_json({"distance": value})

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
        base = SolverConfig(cfg.params, cfg.grid, cfg.solver.dt, cfg.solver.t_final)
        phi = build_initial_data(cfg)
        solve(phi, base)
        with pytest.raises(DivergenceError) as alone:
            solve(phi, SolverConfig(cfg.params, cfg.grid, cfg.solver.dt / 2, cfg.solver.t_final))
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

    @pytest.mark.parametrize(
        "ratios,error",
        [
            ([0.25, 0.125, 0.125], "unrealizable"),
            ([0.25, 0.13, 0.13], "N1 = 16 with ratios [0.25, 0.13, 0.13] kept"),
        ],
        ids=["sum-half", "sum-0.51"],
    )
    def test_edge_ratio_sum_exits_by_name(self, tmp_path, capsys, ratios, error):
        # a ratio sum of 1/2 never fills the annulus, and 0.51 keeps under
        # 1e-4 of the draws: both must end, not spin
        cfg_path = tmp_path / "cfg.json"
        block = {"n1_ladder": [16.0, 32.0], "ratios": ratios}
        doc = solve_doc(tmp_path / "out", subcommand="imethod-bounds", **{"imethod-bounds": block})
        cfg_path.write_text(json.dumps(doc))
        started = time.monotonic()
        assert main(["--config", str(cfg_path)]) == 2
        assert time.monotonic() - started < 5.0
        assert "Traceback" not in capsys.readouterr().err
        payload = json.loads((tmp_path / "out" / "error.json").read_text())
        assert payload["error"] == "ParameterError"
        assert error in payload["message"]

    @pytest.mark.parametrize(
        "subcommand,block",
        [
            ("imethod-bounds", {"n1_ladder": [16.0, 32.0], "cutoff_n": 1e300}),
            ("imethod-bounds", {"n1_ladder": [16.0, 32.0], "cutoff_n": 1e-300}),
            ("imethod-bounds", {"n1_ladder": [32.0, 1e300]}),
            ("sharpness", {"s_list": [1e300, -0.75], "n_ladder": [16, 32, 64, 128]}),
            ("sharpness", {"s_list": [-1e300, -0.75], "n_ladder": [16, 32, 64, 128]}),
        ],
        ids=["cutoff-1e300", "cutoff-1e-300", "n1-1e300", "s-1e300", "s-minus-1e300"],
    )
    def test_calculus_past_float64_is_range_error(self, tmp_path, capsys, subcommand, block):
        # a value float64 cannot carry through the multipliers is a named
        # RangeError, not a RuntimeWarning on the way to one
        cfg_path = tmp_path / "cfg.json"
        doc = solve_doc(tmp_path / "out", subcommand=subcommand, **{subcommand: block})
        cfg_path.write_text(json.dumps(doc))
        assert main(["--config", str(cfg_path)]) == 3
        assert "Traceback" not in capsys.readouterr().err
        assert json.loads((tmp_path / "out" / "error.json").read_text())["error"] == "RangeError"

    def test_sparse_but_fillable_annulus_runs(self, tmp_path):
        # ratios (0.3, 0.15, 0.1) keep about 1% of the draws
        cfg_path = tmp_path / "cfg.json"
        block = {"n1_ladder": [16.0, 32.0], "ratios": [0.3, 0.15, 0.1]}
        doc = solve_doc(tmp_path / "out", subcommand="imethod-bounds", **{"imethod-bounds": block})
        cfg_path.write_text(json.dumps(doc))
        assert main(["--config", str(cfg_path)]) == 0
        report = json.loads((tmp_path / "out" / "bound_report.json").read_text())
        assert report["samples"] == 10_000

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
        assert parse_config(json.dumps(doc)).block["n_samples"] == MAX_SAMPLES

    @pytest.mark.parametrize(
        "lambda_exp", [15, 60, 10000, 10**300], ids=["15", "60", "10000", "1e300"]
    )
    def test_lambda_exp_past_max_modes_is_config_error(self, tmp_path, capsys, lambda_exp):
        # 64 * 2**14 = MAX_MODES; 2**10000 makes lam = 2**-lambda_exp zero
        doc = solve_doc(tmp_path / "out", subcommand="scaling", scaling={"lambda_exp": 14})
        assert parse_config(json.dumps(doc)).block["lambda_exp"] == 14
        doc["scaling"]["lambda_exp"] = lambda_exp
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["--config", str(cfg_path)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        payload = json.loads((tmp_path / "out" / "error.json").read_text())
        assert payload["error"] == "ConfigError"
        assert "lambda_exp" in payload["message"]
        assert "MAX_MODES" in payload["message"]

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

    @pytest.mark.parametrize("out", ["a_file", "a_file/sub"])
    def test_unusable_out_is_config_error(self, tmp_path, capsys, out):
        (tmp_path / "a_file").write_text("not a directory")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(solve_doc(tmp_path / "unused")))
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        payload = json.loads(err)
        assert payload["error"] == "ConfigError"
        assert repr(str(tmp_path / out)) in payload["message"]
        assert (tmp_path / "a_file").read_text() == "not a directory"

    @pytest.mark.parametrize("blocked", ["result.json", "timing.json"])
    def test_unwritable_artifact_is_config_error(self, tmp_path, capsys, blocked):
        # a directory where an artifact goes makes its write an IsADirectoryError
        (tmp_path / "out" / blocked).mkdir(parents=True)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(solve_doc(tmp_path / "out")))
        assert main(["--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        payload = json.loads(err)
        assert payload["error"] == "ConfigError"
        assert repr(str(tmp_path / "out" / blocked)) in payload["message"]
        assert json.loads((tmp_path / "out" / "error.json").read_text()) == payload

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

    def test_sharpness_result_carries_the_run_seed(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        block = {"s_list": [-0.75], "n_ladder": [16.0, 32.0, 64.0, 128.0]}
        cfg_path.write_text(
            json.dumps(solve_doc(tmp_path / "s", subcommand="sharpness", sharpness=block))
        )
        assert main(["--config", str(cfg_path), "--seed", "5"]) == 0
        result = json.loads((tmp_path / "s" / "result.json").read_text())
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        assert result["seed"] == manifest["seed"] == 5

    def test_diverging_sweep_prints_only_its_error_record(self, tmp_path, capsys):
        # every row overflows on its way to the non-finite state that names
        # its step; under this suite's filter a numpy RuntimeWarning raises
        cfg_path = tmp_path / "cfg.json"
        doc = solve_doc(
            tmp_path / "out",
            subcommand="h1-bound",
            dt=0.05,
            t_final=0.5,
            initial_data={"kind": "gaussian", "width": 2.0, "l2_norm": 28.0},
            **{"h1-bound": {"eps_ladder": [1.0, 0.1, 0.0]}},
        )
        cfg_path.write_text(json.dumps(doc))
        assert main(["--config", str(cfg_path)]) == 3
        error = json.loads((tmp_path / "out" / "error.json").read_text())
        assert error["message"].startswith("epsilon = 1.0: non-finite state detected at step 5")
        assert json.loads(capsys.readouterr().err) == error

    def test_negative_seed_override_is_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(solve_doc(tmp_path / "s")))
        assert main(["--config", str(cfg_path), "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err
