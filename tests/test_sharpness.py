"""Tests for the bilinear-estimate failure probes."""

import io
import json
from pathlib import Path

import numpy as np
import pytest

from kdvb.errors import ParameterError, RangeError, ResolutionError
from kdvb.reports import fit_power_law
from kdvb.sharpness import (
    CounterexampleFunction,
    CounterexampleSpec,
    PhaseSpaceGrid,
    bilinear_functional,
    build_counterexample,
    exponent_sweep,
    write_sweep_csv,
)

LADDER = (16.0, 32.0, 64.0, 128.0)


class TestSpecValidation:
    def test_regime_alpha_consistency(self):
        with pytest.raises(ParameterError, match="low_alpha"):
            CounterexampleSpec("low_alpha", 16.0, -0.75, 0.9)
        with pytest.raises(ParameterError, match="high_alpha"):
            CounterexampleSpec("high_alpha", 16.0, -1.0, 0.3)
        with pytest.raises(ParameterError, match="scale_n"):
            CounterexampleSpec("low_alpha", 8.0, -0.75, 0.25)

    def test_grid_validation(self):
        with pytest.raises(ParameterError, match="steps"):
            PhaseSpaceGrid(0.0, 0.1)


class TestBuildCounterexample:
    def test_low_regime_norm_tracks_measure(self):
        # |A| = 2N exactly, so ||f||^2 = 4N up to rasterization
        for n in LADDER:
            f = build_counterexample(CounterexampleSpec("low_alpha", n, -0.75, 0.25))
            assert f.l2_norm_sq() == pytest.approx(4.0 * n, rel=0.1)

    def test_low_regime_power_law_stable(self):
        norms = [
            np.sqrt(
                build_counterexample(
                    CounterexampleSpec("low_alpha", n, -0.75, 0.3)
                ).l2_norm_sq()
            )
            for n in LADDER
        ]
        fit = fit_power_law(np.asarray(LADDER), np.asarray(norms))
        assert fit["slope"] == pytest.approx(0.5, abs=0.02)
        predicted = np.exp(fit["intercept"]) * np.asarray(LADDER) ** fit["slope"]
        assert np.max(np.abs(predicted - norms) / norms) <= 0.3

    def test_high_regime_exponent(self):
        # ||f|| grows like N^(3 alpha / 2 - 1/4); alpha = 1 gives 5/4
        norms = [
            np.sqrt(
                build_counterexample(
                    CounterexampleSpec("high_alpha", n, -1.0, 1.0)
                ).l2_norm_sq()
            )
            for n in LADDER
        ]
        fit = fit_power_law(np.asarray(LADDER), np.asarray(norms))
        assert fit["slope"] == pytest.approx(1.25, abs=0.03)

    def test_norm_converges_to_set_measure_under_refinement(self):
        spec = CounterexampleSpec("low_alpha", 16.0, -0.75, 0.25)
        deviations = []
        for cells in (16, 64):
            grid = PhaseSpaceGrid(
                d_xi=spec.set_width() / cells,
                d_tau=spec.modulation_height() / cells,
            )
            f = build_counterexample(spec, grid)
            deviations.append(abs(f.l2_norm_sq() - 4.0 * 16.0) / (4.0 * 16.0))
        assert deviations[1] <= deviations[0]
        assert deviations[1] <= 0.05

    def test_evenness_exact(self):
        f = build_counterexample(CounterexampleSpec("low_alpha", 16.0, -0.75, 0.25))
        assert f.is_even()

    def test_unresolved_thin_dimension_rejected(self):
        spec = CounterexampleSpec("low_alpha", 16.0, -0.75, 0.25)
        coarse = PhaseSpaceGrid(
            d_xi=0.5,
            d_tau=spec.modulation_height() / 16,
        )
        with pytest.raises(ResolutionError, match="thin"):
            build_counterexample(spec, coarse)

    @pytest.mark.parametrize(
        "regime,alpha,inside,beyond",
        [
            # the outermost tau index is about 16 N^2, 16 N^1.5 and 16 N
            ("low_alpha", 0.25, 2e7, [3e7, 4e7, 1e10, 1e300]),
            ("high_alpha", 0.75, 6e9, [7e9, 1e200, 1e300]),
            ("high_alpha", 1.0, 1e14, [1e15, 1e200, 1e300]),
        ],
    )
    def test_tau_index_beyond_2_pow_53_is_range_error(self, regime, alpha, inside, beyond):
        build_counterexample(CounterexampleSpec(regime, inside, -0.75, alpha))
        for n in beyond:
            with pytest.raises(RangeError, match="scale_n"):
                build_counterexample(CounterexampleSpec(regime, n, -0.75, alpha))

    @pytest.mark.parametrize(
        "regime,alpha", [("low_alpha", 0.25), ("high_alpha", 0.75), ("high_alpha", 1.0)]
    )
    def test_criterion07_ladder_inside_the_bound(self, regime, alpha):
        config = Path(__file__).resolve().parent.parent / "configs" / "criterion07.json"
        for n in json.loads(config.read_text())["sharpness"]["n_ladder"]:
            f = build_counterexample(CounterexampleSpec(regime, n, -0.75, alpha))
            assert np.abs(f.tau_idx).max() < 2**20


class TestBilinearFunctional:
    def test_zero_function(self):
        f = build_counterexample(CounterexampleSpec("low_alpha", 16.0, -0.75, 0.25))
        zero = CounterexampleFunction(
            spec=f.spec, grid=f.grid, xi_idx=f.xi_idx, tau_idx=f.tau_idx, amplitude=0.0
        )
        assert bilinear_functional(zero) == 0.0

    def test_ratio_invariant_under_amplitude(self):
        f = build_counterexample(CounterexampleSpec("low_alpha", 16.0, -0.75, 0.25))
        scaled = CounterexampleFunction(
            spec=f.spec, grid=f.grid, xi_idx=f.xi_idx, tau_idx=f.tau_idx, amplitude=2.5
        )
        assert bilinear_functional(scaled) == pytest.approx(
            bilinear_functional(f), rel=1e-12
        )

    def test_ratio_invariant_under_reflection(self):
        f = build_counterexample(CounterexampleSpec("low_alpha", 32.0, -0.6, 0.25))
        flipped = CounterexampleFunction(
            spec=f.spec, grid=f.grid, xi_idx=-f.xi_idx, tau_idx=-f.tau_idx
        )
        assert bilinear_functional(flipped) == pytest.approx(
            bilinear_functional(f), rel=1e-12
        )

    @pytest.mark.parametrize(
        "s,lo,hi",
        [(-0.9, 0.1, 1.0), (-0.75, -0.15, 0.15), (-0.5, -1.0, -0.1)],
    )
    def test_low_regime_slope_signs(self, s, lo, hi):
        ratios = [
            bilinear_functional(
                build_counterexample(CounterexampleSpec("low_alpha", n, s, 0.25))
            )
            for n in LADDER
        ]
        slope = fit_power_law(np.asarray(LADDER), np.asarray(ratios))["slope"]
        assert lo <= slope <= hi

    def test_slope_monotone_in_s(self):
        slopes = []
        for s in (-1.0, -0.75, -0.5):
            ratios = [
                bilinear_functional(
                    build_counterexample(CounterexampleSpec("low_alpha", n, s, 0.4))
                )
                for n in LADDER
            ]
            slopes.append(fit_power_law(np.asarray(LADDER), np.asarray(ratios))["slope"])
        assert slopes[0] > slopes[1] > slopes[2]


class TestExponentSweep:
    def test_short_ladder_rejected(self):
        with pytest.raises(ParameterError, match="at least 4"):
            exponent_sweep("low_alpha", 0.25, (-0.75,), (16.0, 32.0))

    def test_branch_point_alpha(self):
        # both branch formulas give -3/4 at alpha = 1/2
        rep = exponent_sweep(
            "high_alpha", 0.5, (-0.95, -0.85, -0.75, -0.65, -0.55), LADDER
        )
        assert rep.crossover_estimate == pytest.approx(-0.75, abs=0.1)

    def test_delta_sensitivity_is_mild(self):
        estimates = [
            exponent_sweep(
                "low_alpha", 0.25, (-0.9, -0.8, -0.75, -0.7, -0.6), LADDER, delta=d
            ).crossover_estimate
            for d in (0.005, 0.02)
        ]
        assert abs(estimates[0] - estimates[1]) <= 0.05

    def test_csv_shape(self):
        rep = exponent_sweep("low_alpha", 0.25, (-0.9, -0.75, -0.6), LADDER)
        out = io.StringIO()
        write_sweep_csv(out, rep)
        lines = out.getvalue().splitlines()
        assert lines[0] == "alpha,s,N,ratio,slope,crossover_estimate"
        assert len(lines) == 1 + 3 * len(LADDER)
