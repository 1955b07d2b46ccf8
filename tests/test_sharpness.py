"""Tests for the bilinear-estimate failure probes."""

import json
import math
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from kdvb import sharpness
from kdvb.errors import ContractViolationError, ParameterError, RangeError, ResolutionError
from kdvb.reports import fit_power_law
from kdvb.sharpness import (
    CounterexampleFunction,
    CounterexampleSpec,
    bilinear_functional,
    build_counterexample,
    exponent_sweep,
    sweep_csv,
)

LADDER = (16.0, 32.0, 64.0, 128.0)
CRITERION07 = Path(__file__).resolve().parent.parent / "configs" / "criterion07.json"


def probe_set(alpha: float) -> str:
    """The name of the set alpha selects: low_alpha (A) for alpha <= 1/2,
    else high_alpha (B)."""
    return "low_alpha" if alpha <= 0.5 else "high_alpha"


def alphas(*values: float) -> list:
    """alpha parameters, each id led by the name of the set it selects."""
    return [pytest.param(a, id=f"{probe_set(a)}-{a}") for a in values]


def brute_force_functional(f: CounterexampleFunction, s: float) -> tuple[float, set]:
    """The functional from its definition, one cell pair at a time: every
    ordered pair of cells whose xi-sum lies in the near-origin window adds
    to its output cell in a dict.  Returns the ratio and the output cells."""
    spec = f.spec
    d_xi, d_tau = spec.lattice_steps()

    def weights(i, j):
        xi, tau = i * d_xi, j * d_tau
        y = abs(xi) ** (2 * spec.alpha) + abs(tau - xi**3)
        inner = (1 + abs(xi)) ** -s * (1 + y * y) ** -0.25
        outer = abs(xi) * (1 + abs(xi)) ** s * (1 + y) ** (-0.5 + spec.delta)
        return inner, outer

    columns = defaultdict(list)
    for i, j in zip(f.xi_idx.tolist(), f.tau_idx.tolist()):
        columns[i].append((j, weights(i, j)[0]))
    width = round(spec.set_width() / d_xi)
    conv = defaultdict(float)
    for i1, col1 in columns.items():
        for i2, col2 in columns.items():
            if max(1, width // 6) <= abs(i1 + i2) <= width // 2:
                for j1, g1 in col1:
                    for j2, g2 in col2:
                        conv[i1 + i2, j1 + j2] += g1 * g2 * d_xi * d_tau
    norm_sq = sum((weights(*cell)[1] * v) ** 2 for cell, v in conv.items()) * d_xi * d_tau
    return math.sqrt(norm_sq) / f.l2_norm_sq(), set(conv)


def set_a_cells(n: float, d_xi: float, d_tau: float) -> set:
    """The lattice cells of A and -A from A's definition, one cell centre
    at a time: N <= xi <= N + 1, N <= |tau - xi^3| <= 2N."""
    cells = set()
    for i in range(math.ceil(n / d_xi), math.floor((n + 1) / d_xi) + 1):
        center = (i * d_xi) ** 3
        lo = math.floor((center - 2 * n) / d_tau) - 1
        hi = math.ceil((center + 2 * n) / d_tau) + 1
        for j in range(lo, hi + 1):
            if n <= abs(j * d_tau - center) <= 2 * n:
                cells |= {(i, j), (-i, -j)}
    return cells


class TestSpecValidation:
    def test_scale_n_below_16_rejected(self):
        with pytest.raises(ParameterError, match="scale_n"):
            CounterexampleSpec(8.0, 0.25)

    def test_nan_scale_n_rejected(self):
        # NaN fails every ordered comparison, so "scale_n < 16" lets it through;
        # an infinite scale_n would give the lattice a NaN log index
        with pytest.raises(ParameterError, match="scale_n"):
            CounterexampleSpec(math.nan, 0.25)
        with pytest.raises(ParameterError, match="scale_n"):
            CounterexampleSpec(math.inf, 0.25)
        with pytest.raises(ParameterError, match="scale_n"):
            exponent_sweep(0.25, (-0.75,), (16.0, 32.0, math.nan, 128.0))

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5, math.nan])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ParameterError, match="alpha"):
            CounterexampleSpec(32.0, alpha)

    @pytest.mark.parametrize("delta", [0.0, 0.25, math.nan])
    def test_delta_outside_open_quarter_rejected(self, delta):
        with pytest.raises(ParameterError, match="delta"):
            CounterexampleSpec(32.0, 0.25, delta)


class TestBuildCounterexample:
    def test_low_regime_norm_tracks_measure(self):
        # |A| = 2N exactly, so ||f||^2 = 4N up to rasterization
        for n in LADDER:
            f = build_counterexample(CounterexampleSpec(n, 0.25))
            assert f.l2_norm_sq() == pytest.approx(4.0 * n, rel=0.1)

    def test_low_regime_power_law_stable(self):
        norms = [
            np.sqrt(build_counterexample(CounterexampleSpec(n, 0.3)).l2_norm_sq())
            for n in LADDER
        ]
        fit = fit_power_law(np.asarray(LADDER), np.asarray(norms))
        assert fit["slope"] == pytest.approx(0.5, abs=0.02)
        predicted = np.exp(fit["intercept"]) * np.asarray(LADDER) ** fit["slope"]
        assert np.max(np.abs(predicted - norms) / norms) <= 0.3

    def test_high_regime_exponent(self):
        # ||f|| grows like N^(3 alpha / 2 - 1/4); alpha = 1 gives 5/4
        norms = [
            np.sqrt(build_counterexample(CounterexampleSpec(n, 1.0)).l2_norm_sq())
            for n in LADDER
        ]
        fit = fit_power_law(np.asarray(LADDER), np.asarray(norms))
        assert fit["slope"] == pytest.approx(1.25, abs=0.03)

    @pytest.mark.parametrize("n", [16.0, 64.0])
    def test_alpha_one_half_gives_set_a(self, n):
        # at alpha = 1/2 the sets A and B coincide
        f = build_counterexample(CounterexampleSpec(n, 0.5))
        assert f.spec.set_width() == 1.0 and f.spec.modulation_height() == n
        cells = list(zip(f.xi_idx.tolist(), f.tau_idx.tolist()))
        assert len(cells) == len(set(cells))
        assert set(cells) == set_a_cells(n, *f.spec.lattice_steps())

    def test_norm_converges_to_set_measure_under_refinement(self, monkeypatch):
        spec = CounterexampleSpec(16.0, 0.25)
        deviations = []
        for cells in (16, 64):
            monkeypatch.setattr(sharpness, "CELLS_ACROSS_THIN", cells)
            assert spec.lattice_steps() == (1.0 / cells, 16.0 / cells)
            f = build_counterexample(spec)
            deviations.append(abs(f.l2_norm_sq() - 4.0 * 16.0) / (4.0 * 16.0))
        assert deviations[1] <= deviations[0]
        assert deviations[1] <= 0.05

    def test_evenness_exact(self):
        f = build_counterexample(CounterexampleSpec(16.0, 0.25))
        assert f.is_even()

    @pytest.mark.parametrize(
        "alpha,inside,beyond",
        [
            pytest.param(a, inside, beyond, id=f"{probe_set(a)}-{a}-{inside}-beyond{k}")
            for k, (a, inside, beyond) in enumerate(
                [
                    # the outermost tau index is about 16 N^2, 16 N^1.5 and 16 N
                    (0.25, 2e7, [3e7, 4e7, 1e10, 1e300]),
                    (0.75, 6e9, [7e9, 1e200, 1e300]),
                    (1.0, 1e14, [1e15, 1e200, 1e300]),
                    # 1e-9 either side of the threshold N = 5.629498822416e14,
                    # where ((N + w)^3 + 2h) / d_tau reaches 2**53
                    (1.0, 5.629498822416e14 * (1 - 1e-9), [5.629498822416e14 * (1 + 1e-9)]),
                ]
            )
        ],
    )
    def test_tau_index_beyond_2_pow_53_is_range_error(self, alpha, inside, beyond):
        f = build_counterexample(CounterexampleSpec(inside, alpha))
        assert np.abs(f.tau_idx).max() < 2**53
        for n in beyond:
            with pytest.raises(RangeError, match="scale_n"):
                build_counterexample(CounterexampleSpec(n, alpha))

    @pytest.mark.parametrize("alpha", alphas(0.25, 0.75, 1.0))
    def test_criterion07_ladder_inside_the_bound(self, alpha):
        for n in json.loads(CRITERION07.read_text())["sharpness"]["n_ladder"]:
            f = build_counterexample(CounterexampleSpec(n, alpha))
            assert np.abs(f.tau_idx).max() < 2**20


class TestBilinearFunctional:
    def test_zero_function(self):
        f = build_counterexample(CounterexampleSpec(16.0, 0.25))
        empty = np.zeros(0, dtype=int)
        zero = CounterexampleFunction(spec=f.spec, xi_idx=empty, tau_idx=empty)
        assert bilinear_functional(zero, -0.75) == 0.0

    def test_empty_near_origin_window_is_resolution_error(self):
        f = build_counterexample(CounterexampleSpec(16.0, 0.25))
        column = np.abs(f.xi_idx) == f.xi_idx.max()
        probes = [
            # one xi-column and its mirror: no column pair sums into the window
            (f.xi_idx[column], f.tau_idx[column]),
            # one positive column alone, paired only with itself at gap 0, and
            # an unmirrored negative half: no positive column at all
            ([5, 5], [7, -7]),
            ([-7, -5], [7, 9]),
        ]
        for xi_idx, tau_idx in probes:
            probe = CounterexampleFunction(f.spec, np.asarray(xi_idx), np.asarray(tau_idx))
            with pytest.raises(ResolutionError, match="window is empty"):
                bilinear_functional(probe, -0.75)

    @staticmethod
    def near_origin_probe(columns) -> CounterexampleFunction:
        """The even probe of rows 0..2 in each of columns, and its mirror."""
        cells = {(i, j) for i in columns for j in range(3)}
        xi_idx, tau_idx = zip(*sorted(cells | {(-i, -j) for i, j in cells}))
        spec = CounterexampleSpec(16.0, 0.25)
        return CounterexampleFunction(spec, np.asarray(xi_idx), np.asarray(tau_idx))

    @pytest.mark.parametrize(
        "columns", [range(1, 9), range(9), range(4, 13)], ids=["1..8", "0..8", "4..12"]
    )
    def test_cell_near_the_origin_is_contract_violation(self, columns):
        # a cell at |xi_idx| <= 4 pairs with one of its own sign, or sits at
        # xi = 0, inside the window |xi_idx| in [2, 8]; the (+set) x (-set)
        # sum misses those pairs (0.067 against the definition's 0.102 on
        # columns 1..8 at s = -0.75)
        with pytest.raises(ContractViolationError, match=r"\|xi_idx\| <= 4"):
            bilinear_functional(self.near_origin_probe(columns), -0.75)

    def test_cells_past_column_4_equal_the_definition(self):
        # the first columns the contract admits: every pair in the window
        # is a (+set) x (-set) pair
        f = self.near_origin_probe(range(5, 13))
        ratio, _ = brute_force_functional(f, -0.75)
        assert bilinear_functional(f, -0.75) == pytest.approx(ratio, rel=1e-13)

    @pytest.mark.parametrize("probe", ["positive-half", "negative-half-shifted"])
    def test_uneven_probe_is_contract_violation(self, probe):
        # the functional reads the positive half and weighs each mirrored cell
        # by its image, so an uneven f would get a wrong ratio: the positive
        # half alone read 0.193 where the definition gives 0.0, and the
        # shifted negative half 0.09672 against 0.09677
        f = build_counterexample(CounterexampleSpec(16.0, 0.25))
        positive = f.xi_idx > 0
        if probe == "positive-half":
            xi_idx, tau_idx = f.xi_idx[positive], f.tau_idx[positive]
        else:
            xi_idx, tau_idx = f.xi_idx, np.where(positive, f.tau_idx, f.tau_idx + 1)
        uneven = CounterexampleFunction(f.spec, xi_idx, tau_idx)
        assert f.is_even() and not uneven.is_even()
        with pytest.raises(ContractViolationError, match="not even"):
            bilinear_functional(uneven, -0.75)

    @pytest.mark.parametrize("probe", ["tau-one-cell-short", "xi-half-shifted", "xi-2d"])
    def test_cells_not_flat_integer_arrays_of_one_length_are_contract_violation(self, probe):
        # a tau_idx one cell short ended in numpy's "boolean index did not
        # match" IndexError, and a float xi_idx was refused as "not even"
        f = build_counterexample(CounterexampleSpec(16.0, 0.25))
        xi_idx, tau_idx = {
            "tau-one-cell-short": (f.xi_idx, f.tau_idx[:-1]),
            "xi-half-shifted": (f.xi_idx + 0.5, f.tau_idx),
            "xi-2d": (f.xi_idx[:, None], f.tau_idx),
        }[probe]
        with pytest.raises(ContractViolationError, match="1-D integer arrays of one length"):
            CounterexampleFunction(f.spec, xi_idx, tau_idx)

    def test_evenness_is_the_mirror_image_rule(self):
        # the sorted-array check agrees with f(-xi, -tau) = f(xi, tau) taken
        # cell by cell, on the cells in any order and with one cell dropped
        f = build_counterexample(CounterexampleSpec(32.0, 0.75))
        rng = np.random.default_rng(0)
        for _ in range(5):
            order = rng.permutation(len(f.xi_idx))
            for keep in (order, order[1:]):
                probe = CounterexampleFunction(f.spec, f.xi_idx[keep], f.tau_idx[keep])
                cells = set(zip(probe.xi_idx.tolist(), probe.tau_idx.tolist()))
                assert probe.is_even() == all((-i, -j) in cells for i, j in cells)
                assert probe.is_even() == (len(keep) == len(order))

    def test_ratio_invariant_under_reflection(self):
        f = build_counterexample(CounterexampleSpec(32.0, 0.25))
        flipped = CounterexampleFunction(spec=f.spec, xi_idx=-f.xi_idx, tau_idx=-f.tau_idx)
        assert bilinear_functional(flipped, -0.6) == pytest.approx(
            bilinear_functional(f, -0.6), rel=1e-12
        )

    @pytest.mark.parametrize(
        "s,lo,hi",
        [(-0.9, 0.1, 1.0), (-0.75, -0.15, 0.15), (-0.5, -1.0, -0.1)],
    )
    def test_low_regime_slope_signs(self, s, lo, hi):
        ratios = [
            bilinear_functional(build_counterexample(CounterexampleSpec(n, 0.25)), s)
            for n in LADDER
        ]
        slope = fit_power_law(np.asarray(LADDER), np.asarray(ratios))["slope"]
        assert lo <= slope <= hi

    @pytest.mark.parametrize("alpha", alphas(0.25, 0.75, 0.5, 1.0))
    @pytest.mark.parametrize("s", [-1.05, -0.45])
    def test_equals_the_cell_pair_definition(self, alpha, s):
        f = build_counterexample(CounterexampleSpec(16.0, alpha))
        ratio, cells = brute_force_functional(f, s)
        assert bilinear_functional(f, s) == pytest.approx(ratio, rel=1e-13)
        lattice = sharpness._PairLattice(f)
        d_xi, d_tau = f.spec.lattice_steps()
        occupied = zip(
            np.rint(lattice.xi_cells / d_xi).astype(int).tolist(),
            np.rint(lattice.tau_cells / d_tau).astype(int).tolist(),
        )
        assert set(occupied) == cells

    @pytest.mark.parametrize("alpha", alphas(0.25, 0.75))
    def test_lattice_memory_does_not_grow_with_the_pairs(self, alpha):
        # about 3e5 cell pairs at N = 128; the lattice and five ratios stay
        # under 3 MB at their peak
        f = build_counterexample(CounterexampleSpec(128.0, alpha))
        tracemalloc.start()
        try:
            lattice = sharpness._PairLattice(f)
            for s in (-1.05, -0.9, -0.75, -0.6, -0.45):
                lattice.ratio(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6

    @pytest.mark.parametrize("alpha", alphas(0.25, 0.75))
    def test_largest_scale_runs(self, alpha):
        f = build_counterexample(CounterexampleSpec(1e7, alpha))
        ratio = bilinear_functional(f, -0.75)
        assert np.isfinite(ratio) and ratio > 0

    def test_slope_monotone_in_s(self):
        slopes = []
        for s in (-1.0, -0.75, -0.5):
            ratios = [
                bilinear_functional(build_counterexample(CounterexampleSpec(n, 0.4)), s)
                for n in LADDER
            ]
            slopes.append(fit_power_law(np.asarray(LADDER), np.asarray(ratios))["slope"])
        assert slopes[0] > slopes[1] > slopes[2]


class TestExponentSweep:
    def test_short_ladder_rejected(self):
        with pytest.raises(ParameterError, match="at least 4"):
            exponent_sweep(0.25, (-0.75,), (16.0, 32.0))

    def test_branch_point_alpha(self):
        # both branch formulas give -3/4 at alpha = 1/2
        rep = exponent_sweep(0.5, (-0.95, -0.85, -0.75, -0.65, -0.55), LADDER)
        assert rep["crossover_estimate"] == pytest.approx(-0.75, abs=0.1)

    def test_delta_sensitivity_is_mild(self):
        estimates = [
            exponent_sweep(
                0.25, (-0.9, -0.8, -0.75, -0.7, -0.6), LADDER, delta=d
            )["crossover_estimate"]
            for d in (0.005, 0.02)
        ]
        assert abs(estimates[0] - estimates[1]) <= 0.05

    def test_csv_shape(self):
        rep = exponent_sweep(0.25, (-0.9, -0.75, -0.6), LADDER)
        lines = sweep_csv(rep).splitlines()
        assert lines[0] == "alpha,s,N,ratio,slope,crossover_estimate"
        assert len(lines) == 1 + 3 * len(LADDER)

    @pytest.mark.parametrize("alpha", alphas(0.25, 0.5, 0.75))
    def test_ratios_equal_the_one_s_functional(self, alpha):
        # the sweep builds each N's pair lattice once; every ratio must be
        # the one-s functional's, bit for bit
        block = json.loads(CRITERION07.read_text())["sharpness"]
        s_list, n_ladder = tuple(block["s_list"]), tuple(block["n_ladder"])
        rep = exponent_sweep(alpha, s_list, n_ladder, block["delta"])
        assert rep["meta"]["regime"] == probe_set(alpha)
        for s, rec in zip(s_list, rep["observables"]):
            for n, ratio in zip(n_ladder, rec["ratios"]):
                spec = CounterexampleSpec(n, alpha, block["delta"])
                assert ratio == bilinear_functional(build_counterexample(spec), s)

    def test_whole_ladder_checked_before_any_pair_work(self, monkeypatch):
        def no_lattice(f):
            raise AssertionError(f"pair lattice built at N = {f.spec.scale_n:g}")

        monkeypatch.setattr(sharpness, "_PairLattice", no_lattice)
        # 1e7 and 2e7 are inside the tau-lattice bound, 4e7 is not
        with pytest.raises(RangeError, match="scale_n = 4e"):
            exponent_sweep(0.25, (-0.75,), (1e7, 2e7, 4e7, 8e7))
