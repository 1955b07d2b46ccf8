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
    ordered pair of cells of f = chi_S + chi_(-S), S and its mirror image
    both, whose xi-sum lies in the near-origin window adds to its output
    cell in a dict.  Returns the ratio and the output cells."""
    spec = f.spec
    d_xi, d_tau = spec.lattice_steps()

    def weights(i, j):
        xi, tau = i * d_xi, j * d_tau
        y = abs(xi) ** (2 * spec.alpha) + abs(tau - xi**3)
        inner = (1 + abs(xi)) ** -s * (1 + y * y) ** -0.25
        outer = abs(xi) * (1 + abs(xi)) ** s * (1 + y) ** (-0.5 + spec.delta)
        return inner, outer

    cells = list(zip(f.xi_idx.tolist(), f.tau_idx.tolist()))
    columns = defaultdict(list)
    for i, j in cells + [(-i, -j) for i, j in cells]:
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
        set_a = set_a_cells(n, *f.spec.lattice_steps())
        assert set(cells) == {(i, j) for i, j in set_a if i > 0}

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
        # f = chi_S + chi_(-S) is even by construction; it is exactly
        # {0, 1}-valued, and the functional's S x (-S) sum is exact, because
        # every built S starts at column 64 or beyond (N = 16, alpha = 1)
        for alpha in (0.25, 0.5, 0.75, 1.0):
            for n in LADDER:
                f = build_counterexample(CounterexampleSpec(n, alpha))
                assert f.xi_idx.min() >= 64

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
        column = f.xi_idx == f.xi_idx.max()
        probes = [
            # one xi-column of a built set, and one just past column 4: each
            # pairs only with itself, at gap 0, so no pair sums into the window
            (f.xi_idx[column], f.tau_idx[column]),
            ([5, 5], [7, -7]),
        ]
        for xi_idx, tau_idx in probes:
            probe = CounterexampleFunction(f.spec, np.asarray(xi_idx), np.asarray(tau_idx))
            with pytest.raises(ResolutionError, match="window is empty"):
                bilinear_functional(probe, -0.75)

    @staticmethod
    def near_origin_probe(columns) -> CounterexampleFunction:
        """The probe whose set S is rows 0..2 in each of columns."""
        xi_idx, tau_idx = zip(*[(i, j) for i in columns for j in range(3)])
        spec = CounterexampleSpec(16.0, 0.25)
        return CounterexampleFunction(spec, np.asarray(xi_idx), np.asarray(tau_idx))

    @pytest.mark.parametrize(
        "columns",
        [range(1, 9), range(9), range(4, 13), (-7, -5)],
        ids=["1..8", "0..8", "4..12", "negative-half"],
    )
    def test_cell_near_the_origin_is_contract_violation(self, columns):
        # a cell of S at xi_idx <= 4 pairs with one of its own sign, or sits
        # at xi = 0, inside the window |xi_idx| in [2, 8]; the S x (-S) sum
        # misses those pairs (0.067 against the definition's 0.102 on columns
        # 1..8 at s = -0.75).  A negative cell is refused too, so an
        # unmirrored negative half, or a probe in the form that lists both
        # halves, fails here rather than being read as a set
        with pytest.raises(ContractViolationError, match=r"xi_idx <= 4"):
            bilinear_functional(self.near_origin_probe(columns), -0.75)

    def test_probe_listing_both_halves_is_contract_violation(self):
        # the form that listed S and -S both has negative cells, which the
        # contract refuses; without the check it overflowed to a RangeError
        f = build_counterexample(CounterexampleSpec(16.0, 0.25))
        xi_idx, tau_idx = (np.concatenate([a, -a]) for a in (f.xi_idx, f.tau_idx))
        with pytest.raises(ContractViolationError, match="xi_idx <= 4"):
            bilinear_functional(CounterexampleFunction(f.spec, xi_idx, tau_idx), -0.75)

    def test_cells_past_column_4_equal_the_definition(self):
        # the first columns the contract admits: every pair in the window
        # is an S x (-S) pair
        f = self.near_origin_probe(range(5, 13))
        ratio, _ = brute_force_functional(f, -0.75)
        assert bilinear_functional(f, -0.75) == pytest.approx(ratio, rel=1e-13)

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

    def test_ratio_invariant_under_cell_order(self):
        f = build_counterexample(CounterexampleSpec(32.0, 0.25))
        order = np.random.default_rng(0).permutation(len(f.xi_idx))
        shuffled = CounterexampleFunction(f.spec, f.xi_idx[order], f.tau_idx[order])
        assert bilinear_functional(shuffled, -0.6) == pytest.approx(
            bilinear_functional(f, -0.6), rel=1e-12
        )

    def test_repeated_cell_is_contract_violation(self):
        # f is {0, 1}-valued: a cell listed twice would count twice in
        # ||f||^2 and once in the convolution (0.0965459 against 0.0967221
        # for the N = 16, alpha = 1/4 set at s = -0.75)
        f = build_counterexample(CounterexampleSpec(16.0, 0.25))
        for k in (0, len(f.xi_idx) - 1):
            repeated = CounterexampleFunction(
                f.spec, np.append(f.xi_idx, f.xi_idx[k]), np.append(f.tau_idx, f.tau_idx[k])
            )
            with pytest.raises(ContractViolationError, match="listed more than once"):
                bilinear_functional(repeated, -0.75)

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

    def test_zero_slope_after_a_positive_one_is_the_crossover(self, monkeypatch):
        # slopes 0.5 then exactly 0.0: the sign change ends at s = -0.75
        slopes = iter((0.5, 0.0))
        monkeypatch.setattr(sharpness, "fit_power_law", lambda ns, r: {"slope": next(slopes)})
        rep = exponent_sweep(0.25, (-0.9, -0.75), LADDER)
        assert rep["crossover_estimate"] == -0.75

    def test_whole_ladder_checked_before_any_pair_work(self, monkeypatch):
        def no_lattice(f):
            raise AssertionError(f"pair lattice built at N = {f.spec.scale_n:g}")

        monkeypatch.setattr(sharpness, "_PairLattice", no_lattice)
        # 1e7 and 2e7 are inside the tau-lattice bound, 4e7 is not
        with pytest.raises(RangeError, match="scale_n = 4e"):
            exponent_sweep(0.25, (-0.75,), (1e7, 2e7, 4e7, 8e7))
