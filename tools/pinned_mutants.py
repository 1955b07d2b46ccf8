"""Check that each pinned mutant of kdvb is killed by the test that pins it.

Each row of MUTANTS names a file under src/kdvb, an exact piece of its
source, the mutant text that replaces it, and the pytest node that must
fail on the mutant.  The nodes must first pass on the unchanged source.
Then, for each row, src/ is copied to a temporary directory, the source
text must occur exactly once in the copied file, it is replaced by the
mutant text, and the node runs with PYTHONPATH pointing at the copy (and
pytest's own pythonpath setting cleared, so the copy is what imports).

Standard library only.  Run from anywhere:

    python tools/pinned_mutants.py

Exits 0 when every node passes on the source and fails on its mutant.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

from mutants import run_pytest

ROOT = Path(__file__).resolve().parent.parent
# a mutant that makes its node run this long counts as killed
TIMEOUT_S = 300

# (file under src/kdvb, exact source text, mutant text, pytest node)
MUTANTS = [
    (
        "evolve.py",
        "{(cfg.grid, cfg.t_final) for cfg in cfgs}",
        "{cfg.grid for cfg in cfgs}",
        "tests/test_evolve.py::TestSolveLadder::test_configs_must_share_schedule",
    ),
    (
        "evolve.py",
        "is_integer(v) and v > 0",
        "is_integer(v) and v >= 0",
        "tests/test_evolve.py::TestTrajectorySerialization::"
        "test_bad_manifest_is_contract_violation",
    ),
    (
        "evolve.py",
        "-math.inf < v < math.inf",
        "-math.inf < v <= math.inf",
        "tests/test_evolve.py::TestTrajectorySerialization::"
        "test_bad_header_is_contract_violation[time-inf]",
    ),
    (
        "evolve.py",
        "except (ValueError, RecursionError) as exc:",
        "except ValueError as exc:",
        "tests/test_evolve.py::TestTrajectorySerialization::"
        "test_bad_manifest_is_contract_violation[nested-too-deep]",
    ),
    # the solver names non-finite data as initial data, so the CLI gives its kind
    (
        "evolve.py",
        'raise InitialDataError("initial data has non-finite',
        'raise ParameterError("initial data has non-finite',
        "tests/test_cli.py::TestRun::"
        "test_finite_data_whose_transform_overflows_is_named_by_its_kind",
    ),
    # a diverged run is named by its own dt, not the batch's first
    (
        "evolve.py",
        "cfg.params.epsilon, cfg.dt)",
        "cfg.params.epsilon, cfgs[0].dt)",
        "tests/test_cli.py::TestBatchedCompanions::"
        "test_energy_refine_divergence_matches_per_run_path",
    ),
    # the factor of 2 f2 in the phi table
    (
        "evolve.py",
        "(2.0, lambda w: (2.0 + w",
        "(2.002, lambda w: (2.0 + w",
        "tests/test_evolve.py::TestStepperBuffers::"
        "test_folded_multiplier_agrees_with_the_full_nonlinearity",
    ),
    # the snapshot schedule's last step is stamped t_final, not steps * dt
    (
        "evolve.py",
        "self.t_final if step == self.steps else",
        "self.t_final if step > self.steps else",
        "tests/test_evolve.py::TestSolveLadder::"
        "test_divergence_on_the_last_step_is_stamped_t_final",
    ),
    (
        "propagator.py",
        "return float(defect / norm) if norm > 0",
        "return float(defect / norm) if norm >= 0",
        "tests/test_propagator.py::TestSemigroup::test_zero_field",
    ),
    # the taper's ramp height and the modulation wrap move xk_norm inside every bound
    (
        "norms.py",
        "ramp = 0.5 * (1.0 - np.cos(",
        "ramp = 0.5005 * (1.0 - np.cos(",
        "tests/test_norms.py::TestXkNorm::test_taper_is_a_raised_cosine",
    ),
    (
        "norms.py",
        "(sigma + 0.5 * tau_span)",
        "(sigma + 0.5005 * tau_span)",
        "tests/test_norms.py::TestXkNorm::test_modulation_wrap_is_the_principal_reduction",
    ),
    (
        "norms.py",
        "tau_span = 2.0 * np.pi / dt_snap",
        "tau_span = 2.0 * np.pi * dt_snap",
        "tests/test_norms.py::TestXkNorm::test_single_mode_lands_in_its_modulation_band",
    ),
    (
        "norms.py",
        "not 0 < window <= traj.times[-1]",
        "window <= 0 or window > traj.times[-1]",
        "tests/test_norms.py::TestXkNorm::test_window_outside_the_run_rejected[nan]",
    ),
    # xk_norm drops the last snapshot only when it closes a shortened interval
    (
        "norms.py",
        "and cfg.steps % cfg.snapshot_stride:",
        "and not cfg.steps % cfg.snapshot_stride:",
        "tests/test_norms.py::TestXkNorm::test_shortened_last_interval_is_dropped",
    ),
    (
        "norms.py",
        "is_integer(k) and k >= 0",
        "k >= 0",
        "tests/test_norms.py::TestXkNorm::test_negative_band_rejected",
    ),
    (
        "norms.py",
        "return half_l2 + dissipated - half_l2[0]",
        "return half_l2 - dissipated - half_l2[0]",
        "tests/test_cli.py::TestRun::test_ledger_csv_residual_column_gives_the_ledger_residual",
    ),
    # sigma3's denominator; sigma3^- is sigma3 at -xi, not a second branch
    (
        "imethod.py",
        "h3 - _eps_beta(",
        "h3 + _eps_beta(",
        "tests/test_imethod.py::TestSigma3::test_matches_quotient_oracle",
    ),
    # the M4 envelope's prod (N + |xi_i|), and k = 5's one lead at a time
    (
        "imethod.py",
        "envelope /= spec.cutoff_n + np.abs(x)",
        "envelope /= spec.cutoff_n - np.abs(x)",
        "tests/test_imethod.py::TestM4BoundSampler::test_ratio_is_sigma4_over_its_envelope",
    ),
    (
        "imethod.py",
        "if k < 5:",
        "if not k < 5:",
        "tests/test_imethod.py::TestLambdaK::test_five_linear_holds_one_lead_at_a_time",
    ),
    (
        "imethod.py",
        "pair_sums = (xs[i] + xs[j] for",
        "pair_sums = (xs[i] - xs[j] for",
        "tests/test_imethod.py::TestM4BoundSampler::"
        "test_draws_on_a_vanishing_pair_sum_are_dropped",
    ),
    (
        "imethod.py",
        "e4 = e3 + complex(",
        "e4 = e3 - complex(",
        "tests/test_imethod.py::TestModifiedEnergy::test_order4_adds_the_sigma4_functional",
    ),
    (
        "imethod.py",
        "float(np.max(energies)) / span",
        "float(np.max(energies)) * span",
        "tests/test_imethod.py::TestEnergyDerivativeIdentity::test_energy_term_sets_the_scale",
    ),
    (
        "imethod.py",
        "rhs = -diss + (2.0 / 3.0) * _m3_flux(",
        "rhs = -diss - (2.0 / 3.0) * _m3_flux(",
        "tests/test_imethod.py::TestEnergyDerivativeIdentity::"
        "test_flux_term_counts_below_the_cutoff",
    ),
    (
        "imethod.py",
        "values[small] = 0.0",
        "values[small] = 1.0",
        "tests/test_imethod.py::TestSigma4::test_vanishing_denominator_sets_the_mask",
    ),
    (
        "imethod.py",
        "c, d = (i for i in range(k) if i not in kept)",
        "c, d = (i for i in range(k) if i in kept)",
        "tests/test_imethod.py::TestBitForBitOracles::test_random_tuples",
    ),
    (
        "imethod.py",
        '_slots(xs, len(xs), "beta_values", alpha=alpha))',
        '_slots(xs, len(xs), "beta_values", alpha=alpha)[::-1])',
        "tests/test_imethod.py::TestBitForBitOracles::test_random_tuples",
    ),
    # a slot handed on is rewrapped: the same values, its terms computed again
    (
        "imethod.py",
        "x if isinstance(x, _Slot) else",
        "_Slot(x.xi, spec, alpha) if isinstance(x, _Slot) else",
        "tests/test_imethod.py::TestSharedSlotTerms::test_each_slot_evaluates_its_weight_once",
    ),
    (
        "imethod.py",
        "if not 0 < alpha <= 1:",
        "if alpha <= 0 or alpha > 1:",
        "tests/test_imethod.py::TestResonance::test_beta_alpha_outside_the_model_rejected[nan]",
    ),
    (
        "imethod.py",
        "if any(not x >= 0 for x in a + b):",
        "if any(x < 0 for x in a + b):",
        "tests/test_imethod.py::TestRearrangement::test_negative_rejected",
    ),
    (
        "imethod.py",
        "advance(r * batch)",
        "advance(r * batch + 1)",
        "tests/test_imethod.py::TestBitForBitOracles::test_sampler_blocks_on_criterion_08_annuli",
    ),
    # a batch that fits one block is drawn in one call, in the (3, batch) layout
    (
        "imethod.py",
        "rng.uniform(-1.0, 1.0, size=(3, batch))",
        "rng.uniform(-1.0, 1.0, size=(batch, 3)).T",
        "tests/test_imethod.py::TestM4BoundSampler::test_blocks_are_the_whole_draw",
    ),
    (
        "imethod.py",
        "is_integer(n_samples) and 10_000",
        "10_000",
        "tests/test_imethod.py::TestM4BoundSampler::test_sample_floor_enforced",
    ),
    # no |xi|^(2 alpha) is formed at eps = 0
    (
        "imethod.py",
        "if params.epsilon else 0.0",
        "if True else 0.0",
        "tests/test_imethod.py::TestSharedSlotTerms::test_no_dissipation_term_at_eps_zero",
    ),
    # the modulated Gaussian moves criterion 01's ledger numbers inside their bounds
    (
        "experiments.py",
        "values = values * (1.0 + 0.5 * np.cos(",
        "values = values / (1.0 + 0.5 * np.cos(",
        "tests/test_experiments.py::TestGaussianData::test_modulated_bump_is_its_closed_form",
    ),
    (
        "experiments.py",
        "if any(b >= a for a, b in zip(ladder, ladder[1:])):",
        "if any(b > a for a, b in zip(ladder, ladder[1:])):",
        "tests/test_cli.py::TestMain::test_unordered_sweep_fails_before_any_work",
    ),
    (
        "experiments.py",
        "if modulation != 0:",
        "if modulation > 0:",
        "tests/test_experiments.py::TestGaussianData::test_modulation_is_even",
    ),
    (
        "experiments.py",
        "-np.inf < s <= 0",
        "-np.inf <= s <= 0",
        "tests/test_experiments.py::TestInviscidSweep::test_ladder_validated",
    ),
    # the two l2_norm checks read alike, so each row takes in the line before
    (
        "experiments.py",
        '{width}")\n    if not 0 <= l2_norm < np.inf:',
        '{width}")\n    if not 0 <= l2_norm <= np.inf:',
        "tests/test_experiments.py::TestGaussianData::test_non_finite_l2_norm_rejected",
    ),
    (
        "experiments.py",
        '"""\n    if not 0 <= l2_norm < np.inf:',
        '"""\n    if not 0 <= l2_norm <= np.inf:',
        "tests/test_experiments.py::TestRoughData::test_non_finite_l2_norm_rejected",
    ),
    (
        "experiments.py",
        "if not np.isfinite(amplitude):",
        "if np.isinf(amplitude):",
        "tests/test_experiments.py::TestSineData::test_non_finite_amplitude_rejected",
    ),
    (
        "experiments.py",
        "2j * np.pi * rng.random",
        "2j / np.pi * rng.random",
        "tests/test_experiments.py::TestRoughData::test_phases_are_the_seeded_draws",
    ),
    (
        "experiments.py",
        "sobolev_weight(grid, decay_exponent / 2.0)",
        "sobolev_weight(grid, decay_exponent / 2.002)",
        "tests/test_experiments.py::TestRoughData::test_modulus_follows_the_power_law",
    ),
    (
        "experiments.py",
        "dissipation_symbol(cfg.grid, alpha) ** 2)",
        "dissipation_symbol(cfg.grid, alpha) ** 2.002)",
        "tests/test_experiments.py::TestH1Bound::"
        "test_observables_are_the_h1_sup_and_the_dissipation_integral",
    ),
    (
        "experiments.py",
        "0 <= lambda_exp <= max_exp",
        "0 <= lambda_exp <= max_exp + 1",
        "tests/test_experiments.py::TestScalingCheck::"
        "test_lambda_rule_is_checked_before_the_base_solve",
    ),
    # the two reported ratios, each written once, and the zero-data refusal
    (
        "experiments.py",
        "max(obs) / min(obs)",
        "max(obs) * min(obs)",
        "tests/test_acceptance.py::TestCriterion06H1UniformBound::test_band",
    ),
    (
        "experiments.py",
        "residual / max(fine, 1e-300)",
        "residual * max(fine, 1e-300)",
        "tests/test_acceptance.py::TestCriterion01DissipationLedger::"
        "test_l2_ledger_residual_and_refinement",
    ),
    (
        "experiments.py",
        "if min(obs) == 0.0:",
        "if False:",
        "tests/test_experiments.py::TestH1Bound::test_zero_observable_is_parameter_error",
    ),
    (
        "experiments.py",
        "if len(eps_ladder) < 2:",
        "if len(eps_ladder) < 1:",
        "tests/test_experiments.py::TestRateCheck::test_one_epsilon_rejected_before_any_solve",
    ),
    # boundaries and a refusal that the seed-6 census left unpinned
    (
        "experiments.py",
        "np.all(diffs <= 0)",
        "np.all(diffs < 0)",
        "tests/test_experiments.py::TestRateFit::test_falling_sweep_with_a_tie_is_monotone",
    ),
    (
        "imethod.py",
        "if len(traj.times) < 3:",
        "if len(traj.times) <= 3:",
        "tests/test_imethod.py::TestEnergyDerivativeIdentity::test_three_snapshots_suffice",
    ),
    (
        "experiments.py",
        'raise ParameterError(f"eps_ladder must be non-empty in [0, 1], got {ladder}")',
        "pass",
        "tests/test_experiments.py::TestH1Bound::"
        "test_ladder_outside_the_unit_interval_rejected_before_any_solve",
    ),
    # the resonance floor README documents, and the zero-mode refusal's edge
    (
        "imethod.py",
        "_TINY = 1e-30",
        "_TINY = 1.001e-30",
        "tests/test_imethod.py::TestSigma4::test_the_resonance_floor_is_1e_30",
    ),
    (
        "imethod.py",
        "abs(u.coeffs[0]) > 1e-13",
        "abs(u.coeffs[0]) >= 1e-13",
        "tests/test_imethod.py::TestModifiedEnergy::test_zero_mode_at_the_threshold_is_tolerated",
    ),
    (
        "reports.py",
        "r_sq = 1.0 - float(",
        "r_sq = 1.001 - float(",
        "tests/test_experiments.py::TestRateFit::test_exact_power_law_has_unit_r_squared",
    ),
    (
        "reports.py",
        "np.sum((y - y.mean()) ** 2)",
        "np.sum((y - y.mean()) * 2)",
        "tests/test_experiments.py::TestRateFit::test_inexact_fit_has_the_hand_r_squared",
    ),
    (
        "spectral.py",
        "return float(defect / norm) if norm > 0",
        "return float(defect / norm) if norm >= 0",
        "tests/test_spectral.py::TestDealias::test_hermitian_residual_of_the_zero_field",
    ),
    (
        "spectral.py",
        "return (1.0 + grid.wavenumbers() ** 2) ** s",
        "return (1.001 + grid.wavenumbers() ** 2) ** s",
        "tests/test_norms.py::TestSobolevNorm::test_single_unit_mode",
    ),
    (
        "spectral.py",
        "isinstance(value, (float, np.floating))",
        "isinstance(value, (float, np.floating, str))",
        "tests/test_cli.py::TestMain::test_bad_scalar_is_config_error",
    ),
    (
        "spectral.py",
        "0 <= value < 2**64",
        "0 <= value <= 2**64",
        "tests/test_experiments.py::TestRoughData::test_seed_outside_the_cli_range_rejected",
    ),
    (
        "sharpness.py",
        'regime = "low_alpha" if alpha <= 0.5',
        'regime = "low_alpha" if alpha < 0.5',
        "tests/test_sharpness.py::TestExponentSweep::test_ratios_equal_the_one_s_functional",
    ),
    (
        "sharpness.py",
        "np.abs(tau - xi**3)",
        "np.abs(tau + xi**3)",
        "tests/test_sharpness.py::TestBilinearFunctional::test_equals_the_cell_pair_definition",
    ),
    (
        "sharpness.py",
        "not 16 <= self.scale_n",
        "16 > self.scale_n",
        "tests/test_sharpness.py::TestSpecValidation::test_nan_scale_n_rejected",
    ),
    (
        "sharpness.py",
        "self.scale_n < math.inf",
        "self.scale_n <= math.inf",
        "tests/test_sharpness.py::TestSpecValidation::test_nan_scale_n_rejected",
    ),
    (
        "sharpness.py",
        "0 < self.delta < 0.25",
        "0 < self.delta <= 0.25",
        "tests/test_sharpness.py::TestSpecValidation::test_delta_outside_open_quarter_rejected",
    ),
    (
        "sharpness.py",
        "math.log(n + w)",
        "math.log(n - w)",
        "tests/test_sharpness.py::TestBuildCounterexample::"
        "test_tau_index_beyond_2_pow_53_is_range_error",
    ),
    (
        "sharpness.py",
        "f.xi_idx <= CELLS_ACROSS_THIN // 4",
        "f.xi_idx < CELLS_ACROSS_THIN // 4",
        "tests/test_sharpness.py::TestBilinearFunctional::"
        "test_cell_near_the_origin_is_contract_violation",
    ),
    (
        "sharpness.py",
        "np.bincount(col * weight.shape[1] + row).max() > 1",
        "np.bincount(col * weight.shape[1] + row).max() > 2",
        "tests/test_sharpness.py::TestBilinearFunctional::"
        "test_repeated_cell_is_contract_violation",
    ),
    # an exact zero slope after a positive one is the crossover
    (
        "sharpness.py",
        "a > 0 >= b",
        "a > 0 > b",
        "tests/test_sharpness.py::TestExponentSweep::"
        "test_zero_slope_after_a_positive_one_is_the_crossover",
    ),
    # flat observables: the total sum of squares is roundoff, not 0
    (
        "reports.py",
        "if np.ptp(y) > 0 else 1.0",
        "if np.ptp(y) > 0 else 1.001",
        "tests/test_experiments.py::TestRateFit::test_flat_data_has_unit_r_squared",
    ),
    (
        "reports.py",
        "if np.ptp(y) > 0 else",
        "if np.ptp(y) >= 0 else",
        "tests/test_experiments.py::TestRateFit::test_flat_data_has_unit_r_squared",
    ),
    (
        "errors.py",
        "(self.step_index, self.time, self.run,",
        "(self.time, self.step_index, self.run,",
        "tests/test_evolve.py::TestSolve::test_divergence_detected_with_step_index",
    ),
    # three of the schema defaults that README's tables document
    (
        "cli.py",
        '"t_final": (float, 1.0)',
        '"t_final": (float, 1.001)',
        "tests/test_cli.py::TestParseConfig::test_schema_defaults_match_the_readme",
    ),
    (
        "cli.py",
        '"cutoff_n": (float, 0.5)',
        '"cutoff_n": (float, 0.5005)',
        "tests/test_cli.py::TestParseConfig::test_schema_defaults_match_the_readme",
    ),
    (
        "cli.py",
        "(1e-1, 1e-2, 1e-3, 1e-4)",
        "(1e-1, 1e-2, 1.001e-3, 1e-4)",
        "tests/test_cli.py::TestParseConfig::test_schema_defaults_match_the_readme",
    ),
    # only an initial-data error is named by its kind, not a ladder error
    (
        "cli.py",
        "except InitialDataError as exc:",
        "except ParameterError as exc:",
        "tests/test_cli.py::TestMain::test_unordered_sweep_fails_before_any_work[eps-unordered]",
    ),
]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        nodes = sorted({row[3] for row in MUTANTS})
        code = run_pytest(ROOT, src, nodes, TIMEOUT_S)
        if code != 0:
            print(f"the pinning tests do not pass on the source (pytest exit {code})")
            return 1
        survivors = 0
        for name, source, mutant, node in MUTANTS:
            path = src / "kdvb" / name
            original = path.read_text()
            count = original.count(source)
            if count != 1:
                print(f"{name}: {source!r} occurs {count} times, not once")
                return 1
            path.write_text(original.replace(source, mutant))
            killed = run_pytest(ROOT, src, [node], TIMEOUT_S) != 0
            path.write_text(original)
            survivors += not killed
            print(f"{'killed' if killed else 'SURVIVED'}: {name}: {mutant!r} by {node}")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} pinned mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
