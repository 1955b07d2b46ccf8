"""Tests for the multiplier calculus, hyperplane functionals, and the
quadratic ledger identity."""

import itertools
import tracemalloc

import numpy as np
import pytest

from free_flow import free_flow
from kdvb.errors import (
    ContractViolationError,
    ParameterError,
    ResolutionError,
    ResonantDenominatorError,
)
from kdvb import imethod
from kdvb.evolve import SolverConfig, Trajectory, solve
from kdvb.experiments import gaussian_initial_data
from kdvb.imethod import (
    DyadicConfig,
    IMultiplierSpec,
    beta_values,
    denergy_identity_residual,
    h4_values,
    lambda_k,
    m3_values,
    m4_bound_sample,
    m4_values,
    m5_values,
    m_weight,
    modified_energy,
    rearrangement_check,
    sigma3_values,
    sigma4_values,
)
from kdvb.propagator import ModelParams
from kdvb.spectral import GridSpec, RealField, SpectralField, dealias, forward_transform

SPEC = IMultiplierSpec(cutoff_n=4.0, s_exp=-0.74)
PARAMS = ModelParams(0.5, 1.0)


def random_tuples(rng, k, count, scale=6.0):
    """count zero-sum k-tuples as k slot arrays of shape (count,)."""
    x = rng.standard_normal((count, k - 1)).T * scale
    return (*x, -x.sum(axis=0))


def slots(*xis):
    """One tuple as k one-element slot arrays."""
    return tuple(np.array([x]) for x in xis)


def permuted(xs):
    """Every permutation of the slots of xs, one per column: slot j of the
    result has shape (k!, *xs[j].shape)."""
    perms = np.array(list(itertools.permutations(range(len(xs)))))
    return tuple(np.stack(xs)[perms[:, j]] for j in range(len(xs)))


def below_cutoff_triples(rng, count):
    """Zero-sum triples with every |xi_j| <= SPEC.cutoff_n, so m = 1 on each slot."""
    x1, x2 = rng.uniform(-2.0, 2.0, (2, count))
    return (np.append(x1, 1.0), np.append(x2, 0.5), -np.append(x1 + x2, 1.5))


class TestMWeight:
    def test_plateau_and_tail(self):
        np.testing.assert_array_equal(m_weight(np.array([0.0, 2.0, -4.0]), SPEC), 1.0)
        spec = IMultiplierSpec(4.0, -0.75)
        assert m_weight(np.array([16.0, -16.0]), spec) == pytest.approx(4.0**-0.75)

    def test_even(self):
        xi = np.random.default_rng(0).standard_normal(20) * 30
        np.testing.assert_array_equal(m_weight(-xi, SPEC), m_weight(xi, SPEC))

    def test_spec_validation(self):
        with pytest.raises(ParameterError, match="cutoff"):
            IMultiplierSpec(0.0, -0.5)
        with pytest.raises(ParameterError, match="s_exp"):
            IMultiplierSpec(4.0, -0.8)
        with pytest.raises(ParameterError, match="s_exp"):
            IMultiplierSpec(4.0, 0.1)


class TestResonance:
    def test_cubic_sum_example(self):
        # the triple (1, 1, -2) with a zero fourth slot: h4 = i (1 + 1 - 8)
        assert h4_values(slots(1.0, 1.0, -2.0, 0.0)) == pytest.approx(-6j)

    def test_opposite_pair_cancels(self):
        a = np.array([0.3, -2.7, 11.0])
        np.testing.assert_array_equal(h4_values((a, -a, 2 * a, -2 * a)), 0)

    def test_factored_forms(self):
        # the kernels' factored h3 and h4 against the raw cube sums i sum xi_j^3;
        # h3 is read back from sigma3 at eps = 0, where m^2(xi) xi = N sign(xi)
        # keeps M3 = +-i N away from zero
        rng = np.random.default_rng(1)
        low = IMultiplierSpec(1e-3, -0.5)
        p0 = ModelParams(0.0, 1.0)
        t3, t4 = random_tuples(rng, 3, 10), random_tuples(rng, 4, 10)
        for xs, h in (
            (t3, -m3_values(t3, low) / sigma3_values(t3, low, p0)[0]),
            (t4, h4_values(t4)),
        ):
            raw = 1j * sum(x**3 for x in xs)
            assert np.all(np.abs(h - raw) <= 1e-10 * np.maximum(np.abs(raw), 1.0))

    def test_beta(self):
        assert beta_values((1.0, 1.0, -2.0), 1.0) == pytest.approx(6.0)
        assert beta_values((0.0, 0.0, 0.0), 0.5) == 0.0
        assert beta_values((1.0, -1.0), 0.5) == pytest.approx(2.0)

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, float("nan"), 5.0])
    def test_beta_alpha_outside_the_model_rejected(self, alpha):
        with pytest.raises(ParameterError, match="alpha must lie in"):
            beta_values((1.0, 1.0, -2.0), alpha)


class TestBigM3:
    def test_vanishes_below_cutoff(self):
        xs = below_cutoff_triples(np.random.default_rng(20), 50)
        np.testing.assert_array_equal(m3_values(xs, SPEC), 0)

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        vals = m3_values(permuted(random_tuples(rng, 3, 20, scale=9.0)), SPEC)
        assert np.all(np.abs(vals - vals[0]) <= 1e-14 * np.abs(vals[0]))

    def test_balanced_high_pair(self):
        a = SPEC.cutoff_n * np.array([4.0, 7.0, 100.0])
        vals = m3_values((a, -a, np.zeros(3)), SPEC)
        assert np.all(np.abs(vals) <= 1e-14)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        xs = random_tuples(rng, 3, 20, scale=10.0)
        direct = 1j * sum(m_weight(x, SPEC) ** 2 * x for x in xs)
        np.testing.assert_allclose(m3_values(xs, SPEC), direct, rtol=1e-13)


class TestSigma3:
    def test_zero_below_cutoff(self):
        xs = below_cutoff_triples(np.random.default_rng(21), 50)
        values, resonant = sigma3_values(xs, SPEC, PARAMS)
        np.testing.assert_array_equal(values, 0)
        assert not resonant.any()

    def test_signs_coincide_without_dissipation(self):
        p0 = ModelParams(0.0, 1.0)
        xs = random_tuples(np.random.default_rng(22), 3, 20)
        xs = tuple(np.append(x, y) for x, y in zip(xs, (2.0, 3.0, -5.0)))
        plus, _ = sigma3_values(xs, SPEC, p0)
        minus, _ = sigma3_values([-x for x in xs], SPEC, p0)
        np.testing.assert_array_equal(plus, minus)

    def test_matches_quotient_oracle(self):
        rng = np.random.default_rng(4)
        p = ModelParams(0.5, 1.0)
        xs = random_tuples(rng, 3, 40, scale=8.0)
        m3 = 1j * sum(m_weight(x, SPEC) ** 2 * x for x in xs)
        h3 = 3j * xs[0] * xs[1] * xs[2]
        beta = sum(abs(x) ** 2 for x in xs)
        values, resonant = sigma3_values(xs, SPEC, p)
        np.testing.assert_allclose(values, -m3 / (h3 - p.epsilon * beta), rtol=1e-12)
        assert not resonant.any()

    def test_resonant_zero_set_maps_to_zero(self):
        # eps = 0 with a vanishing frequency: M3 = 0 over h3 = 0, so 0 and no mask
        p0 = ModelParams(0.0, 1.0)
        values, resonant = sigma3_values(slots(0.0, 2.0, -2.0), SPEC, p0)
        assert values[0] == 0 and not resonant[0]

    def test_difference_envelope_stable_across_scales(self):
        # |sigma3 - sigma3^-| against
        # eps |xi|max^(2a) m^2(|xi|min) |xi|min / ((x1 x2 x3)^2 + eps^2 |xi|max^(4a))
        rng = np.random.default_rng(5)
        p = ModelParams(0.5, 0.8)
        maxima = []
        scales = (8.0, 32.0, 128.0, 512.0)
        for mu in scales:
            lam = mu / 8.0
            x1 = rng.uniform(lam, 2 * lam, 4000) * rng.choice([-1, 1], 4000)
            x2 = rng.uniform(mu, 2 * mu, 4000) * rng.choice([-1, 1], 4000)
            x3 = -x1 - x2
            ok = (np.abs(x3) >= mu / 2) & (np.abs(x3) <= 4 * mu)
            x1, x2, x3 = x1[ok], x2[ok], x3[ok]
            plus, _ = sigma3_values((x1, x2, x3), SPEC, p)
            minus, _ = sigma3_values((-x1, -x2, -x3), SPEC, p)
            mags = np.maximum.reduce([np.abs(x1), np.abs(x2), np.abs(x3)])
            mins = np.minimum.reduce([np.abs(x1), np.abs(x2), np.abs(x3)])
            envelope = (
                p.epsilon
                * mags ** (2 * p.alpha)
                * m_weight(mins, SPEC) ** 2
                * mins
                / ((x1 * x2 * x3) ** 2 + p.epsilon**2 * mags ** (4 * p.alpha))
            )
            maxima.append(np.max(np.abs(plus - minus) / envelope))
        slope = np.polyfit(np.log(scales), np.log(maxima), 1)[0]
        assert abs(slope) <= 0.1

    def test_size_envelope_uniform_in_eps(self):
        # |sigma3| <= C m^2(lambda) mu^-2 with one C for all eps
        rng = np.random.default_rng(6)
        worst = 0.0
        for eps in (0.0, 1e-3, 1.0):
            p = ModelParams(eps, 0.7)
            for mu in (8.0, 64.0, 512.0):
                for lam in (mu / 16.0, mu):
                    x1 = rng.uniform(lam, 2 * lam, 2000) * rng.choice([-1, 1], 2000)
                    x2 = rng.uniform(mu, 2 * mu, 2000) * rng.choice([-1, 1], 2000)
                    x3 = -x1 - x2
                    ok = np.abs(x3) >= mu / 2
                    x1, x2, x3 = x1[ok], x2[ok], x3[ok]
                    vals, _ = sigma3_values((x1, x2, x3), SPEC, p)
                    lam_eff = np.minimum.reduce([np.abs(x1), np.abs(x2), np.abs(x3)])
                    mu_eff = np.sort(
                        np.stack([np.abs(x1), np.abs(x2), np.abs(x3)]), axis=0
                    )[1]
                    envelope = m_weight(lam_eff, SPEC) ** 2 / mu_eff**2
                    worst = max(worst, float(np.max(np.abs(vals) / envelope)))
        assert worst <= 1.0  # |h3| >= 3 lam mu^2 makes C about 1/3


def brute_force_m4(xs, spec, params):
    """M4 as the mean over all 24 orderings (a, b, c, d) of -(3i/2) sigma3(a, b, c + d) (c + d)."""
    a, b, c, d = permuted(xs)
    s3, _ = sigma3_values((a, b, c + d), spec, params)
    return -1.5j * np.sum(s3 * (c + d), axis=0) / 24.0


def brute_force_m5(xs, spec, params):
    """M5 as the mean over all 120 orderings of -2i sigma4(a, b, c, d + e) (d + e)."""
    a, b, c, d, e = permuted(xs)
    s4, _ = sigma4_values((a, b, c, d + e), spec, params)
    return -2j * np.sum(s4 * (d + e), axis=0) / 120.0


def well_below_cutoff_quadruple():
    n = SPEC.cutoff_n
    return slots(n / 9, n / 10, -n / 11, -(n / 9 + n / 10 - n / 11))


class TestBigM4:
    def test_permutation_invariance(self):
        # one tuple: at 20, cancellation leaves one |M4| at 1.5e-5 whose six pairing
        # sums, reordered, spread by 1.8e-13 relative
        rng = np.random.default_rng(7)
        vals, _ = m4_values(permuted(random_tuples(rng, 4, 1, scale=7.0)), SPEC, PARAMS)
        assert np.all(np.abs(vals - vals[0]) <= 1e-14 * np.maximum(np.abs(vals[0]), 1e-30))

    def test_vanishes_well_below_cutoff(self):
        values, resonant = m4_values(well_below_cutoff_quadruple(), SPEC, PARAMS)
        assert values[0] == 0 and not resonant[0]

    def test_matches_brute_force_symmetrization(self):
        rng = np.random.default_rng(8)
        xs = random_tuples(rng, 4, 20, scale=6.0)
        values, resonant = m4_values(xs, SPEC, PARAMS)
        np.testing.assert_allclose(values, brute_force_m4(xs, SPEC, PARAMS), rtol=1e-12)
        assert not resonant.any()

    def test_degenerate_pairing_maps_to_zero(self):
        # eps = 0 with vanishing pair sums: every quotient is 0/0, so 0 and no mask
        p0 = ModelParams(0.0, 1.0)
        for kernel in (m4_values, sigma4_values):
            values, resonant = kernel(slots(3.0, -3.0, 2.0, -2.0), SPEC, p0)
            assert values[0] == 0 and not resonant[0]


class TestSigma4:
    def test_zero_below_cutoff(self):
        values, resonant = sigma4_values(well_below_cutoff_quadruple(), SPEC, PARAMS)
        assert values[0] == 0 and not resonant[0]

    def test_quotient_identity(self):
        rng = np.random.default_rng(9)
        xs = random_tuples(rng, 4, 20, scale=8.0)
        m4, _ = m4_values(xs, SPEC, PARAMS)
        h4 = 1j * sum(x**3 for x in xs)
        beta = beta_values(xs, PARAMS.alpha)
        s4, _ = sigma4_values(xs, SPEC, PARAMS)
        lhs = np.abs(s4) * np.abs(h4 - PARAMS.epsilon * beta)
        np.testing.assert_allclose(lhs, np.abs(m4), rtol=1e-12)

    def test_the_resonance_floor_is_1e_30(self):
        # README: |den| <= 1e-30 gives the value 0 and, under a numerator above
        # 1e-30, the mask; a denominator just above the floor is divided
        den = np.array([1e-30, -1e-30, 1.0005e-30])
        values, resonant = imethod._guarded_quotient(np.ones(3), den)
        assert values.tolist() == [0.0, 0.0, -1.0 / 1.0005e-30]
        assert resonant.tolist() == [True, True, False]

    def test_vanishing_denominator_sets_the_mask(self):
        # at eps = 0 a tuple of size 1e-12 puts |h3| and |h4| near 1e-36, under the
        # 1e-30 floor, while roundoff leaves M3 and M4 above it: value 0, mask set
        p0 = ModelParams(0.0, 1.0)
        values, resonant = sigma4_values(slots(1e-12, 2e-12, -0.5e-12, -2.5e-12), SPEC, p0)
        assert values[0] == 0 and resonant[0]


class TestBigM5:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(10)
        xs = random_tuples(rng, 5, 4, scale=5.0)
        vals, _ = m5_values(permuted(xs), SPEC, PARAMS)
        np.testing.assert_allclose(vals, np.broadcast_to(vals[0], vals.shape), rtol=1e-12)

    def test_vanishes_below_cutoff(self):
        n = SPEC.cutoff_n
        xs = (n / 13, n / 17, n / 19, n / 23)
        values, _ = m5_values(slots(*xs, -sum(xs)), SPEC, PARAMS)
        assert abs(values[0]) <= 1e-14

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        xs = random_tuples(rng, 5, 4, scale=6.0)
        values, _ = m5_values(xs, SPEC, PARAMS)
        np.testing.assert_allclose(values, brute_force_m5(xs, SPEC, PARAMS), rtol=1e-12)


class TestSlotCount:
    KERNELS = {
        "m3_values": (3, lambda xs: m3_values(xs, SPEC)),
        "sigma3_values": (3, lambda xs: sigma3_values(xs, SPEC, PARAMS)),
        "h4_values": (4, h4_values),
        "m4_values": (4, lambda xs: m4_values(xs, SPEC, PARAMS)),
        "sigma4_values": (4, lambda xs: sigma4_values(xs, SPEC, PARAMS)),
        "m5_values": (5, lambda xs: m5_values(xs, SPEC, PARAMS)),
    }

    @pytest.mark.parametrize("count", [3, 4, 5, 6])
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_wrong_count_names_the_expected_k(self, kernel, count):
        k, fn = self.KERNELS[kernel]
        xs = random_tuples(np.random.default_rng(count), count, 8)
        if count == k:
            fn(xs)
        else:
            with pytest.raises(ContractViolationError, match=f"{kernel} takes k = {k} slots"):
                fn(xs)


class TestSharedSlotTerms:
    # each slot computes m^2(xi) once: M4 and sigma4 its 4 slots and 6 pair
    # sums, M5 its 5 slots, 10 pair sums and the 6 pair sums of each sigma4
    @pytest.mark.parametrize(
        "kernel,k,calls", [(m4_values, 4, 10), (sigma4_values, 4, 10), (m5_values, 5, 75)]
    )
    def test_each_slot_evaluates_its_weight_once(self, monkeypatch, kernel, k, calls):
        msq, seen = imethod._msq, []

        def counted(xi, spec):
            seen.append(xi)
            return msq(xi, spec)

        monkeypatch.setattr(imethod, "_msq", counted)
        kernel(random_tuples(np.random.default_rng(k), k, 64), SPEC, PARAMS)
        assert len(seen) == calls

    @pytest.mark.parametrize("kernel,k", [(sigma3_values, 3), (sigma4_values, 4)])
    def test_no_dissipation_term_at_eps_zero(self, monkeypatch, kernel, k):
        # at eps = 0 the denominator is h_k alone, and no beta_k is formed
        p0 = ModelParams(0.0, 1.0)
        xs = random_tuples(np.random.default_rng(k), k, 64)
        num = m3_values(xs, SPEC) if k == 3 else m4_values(xs, SPEC, p0)[0]
        den = 3j * xs[0] * xs[1] * xs[2] if k == 3 else h4_values(xs)

        def refused(*args):
            raise AssertionError("beta_k formed at eps = 0")

        monkeypatch.setattr(imethod, "beta_values", refused)
        values, resonant = kernel(xs, SPEC, p0)
        np.testing.assert_array_equal(values, -num / den)
        assert not resonant.any()


class TestM4BoundSampler:
    LADDER = tuple(float(2**j) for j in range(4, 11))

    @pytest.mark.parametrize("eps,alpha", [(0.0, 0.5), (1.0, 1.0)])
    def test_slope_flat(self, eps, alpha):
        cfg = DyadicConfig(n1_ladder=self.LADDER, ratios=(1.0, 0.75, 0.5), seed=42)
        rep = m4_bound_sample(
            cfg, IMultiplierSpec(0.5, -0.74), ModelParams(eps, alpha), 10_000
        )
        assert abs(rep["slope"]) <= 0.1

    def test_max_stable_under_more_samples(self):
        cfg = DyadicConfig(n1_ladder=(32.0, 64.0), ratios=(1.0, 0.75, 0.5), seed=7)
        spec = IMultiplierSpec(0.5, -0.74)
        small = m4_bound_sample(cfg, spec, ModelParams(0.0, 0.5), 10_000)
        large = m4_bound_sample(cfg, spec, ModelParams(0.0, 0.5), 100_000)
        assert max(large["max_ratios"]) == pytest.approx(max(small["max_ratios"]), rel=0.2)

    @pytest.mark.parametrize("eps,alpha", [(0.0, 0.5), (1.0, 1.0)])
    def test_block_size_leaves_the_report_unchanged(self, monkeypatch, eps, alpha):
        # 10,000 samples from 40,000 draws: several blocks and a partial one
        cfg = DyadicConfig(n1_ladder=self.LADDER, ratios=(1.0, 0.75, 0.5), seed=42)
        args = (cfg, IMultiplierSpec(0.5, -0.74), ModelParams(eps, alpha), 10_000)
        whole = m4_bound_sample(*args)
        monkeypatch.setattr(imethod, "M4_BLOCK", 3_000)
        assert m4_bound_sample(*args) == whole

    def test_ratio_is_sigma4_over_its_envelope(self, monkeypatch):
        # one tuple per annulus, so each max ratio is |sigma4| prod (N + |xi_i|)
        # over m^2 of the least of |xi_i| and the pair sums -4, -4.5, -5.5: 1.5
        xs = slots(-7.0, 3.0, 2.5, 1.5)
        monkeypatch.setattr(imethod, "_sample_annulus_tuples", lambda *args: iter([xs]))
        spec, params = IMultiplierSpec(0.5, -0.74), ModelParams(0.0, 0.5)
        rep = m4_bound_sample(DyadicConfig(n1_ladder=(16.0, 32.0)), spec, params, 10_000)
        sigma4 = abs(sigma4_values(xs, spec, params)[0][0])
        want = sigma4 * (7.5 * 3.5 * 3.0 * 2.0) / m_weight(1.5, spec) ** 2
        assert rep["max_ratios"] == pytest.approx([want, want], rel=1e-12)

    def test_sample_floor_enforced(self):
        cfg = DyadicConfig(n1_ladder=(16.0, 32.0), seed=0)
        # a float count, integral or not, is refused by name before any draw
        for n_samples in (100, 1e4, 10000.5, np.float64(2e4)):
            with pytest.raises(ParameterError, match="1e4"):
                m4_bound_sample(cfg, SPEC, PARAMS, n_samples)

    @pytest.mark.parametrize("top", [np.nan, np.inf])
    def test_non_finite_ladder_entry_rejected(self, top):
        with pytest.raises(ParameterError, match="n1_ladder"):
            DyadicConfig(n1_ladder=(16.0, top))

    @pytest.mark.parametrize("seed", [-1, 2.5, True, 2**64])
    def test_seed_outside_the_cli_range_rejected(self, seed):
        with pytest.raises(ParameterError, match="seed"):
            DyadicConfig(n1_ladder=(16.0, 32.0), seed=seed)

    def test_unrealizable_config_rejected(self):
        with pytest.raises(ParameterError, match="unrealizable"):
            DyadicConfig(n1_ladder=(16.0, 32.0), ratios=(0.3, 0.1, 0.05))
        # a sum of exactly 1/2 puts |xi_1| >= N1 on a set of probability zero
        with pytest.raises(ParameterError, match="unrealizable"):
            DyadicConfig(n1_ladder=(16.0, 32.0), ratios=(0.25, 0.125, 0.125))

    def test_draw_law(self):
        n1, ratios, count = 16.0, (1.0, 0.75, 0.5), 100_000
        rng = np.random.default_rng(5)
        xs = np.hstack(list(imethod._sample_annulus_tuples(rng, n1, ratios, count)))
        assert xs.shape == (4, count)
        for x, n in zip(xs, (n1, *(n1 * r for r in ratios))):
            assert np.all((np.abs(x) >= n) & (np.abs(x) <= 2 * n))
        np.testing.assert_array_equal(xs[0], -(xs[1] + xs[2] + xs[3]))
        # the law is even under xi -> -xi, so every slot's sign is fair
        for x in xs:
            assert abs(np.mean(x > 0) - 0.5) <= 5 * np.sqrt(0.25 / count)

    def test_draws_on_a_vanishing_pair_sum_are_dropped(self, monkeypatch):
        # the stub's first draw of each batch gives xi_2..4 = (1.5, -1.5, 1.25),
        # so xi_1 = -1.25 and xi_1 + xi_4 = xi_2 + xi_3 = 0 exactly
        monkeypatch.setattr(imethod, "_uniform_blocks", stub_uniform_blocks)
        rng = np.random.default_rng(3)
        blocks = imethod._sample_annulus_tuples(rng, 1.0, (1.0, 1.0, 1.0), 200)
        xs = np.hstack(list(blocks))
        assert xs.shape == (4, 200)
        assert not np.any(np.all(xs.T == (-1.25, 1.5, -1.5, 1.25), axis=1))
        floor = 1e-9 * np.max(np.abs(xs), axis=0)
        for i, j in itertools.combinations(range(4), 2):
            assert np.all(np.abs(xs[i] + xs[j]) > floor)

    def test_draw_budget_leaves_the_report_unchanged(self, monkeypatch):
        # criterion 08's annuli keep about 30% of 4 * count draws in one batch
        cfg = DyadicConfig(n1_ladder=self.LADDER, ratios=(1.0, 0.75, 0.5), seed=42)
        args = (cfg, IMultiplierSpec(0.5, -0.74), ModelParams(0.0, 0.5), 10_000)
        whole = m4_bound_sample(*args)
        monkeypatch.setattr(imethod, "MAX_DRAWS_PER_SAMPLE", 4)
        assert m4_bound_sample(*args) == whole

    def test_blocks_bound_the_memory_of_the_draws(self, monkeypatch):
        # 10,000 samples draw one batch of 3 x 40,000 doubles, 960,000 bytes
        # drawn whole; drawn a block at a time it holds a small part of that
        monkeypatch.setattr(imethod, "M4_BLOCK", 1_000)
        rng = np.random.default_rng(42)
        tracemalloc.start()
        try:
            blocks = imethod._sample_annulus_tuples(rng, 16.0, (1.0, 0.75, 0.5), 10_000)
            kept = sum(xs.shape[1] for xs in blocks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept == 10_000
        assert peak < 480_000

    @pytest.mark.parametrize("batch", [1024, 40_000, imethod.M4_BLOCK, imethod.M4_BLOCK + 1])
    def test_blocks_are_the_whole_draw(self, batch):
        # a batch that fits one block is the draw itself; a larger one is cut
        # into blocks of it; either way the generator is left past the draw
        rng, whole = np.random.default_rng(11), np.random.default_rng(11)
        blocks = list(imethod._uniform_blocks(rng, batch))
        assert len(blocks) == -(-batch // imethod.M4_BLOCK)
        assert_same_bits(np.hstack(blocks), whole.uniform(-1.0, 1.0, size=(3, batch)))
        assert_same_bits(rng.uniform(-1.0, 1.0, 8), whole.uniform(-1.0, 1.0, 8))


# Pre-rewrite oracles: the kernels as they were before each slot's terms were
# shared across the pairings, the quotient zeroed in place and the rejection
# taken as one running minimum.  Every rewritten path must reproduce them bit for
# bit; the rtol tests above check the mathematics, these check the refactoring.


def oracle_quotient(num, den):
    small = np.abs(den) <= 1e-30
    values = np.where(small, 0.0, -num / np.where(small, 1.0, den))
    return values, small & (np.abs(num) > 1e-30)


def oracle_m3(xs, spec):
    x1, x2, x3 = xs
    msq = [m_weight(x, spec) ** 2 for x in xs]
    return 1j * (msq[0] * x1 + msq[1] * x2 + msq[2] * x3)


def oracle_beta(xs, alpha):
    return sum(np.abs(x) ** (2 * alpha) for x in xs)


def oracle_sigma3(xs, spec, params, sign="+"):
    x1, x2, x3 = xs
    h3 = 3j * np.asarray(x1) * np.asarray(x2) * np.asarray(x3)
    eps_term = params.epsilon * oracle_beta(xs, params.alpha)
    den = h3 - eps_term if sign == "+" else h3 + eps_term
    return oracle_quotient(oracle_m3(xs, spec), den)


def oracle_pair_symmetrized(xs, inner, prefactor):
    # each pairing recomputes the terms of all three of its slots
    k = len(xs)
    total = 0.0
    resonant = np.zeros(np.broadcast(*xs).shape, dtype=bool)
    kept_slots = list(itertools.combinations(range(k), k - 2))
    for kept in kept_slots:
        c, d = (i for i in range(k) if i not in kept)
        pair = xs[c] + xs[d]
        vals, res = inner((*(xs[i] for i in kept), pair))
        total = total + vals * pair
        resonant |= res
    return (prefactor / len(kept_slots)) * total, resonant


def oracle_m4(xs, spec, params):
    return oracle_pair_symmetrized(xs, lambda ys: oracle_sigma3(ys, spec, params), -1.5j)


def oracle_sigma4(xs, spec, params):
    x1, x2, x3, x4 = xs
    num, resonant = oracle_m4(xs, spec, params)
    den = 3j * (x1 + x2) * (x1 + x3) * (x1 + x4) - params.epsilon * oracle_beta(
        xs, params.alpha
    )
    values, res4 = oracle_quotient(num, den)
    return values, resonant | res4


def oracle_m5(xs, spec, params):
    return oracle_pair_symmetrized(xs, lambda ys: oracle_sigma4(ys, spec, params), -2j)


def stub_uniform_blocks(rng, batch):
    """``imethod._uniform_blocks`` with the first draw of each batch set to
    (0.5, -0.5, 0.25), which on unit annuli lands on a vanishing pair sum."""
    draws = rng.uniform(-1.0, 1.0, size=(3, batch))
    draws[:, 0] = (0.5, -0.5, 0.25)
    for start in range(0, batch, imethod.M4_BLOCK):
        yield draws[:, start : start + imethod.M4_BLOCK]


def oracle_annulus_tuples(rng, n1, ratios, count, block):
    """The sampler's blocks, compressed after a vstack of every draw and filtered
    by ten comparisons joined with logical_and.reduce."""
    mags = np.array([n1 * r for r in ratios])[:, None]
    needed = count
    while needed > 0:
        batch = max(4 * needed, 1024)
        draws = rng.uniform(-1.0, 1.0, size=(3, batch))
        for start in range(0, batch, block):
            u = draws[:, start : start + block]
            x234 = np.copysign(1.0 + np.abs(u), u) * mags
            x1 = -np.sum(x234, axis=0)
            in_annulus = (np.abs(x1) >= n1) & (np.abs(x1) <= 2 * n1)
            xs = np.compress(in_annulus, np.vstack([x1, x234]), axis=1)
            floor = 1e-9 * np.max(np.abs(xs), axis=0)
            sums = [*xs, *(xs[i] + xs[j] for i, j in itertools.combinations(range(4), 2))]
            ok = np.logical_and.reduce([np.abs(v) > floor for v in sums])
            kept = np.compress(ok, xs, axis=1)[:, :needed]
            needed -= kept.shape[1]
            if kept.size:
                yield kept
            if needed == 0:
                break


def assert_same_bits(got, want):
    """Equal dtype, shape and bytes: a signed zero or a NaN payload counts."""
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def lattice_axes(k, half=5, dxi=0.75):
    """lambda_k-style slots: k - 1 free frequency ranges on their own broadcast
    axes and the dependent last slot."""
    axes = [
        np.reshape(np.arange(-half, half) * dxi, [-1 if j == i else 1 for j in range(k - 1)])
        for i in range(k - 1)
    ]
    return (*axes, -sum(axes))


class TestBitForBitOracles:
    PARAMS = [(0.0, 0.5), (1e-3, 1.0), (0.5, 0.3), (1.0, 1.0)]

    def kernels(self, eps, alpha):
        p = ModelParams(eps, alpha)
        return {
            3: [
                (lambda xs: (m3_values(xs, SPEC),), lambda xs: (oracle_m3(xs, SPEC),)),
                (lambda xs: sigma3_values(xs, SPEC, p), lambda xs: oracle_sigma3(xs, SPEC, p)),
                (lambda xs: (beta_values(xs, alpha),), lambda xs: (oracle_beta(xs, alpha),)),
            ],
            4: [
                (lambda xs: m4_values(xs, SPEC, p), lambda xs: oracle_m4(xs, SPEC, p)),
                (lambda xs: sigma4_values(xs, SPEC, p), lambda xs: oracle_sigma4(xs, SPEC, p)),
            ],
            5: [(lambda xs: m5_values(xs, SPEC, p), lambda xs: oracle_m5(xs, SPEC, p))],
        }

    def check(self, eps, alpha, k, xs):
        for kernel, oracle in self.kernels(eps, alpha)[k]:
            for got, want in zip(kernel(xs), oracle(xs), strict=True):
                assert_same_bits(got, want)

    @pytest.mark.parametrize("eps,alpha", PARAMS)
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_random_tuples(self, eps, alpha, k):
        rng = np.random.default_rng(100 + k)
        self.check(eps, alpha, k, random_tuples(rng, k, 64, scale=12.0))

    @pytest.mark.parametrize("eps,alpha", PARAMS)
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_broadcast_slot_axes(self, eps, alpha, k):
        self.check(eps, alpha, k, lattice_axes(k, half=5 if k < 5 else 3))

    @pytest.mark.parametrize("k,xs", [
        (3, slots(0.0, 2.0, -2.0)),  # 0/0
        (3, slots(1e-12, 2e-12, -3e-12)),  # x/0
        (4, slots(3.0, -3.0, 2.0, -2.0)),  # 0/0 in every pairing
        (4, slots(1e-12, 2e-12, -0.5e-12, -2.5e-12)),  # x/0
        (5, slots(3.0, -3.0, 2.0, -2.0, 0.0)),
    ])
    def test_resonant_tuples_without_dissipation(self, k, xs):
        self.check(0.0, 1.0, k, xs)

    @pytest.mark.parametrize("eps,alpha", PARAMS[:3])
    def test_sigma3_minus_is_sigma3_at_minus_xi(self, eps, alpha):
        # equal values and masks; not bytes, as the reflection may flip a zero's sign
        p = ModelParams(eps, alpha)
        for xs in (
            random_tuples(np.random.default_rng(103), 3, 64, scale=12.0),
            lattice_axes(3),
            slots(0.0, 2.0, -2.0),
            slots(1e-12, 2e-12, -3e-12),
        ):
            got = sigma3_values([-x for x in xs], SPEC, p)
            for got_part, want_part in zip(got, oracle_sigma3(xs, SPEC, p, sign="-"), strict=True):
                np.testing.assert_array_equal(got_part, want_part, strict=True)

    def test_resonant_tuples_set_the_mask(self):
        # the x/0 tuple above must exercise the mask, or the check is vacuous
        p0 = ModelParams(0.0, 1.0)
        _, resonant = sigma4_values(slots(1e-12, 2e-12, -0.5e-12, -2.5e-12), SPEC, p0)
        assert resonant.all()

    @pytest.mark.parametrize("block", [None, 3_000])
    def test_sampler_blocks_on_criterion_08_annuli(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(imethod, "M4_BLOCK", block)
        ladder, ratios = tuple(float(2**j) for j in range(4, 11)), (1.0, 0.75, 0.5)
        new, old = np.random.default_rng(42), np.random.default_rng(42)
        for n1 in ladder:
            got = list(imethod._sample_annulus_tuples(new, n1, ratios, 10_000))
            want = list(oracle_annulus_tuples(old, n1, ratios, 10_000, imethod.M4_BLOCK))
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert_same_bits(a, b)

    def test_sampler_blocks_with_stub_draws(self, monkeypatch):
        # the stub's first draw of each batch lands on a vanishing pair sum
        monkeypatch.setattr(imethod, "_uniform_blocks", stub_uniform_blocks)

        def stub(seed):
            rng = np.random.default_rng(seed)

            class Stub:
                def uniform(self, low, high, size):
                    draws = rng.uniform(low, high, size)
                    draws[:, 0] = (0.5, -0.5, 0.25)
                    return draws

            return Stub()

        rng = np.random.default_rng(3)
        got = list(imethod._sample_annulus_tuples(rng, 1.0, (1.0, 1.0, 1.0), 200))
        want = list(oracle_annulus_tuples(stub(3), 1.0, (1.0, 1.0, 1.0), 200, imethod.M4_BLOCK))
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_same_bits(a, b)


class TestLambdaK:
    def make_field(self, grid, seed=12):
        rng = np.random.default_rng(seed)
        return dealias(
            forward_transform(RealField(rng.standard_normal(grid.modes), grid))
        )

    def test_parseval(self):
        grid = GridSpec(box_length=11.0, modes=32)
        u = self.make_field(grid)
        val = lambda_k(lambda a, b: np.ones(np.broadcast(a, b).shape), [u, u])
        assert val.real == pytest.approx(u.l2_norm() ** 2, rel=1e-12)
        assert abs(val.imag) <= 1e-12

    def test_weighted_quadratic_matches_modified_energy(self):
        grid = GridSpec(box_length=11.0, modes=32)
        u = self.make_field(grid)
        val = lambda_k(
            lambda a, b: m_weight(a, SPEC) * m_weight(b, SPEC), [u, u]
        )
        assert val.real == pytest.approx(modified_energy(2, u, SPEC, PARAMS), rel=1e-12)

    def test_cubic_against_direct_enumeration(self):
        grid = GridSpec(box_length=2 * np.pi, modes=8)
        rng = np.random.default_rng(13)
        coeffs = np.zeros(8, dtype=complex)
        for k in (1, 2, 3):
            coeffs[k] = rng.standard_normal() + 1j * rng.standard_normal()
            coeffs[8 - k] = np.conj(coeffs[k])
        u = SpectralField(coeffs, grid)

        def mult(x1, x2, x3):
            return x1 * x2 + np.cos(x3)

        expected = 0.0 + 0.0j
        lattice = list(range(-4, 4))
        for k1 in lattice:
            for k2 in lattice:
                k3 = -k1 - k2
                if k3 not in lattice:
                    continue
                expected += (
                    mult(float(k1), float(k2), float(k3))
                    * coeffs[k1 % 8]
                    * coeffs[k2 % 8]
                    * coeffs[k3 % 8]
                )
        expected *= grid.box_length**-0.5
        assert lambda_k(mult, [u, u, u]) == pytest.approx(expected, rel=1e-12)

    def test_quintic_against_direct_enumeration(self):
        grid = GridSpec(box_length=7.0, modes=8)
        rng = np.random.default_rng(14)
        fields = []
        for _ in range(5):
            coeffs = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            fields.append(SpectralField(coeffs, grid))
        # zero leading entries exercise the skipped slices of the first field
        fields[0] = SpectralField(np.where(np.arange(8) % 3 == 1, 0.0, fields[0].coeffs), grid)
        dxi = 2.0 * np.pi / grid.box_length

        def mult(x1, x2, x3, x4, x5):
            return x1 * x5 + np.cos(x2 - x3) + 1j * x4

        expected = 0.0 + 0.0j
        lattice = range(-4, 4)
        for ks in itertools.product(lattice, repeat=4):
            k5 = -sum(ks)
            if k5 not in lattice:
                continue
            term = mult(*(k * dxi for k in (*ks, k5)))
            for f, k in zip(fields, (*ks, k5)):
                term *= f.coeffs[k % 8]
            expected += term
        expected *= grid.box_length**-1.5
        assert lambda_k(mult, fields) == pytest.approx(expected, rel=1e-12)

    def test_grid_mismatch_and_size_contract(self):
        a = self.make_field(GridSpec(box_length=11.0, modes=32))
        b = self.make_field(GridSpec(box_length=11.0, modes=64))
        with pytest.raises(ContractViolationError, match="share"):
            lambda_k(lambda x, y: x + y, [a, b])
        big = self.make_field(GridSpec(box_length=11.0, modes=128))
        with pytest.raises(ContractViolationError, match="at most"):
            lambda_k(lambda *xs: xs[0], [big, big, big, big])

    def test_five_linear_holds_one_lead_at_a_time(self):
        # 16^3 lattice points per leading index, about 0.28 MB at peak; the
        # whole 16^4 lattice at once peaks at about 4.3 MB
        u = self.make_field(GridSpec(box_length=11.0, modes=16))
        tracemalloc.start()
        try:
            lambda_k(lambda *xs: np.ones(np.broadcast(*xs).shape), [u] * 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("count", [1, 6])
    def test_field_count_outside_2_to_5_rejected(self, count):
        u = self.make_field(GridSpec(box_length=11.0, modes=8))
        with pytest.raises(ContractViolationError, match="k = 2..5"):
            lambda_k(lambda *xs: xs[0], [u] * count)


class TestModifiedEnergy:
    def test_cutoff_above_nyquist_reduces_to_l2(self):
        grid = GridSpec(box_length=11.0, modes=32)
        rng = np.random.default_rng(14)
        u = dealias(forward_transform(RealField(rng.standard_normal(32), grid)))
        wide = IMultiplierSpec(cutoff_n=1e4, s_exp=-0.5)
        assert modified_energy(2, u, wide, PARAMS) == pytest.approx(
            u.l2_norm() ** 2, rel=1e-14
        )
        assert modified_energy(3, u, wide, PARAMS) == pytest.approx(
            u.l2_norm() ** 2, rel=1e-14
        )

    def test_zero_field(self):
        grid = GridSpec(box_length=11.0, modes=32)
        z = SpectralField(np.zeros(32, complex), grid)
        for order in (2, 3, 4):
            assert modified_energy(order, z, SPEC, PARAMS) == 0.0

    @pytest.mark.parametrize("order", [1, 5])
    def test_order_outside_2_to_4_rejected(self, order):
        z = SpectralField(np.zeros(32, complex), GridSpec(box_length=11.0, modes=32))
        with pytest.raises(ParameterError, match="order must be 2, 3, or 4"):
            modified_energy(order, z, SPEC, PARAMS)

    def test_cubic_correction_controlled_by_smoothed_l2(self):
        # |E3 - E2| <= C ||I u||^3 with one C across amplitudes
        grid = GridSpec(box_length=16.0, modes=48)
        rng = np.random.default_rng(15)
        spec = IMultiplierSpec(cutoff_n=2.0, s_exp=-0.74)
        base = rng.standard_normal(48)
        ratios = []
        for amp in (0.1, 0.4, 1.6):
            u = dealias(forward_transform(RealField(amp * base, grid)))
            e2 = modified_energy(2, u, spec, PARAMS)
            e3 = modified_energy(3, u, spec, PARAMS)
            ratios.append(abs(e3 - e2) / e2**1.5)
        assert max(ratios) <= 3.0 * min(ratios)

    def test_order4_needs_dissipation(self):
        grid = GridSpec(box_length=11.0, modes=32)
        rng = np.random.default_rng(16)
        data = rng.standard_normal(32)
        u = dealias(forward_transform(RealField(data - data.mean(), grid)))
        with pytest.raises(ResonantDenominatorError, match="eps > 0"):
            modified_energy(4, u, SPEC, ModelParams(0.0, 1.0))
        mean_carrying = dealias(forward_transform(RealField(data + 1.0, grid)))
        with pytest.raises(ResonantDenominatorError, match="zero-mode"):
            modified_energy(3, mean_carrying, SPEC, ModelParams(0.0, 1.0))

    def test_zero_mode_at_the_threshold_is_tolerated(self):
        # order 3 at eps = 0 refuses a zero mode above 1e-13 ||u||, not one at it
        grid = GridSpec(box_length=11.0, modes=32)
        rng = np.random.default_rng(18)
        coeffs = dealias(forward_transform(RealField(rng.standard_normal(32), grid))).coeffs
        coeffs = coeffs.copy()
        coeffs[0] = 0.0
        coeffs[0] = 1e-13 * np.linalg.norm(coeffs)
        u = SpectralField(coeffs, grid)
        assert abs(u.coeffs[0]) == 1e-13 * u.l2_norm()
        assert np.isfinite(modified_energy(3, u, SPEC, ModelParams(0.0, 1.0)))

    def test_order4_adds_the_sigma4_functional(self):
        # E_I^4 - E_I^3 = Re Lambda_4(sigma4) on [u] * 4 at eps > 0
        grid = GridSpec(box_length=11.0, modes=32)
        rng = np.random.default_rng(17)
        u = dealias(forward_transform(RealField(rng.standard_normal(32), grid)))
        e3, e4 = (modified_energy(order, u, SPEC, PARAMS) for order in (3, 4))
        quartic = lambda_k(lambda *xs: sigma4_values(xs, SPEC, PARAMS)[0], [u] * 4).real
        # the quartic term is small beside E_I^3 but far above its roundoff
        assert abs(quartic) >= 1e-6 * abs(e3)
        assert e4 - e3 == pytest.approx(quartic, rel=1e-9)

    def test_order4_real_valued(self):
        grid = GridSpec(box_length=11.0, modes=32)
        rng = np.random.default_rng(17)
        u = dealias(forward_transform(RealField(rng.standard_normal(32), grid)))
        value = modified_energy(4, u, SPEC, PARAMS)
        assert np.isfinite(value)


def ledger_trajectory(stride, dt=1e-3, t_final=0.5, modes=128):
    grid = GridSpec(box_length=32.0, modes=modes)
    x = grid.collocation_points()
    vals = np.exp(-(((x - 16.0) / 3.0) ** 2)) * (1.0 + 0.3 * np.cos(x - 16.0))
    vals /= np.sqrt(np.sum(vals**2) * grid.box_length / grid.modes)
    cfg = SolverConfig(
        params=ModelParams(0.3, 0.8), grid=grid, dt=dt, t_final=t_final,
        snapshot_stride=stride,
    )
    return solve(RealField(vals, grid), cfg)


def lattice_flux(coeffs, grid, spec):
    """Lambda_3(M3) of each row of coeffs over the O(M^2) zero-sum lattice."""
    half = grid.modes // 2
    k1, k2 = np.meshgrid(np.arange(-half, half), np.arange(-half, half), indexing="ij")
    k3 = -(k1 + k2)
    valid = (k3 >= -half) & (k3 < half)
    dxi = 2.0 * np.pi / grid.box_length

    def g(k):
        return m_weight(k * dxi, spec) ** 2 * (k * dxi)

    m3 = np.where(valid, 1j * (g(k1) + g(k2) + g(k3)), 0.0)
    k1, k2, k3 = (k % grid.modes for k in (k1, k2, k3))
    return grid.box_length**-0.5 * np.array([np.sum(m3 * c[k1] * c[k2] * c[k3]) for c in coeffs])


class TestM3Flux:
    @pytest.mark.parametrize("modes", [64, 128, 256])
    def test_matches_the_lattice(self, modes):
        # the band reaches |xi| = 2 pi modes / 64, so both cutoffs lie inside it
        grid = GridSpec(box_length=32.0, modes=modes)
        rng = np.random.default_rng(modes)
        coeffs = rng.standard_normal((4, modes)) + 1j * rng.standard_normal((4, modes))
        for cutoff in (1.0, 4.0):
            spec = IMultiplierSpec(cutoff, -0.74)
            expected = lattice_flux(coeffs, grid, spec)
            got = imethod._m3_flux(coeffs, grid, spec)
            np.testing.assert_array_less(np.abs(got - expected), 1e-13 * np.abs(expected))

    def test_vanishes_without_smoothing(self):
        # m = 1 on the whole band: M3 = i (xi_1 + xi_2 + xi_3) = 0 on the lattice
        grid = GridSpec(box_length=32.0, modes=64)
        rng = np.random.default_rng(1)
        coeffs = rng.standard_normal((4, 64)) + 1j * rng.standard_normal((4, 64))
        flux = imethod._m3_flux(coeffs, grid, IMultiplierSpec(100.0, -0.74))
        scale = np.sum(np.abs(coeffs), axis=1) ** 3
        assert np.all(np.abs(flux) <= 1e-15 * scale)


class TestEnergyDerivativeIdentity:
    def test_conservation_limit(self):
        # eps = 0 and cutoff above the grid: both sides collapse to the
        # L2 conservation defect
        grid = GridSpec(box_length=32.0, modes=64)
        x = grid.collocation_points()
        vals = 0.5 * np.exp(-(((x - 16.0) / 3.0) ** 2))
        cfg = SolverConfig(
            params=ModelParams(0.0, 1.0), grid=grid, dt=1e-3, t_final=0.3,
            snapshot_stride=30,
        )
        traj = solve(RealField(vals, grid), cfg)
        wide = IMultiplierSpec(cutoff_n=1e4, s_exp=-0.5)
        assert denergy_identity_residual(traj, wide) <= 1e-8

    def test_linear_only_matches_per_mode_decay(self):
        grid = GridSpec(box_length=32.0, modes=64)
        x = grid.collocation_points()
        vals = np.exp(-(((x - 16.0) / 3.0) ** 2))
        residuals = {}
        for stride in (20, 10):
            cfg = SolverConfig(
                params=ModelParams(0.5, 0.8), grid=grid, dt=1e-3, t_final=0.4,
                snapshot_stride=stride,
            )
            with free_flow():
                traj = solve(RealField(vals, grid), cfg)
            residuals[stride] = denergy_identity_residual(
                traj, IMultiplierSpec(4.0, -0.74)
            )
        assert residuals[20] <= 1e-3
        assert residuals[20] / residuals[10] == pytest.approx(4.0, abs=1.2)

    @staticmethod
    def steps(count: int) -> Trajectory:
        """A Gaussian solved count steps, with a snapshot at each."""
        grid = GridSpec(box_length=32.0, modes=64)
        x = grid.collocation_points()
        cfg = SolverConfig(
            params=ModelParams(0.3, 0.8), grid=grid, dt=1e-3, t_final=count * 1e-3,
            snapshot_stride=1,
        )
        traj = solve(RealField(np.exp(-(((x - 16.0) / 3.0) ** 2)), grid), cfg)
        assert len(traj.times) == count + 1
        return traj

    def test_two_snapshots_rejected(self):
        with pytest.raises(ResolutionError, match="three snapshots"):
            denergy_identity_residual(self.steps(1), IMultiplierSpec(8.0, -0.74))

    def test_three_snapshots_suffice(self):
        residual = denergy_identity_residual(self.steps(2), IMultiplierSpec(8.0, -0.74))
        assert 0 <= residual <= 1e-4

    def test_energy_term_sets_the_scale(self):
        # one mode pair at eps = 0 with m = 1 on the grid: the right-hand side
        # is roundoff, so the residual is max |centered dE/dt| over
        # max E / span, with E = 2 a^2 for amplitude a
        grid = GridSpec(box_length=32.0, modes=64)
        cfg = SolverConfig(ModelParams(0.0, 1.0), grid, dt=0.1, t_final=0.5)
        a = np.array([1.0, 1.1, 0.9, 1.3, 1.2, 1.0])
        coeffs = np.zeros((6, 64), dtype=complex)
        coeffs[:, 3] = coeffs[:, -3] = a
        traj = Trajectory(coeffs, cfg)
        times = traj.times
        energy = 2.0 * a**2
        slopes = (energy[2:] - energy[:-2]) / (times[2:] - times[:-2])
        expected = np.max(np.abs(slopes)) / (np.max(energy) / 0.5)
        wide = IMultiplierSpec(cutoff_n=1e4, s_exp=-0.5)
        assert denergy_identity_residual(traj, wide) == pytest.approx(expected, rel=1e-12)

    def test_flux_term_counts_below_the_cutoff(self):
        # criterion 09's solve at cutoff_n = 0.5, where Lambda_3(M3) is not
        # roundoff: the identity holds to 5.0e-8, while the flux term with its
        # sign flipped leaves a defect of 9.4e-4
        grid = GridSpec(box_length=32.0, modes=128)
        phi = gaussian_initial_data(grid, width=3.0, l2_norm=1.0, modulation=0.3)
        cfg = SolverConfig(ModelParams(0.3, 0.8), grid, dt=1e-3, t_final=0.5, snapshot_stride=10)
        spec = IMultiplierSpec(cutoff_n=0.5, s_exp=-0.74)
        assert denergy_identity_residual(solve(phi, cfg), spec) <= 1e-6

    def test_full_solve_residual_quarters(self):
        spec = IMultiplierSpec(8.0, -0.74)
        coarse = denergy_identity_residual(ledger_trajectory(stride=10), spec)
        fine = denergy_identity_residual(ledger_trajectory(stride=5), spec)
        assert coarse <= 1e-4
        assert coarse / fine == pytest.approx(4.0, abs=1.2)


class TestRearrangement:
    def test_worked_example(self):
        assert rearrangement_check([1, 2], [2, 1]) == (9.0, 8.0)

    def test_equality_when_aligned(self):
        a = [0.5, 1.0, 2.0]
        lhs, rhs = rearrangement_check(a, a)
        assert lhs == rhs

    def test_no_violations_on_random_tuples(self):
        rng = np.random.default_rng(18)
        for _ in range(2000):
            k = int(rng.integers(2, 7))
            a = rng.random(k) * 10
            b = rng.random(k) * 10
            lhs, rhs = rearrangement_check(a, b)
            assert lhs >= rhs - 1e-12 * max(lhs, 1.0)

    def test_negative_rejected(self):
        for a, b in (([1.0, -0.1], [0.0, 1.0]), ([float("nan"), 1.0], [1.0, 2.0])):
            with pytest.raises(ParameterError, match="nonnegative"):
                rearrangement_check(a, b)

    @pytest.mark.parametrize("a,b", [([1.0, 2.0], [1.0]), ([[1.0], [2.0]], [[1.0], [2.0]])])
    def test_unequal_or_non_1d_rejected(self, a, b):
        with pytest.raises(ContractViolationError, match="1-d"):
            rearrangement_check(a, b)

    def test_equals_the_numpy_products(self):
        # the Python products must reproduce numpy's bit for bit
        rng = np.random.default_rng(19)
        scales = 10.0 ** rng.integers(-3, 7, size=(20_000, 2, 1))
        for k, scale in zip(rng.integers(1, 13, size=20_000), scales):
            a, b = rng.random((2, k)) * scale
            assert rearrangement_check(a, b) == (
                float(np.prod(a + b)),
                float(np.prod(np.sort(a) + np.sort(b))),
            )
