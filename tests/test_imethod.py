"""Tests for the multiplier calculus, hyperplane functionals, and the
quadratic ledger identity."""

import itertools

import numpy as np
import pytest

from kdvb.errors import (
    ContractViolationError,
    ParameterError,
    ResolutionError,
    ResonantDenominatorError,
)
from kdvb import imethod
from kdvb.evolve import SolverConfig, solve, zero_nonlinearity
from kdvb.imethod import (
    BoundReport,
    DyadicConfig,
    HyperplaneTuple,
    IMultiplierSpec,
    beta_alpha,
    big_m3,
    big_m4,
    big_m5,
    denergy_identity_residual,
    lambda_k,
    m4_bound_sample,
    m_weight,
    m_weight_array,
    modified_energy,
    rearrangement_check,
    resonance_h,
    sigma3,
    sigma4,
    _sigma3_values,
)
from kdvb.propagator import ModelParams
from kdvb.spectral import GridSpec, RealField, SpectralField, dealias, forward_transform

SPEC = IMultiplierSpec(cutoff_n=4.0, s_exp=-0.74)
PARAMS = ModelParams(0.5, 1.0)


def random_tuple(rng, k, scale=6.0):
    x = rng.standard_normal(k - 1) * scale
    return HyperplaneTuple((*x, -x.sum()))


class TestMWeight:
    def test_plateau_and_tail(self):
        assert m_weight(2.0, SPEC) == 1.0
        spec = IMultiplierSpec(4.0, -0.75)
        assert m_weight(16.0, spec) == pytest.approx(4.0**-0.75)

    def test_even(self):
        rng = np.random.default_rng(0)
        for xi in rng.standard_normal(20) * 30:
            assert m_weight(-xi, SPEC) == m_weight(xi, SPEC)

    def test_spec_validation(self):
        with pytest.raises(ParameterError, match="cutoff"):
            IMultiplierSpec(0.0, -0.5)
        with pytest.raises(ParameterError, match="s_exp"):
            IMultiplierSpec(4.0, -0.8)
        with pytest.raises(ParameterError, match="s_exp"):
            IMultiplierSpec(4.0, 0.1)


class TestResonance:
    def test_cubic_sum_example(self):
        assert resonance_h(HyperplaneTuple((1.0, 1.0, -2.0))) == pytest.approx(-6j)

    def test_opposite_pair_cancels(self):
        for a in (0.3, -2.7, 11.0):
            assert resonance_h(HyperplaneTuple((a, -a))) == 0

    def test_factored_forms(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            t3 = random_tuple(rng, 3)
            h = resonance_h(t3)
            factored = 3j * t3.xis[0] * t3.xis[1] * t3.xis[2]
            assert abs(h - factored) <= 1e-10 * max(abs(h), 1.0)
            t4 = random_tuple(rng, 4)
            h4 = resonance_h(t4)
            a = t4.xis
            factored4 = 3j * (a[0] + a[1]) * (a[0] + a[2]) * (a[0] + a[3])
            assert abs(h4 - factored4) <= 1e-10 * max(abs(h4), 1.0)

    def test_beta(self):
        assert beta_alpha(HyperplaneTuple((1.0, 1.0, -2.0)), 1.0) == pytest.approx(6.0)
        assert beta_alpha(HyperplaneTuple((0.0, 0.0, 0.0)), 0.5) == 0.0
        assert beta_alpha(HyperplaneTuple((1.0, -1.0)), 0.5) == pytest.approx(2.0)

    def test_zero_sum_enforced(self):
        with pytest.raises(ContractViolationError, match="sum to zero"):
            HyperplaneTuple((1.0, 2.0, 3.0))
        with pytest.raises(ContractViolationError, match="2..5"):
            HyperplaneTuple((1.0,))


class TestBigM3:
    def test_vanishes_below_cutoff(self):
        assert big_m3(HyperplaneTuple((1.0, 0.5, -1.5)), SPEC) == 0

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        t = random_tuple(rng, 3, scale=9.0)
        vals = [
            big_m3(HyperplaneTuple(tuple(t.xis[i] for i in perm)), SPEC)
            for perm in itertools.permutations(range(3))
        ]
        assert max(abs(v - vals[0]) for v in vals) <= 1e-14 * abs(vals[0])

    def test_balanced_high_pair(self):
        n = SPEC.cutoff_n
        t = HyperplaneTuple((4 * n, -4 * n, 0.0))
        assert big_m3(t, SPEC) == pytest.approx(0.0, abs=1e-14)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            t = random_tuple(rng, 3, scale=10.0)
            direct = 1j * sum(m_weight(x, SPEC) ** 2 * x for x in t.xis)
            assert big_m3(t, SPEC) == pytest.approx(direct, rel=1e-13)


class TestSigma3:
    def test_zero_below_cutoff(self):
        t = HyperplaneTuple((1.0, 0.5, -1.5))
        assert sigma3(t, SPEC, PARAMS) == 0

    def test_signs_coincide_without_dissipation(self):
        p0 = ModelParams(0.0, 1.0)
        t = HyperplaneTuple((2.0, 3.0, -5.0))
        assert sigma3(t, SPEC, p0) == sigma3(t, SPEC, p0, sign="-")

    def test_matches_quotient_oracle(self):
        rng = np.random.default_rng(4)
        p = ModelParams(0.5, 1.0)
        for _ in range(8):
            t = random_tuple(rng, 3, scale=8.0)
            m3 = 1j * sum(m_weight(x, SPEC) ** 2 * x for x in t.xis)
            h3 = 3j * t.xis[0] * t.xis[1] * t.xis[2]
            beta = sum(abs(x) ** 2 for x in t.xis)
            expected = -m3 / (h3 - p.epsilon * beta)
            assert sigma3(t, SPEC, p) == pytest.approx(expected, rel=1e-12)

    def test_resonant_zero_set_rejected(self):
        p0 = ModelParams(0.0, 1.0)
        with pytest.raises(ResonantDenominatorError, match="zero set"):
            sigma3(HyperplaneTuple((0.0, 2.0, -2.0)), SPEC, p0)

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
            plus, _ = _sigma3_values(x1, x2, x3, SPEC, p, sign="+")
            minus, _ = _sigma3_values(x1, x2, x3, SPEC, p, sign="-")
            mags = np.maximum.reduce([np.abs(x1), np.abs(x2), np.abs(x3)])
            mins = np.minimum.reduce([np.abs(x1), np.abs(x2), np.abs(x3)])
            envelope = (
                p.epsilon
                * mags ** (2 * p.alpha)
                * m_weight_array(mins, SPEC) ** 2
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
                    vals, _ = _sigma3_values(x1, x2, x3, SPEC, p)
                    lam_eff = np.minimum.reduce([np.abs(x1), np.abs(x2), np.abs(x3)])
                    mu_eff = np.sort(
                        np.stack([np.abs(x1), np.abs(x2), np.abs(x3)]), axis=0
                    )[1]
                    envelope = m_weight_array(lam_eff, SPEC) ** 2 / mu_eff**2
                    worst = max(worst, float(np.max(np.abs(vals) / envelope)))
        assert worst <= 1.0  # |h3| >= 3 lam mu^2 makes C about 1/3


def brute_force_m4(t, spec, params):
    total = 0.0
    for perm in itertools.permutations(range(4)):
        a, b, c, d = (t.xis[i] for i in perm)
        s3 = sigma3(HyperplaneTuple((a, b, c + d)), spec, params)
        total += s3 * (c + d)
    return -1.5j * total / 24.0


def brute_force_m5(t, spec, params):
    total = 0.0
    for perm in itertools.permutations(range(5)):
        a, b, c, d, e = (t.xis[i] for i in perm)
        s4 = sigma4(HyperplaneTuple((a, b, c, d + e)), spec, params)
        total += s4 * (d + e)
    return -2j * total / 120.0


class TestBigM4:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        t = random_tuple(rng, 4, scale=7.0)
        vals = [
            big_m4(HyperplaneTuple(tuple(t.xis[i] for i in perm)), SPEC, PARAMS)
            for perm in itertools.permutations(range(4))
        ]
        assert max(abs(v - vals[0]) for v in vals) <= 1e-14 * max(abs(vals[0]), 1e-30)

    def test_vanishes_well_below_cutoff(self):
        n = SPEC.cutoff_n
        t = HyperplaneTuple((n / 9, n / 10, -n / 11, -(n / 9 + n / 10 - n / 11)))
        assert big_m4(t, SPEC, PARAMS) == 0

    def test_matches_brute_force_symmetrization(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            t = random_tuple(rng, 4, scale=6.0)
            assert big_m4(t, SPEC, PARAMS) == pytest.approx(
                brute_force_m4(t, SPEC, PARAMS), rel=1e-12
            )

    def test_degenerate_pairing_rejected(self):
        p0 = ModelParams(0.0, 1.0)
        with pytest.raises(ResonantDenominatorError, match="pair"):
            big_m4(HyperplaneTuple((3.0, -3.0, 2.0, -2.0)), SPEC, p0)


class TestSigma4:
    def test_zero_below_cutoff(self):
        n = SPEC.cutoff_n
        t = HyperplaneTuple((n / 9, n / 10, -n / 11, -(n / 9 + n / 10 - n / 11)))
        assert sigma4(t, SPEC, PARAMS) == 0

    def test_quotient_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(6):
            t = random_tuple(rng, 4, scale=8.0)
            m4 = big_m4(t, SPEC, PARAMS)
            h4 = resonance_h(t)
            beta = beta_alpha(t, PARAMS.alpha)
            lhs = abs(sigma4(t, SPEC, PARAMS)) * abs(h4 - PARAMS.epsilon * beta)
            assert lhs == pytest.approx(abs(m4), rel=1e-12)


class TestBigM5:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(10)
        t = random_tuple(rng, 5, scale=5.0)
        base = big_m5(t, SPEC, PARAMS)
        for perm in itertools.islice(itertools.permutations(range(5)), 0, 24, 5):
            v = big_m5(HyperplaneTuple(tuple(t.xis[i] for i in perm)), SPEC, PARAMS)
            assert v == pytest.approx(base, rel=1e-12)

    def test_vanishes_below_cutoff(self):
        n = SPEC.cutoff_n
        xs = (n / 13, n / 17, n / 19, n / 23)
        t = HyperplaneTuple((*xs, -sum(xs)))
        assert abs(big_m5(t, SPEC, PARAMS)) <= 1e-14

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        t = random_tuple(rng, 5, scale=6.0)
        assert big_m5(t, SPEC, PARAMS) == pytest.approx(
            brute_force_m5(t, SPEC, PARAMS), rel=1e-12
        )


class TestM4BoundSampler:
    LADDER = tuple(float(2**j) for j in range(4, 11))

    @pytest.mark.parametrize("eps,alpha", [(0.0, 0.5), (1.0, 1.0)])
    def test_slope_flat(self, eps, alpha):
        cfg = DyadicConfig(n1_ladder=self.LADDER, ratios=(1.0, 0.75, 0.5), seed=42)
        rep = m4_bound_sample(
            cfg, IMultiplierSpec(0.5, -0.74), ModelParams(eps, alpha), 10_000
        )
        assert abs(rep.slope_vs_logn) <= 0.1

    def test_max_stable_under_more_samples(self):
        cfg = DyadicConfig(n1_ladder=(32.0, 64.0), ratios=(1.0, 0.75, 0.5), seed=7)
        spec = IMultiplierSpec(0.5, -0.74)
        small = m4_bound_sample(cfg, spec, ModelParams(0.0, 0.5), 10_000)
        large = m4_bound_sample(cfg, spec, ModelParams(0.0, 0.5), 100_000)
        assert large.max_ratio == pytest.approx(small.max_ratio, rel=0.2)

    @pytest.mark.parametrize("eps,alpha", [(0.0, 0.5), (1.0, 1.0)])
    def test_block_size_leaves_the_report_unchanged(self, monkeypatch, eps, alpha):
        # 10,000 samples from 40,000 draws: several blocks and a partial one
        cfg = DyadicConfig(n1_ladder=self.LADDER, ratios=(1.0, 0.75, 0.5), seed=42)
        args = (cfg, IMultiplierSpec(0.5, -0.74), ModelParams(eps, alpha), 10_000)
        whole = m4_bound_sample(*args)
        monkeypatch.setattr(imethod, "M4_BLOCK", 3_000)
        assert m4_bound_sample(*args) == whole

    def test_sample_floor_enforced(self):
        cfg = DyadicConfig(n1_ladder=(16.0, 32.0), seed=0)
        with pytest.raises(ParameterError, match="1e4"):
            m4_bound_sample(cfg, SPEC, PARAMS, 100)
        with pytest.raises(ParameterError, match="samples"):
            BoundReport("c", 10, 1.0, 0.0, (1.0, 2.0), (1.0, 1.0), 0)

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

    def test_draw_budget_leaves_the_report_unchanged(self, monkeypatch):
        # criterion 08's annuli keep about 30% of 4 * count draws in one batch
        cfg = DyadicConfig(n1_ladder=self.LADDER, ratios=(1.0, 0.75, 0.5), seed=42)
        args = (cfg, IMultiplierSpec(0.5, -0.74), ModelParams(0.0, 0.5), 10_000)
        whole = m4_bound_sample(*args)
        monkeypatch.setattr(imethod, "MAX_DRAWS_PER_SAMPLE", 4)
        assert m4_bound_sample(*args) == whole


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
            lambda a, b: m_weight_array(a, SPEC) * m_weight_array(b, SPEC), [u, u]
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
        return m_weight_array(k * dxi, spec) ** 2 * (k * dxi)

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
            traj = solve(RealField(vals, grid), cfg, nonlinearity=zero_nonlinearity)
            residuals[stride] = denergy_identity_residual(
                traj, IMultiplierSpec(4.0, -0.74)
            )
        assert residuals[20] <= 1e-3
        assert residuals[20] / residuals[10] == pytest.approx(4.0, abs=1.2)

    def test_two_snapshots_rejected(self):
        grid = GridSpec(box_length=32.0, modes=64)
        x = grid.collocation_points()
        cfg = SolverConfig(
            params=ModelParams(0.3, 0.8), grid=grid, dt=1e-3, t_final=1e-3,
            snapshot_stride=1,
        )
        traj = solve(RealField(np.exp(-(((x - 16.0) / 3.0) ** 2)), grid), cfg)
        assert len(traj.states) == 2
        with pytest.raises(ResolutionError, match="three snapshots"):
            denergy_identity_residual(traj, IMultiplierSpec(8.0, -0.74))

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
        with pytest.raises(ParameterError, match="nonnegative"):
            rearrangement_check([1.0, -0.1], [0.0, 1.0])

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
