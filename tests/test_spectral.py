"""Tests for the periodic spectral core: transforms, symbols, dealiasing."""

import io

import numpy as np
import pytest

from kdvb.errors import ContractViolationError, ParameterError
from kdvb.experiments import gaussian_initial_data
from kdvb.spectral import (
    MAX_MODES,
    GridSpec,
    RealField,
    SpectralField,
    dealias,
    forward_transform,
    fractional_dissipation,
    hermitian_residual,
    inverse_transform,
    read_snapshot,
    resize_band,
    spatial_derivative,
    write_snapshot,
)


def random_field(grid: GridSpec, seed: int = 0) -> RealField:
    rng = np.random.default_rng(seed)
    return RealField(rng.standard_normal(grid.modes), grid)


class TestGridSpec:
    def test_wavenumbers_layout(self):
        grid = GridSpec(box_length=2 * np.pi, modes=8)
        assert np.array_equal(grid.integer_wavenumbers(), [0, 1, 2, 3, -4, -3, -2, -1])
        assert np.allclose(grid.wavenumbers(), grid.integer_wavenumbers().astype(float))

    def test_validation(self):
        with pytest.raises(ParameterError, match="even"):
            GridSpec(box_length=1.0, modes=9)
        with pytest.raises(ParameterError, match=">= 8"):
            GridSpec(box_length=1.0, modes=4)
        with pytest.raises(ParameterError, match="positive"):
            GridSpec(box_length=-1.0, modes=16)
        with pytest.raises(ParameterError, match="dealias"):
            GridSpec(box_length=1.0, modes=16, dealias_fraction=1.5)

    def test_grids_compare_by_value(self):
        assert GridSpec(16.0, 64) == GridSpec(16.0, 64)
        assert len({GridSpec(16.0, 64), GridSpec(16.0, 64)}) == 1
        assert GridSpec(16.0, 64) != GridSpec(16.0, 64, dealias_fraction=0.5)
        assert GridSpec(16.0, 64) != GridSpec(16.0, 128)

    @pytest.mark.parametrize("box_length", [float("inf"), float("nan"), 1e-300, 5e-324])
    def test_box_length_the_symbol_cannot_represent(self, box_length):
        with pytest.raises(ParameterError, match="box_length"):
            GridSpec(box_length=box_length, modes=64)

    def test_modes_capped(self):
        assert GridSpec(box_length=1.0, modes=MAX_MODES).modes == MAX_MODES
        with pytest.raises(ParameterError, match=str(MAX_MODES)):
            GridSpec(box_length=1.0, modes=MAX_MODES + 2)

    def test_dealias_mask_cutoff(self):
        grid = GridSpec(box_length=1.0, modes=64)
        mask = grid.dealias_mask()
        k = grid.integer_wavenumbers()
        assert np.all(mask[np.abs(k) <= 21])
        assert not np.any(mask[np.abs(k) > 21])


class TestTransforms:
    @pytest.mark.parametrize("modes", [8, 32, 256, 1024, 4096])
    def test_round_trip(self, modes):
        grid = GridSpec(box_length=13.7, modes=modes)
        f = random_field(grid, seed=modes)
        back = inverse_transform(forward_transform(f))
        rel = np.linalg.norm(back.values - f.values) / np.linalg.norm(f.values)
        assert rel <= 1e-12

    def test_dc_mode(self):
        grid = GridSpec(box_length=5.0, modes=16)
        u = forward_transform(RealField(np.ones(16), grid))
        assert u.coeffs[0] == pytest.approx(np.sqrt(5.0))
        assert np.max(np.abs(u.coeffs[1:])) <= 1e-14

    def test_single_sine_mode(self):
        grid = GridSpec(box_length=10.0, modes=32)
        x = grid.collocation_points()
        u = forward_transform(RealField(np.sin(2 * np.pi * x / 10.0), grid))
        nonzero = np.flatnonzero(np.abs(u.coeffs) > 1e-12)
        assert sorted(nonzero) == [1, 31]
        assert u.coeffs[31] == pytest.approx(np.conj(u.coeffs[1]))

    @pytest.mark.parametrize("modes", [8, 64, 512])
    def test_parseval(self, modes):
        grid = GridSpec(box_length=7.3, modes=modes)
        f = random_field(grid, seed=modes + 1)
        u = forward_transform(f)
        collocation = np.sum(f.values**2) * grid.box_length / grid.modes
        spectral = np.sum(np.abs(u.coeffs) ** 2)
        assert spectral == pytest.approx(collocation, rel=1e-12)

    def test_length_mismatch_rejected(self):
        grid = GridSpec(box_length=1.0, modes=16)
        with pytest.raises(ContractViolationError, match="does not match"):
            RealField(np.zeros(8), grid)
        with pytest.raises(ContractViolationError, match="does not match"):
            SpectralField(np.zeros(8, dtype=complex), grid)


class TestDerivative:
    def test_sine_first_and_third(self):
        grid = GridSpec(box_length=2 * np.pi, modes=64)
        x = grid.collocation_points()
        u = forward_transform(RealField(np.sin(x), grid))
        d1 = inverse_transform(spatial_derivative(u, 1))
        assert np.allclose(d1.values, np.cos(x), atol=1e-12)
        d3 = inverse_transform(spatial_derivative(u, 3))
        assert np.allclose(d3.values, -np.cos(x), atol=1e-11)

    def test_composition_matches_second_order(self):
        grid = GridSpec(box_length=4.0, modes=128)
        u = dealias(forward_transform(random_field(grid, seed=3)))
        twice = spatial_derivative(spatial_derivative(u, 1), 1)
        once = spatial_derivative(u, 2)
        rel = np.linalg.norm(twice.coeffs - once.coeffs) / np.linalg.norm(once.coeffs)
        assert rel <= 1e-12

    def test_order_validated(self):
        grid = GridSpec(box_length=1.0, modes=16)
        u = forward_transform(random_field(grid))
        with pytest.raises(ParameterError, match="order"):
            spatial_derivative(u, 4)


class TestFractionalDissipation:
    def test_alpha_one_is_negative_second_derivative(self):
        grid = GridSpec(box_length=3.0, modes=64)
        u = dealias(forward_transform(random_field(grid, seed=5)))
        a = fractional_dissipation(u, 1.0)
        b = spatial_derivative(u, 2)
        assert np.allclose(a.coeffs, -b.coeffs, atol=1e-12 * np.max(np.abs(a.coeffs)))

    def test_alpha_one_matches_hilbert_magnitude_square(self):
        # |d_x|^2 assembled from a first derivative followed by the
        # magnitude symbol -i sign(xi)
        grid = GridSpec(box_length=3.0, modes=64)
        u = dealias(forward_transform(random_field(grid, seed=6)))
        xi = grid.wavenumbers()
        first = spatial_derivative(u, 1)
        magnitude = SpectralField(-1j * np.sign(xi) * first.coeffs, grid)
        twice = SpectralField(
            -1j * np.sign(xi) * spatial_derivative(magnitude, 1).coeffs, grid
        )
        direct = fractional_dissipation(u, 1.0)
        assert np.allclose(twice.coeffs, direct.coeffs, atol=1e-12)

    def test_constant_killed(self):
        grid = GridSpec(box_length=1.0, modes=16)
        u = forward_transform(RealField(np.full(16, 2.5), grid))
        out = fractional_dissipation(u, 0.7)
        assert np.max(np.abs(out.coeffs)) == 0.0

    def test_alpha_half_on_unit_mode(self):
        grid = GridSpec(box_length=2 * np.pi, modes=32)
        x = grid.collocation_points()
        u = forward_transform(RealField(np.sin(x), grid))
        out = inverse_transform(fractional_dissipation(u, 0.5))
        assert np.allclose(out.values, np.sin(x), atol=1e-12)

    def test_alpha_range(self):
        grid = GridSpec(box_length=1.0, modes=16)
        u = forward_transform(random_field(grid))
        with pytest.raises(ParameterError, match="alpha"):
            fractional_dissipation(u, 0.0)
        with pytest.raises(ParameterError, match="alpha"):
            fractional_dissipation(u, 1.2)


class TestDealias:
    def test_definition_and_idempotence(self):
        grid = GridSpec(box_length=1.0, modes=64)
        rng = np.random.default_rng(7)
        full = SpectralField(
            rng.standard_normal(64) + 1j * rng.standard_normal(64), grid
        )
        cut = dealias(full)
        k = grid.integer_wavenumbers()
        assert np.all(cut.coeffs[np.abs(k) > 21] == 0)
        assert np.array_equal(cut.coeffs[np.abs(k) <= 21], full.coeffs[np.abs(k) <= 21])
        again = dealias(cut)
        assert np.array_equal(again.coeffs, cut.coeffs)

    def test_hermitian_preserved_by_module_operations(self):
        grid = GridSpec(box_length=9.0, modes=128)
        u = forward_transform(random_field(grid, seed=8))
        for out in (
            dealias(u),
            spatial_derivative(dealias(u), 1),
            spatial_derivative(dealias(u), 3),
            fractional_dissipation(u, 0.6),
        ):
            assert hermitian_residual(out) <= 1e-13


class TestResizeBand:
    def test_band_embedding_round_trip(self):
        grid = GridSpec(box_length=16.0, modes=64)
        u = forward_transform(gaussian_initial_data(grid, width=1.5, l2_norm=1.0))
        fine = resize_band(u.coeffs, 128) * 0.5**1.5
        back = resize_band(fine, 64) * 0.5**-1.5
        assert np.allclose(back, u.coeffs, rtol=0, atol=1e-15)

    def test_pads_above_band_and_truncates_to_it(self):
        c = np.arange(1.0, 9.0) + 0j  # FFT order: k = 0..3, -4..-1
        padded = resize_band(c, 16)
        assert np.array_equal(padded[:4], c[:4])
        assert np.array_equal(padded[12:], c[4:])
        assert np.all(padded[4:12] == 0)
        assert np.array_equal(resize_band(padded, 8), c)


class TestSnapshotFormat:
    def test_round_trip(self):
        grid = GridSpec(box_length=6.0, modes=32)
        f = random_field(grid, seed=9)
        buf = io.BytesIO()
        write_snapshot(buf, f, time=1.25, epsilon=0.3, alpha=0.8)
        buf.seek(0)
        back, header = read_snapshot(buf)
        assert np.array_equal(back.values, f.values)
        assert header["time"] == 1.25
        assert header["epsilon"] == 0.3
        assert header["alpha"] == 0.8
        assert header["modes"] == 32
        assert header["normalization"] == "unitary-l2"

    def test_bad_magic_rejected(self):
        with pytest.raises(ContractViolationError, match="magic"):
            read_snapshot(io.BytesIO(b"NOTMAGIC" + b"\x00" * 16))
