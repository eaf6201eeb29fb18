"""AWGN statistics and path-loss behavior."""

import math

import numpy as np
import pytest

from keyedmod.channel import (
    ChannelSpec,
    PathLossModel,
    add_awgn,
    noise_spectral_density,
    snr_at_distance,
)
from keyedmod.constellations import make_standard_scheme
from keyedmod.modem import modulate


@pytest.fixture(scope="module")
def symbols():
    scheme = make_standard_scheme("qpsk")
    rng = np.random.default_rng(240)
    bits = rng.integers(0, 2, 2_000_000, dtype=np.uint8)
    return modulate(bits, scheme)


class TestAddAwgn:
    def test_vanishing_noise_at_200_db(self, symbols):
        out = add_awgn(symbols[:10_000], ChannelSpec(200.0, rng_seed=1))
        assert np.max(np.abs(out - symbols[:10_000])) < 1e-8

    def test_noise_variance_at_10_db(self, symbols):
        # Per-axis variance must be N0/2 = 0.05 at 10 dB.
        out = add_awgn(symbols, ChannelSpec(10.0, rng_seed=2))
        noise = out - symbols
        assert np.var(noise.real) == pytest.approx(0.05, rel=0.01)
        assert np.var(noise.imag) == pytest.approx(0.05, rel=0.01)

    def test_deterministic_for_fixed_seed(self, symbols):
        spec = ChannelSpec(7.5, rng_seed=123)
        a = add_awgn(symbols[:50_000], spec)
        b = add_awgn(symbols[:50_000], spec)
        assert np.array_equal(a, b)

    def test_seed_changes_stream(self, symbols):
        a = add_awgn(symbols[:1000], ChannelSpec(10.0, rng_seed=1))
        b = add_awgn(symbols[:1000], ChannelSpec(10.0, rng_seed=2))
        assert not np.array_equal(a, b)

    def test_noise_is_zero_mean(self, symbols):
        out = add_awgn(symbols, ChannelSpec(10.0, rng_seed=3))
        noise = out - symbols
        n = noise.size
        bound = 4 * math.sqrt(0.05) / math.sqrt(n)
        assert abs(np.mean(noise.real)) < bound
        assert abs(np.mean(noise.imag)) < bound

    def test_axes_uncorrelated(self, symbols):
        out = add_awgn(symbols, ChannelSpec(10.0, rng_seed=4))
        noise = out - symbols
        corr = np.corrcoef(noise.real, noise.imag)[0, 1]
        assert abs(corr) < 0.005

    def test_input_not_mutated(self, symbols):
        probe = symbols[:100].copy()
        add_awgn(probe, ChannelSpec(0.0, rng_seed=5))
        assert np.array_equal(probe, symbols[:100])

    @pytest.mark.parametrize("seed", [0, 1, 2**63 + 5])
    @pytest.mark.parametrize("snr_db", [-10.0, 0.0, 7.5, 30.0])
    def test_bit_identical_to_two_draw_formula(self, symbols, seed, snr_db):
        y = symbols[:20_000]
        s = math.sqrt(noise_spectral_density(snr_db) / 2.0)
        rng = np.random.default_rng(seed)
        n = y.size
        expected = y + (rng.normal(0, s, n) + 1j * rng.normal(0, s, n))
        assert np.array_equal(add_awgn(y, ChannelSpec(snr_db, rng_seed=seed)), expected)

    @pytest.mark.parametrize("y", [np.complex128(0.5 - 1j), np.zeros(0, complex)])
    def test_scalar_and_empty_inputs(self, y):
        s = math.sqrt(noise_spectral_density(3.0) / 2.0)
        rng = np.random.default_rng(9)
        n = np.size(y)
        expected = y + (rng.normal(0, s, n) + 1j * rng.normal(0, s, n)).reshape(np.shape(y))
        got = add_awgn(y, ChannelSpec(3.0, rng_seed=9))
        assert got.shape == np.shape(y)
        assert np.array_equal(got, expected)

    def test_rejects_non_finite_snr(self):
        with pytest.raises(ValueError):
            ChannelSpec(math.inf, rng_seed=0)

    def test_noise_density(self):
        assert noise_spectral_density(10.0) == pytest.approx(0.1)
        assert noise_spectral_density(0.0) == 1.0


class TestPathLoss:
    def test_reference_distance(self):
        model = PathLossModel(alpha=2.0, d_ref=1.0, snr_ref_db=30.0)
        assert snr_at_distance(model, 1.0) == 30.0

    def test_alpha_two_decade(self):
        model = PathLossModel(alpha=2.0, d_ref=1.0, snr_ref_db=25.0)
        assert snr_at_distance(model, 10.0) == pytest.approx(5.0)

    def test_alpha_14_two_decades(self):
        model = PathLossModel(alpha=1.4, d_ref=1.0, snr_ref_db=0.0)
        assert snr_at_distance(model, 100.0) == pytest.approx(-28.0)

    def test_inside_reference_rejected(self):
        model = PathLossModel(alpha=2.0, d_ref=1.0)
        with pytest.raises(ValueError, match="reference distance"):
            snr_at_distance(model, 0.5)

    def test_monotone_decreasing_in_distance(self):
        model = PathLossModel(alpha=2.0, d_ref=1.0, snr_ref_db=20.0)
        values = [snr_at_distance(model, d) for d in np.linspace(1.0, 200.0, 100)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_monotone_decreasing_in_alpha(self):
        values = [
            snr_at_distance(PathLossModel(alpha=alpha, d_ref=1.0, snr_ref_db=20.0), 50.0)
            for alpha in np.linspace(1.0, 4.0, 31)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PathLossModel(alpha=0.0)
        with pytest.raises(ValueError):
            PathLossModel(alpha=2.0, d_ref=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["alpha", "d_ref", "snr_ref_db"])
    def test_rejects_non_finite_parameters(self, field, value):
        # An infinite alpha or d_ref would otherwise fail only mid-sweep,
        # in snr_at_distance or ChannelSpec.
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            PathLossModel(**{"alpha": 2.0, field: value})
