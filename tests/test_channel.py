"""AWGN statistics and path-loss behavior."""

import math

import numpy as np
import pytest

from keyedmod.channel import (
    ChannelSpec,
    PathLossModel,
    _noise_fill,
    _scale_noise,
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

    @pytest.mark.parametrize(
        "seed",
        [np.random.default_rng(1), None, True, -1, 1.5, "3"],
        ids=["generator", "none", "bool", "negative", "float", "str"],
    )
    def test_rejects_seed_that_is_not_a_fixed_stream(self, seed):
        # A Generator advances between calls and None draws OS entropy, so
        # two calls with one spec would add different noise.
        with pytest.raises(ValueError, match="rng_seed must be a nonnegative int"):
            ChannelSpec(0.0, rng_seed=seed)

    @pytest.mark.parametrize("value", [True, "10", None, 1j])
    def test_rejects_snr_that_is_not_a_real_number(self, value):
        with pytest.raises(ValueError, match="^es_over_n0_db must be a real number"):
            ChannelSpec(value, rng_seed=1)

    def test_rejects_non_finite_snr(self):
        with pytest.raises(ValueError):
            ChannelSpec(math.inf, rng_seed=0)

    @pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["above", "below"])
    def test_rejects_integer_snr_beyond_float64(self, value):
        with pytest.raises(ValueError, match="^es_over_n0_db must be finite"):
            ChannelSpec(value, rng_seed=0)

    def test_rejects_snr_whose_noise_density_overflows(self):
        with pytest.raises(ValueError, match=r"-4000\.0 dB"):
            ChannelSpec(-4000.0, rng_seed=0)
        ChannelSpec(-3000.0, rng_seed=0)

    def test_noise_density(self):
        assert noise_spectral_density(10.0) == pytest.approx(0.1)
        assert noise_spectral_density(0.0) == 1.0

    def test_noise_density_of_integer_above_float64(self):
        assert noise_spectral_density(10**400) == 0.0

    def test_noise_density_of_integer_below_float64(self):
        # Read as -inf dB; the message names no 401-digit value.
        with pytest.raises(ValueError, match=r"^Es/N0 of -inf dB gives a noise density") as exc:
            noise_spectral_density(-(10**400))
        assert "0000" not in str(exc.value)

    @pytest.mark.parametrize("value", [True, "10", None])
    def test_noise_density_rejects_non_numbers(self, value):
        with pytest.raises(ValueError, match="^es_over_n0_db must be a real number"):
            noise_spectral_density(value)


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

    @pytest.mark.parametrize("d", [math.nan, math.inf, -math.inf, 10**400])
    def test_rejects_non_finite_distance(self, d):
        with pytest.raises(ValueError, match="^distance must be finite"):
            snr_at_distance(PathLossModel(alpha=2.0), d)

    @pytest.mark.parametrize("d", [True, "5", None, 5j])
    def test_rejects_distance_that_is_not_a_real_number(self, d):
        with pytest.raises(ValueError, match="^distance must be a real number"):
            snr_at_distance(PathLossModel(alpha=2.0), d)

    def test_reads_numpy_distances_as_floats(self):
        model = PathLossModel(alpha=2.0, snr_ref_db=20.0)
        assert snr_at_distance(model, np.float32(10.0)) == snr_at_distance(model, 10) == 0.0

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

    @pytest.mark.parametrize("value", [True, False, "2", None, 1j])
    @pytest.mark.parametrize("field", ["alpha", "d_ref", "snr_ref_db"])
    def test_rejects_bools_and_non_numbers(self, field, value):
        with pytest.raises(ValueError, match=f"^path-loss {field} must be a real number"):
            PathLossModel(**{"alpha": 2.0, field: value})

    def test_stores_values_as_python_floats(self):
        # A float32 d_ref would otherwise leak float32 arithmetic into the
        # SNR: -30.45757457426635 dB at 10 m, against -30.45757456046051.
        model = PathLossModel(alpha=2, d_ref=np.float32(0.3), snr_ref_db=np.int64(0))
        assert [type(v) for v in (model.alpha, model.d_ref, model.snr_ref_db)] == [float] * 3
        wide = PathLossModel(alpha=2.0, d_ref=float(np.float32(0.3)))
        assert model == wide
        assert snr_at_distance(model, 10.0).hex() == snr_at_distance(wide, 10.0).hex()


def as_planes(y) -> np.ndarray:
    """A complex array as float64 planes: the real row, then the imaginary row."""
    return np.stack((y.real, y.imag))


#: What the received rows hold before a sweep point writes them: a new
#: buffer, a buffer reused from an earlier block, or the same noise at an
#: earlier sweep point.
STARTS = ("new", "reused", "earlier point")


def sweep_rows(start, sent, spec):
    """``sent`` plus noise, in the sweep's steps, into received rows that begin as ``start``.

    The unit normals are drawn into rows of their own and scaled into the
    received rows, where the sent planes are then added.
    """
    z = np.empty_like(sent)
    _noise_fill(spec.rng_seed, z)
    received = np.empty_like(sent)
    if start == "reused":
        received.fill(np.nan)
    elif start == "earlier point":
        _scale_noise(z, spec.es_over_n0_db - 3.0, out=received)
        received += sent
    _scale_noise(z, spec.es_over_n0_db, out=received)
    received += sent
    return received


class TestPlanes:
    """The fill, scale and sum a sweep runs on float64 rows give ``add_awgn``'s noise."""

    @pytest.mark.parametrize("seed", [0, 1, 2**63 + 5])
    @pytest.mark.parametrize("snr_db", [-10.0, 0.0, 7.5, 30.0])
    def test_two_rows_bit_identical_to_complex_form(self, symbols, seed, snr_db):
        y = symbols[:20_000]
        spec = ChannelSpec(snr_db, rng_seed=seed)
        expected = as_planes(add_awgn(y, spec)).tobytes()
        for start in STARTS:
            got = sweep_rows(start, as_planes(y), spec)
            assert got.shape == (2, y.size) and got.dtype == np.float64, start
            assert got.tobytes() == expected, start

    @pytest.mark.parametrize("seed", [0, 2**63 + 5])
    @pytest.mark.parametrize("snr_db", [-10.0, 30.0])
    def test_one_row_is_the_real_row_of_two(self, symbols, seed, snr_db):
        # The draw order puts the real row first: a fill of one row draws
        # the real-axis noise of a fill of two.
        planes = as_planes(symbols[:20_000])
        spec = ChannelSpec(snr_db, rng_seed=seed)
        one = sweep_rows("new", planes[:1].copy(), spec)
        assert one.tobytes() == sweep_rows("new", planes, spec)[:1].tobytes()

    def test_input_not_mutated(self, symbols):
        # Every receiver of a block, at every sweep point, adds its noise to
        # one sent buffer.
        planes = as_planes(symbols[:100])
        for start in STARTS:
            sweep_rows(start, planes, ChannelSpec(0.0, rng_seed=5))
        assert np.array_equal(planes, as_planes(symbols[:100]))

    def test_empty_planes(self):
        for rows in (1, 2):
            got = sweep_rows("new", np.zeros((rows, 0)), ChannelSpec(3.0, rng_seed=9))
            assert got.shape == (rows, 0)

    @pytest.mark.parametrize(
        "planes",
        [
            np.zeros((3, 8)),
            np.zeros((0, 8)),
            np.zeros((2, 16))[:, ::2],
            np.zeros((2, 8), np.float32),
        ],
        ids=["three-rows", "no-rows", "strided", "float32"],
    )
    def test_rejects_malformed_planes(self, planes):
        # Planes of any shape are not symbols: add_awgn refuses them
        # rather than noise them as complex values on the real axis.
        with pytest.raises(ValueError, match="^symbols must be a complex array"):
            add_awgn(planes, ChannelSpec(0.0, rng_seed=1))
