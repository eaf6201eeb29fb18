"""Modulation, nearest-point decoding, and cross-scheme decoding."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyedmod.constellations import (
    make_keyed_scheme,
    make_standard_scheme,
    random_key,
)
from keyedmod.modem import (
    bits_to_values,
    cross_decode_bits,
    demodulate,
    modulate,
    nearest_point_values,
    values_to_bits,
)
from test_constellations import A, RECT_TABLE

ALL_SCHEMES = ("bpsk", "qpsk", "qam16_rect", "qam16_circ")


def brute_force_rect_decode(point: complex) -> str:
    """Oracle: nearest entry of the stock rectangular table."""
    return min(RECT_TABLE, key=lambda bits: abs(point - RECT_TABLE[bits] * A))


class TestModulate:
    def test_circ_0000(self):
        scheme = make_standard_scheme("qam16_circ")
        (symbol,) = modulate([0, 0, 0, 0], scheme)
        assert symbol == scheme.point_for_value(0b0000)
        assert symbol / ((1.53 - 3.69j) * A) == pytest.approx(1.002001, rel=1e-5)

    def test_circ_0100(self):
        scheme = make_standard_scheme("qam16_circ")
        (symbol,) = modulate([0, 1, 0, 0], scheme)
        assert symbol / ((3.69 - 1.53j) * A) == pytest.approx(1.002001, rel=1e-5)

    def test_empty_stream(self):
        scheme = make_standard_scheme("qam16_circ")
        assert modulate([], scheme).size == 0
        assert demodulate([], scheme).size == 0

    def test_indivisible_length(self):
        scheme = make_standard_scheme("qpsk")
        with pytest.raises(ValueError, match="divisible"):
            modulate([0, 1, 1], scheme)

    def test_rejects_non_binary(self):
        scheme = make_standard_scheme("qpsk")
        with pytest.raises(ValueError, match="0 and 1"):
            modulate([0, 2], scheme)

    def test_msb_first_grouping(self):
        scheme = make_standard_scheme("qam16_rect")
        (symbol,) = modulate([1, 0, 0, 0], scheme)
        assert symbol == scheme.point_for_value(0b1000)

    def test_values_bits_round_trip(self):
        values = np.arange(16)
        assert np.array_equal(bits_to_values(values_to_bits(values, 4), 4), values)


class TestDemodulate:
    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_round_trip_noiseless(self, name):
        scheme = make_standard_scheme(name)
        rng = np.random.default_rng(42)
        bits = rng.integers(0, 2, 240, dtype=np.uint8)
        assert np.array_equal(demodulate(modulate(bits, scheme), scheme), bits)

    @settings(deadline=None, max_examples=60)
    @given(
        name=st.sampled_from(ALL_SCHEMES),
        seed=st.integers(0, 2**32 - 1),
        n_groups=st.integers(0, 64),
        key_seed=st.none() | st.integers(0, 2**32 - 1),
    )
    def test_round_trip_property(self, name, seed, n_groups, key_seed):
        scheme = make_standard_scheme(name)
        if key_seed is not None:
            scheme = make_keyed_scheme(scheme, random_key(scheme.order, key_seed))
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, n_groups * scheme.bits_per_symbol, dtype=np.uint8)
        assert np.array_equal(demodulate(modulate(bits, scheme), scheme), bits)

    def test_circ_point_0110_on_rect(self):
        # Frozen oracle outcome: the two-ring 0110 point decodes to the grid
        # point at -3a+1a*j, whose table label is 0100.
        circ = make_standard_scheme("qam16_circ")
        rect = make_standard_scheme("qam16_rect")
        point = circ.point_for_value(0b0110)
        assert brute_force_rect_decode(point) == "0100"
        assert np.array_equal(demodulate([point], rect), [0, 1, 0, 0])

    def test_circ_point_0101_on_rect(self):
        # Frozen oracle outcome: nearest grid point is 1a-1a*j, label 1111.
        circ = make_standard_scheme("qam16_circ")
        rect = make_standard_scheme("qam16_rect")
        point = circ.point_for_value(0b0101)
        assert brute_force_rect_decode(point) == "1111"
        assert np.array_equal(demodulate([point], rect), [1, 1, 1, 1])

    def test_all_circ_points_on_rect_match_oracle(self):
        circ = make_standard_scheme("qam16_circ")
        rect = make_standard_scheme("qam16_rect")
        for value in range(16):
            point = circ.point_for_value(value)
            expected = [int(b) for b in brute_force_rect_decode(point)]
            assert np.array_equal(demodulate([point], rect), expected), value

    def test_tie_breaks_to_lowest_bit_value(self):
        scheme = make_standard_scheme("bpsk")
        assert np.array_equal(demodulate([0j], scheme), [0])

    def test_rect_nearest_equals_axis_thresholds(self):
        # Dual implementation: for the grid scheme, nearest-point decoding
        # must agree with per-axis thresholds at 0 and +-2a on a million
        # random points.
        rect = make_standard_scheme("qam16_rect")
        rng = np.random.default_rng(777)
        pts = rng.uniform(-1.5, 1.5, 1_000_000) + 1j * rng.uniform(-1.5, 1.5, 1_000_000)
        got = nearest_point_values(pts, rect)

        def axis_level(x):
            return np.select(
                [x < -2 * A, x < 0, x < 2 * A], [-3.0, -1.0, 1.0], default=3.0
            )

        grid = axis_level(pts.real) + 1j * axis_level(pts.imag)
        table = {
            complex(RECT_TABLE[f"{v:04b}"]): v for v in range(16)
        }
        expected = np.array([table[g] for g in grid])
        assert np.array_equal(got, expected)


def assert_prefix_popcount_oracle(rx_name, key_seed):
    """Decode a noisy keyed two-ring stream and check errors against a popcount oracle.

    The oracle decodes symbol by symbol with a brute-force nearest-point
    search and counts ``bin(prefix ^ decoded).count("1")`` per group.
    """
    circ = make_keyed_scheme(make_standard_scheme("qam16_circ"), random_key(16, 4))
    rx_scheme = make_standard_scheme(rx_name)
    rx_scheme = make_keyed_scheme(rx_scheme, random_key(rx_scheme.order, key_seed))
    m_rx = rx_scheme.bits_per_symbol
    rng = np.random.default_rng(key_seed)
    tx = rng.integers(0, 2, 4 * 1500, dtype=np.uint8)
    received = modulate(tx, circ) + rng.normal(0, 0.2, 1500) + 1j * rng.normal(0, 0.2, 1500)
    rx, compared, errors = cross_decode_bits(tx, circ, rx_scheme, received=received)
    expected = 0
    for i, y in enumerate(received):
        sent = int("".join(map(str, tx[4 * i : 4 * i + 4])), 2)
        decoded = min(
            range(rx_scheme.order), key=lambda v: abs(y - rx_scheme.point_for_value(v))
        )
        assert "".join(map(str, rx[m_rx * i : m_rx * i + m_rx])) == f"{decoded:0{m_rx}b}"
        expected += bin((sent >> (4 - m_rx)) ^ decoded).count("1")
    assert compared == 1500 * m_rx
    assert errors == expected > 0


class TestCrossDecode:
    def test_identical_schemes_no_errors(self):
        scheme = make_keyed_scheme(make_standard_scheme("qam16_circ"), random_key(16, 8))
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, 4000, dtype=np.uint8)
        _, compared, errors = cross_decode_bits(bits, scheme, scheme)
        assert compared == 4000 and errors == 0

    def test_worked_stream_circ_to_rect(self):
        # Frozen from the brute-force oracle: 0110 -> 0100 (1 mismatch),
        # 0101 -> 1111 (2 mismatches).
        circ = make_standard_scheme("qam16_circ")
        rect = make_standard_scheme("qam16_rect")
        tx = np.array([0, 1, 1, 0, 0, 1, 0, 1], dtype=np.uint8)
        rx, compared, errors = cross_decode_bits(tx, circ, rect)
        assert "".join(map(str, rx)) == "01001111"
        assert compared == 8
        assert errors == 3
        assert_prefix_popcount_oracle("qam16_rect", key_seed=13)

    def test_circ_to_bpsk_alignment(self):
        circ = make_standard_scheme("qam16_circ")
        bpsk = make_standard_scheme("bpsk")
        tx = np.array([0, 1, 1, 0, 0, 1, 0, 1], dtype=np.uint8)
        rx, compared, errors = cross_decode_bits(tx, circ, bpsk)
        assert rx.size == 2
        assert compared == 2
        assert_prefix_popcount_oracle("bpsk", key_seed=11)

    def test_circ_to_qpsk_prefix_rule(self):
        circ = make_standard_scheme("qam16_circ")
        qpsk = make_standard_scheme("qpsk")
        tx = np.array([0, 1, 1, 0], dtype=np.uint8)
        rx, compared, errors = cross_decode_bits(tx, circ, qpsk)
        # 0110 sits at (-3.69, +1.53)a: negative re, positive im quadrant -> 01.
        assert np.array_equal(rx, [0, 1])
        assert compared == 2 and errors == 0
        assert_prefix_popcount_oracle("qpsk", key_seed=12)

    def test_wider_receiver_rejected(self):
        qpsk = make_standard_scheme("qpsk")
        rect = make_standard_scheme("qam16_rect")
        with pytest.raises(ValueError, match="alignment"):
            cross_decode_bits([0, 1], qpsk, rect)

    def test_received_length_checked(self):
        circ = make_standard_scheme("qam16_circ")
        with pytest.raises(ValueError, match="received symbols"):
            cross_decode_bits([0] * 8, circ, circ, received=np.zeros(3, complex))


def exact_mismatch_rate(scheme_a, scheme_b) -> float:
    """Oracle: expected noiseless cross-decode BER over uniform symbols."""
    m = scheme_a.bits_per_symbol
    total = 0
    for value in range(scheme_a.order):
        point = scheme_a.point_for_value(value)
        decoded = int(nearest_point_values([point], scheme_b)[0])
        total += bin(value ^ decoded).count("1")
    return total / (scheme_a.order * m)


class TestKeyMismatch:
    def test_different_keys_always_differ_somewhere(self):
        base = make_standard_scheme("qam16_rect")
        for seed in range(50):
            k1, k2 = random_key(16, seed), random_key(16, seed + 1000)
            if k1 == k2:
                continue
            s1 = make_keyed_scheme(base, k1)
            s2 = make_keyed_scheme(base, k2)
            mismatched_slots = exact_mismatch_rate(s1, s2) * 64
            assert mismatched_slots >= 1

    def test_empirical_matches_exact_expectation(self):
        base = make_standard_scheme("qam16_rect")
        s1 = make_keyed_scheme(base, random_key(16, 21))
        s2 = make_keyed_scheme(base, random_key(16, 22))
        expected = exact_mismatch_rate(s1, s2)
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, 120_000, dtype=np.uint8)
        _, compared, errors = cross_decode_bits(bits, s1, s2)
        ber = errors / compared
        sigma = math.sqrt(expected * (1 - expected) / compared)
        assert abs(ber - expected) <= 4 * sigma

    def test_ensemble_mean_ber_near_half(self):
        # Averaged over many random key pairs, the exact noiseless mismatch
        # rate concentrates at 1/2 within the binomial-style band.
        base = make_standard_scheme("qam16_rect")
        rates = []
        for seed in range(300):
            s1 = make_keyed_scheme(base, random_key(16, 2 * seed))
            s2 = make_keyed_scheme(base, random_key(16, 2 * seed + 1))
            rates.append(exact_mismatch_rate(s1, s2))
        assert abs(np.mean(rates) - 0.5) <= 0.02
