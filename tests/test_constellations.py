"""Scheme geometry, normalization, and key management."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from keyedmod.constellations import (
    ConstellationScheme,
    MappingKey,
    STANDARD_SCHEME_NAMES,
    make_keyed_scheme,
    make_standard_scheme,
    parse_key,
    random_key,
    serialize_key,
)

A = math.sqrt(1.0 / 10.0)

# Independent transcription of the stock bit-to-point tables, keyed by
# the 4-bit string. Used as the oracle for the packaged geometry.
CIRC_TABLE = {
    "0000": 1.53 - 3.69j, "0001": 0.76 - 1.84j, "0010": -1.53 + 3.69j,
    "0011": -0.76 + 1.84j, "0100": 3.69 - 1.53j, "0101": 1.84 - 0.76j,
    "0110": -3.69 + 1.53j, "0111": -1.84 + 0.76j, "1000": 1.53 + 3.69j,
    "1001": 0.76 + 1.84j, "1010": -1.53 - 3.69j, "1011": -0.76 - 1.84j,
    "1100": 3.69 + 1.53j, "1101": 1.84 + 0.76j, "1110": -3.69 - 1.53j,
    "1111": -1.84 - 0.76j,
}
RECT_TABLE = {
    "0000": -3 + 3j, "0001": -1 + 3j, "0010": 3 + 3j, "0011": 1 + 3j,
    "0100": -3 + 1j, "0101": -1 + 1j, "0110": 3 + 1j, "0111": 1 + 1j,
    "1000": -3 - 3j, "1001": -1 - 3j, "1010": 3 - 3j, "1011": 1 - 3j,
    "1100": -3 - 1j, "1101": -1 - 1j, "1110": 3 - 1j, "1111": 1 - 1j,
}


class TestStandardSchemes:
    @pytest.mark.parametrize("name", STANDARD_SCHEME_NAMES)
    def test_unit_energy(self, name):
        scheme = make_standard_scheme(name)
        energy = np.mean(np.abs(np.asarray(scheme.points)) ** 2)
        assert abs(energy - 1.0) <= 1e-9

    @pytest.mark.parametrize("name", STANDARD_SCHEME_NAMES)
    def test_identity_key(self, name):
        scheme = make_standard_scheme(name)
        assert scheme.key == MappingKey.identity(scheme.order)

    def test_unknown_name(self):
        for name in ("qam64", "QPSK", None, ["bpsk"]):
            with pytest.raises(ValueError, match="unknown scheme"):
                make_standard_scheme(name)

    def test_names_in_table_order(self):
        assert STANDARD_SCHEME_NAMES == ("bpsk", "qpsk", "qam16_rect", "qam16_circ")
        assert [make_standard_scheme(n).label for n in STANDARD_SCHEME_NAMES] == list(
            STANDARD_SCHEME_NAMES
        )

    def test_grid_points_are_exact_products(self):
        rect = tuple(RECT_TABLE[f"{v:04b}"] * A for v in range(16))
        assert make_standard_scheme("qam16_rect").points == rect
        qpsk = tuple(p / math.sqrt(2.0) for p in (1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j))
        assert make_standard_scheme("qpsk").points == qpsk

    def test_rect_matches_table(self):
        scheme = make_standard_scheme("qam16_rect")
        for bits, point in RECT_TABLE.items():
            got = scheme.mapped_points[int(bits, 2)]
            assert got == pytest.approx(point * A, abs=1e-15)

    def test_rect_0111_example(self):
        scheme = make_standard_scheme("qam16_rect")
        assert scheme.mapped_points[0b0111] == pytest.approx((1 + 1j) * A, abs=1e-15)

    def test_circ_matches_table_up_to_normalization(self):
        # Ring coordinates are stored verbatim, then rescaled by one common
        # gain so the mean symbol energy is exactly 1.
        scheme = make_standard_scheme("qam16_circ")
        table = np.array([CIRC_TABLE[f"{v:04b}"] for v in range(16)]) * A
        gains = np.asarray(scheme.points) / table
        assert np.allclose(gains, gains[0], rtol=0, atol=1e-12)
        expected_gain = 1.0 / math.sqrt(np.mean(np.abs(table) ** 2))
        assert gains[0].real == pytest.approx(expected_gain, rel=1e-12)
        assert gains[0].imag == pytest.approx(0.0, abs=1e-15)

    def test_circ_0000_example(self):
        scheme = make_standard_scheme("qam16_circ")
        point = scheme.mapped_points[0b0000]
        direction = (1.53 - 3.69j) * A
        # Same direction as the table entry, length within the 0.3%
        # normalization gain.
        assert point / direction == pytest.approx(1.002001, rel=1e-5)

    def test_bpsk_points(self):
        scheme = make_standard_scheme("bpsk")
        assert scheme.mapped_points[0] == 1 + 0j
        assert scheme.mapped_points[1] == -1 + 0j

    def test_qpsk_gray_neighbors(self):
        scheme = make_standard_scheme("qpsk")
        pts = scheme.mapped_points
        for v in range(4):
            d = np.abs(pts - pts[v])
            d[v] = np.inf
            for w in np.flatnonzero(d < d.min() + 1e-12):
                assert bin(v ^ int(w)).count("1") == 1

    def test_points_are_immutable(self):
        scheme = make_standard_scheme("qpsk")
        with pytest.raises(ValueError):
            scheme.mapped_points[0] = 0


class TestSchemeInvariants:
    def test_rejects_non_power_of_two(self):
        pts = [1 + 0j, -0.5 + 1j, -0.5 - 1j]
        with pytest.raises(ValueError, match="power of two"):
            ConstellationScheme("bad", tuple(pts), MappingKey((0, 1, 2)))

    def test_rejects_duplicate_points(self):
        with pytest.raises(ValueError, match="distinct"):
            ConstellationScheme("bad", (1 + 0j, 1 + 0j), MappingKey((0, 1)))

    def test_rejects_non_unit_energy(self):
        with pytest.raises(ValueError, match="energy"):
            ConstellationScheme("bad", (2 + 0j, -2 + 0j), MappingKey((0, 1)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            ConstellationScheme("bad", (math.inf + 0j, -1 + 0j), MappingKey((0, 1)))

    def test_rejects_key_length_mismatch(self):
        with pytest.raises(ValueError, match="key length"):
            ConstellationScheme("bad", (1 + 0j, -1 + 0j), MappingKey((0, 1, 2, 3)))


class TestMappingKey:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="not a permutation"):
            MappingKey((0, 0, 1, 2))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="not a permutation"):
            MappingKey((1, 2, 3, 4))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="key must not be empty"):
            MappingKey(())

    @pytest.mark.parametrize(
        "perm, bad",
        [((0.7, 1.2), "0.7"), ((True, False), "True"), ((0, "1"), "'1'")],
        ids=["fraction", "bool", "string"],
    )
    def test_rejects_non_integer_entries(self, perm, bad):
        with pytest.raises(ValueError, match=f"key entry . must be an integer, got {bad}"):
            MappingKey(perm)

    def test_accepts_numpy_and_integral_entries(self):
        assert MappingKey(tuple(np.array([1, 0], dtype=np.int64))).perm == (1, 0)
        assert MappingKey((np.uint8(1), 0.0)).perm == (1, 0)

    def test_inverse_round_trip(self):
        key = MappingKey((2, 0, 3, 1))
        assert key.compose(key.inverse()) == MappingKey.identity(4)
        assert key.inverse().compose(key) == MappingKey.identity(4)

    def test_compose_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="different length"):
            MappingKey.identity(4).compose(MappingKey.identity(2))

    @given(st.integers(0, 2**32 - 1))
    def test_random_key_is_bijection_order_16(self, seed):
        key = random_key(16, seed)
        assert sorted(key.perm) == list(range(16))

    def test_random_key_deterministic(self):
        assert random_key(4, 1234) == random_key(4, 1234)
        assert random_key(16, 99) == random_key(16, 99)

    def test_random_key_rejects_tiny_order(self):
        with pytest.raises(ValueError):
            random_key(0, 1)

    def test_random_key_rejects_huge_order(self):
        assert sorted(random_key(2**16, 1).perm) == list(range(2**16))
        with pytest.raises(ValueError, match=r"order must be in 2\.\.65536, got 65537"):
            random_key(2**16 + 1, 1)

    def test_random_key_integer_arguments(self):
        assert random_key(4.0, 1.0) == random_key(4, 1)
        assert random_key(np.int64(16), np.uint32(7)) == random_key(16, 7)
        for order, seed, field in [
            (4, 1.5, "seed"),
            (4, True, "seed"),
            (4, "3", "seed"),
            (4, None, "seed"),
            (4.5, 1, "order"),
            (True, 1, "order"),
        ]:
            with pytest.raises(ValueError, match=f"^{field} must be an integer"):
                random_key(order, seed)

    @pytest.mark.parametrize("seed", [-1, -5, np.int64(-7), -(2**64)])
    def test_random_key_rejects_negative_seed(self, seed):
        # random.Random seeds with the absolute value: -s would repeat the key of s.
        with pytest.raises(ValueError, match=rf"^seed must be nonnegative, got {seed}$"):
            random_key(16, seed)

    def test_random_key_uniform_over_s4(self):
        # 24000 draws with distinct seeds: every one of the 24 permutations
        # should land within 3 binomial sigma of its expected 1000 count,
        # and the chi-square statistic under its 99.9% critical value.
        counts = {}
        for seed in range(24000):
            perm = random_key(4, seed).perm
            counts[perm] = counts.get(perm, 0) + 1
        assert len(counts) == 24
        expected = 24000 / 24
        sigma = math.sqrt(24000 * (1 / 24) * (23 / 24))
        for perm, count in counts.items():
            assert abs(count - expected) <= 3 * sigma, (perm, count)
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 49.73  # chi-square df=23, p=0.001


class TestKeySerialization:
    def test_round_trip(self):
        assert serialize_key(parse_key("2,0,3,1")) == "2,0,3,1"

    def test_parse_rejects_duplicates(self):
        with pytest.raises(ValueError):
            parse_key("0,0,1,2")

    def test_parse_rejects_garbage(self):
        # int() would read the last three as the permutations they spell.
        for text in ("0,x,1", "0,1,2,3,4,5,6,7,8,9,1_0", "+1,0", "\u0660,\u0661"):
            with pytest.raises(ValueError, match="malformed key text"):
                parse_key(text)

    def test_parse_allows_surrounding_whitespace(self):
        assert parse_key(" 1 ,\t0\n") == MappingKey((1, 0))

    def test_short_key_rejected_at_scheme_build(self):
        base = make_standard_scheme("qpsk")
        with pytest.raises(ValueError, match="key length"):
            make_keyed_scheme(base, parse_key("0,1,2"))

    @given(st.permutations(range(8)))
    def test_serialize_parse_identity(self, perm):
        key = MappingKey(tuple(perm))
        assert parse_key(serialize_key(key)) == key


class TestMakeKeyedScheme:
    def test_identity_returns_equal_scheme(self):
        base = make_standard_scheme("qam16_rect")
        assert make_keyed_scheme(base, MappingKey.identity(16)) == base

    def test_identity_on_rekeyed_base(self):
        base = make_keyed_scheme(make_standard_scheme("qam16_rect"), random_key(16, 5))
        assert make_keyed_scheme(base, MappingKey.identity(16)) == base

    def test_reverse_key_example(self):
        base = make_standard_scheme("qam16_rect")
        reverse = MappingKey(tuple(range(15, -1, -1)))
        keyed = make_keyed_scheme(base, reverse)
        assert keyed.mapped_points[0b0000] == base.mapped_points[0b1111]
        assert keyed.mapped_points[0b1111] == base.mapped_points[0b0000]

    def test_same_key_same_scheme(self):
        base = make_standard_scheme("qam16_circ")
        assert make_keyed_scheme(base, random_key(16, 7)) == make_keyed_scheme(
            base, random_key(16, 7)
        )

    def test_energy_preserved(self):
        base = make_standard_scheme("qam16_circ")
        keyed = make_keyed_scheme(base, random_key(16, 11))
        assert abs(np.mean(np.abs(np.asarray(keyed.points)) ** 2) - 1.0) <= 1e-9

    @given(st.permutations(range(4)), st.permutations(range(4)))
    def test_composition(self, p1, p2):
        base = make_standard_scheme("qpsk")
        k1, k2 = MappingKey(tuple(p1)), MappingKey(tuple(p2))
        twice = make_keyed_scheme(make_keyed_scheme(base, k1), k2)
        once = make_keyed_scheme(base, k2.compose(k1))
        for v in range(4):
            assert twice.mapped_points[v] == once.mapped_points[v]

