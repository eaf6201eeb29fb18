"""Modulation, nearest-point decoding, and cross-scheme decoding."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyedmod.constellations import (
    _TABLE_BINS,
    ConstellationScheme,
    MappingKey,
    _point_cell_table,
    make_keyed_scheme,
    make_standard_scheme,
    random_key,
)
from keyedmod.modem import (
    _FAR_BOUND,
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
        for bits in (
            [0, 2],
            np.array([0, -1], dtype=np.int8),
            np.array([1, 2], dtype=np.uint8),
            np.array([0.5, 1.0]),
        ):
            with pytest.raises(ValueError, match="0 and 1"):
                modulate(bits, scheme)

    @pytest.mark.parametrize(
        "bits", [np.array([True, False, False, True]), np.array([1.0, 0.0, 0.0, 1.0])]
    )
    def test_accepts_bool_and_float_bits(self, bits):
        scheme = make_standard_scheme("qpsk")
        assert np.array_equal(modulate(bits, scheme), scheme.mapped_points[[2, 1]])

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


def exact_nearest_values(symbols, scheme) -> list[int]:
    """Exact oracle: smallest squared distance in rational arithmetic, lowest value on ties."""
    pts = [(Fraction(p.real), Fraction(p.imag)) for p in scheme.mapped_points.tolist()]
    values = []
    for y in np.asarray(symbols, dtype=np.complex128).tolist():
        yr, yi = Fraction(y.real), Fraction(y.imag)
        d2 = [(yr - pr) ** 2 + (yi - pi) ** 2 for pr, pi in pts]
        values.append(d2.index(min(d2)))
    return values


def assert_matches_argmin(symbols, scheme):
    """Brute-force oracle: argmin over the full (N, M) matrix of squared distances.

    Finite symbols with a coordinate beyond ``_FAR_BOUND``, where those
    float64 distances round to ties, are checked against the exact oracle.
    """
    y = np.asarray(symbols, dtype=np.complex128)
    pts = scheme.mapped_points
    # Non-finite symbols with a huge other coordinate overflow the squares.
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = (y.real[:, None] - pts.real[None, :]) ** 2
        d2 += (y.imag[:, None] - pts.imag[None, :]) ** 2
    got = nearest_point_values(y, scheme)
    expected = np.argmin(d2, axis=1)
    far = np.isfinite(y) & (np.maximum(abs(y.real), abs(y.imag)) > _FAR_BOUND)
    expected[far] = exact_nearest_values(y[far], scheme)
    assert np.array_equal(got, expected)


def around(values) -> np.ndarray:
    """Each value and its float64 neighbours on both sides."""
    values = np.asarray(values, dtype=float)
    return np.concatenate(
        (values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf))
    )


def cross(re, im) -> np.ndarray:
    """Every (re, im) pair, components set directly so inf and nan stay on their axis."""
    re, im = np.asarray(re, dtype=float), np.asarray(im, dtype=float)
    out = np.empty(re.size * im.size, dtype=np.complex128)
    out.real = np.repeat(re, im.size)
    out.imag = np.tile(im, re.size)
    return out


def axis_edge_symbols(scheme) -> np.ndarray:
    """Points, midpoints, their float neighbours, huge and non-finite coordinates."""
    pts = scheme.mapped_points

    def axis_values(levels):
        levels = np.unique(levels)
        far = [1e3, np.nextafter(1e3, np.inf), 1e4, 3e5, 1e300]
        far = np.array(far + [-v for v in far])
        odd = np.array([np.nan, np.inf, -np.inf])
        return np.concatenate((levels, around((levels[:-1] + levels[1:]) / 2), far, odd))

    grid = cross(axis_values(pts.real), axis_values(pts.imag))
    rng = np.random.default_rng(scheme.order)
    gauss = rng.normal(0, 1, 100_000) + 1j * rng.normal(0, 1, 100_000)
    return np.concatenate((grid, gauss))


GRID_SCHEMES = ("bpsk", "qpsk", "qam16_rect")


def rotated_qpsk(angle=0.3):
    points = tuple(
        complex(math.cos(angle + k * math.pi / 2), math.sin(angle + k * math.pi / 2))
        for k in range(4)
    )
    return ConstellationScheme("qpsk_rot", points, MappingKey((2, 0, 3, 1)))


def keyed_scheme(name, key_seed):
    """A stock scheme, or the rotated QPSK ``"qpsk_rot"``, re-keyed unless ``key_seed`` is None."""
    scheme = rotated_qpsk() if name == "qpsk_rot" else make_standard_scheme(name)
    if key_seed is not None:
        scheme = make_keyed_scheme(scheme, random_key(scheme.order, key_seed))
    return scheme


def random_geometry(order, seed):
    """A keyed scheme of ``order`` random unit-energy points."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=order) + 1j * rng.normal(size=order)
    pts /= math.sqrt(np.mean(np.abs(pts) ** 2))
    return ConstellationScheme(
        f"random{order}", tuple(pts), random_key(order, seed)
    )


def table_edge_symbols(scheme, n_gauss=25_000) -> np.ndarray:
    """Points, pair bisectors, the table's own edges and its border, each +-1 ulp.

    Adds ``n_gauss`` noisy points at each of four SNRs. Large orders get a
    sample of 200 point pairs, which keeps the (N, M) oracle small.
    """
    pts = scheme.mapped_points
    table = scheme.cell_table
    rng = np.random.default_rng(scheme.order)
    i, j = np.triu_indices(pts.size, 1)
    if i.size > 200:
        pick = rng.choice(i.size, 200, replace=False)
        i, j = i[pick], j[pick]
    mids = (pts[i] + pts[j]) / 2
    bisectors = np.concatenate(
        [cross(around([m.real]), around([m.imag])) for m in mids]
    )
    cuts = np.unique(np.concatenate((table.real_edges, table.imag_edges)))
    edges = around(cuts)
    partners = rng.choice(edges, min(32, edges.size), replace=False)
    span = np.abs(cuts).max()
    border = around([span, 1.5 * span, span * (1 + 1e-9), 1e3, 1e9, 1e15])
    border = np.concatenate((border, -border))
    coords = np.concatenate((pts.real, pts.imag, [0.0]))
    odd = [np.nan, np.inf, -np.inf]
    gauss = []
    for snr_db in (-5.0, 5.0, 15.0, 30.0):
        sigma = math.sqrt(10 ** (-snr_db / 10) / 2)
        sent = pts[rng.integers(0, pts.size, n_gauss)]
        gauss.append(sent + sigma * (rng.normal(size=sent.size) + 1j * rng.normal(size=sent.size)))
    return np.concatenate(
        (
            pts,
            bisectors,
            cross(edges, partners),
            cross(partners, edges),
            cross(border, coords),
            cross(coords, border),
            cross(border, border),
            cross(odd, np.concatenate((coords, odd, border))),
            cross(coords, odd),
            *gauss,
        )
    )


class TestAxisSlicer:
    """Product grids, whose table is sliced per axis at guarded level midpoints."""

    @settings(deadline=None, max_examples=100)
    @given(
        name=st.sampled_from(GRID_SCHEMES),
        key_seed=st.none() | st.integers(0, 2**32 - 1),
        coords=st.lists(
            st.tuples(
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            max_size=40,
        ),
    )
    def test_equals_argmin_property(self, name, key_seed, coords):
        scheme = keyed_scheme(name, key_seed)
        assert_matches_argmin([complex(re, im) for re, im in coords], scheme)


class TestCellTable:
    @pytest.mark.parametrize(
        "name, key_seed",
        [(name, key_seed) for name in GRID_SCHEMES for key_seed in (None, 5, 77)]
        + [("qam16_circ", None), ("qam16_circ", 5), ("qam16_circ", 77),
           ("qam16_circ", 1234), ("qpsk_rot", None), ("qpsk_rot", 5)],
    )
    def test_equals_argmin_on_edge_inputs(self, name, key_seed):
        scheme = keyed_scheme(name, key_seed)
        assert_matches_argmin(axis_edge_symbols(scheme), scheme)
        assert_matches_argmin(table_edge_symbols(scheme), scheme)

    def test_closely_spaced_grid_equals_argmin(self):
        # Real levels 2e-12 apart: no bin passes the margin check, and far
        # up the imaginary axis the squared distances round to ties, which
        # only argmin resolves its own way.
        a = 1e-12
        b = math.sqrt(1 - a * a)
        points = (complex(-a, b), complex(a, b), complex(-a, -b), complex(a, -b))
        scheme = ConstellationScheme("narrow", points, MappingKey((2, 0, 3, 1)))
        table = scheme.cell_table
        assert table.scale is None
        assert (table.values == table.mixed).all()
        assert_matches_argmin(axis_edge_symbols(scheme), scheme)

    @pytest.mark.parametrize("order", [32, 256])
    def test_larger_orders_equal_argmin(self, order):
        # Order 32 holds value 16, the sentinel of a 16-point table, and
        # order 256 needs a wider table dtype than its uint8 values.
        scheme = random_geometry(order, seed=order)
        assert scheme.cell_table.mixed == order
        assert_matches_argmin(table_edge_symbols(scheme, n_gauss=2_500), scheme)

    @settings(deadline=None, max_examples=100)
    @given(
        name=st.sampled_from(("qam16_circ", "qpsk_rot")),
        key_seed=st.none() | st.integers(0, 2**32 - 1),
        coords=st.lists(
            st.tuples(
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            max_size=40,
        ),
    )
    def test_equals_argmin_property(self, name, key_seed, coords):
        scheme = keyed_scheme(name, key_seed)
        assert_matches_argmin([complex(re, im) for re, im in coords], scheme)

    def test_keyed_schemes_share_one_build(self):
        circ = make_standard_scheme("qam16_circ")
        circ.cell_table
        before = _point_cell_table.cache_info()
        tables = [
            make_keyed_scheme(circ, random_key(16, seed)).cell_table for seed in (1, 2)
        ]
        after = _point_cell_table.cache_info()
        assert after.hits == before.hits + 2
        assert after.misses == before.misses
        assert not np.array_equal(tables[0].values, tables[1].values)

    def test_grid_is_cut_at_guarded_midpoints(self):
        # n midpoints per axis give 2n + 3 bins: one between each pair of
        # guard bands, one inside each band, and two unbounded. Only the
        # n + 1 between the bands are pure, so each point owns one bin.
        for name in GRID_SCHEMES:
            scheme = keyed_scheme(name, 3)
            table = scheme.cell_table
            assert table.scale is None
            sizes = []
            for levels, edges in (
                (np.unique(scheme.points_array.real), table.real_edges),
                (np.unique(scheme.points_array.imag), table.imag_edges),
            ):
                mids = (levels[:-1] + levels[1:]) / 2
                cuts = np.concatenate((mids - 1e-6, mids + 1e-6, [-1e3, 1e3]))
                assert np.array_equal(edges, np.sort(cuts))
                sizes.append(2 * mids.size + 3)
            assert table.values.size == sizes[0] * sizes[1] != (_TABLE_BINS + 2) ** 2
            pure = table.values[table.values != table.mixed]
            assert sorted(pure) == list(range(scheme.order))
        assert keyed_scheme("qam16_rect", 3).cell_table.values.size == (2 * 3 + 3) ** 2

    def test_non_product_geometries_not_separable(self):
        for scheme in (make_standard_scheme("qam16_circ"), rotated_qpsk()):
            table = scheme.cell_table
            assert table.scale is not None
            assert table.real_edges.size == table.imag_edges.size == _TABLE_BINS + 1
            assert table.values.size == (_TABLE_BINS + 2) ** 2


def far_symbols(scheme) -> np.ndarray:
    """Finite symbols with a coordinate beyond 2**53, up to the float64 limit."""
    largest = np.finfo(float).max
    far = around([1e16, 1e100, 1e300])
    far = np.concatenate((far, [np.nextafter(2.0**53, np.inf), largest]))
    far = np.concatenate((far, -far))
    near = np.unique(np.concatenate((scheme.mapped_points.real, scheme.mapped_points.imag)))
    near = around(np.concatenate((near, (near[:-1] + near[1:]) / 2, [0.0, 1e-300])))
    near = np.concatenate((near, -near))
    return np.concatenate((cross(far, near), cross(near, far), cross(far, far)))


class TestFarSymbols:
    @pytest.mark.parametrize("key_seed", [None, 9])
    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_equal_exact_oracle(self, name, key_seed):
        scheme = keyed_scheme(name, key_seed)
        symbols = far_symbols(scheme)
        got = nearest_point_values(symbols, scheme)
        assert np.array_equal(got, exact_nearest_values(symbols, scheme))

    def test_bpsk_far_left_decodes_to_its_point(self):
        bpsk = make_standard_scheme("bpsk")
        assert np.array_equal(nearest_point_values([-1e100, -1e300, 1e300], bpsk), [1, 1, 0])

    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_non_finite_decode_to_zero(self, name):
        base = make_standard_scheme(name)
        scheme = make_keyed_scheme(base, MappingKey(tuple(reversed(range(base.order)))))
        odd = [np.nan, np.inf, -np.inf]
        huge = [1e300, -1e300]
        symbols = np.concatenate((cross(odd, [0.0, -1.0, *huge, *odd]), cross([-1.0, *huge], odd)))
        # The argmin fallback squares the huge coordinates; that must stay silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not nearest_point_values(symbols, scheme).any()


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
