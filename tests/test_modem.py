"""Modulation, nearest-point decoding, and cross-scheme decoding."""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyedmod import modem
from keyedmod.constellations import (
    ConstellationScheme,
    MappingKey,
    make_keyed_scheme,
    make_standard_scheme,
    random_key,
)
from keyedmod.modem import (
    _DEMOD_CHUNK,
    _FAR_BOUND,
    _GRID_BOUND,
    _GRID_GUARD,
    _TABLE_BINS,
    _scheme_cell_table,
    bits_to_values,
    count_prefix_errors,
    cross_decode_bits,
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
        assert symbol == scheme.mapped_points[0b0000]
        assert symbol / ((1.53 - 3.69j) * A) == pytest.approx(1.002001, rel=1e-5)

    def test_circ_0100(self):
        scheme = make_standard_scheme("qam16_circ")
        (symbol,) = modulate([0, 1, 0, 0], scheme)
        assert symbol / ((3.69 - 1.53j) * A) == pytest.approx(1.002001, rel=1e-5)

    def test_empty_stream(self):
        scheme = make_standard_scheme("qam16_circ")
        assert modulate([], scheme).size == 0
        assert nearest_point_values([], scheme).size == 0

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
            np.array([1 + 0j, 0j]),
            np.array([], dtype=complex),
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
        assert symbol == scheme.mapped_points[0b1000]

    def test_values_bits_round_trip(self):
        values = np.arange(16)
        assert np.array_equal(bits_to_values(values_to_bits(values, 4), 4), values)

    @pytest.mark.parametrize(
        "values, m",
        [
            ([5], 2),
            ([-1], 2),
            ([4], 2),
            ([0, 256], 8),
            ([2], 1),
            ([2**63 - 1], 62),
            ([2**63], 63),
            ([2**64], 4),
            ([1.5], 2),
            ([2.7], 2),
            (["1"], 2),
            ([1 + 0j], 2),
            ([1.0, 0.5], 2),
            ([math.nan], 2),
            ([math.inf], 2),
            (np.array([1, "1"], dtype=object), 2),
            (np.array([1, 2.5], dtype=object), 2),
        ],
    )
    def test_values_to_bits_rejects_values_out_of_range(self, values, m):
        with pytest.raises(ValueError, match=rf"symbol values must lie in \[0, 2\*\*{m}\)"):
            values_to_bits(values, m)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize(
        "values",
        [np.array([[1, 2], [3, 0]]), np.array(3), 3, [[1]]],
        ids=["2d", "0d_array", "scalar", "nested_list"],
    )
    def test_values_to_bits_rejects_input_that_is_not_one_dimensional(self, values, m):
        with pytest.raises(ValueError, match="^symbol values must be one-dimensional$"):
            values_to_bits(values, m)

    def test_values_to_bits_of_extreme_values(self):
        assert values_to_bits([0, 3], 2).tolist() == [0, 0, 1, 1]
        assert values_to_bits(np.zeros(0, np.int64), 2).size == 0
        assert values_to_bits([2**62 - 1], 62).tolist() == [1] * 62
        # Integral floats and Python ints held as objects are integers.
        assert values_to_bits([2.0, 0.0], 2).tolist() == [1, 0, 0, 0]
        assert values_to_bits(np.array([3, 1], dtype=object), 2).tolist() == [1, 1, 0, 1]

    @pytest.mark.parametrize("convert", [values_to_bits, bits_to_values])
    @pytest.mark.parametrize("m", [0, -1])
    def test_rejects_bits_per_symbol_below_one(self, convert, m):
        with pytest.raises(ValueError, match=f"^bits_per_symbol must be at least 1, got {m}$"):
            convert(np.zeros(4, np.uint8), m)

    @pytest.mark.parametrize("convert", [values_to_bits, bits_to_values])
    @pytest.mark.parametrize("m", [64, 65])
    def test_rejects_bits_per_symbol_above_63(self, convert, m):
        # From m = 64 an m-bit value no longer fits the int64 the converters
        # compute in: the weights and values would wrap or overflow.
        with pytest.raises(ValueError, match=f"^bits_per_symbol must be at most 63, got {m}$"):
            convert(np.ones(m, np.uint8), m)

    def test_round_trip_at_63_bits(self):
        values = np.array([0, 1, 2**62, 2**63 - 1], dtype=np.uint64)
        bits = values_to_bits(values.astype(np.int64), 63)
        assert bits[-63:].tolist() == [1] * 63
        assert bits_to_values(bits, 63).tolist() == values.tolist()

    @pytest.mark.parametrize("convert", [values_to_bits, bits_to_values])
    @pytest.mark.parametrize("m", [True, 2.5, "2", None])
    def test_rejects_bits_per_symbol_that_is_not_an_integer(self, convert, m):
        with pytest.raises(ValueError, match="^bits_per_symbol must be an integer"):
            convert(np.zeros(4, np.uint8), m)

    @pytest.mark.parametrize("m", [np.int64(2), 2.0])
    def test_reads_integral_bits_per_symbol(self, m):
        assert values_to_bits([2], m).tolist() == [1, 0]
        assert bits_to_values([1, 0], m).tolist() == [2]


def decode_bits(symbols, scheme):
    return values_to_bits(nearest_point_values(symbols, scheme), scheme.bits_per_symbol)


class TestDemodulate:
    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_round_trip_noiseless(self, name):
        scheme = make_standard_scheme(name)
        rng = np.random.default_rng(42)
        bits = rng.integers(0, 2, 240, dtype=np.uint8)
        assert np.array_equal(decode_bits(modulate(bits, scheme), scheme), bits)

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
        assert np.array_equal(decode_bits(modulate(bits, scheme), scheme), bits)

    def test_circ_point_0110_on_rect(self):
        # Frozen oracle outcome: the two-ring 0110 point decodes to the grid
        # point at -3a+1a*j, whose table label is 0100.
        circ = make_standard_scheme("qam16_circ")
        rect = make_standard_scheme("qam16_rect")
        point = circ.mapped_points[0b0110]
        assert brute_force_rect_decode(point) == "0100"
        assert np.array_equal(nearest_point_values([point], rect), [0b0100])

    def test_circ_point_0101_on_rect(self):
        # Frozen oracle outcome: nearest grid point is 1a-1a*j, label 1111.
        circ = make_standard_scheme("qam16_circ")
        rect = make_standard_scheme("qam16_rect")
        point = circ.mapped_points[0b0101]
        assert brute_force_rect_decode(point) == "1111"
        assert np.array_equal(nearest_point_values([point], rect), [0b1111])

    def test_all_circ_points_on_rect_match_oracle(self):
        circ = make_standard_scheme("qam16_circ")
        rect = make_standard_scheme("qam16_rect")
        for value in range(16):
            point = circ.mapped_points[value]
            expected = [int(brute_force_rect_decode(point), 2)]
            assert np.array_equal(nearest_point_values([point], rect), expected), value

    def test_tie_breaks_to_lowest_bit_value(self):
        scheme = make_standard_scheme("bpsk")
        assert np.array_equal(nearest_point_values([0j], scheme), [0])

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
    """A stock scheme, the rotated QPSK ``"qpsk_rot"`` or the 32 random points
    ``"random32"``, re-keyed unless ``key_seed`` is None."""
    if name == "random32":
        scheme = random_geometry(32, seed=32)
    else:
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
    table = _scheme_cell_table(scheme)
    rng = np.random.default_rng(scheme.order)
    i, j = np.triu_indices(pts.size, 1)
    if i.size > 200:
        pick = rng.choice(i.size, 200, replace=False)
        i, j = i[pick], j[pick]
    mids = (pts[i] + pts[j]) / 2
    bisectors = np.concatenate(
        [cross(around([m.real]), around([m.imag])) for m in mids]
    )
    cuts = table.edges
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
    """Product grids, whose bins are cut at guarded level midpoints on each axis."""

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
        table = _scheme_cell_table(scheme)
        assert table.scale is None
        assert (table.values == scheme.order).all()
        assert_matches_argmin(axis_edge_symbols(scheme), scheme)

    @pytest.mark.parametrize("order", [32, 256])
    def test_larger_orders_equal_argmin(self, order):
        # Order 32 holds value 16, the sentinel of a 16-point table, and
        # order 256 needs a wider table dtype than its uint8 values.
        scheme = random_geometry(order, seed=order)
        assert _scheme_cell_table(scheme).values.max() == order
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

    def test_two_ring_build_memory_is_bounded(self):
        # The build takes one row of bins at a time; every corner at once
        # would hold about 8 MB. One untraced build goes first, so that no
        # first-call import of a process counts against the bound.
        scheme = make_standard_scheme("qam16_circ")
        _scheme_cell_table.__wrapped__(scheme)
        tracemalloc.start()
        try:
            _scheme_cell_table.__wrapped__(scheme)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20

    @pytest.mark.parametrize(
        "name", ["bpsk", "qpsk", "qam16_rect", "qam16_circ", "qpsk_rot", "random32"]
    )
    def test_keyed_table_is_the_identity_table_relabelled(self, name):
        # A table built on the points in bit-value order holds what the
        # point-index table of the identity key holds, relabelled through
        # the key's inverse: values taken, pairs taken and sorted.
        scheme = keyed_scheme(name, 3)
        identity = ConstellationScheme(
            scheme.label, scheme.points, MappingKey.identity(scheme.order)
        )
        base = _scheme_cell_table(identity)
        table = _scheme_cell_table(scheme)
        labels = np.append(scheme.key.inverse().perm, scheme.order).astype(base.values.dtype)
        assert table.values.dtype == base.values.dtype
        assert np.array_equal(table.values, labels.take(base.values))
        assert table.pairs.dtype == base.pairs.dtype
        assert np.array_equal(table.pairs, np.sort(labels.take(base.pairs), axis=0))
        assert np.array_equal(table.edges, base.edges)
        assert table.scale == base.scale
        assert not np.array_equal(table.values, base.values)

    def test_equal_schemes_share_one_relabelled_table(self):
        circ = make_standard_scheme("qam16_circ")
        first, second = (make_keyed_scheme(circ, random_key(16, 9)) for _ in range(2))
        assert first is not second and first == second
        _scheme_cell_table.cache_clear()
        table = _scheme_cell_table(first)
        assert _scheme_cell_table(second) is table
        info = _scheme_cell_table.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_grid_is_cut_at_guarded_midpoints(self):
        # Both axes are cut at the union of the two axes' guarded midpoints
        # and the +-1e3 border, so n edges give (n + 1)**2 bins. Outside the
        # guard bands one point is nearest, so every point owns a pure bin.
        for name in GRID_SCHEMES:
            scheme = keyed_scheme(name, 3)
            table = _scheme_cell_table(scheme)
            assert table.scale is None
            cuts = []
            for levels in (
                np.unique(np.asarray(scheme.points).real),
                np.unique(np.asarray(scheme.points).imag),
            ):
                mids = (levels[:-1] + levels[1:]) / 2
                cuts.append(np.concatenate((mids - 1e-6, mids + 1e-6, [-1e3, 1e3])))
            assert np.array_equal(table.edges, np.unique(np.concatenate(cuts)))
            assert table.values.size == (table.edges.size + 1) ** 2 != (_TABLE_BINS + 2) ** 2
            pure = table.values[table.values != scheme.order]
            assert set(pure.tolist()) == set(range(scheme.order))
        rect = _scheme_cell_table(keyed_scheme("qam16_rect", 3))
        assert rect.values.size == (2 * 3 + 3) ** 2
        # BPSK's imaginary axis takes the real axis's cuts.
        bpsk = _scheme_cell_table(make_standard_scheme("bpsk"))
        assert np.array_equal(bpsk.edges, [-1e3, -1e-6, 1e-6, 1e3])

    def test_non_product_geometries_not_separable(self):
        for scheme in (make_standard_scheme("qam16_circ"), rotated_qpsk()):
            table = _scheme_cell_table(scheme)
            assert table.scale is not None
            assert table.edges.size == _TABLE_BINS + 1
            assert table.values.size == (_TABLE_BINS + 2) ** 2
            assert table.pairs.shape == (2, table.values.size)


def bounded_bins(table, cells) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Low and high real edge, then low and high imaginary edge, of bounded bins ``cells``."""
    ix, iy = np.divmod(cells, table.edges.size + 1)
    return table.edges[ix - 1], table.edges[ix], table.edges[iy - 1], table.edges[iy]


def mixed_bounded_cells(table, order) -> np.ndarray:
    n = table.edges.size + 1
    bounded = np.zeros((n, n), dtype=bool)
    bounded[1:-1, 1:-1] = True
    return np.flatnonzero(bounded.ravel() & (table.values == order))


def point_neighbours(z) -> np.ndarray:
    """Each complex ``z`` with each coordinate moved by -1, 0 and +1 ulp."""
    z = np.asarray(z, dtype=np.complex128)
    out = np.empty((3, 3, z.size), dtype=np.complex128)
    out.real = around(z.real).reshape(3, 1, -1)
    out.imag = around(z.imag).reshape(1, 3, -1)
    return out.ravel()


def cell_of(table, symbols) -> np.ndarray:
    """Bin index of each symbol, counting the edges below each coordinate."""
    y = np.asarray(symbols, dtype=np.complex128)
    ix = np.searchsorted(table.edges, y.real, side="left")
    return ix * (table.edges.size + 1) + np.searchsorted(table.edges, y.imag, side="left")


# The stock schemes, then a rotated and a random geometry whose cells meet
# bins at other angles.
PAIR_SCHEMES = [
    (name, key_seed)
    for name in ("qam16_circ", "qam16_rect", "qpsk", "bpsk")
    for key_seed in (None, 5)
] + [("qpsk_rot", None), ("random32", None), ("random32", 5)]


class TestPairedBins:
    """Mixed bounded bins that only two points can win are decided between those two."""

    @pytest.mark.parametrize("name, key_seed", PAIR_SCHEMES)
    def test_pairs_sit_in_mixed_bounded_bins_lower_value_first(self, name, key_seed):
        scheme = keyed_scheme(name, key_seed)
        table = _scheme_cell_table(scheme)
        first, second = table.pairs
        paired = np.flatnonzero(first != scheme.order)
        assert paired.size
        assert np.isin(paired, mixed_bounded_cells(table, scheme.order)).all()
        assert (first[paired] < second[paired]).all()
        assert (second[first == scheme.order] == scheme.order).all()

    def test_two_ring_paired_bin_count(self):
        circ = make_standard_scheme("qam16_circ")
        for scheme in (circ, make_keyed_scheme(circ, random_key(16, 5))):
            table = _scheme_cell_table(scheme)
            assert mixed_bounded_cells(table, 16).size == 2_928
            assert np.count_nonzero(table.pairs[0] != 16) == 2_896

    @pytest.mark.parametrize("name, key_seed", PAIR_SCHEMES)
    def test_equals_argmin_on_pair_bisectors(self, name, key_seed):
        # In each paired bin, the point of the pair's bisector nearest the
        # bin centre, and its float64 neighbours.
        scheme = keyed_scheme(name, key_seed)
        table = _scheme_cell_table(scheme)
        cells = np.flatnonzero(table.pairs[0] != scheme.order)
        x_lo, x_hi, y_lo, y_hi = bounded_bins(table, cells)
        centre = (x_lo + x_hi) / 2 + 1j * (y_lo + y_hi) / 2
        a, b = (scheme.mapped_points[v] for v in table.pairs[:, cells])
        unit = (b - a) / np.abs(b - a)
        mid = (a + b) / 2
        on_bisector = centre - ((centre - mid) * unit.conj()).real * unit
        d_a, d_b = np.abs(on_bisector - a), np.abs(on_bisector - b)
        assert np.allclose(d_a, d_b, rtol=0, atol=1e-12)
        assert_matches_argmin(point_neighbours(on_bisector), scheme)
        # Where the bisector crosses the bin's vertical edges, unless it runs
        # along them.
        steep = np.abs(unit.imag) > 1e-3
        for x in (x_lo[steep], x_hi[steep]):
            y = mid.imag[steep] - (x - mid.real[steep]) * unit.real[steep] / unit.imag[steep]
            assert_matches_argmin(point_neighbours(x + 1j * y), scheme)

    @pytest.mark.parametrize("name, key_seed", PAIR_SCHEMES)
    def test_equals_argmin_within_two_ulps_of_every_edge(self, name, key_seed):
        scheme = keyed_scheme(name, key_seed)
        table = _scheme_cell_table(scheme)
        edges = table.edges
        near = [edges]
        for direction in (-np.inf, np.inf):
            step = np.nextafter(edges, direction)
            near += [step, np.nextafter(step, direction)]
        near = np.concatenate(near)
        rng = np.random.default_rng(scheme.order)
        # Partners inside the square of an even grid, or around the levels of
        # a product grid, whose outermost edges sit at +-1e3.
        span = np.abs(edges).max() if table.scale is not None else 2.0
        partners = np.concatenate((rng.uniform(-span, span, 24), rng.choice(near, 8)))
        symbols = np.concatenate((cross(near, partners), cross(partners, near)))
        assert_matches_argmin(symbols, scheme)

    @pytest.mark.parametrize("name, key_seed", PAIR_SCHEMES)
    def test_equals_argmin_inside_every_mixed_bounded_bin(self, name, key_seed):
        scheme = keyed_scheme(name, key_seed)
        table = _scheme_cell_table(scheme)
        x_lo, x_hi, y_lo, y_hi = bounded_bins(table, mixed_bounded_cells(table, scheme.order))
        rng = np.random.default_rng(scheme.order + 7)
        u, v = rng.uniform(size=(2, x_lo.size))
        symbols = x_lo + u * (x_hi - x_lo) + 1j * (y_lo + v * (y_hi - y_lo))
        assert_matches_argmin(symbols, scheme)

    def test_paired_bins_do_not_reach_argmin(self, monkeypatch):
        scheme = make_standard_scheme("qam16_circ")
        table = _scheme_cell_table(scheme)
        argued = [np.empty(0, dtype=np.complex128)]
        fallback = modem._fallback_values

        def spy(real, imag, pts):
            symbols = np.empty(real.size, dtype=np.complex128)
            symbols.real, symbols.imag = real, imag
            argued.append(symbols)
            return fallback(real, imag, pts)

        monkeypatch.setattr(modem, "_fallback_values", spy)
        rng = np.random.default_rng(10)
        n = 2 * _DEMOD_CHUNK
        sigma = math.sqrt(10 ** (-10 / 10) / 2)
        symbols = scheme.mapped_points[rng.integers(0, 16, n)]
        symbols = symbols + sigma * (rng.normal(size=n) + 1j * rng.normal(size=n))
        got = nearest_point_values(as_planes(symbols), scheme)
        paired = table.pairs[0, cell_of(table, symbols)] != 16
        assert paired.sum() > 0.05 * n
        argued = np.concatenate(argued)
        assert not (table.pairs[0, cell_of(table, argued)] != 16).any()
        assert argued.size < 0.05 * paired.sum()
        monkeypatch.undo()
        assert_matches_argmin(symbols, scheme)
        assert np.array_equal(got, nearest_point_values(symbols, scheme))


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
            range(rx_scheme.order), key=lambda v: abs(y - rx_scheme.mapped_points[v])
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
        _, compared, errors = cross_decode_bits(bits, scheme, scheme, modulate(bits, scheme))
        assert compared == 4000 and errors == 0

    def test_worked_stream_circ_to_rect(self):
        # Frozen from the brute-force oracle: 0110 -> 0100 (1 mismatch),
        # 0101 -> 1111 (2 mismatches).
        circ = make_standard_scheme("qam16_circ")
        rect = make_standard_scheme("qam16_rect")
        tx = np.array([0, 1, 1, 0, 0, 1, 0, 1], dtype=np.uint8)
        rx, compared, errors = cross_decode_bits(tx, circ, rect, modulate(tx, circ))
        assert "".join(map(str, rx)) == "01001111"
        assert compared == 8
        assert errors == 3
        assert_prefix_popcount_oracle("qam16_rect", key_seed=13)

    def test_circ_to_bpsk_alignment(self):
        circ = make_standard_scheme("qam16_circ")
        bpsk = make_standard_scheme("bpsk")
        tx = np.array([0, 1, 1, 0, 0, 1, 0, 1], dtype=np.uint8)
        rx, compared, errors = cross_decode_bits(tx, circ, bpsk, modulate(tx, circ))
        assert rx.size == 2
        assert compared == 2
        assert_prefix_popcount_oracle("bpsk", key_seed=11)

    def test_circ_to_qpsk_prefix_rule(self):
        circ = make_standard_scheme("qam16_circ")
        qpsk = make_standard_scheme("qpsk")
        tx = np.array([0, 1, 1, 0], dtype=np.uint8)
        rx, compared, errors = cross_decode_bits(tx, circ, qpsk, modulate(tx, circ))
        # 0110 sits at (-3.69, +1.53)a: negative re, positive im quadrant -> 01.
        assert np.array_equal(rx, [0, 1])
        assert compared == 2 and errors == 0
        assert_prefix_popcount_oracle("qpsk", key_seed=12)

    def test_wider_receiver_rejected(self):
        qpsk = make_standard_scheme("qpsk")
        rect = make_standard_scheme("qam16_rect")
        with pytest.raises(ValueError, match="alignment"):
            cross_decode_bits([0, 1], qpsk, rect, modulate([0, 1], qpsk))

    def test_received_length_checked(self):
        circ = make_standard_scheme("qam16_circ")
        with pytest.raises(ValueError, match=r"shapes \(2,\) and \(3,\)"):
            cross_decode_bits([0] * 8, circ, circ, received=np.zeros(3, complex))


def per_bit_prefix_errors(tx, m_tx, rx, m_rx) -> tuple[int, int]:
    """Oracle: compare the first ``m_rx`` of ``m_tx`` bits of each value as strings."""
    bit_errors = symbol_errors = 0
    for t, r in zip(tx.tolist(), rx.tolist()):
        prefix, decoded = f"{t:0{m_tx}b}"[:m_rx], f"{r:0{m_rx}b}"
        wrong = sum(a != b for a, b in zip(prefix, decoded))
        bit_errors += wrong
        symbol_errors += wrong > 0
    return bit_errors, symbol_errors


class TestCountPrefixErrors:
    @pytest.mark.parametrize("m_tx, m_rx", [(4, 1), (4, 2), (4, 4), (10, 3), (10, 10)])
    def test_matches_per_bit_count(self, m_tx, m_rx):
        rng = np.random.default_rng(m_tx * 16 + m_rx)
        tx = rng.integers(0, 1 << m_tx, 3000).astype(np.min_scalar_type((1 << m_tx) - 1))
        rx = rng.integers(0, 1 << m_rx, 3000).astype(np.min_scalar_type((1 << m_rx) - 1))
        expected = per_bit_prefix_errors(tx, m_tx, rx, m_rx)
        assert count_prefix_errors(tx, m_tx, rx, m_rx) == expected
        assert expected[1] > 0

    def test_wider_receiver_rejected(self):
        values = np.zeros(3, dtype=np.uint8)
        with pytest.raises(ValueError, match="alignment"):
            count_prefix_errors(values, 2, values, 4)

    @pytest.mark.parametrize("m_rx", [0, -1])
    def test_receiver_below_one_bit_rejected(self, m_rx):
        values = np.zeros(3, dtype=np.uint8)
        with pytest.raises(ValueError, match=f"resolves {m_rx} bits/symbol; it must resolve at least 1"):
            count_prefix_errors(values, 4, values, m_rx)

    @pytest.mark.parametrize(
        "m_tx, m_rx, match",
        [
            (True, 1, "^m_tx must be an integer, got True$"),
            (2, True, "^m_rx must be an integer, got True$"),
            (64, 1, "^m_tx must be at most 63, got 64$"),
            (2.5, 1, "^m_tx must be an integer, got 2.5$"),
        ],
    )
    def test_bit_counts_read_by_the_integer_rule(self, m_tx, m_rx, match):
        values = np.zeros(3, dtype=np.uint8)
        with pytest.raises(ValueError, match=match):
            count_prefix_errors(values, m_tx, values, m_rx)
        assert count_prefix_errors(values, 4.0, values, np.int64(2)) == (0, 0)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128, bool, object])
    def test_rejects_values_not_of_integer_dtype(self, dtype):
        values, other = np.zeros(3, dtype=np.uint8), np.zeros(3, dtype=dtype)
        for tx, rx in [(other, values), (values, other)]:
            with pytest.raises(ValueError, match="must be of an integer dtype"):
                count_prefix_errors(tx, 2, rx, 2)

    def test_rejects_misshapen_streams(self):
        values = np.array([0, 1, 2, 3], dtype=np.uint8)
        with pytest.raises(ValueError, match=r"shapes \(4,\) and \(1,\)"):
            count_prefix_errors(values, 2, values[:1], 2)
        with pytest.raises(ValueError, match=r"shapes \(3,\) and \(4,\)"):
            count_prefix_errors(values[:3], 2, values, 2)
        grid = values.reshape(2, 2)
        pairs = [(grid, grid), (grid, values[:2]), (values[:2], grid), (values[0],) * 2]
        for tx, rx in pairs:
            with pytest.raises(ValueError, match="one-dimensional"):
                count_prefix_errors(tx, 2, rx, 2)


def exact_mismatch_rate(scheme_a, scheme_b) -> float:
    """Oracle: expected noiseless cross-decode BER over uniform symbols."""
    m = scheme_a.bits_per_symbol
    total = 0
    for value in range(scheme_a.order):
        point = scheme_a.mapped_points[value]
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
        _, compared, errors = cross_decode_bits(bits, s1, s2, modulate(bits, s1))
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


def as_planes(symbols) -> np.ndarray:
    """A complex stream as float64 planes: the real row, then the imaginary row."""
    y = np.asarray(symbols, dtype=np.complex128)
    return np.stack((y.real, y.imag))


def plane_test_symbols(scheme) -> np.ndarray:
    """Edge, non-finite and far symbols, then noisy ones over three decode chunks."""
    rng = np.random.default_rng(scheme.order + 1)
    n = 2 * _DEMOD_CHUNK + 5
    noisy = scheme.mapped_points[rng.integers(0, scheme.order, n)]
    noisy = noisy + 0.4 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return np.concatenate((axis_edge_symbols(scheme), far_symbols(scheme), noisy))


class TestPlanes:
    """Float64 planes decode as the complex stream they hold."""

    @pytest.mark.parametrize("key_seed", [None, 9])
    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_two_rows_equal_complex_form(self, name, key_seed):
        scheme = keyed_scheme(name, key_seed)
        symbols = plane_test_symbols(scheme)
        got = nearest_point_values(as_planes(symbols), scheme)
        expected = nearest_point_values(symbols, scheme)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("key_seed", [None, 9])
    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_decode_leaves_its_input_untouched(self, name, key_seed):
        # A sweep decodes one received pair for every receiver at the same
        # effective SNR, so no decode may write into the rows it reads.
        scheme = keyed_scheme(name, key_seed)
        symbols = plane_test_symbols(scheme)
        planes = as_planes(symbols)
        before_planes, before_symbols = planes.copy(), symbols.copy()
        nearest_point_values(planes, scheme)
        nearest_point_values(symbols, scheme)
        assert planes.tobytes() == before_planes.tobytes()
        assert symbols.tobytes() == before_symbols.tobytes()

    def test_read_only_planes_decode(self):
        scheme = make_standard_scheme("qam16_rect")
        symbols = plane_test_symbols(scheme)
        planes = as_planes(symbols)
        planes.setflags(write=False)
        assert np.array_equal(
            nearest_point_values(planes, scheme), nearest_point_values(symbols, scheme)
        )

    @pytest.mark.parametrize(
        "planes",
        [
            np.zeros((3, 8)),
            np.zeros((1, 8)),
            np.zeros((0, 8)),
            np.zeros((2, 16))[:, ::2],
            np.zeros((8, 2)).T,
            np.zeros((2, 8), np.float32),
        ],
        ids=["three-rows", "one-row", "no-rows", "strided", "fortran", "float32"],
    )
    def test_rejects_malformed_planes(self, planes):
        # One row is refused too, even for BPSK, whose points all lie on the
        # real axis: a decode always reads both coordinates.
        with pytest.raises(ValueError, match="planes must be two C-contiguous float64 rows"):
            nearest_point_values(planes, make_standard_scheme("bpsk"))


class TestOnePlaneRule:
    """What a decode of BPSK from its real coordinates alone would have to respect.

    No decode does that: every receiver reads both planes. Outside the
    mixed real bins the imaginary part cannot move a decision; inside
    them it can, so a one-axis shortcut needs a guard there.
    """

    # BPSK's pure real bins at imaginary part 0.0 are (-B, -g] and (g, B].
    PURE = np.array(
        [
            np.nextafter(-_GRID_BOUND, 0.0),
            -1.0,
            -_GRID_GUARD,
            np.nextafter(-_GRID_GUARD, -1.0),
            np.nextafter(_GRID_GUARD, 1.0),
            0.3,
            _GRID_BOUND,
        ]
    )
    IMAG = [-(_GRID_BOUND - 1e-9), -500.0, -1e-300, 0.0, 500.0, _GRID_BOUND - 1e-9]

    @pytest.mark.parametrize("key_seed", [None, 9])
    def test_pure_coordinates_decide_for_every_imaginary_part_in_reach(self, key_seed):
        scheme = keyed_scheme("bpsk", key_seed)
        on_axis = nearest_point_values(self.PURE + 0j, scheme)
        for imag in self.IMAG:
            assert np.array_equal(on_axis, nearest_point_values(self.PURE + 1j * imag, scheme))

    def test_imaginary_term_moves_a_guard_band_decision(self):
        # In a mixed bin argmin adds y**2 to every distance, and rounding can
        # change its decision.
        bpsk = make_standard_scheme("bpsk")
        assert nearest_point_values([-1e-12 + 500j], bpsk)[0] == 0
        assert nearest_point_values([-1e-12 + 0j], bpsk)[0] == 1
