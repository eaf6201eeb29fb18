"""Closed-form decode probabilities against independent oracles."""

import hashlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from keyedmod import analytic
from keyedmod.analytic import (
    REPRESENTATIVE_SYMBOLS,
    ConsistencyError,
    SnrPoint,
    _check_prob,
    circular_tx_point,
    p_correct_all_symbols,
    p_correct_numeric,
    p_correct_symbol,
    p_correct_total,
    snr_grid_db,
    sweep,
)
from keyedmod.constellations import QAM16_CIRC_GRID, QAM16_RECT_GRID, make_standard_scheme

A = math.sqrt(1.0 / 10.0)

# The grid decoder's cell edges on each axis, written here from the grid
# levels -3a, -a, a, 3a (midpoints, open-ended outside) so the quadrature
# oracle does not share the program's cell table.
EDGES = (-math.inf, -2 * A, 0.0, 2 * A, math.inf)

# Frozen reference: mpmath.erfc(1) at 40 digits.
ERFC_ONE = 0.15729920705028513


def quad_interval(lo, hi, mean, n0):
    """Oracle: adaptive quadrature of the Gaussian density over [lo, hi]."""
    pdf = lambda y: math.exp(-((y - mean) ** 2) / n0) / math.sqrt(math.pi * n0)
    value, err = integrate.quad(pdf, lo, hi, epsabs=1e-13, limit=200)
    assert err < 5e-10
    return value


def grid_cell(value):
    """((re_lo, re_hi), (im_lo, im_hi)): the grid cell of a label, from ``EDGES``."""
    point = QAM16_RECT_GRID[value]
    re, im = int((point.real + 3) / 2), int((point.imag + 3) / 2)
    return (EDGES[re], EDGES[re + 1]), (EDGES[im], EDGES[im + 1])


def quad_region(tx, value, n0):
    (re_lo, re_hi), (im_lo, im_hi) = grid_cell(value)
    return quad_interval(re_lo, re_hi, tx.real, n0) * quad_interval(
        im_lo, im_hi, tx.imag, n0
    )


def quad_interval_loose(lo, hi, mean, n0):
    pdf = lambda y: math.exp(-((y - mean) ** 2) / n0) / math.sqrt(math.pi * n0)
    value, err = integrate.quad(pdf, lo, hi, epsabs=1e-13, limit=200)
    assert err < 1e-8
    return value


def quad_region_loose(tx, value, n0):
    (re_lo, re_hi), (im_lo, im_hi) = grid_cell(value)
    return quad_interval_loose(re_lo, re_hi, tx.real, n0) * quad_interval_loose(
        im_lo, im_hi, tx.imag, n0
    )


def expanded_total(u):
    """Oracle: the four-symbol mean as one expanded erfc polynomial.

    An algebraic simplification of the quarter-sum of the closed forms,
    written from the sender table, so a transcription slip in either
    shows as a disagreement.
    """
    side, inner = QAM16_CIRC_GRID[0b0100], QAM16_CIRC_GRID[0b0101]
    b = math.erfc((side.real + 2.0) * u)
    c = math.erfc(-side.imag * u)
    e = math.erfc(-inner.real * u)
    f = math.erfc(inner.imag * u)
    g = math.erfc((2.0 - inner.imag) * u)
    return 0.25 * (
        1.0 + 0.25 * b * c - 0.5 * e - 0.5 * f - 0.5 * g + 0.25 * e * f + 0.25 * e * g
    )


def reference_symbol_form(i, u):
    """Oracle: symbol ``i``'s closed form with all twelve erfc terms written out.

    Each coefficient is derived from its own sender point, without the
    mirror symmetry the program uses to share terms between symbols.
    """
    erfc = math.erfc
    c = QAM16_CIRC_GRID[REPRESENTATIVE_SYMBOLS[i]]
    if i == 0:
        p = 0.25 * erfc((c.real + 2.0) * u) * erfc((2.0 - c.imag) * u)
    elif i == 1:
        p = 0.5 * erfc((c.real + 2.0) * u) * (
            1.0 - 0.5 * erfc(c.imag * u) - 0.5 * erfc((2.0 - c.imag) * u)
        )
    elif i == 2:
        p = (1.0 - 0.5 * erfc((c.real + 2.0) * u) - 0.5 * erfc(-c.real * u)) * (
            1.0 - 0.5 * erfc(c.imag * u) - 0.5 * erfc((2.0 - c.imag) * u)
        )
    else:
        p = 0.5 * erfc((2.0 - c.imag) * u) * (
            1.0 - 0.5 * erfc((c.real + 2.0) * u) - 0.5 * erfc(-c.real * u)
        )
    return min(max(p, 0.0), 1.0)


def grid_with_limits(step):
    """SnrPoints of 0..25 dB at ``step`` plus Es/N0 = 0 and inf."""
    points = [SnrPoint.from_db(s) for s in snr_grid_db(0, 25, step)]
    return points + [SnrPoint(0.0), SnrPoint(math.inf)]


class TestErfc:
    """``math.erfc``, which the closed forms and the interval kernel call."""

    def test_at_zero(self):
        assert math.erfc(0.0) == 1.0

    def test_at_one_frozen(self):
        assert math.erfc(1.0) == pytest.approx(ERFC_ONE, rel=1e-12)

    def test_far_tail_underflows_cleanly(self):
        assert 0.0 <= math.erfc(40.0) < 1e-300

    def test_against_mpmath_grid(self):
        mpmath.mp.dps = 40
        for x in np.linspace(-6.0, 6.0, 121):
            reference = float(mpmath.erfc(mpmath.mpf(float(x))))
            if reference != 0.0:
                assert abs(math.erfc(float(x)) - reference) / reference <= 1e-12

    def test_reflection_identity(self):
        for x in np.linspace(-5.0, 5.0, 101):
            assert math.erfc(-float(x)) == pytest.approx(
                2.0 - math.erfc(float(x)), abs=1e-12
            )


class TestSnrPoint:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SnrPoint(-0.1)

    def test_from_db(self):
        assert SnrPoint.from_db(10.0).es_over_n0 == pytest.approx(10.0)
        assert SnrPoint.from_db(0.0).u == pytest.approx(math.sqrt(0.1))

    @pytest.mark.parametrize("value", [True, False, "1", None, 1j, [1.0]])
    def test_rejects_non_numbers(self, value):
        with pytest.raises(ValueError, match="^Es/N0 must be a real number"):
            SnrPoint(value)

    @pytest.mark.parametrize("value", [2, 2.0, np.float32(2.0), np.int64(2)])
    def test_accepts_real_numbers(self, value):
        assert SnrPoint(value).es_over_n0 == 2
        assert type(SnrPoint(value).es_over_n0) is float

    @pytest.mark.parametrize("value", [np.float32(3.1), np.float16(3.1)])
    def test_narrow_float_widened_exactly(self, value):
        # Float32 arithmetic in the noise scale would give
        # 0.022396780594229594 at np.float32(3.1).
        point, wide = SnrPoint(value), SnrPoint(float(value))
        assert type(point.es_over_n0) is float and point == wide
        tx = circular_tx_point(0b0101)
        for call in (
            p_correct_total,
            p_correct_all_symbols,
            lambda snr: p_correct_numeric(tx, 0b0101, snr),
        ):
            assert call(point) == call(wide)
        if value.dtype == np.float32:
            assert p_correct_all_symbols(point) == 0.0223967801519767

    def test_integer_beyond_float64_is_infinite(self):
        point = SnrPoint(10**400)
        assert point.es_over_n0 == math.inf and point.u == math.inf
        noiseless = SnrPoint(math.inf)
        tx = circular_tx_point(0b0101)
        assert p_correct_total(point) == p_correct_total(noiseless)
        assert p_correct_all_symbols(point) == p_correct_all_symbols(noiseless)
        assert p_correct_numeric(tx, 0b0101, point) == p_correct_numeric(
            tx, 0b0101, noiseless
        )

    def test_negative_integer_beyond_float64_refused(self):
        with pytest.raises(ValueError, match=r"^Es/N0 must be >= 0, got -inf$"):
            SnrPoint(-(10**400))

    def test_sweep_refuses_nan_db(self):
        with pytest.raises(ValueError, match=r"^Es/N0 must be >= 0, got nan$"):
            sweep([0.0, math.nan])

    @pytest.mark.parametrize("value", [True, False, "10", None, 1j, [1.0]])
    def test_from_db_rejects_non_numbers(self, value):
        with pytest.raises(ValueError, match="^snr_db must be a real number"):
            SnrPoint.from_db(value)

    @pytest.mark.parametrize("value", [True, "10", None])
    def test_sweep_rejects_non_numbers(self, value):
        with pytest.raises(ValueError, match="^snr_db must be a real number"):
            sweep([0.0, value])

    @pytest.mark.parametrize("value", [10, 10.0, np.float32(10.0), np.int64(10)])
    def test_db_entry_points_accept_real_numbers(self, value):
        assert SnrPoint.from_db(value) == SnrPoint.from_db(10.0)
        assert sweep([value]) == sweep([10.0])

    @pytest.mark.parametrize(
        "snr_db, es_over_n0",
        [
            (-(10**400), 0.0),
            (10**400, math.inf),
            (-4000.0, 0.0),
            (4000.0, math.inf),
            (-math.inf, 0.0),
            (math.inf, math.inf),
        ],
        ids=["int-below-float64", "int-above-float64", "-4000", "4000", "-inf", "inf"],
    )
    def test_from_db_beyond_float64(self, snr_db, es_over_n0):
        assert SnrPoint.from_db(snr_db).es_over_n0 == es_over_n0

    def test_sweep_reads_integers_beyond_float64_as_infinite_db(self):
        rows = sweep([-(10**400), 10**400])
        assert rows == sweep([-math.inf, math.inf])
        assert [row[0] for row in rows] == [-math.inf, math.inf]
        assert [row[1] for row in rows] == [
            p_correct_total(SnrPoint(0.0)),
            p_correct_total(SnrPoint(math.inf)),
        ]

    @pytest.mark.parametrize(
        "call",
        [
            lambda snr: p_correct_symbol(0, snr),
            p_correct_total,
            p_correct_all_symbols,
            lambda snr: p_correct_numeric(circular_tx_point(0), 0, snr),
        ],
        ids=[
            "p_correct_symbol",
            "p_correct_total",
            "p_correct_all_symbols",
            "p_correct_numeric",
        ],
    )
    def test_float_snr_refused(self, call):
        # A bare number is not read as linear Es/N0: every SNR in the CLI
        # and configs is in dB, so a float here is a likely unit mistake.
        with pytest.raises(AttributeError):
            call(10.0)


def sender_and_label(i):
    value = REPRESENTATIVE_SYMBOLS[i]
    return circular_tx_point(value), value


class TestPerSymbolForms:
    @pytest.mark.parametrize("i", range(4))
    def test_matches_erfc_interval_oracle_everywhere(self, i):
        tx, value = sender_and_label(i)
        for snr_db in snr_grid_db(0, 25, 0.5):
            point = SnrPoint.from_db(snr_db)
            closed = p_correct_symbol(i, point)
            oracle = p_correct_numeric(tx, value, point)
            assert abs(closed - oracle) <= 1e-9, (i, snr_db)

    @pytest.mark.parametrize("i", range(4))
    def test_matches_quadrature_oracle(self, i):
        tx, value = sender_and_label(i)
        for snr_db in (0.0, 5.0, 10.0):
            n0 = 1.0 / SnrPoint.from_db(snr_db).es_over_n0
            closed = p_correct_symbol(i, SnrPoint.from_db(snr_db))
            assert closed == pytest.approx(quad_region(tx, value, n0), abs=1e-10)

    def test_symbol_labels(self):
        assert REPRESENTATIVE_SYMBOLS == (0b0000, 0b0100, 0b0101, 0b0001)

    def test_outer_corner_vanishes_at_high_snr(self):
        # u = 50 corresponds to Es/N0 = 25000.
        assert p_correct_symbol(0, SnrPoint(25000.0)) == 0.0

    def test_inner_symbol_zero_at_zero_snr(self):
        assert p_correct_symbol(2, SnrPoint(0.0)) == 0.0

    def test_side_symbol_frozen_at_0db(self):
        # Frozen from the quadrature oracle over re < -2a, 0 < im < 2a
        # centered at (3.69a, -1.53a).
        got = p_correct_symbol(1, SnrPoint.from_db(0.0))
        assert got == pytest.approx(1.0375866903043587e-03, rel=1e-12)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            p_correct_symbol(4, SnrPoint(1.0))

    @pytest.mark.parametrize("i", range(4))
    def test_equals_twelve_term_reference_exactly(self, i):
        for point in grid_with_limits(0.01) + [SnrPoint.from_db(-40.0)]:
            assert p_correct_symbol(i, point) == reference_symbol_form(i, point.u), point


class TestCheckProb:
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_in_range_returned_as_is(self, p):
        assert _check_prob(p, "x") is p

    def test_negative_zero_kept(self):
        assert math.copysign(1.0, _check_prob(-0.0, "x")) == -1.0

    @pytest.mark.parametrize(
        "p, clamped", [(-1e-12, 0.0), (-1e-300, 0.0), (1.0 + 1e-12, 1.0)]
    )
    def test_clamps_within_tolerance(self, p, clamped):
        got = _check_prob(p, "x")
        assert got == clamped and math.copysign(1.0, got) == 1.0

    @pytest.mark.parametrize("p", [-1e-11, 1.0 + 1e-11, -math.inf, math.inf, math.nan])
    def test_raises_beyond_tolerance_and_on_nan(self, p):
        with pytest.raises(ConsistencyError, match="^symbol 2 evaluated outside"):
            _check_prob(p, "symbol 2")


# The integer rule applies to labels and indices: an int, a numpy integer
# or an integral float is accepted, and anything else, bools included, is
# refused with a ValueError naming the argument.
LABEL_CALLS = {
    "p_correct_symbol": (
        lambda v: p_correct_symbol(v, SnrPoint(1.0)),
        "representative symbol index",
    ),
    "p_correct_numeric": (
        lambda v: p_correct_numeric(0j, v, SnrPoint(1.0)),
        "bit value",
    ),
    "circular_tx_point": (circular_tx_point, "bit value"),
}


class TestLabelArguments:
    @pytest.mark.parametrize("value", [True, False, 1.5, "3", None])
    @pytest.mark.parametrize("name", LABEL_CALLS)
    def test_refused(self, name, value):
        call, argument = LABEL_CALLS[name]
        with pytest.raises(ValueError, match=f"^{argument} must be an integer"):
            call(value)

    @pytest.mark.parametrize("value", [1.0, np.int64(1), np.uint8(1)])
    @pytest.mark.parametrize("name", LABEL_CALLS)
    def test_integral_values_accepted(self, name, value):
        call, _ = LABEL_CALLS[name]
        assert call(value) == call(1)


class TestAggregate:
    def test_frozen_headline_values(self):
        assert p_correct_total(SnrPoint.from_db(0.0)) == pytest.approx(
            0.013600836289902014, rel=1e-12
        )
        assert p_correct_total(SnrPoint.from_db(10.0)) == pytest.approx(
            1.6349218838681854e-04, rel=1e-12
        )

    def test_equals_mean_of_symbol_forms(self):
        for point in grid_with_limits(0.01):
            mean = sum(p_correct_symbol(i, point) for i in range(4)) / 4
            assert p_correct_total(point) == mean, point

    def test_vanishes_at_extreme_snr(self):
        assert p_correct_total(SnrPoint.from_db(200.0)) == 0.0

    def test_strictly_decreasing_on_grid(self):
        values = [p_correct_total(SnrPoint.from_db(db)) for db in snr_grid_db(0, 25, 0.5)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_matches_expanded_polynomial_on_grid(self):
        for snr_db in snr_grid_db(0, 25, 0.01):
            point = SnrPoint.from_db(snr_db)
            assert abs(p_correct_total(point) - expanded_total(point.u)) <= 1e-9, snr_db

    @settings(deadline=None, max_examples=200)
    @given(snr_db=st.floats(-40.0, 60.0))
    def test_matches_expanded_polynomial_property(self, snr_db):
        point = SnrPoint.from_db(snr_db)
        assert abs(p_correct_total(point) - expanded_total(point.u)) <= 1e-9

    def test_matches_numeric_oracle_on_grid(self):
        for snr_db in snr_grid_db(0, 25, 0.5):
            point = SnrPoint.from_db(snr_db)
            oracle = sum(
                p_correct_numeric(*sender_and_label(i), point) for i in range(4)
            ) / 4
            assert abs(p_correct_total(point) - oracle) <= 1e-9, snr_db


class TestNumericOracle:
    def test_half_plane_through_mean(self):
        # Label 0b0101 owns -2a < re < 0, 0 < im < 2a. Without noise, a
        # sender on an edge of its cell keeps half of that axis.
        noiseless = SnrPoint(math.inf)
        assert p_correct_numeric(0j, 0b0101, noiseless) == 0.25
        assert p_correct_numeric(complex(-A, 0.0), 0b0101, noiseless) == 0.5

    @pytest.mark.parametrize(
        "tx, snr",
        [
            (complex(math.nan, 0.0), SnrPoint(1.0)),
            (complex(math.inf, 0.0), SnrPoint(0.0)),
            (complex(0.0, -math.inf), SnrPoint(1.0)),
            (complex(math.nan, 0.0), SnrPoint(math.inf)),
        ],
        ids=[
            "nan_point",
            "infinite_point_infinite_noise",
            "infinite_point",
            "nan_point_no_noise",
        ],
    )
    def test_rejects_nan_erfc_argument(self, tx, snr):
        # (lo - mean) * q is NaN for a NaN mean, and for an infinite mean
        # at q = 1/sqrt(N0) = 0, and at q = inf a NaN mean is neither inside
        # nor on an edge; no such point may come back as a probability.
        with pytest.raises(ValueError, match="sender point must be finite"):
            p_correct_numeric(tx, 0b0101, snr)

    @pytest.mark.parametrize("tx", [True, False, "1", None, [1.0]])
    def test_rejects_non_number_point(self, tx):
        with pytest.raises(ValueError, match="^sender point must be a number"):
            p_correct_numeric(tx, 0b0101, SnrPoint(1.0))

    @pytest.mark.parametrize("tx", [10**400, -(10**400)], ids=["above", "below"])
    def test_rejects_integer_point_beyond_float64(self, tx):
        with pytest.raises(ValueError, match="^sender point must be finite"):
            p_correct_numeric(tx, 0b0101, SnrPoint(1.0))

    def test_point_read_as_python_complex(self):
        tx = circular_tx_point(0b0101)
        narrow = np.complex64(tx)
        point = SnrPoint.from_db(5.0)
        assert p_correct_numeric(narrow, 0b0101, point) == p_correct_numeric(
            complex(narrow), 0b0101, point
        )
        for real in (1, np.int64(1), np.float32(1.0)):
            assert p_correct_numeric(real, 0b0101, point) == p_correct_numeric(
                1 + 0j, 0b0101, point
            )

    def test_outer_corner_definitional_equality(self):
        tx, value = sender_and_label(0)
        for snr_db in (0.0, 10.0):
            point = SnrPoint.from_db(snr_db)
            closed = p_correct_symbol(0, point)
            numeric = p_correct_numeric(tx, value, point)
            assert abs(closed - numeric) <= 1e-12

    def test_matches_quadrature_on_bounded_cell(self):
        tx = circular_tx_point(0b0101)
        assert p_correct_numeric(tx, 0b0101, SnrPoint(4.0)) == pytest.approx(
            quad_region(tx, 0b0101, 0.25), abs=1e-11
        )


class TestGeometryHelpers:
    def test_regions_tile_axes(self):
        # Without noise, each cell holds exactly its own grid point and no
        # other one.
        for w, grid_point in enumerate(QAM16_RECT_GRID):
            for v in range(16):
                got = p_correct_numeric(grid_point * A, v, SnrPoint(math.inf))
                assert got == (1.0 if w == v else 0.0), (w, v)

    def test_region_of_grid_corner(self):
        # Grid corner -3a + 3a j owns re < -2a, im > 2a: a sender on both
        # edges is inside each half-line with probability 1/2 at any SNR.
        for snr in (SnrPoint(0.0), SnrPoint(1.0), SnrPoint(1e3), SnrPoint(math.inf)):
            assert p_correct_numeric(complex(-2 * A, 2 * A), 0b0000, snr) == 0.25

    def test_circular_point_table(self):
        assert circular_tx_point(0b0000) == pytest.approx((1.53 - 3.69j) * A)
        assert circular_tx_point(0b0101) == pytest.approx((1.84 - 0.76j) * A)

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            p_correct_numeric(0j, 16, SnrPoint(1.0))
        with pytest.raises(ValueError):
            circular_tx_point(-1)


class TestIntervalPlan:
    def test_all_symbols_plan_counts(self):
        # 20 distinct terms: 5 open below, 5 open above, 10 two-sided, and
        # each of the 32 label entries is one of them.
        terms = analytic._AXIS_TERMS
        kinds = [
            sum(lo == -math.inf for _, lo, _ in terms),
            sum(hi == math.inf for _, _, hi in terms),
            sum(math.isfinite(lo) and math.isfinite(hi) for _, lo, hi in terms),
        ]
        assert len(terms) == len(set(terms)) == 20
        assert kinds == [5, 5, 10]
        entries = [entry for cell in analytic._ALL_SYMBOL_CELLS for entry in cell]
        assert len(entries) == 32
        assert [terms[k] for label in analytic._LABEL_TERMS for k in label] == entries

    def test_equals_term_by_term_formula(self):
        # Each term is the float of its own interval formula.
        terms = analytic._AXIS_TERMS
        for point in grid_with_limits(0.5):
            q = analytic._noise_scale(point)
            if q == math.inf:
                continue
            for scale in (1.0, 1.002001):
                got = analytic._interval_probabilities(terms, scale, q)
                for (c, lo, hi), p in zip(terms, got):
                    mean = c * scale
                    if lo == -math.inf:
                        want = 0.5 * math.erfc((mean - hi) * q)
                    elif hi == math.inf:
                        want = 0.5 * math.erfc((lo - mean) * q)
                    else:
                        want = 0.5 * (math.erfc((lo - mean) * q) - math.erfc((hi - mean) * q))
                        want = max(want, 0.0)
                    assert p.hex() == want.hex(), (point, scale, c, lo, hi)


class TestAllSymbolsAverage:
    def test_matches_quadrature_at_0db(self):
        # Wide-noise semi-infinite integrals carry conservative quad error
        # estimates (up to ~5e-9 each), so the aggregate is compared at 5e-8.
        n0 = 1.0
        oracle = sum(
            quad_region_loose(circular_tx_point(v), v, n0)
            for v in range(16)
        ) / 16
        assert p_correct_all_symbols(SnrPoint.from_db(0.0)) == pytest.approx(
            oracle, abs=5e-8
        )

    def test_exceeds_representative_mean(self):
        # The full-alphabet average counts the symbols whose sent point lies
        # inside its own decision cell's half-planes, so it dominates the
        # four-symbol mean.
        point = SnrPoint.from_db(5.0)
        assert p_correct_all_symbols(point) > p_correct_total(point)

    def test_zero_snr_limit(self):
        # Infinite noise leaves mass only in the four unbounded corner
        # cells, a quarter each: average 4 * (1/4) / 16.
        assert p_correct_all_symbols(SnrPoint(0.0)) == pytest.approx(1 / 16)

    def test_point_scale_shifts_result(self):
        point = SnrPoint.from_db(0.0)
        assert p_correct_all_symbols(point, point_scale=1.002001) != pytest.approx(
            p_correct_all_symbols(point), rel=1e-9
        )

    @pytest.mark.parametrize("scale", [1.0, 1.002001])
    def test_equals_per_symbol_route_exactly(self, scale):
        # The constant-geometry sum must give the very float of the public
        # per-symbol route: same interval expressions, same summation order.
        for point in grid_with_limits(0.01):
            explicit = sum(
                p_correct_numeric(circular_tx_point(v) * scale, v, point)
                for v in range(16)
            ) / 16
            assert p_correct_all_symbols(point, point_scale=scale) == explicit, point

    def test_rejects_unusable_inputs(self):
        for scale in (math.nan, math.inf, -math.inf, 2**2000, -(2**2000)):
            with pytest.raises(ValueError, match="^point scale must be finite"):
                p_correct_all_symbols(SnrPoint.from_db(5.0), point_scale=scale)

    @pytest.mark.parametrize("scale", [True, False, "1", None, 1j])
    def test_rejects_non_number_scale(self, scale):
        with pytest.raises(ValueError, match="^point scale must be a real number"):
            p_correct_all_symbols(SnrPoint.from_db(5.0), point_scale=scale)

    @pytest.mark.parametrize("scale", [1, np.float32(1.0), np.int64(1), np.float64(1.0)])
    def test_scale_read_as_float(self, scale):
        # Float32 arithmetic would give 0.022119868045352785 at 5 dB.
        point = SnrPoint.from_db(5.0)
        assert p_correct_all_symbols(point, point_scale=scale) == 0.02211986891026664

    @pytest.mark.parametrize("scale, limit", [(1.0, 0.0), (0.0, 0.0625)])
    def test_infinite_snr_is_noiseless_limit(self, scale, limit):
        # At scale 0 every sender point sits on the grid's 0 edges, so each
        # inner cell keeps half of each axis: 4 * (1/2 * 1/2) / 16.
        at_inf = p_correct_all_symbols(SnrPoint.from_db(4000), point_scale=scale)
        assert at_inf == p_correct_all_symbols(SnrPoint(1e300), point_scale=scale)
        assert at_inf == limit


class TestSweep:
    def test_error_is_complement(self):
        rows = sweep(snr_grid_db(0, 25, 0.5))
        assert len(rows) == 51
        for snr_db, p_correct, p_error in rows:
            assert p_error == pytest.approx(1.0 - p_correct, abs=1e-15)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            snr_grid_db(0, 10, 0.0)
        with pytest.raises(ValueError):
            snr_grid_db(0, 10, 3.0)
        # The span overflows to -inf; it is refused before it is rounded.
        with pytest.raises(ValueError, match=r"^step 1\.0 does not divide \[1e\+308, -1e\+308\]$"):
            snr_grid_db(1e308, -1e308, 1)
        for args, name in [
            ((0, 10, math.inf), "step"),
            ((0, 10, math.nan), "step"),
            ((0, math.inf, 1), "stop"),
            ((0, -math.inf, 1), "stop"),
            ((math.nan, 10, 1), "start"),
            ((-math.inf, 10, 1), "start"),
        ]:
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                snr_grid_db(*args)
        assert snr_grid_db(0, 25, 0.5)[-1] == 25.0

    def test_point_count_is_bounded(self):
        # Refused before the list is built: 1e-9 asks for 2.5e10 points.
        for step in (1e-9, 1e-300):
            with pytest.raises(ValueError, match=f"step {step} gives more than"):
                snr_grid_db(0, 25, step)
        with pytest.raises(ValueError, match="more than 1000000 points"):
            snr_grid_db(0, 1_000_000, 1)
        assert len(snr_grid_db(0, 999_999, 1)) == 1_000_000

    @pytest.mark.parametrize(
        "args, name",
        [
            ((False, True, True), "start"),
            ((0.0, "10", 1.0), "stop"),
            ((0.0, 10.0, None), "step"),
        ],
    )
    def test_grid_refuses_bools_and_non_numbers(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be a real number"):
            snr_grid_db(*args)

    def test_grid_reads_integers_beyond_float64_as_infinite(self):
        with pytest.raises(ValueError, match="^stop must be finite, got inf"):
            snr_grid_db(0, 10**400, 1)
        with pytest.raises(ValueError, match="^start must be finite, got -inf"):
            snr_grid_db(-(10**400), 0, 1)
        assert snr_grid_db(np.int64(0), 2, np.float32(0.5)) == [0.0, 0.5, 1.0, 1.5, 2.0]


# Golden floats of the analytic outputs, as float.hex, taken at 0.12.0.
# A faster kernel must keep every one; a change here changes an output.
GOLDEN_DB = (-10.0, 0.0, 7.9, 10.0, 25.0, 4000.0)
GOLDEN_GAIN = "0x1.0083230a6d410p+0"


class TestGoldenValues:
    def test_operational_gain(self):
        # The unit-energy two-ring point over its nominal table point.
        circ = make_standard_scheme("qam16_circ")
        gain = abs(circ.points[0]) / abs(circular_tx_point(0))
        assert gain.hex() == GOLDEN_GAIN

    def test_sweep(self):
        rows = sweep(GOLDEN_DB)
        assert [row[0] for row in rows] == list(GOLDEN_DB)
        assert [(row[1].hex(), row[2].hex()) for row in rows] == [
            ("0x1.0b5f741001604p-5", "0x1.ef4a08beffea0p-1"),
            ("0x1.bdac15881cceap-7", "0x1.f9094fa9df8ccp-1"),
            ("0x1.0a7f487fdb4eep-10", "0x1.ff7ac05bc0126p-1"),
            ("0x1.56de3345d1b9dp-13", "0x1.ffea921ccba2ep-1"),
            ("0x1.a1b9b5c1b4688p-712", "0x1.0000000000000p+0"),
            ("0x0.0p+0", "0x1.0000000000000p+0"),
        ]

    @pytest.mark.parametrize(
        "scale, expected",
        [
            (
                "0x1.0000000000000p+0",
                [
                    "0x1.9c9d828c996edp-5",
                    "0x1.1cda00c0a5f93p-5",
                    "0x1.a9c12f071d74bp-7",
                    "0x1.ff3511310681cp-8",
                    "0x1.4fcd3a29fa9adp-37",
                    "0x0.0p+0",
                ],
            ),
            (
                GOLDEN_GAIN,
                [
                    "0x1.9c71a99ce7ae0p-5",
                    "0x1.1c9a5f8d58cc6p-5",
                    "0x1.a975a3171f065p-7",
                    "0x1.ff5eb94584352p-8",
                    "0x1.47c08897a52fap-37",
                    "0x0.0p+0",
                ],
            ),
        ],
        ids=["scale-1", "operational-gain"],
    )
    def test_all_symbols(self, scale, expected):
        scale = float.fromhex(scale)
        got = [
            p_correct_all_symbols(SnrPoint.from_db(d), point_scale=scale).hex()
            for d in GOLDEN_DB
        ]
        assert got == expected

    def test_grid_digests(self):
        # sha256 of repr() over the 0..25 dB grid at step 0.0025 (10,001 points).
        grid = snr_grid_db(0, 25, 0.0025)
        points = [SnrPoint.from_db(d) for d in grid]

        def digest(values):
            return hashlib.sha256(repr(values).encode()).hexdigest()

        assert digest(sweep(grid)) == (
            "084e080fc4fe291b1cfe1d401948e6be696595228c599e12f98f003a2ea244ea"
        )
        for scale, expected in (
            (1.0, "59fd06c2052cc87084c9fc4f013b8ca4b760878f969cf4f85c84499c1367ab23"),
            (
                float.fromhex(GOLDEN_GAIN),
                "81f7c66d90e15eee0526a16497483bcf28f042f9488e74ae882212a71806930a",
            ),
        ):
            values = [p_correct_all_symbols(p, point_scale=scale) for p in points]
            assert digest(values) == expected, scale

    def test_numeric_oracle_digest(self):
        # sha256 of repr() over every (sender label, decoded label) pair at
        # both scales, the golden dB points and the Es/N0 = 0 and inf limits.
        points = [SnrPoint.from_db(d) for d in GOLDEN_DB] + [SnrPoint(0.0), SnrPoint(math.inf)]
        values = [
            p_correct_numeric(circular_tx_point(v) * s, w, snr)
            for s in (1.0, float.fromhex(GOLDEN_GAIN))
            for snr in points
            for v in range(16)
            for w in range(16)
        ]
        assert len(values) == 4096
        assert hashlib.sha256(repr(values).encode()).hexdigest() == (
            "06b1765363d669788034c6cea0fdaa0dd442ee75646db8e5c223198cdcc71486"
        )
