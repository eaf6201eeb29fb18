"""Closed-form decode probabilities against independent oracles."""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from keyedmod.analytic import (
    REPRESENTATIVE_SYMBOLS,
    Region,
    SnrPoint,
    SymbolCondProb,
    circular_tx_point,
    erfc,
    p_correct_all_symbols,
    p_correct_numeric,
    p_correct_symbol,
    p_correct_total,
    rect_decision_region,
    snr_grid_db,
    sweep,
)

A = math.sqrt(1.0 / 10.0)

# Frozen reference: mpmath.erfc(1) at 40 digits.
ERFC_ONE = 0.15729920705028513


def quad_interval(lo, hi, mean, n0):
    """Oracle: adaptive quadrature of the Gaussian density over [lo, hi]."""
    pdf = lambda y: math.exp(-((y - mean) ** 2) / n0) / math.sqrt(math.pi * n0)
    value, err = integrate.quad(pdf, lo, hi, epsabs=1e-13, limit=200)
    assert err < 5e-10
    return value


def quad_region(tx, region, n0):
    return quad_interval(region.re_lo, region.re_hi, tx.real, n0) * quad_interval(
        region.im_lo, region.im_hi, tx.imag, n0
    )


def quad_interval_loose(lo, hi, mean, n0):
    pdf = lambda y: math.exp(-((y - mean) ** 2) / n0) / math.sqrt(math.pi * n0)
    value, err = integrate.quad(pdf, lo, hi, epsabs=1e-13, limit=200)
    assert err < 1e-8
    return value


def quad_region_loose(tx, region, n0):
    return quad_interval_loose(
        region.re_lo, region.re_hi, tx.real, n0
    ) * quad_interval_loose(region.im_lo, region.im_hi, tx.imag, n0)


class TestErfc:
    def test_at_zero(self):
        assert erfc(0.0) == 1.0

    def test_at_one_frozen(self):
        assert erfc(1.0) == pytest.approx(ERFC_ONE, rel=1e-12)

    def test_far_tail_underflows_cleanly(self):
        assert 0.0 <= erfc(40.0) < 1e-300

    def test_against_mpmath_grid(self):
        mpmath.mp.dps = 40
        for x in np.linspace(-6.0, 6.0, 121):
            reference = float(mpmath.erfc(mpmath.mpf(float(x))))
            if reference != 0.0:
                assert abs(erfc(float(x)) - reference) / reference <= 1e-12

    def test_reflection_identity(self):
        for x in np.linspace(-5.0, 5.0, 101):
            assert erfc(-float(x)) == pytest.approx(2.0 - erfc(float(x)), abs=1e-12)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            erfc(math.nan)


class TestSnrPoint:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SnrPoint(-0.1)

    def test_from_db(self):
        assert SnrPoint.from_db(10.0).es_over_n0 == pytest.approx(10.0)
        assert SnrPoint.from_db(0.0).u == pytest.approx(math.sqrt(0.1))

    def test_prob_range_enforced(self):
        with pytest.raises(ValueError):
            SymbolCondProb(symbol=0, prob_correct=1.5)


def region_mean_pair(i):
    value = REPRESENTATIVE_SYMBOLS[i]
    return circular_tx_point(value), rect_decision_region(value)


class TestPerSymbolForms:
    @pytest.mark.parametrize("i", range(4))
    def test_matches_erfc_interval_oracle_everywhere(self, i):
        tx, region = region_mean_pair(i)
        for snr_db in snr_grid_db(0, 25, 0.5):
            point = SnrPoint.from_db(snr_db)
            closed = p_correct_symbol(i, point).prob_correct
            oracle = p_correct_numeric(tx, region, 1.0 / point.es_over_n0)
            assert abs(closed - oracle) <= 1e-9, (i, snr_db)

    @pytest.mark.parametrize("i", range(4))
    def test_matches_quadrature_oracle(self, i):
        tx, region = region_mean_pair(i)
        for snr_db in (0.0, 5.0, 10.0):
            n0 = 1.0 / SnrPoint.from_db(snr_db).es_over_n0
            closed = p_correct_symbol(i, SnrPoint.from_db(snr_db)).prob_correct
            assert closed == pytest.approx(quad_region(tx, region, n0), abs=1e-10)

    def test_symbol_labels(self):
        assert [p_correct_symbol(i, SnrPoint(1.0)).symbol for i in range(4)] == [
            0b0000,
            0b0100,
            0b0101,
            0b0001,
        ]

    def test_outer_corner_vanishes_at_high_snr(self):
        # u = 50 corresponds to Es/N0 = 25000.
        assert p_correct_symbol(0, SnrPoint(25000.0)).prob_correct == 0.0

    def test_inner_symbol_zero_at_zero_snr(self):
        assert p_correct_symbol(2, SnrPoint(0.0)).prob_correct == 0.0

    def test_side_symbol_frozen_at_0db(self):
        # Frozen from the quadrature oracle over re < -2a, 0 < im < 2a
        # centered at (3.69a, -1.53a).
        got = p_correct_symbol(1, SnrPoint.from_db(0.0)).prob_correct
        assert got == pytest.approx(1.0375866903043587e-03, rel=1e-12)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            p_correct_symbol(4, SnrPoint(1.0))


class TestAggregate:
    def test_frozen_headline_values(self):
        assert p_correct_total(SnrPoint.from_db(0.0)) == pytest.approx(
            0.013600836289902014, rel=1e-12
        )
        assert p_correct_total(SnrPoint.from_db(10.0)) == pytest.approx(
            1.6349218838681854e-04, rel=1e-12
        )

    def test_equals_mean_of_symbol_forms(self):
        for snr_db in (0.0, 7.5, 14.0):
            point = SnrPoint.from_db(snr_db)
            mean = sum(p_correct_symbol(i, point).prob_correct for i in range(4)) / 4
            assert p_correct_total(point) == pytest.approx(mean, rel=1e-12)

    def test_vanishes_at_extreme_snr(self):
        assert p_correct_total(SnrPoint.from_db(200.0)) == 0.0

    def test_strictly_decreasing_on_grid(self):
        values = [p_correct_total(SnrPoint.from_db(db)) for db in snr_grid_db(0, 25, 0.5)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_matches_numeric_oracle_on_grid(self):
        for snr_db in snr_grid_db(0, 25, 0.5):
            point = SnrPoint.from_db(snr_db)
            n0 = 1.0 / point.es_over_n0
            oracle = sum(
                p_correct_numeric(*region_mean_pair(i), n0) for i in range(4)
            ) / 4
            assert abs(p_correct_total(point) - oracle) <= 1e-9, snr_db


class TestNumericOracle:
    def test_whole_plane(self):
        region = Region(-math.inf, math.inf, -math.inf, math.inf)
        assert p_correct_numeric(0.3 - 0.7j, region, 0.5) == 1.0

    def test_half_plane_through_mean(self):
        region = Region(0.3, math.inf, -math.inf, math.inf)
        assert p_correct_numeric(0.3 - 0.7j, region, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_degenerate_region_is_zero(self):
        region = Region(0.1, 0.1, -1.0, 1.0)
        assert p_correct_numeric(0.0j, region, 1.0) == 0.0

    def test_unordered_bounds_rejected(self):
        with pytest.raises(ValueError, match="out of order"):
            Region(1.0, -1.0, 0.0, 1.0)

    def test_rejects_bad_noise_density(self):
        with pytest.raises(ValueError):
            p_correct_numeric(0j, Region(0, 1, 0, 1), 0.0)

    @pytest.mark.parametrize(
        "tx, n0",
        [(complex(math.nan, 0.0), 1.0), (complex(math.inf, 0.0), math.inf)],
        ids=["nan_point", "infinite_point_infinite_noise"],
    )
    def test_rejects_nan_erfc_argument(self, tx, n0):
        # (lo - mean) * q is NaN for a NaN mean, and for an infinite mean
        # at q = 1/sqrt(N0) = 0; neither may come back as a probability.
        with pytest.raises(ValueError):
            p_correct_numeric(tx, rect_decision_region(0b0101), n0)

    def test_outer_corner_definitional_equality(self):
        tx, region = region_mean_pair(0)
        for snr_db in (0.0, 10.0):
            point = SnrPoint.from_db(snr_db)
            closed = p_correct_symbol(0, point).prob_correct
            numeric = p_correct_numeric(tx, region, 1.0 / point.es_over_n0)
            assert abs(closed - numeric) <= 1e-12

    def test_matches_quadrature_on_bounded_cell(self):
        region = rect_decision_region(0b0101)
        tx = circular_tx_point(0b0101)
        assert p_correct_numeric(tx, region, 0.25) == pytest.approx(
            quad_region(tx, region, 0.25), abs=1e-11
        )


class TestGeometryHelpers:
    def test_regions_tile_axes(self):
        for value in range(16):
            region = rect_decision_region(value)
            assert region.re_lo < region.re_hi
            assert region.im_lo < region.im_hi

    def test_region_of_grid_corner(self):
        region = rect_decision_region(0b0000)
        assert region.re_hi == pytest.approx(-2 * A)
        assert region.im_lo == pytest.approx(2 * A)
        assert math.isinf(region.re_lo) and math.isinf(region.im_hi)

    def test_circular_point_table(self):
        assert circular_tx_point(0b0000) == pytest.approx((1.53 - 3.69j) * A)
        assert circular_tx_point(0b0101, es=10.0) == pytest.approx(1.84 - 0.76j)

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            rect_decision_region(16)
        with pytest.raises(ValueError):
            circular_tx_point(-1)


class TestAllSymbolsAverage:
    def test_matches_quadrature_at_0db(self):
        # Wide-noise semi-infinite integrals carry conservative quad error
        # estimates (up to ~5e-9 each), so the aggregate is compared at 5e-8.
        n0 = 1.0
        oracle = sum(
            quad_region_loose(circular_tx_point(v), rect_decision_region(v), n0)
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
        points = [SnrPoint.from_db(s) for s in snr_grid_db(0, 25, 0.01)]
        points.append(SnrPoint(0.0))
        for point in points:
            n0 = math.inf if point.es_over_n0 == 0 else 1.0 / point.es_over_n0
            explicit = sum(
                p_correct_numeric(
                    circular_tx_point(v) * scale, rect_decision_region(v), n0
                )
                for v in range(16)
            ) / 16
            assert p_correct_all_symbols(point, point_scale=scale) == explicit, point

    def test_rejects_unusable_inputs(self):
        for scale in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="point scale"):
                p_correct_all_symbols(SnrPoint.from_db(5.0), point_scale=scale)
        # Infinite Es/N0 means N0 = 0, which p_correct_numeric refuses too.
        with pytest.raises(ValueError, match="noise density"):
            p_correct_all_symbols(SnrPoint(math.inf))


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
