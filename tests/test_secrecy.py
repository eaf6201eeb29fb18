"""Keyspace, unicity, permanent, and exact perfect-secrecy checks."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from keyedmod.secrecy import (
    _RYSER_BLOCK_BITS,
    MAX_PERMANENT_DIM,
    keyspace_report,
    permanent,
    unicity,
    verify_perfect_secrecy,
)


def naive_permanent(matrix) -> int:
    """Oracle: direct sum over all permutations."""
    arr = np.asarray(matrix)
    n = arr.shape[0]
    total = 0
    for sigma in itertools.permutations(range(n)):
        product = 1
        for i in range(n):
            product *= int(arr[i, sigma[i]])
        total += product
    return total


def subset_dp_permanent(matrix) -> int:
    """Oracle: ways[mask] counts matchings of the first popcount(mask) rows onto mask."""
    arr = np.asarray(matrix)
    n = arr.shape[0]
    masks = np.arange(1 << n)
    ways = np.zeros(1 << n, dtype=np.int64)
    ways[0] = 1
    for row in arr:
        step = np.zeros_like(ways)
        for j in np.flatnonzero(row):
            bit = 1 << int(j)
            free = masks[(masks & bit) == 0]
            step[free | bit] += ways[free]
        ways = step
    return int(ways[-1])


class TestKeyspaceReport:
    def test_order_16(self):
        report = keyspace_report(16)
        assert report.keyspace_size == 20_922_789_888_000
        assert report.key_entropy_bits == pytest.approx(44.25014046988262, abs=1e-9)
        assert report.shannon_bound_max_symbols == 11

    def test_order_2(self):
        report = keyspace_report(2)
        assert report.keyspace_size == 2
        assert report.key_entropy_bits == pytest.approx(1.0, abs=1e-12)
        assert report.shannon_bound_max_symbols == 1

    def test_order_4(self):
        report = keyspace_report(4)
        assert report.keyspace_size == 24
        assert report.key_entropy_bits == pytest.approx(math.log2(24), abs=1e-12)
        # 4**2 = 16 <= 24 < 64 = 4**3.
        assert report.shannon_bound_max_symbols == 2

    @pytest.mark.parametrize("order", range(2, 33))
    def test_bound_is_tight(self, order):
        report = keyspace_report(order)
        n = report.shannon_bound_max_symbols
        assert order**n <= report.keyspace_size < order ** (n + 1)

    @pytest.mark.parametrize("order", range(2, 33))
    def test_entropy_matches_log_sum(self, order):
        report = keyspace_report(order)
        assert report.key_entropy_bits == pytest.approx(
            sum(math.log2(k) for k in range(2, order + 1)), abs=1e-9
        )
        assert report.key_entropy_bits == pytest.approx(
            math.log2(report.keyspace_size), abs=1e-9
        )

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            keyspace_report(1)
        with pytest.raises(ValueError):
            keyspace_report(65)


class TestUnicity:
    def test_zero_redundancy_diverges(self):
        result = unicity(44.25, 0.0)
        assert math.isinf(result.distance)

    def test_finite_quotient(self):
        assert unicity(44.25, 3.2).distance == pytest.approx(13.828125)

    def test_no_entropy(self):
        assert unicity(0.0, 0.0).distance == 0.0
        assert unicity(0.0, 2.0).distance == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            unicity(-1.0, 0.0)
        with pytest.raises(ValueError):
            unicity(1.0, -0.5)

    def test_infinite_iff_zero_redundancy_with_entropy(self):
        for entropy, redundancy in ((0.0, 0.0), (5.0, 0.0), (5.0, 1.0), (0.0, 1.0)):
            result = unicity(entropy, redundancy)
            assert math.isinf(result.distance) == (redundancy == 0 and entropy > 0)


class TestPermanent:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_identity(self, n):
        assert permanent(np.eye(n, dtype=int)) == 1

    def test_all_ones_3x3(self):
        assert permanent(np.ones((3, 3), dtype=int)) == 6

    @pytest.mark.parametrize("n", range(1, 9))
    def test_all_ones_counts_matchings(self, n):
        # K_{n,n} has n! perfect matchings.
        assert permanent(np.ones((n, n), dtype=int)) == math.factorial(n)

    def test_matches_naive_oracle_on_random_instances(self):
        rng = np.random.default_rng(1234)
        for trial in range(200):
            n = int(rng.integers(1, 6))
            mat = rng.integers(0, 2, (n, n))
            assert permanent(mat) == naive_permanent(mat), mat

    def test_zero_matrix(self):
        assert permanent(np.zeros((4, 4), dtype=int)) == 0

    def test_permutation_matrix(self):
        mat = np.zeros((5, 5), dtype=int)
        for i, j in enumerate((3, 0, 4, 1, 2)):
            mat[i, j] = 1
        assert permanent(mat) == 1

    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="guard"):
            permanent(np.ones((MAX_PERMANENT_DIM + 1,) * 2, dtype=int))
        # The guard comes before the per-entry scan of a large input.
        with pytest.raises(ValueError, match="guard"):
            permanent(np.full((2000, 2000), 0.5))

    def test_rejects_non_binary(self):
        # Entries are compared by value: truncation would read 0.5 as 0
        # and 1.9 as 1 and return a permanent of another matrix.
        for bad in (2, -1, 0.5, 1.9, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="0 or 1"):
                permanent([[bad, 1], [1, 1]])
            with pytest.raises(ValueError, match="0 or 1"):
                permanent(np.array([[1.0, 0.0], [0.0, bad]]))

    def test_accepts_bool_and_exact_float_entries(self):
        assert permanent([[True, False], [True, True]]) == 1
        assert permanent(np.ones((3, 3), dtype=bool)) == 6
        assert permanent([[1.0, 1.0], [1.0, 0.0]]) == 1

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            permanent([[1, 0, 1], [0, 1, 0]])

    @pytest.mark.parametrize(
        "n", sorted(set(range(9, 17)) | {_RYSER_BLOCK_BITS, _RYSER_BLOCK_BITS + 1})
    )
    def test_matches_subset_dp_oracle(self, n):
        # n below, at and above the block width: one block, then two or more.
        rng = np.random.default_rng(4100 + n)
        for density in (0.3, 0.5, 0.8):
            mat = (rng.random((n, n)) < density).astype(int)
            assert permanent(mat) == subset_dp_permanent(mat), mat

    def test_all_ones_at_guard_wraps_exactly(self):
        # Ryser terms of J_20 reach 20^20 > 2^64, so this needs the wrap.
        n = MAX_PERMANENT_DIM
        assert permanent(np.ones((n, n), dtype=int)) == math.factorial(n)

    def test_derangements_at_guard(self):
        n = MAX_PERMANENT_DIM
        mat = np.ones((n, n), dtype=int) - np.eye(n, dtype=int)
        derangements = sum(
            (-1) ** k * (math.factorial(n) // math.factorial(k)) for k in range(n + 1)
        )
        assert permanent(mat) == derangements

    def test_guard_keeps_uint64_arithmetic_exact(self):
        # The wrapped uint64 evaluation is exact only while n! < 2^64.
        assert math.factorial(MAX_PERMANENT_DIM) < 2**64
        assert math.factorial(MAX_PERMANENT_DIM + 1) > 2**64

    def test_returns_python_int(self):
        for mat in (np.eye(3, dtype=int), np.ones((14, 14), dtype=bool), [[0]]):
            assert type(permanent(mat)) is int

    def test_moderate_dimension_exact(self):
        # Permanent of J_12 minus the diagonal equals the number of
        # derangements of 12 elements.
        n = 12
        mat = np.ones((n, n), dtype=int) - np.eye(n, dtype=int)
        derangements = round(math.factorial(n) / math.e)
        assert permanent(mat) == derangements


class TestPerfectSecrecy:
    def test_uniform_prior_m4(self):
        report = verify_perfect_secrecy(4)
        assert report.passed
        assert report.max_deviation == 0
        assert report.n_keys == 24

    def test_skewed_prior_m4(self):
        prior = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8))
        report = verify_perfect_secrecy(4, prior)
        assert report.passed
        assert report.max_deviation == 0

    def test_m2(self):
        report = verify_perfect_secrecy(2)
        assert report.passed

    def test_twenty_random_rational_priors(self):
        rng = np.random.default_rng(777)
        for order in (2, 4):
            for _ in range(20):
                weights = [int(w) for w in rng.integers(1, 30, order)]
                total = sum(weights)
                prior = [Fraction(w, total) for w in weights]
                report = verify_perfect_secrecy(order, prior)
                assert report.passed, (order, prior)

    def test_degenerate_prior(self):
        prior = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
        assert verify_perfect_secrecy(4, prior).passed

    def test_order_guard(self):
        with pytest.raises(ValueError, match="guard"):
            verify_perfect_secrecy(7)
        with pytest.raises(ValueError):
            verify_perfect_secrecy(1)

    def test_rejects_bad_priors(self):
        with pytest.raises(ValueError, match="sum to 1"):
            verify_perfect_secrecy(2, [Fraction(1, 2), Fraction(1, 4)])
        with pytest.raises(ValueError, match="entries"):
            verify_perfect_secrecy(2, [Fraction(1)])
        with pytest.raises(ValueError, match="nonnegative"):
            verify_perfect_secrecy(2, [Fraction(3, 2), Fraction(-1, 2)])

    def test_report_counts_checks(self):
        report = verify_perfect_secrecy(2)
        # Two identities per (plaintext, point) pair with positive prior.
        assert report.n_checked == 8
