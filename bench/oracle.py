"""Reference computations for the benchmark's output checks.

Nothing here imports keyedmod. The constellation tables are the paper's,
copied in grid units; decode statistics come from per-axis Gaussian
interval integrals, permanents from a subset dynamic programme. The
checks in ``checks.py`` compare the program's outputs against these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Two-ring sender, indexed by 4-bit value (MSB first), in grid units.
TWO_RING = (
    1.53 - 3.69j, 0.76 - 1.84j, -1.53 + 3.69j, -0.76 + 1.84j,
    3.69 - 1.53j, 1.84 - 0.76j, -3.69 + 1.53j, -1.84 + 0.76j,
    1.53 + 3.69j, 0.76 + 1.84j, -1.53 - 3.69j, -0.76 - 1.84j,
    3.69 + 1.53j, 1.84 + 0.76j, -3.69 - 1.53j, -1.84 - 0.76j,
)

#: 4x4 grid, indexed by 4-bit value, in grid units.
GRID_4X4 = (
    -3 + 3j, -1 + 3j, 3 + 3j, 1 + 3j,
    -3 + 1j, -1 + 1j, 3 + 1j, 1 + 1j,
    -3 - 3j, -1 - 3j, 3 - 3j, 1 - 3j,
    -3 - 1j, -1 - 1j, 3 - 1j, 1 - 1j,
)

#: Grid units per unit-energy amplitude for the 16-point tables.
GRID_SCALE = math.sqrt(0.1)


def unit_energy(points) -> tuple[complex, ...]:
    """Scale ``points`` so their mean symbol energy is exactly one."""
    energy = sum(abs(p) ** 2 for p in points) / len(points)
    return tuple(p / math.sqrt(energy) for p in points)


#: Point tables at unit mean energy, indexed by value under the identity key.
GEOMETRY = {
    "qam16_circ": unit_energy(TWO_RING),
    "qam16_rect": tuple(p * GRID_SCALE for p in GRID_4X4),
    "qpsk": tuple(p / math.sqrt(2.0) for p in (1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j)),
    "bpsk": (1 + 0j, -1 + 0j),
}

#: The two-ring table at the paper's nominal scale (before renormalizing).
NOMINAL_TWO_RING = tuple(p * GRID_SCALE for p in TWO_RING)

#: The labels the paper's four closed forms cover.
REPRESENTATIVE_VALUES = (0b0000, 0b0100, 0b0101, 0b0001)


def keyed(points, perm=None) -> tuple[complex, ...]:
    """Points in value order under a key: value ``b`` is sent at ``points[perm[b]]``."""
    if perm is None:
        return tuple(points)
    return tuple(points[p] for p in perm)


def _axis_cells(levels):
    levels = sorted(set(levels))
    edges = [-math.inf] + [(a + b) / 2 for a, b in zip(levels, levels[1:])] + [math.inf]
    return {v: (edges[i], edges[i + 1]) for i, v in enumerate(levels)}


def rect_cells(points):
    """Nearest-point decision cells of a product-grid point set, one per point.

    Each cell is ``((re_lo, re_hi), (im_lo, im_hi))``. Raises ValueError
    unless the points are exactly the product of their real and imaginary
    levels, the case in which nearest-point cells are axis-aligned.
    """
    re_levels = {p.real for p in points}
    im_levels = {p.imag for p in points}
    if len(points) != len(re_levels) * len(im_levels):
        raise ValueError("decision cells are not rectangles for this point set")
    re_cells, im_cells = _axis_cells(re_levels), _axis_cells(im_levels)
    return [(re_cells[p.real], im_cells[p.imag]) for p in points]


def axis_probability(lo: float, hi: float, mean: float, n0: float) -> float:
    """P(lo < X < hi) for X ~ Normal(mean, n0 / 2), evaluated in its smaller tail."""
    scale = math.sqrt(n0)
    a, b = (lo - mean) / scale, (hi - mean) / scale
    if a >= 0:
        return 0.5 * (math.erfc(a) - math.erfc(b))
    if b <= 0:
        return 0.5 * (math.erfc(-b) - math.erfc(-a))
    return 1.0 - 0.5 * math.erfc(-a) - 0.5 * math.erfc(b)


def transition_matrix(tx_points, rx_points, n0: float) -> list[list[float]]:
    """P(receiver decides value j | sender sent value i), rectangular receiver cells."""
    cells = rect_cells(rx_points)
    return [
        [
            axis_probability(*re_cell, tx.real, n0) * axis_probability(*im_cell, tx.imag, n0)
            for re_cell, im_cell in cells
        ]
        for tx in tx_points
    ]


def noise_density(snr_db: float) -> float:
    """N0 at unit symbol energy for an Es/N0 in dB."""
    return 10.0 ** (-snr_db / 10.0)


@dataclass(frozen=True)
class ErrorLaw:
    """Exact law of one symbol's errors: symbol-error rate and bit errors per symbol."""

    ser: float
    bit_mean: float
    bit_var: float


def error_law(tx_points, rx_points, n0: float) -> ErrorLaw:
    """Per-symbol error law under uniform traffic with MSB-prefix alignment."""
    m_tx = len(tx_points).bit_length() - 1
    m_rx = len(rx_points).bit_length() - 1
    matrix = transition_matrix(tx_points, rx_points, n0)
    by_count = [0.0] * (m_rx + 1)
    for sent, row in enumerate(matrix):
        prefix = sent >> (m_tx - m_rx)
        for decided, p in enumerate(row):
            by_count[bin(prefix ^ decided).count("1")] += p / len(tx_points)
    mean = sum(k * p for k, p in enumerate(by_count))
    var = sum(k * k * p for k, p in enumerate(by_count)) - mean * mean
    return ErrorLaw(ser=1.0 - by_count[0], bit_mean=mean, bit_var=max(var, 0.0))


def q_function(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def nearest_point_ser_bounds(points, n0: float) -> tuple[float, float]:
    """Nearest-neighbour lower bound and union upper bound on a matched receiver's SER.

    A symbol is decided wrongly at least when the noise carries it past the
    bisector with its nearest neighbour, and at most when it crosses any
    bisector; each crossing has probability Q(d / (2 sigma)).
    """
    sigma = math.sqrt(n0 / 2.0)
    lower = upper = 0.0
    for i, p in enumerate(points):
        tails = [q_function(abs(p - q) / (2.0 * sigma)) for j, q in enumerate(points) if j != i]
        lower += max(tails)
        upper += sum(tails)
    return lower / len(points), min(upper / len(points), 1.0)


def label_correct_probability(tx_points, rx_points, n0: float, values) -> float:
    """Mean over ``values`` of P(receiver decides the sent value itself)."""
    cells = rect_cells(rx_points)
    total = 0.0
    for v in values:
        (re_cell, im_cell), tx = cells[v], tx_points[v]
        total += axis_probability(*re_cell, tx.real, n0) * axis_probability(*im_cell, tx.imag, n0)
    return total / len(values)


def bernstein_slack(n: int, var: float, span: float, k: float) -> float:
    """Deviation t with P(|sum - E| >= t) <= 2 exp(-k^2 / 2) for a sum of n i.i.d. terms.

    This is Bernstein's inequality for terms within ``span`` of their mean
    with per-term variance ``var``. For large counts t is close to k
    standard deviations; for rare events it stays above k^2 span / 3, where
    a normal approximation would be too tight.
    """
    c = k * k * span / 3.0
    return 0.5 * (c + math.sqrt(c * c + 4.0 * k * k * n * var))


def permanent_dp(rows) -> int:
    """Permanent by dynamic programming over the set of columns already matched."""
    n = len(rows)
    if n > 20:
        raise ValueError("int64 counts hold permanents of 0/1 matrices up to n = 20")
    masks = np.arange(1 << n, dtype=np.int64)
    ways = np.zeros(1 << n, dtype=np.int64)
    ways[0] = 1
    for row in rows:
        matched = np.zeros_like(ways)
        for j, entry in enumerate(row):
            if entry:
                free = ((masks >> j) & 1) == 0
                matched[masks[free] | (1 << j)] += ways[free]
        ways = matched
    return int(ways[-1])
