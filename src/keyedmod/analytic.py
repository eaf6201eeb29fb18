"""Closed-form decode probabilities for a mismatched 16-point receiver.

Evaluates the probability that a receiver decoding with the rectangular
16-point grid recovers the exact 4-bit label a two-ring (circular)
16-point sender transmitted, per symbol and aggregated, as a function of
Es/N0. Works in nominal table units: ring/grid coordinates times
a = sqrt(Es/10), with the grid's decision boundaries at 0 and +-2a.

Every closed form has an independent check: the same probability as a
product of two one-dimensional Gaussian interval integrals over the
decoder's rectangular decision cell (:func:`p_correct_numeric`). One
interval kernel serves that oracle and the all-symbol average
(:func:`p_correct_all_symbols`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constellations import QAM16_CIRC_GRID, QAM16_RECT_GRID

__all__ = [
    "ConsistencyError",
    "SnrPoint",
    "SymbolCondProb",
    "Region",
    "erfc",
    "REPRESENTATIVE_SYMBOLS",
    "p_correct_symbol",
    "p_correct_total",
    "p_correct_numeric",
    "p_correct_all_symbols",
    "rect_decision_region",
    "circular_tx_point",
    "snr_grid_db",
    "sweep",
]


class ConsistencyError(ArithmeticError):
    """Two evaluation routes for the same probability disagreed."""


def erfc(x: float) -> float:
    """Complementary error function, (2/sqrt(pi)) * integral_x^inf exp(-t^2) dt."""
    if math.isnan(x):
        raise ValueError("erfc argument must not be NaN")
    return math.erfc(x)


@dataclass(frozen=True)
class SnrPoint:
    """Linear Es/N0 ratio."""

    es_over_n0: float

    def __post_init__(self) -> None:
        if not self.es_over_n0 >= 0:
            raise ValueError(f"Es/N0 must be >= 0, got {self.es_over_n0}")

    @classmethod
    def from_db(cls, snr_db: float) -> "SnrPoint":
        return cls(10.0 ** (snr_db / 10.0))

    @property
    def u(self) -> float:
        """Common erfc scale sqrt(Es/(10*N0)): table coordinates times u feed erfc."""
        return math.sqrt(self.es_over_n0 / 10.0)


@dataclass(frozen=True)
class SymbolCondProb:
    """Probability that one transmitted symbol decodes to its own bit label."""

    symbol: int
    prob_correct: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.prob_correct <= 1.0:
            raise ValueError(f"probability out of range: {self.prob_correct}")


@dataclass(frozen=True)
class Region:
    """Axis-aligned rectangle, possibly unbounded; bounds must be ordered."""

    re_lo: float
    re_hi: float
    im_lo: float
    im_hi: float

    def __post_init__(self) -> None:
        for lo, hi, axis in (
            (self.re_lo, self.re_hi, "re"),
            (self.im_lo, self.im_hi, "im"),
        ):
            if math.isnan(lo) or math.isnan(hi):
                raise ValueError("region bounds must not be NaN")
            if lo > hi:
                raise ValueError(f"{axis} bounds out of order: {lo} > {hi}")

    @property
    def degenerate(self) -> bool:
        return self.re_lo == self.re_hi or self.im_lo == self.im_hi


#: Grid decision boundaries sit at 0 and +-_BOUND table units.
_BOUND = 2.0

#: The four symbols whose conditional probabilities the closed forms cover,
#: one per ring/octant class under the conjugation symmetry of the tables.
REPRESENTATIVE_SYMBOLS = (0b0000, 0b0100, 0b0101, 0b0001)

# Closed-form erfc coefficients, each tied to its geometric derivation as
# |sender coordinate -+ boundary| so the four formulas cannot drift apart.
_C0 = QAM16_CIRC_GRID[0b0000]
_C1 = QAM16_CIRC_GRID[0b0100]
_C2 = QAM16_CIRC_GRID[0b0101]
_C3 = QAM16_CIRC_GRID[0b0001]

_K0_RE = _C0.real + _BOUND          # 3.53: re mean to the left cell edge
_K0_IM = _BOUND - _C0.imag          # 5.69: im mean up to the top band
_K1_RE = _C1.real + _BOUND          # 5.69
_K1_IM_LO = _C1.imag                # -1.53: im mean relative to the 0 edge
_K1_IM_HI = _BOUND - _C1.imag       # 3.53
_K2_RE_LO = _C2.real + _BOUND       # 3.84
_K2_RE_HI = -_C2.real               # -1.84
_K2_IM_LO = _C2.imag                # -0.76
_K2_IM_HI = _BOUND - _C2.imag       # 2.76
_K3_RE_LO = _C3.real + _BOUND       # 2.76
_K3_RE_HI = -_C3.real               # -0.76
_K3_IM = _BOUND - _C3.imag          # 3.84


def _as_snr(snr) -> SnrPoint:
    if isinstance(snr, SnrPoint):
        return snr
    return SnrPoint(float(snr))


def _check_prob(p: float, what: str) -> float:
    if p < -1e-12 or p > 1.0 + 1e-12:
        raise ConsistencyError(f"{what} evaluated outside [0, 1]: {p!r}")
    return min(max(p, 0.0), 1.0)


def _closed_form(i: int, u: float) -> float:
    """Clamped closed form of representative symbol ``i`` at erfc scale ``u``.

    :class:`SnrPoint` rejects NaN, so no erfc argument here is NaN.
    """
    if i == 0:
        p = 0.25 * math.erfc(_K0_RE * u) * math.erfc(_K0_IM * u)
    elif i == 1:
        p = (
            0.5
            * math.erfc(_K1_RE * u)
            * (1.0 - 0.5 * math.erfc(_K1_IM_LO * u) - 0.5 * math.erfc(_K1_IM_HI * u))
        )
    elif i == 2:
        p = (1.0 - 0.5 * math.erfc(_K2_RE_LO * u) - 0.5 * math.erfc(_K2_RE_HI * u)) * (
            1.0 - 0.5 * math.erfc(_K2_IM_LO * u) - 0.5 * math.erfc(_K2_IM_HI * u)
        )
    else:
        p = (
            0.5
            * math.erfc(_K3_IM * u)
            * (1.0 - 0.5 * math.erfc(_K3_RE_LO * u) - 0.5 * math.erfc(_K3_RE_HI * u))
        )
    return _check_prob(p, f"symbol {i}")


def p_correct_symbol(i: int, snr) -> SymbolCondProb:
    """Closed-form P(decoded label == sent label) for representative symbol ``i``.

    ``i`` indexes :data:`REPRESENTATIVE_SYMBOLS`: the outer-ring corner
    symbol, the outer-ring side symbol, and the two inner-ring symbols.
    Each form is the product of the per-axis probabilities that the
    noisy decision variable lands inside the grid decoder's cell for the
    sent bit label.
    """
    u = _as_snr(snr).u
    if i not in (0, 1, 2, 3):
        raise ValueError(f"representative symbol index must be 0..3, got {i}")
    p = _closed_form(i, u)
    return SymbolCondProb(symbol=REPRESENTATIVE_SYMBOLS[i], prob_correct=p)


def _p_correct_total_expanded(u: float) -> float:
    """Aggregate probability as one expanded erfc polynomial.

    Algebraic simplification of the quarter-sum of the four symbol
    forms; kept as a second evaluation route to flag transcription bugs
    in either version.
    """
    b = math.erfc(_K1_RE * u)
    c = math.erfc(-_K1_IM_LO * u)
    e = math.erfc(_K2_RE_HI * u)
    f = math.erfc(_K2_IM_LO * u)
    g = math.erfc(_K2_IM_HI * u)
    return 0.25 * (
        1.0
        + 0.25 * b * c
        - 0.5 * e
        - 0.5 * f
        - 0.5 * g
        + 0.25 * e * f
        + 0.25 * e * g
    )


def p_correct_total(snr) -> float:
    """Mean correct-decode probability over the four representative symbols.

    Conjugate bit labels share the same conditional probability, so this
    average equally describes the eight symbols in the representatives'
    conjugation classes; the other eight labels see different cell
    geometries and are covered exactly by
    :func:`p_correct_all_symbols`. Raises :class:`ConsistencyError` if
    the symbol-sum and expanded evaluation routes disagree beyond 1e-9.
    """
    point = _as_snr(snr)
    u = point.u
    total = sum(_closed_form(i, u) for i in range(4)) / 4.0
    expanded = _p_correct_total_expanded(u)
    if abs(total - expanded) > 1e-9:
        raise ConsistencyError(
            f"aggregate forms disagree at Es/N0={point.es_over_n0!r}:"
            f" {total!r} vs {expanded!r}"
        )
    return _check_prob(total, "aggregate")


def _axis_cell(coord: float, a: float) -> tuple[float, float]:
    if coord == -3:
        return (-math.inf, -_BOUND * a)
    if coord == -1:
        return (-_BOUND * a, 0.0)
    if coord == 1:
        return (0.0, _BOUND * a)
    if coord == 3:
        return (_BOUND * a, math.inf)
    raise ValueError(f"not a grid coordinate: {coord}")


def rect_decision_region(bit_value: int, es: float = 1.0) -> Region:
    """Decision cell of the grid decoder for one 4-bit label, in absolute units."""
    if not 0 <= bit_value < 16:
        raise ValueError(f"bit value must be 0..15, got {bit_value}")
    a = math.sqrt(es / 10.0)
    pt = QAM16_RECT_GRID[bit_value]
    re_lo, re_hi = _axis_cell(pt.real, a)
    im_lo, im_hi = _axis_cell(pt.imag, a)
    return Region(re_lo, re_hi, im_lo, im_hi)


def circular_tx_point(bit_value: int, es: float = 1.0) -> complex:
    """Nominal two-ring sender point for one 4-bit label, in absolute units."""
    if not 0 <= bit_value < 16:
        raise ValueError(f"bit value must be 0..15, got {bit_value}")
    return QAM16_CIRC_GRID[bit_value] * math.sqrt(es / 10.0)


def _interval_probability(lo: float, hi: float, mean: float, q: float) -> float:
    """P(lo < mean + n < hi) for n ~ N(0, N0/2), lo < hi and q = 1/sqrt(N0).

    One-sided terms lie in [0, 1] and the two-sided one is clamped at 0.
    A NaN erfc argument (a NaN mean, or an infinite one at q = 0) gives NaN.
    """
    if lo == -math.inf:
        if hi == math.inf:
            return 1.0
        return 0.5 * math.erfc((mean - hi) * q)
    if hi == math.inf:
        return 0.5 * math.erfc((lo - mean) * q)
    return max(0.5 * (math.erfc((lo - mean) * q) - math.erfc((hi - mean) * q)), 0.0)


def p_correct_numeric(tx_point: complex, region: Region, n0: float) -> float:
    """Probability a symbol sent at ``tx_point`` lands inside ``region``.

    Independent oracle for the closed forms: the two-dimensional
    Gaussian (per-axis variance N0/2) integrates over an axis-aligned
    rectangle as the product of two one-dimensional interval
    probabilities. Degenerate regions have measure zero.
    """
    if not n0 > 0:
        raise ValueError(f"noise density must be positive, got {n0}")
    if region.degenerate:
        return 0.0
    q = 1.0 / math.sqrt(n0)
    p_re = _interval_probability(region.re_lo, region.re_hi, tx_point.real, q)
    p = p_re * _interval_probability(region.im_lo, region.im_hi, tx_point.imag, q)
    if math.isnan(p):
        raise ValueError(f"sender point {tx_point!r} gives a NaN erfc argument")
    return p


# The sixteen (sent point, grid cell) pairs at es = 1, from the public
# constructors: per label, the re-axis then the im-axis entry as (nominal
# sender coordinate, lo, hi), with -inf/+inf for the unbounded outer cells.
_ALL_SYMBOL_CELLS = tuple(
    ((tx.real, cell.re_lo, cell.re_hi), (tx.imag, cell.im_lo, cell.im_hi))
    for tx, cell in ((circular_tx_point(v), rect_decision_region(v)) for v in range(16))
)


def p_correct_all_symbols(snr, point_scale: float = 1.0) -> float:
    """Exact correct-decode probability averaged over all sixteen symbols.

    Unlike :func:`p_correct_total`, this makes no symmetry reduction: it
    integrates the Gaussian over every (sent point, decision cell) pair,
    so it predicts the correct-label rate of a full uniform-bit
    transmission. ``point_scale`` rescales the sender points (pass the
    unit-energy normalization gain to match the operational scheme).

    The geometry is fixed, so the cells and sender coordinates are module
    constants and a call makes 32 calls of the interval kernel that
    :func:`p_correct_numeric` uses. It gives the same float as the route
    ``sum(p_correct_numeric(circular_tx_point(v) * point_scale,
    rect_decision_region(v), n0) for v in range(16)) / 16``, term by term
    and in the same order; Es/N0 = 0 (N0 infinite) gives 1/16.
    """
    point = _as_snr(snr)
    if not math.isfinite(point_scale):
        raise ValueError(f"point scale must be finite, got {point_scale}")
    n0 = math.inf if point.es_over_n0 == 0 else 1.0 / point.es_over_n0
    if not n0 > 0:
        raise ValueError(f"noise density must be positive, got {n0}")
    q = 1.0 / math.sqrt(n0)
    total = 0.0
    for (re, re_lo, re_hi), (im, im_lo, im_hi) in _ALL_SYMBOL_CELLS:
        p_re = _interval_probability(re_lo, re_hi, re * point_scale, q)
        p_im = _interval_probability(im_lo, im_hi, im * point_scale, q)
        total += p_re * p_im
    return total / 16.0


def snr_grid_db(start: float, stop: float, step: float) -> list[float]:
    """Inclusive dB grid from ``start`` to ``stop`` in ``step`` increments."""
    for name, value in (("start", start), ("stop", stop), ("step", step)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if step <= 0:
        raise ValueError("step must be positive")
    n = round((stop - start) / step)
    if n < 0 or abs(start + n * step - stop) > 1e-9:
        raise ValueError(f"step {step} does not divide [{start}, {stop}]")
    return [start + k * step for k in range(n + 1)]


def sweep(snr_db_values) -> list[tuple[float, float, float]]:
    """Rows of (snr_db, p_correct, p_error) for the aggregate probability."""
    rows = []
    for snr_db in snr_db_values:
        p = p_correct_total(SnrPoint.from_db(snr_db))
        rows.append((float(snr_db), p, 1.0 - p))
    return rows
