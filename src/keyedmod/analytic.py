"""Closed-form decode probabilities for a mismatched 16-point receiver.

Evaluates the probability that a receiver decoding with the rectangular
16-point grid recovers the exact 4-bit label a two-ring (circular)
16-point sender transmitted, per symbol and aggregated, as a function of
Es/N0. Works in nominal table units at Es = 1: ring/grid coordinates
times a = sqrt(1/10) (``constellations.QAM16_AMPLITUDE``), with the
grid's decision boundaries at 0 and +-2a.

Every closed form has an independent check: the same probability as a
product of two one-dimensional Gaussian interval integrals over the
decoder's rectangular decision cell (:func:`p_correct_numeric`). The
cells are derived once, from ``QAM16_RECT_GRID``, and one interval
kernel serves that oracle and the all-symbol average
(:func:`p_correct_all_symbols`).

A call evaluates each distinct term once. The four closed forms share
seven erfc values. The sixteen labels' 32 axis intervals take 20
distinct terms, and the kernel evaluates each by its own formula.
Nothing is cached between calls.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .constellations import (
    QAM16_AMPLITUDE,
    QAM16_CIRC_GRID,
    QAM16_RECT_GRID,
    _integer,
    _real_float,
)

__all__ = [
    "ConsistencyError",
    "SnrPoint",
    "REPRESENTATIVE_SYMBOLS",
    "p_correct_symbol",
    "p_correct_total",
    "p_correct_numeric",
    "p_correct_all_symbols",
    "circular_tx_point",
    "snr_grid_db",
    "sweep",
]


class ConsistencyError(ArithmeticError):
    """A closed form evaluated to NaN or to a probability outside [0, 1]."""


def _linear(snr_db: float) -> float:
    """The linear ratio of a float dB value; ``inf`` where it exceeds float64."""
    try:
        return 10.0 ** (snr_db / 10.0)
    except OverflowError:
        return math.inf


def _check_es_over_n0(x: float) -> float:
    """``x`` if it is a usable linear Es/N0; NaN and negatives raise."""
    if not x >= 0:
        raise ValueError(f"Es/N0 must be >= 0, got {x}")
    return x


def _erfc_scale(es_over_n0: float) -> float:
    """u = sqrt(Es/(10*N0)): table coordinates times u feed erfc."""
    return math.sqrt(es_over_n0 / 10.0)


@dataclass(frozen=True)
class SnrPoint:
    """Linear Es/N0 ratio, held as a Python float.

    A narrower float is widened exactly, and an integer beyond float64
    reads as -inf or inf, so ``SnrPoint(10**400)`` is the noiseless limit.
    """

    es_over_n0: float

    def __post_init__(self) -> None:
        x = _real_float(self.es_over_n0, "Es/N0")
        if x is not self.es_over_n0:
            object.__setattr__(self, "es_over_n0", x)
        _check_es_over_n0(x)

    @classmethod
    def from_db(cls, snr_db: float) -> "SnrPoint":
        """Es/N0 from dB.

        Above about 3083 dB it exceeds float64 and is ``inf``; below about
        -3236 dB it is 0. An integer beyond float64 counts as -inf or inf dB.
        """
        return cls(_linear(_real_float(snr_db, "snr_db")))

    @property
    def u(self) -> float:
        """Common erfc scale sqrt(Es/(10*N0)): table coordinates times u feed erfc."""
        return _erfc_scale(self.es_over_n0)


# The grid decoder's cells, one axis at a time: each distinct grid level
# (table units) owns the interval between the midpoints to its neighbours,
# open-ended at the outer levels. Both axes of the 4x4 grid share the levels.
_LEVELS = sorted({c for p in QAM16_RECT_GRID for c in (p.real, p.imag)})
_EDGES = [-math.inf] + [(a + b) / 2 for a, b in zip(_LEVELS, _LEVELS[1:])] + [math.inf]
_AXIS_CELL = {
    level: (_EDGES[k] * QAM16_AMPLITUDE, _EDGES[k + 1] * QAM16_AMPLITUDE)
    for k, level in enumerate(_LEVELS)
}

#: Grid decision boundaries sit at 0 and +-_BOUND table units.
_BOUND = _EDGES[-2]

#: The four symbols whose conditional probabilities the closed forms cover,
#: one per ring/octant class under the conjugation symmetry of the tables.
REPRESENTATIVE_SYMBOLS = (0b0000, 0b0100, 0b0101, 0b0001)

# Closed-form erfc coefficients, each tied to its geometric derivation as
# |sender coordinate -+ boundary| so the four formulas cannot drift apart.
# Symbols 1 and 3 are symbols 0 and 2 with the coordinates swapped and
# negated, so the twelve erfc terms of the four forms take these seven
# distinct coefficients. Beside each is its mirrored derivation from
# symbol 1's point _C1 or symbol 3's point c3 = QAM16_CIRC_GRID[0b0001].
_C0 = QAM16_CIRC_GRID[0b0000]
_C1 = QAM16_CIRC_GRID[0b0100]
_C2 = QAM16_CIRC_GRID[0b0101]

_K0_RE = _C0.real + _BOUND          # 3.53 (re mean to the left edge); _BOUND - _C1.imag
_K0_IM = _BOUND - _C0.imag          # 5.69 (im mean to the top band); _C1.real + _BOUND
_K1_IM_LO = _C1.imag                # -1.53 (im mean relative to the 0 edge)
_K2_RE_LO = _C2.real + _BOUND       # 3.84; _BOUND - c3.imag
_K2_RE_HI = -_C2.real               # -1.84
_K2_IM_LO = _C2.imag                # -0.76; -c3.real
_K2_IM_HI = _BOUND - _C2.imag       # 2.76; c3.real + _BOUND


def _check_prob(p: float, what: str) -> float:
    """``p`` itself in [0, 1], clamped within 1e-12 of it; else, NaN too, raises."""
    if 0.0 <= p <= 1.0:
        return p
    if not -1e-12 <= p <= 1.0 + 1e-12:
        raise ConsistencyError(f"{what} evaluated outside [0, 1]: {p!r}")
    return 0.0 if p < 0.0 else 1.0


def _closed_forms(u: float) -> tuple[float, float, float, float]:
    """Clamped closed forms of the four representative symbols at erfc scale ``u``.

    Each of the seven distinct erfc terms is evaluated once.
    :class:`SnrPoint` rejects NaN, so no erfc argument here is NaN.
    """
    e0r = math.erfc(_K0_RE * u)
    e0i = math.erfc(_K0_IM * u)
    e1i_lo = math.erfc(_K1_IM_LO * u)
    e2r_lo = math.erfc(_K2_RE_LO * u)
    e2r_hi = math.erfc(_K2_RE_HI * u)
    e2i_lo = math.erfc(_K2_IM_LO * u)
    e2i_hi = math.erfc(_K2_IM_HI * u)
    p0 = _check_prob(0.25 * e0r * e0i, "symbol 0")
    p1 = _check_prob(0.5 * e0i * (1.0 - 0.5 * e1i_lo - 0.5 * e0r), "symbol 1")
    p2 = (1.0 - 0.5 * e2r_lo - 0.5 * e2r_hi) * (1.0 - 0.5 * e2i_lo - 0.5 * e2i_hi)
    p3 = _check_prob(0.5 * e2r_lo * (1.0 - 0.5 * e2i_hi - 0.5 * e2i_lo), "symbol 3")
    return p0, p1, _check_prob(p2, "symbol 2"), p3


def p_correct_symbol(i: int, snr: SnrPoint) -> float:
    """Closed-form P(decoded label == sent label) for representative symbol ``i``.

    ``i`` indexes :data:`REPRESENTATIVE_SYMBOLS`: the outer-ring corner
    symbol, the outer-ring side symbol, and the two inner-ring symbols.
    Each form is the product of the per-axis probabilities that the
    noisy decision variable lands inside the grid decoder's cell for the
    sent bit label.
    """
    i = _integer(i, "representative symbol index")
    if not 0 <= i < 4:
        raise ValueError(f"representative symbol index must be 0..3, got {i}")
    return _closed_forms(snr.u)[i]


def _total(u: float) -> float:
    """Clamped mean of the four closed forms at erfc scale ``u``."""
    c0, c1, c2, c3 = _closed_forms(u)
    return _check_prob((c0 + c1 + c2 + c3) / 4.0, "aggregate")


def p_correct_total(snr: SnrPoint) -> float:
    """Mean correct-decode probability over the four representative symbols.

    Conjugate bit labels share the same conditional probability, so this
    average equally describes the eight symbols in the representatives'
    conjugation classes; the other eight labels see different cell
    geometries and are covered exactly by
    :func:`p_correct_all_symbols`.
    """
    return _total(snr.u)


def _check_label(bit_value: int) -> int:
    bit_value = _integer(bit_value, "bit value")
    if not 0 <= bit_value < 16:
        raise ValueError(f"bit value must be 0..15, got {bit_value}")
    return bit_value


def circular_tx_point(bit_value: int) -> complex:
    """Nominal two-ring sender point for one 4-bit label, at Es = 1."""
    return QAM16_CIRC_GRID[_check_label(bit_value)] * QAM16_AMPLITUDE


# The sixteen (sent point, grid cell) pairs: per label, the re-axis then
# the im-axis entry as (nominal sender coordinate, lo, hi).
_ALL_SYMBOL_CELLS = tuple(
    ((tx.real, *_AXIS_CELL[grid.real]), (tx.imag, *_AXIS_CELL[grid.imag]))
    for tx, grid in ((circular_tx_point(v), QAM16_RECT_GRID[v]) for v in range(16))
)


def _noise_scale(snr: SnrPoint) -> float:
    """q = 1/sqrt(N0) at Es = 1: 0 at Es/N0 = 0 (N0 infinite), inf at Es/N0 = inf."""
    n0 = math.inf if snr.es_over_n0 == 0 else 1.0 / snr.es_over_n0
    return math.inf if n0 == 0 else 1.0 / math.sqrt(n0)


def _interval_probabilities(terms, scale: float, q: float) -> list[float]:
    """P(lo < coordinate * scale + n < hi) per ``(coordinate, lo, hi)`` term.

    lo < hi, and at most one bound is infinite. n ~ N(0, N0/2) and q =
    1/sqrt(N0). Each mean is finite. A term open below is half of
    erfc((mean - hi) * q); any other is half of erfc((lo - mean) * q)
    less erfc((hi - mean) * q), where hi = inf subtracts 0.0, which
    leaves the float as it is. One-sided terms lie in [0, 1] and a
    two-sided one is clamped at 0. At q = inf (no noise) each is the
    limit: 1 inside, 0 outside, and erfc(0) / 2 for a mean on an edge,
    where (edge - mean) * q is 0 * inf.
    """
    if q == math.inf:
        return [
            1.0 if lo < mean < hi else 0.5 if mean in (lo, hi) else 0.0
            for mean, lo, hi in ((c * scale, lo, hi) for c, lo, hi in terms)
        ]
    # A plain loop, not a comprehension: on Python 3.11 each comprehension
    # is a call with its own frame, which costs more than it saves here.
    erfc, inf = math.erfc, math.inf
    probs = []
    for c, lo, hi in terms:
        mean = c * scale
        if lo == -inf:
            probs.append(0.5 * erfc((mean - hi) * q))
            continue
        upper = 0.0 if hi == inf else erfc((hi - mean) * q)
        p = 0.5 * (erfc((lo - mean) * q) - upper)
        # max(p, 0.0) is p itself wherever p >= 0.0, so only the rest pay
        # for the call; NaN and negatives still go through max.
        probs.append(p if p >= 0.0 else max(p, 0.0))
    return probs


def _sender_point(tx_point) -> complex:
    """``tx_point`` as a finite Python complex, widened exactly.

    Bools, non-numbers and points that are not finite in float64 raise.
    """
    if isinstance(tx_point, bool) or not isinstance(tx_point, (complex, float, int, np.number)):
        raise ValueError(f"sender point must be a number, got {tx_point!r}")
    try:
        z = complex(tx_point)
    except OverflowError:
        raise ValueError("sender point must be finite, got an integer beyond float64") from None
    if not cmath.isfinite(z):
        raise ValueError(f"sender point must be finite, got {z!r}")
    return z


def p_correct_numeric(tx_point: complex, bit_value: int, snr: SnrPoint) -> float:
    """Probability a symbol sent at ``tx_point`` lands in the grid cell of a label.

    Independent oracle for the closed forms: the two-dimensional
    Gaussian (per-axis variance N0/2, at Es = 1) integrates over the
    grid decoder's rectangular cell for ``bit_value`` (0..15) as the
    product of two one-dimensional interval probabilities. Es/N0 = 0
    spreads the noise over the whole plane, and Es/N0 = inf gives the
    noiseless limit. ``tx_point`` is any real or complex number but a
    bool, read as a Python complex.
    """
    tx_point = _sender_point(tx_point)
    (_, re_lo, re_hi), (_, im_lo, im_hi) = _ALL_SYMBOL_CELLS[_check_label(bit_value)]
    p_re, p_im = _interval_probabilities(
        ((tx_point.real, re_lo, re_hi), (tx_point.imag, im_lo, im_hi)), 1.0, _noise_scale(snr)
    )
    return p_re * p_im


# The cells' 32 axis entries take 20 distinct terms, each evaluated once
# per call: per label, the indices of its re and im term.
_AXIS_TERMS = tuple(dict.fromkeys(term for cell in _ALL_SYMBOL_CELLS for term in cell))
_LABEL_TERMS = tuple(tuple(map(_AXIS_TERMS.index, cell)) for cell in _ALL_SYMBOL_CELLS)


def p_correct_all_symbols(snr: SnrPoint, point_scale: float = 1.0) -> float:
    """Exact correct-decode probability averaged over all sixteen symbols.

    Unlike :func:`p_correct_total`, this makes no symmetry reduction: it
    integrates the Gaussian over every (sent point, decision cell) pair,
    so it predicts the correct-label rate of a full uniform-bit
    transmission. ``point_scale`` rescales the sender points (pass the
    unit-energy normalization gain to match the operational scheme); it
    is a real number but a bool, read as a Python float.

    The geometry is fixed, so the cells, sender coordinates and their
    20 distinct axis terms are module constants, and one call of the
    kernel that :func:`p_correct_numeric` uses evaluates those terms.
    It gives the same float as the route
    ``sum(p_correct_numeric(circular_tx_point(v) * point_scale, v, snr)
    for v in range(16)) / 16``, term by term and in the same order;
    Es/N0 = 0 (N0 infinite) gives 1/16, and Es/N0 = inf the noiseless
    limit.
    """
    scale = _real_float(point_scale, "point scale")
    if not math.isfinite(scale):
        raise ValueError(f"point scale must be finite, got {scale}")
    p = _interval_probabilities(_AXIS_TERMS, scale, _noise_scale(snr))
    total = 0.0
    for re, im in _LABEL_TERMS:
        total += p[re] * p[im]
    return total / 16.0


# The most points snr_grid_db builds; the list is refused before it exists.
_MAX_SNR_GRID_POINTS = 10**6


def snr_grid_db(start: float, stop: float, step: float) -> list[float]:
    """Inclusive dB grid from ``start`` to ``stop`` in ``step`` increments."""
    args = {"start": start, "stop": stop, "step": step}
    for name, value in args.items():
        args[name] = _real_float(value, name)
        if not math.isfinite(args[name]):
            raise ValueError(f"{name} must be finite, got {args[name]}")
    start, stop, step = args.values()
    if step <= 0:
        raise ValueError("step must be positive")
    steps = (stop - start) / step
    # A descending span is refused before round(), which raises
    # OverflowError where the span overflows to -inf.
    if steps < 0:
        raise ValueError(f"step {step} does not divide [{start}, {stop}]")
    if steps > _MAX_SNR_GRID_POINTS - 1:
        raise ValueError(f"step {step} gives more than {_MAX_SNR_GRID_POINTS} points")
    n = round(steps)
    if abs(start + n * step - stop) > 1e-9:
        raise ValueError(f"step {step} does not divide [{start}, {stop}]")
    return [start + k * step for k in range(n + 1)]


def sweep(snr_db_values) -> list[tuple[float, float, float]]:
    """Rows of (snr_db, p_correct, p_error) for the aggregate probability."""
    rows = []
    for value in snr_db_values:
        snr_db = _real_float(value, "snr_db")
        p = _total(_erfc_scale(_check_es_over_n0(_linear(snr_db))))
        rows.append((snr_db, p, 1.0 - p))
    return rows
