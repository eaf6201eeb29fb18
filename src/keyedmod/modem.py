"""Bit-stream modulation and nearest-point (maximum-likelihood) demodulation.

Bit streams are 1-D integer arrays of 0/1 values; symbol streams are 1-D
complex arrays. All functions are pure: safe to run over symbol blocks
in parallel. The only state they touch is the per-geometry cell-table
cache, which holds read-only decision data and never changes a result.

Receivers whose points form a full product grid (the 4x4 grid, QPSK and
BPSK, under any key) decode per axis: each coordinate is compared with
the midpoints between that axis's levels. Every other geometry, such as
the two-ring layout, decodes through an exact 2-D cell table
(``ConstellationScheme.cell_table``), built once per geometry per
process and shared by every key. Symbols in mixed bins, outside the
table's square or not finite, and symbols too close to a grid midpoint
or too large for the per-axis slicer, are decoded by an argmin over the
distances to all M points. Finite symbols with a coordinate beyond
2**53, where those squared distances no longer separate the points, are
decided by an exact pairwise comparison, and symbols with a NaN or
infinite component decode to value 0. All paths give argmin's values
wherever argmin can decide; ties go to the lowest bit value.
"""

from __future__ import annotations

import numpy as np

from .constellations import AxisGrid, CellTable, ConstellationScheme

__all__ = [
    "modulate",
    "demodulate",
    "nearest_point_values",
    "cross_decode_bits",
    "count_prefix_errors",
    "bits_to_values",
    "values_to_bits",
]

_DEMOD_CHUNK = 1 << 17

# Per-axis decisions equal the 2-D argmin wherever float64 rounding of the
# squared distances cannot reorder two points. Moving a coordinate from its
# nearest level to another adds at least 2 * spacing * d to the squared
# distance, d being its distance to the midpoint between them. Outside the
# _AXIS_GUARD band of every midpoint that is at least 1.26e-6 for the 4x4
# grid (levels 2a = 0.63 apart), and more for QPSK and BPSK. With both
# coordinates within _AXIS_BOUND, a squared distance is rounded by at most
# 8 * 2**-53 * (1e3 + 1.5)**2 < 1e-9, so the margin is over 600; at
# _AXIS_MIN_SPACING it is still 10, and grids with closer levels go to argmin.
# So do coordinates in a guard band, beyond the bound or not finite (NaN fails
# ``abs <= bound``), which also leaves exact ties to argmin's tie rule.
_AXIS_GUARD = 1e-6
_AXIS_BOUND = 1e3
_AXIS_MIN_SPACING = 1e-2

# With a coordinate beyond 2**53 a squared distance has an ulp of at least
# 2**54, while two points less than one unit apart change it by about
# 2 * |y| * |p - q| < 2**54, so argmin over float64 distances returns ties
# (value 0) where it should decide. Finite symbols out there are decided
# exactly, in integers (every finite float64 times 2**_EXACT_SHIFT is one);
# up to the bound argmin's own float64 rule still decides, as before.
_FAR_BOUND = 2.0**53
_EXACT_SHIFT = 1074

_BYTE_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)


def _value_dtype(bits_per_symbol: int) -> np.dtype:
    return np.min_scalar_type((1 << bits_per_symbol) - 1)


def bits_to_values(bits: np.ndarray, bits_per_symbol: int) -> np.ndarray:
    """Check a bit stream and group it MSB-first into narrow unsigned symbol values."""
    bits = np.asarray(bits)
    if bits.ndim != 1:
        raise ValueError("bit stream must be one-dimensional")
    if bits.size:
        if bits.dtype.kind in "biu":
            binary = bits.min() >= 0 and bits.max() <= 1
        else:
            binary = np.isin(bits, (0, 1)).all()
        if not binary:
            raise ValueError("bit stream may only contain 0 and 1")
    if bits.size % bits_per_symbol:
        raise ValueError(
            f"bit stream length {bits.size} is not divisible by {bits_per_symbol}"
        )
    dtype = _value_dtype(bits_per_symbol)
    weights = (1 << np.arange(bits_per_symbol - 1, -1, -1)).astype(dtype)
    return bits.astype(dtype, copy=False).reshape(-1, bits_per_symbol) @ weights


def values_to_bits(values: np.ndarray, bits_per_symbol: int) -> np.ndarray:
    """Expand integer symbol values into an MSB-first bit stream."""
    values = np.asarray(values, dtype=np.int64)
    shifts = np.arange(bits_per_symbol - 1, -1, -1)
    return ((values[:, None] >> shifts) & 1).astype(np.uint8).ravel()


def modulate(bits, scheme: ConstellationScheme) -> np.ndarray:
    """Map a bit stream onto constellation points, one per m-bit group."""
    values = bits_to_values(bits, scheme.bits_per_symbol)
    return scheme.mapped_points[values]


def _argmin_values(symbols: np.ndarray, pts: np.ndarray) -> np.ndarray:
    d2 = (symbols.real[:, None] - pts.real) ** 2
    d2 += (symbols.imag[:, None] - pts.imag) ** 2
    return np.argmin(d2, axis=1)


def _exact_int(x: float) -> int:
    num, den = x.as_integer_ratio()
    return num << (_EXACT_SHIFT - den.bit_length() + 1)


def _far_value(symbol: complex, exact_pts: list[tuple[int, int, int]]) -> int:
    """Value of the nearest point by exact arithmetic; ties keep the lower value.

    Point q beats the running best p only when 2 Re(y conj(q - p)) > |q|^2 - |p|^2,
    with y and the points scaled by the same power of two into integers.
    """
    yr, yi = _exact_int(symbol.real), _exact_int(symbol.imag)
    best = 0
    pr, pi, pn = exact_pts[0]
    for value, (qr, qi, qn) in enumerate(exact_pts[1:], start=1):
        if 2 * (yr * (qr - pr) + yi * (qi - pi)) > qn - pn:
            best, pr, pi, pn = value, qr, qi, qn
    return best


def _fallback_values(symbols: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Argmin values, with finite symbols beyond ``_FAR_BOUND`` decided exactly."""
    far = np.isfinite(symbols)
    far &= np.maximum(np.abs(symbols.real), np.abs(symbols.imag)) > _FAR_BOUND
    if not far.any():
        return _argmin_values(symbols, pts)
    values = np.zeros(symbols.size, dtype=np.intp)
    values[~far] = _argmin_values(symbols[~far], pts)
    exact_pts = []
    for p in pts.tolist():
        pr, pi = _exact_int(p.real), _exact_int(p.imag)
        exact_pts.append((pr, pi, pr * pr + pi * pi))
    values[far] = [_far_value(y, exact_pts) for y in symbols[far].tolist()]
    return values


def _slice_axes(symbols: np.ndarray, grid: AxisGrid, out: np.ndarray) -> np.ndarray:
    """Write per-axis decisions into ``out``; return the positions argmin must decide."""
    cell = np.zeros(symbols.size, dtype=out.dtype)
    unsafe = np.zeros(symbols.size, dtype=bool)
    axes = ((symbols.real, grid.real_midpoints), (symbols.imag, grid.imag_midpoints))
    for part, mids in axes:
        # A contiguous copy makes each comparison below several times faster.
        coord = np.ascontiguousarray(part)
        # Levels below the coordinate, counted with every midpoint moved up
        # and then down by the guard: the counts differ inside a guard band.
        level = np.zeros(symbols.size, dtype=out.dtype)
        banded = np.zeros(symbols.size, dtype=out.dtype)
        for mid in mids:
            level += coord > mid + _AXIS_GUARD
            banded += coord > mid - _AXIS_GUARD
        unsafe |= level != banded
        unsafe |= ~(np.abs(coord) <= _AXIS_BOUND)
        cell *= mids.size + 1
        cell += level
    grid.values.take(cell, out=out)
    return np.flatnonzero(unsafe)


def _bin_index(coord: np.ndarray, table: CellTable) -> np.ndarray:
    index = coord + table.span
    # Coordinates near the float64 limit overflow to inf here, then clamp.
    with np.errstate(over="ignore"):
        index *= table.scale
    # fmax maps NaN to 0; clamping before the cast keeps the cast defined.
    np.fmax(index, 0, out=index)
    np.fmin(index, table.bins - 1, out=index)
    return index.astype(np.intp)


def _look_up_cells(symbols: np.ndarray, table: CellTable, out: np.ndarray) -> np.ndarray:
    """Write cell-table decisions into ``out``; return the positions argmin must decide."""
    cell = _bin_index(symbols.real, table)
    cell *= table.bins
    cell += _bin_index(symbols.imag, table)
    values = table.values.take(cell)
    out[:] = values
    return np.flatnonzero(values == table.mixed)


def nearest_point_values(symbols, scheme: ConstellationScheme) -> np.ndarray:
    """Decode each symbol to the bit value whose point is nearest in Euclidean distance.

    Ties resolve to the lowest bit value (argmin keeps the first minimum).
    A symbol with a NaN or infinite component decodes to value 0.
    Values come back in the narrowest unsigned dtype that holds them.
    """
    y = np.asarray(symbols, dtype=np.complex128)
    if y.ndim != 1:
        raise ValueError("symbol stream must be one-dimensional")
    pts = scheme.mapped_points
    grid = scheme.axis_grid
    if grid is not None and grid.spacing < _AXIS_MIN_SPACING:
        grid = None
    out = np.empty(y.size, dtype=_value_dtype(scheme.bits_per_symbol))
    for start in range(0, y.size, _DEMOD_CHUNK):
        chunk = y[start : start + _DEMOD_CHUNK]
        block = out[start : start + _DEMOD_CHUNK]
        if grid is None:
            unsafe = _look_up_cells(chunk, scheme.cell_table, block)
        else:
            unsafe = _slice_axes(chunk, grid, block)
        block[unsafe] = _fallback_values(chunk[unsafe], pts)
    return out


def demodulate(symbols, scheme: ConstellationScheme) -> np.ndarray:
    """Minimum-distance demodulation: symbol stream back to a bit stream."""
    values = nearest_point_values(symbols, scheme)
    return values_to_bits(values, scheme.bits_per_symbol)


def count_prefix_errors(tx_values, m_tx: int, rx_values, m_rx: int) -> tuple[int, int]:
    """Return ``(bit_errors, symbol_errors)`` of ``m_rx``-bit decoded values.

    A receiver resolving m' <= m bits per symbol is scored against the
    first (most significant) m' bits of each transmitted m-bit value.
    """
    if m_rx > m_tx:
        raise ValueError(
            f"receiver resolves {m_rx} bits/symbol but sender packs only {m_tx};"
            " alignment is undefined"
        )
    diff = (np.asarray(tx_values) >> (m_tx - m_rx)) ^ rx_values
    # Values wider than a byte are counted byte by byte.
    bit_errors = int(_BYTE_POPCOUNT[diff.view(np.uint8)].sum())
    return bit_errors, int(np.count_nonzero(diff))


def cross_decode_bits(
    tx_bits,
    tx_scheme: ConstellationScheme,
    rx_scheme: ConstellationScheme,
    received=None,
) -> tuple[np.ndarray, int, int]:
    """Decode a transmission with a (possibly different) receive scheme.

    ``received`` defaults to the noiseless transmit symbols; pass the
    post-channel symbol stream to decode a noisy transmission.

    Returns ``(rx_bits, compared, errors)`` where ``compared`` counts
    the positions entering the comparison and ``errors`` the mismatches.
    """
    m_tx = tx_scheme.bits_per_symbol
    m_rx = rx_scheme.bits_per_symbol
    tx_values = bits_to_values(tx_bits, m_tx)
    if received is None:
        received = tx_scheme.mapped_points[tx_values]
    else:
        received = np.asarray(received, dtype=np.complex128)
        if received.size != tx_values.size:
            raise ValueError(
                f"{received.size} received symbols do not match"
                f" {tx_values.size * m_tx} transmitted bits at {m_tx} bits/symbol"
            )
    rx_values = nearest_point_values(received, rx_scheme)
    errors, _ = count_prefix_errors(tx_values, m_tx, rx_values, m_rx)
    return values_to_bits(rx_values, m_rx), tx_values.size * m_rx, errors
