"""Bit-stream modulation and nearest-point (maximum-likelihood) demodulation.

Bit streams are 1-D integer arrays of 0/1 values; symbol streams are 1-D
complex arrays. ``nearest_point_values`` also decodes a stream given as
float64 planes, the form of a sweep's received rows: a C-contiguous
array of two rows, the real coordinates then the imaginary ones.
Planes are a decode input only. All functions are pure: safe to run
over symbol blocks in parallel. The only state they touch is the
cell-table caches (one table per geometry, relabelled once per scheme),
which hold read-only decision data and never change a result.

Every receiver makes the decisions of an argmin over the squared
distances from a symbol to all M points: ties go to the lowest bit
value, and a symbol with a NaN or infinite component decodes to value
0. Finite symbols so far out that those float64 distances no longer
separate the points are decided exactly instead.
"""
from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .constellations import ConstellationScheme, _integer

__all__ = [
    "modulate",
    "nearest_point_values",
    "cross_decode_bits",
    "count_prefix_errors",
    "bits_to_values",
    "values_to_bits",
    "value_dtype",
]

_DEMOD_CHUNK = 1 << 17

# With a coordinate beyond 2**53 a squared distance has an ulp of at least
# 2**54, while two points less than one unit apart change it by about
# 2 * |y| * |p - q| < 2**54, so argmin over float64 distances returns ties
# (value 0) where it should decide. Finite symbols out there are decided
# exactly, in integers (every finite float64 times 2**_EXACT_SHIFT is one);
# up to the bound argmin's own float64 rule still decides, as before.
_FAR_BOUND = 2.0**53
_EXACT_SHIFT = 1074


def value_dtype(bits_per_symbol: int) -> np.dtype:
    """The narrowest unsigned dtype that holds every m-bit value."""
    return np.min_scalar_type((1 << bits_per_symbol) - 1)


#: The most bits per symbol the converters take: an m-bit value must fit
#: the int64 that ``values_to_bits`` reads it as.
_MAX_BITS_PER_SYMBOL = 63


def _bits_per_symbol(value) -> int:
    """``value`` read as an integer in [1, 63]; else ``ValueError``."""
    m = _integer(value, "bits_per_symbol")
    if m < 1:
        raise ValueError(f"bits_per_symbol must be at least 1, got {m}")
    if m > _MAX_BITS_PER_SYMBOL:
        raise ValueError(f"bits_per_symbol must be at most {_MAX_BITS_PER_SYMBOL}, got {m}")
    return m


def bits_to_values(bits: np.ndarray, bits_per_symbol: int) -> np.ndarray:
    """Check a bit stream and group it MSB-first into narrow unsigned symbol values."""
    bits_per_symbol = _bits_per_symbol(bits_per_symbol)
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
    dtype = value_dtype(bits_per_symbol)
    weights = (1 << np.arange(bits_per_symbol - 1, -1, -1)).astype(dtype)
    return bits.astype(dtype, copy=False).reshape(-1, bits_per_symbol) @ weights


def values_to_bits(values: np.ndarray, bits_per_symbol: int) -> np.ndarray:
    """Expand integer symbol values in [0, 2**m) into an MSB-first bit stream."""
    bits_per_symbol = _bits_per_symbol(bits_per_symbol)
    values = np.asarray(values, dtype=np.int64)
    if values.size and not (values.min() >= 0 and int(values.max()) < 1 << bits_per_symbol):
        raise ValueError(f"symbol values must lie in [0, 2**{bits_per_symbol})")
    shifts = np.arange(bits_per_symbol - 1, -1, -1)
    return ((values[:, None] >> shifts) & 1).astype(np.uint8).ravel()


def modulate(bits, scheme: ConstellationScheme) -> np.ndarray:
    """Map a bit stream onto constellation points, one per m-bit group."""
    values = bits_to_values(bits, scheme.bits_per_symbol)
    return scheme.mapped_points[values]


def _exact_int(x: float) -> int:
    num, den = x.as_integer_ratio()
    return num << (_EXACT_SHIFT - den.bit_length() + 1)


def _fallback_values(real: np.ndarray, imag: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Argmin values, with finite symbols beyond ``_FAR_BOUND`` decided exactly.

    Out there the nearest point q maximises 2 Re(y conj q) - |q|^2, with y and
    the points scaled by the same power of two into integers; ``max`` keeps the
    first maximum, so ties go to the lowest value, as argmin's do.
    """
    # A non-finite component beside a huge one overflows the squares; such
    # rows hold NaN or inf and decode to value 0 either way.
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = (real[:, None] - pts.real) ** 2
        d2 += (imag[:, None] - pts.imag) ** 2
    values = np.argmin(d2, axis=1)
    far = np.isfinite(real) & np.isfinite(imag)
    far &= np.maximum(np.abs(real), np.abs(imag)) > _FAR_BOUND
    if far.any():
        exact_pts = [(_exact_int(q.real), _exact_int(q.imag)) for q in pts.tolist()]
        decided = []
        for y_real, y_imag in zip(real[far].tolist(), imag[far].tolist()):
            yr, yi = _exact_int(y_real), _exact_int(y_imag)
            scores = [2 * (yr * qr + yi * qi) - qr * qr - qi * qi for qr, qi in exact_pts]
            decided.append(max(range(len(scores)), key=scores.__getitem__))
        values[far] = decided
    return values


class _CellTable(NamedTuple):
    """Decisions over bins cut by per-axis edges.

    A coordinate's bin on an axis is the number of that axis's edges below
    it, so the first and last bin on each axis are unbounded. The bin of
    ``(x, y)`` is ``values[ix * (imag_edges.size + 1) + iy]``: the value
    decided for every symbol in the bin, or the scheme order where none is
    (a mixed bin). When ``scale`` is set the edges are evenly spaced,
    ``1 / scale`` apart.
    """

    values: np.ndarray
    real_edges: np.ndarray
    imag_edges: np.ndarray
    scale: float | None


# Bins are checked in one way whatever the cut: a bounded bin gets point p
# only when p is nearest at all four corners, each time by a squared-distance
# margin above tol. That is exact: for points p and q, |y-q|^2 - |y-p|^2 is
# affine in y, so its minimum over a rectangle sits at a corner. With
# D = 2 * max|p| >= |p - q| and S the largest |edge| or |p|,
# tol = 4 * D * _TABLE_PAD + 64 * 2**-53 * (2S)**2. The first term pads each
# bin by _TABLE_PAD on every side (moving a corner by that on both axes
# changes the affine difference by at most 2 * sqrt(2) * |p - q| * _TABLE_PAD),
# so rounding in an arithmetic bin index, about 2**-44 bins, cannot move a
# symbol out of the padded bin; counted bins are exact. The second covers
# float64 rounding of the squared distances: in a bounded bin each is off by
# at most 4 * 2**-53 * 2 * (2S)**2, so the corner margins and argmin's own
# comparison together lose under 32 * 2**-53 * (2S)**2. A pure bin thus gives
# argmin's value itself; symbols in a mixed bin go to argmin.
#
# A product grid (distinct real levels times distinct imaginary levels equal
# the order) is cut at every level midpoint +-_GRID_GUARD and at
# +-_GRID_BOUND: outside the guard bands one level is nearest on each axis,
# so those bins are pure unless levels sit too close for the margin. Any
# other geometry is cut into _TABLE_BINS even bins over [-L, L], L = 2 max|p|.
_GRID_GUARD = 1e-6
_GRID_BOUND = 1e3
_TABLE_BINS = 256
_TABLE_PAD = 1e-9
# Float64 elements in one distance block of the build (256 kB).
_TABLE_BUILD_BLOCK = 1 << 15


def _guarded_cuts(levels: np.ndarray) -> np.ndarray:
    mids = (levels[:-1] + levels[1:]) / 2.0
    cuts = (mids - _GRID_GUARD, mids + _GRID_GUARD, [-_GRID_BOUND, _GRID_BOUND])
    return np.sort(np.concatenate(cuts))


@lru_cache(maxsize=8)
def _point_cell_table(points: tuple[complex, ...]) -> _CellTable:
    """Cell table of point indices for one geometry; keyed schemes share it."""
    pts = np.asarray(points, dtype=np.complex128)
    order = pts.size
    reach = float(np.abs(pts).max())
    real_levels, imag_levels = np.unique(pts.real), np.unique(pts.imag)
    if real_levels.size * imag_levels.size == order:
        real_edges, imag_edges = _guarded_cuts(real_levels), _guarded_cuts(imag_levels)
        scale = None
    else:
        width = 4.0 * reach / _TABLE_BINS
        real_edges = imag_edges = -2.0 * reach + width * np.arange(_TABLE_BINS + 1)
        scale = 1.0 / width
    bound = max(np.abs(real_edges).max(), np.abs(imag_edges).max(), reach)
    tol = 8.0 * reach * _TABLE_PAD + 64.0 * 2.0**-53 * (2.0 * bound) ** 2
    n_imag = imag_edges.size
    n_corners = real_edges.size * n_imag
    dtype = np.min_scalar_type(order)
    nearest = np.empty(n_corners, dtype=dtype)
    step = max(1, _TABLE_BUILD_BLOCK // order)
    for start in range(0, n_corners, step):
        ix, iy = np.divmod(np.arange(start, min(start + step, n_corners)), n_imag)
        d2 = (real_edges[ix, None] - pts.real) ** 2
        d2 += (imag_edges[iy, None] - pts.imag) ** 2
        best = d2.argmin(axis=1)
        rows = np.arange(best.size)
        first = d2[rows, best]
        d2[rows, best] = np.inf
        margin = d2.min(axis=1) - first
        nearest[start : start + step] = np.where(margin > tol, best, order)
    nearest = nearest.reshape(real_edges.size, n_imag)
    low = nearest[:-1, :-1]
    pure = (low == nearest[1:, :-1]) & (low == nearest[:-1, 1:]) & (low == nearest[1:, 1:])
    values = np.full((real_edges.size + 1, n_imag + 1), order, dtype=dtype)
    values[1:-1, 1:-1] = np.where(pure, low, order)
    values = values.ravel()
    for arr in (values, real_edges, imag_edges):
        arr.setflags(write=False)
    return _CellTable(values, real_edges, imag_edges, scale)


@lru_cache(maxsize=32)
def _scheme_cell_table(scheme: ConstellationScheme) -> _CellTable:
    """The geometry's table relabelled from point indices to the scheme's bit values.

    Cached per scheme, so a decode call does not pay for the relabelling.
    """
    table = _point_cell_table(scheme.points)
    labels = np.append(scheme.key.inverse().perm, scheme.order)
    values = labels.astype(table.values.dtype).take(table.values)
    values.setflags(write=False)
    return table._replace(values=values)


def _bin_index(coord: np.ndarray, table: _CellTable, edges: np.ndarray) -> np.ndarray:
    """Number of ``edges`` below each coordinate; NaN counts none."""
    if table.scale is None:
        # Counts in the narrowest dtype that holds a cell index; a
        # contiguous copy makes each comparison several times faster.
        coord = np.ascontiguousarray(coord)
        index = np.zeros(coord.size, dtype=np.min_scalar_type(table.values.size - 1))
        for edge in edges:
            index += coord > edge
        return index
    # Even edges: one bin per 1/scale above edges[0], after the unbounded first.
    index = coord + (1.0 / table.scale - edges[0])
    # Coordinates near the float64 limit overflow to inf here, then clamp.
    with np.errstate(over="ignore"):
        index *= table.scale
    # fmax maps NaN to 0; clamping before the cast keeps the cast defined.
    np.fmax(index, 0, out=index)
    np.fmin(index, edges.size, out=index)
    return index.astype(np.intp)


def _as_planes(symbols) -> np.ndarray | None:
    """``symbols`` if it holds float64 planes; None if it is no two-dimensional float array.

    A two-dimensional float array of other than two rows, of another
    dtype, or not C-contiguous, raises ``ValueError``.
    """
    if not (
        isinstance(symbols, np.ndarray) and symbols.ndim == 2 and symbols.dtype.kind == "f"
    ):
        return None
    if not (
        symbols.dtype == np.float64
        and symbols.shape[0] == 2
        and symbols.flags.c_contiguous
    ):
        raise ValueError(
            "symbol planes must be two C-contiguous float64 rows,"
            f" got {symbols.dtype} of shape {symbols.shape}"
        )
    return symbols


def nearest_point_values(symbols, scheme: ConstellationScheme) -> np.ndarray:
    """Decode each symbol to the bit value whose point is nearest in Euclidean distance.

    ``symbols`` is a 1-D complex stream or float64 planes (see the module
    docstring). Ties resolve to the lowest bit value (argmin keeps the
    first minimum). A symbol with a NaN or infinite component decodes to
    value 0. Values come back in the narrowest unsigned dtype that holds
    them.
    """
    planes = _as_planes(symbols)
    if planes is None:
        y = np.asarray(symbols, dtype=np.complex128)
        if y.ndim != 1:
            raise ValueError("symbol stream must be one-dimensional")
        real, imag = y.real, y.imag
    else:
        real, imag = planes
    pts = scheme.mapped_points
    table = _scheme_cell_table(scheme)
    n_imag_bins = table.imag_edges.size + 1
    out = np.empty(real.size, dtype=value_dtype(scheme.bits_per_symbol))
    for start in range(0, real.size, _DEMOD_CHUNK):
        chunk = slice(start, start + _DEMOD_CHUNK)
        cell = _bin_index(real[chunk], table, table.real_edges)
        cell *= n_imag_bins
        cell += _bin_index(imag[chunk], table, table.imag_edges)
        values = table.values.take(cell)
        block = out[chunk]
        block[:] = values
        # Mixed bins hold the scheme order; argmin decides their symbols.
        unsafe = np.flatnonzero(values == scheme.order)
        if unsafe.size:
            block[unsafe] = _fallback_values(real[chunk][unsafe], imag[chunk][unsafe], pts)
    return out


def count_prefix_errors(tx_values, m_tx: int, rx_values, m_rx: int) -> tuple[int, int]:
    """Return ``(bit_errors, symbol_errors)`` of ``m_rx``-bit decoded values.

    A receiver resolving m' <= m bits per symbol is scored against the
    first (most significant) m' bits of each transmitted m-bit value.
    Both streams must be one-dimensional and of equal length.
    """
    if m_rx < 1:
        raise ValueError(f"receiver resolves {m_rx} bits/symbol; it must resolve at least 1")
    if m_rx > m_tx:
        raise ValueError(
            f"receiver resolves {m_rx} bits/symbol but sender packs only {m_tx};"
            " alignment is undefined"
        )
    tx_values, rx_values = np.asarray(tx_values), np.asarray(rx_values)
    if tx_values.ndim != 1 or tx_values.shape != rx_values.shape:
        raise ValueError(
            "sent and decoded values must be one-dimensional and of equal length,"
            f" got shapes {tx_values.shape} and {rx_values.shape}"
        )
    diff = (tx_values >> (m_tx - m_rx)) ^ rx_values
    bit_errors = int(np.bitwise_count(diff).sum())
    return bit_errors, int(np.count_nonzero(diff))


def cross_decode_bits(
    tx_bits,
    tx_scheme: ConstellationScheme,
    rx_scheme: ConstellationScheme,
    received,
) -> tuple[np.ndarray, int, int]:
    """Decode received symbols with a (possibly different) receive scheme.

    ``received`` is the symbol stream heard for ``tx_bits``; pass
    ``modulate(tx_bits, tx_scheme)`` for a noiseless transmission.

    Returns ``(rx_bits, compared, errors)`` where ``compared`` counts
    the positions entering the comparison and ``errors`` the mismatches.
    """
    m_tx = tx_scheme.bits_per_symbol
    m_rx = rx_scheme.bits_per_symbol
    tx_values = bits_to_values(tx_bits, m_tx)
    rx_values = nearest_point_values(received, rx_scheme)
    errors, _ = count_prefix_errors(tx_values, m_tx, rx_values, m_rx)
    return values_to_bits(rx_values, m_rx), tx_values.size * m_rx, errors
