"""Bit-stream modulation and nearest-point (maximum-likelihood) demodulation.

Bit streams are 1-D integer arrays of 0/1 values; symbol streams are 1-D
complex arrays. ``nearest_point_values`` also decodes a stream given as
float64 planes, the form of a sweep's received rows: a C-contiguous
array of two rows, the real coordinates then the imaginary ones.
Planes are a decode input only. All functions are pure: safe to run
over symbol blocks in parallel. The only state they touch is the
cell-table cache (one table per scheme), which holds read-only decision
data and never changes a result.

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


def _bits_per_symbol(value, field: str = "bits_per_symbol") -> int:
    """``value`` read as an integer in [1, 63]; else ``ValueError`` naming ``field``."""
    m = _integer(value, field)
    if m < 1:
        raise ValueError(f"{field} must be at least 1, got {m}")
    if m > _MAX_BITS_PER_SYMBOL:
        raise ValueError(f"{field} must be at most {_MAX_BITS_PER_SYMBOL}, got {m}")
    return m


def bits_to_values(bits: np.ndarray, bits_per_symbol: int) -> np.ndarray:
    """Check a bit stream and group it MSB-first into narrow unsigned symbol values."""
    bits_per_symbol = _bits_per_symbol(bits_per_symbol)
    bits = np.asarray(bits)
    if bits.ndim != 1:
        raise ValueError("bit stream must be one-dimensional")
    kind = bits.dtype.kind
    if kind in "biu":
        binary = not bits.size or (bits.min() >= 0 and bits.max() <= 1)
    else:
        # A complex stream is refused, empty or not: the cast below would
        # drop its imaginary part.
        binary = kind != "c" and np.isin(bits, (0, 1)).all()
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
    values = np.asarray(values)
    if values.ndim != 1:
        raise ValueError("symbol values must be one-dimensional")
    kind = values.dtype.kind
    # Integral floats count; Python ints beyond int64 (objects) and +-inf fail the range.
    integers = kind in "biu" or (
        np.array_equal(values, np.floor(values))
        if kind == "f"
        else kind == "O" and all(isinstance(v, (int, np.integer)) for v in values.flat)
    )
    if not integers or (
        values.size and not (values.min() >= 0 and values.max() < 1 << bits_per_symbol)
    ):
        raise ValueError(f"symbol values must lie in [0, 2**{bits_per_symbol}) and be integers")
    values = values.astype(np.int64)
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
    # The larger magnitude is NaN where either component is, so such rows
    # are not far, nor are those with an infinite component.
    magnitude = np.maximum(np.abs(real), np.abs(imag))
    far = magnitude > _FAR_BOUND
    if far.any():
        far &= magnitude < np.inf
        exact_pts = [(_exact_int(q.real), _exact_int(q.imag)) for q in pts.tolist()]
        decided = []
        for y_real, y_imag in zip(real[far].tolist(), imag[far].tolist()):
            yr, yi = _exact_int(y_real), _exact_int(y_imag)
            scores = [2 * (yr * qr + yi * qi) - qr * qr - qi * qi for qr, qi in exact_pts]
            decided.append(max(range(len(scores)), key=scores.__getitem__))
        values[far] = decided
    return values


class _CellTable(NamedTuple):
    """One scheme's decisions, as bit values, over bins cut by one edge array on both axes.

    A coordinate's bin on an axis is the number of ``edges`` below it, so
    the first and last bin on each axis are unbounded. With ``n`` bins per
    axis (one more than the edges), the bin of ``(x, y)`` is
    ``ix * n + iy``. ``values`` holds per bin the value decided for every
    symbol in it, or the scheme order where none is (a mixed bin).
    ``pairs`` holds per bin the two values, lower first, between which a
    bounded mixed bin is decided, or the order twice where more points can
    be nearest in it. When ``scale`` is set the edges are evenly spaced,
    ``1 / scale`` apart.
    """

    values: np.ndarray
    pairs: np.ndarray
    edges: np.ndarray
    scale: float | None


# One rule settles every bounded bin, whatever the cut. A bin keeps each
# point within tol of the nearest point at one or more of its four corners.
# One kept point is the bin's value. Two kept points, a < b, are its pair
# when one of the two beats each other point at all four corners by a
# squared-distance margin above tol. Any other bin is mixed. One kept point
# needs no such check: it is the nearest at every corner, by more than tol.
# The rule is exact. For points p and q, |y-q|^2 - |y-p|^2 is affine in y,
# so its minimum over a rectangle sits at a corner. With D = 2 * max|p| >=
# |p - q| and S the largest |edge| or |p|, tol = 4 * D * _TABLE_PAD + 64 *
# 2**-53 * (2S)**2. The first term pads each bin by _TABLE_PAD on every side
# (moving a corner by that on both axes changes the affine difference by at
# most 2 * sqrt(2) * |p - q| * _TABLE_PAD), so rounding in an arithmetic bin
# index, about 2**-44 bins, cannot move a symbol out of the padded bin;
# counted bins are exact. The second covers float64 rounding of the squared
# distances: in a bounded bin each is off by at most 4 * 2**-53 * 2 * (2S)**2,
# so the corner margins and argmin's own comparison together lose under
# 32 * 2**-53 * (2S)**2. So where p beats q at all four corners by more than
# tol, argmin's float64 distance to q stays above its distance to p anywhere
# in the padded bin, and argmin never returns q there. A pure bin thus gives
# argmin's value itself. A paired bin's symbols are decided between its two
# points with the float64 expression argmin evaluates, (x - p.real)**2 +
# (y - p.imag)**2, so the pair's two distances are argmin's own and the
# smaller wins as in argmin; an equal pair goes to the lower value, the
# first minimum argmin keeps. Every other mixed bin, and every unbounded
# bin, goes to argmin itself.
#
# A product grid (distinct real levels times distinct imaginary levels equal
# the order) is cut on both axes at the union of its levels' midpoints
# +-_GRID_GUARD and +-_GRID_BOUND: outside the guard bands one level is
# nearest on each axis, so those bins are pure unless levels sit too close
# for the margin. A cut that belongs to the other axis only splits a bin;
# both halves keep its four-corner margins (the affine difference along the
# cut lies between its values at the ends), so a pure bin stays pure. BPSK,
# whose imaginary axis has one level and no midpoint, thus gains its real
# cuts on the imaginary axis and loses no pure bin: its corner margins, at
# least 4 * _GRID_GUARD, are far above tol, so rounding cannot tip one.
# Any other geometry is cut into _TABLE_BINS even bins over [-L, L],
# L = 2 max|p|, on both axes.
_GRID_GUARD = 1e-6
_GRID_BOUND = 1e3
_TABLE_BINS = 256
_TABLE_PAD = 1e-9


def _guarded_cuts(levels: np.ndarray) -> np.ndarray:
    mids = (levels[:-1] + levels[1:]) / 2.0
    cuts = (mids - _GRID_GUARD, mids + _GRID_GUARD, [-_GRID_BOUND, _GRID_BOUND])
    return np.sort(np.concatenate(cuts))


@lru_cache(maxsize=32)
def _scheme_cell_table(scheme: ConstellationScheme) -> _CellTable:
    """The scheme's cell table, built on its points in bit-value order; cached per scheme."""
    pts = scheme.mapped_points
    order = pts.size
    reach = float(np.abs(pts).max())
    # Sorted sets, not np.unique/np.union1d: numpy's unique imports numpy.ma.
    real_levels, imag_levels = (np.array(sorted(set(x.tolist()))) for x in (pts.real, pts.imag))
    if real_levels.size * imag_levels.size == order:
        cuts = {*_guarded_cuts(real_levels).tolist(), *_guarded_cuts(imag_levels).tolist()}
        edges = np.array(sorted(cuts))
        scale = None
    else:
        width = 4.0 * reach / _TABLE_BINS
        edges = -2.0 * reach + width * np.arange(_TABLE_BINS + 1)
        scale = 1.0 / width
    bound = max(np.abs(edges).max(), reach)
    tol = 8.0 * reach * _TABLE_PAD + 64.0 * 2.0**-53 * (2.0 * bound) ** 2
    n_bins = edges.size + 1
    dtype = np.min_scalar_type(order)
    values = np.full((n_bins, n_bins), order, dtype=dtype)
    pairs = np.full((2, n_bins, n_bins), order, dtype=dtype)
    # Squared distance parts, (points, edges).
    real_d2 = (edges - pts.real[:, None]) ** 2
    imag_d2 = (edges - pts.imag[:, None]) ** 2

    def corner_row(i):
        # Distances at the corners on edge i of the real axis, (points,
        # corners), and per two adjacent corners the points within tol of
        # the nearest at either.
        d2 = real_d2[:, i, None] + imag_d2
        near = d2 - d2.min(axis=0) <= tol
        return d2, near[:, :-1] | near[:, 1:]

    # One row of bins at a time, between corner rows i - 1 and i, so each
    # corner row serves the bins on both its sides.
    upper, upper_near = corner_row(0)
    for i in range(1, edges.size):
        lower, lower_near = upper, upper_near
        upper, upper_near = corner_row(i)
        kept = lower_near | upper_near
        count = kept.sum(axis=0)
        first = kept.argmax(axis=0)
        values[i, 1:-1] = np.where(count == 1, first, order)
        # The first and last kept point, lower value first, of each bin that keeps two.
        two = np.flatnonzero(count == 2)
        pair = np.stack((first[two], order - 1 - kept[::-1, two].argmax(axis=0)))
        # Every other point must be beaten at all four corners by one of the
        # pair: distances (corners, points, bins), margins (pair, points, bins).
        d2 = np.stack((lower[:, two], lower[:, two + 1], upper[:, two], upper[:, two + 1]))
        own = d2[:, pair, np.arange(two.size)]
        beaten = (d2[:, None] - own[:, :, None]).min(axis=0) > tol
        settled = (beaten.any(axis=0) | kept[:, two]).all(axis=0)
        pairs[:, i, 1 + two[settled]] = pair[:, settled]
    values, pairs = values.ravel(), pairs.reshape(2, -1)
    for arr in (values, pairs, edges):
        arr.setflags(write=False)
    return _CellTable(values, pairs, edges, scale)


def _coordinate_rows(symbols) -> np.ndarray:
    """``symbols`` as a (2, n) float64 view: real coordinates, then imaginary ones.

    Float64 planes are their own rows; a complex stream's rows are a
    strided view of its interleaved parts. A two-dimensional float array of
    other than two rows, of another dtype, or not C-contiguous, raises
    ``ValueError``.
    """
    if isinstance(symbols, np.ndarray) and symbols.ndim == 2 and symbols.dtype.kind == "f":
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
    y = np.asarray(symbols, dtype=np.complex128)
    if y.ndim != 1:
        raise ValueError("symbol stream must be one-dimensional")
    return y.reshape(-1, 1).view(np.float64).T


def _cell_index(rows: np.ndarray, table: _CellTable) -> np.ndarray:
    """Bin of each symbol whose coordinates are the columns of ``rows``; NaN counts no edge.

    Both rows are binned at once. The scratch takes the memory order of the
    rows, so that a pass over both runs through memory in order: row by row
    for planes, pair by pair for a complex stream.
    """
    n_bins = table.edges.size + 1
    if table.scale is None:
        # Edge counts in the narrowest dtype that holds a bin; one buffer
        # takes each edge's comparison, added as the bytes 0 and 1.
        count = np.zeros_like(rows, dtype=np.min_scalar_type(table.values.size - 1))
        below = np.empty_like(rows, dtype=bool)
        for edge in table.edges:
            np.greater(rows, edge, out=below)
            count += below.view(np.uint8)
        cell = count[0]
        cell *= n_bins
        cell += count[1]
        return cell
    # Even edges: one bin per 1/scale above edges[0], after the unbounded first.
    index = np.add(rows, 1.0 / table.scale - table.edges[0], out=np.empty_like(rows))
    # Coordinates near the float64 limit overflow to inf here, then clamp.
    with np.errstate(over="ignore"):
        index *= table.scale
    # fmax maps NaN to 0; clamping before the cast keeps the cast defined.
    np.fmax(index, 0, out=index)
    np.fmin(index, table.edges.size, out=index)
    # Whole bins combine exactly in float64, then cast once.
    np.floor(index, out=index)
    cell = index[0]
    cell *= n_bins
    cell += index[1]
    return cell.astype(np.intp)


def _mixed_values(x: np.ndarray, y: np.ndarray, cell: np.ndarray, table: _CellTable, pts):
    """Argmin's values for symbols in mixed bins: between the bin's pair where it has one."""
    first, second = table.pairs.take(cell, axis=1)
    # The float64 distances _fallback_values compares, for the two points only.
    # A bin without a pair holds the order, which clip reads as the last point;
    # argmin redoes those symbols below, so their overflow does not matter.
    with np.errstate(over="ignore", invalid="ignore"):
        d_first, d_second = (
            (x - pts.real.take(v, mode="clip")) ** 2 + (y - pts.imag.take(v, mode="clip")) ** 2
            for v in (first, second)
        )
    values = np.where(d_second < d_first, second, first)
    rest = np.flatnonzero(first == pts.size)
    if rest.size:
        values[rest] = _fallback_values(x.take(rest), y.take(rest), pts)
    return values


def nearest_point_values(symbols, scheme: ConstellationScheme) -> np.ndarray:
    """Decode each symbol to the bit value whose point is nearest in Euclidean distance.

    ``symbols`` is a 1-D complex stream or float64 planes (see the module
    docstring). Ties resolve to the lowest bit value (argmin keeps the
    first minimum). A symbol with a NaN or infinite component decodes to
    value 0. Values come back in the narrowest unsigned dtype that holds
    them.
    """
    rows = _coordinate_rows(symbols)
    pts = scheme.mapped_points
    table = _scheme_cell_table(scheme)
    n = rows.shape[1]
    # The table's dtype also holds the mixed-bin mark, the scheme order.
    out = np.empty(n, dtype=table.values.dtype)
    for start in range(0, n, _DEMOD_CHUNK):
        chunk = rows[:, start : start + _DEMOD_CHUNK]
        cell = _cell_index(chunk, table)
        block = out[start : start + _DEMOD_CHUNK]
        table.values.take(cell, out=block, mode="clip")
        mixed = np.flatnonzero(block == scheme.order)
        if mixed.size:
            x, y = chunk.take(mixed, axis=1)
            block[mixed] = _mixed_values(x, y, cell.take(mixed), table, pts)
    return out.astype(value_dtype(scheme.bits_per_symbol), copy=False)


def count_prefix_errors(tx_values, m_tx: int, rx_values, m_rx: int) -> tuple[int, int]:
    """Return ``(bit_errors, symbol_errors)`` of ``m_rx``-bit decoded values.

    A receiver resolving m' <= m bits per symbol is scored against the
    first (most significant) m' bits of each transmitted m-bit value.
    Both streams must be one-dimensional, of equal length and of an
    integer dtype; ``m_tx`` and ``m_rx`` are read by the converters'
    integer rule, 1..63.
    """
    m_rx = _integer(m_rx, "m_rx")
    if m_rx < 1:
        raise ValueError(f"receiver resolves {m_rx} bits/symbol; it must resolve at least 1")
    m_tx = _bits_per_symbol(m_tx, "m_tx")
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
    if tx_values.dtype.kind not in "iu" or rx_values.dtype.kind not in "iu":
        raise ValueError(
            "sent and decoded values must be of an integer dtype,"
            f" got {tx_values.dtype} and {rx_values.dtype}"
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
