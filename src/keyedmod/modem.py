"""Bit-stream modulation and nearest-point (maximum-likelihood) demodulation.

Bit streams are 1-D integer arrays of 0/1 values; symbol streams are 1-D
complex arrays. All functions are pure and stateless: safe to run over
symbol blocks in parallel with no shared mutable state.
"""

from __future__ import annotations

import numpy as np

from .constellations import ConstellationScheme

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

_BYTE_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)


def _value_dtype(bits_per_symbol: int) -> np.dtype:
    return np.min_scalar_type((1 << bits_per_symbol) - 1)


def bits_to_values(bits: np.ndarray, bits_per_symbol: int) -> np.ndarray:
    """Check a bit stream and group it MSB-first into narrow unsigned symbol values."""
    bits = np.asarray(bits)
    if bits.ndim != 1:
        raise ValueError("bit stream must be one-dimensional")
    if bits.size and not np.isin(bits, (0, 1)).all():
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


def nearest_point_values(symbols, scheme: ConstellationScheme) -> np.ndarray:
    """Decode each symbol to the bit value whose point is nearest in Euclidean distance.

    Ties resolve to the lowest bit value (argmin keeps the first minimum).
    Values come back in the narrowest unsigned dtype that holds them.
    """
    y = np.asarray(symbols, dtype=np.complex128)
    if y.ndim != 1:
        raise ValueError("symbol stream must be one-dimensional")
    pts = scheme.mapped_points
    pr, pi = pts.real, pts.imag
    out = np.empty(y.size, dtype=_value_dtype(scheme.bits_per_symbol))
    for start in range(0, y.size, _DEMOD_CHUNK):
        chunk = y[start : start + _DEMOD_CHUNK]
        d2 = (chunk.real[:, None] - pr) ** 2
        d2 += (chunk.imag[:, None] - pi) ** 2
        out[start : start + _DEMOD_CHUNK] = np.argmin(d2, axis=1)
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
