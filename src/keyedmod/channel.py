"""AWGN channel and log-distance path loss.

The complex-baseband noise model: a symbol stream with unit average
energy (Es = 1) receives independent zero-mean Gaussian noise on each
axis with per-axis variance N0/2, where N0 = 10**(-snr_db/10). Noise is
drawn from numpy's PCG64 generator (ziggurat Gaussian sampling), so a
fixed seed reproduces the stream bit for bit: one ``standard_normal``
draw fills the real axis first, then the imaginary axis.

``add_awgn`` takes a complex symbol array, or float64 planes: a
C-contiguous array of shape (2, n) whose row 0 holds the real and row 1
the imaginary coordinates. The planes form draws straight into its
output rows, in the same order; a one-row plane holds the real axis
alone and gets the real-axis noise of the two-row form.

``add_awgn`` is the fill and the scale below, then the sum: the fill
(``_noise_fill``) draws the unit normals into the rows in the order
above, and the scale (``_scale_noise``) multiplies them by sigma in
place. A sweep may run the two on different threads; it calls the same
two pieces, so the draw order is stated here alone.

``add_awgn`` keeps no state, so threads may call it at once; a parallel
sweep keeps its runs reproducible by seeding every block from its own
key, never from the thread that draws it (see :mod:`keyedmod.experiment`).
An ``out`` array passed to ``add_awgn`` belongs to the caller, and two
threads must not share one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constellations import _real_float

__all__ = [
    "ChannelSpec",
    "PathLossModel",
    "noise_spectral_density",
    "add_awgn",
    "snr_at_distance",
]


@dataclass(frozen=True)
class ChannelSpec:
    """Receive-side SNR (Es/N0, dB) plus the noise-stream seed.

    ``rng_seed`` is a nonnegative int or a ``SeedSequence``. A
    ``Generator`` or ``None`` would make two calls with one spec draw
    different noise, so neither is accepted.
    """

    es_over_n0_db: float
    rng_seed: int | np.random.SeedSequence

    def __post_init__(self) -> None:
        if not math.isfinite(_real_float(self.es_over_n0_db, "es_over_n0_db")):
            raise ValueError("es_over_n0_db must be finite")
        noise_spectral_density(self.es_over_n0_db)
        seed = self.rng_seed
        if not isinstance(seed, np.random.SeedSequence) and (
            isinstance(seed, bool) or not isinstance(seed, int) or seed < 0
        ):
            raise ValueError(
                f"rng_seed must be a nonnegative int or a SeedSequence, got {seed!r}"
            )


@dataclass(frozen=True)
class PathLossModel:
    """Log-distance attenuation: SNR falls by 10*alpha*log10(d/d_ref) dB."""

    alpha: float
    d_ref: float = 1.0
    snr_ref_db: float = 0.0

    def __post_init__(self) -> None:
        for name, value in (
            ("alpha", self.alpha),
            ("d_ref", self.d_ref),
            ("snr_ref_db", self.snr_ref_db),
        ):
            number = _real_float(value, f"path-loss {name}")
            if not math.isfinite(number):
                raise ValueError(f"path-loss {name} must be finite, got {number}")
        if not self.alpha > 0:
            raise ValueError(f"path-loss exponent must be positive, got {self.alpha}")
        if not self.d_ref > 0:
            raise ValueError(f"reference distance must be positive, got {self.d_ref}")


def noise_spectral_density(es_over_n0_db: float) -> float:
    """N0 for unit symbol energy at the given Es/N0 in dB.

    The dB value is a real number but a bool; an integer beyond float64
    reads as -inf or inf dB, so N0 is 0 above. Raises ``ValueError``
    where N0 exceeds float64 (below about -3083 dB).
    """
    snr_db = _real_float(es_over_n0_db, "es_over_n0_db")
    try:
        n0 = 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        n0 = math.inf
    if n0 == math.inf:
        raise ValueError(f"Es/N0 of {snr_db} dB gives a noise density N0 beyond float64")
    return n0


#: No float64 that numpy's ziggurat ``standard_normal`` returns reaches
#: this in magnitude. Its tail sampler returns r - ln(u) / r at most, with r
#: about 3.654 and u a 53-bit uniform, so |z| < r + 53 ln(2) / r ~= 13.71
#: (``random_standard_normal`` in numpy/random/src/distributions/distributions.c).
_NORMAL_BOUND = 14.0


def _sigma(es_over_n0_db: float) -> float:
    """Per-axis noise standard deviation sqrt(N0/2) at the given Es/N0."""
    return math.sqrt(noise_spectral_density(es_over_n0_db) / 2.0)


def _noise_reach(es_over_n0_db: float) -> float:
    """A magnitude that no noise coordinate ``add_awgn`` draws at this Es/N0 reaches."""
    return _NORMAL_BOUND * _sigma(es_over_n0_db)


def _as_planes(symbols) -> np.ndarray | None:
    """``symbols`` if it holds float64 planes; None if it is no two-dimensional float array.

    A two-dimensional float array of other than one or two rows, of
    another dtype, or not C-contiguous, raises ``ValueError``.
    """
    if not (
        isinstance(symbols, np.ndarray) and symbols.ndim == 2 and symbols.dtype.kind == "f"
    ):
        return None
    if not (
        symbols.dtype == np.float64
        and symbols.shape[0] in (1, 2)
        and symbols.flags.c_contiguous
    ):
        raise ValueError(
            "symbol planes must be one or two C-contiguous float64 rows,"
            f" got {symbols.dtype} of shape {symbols.shape}"
        )
    return symbols


def _noise_fill(spec: ChannelSpec):
    """The call that fills C-contiguous float64 rows with the spec's unit normals.

    ``_noise_fill(spec)(out=rows)`` makes one ``standard_normal`` draw in
    row-major order: row 0, the real axis, takes the first draws, and row
    1, the imaginary axis, the next. The call touches only its generator
    and ``rows``, so it may run on another thread than the one that made it.
    """
    return np.random.default_rng(spec.rng_seed).standard_normal


def _scale_noise(rows: np.ndarray, spec: ChannelSpec) -> None:
    """Scale unit normals in ``rows`` in place to the spec's noise.

    y + sigma*z equals numpy's y + normal(0, sigma) = y + (0.0 + sigma*z)
    but for the sign of an exact zero.
    """
    rows *= _sigma(spec.es_over_n0_db)


def add_awgn(symbols, spec: ChannelSpec, out=None) -> np.ndarray:
    """Return ``symbols`` plus complex AWGN at the spec's Es/N0.

    Per-axis noise variance is N0/2; the input must come from a
    unit-mean-energy scheme for the dB figure to mean Es/N0. Two calls
    with the same spec produce identical output.

    ``symbols`` is a complex array, or float64 planes of one or two rows
    (see the module docstring). ``out``, if given, is a writable array of
    the same form and shape as ``symbols``: complex128 for a complex
    array, C-contiguous float64 for planes. It may be ``symbols`` itself;
    the result is written there and ``out`` is returned. Otherwise a new
    array is returned.
    """
    planes = _as_planes(symbols)
    if planes is not None:
        if out is None:
            out = np.empty_like(planes)
        elif not (
            isinstance(out, np.ndarray)
            and out.dtype == np.float64
            and out.shape == planes.shape
            and out.flags.c_contiguous
            and out.flags.writeable
        ):
            raise ValueError(
                f"out must be writable C-contiguous float64 planes of shape {planes.shape}"
            )
        elif np.may_share_memory(planes, out):
            planes = planes.copy()
        _noise_fill(spec)(out=out)
        _scale_noise(out, spec)
        out += planes
        return out
    y = np.asarray(symbols, dtype=np.complex128)
    if out is None:
        out = np.empty(y.shape, dtype=np.complex128)
    elif not (
        isinstance(out, np.ndarray)
        and out.dtype == np.complex128
        and out.shape == y.shape
        and out.flags.writeable
    ):
        raise ValueError(f"out must be a writable complex128 array of shape {y.shape}")
    noise = np.empty((2, *y.shape))
    _noise_fill(spec)(out=noise)
    _scale_noise(noise, spec)
    np.add(y.real, noise[0], out=out.real)
    np.add(y.imag, noise[1], out=out.imag)
    return out


def snr_at_distance(model: PathLossModel, d: float) -> float:
    """Receive-side SNR in dB at distance ``d`` meters (``d >= d_ref``)."""
    if d < model.d_ref:
        raise ValueError(
            f"distance {d} m is inside the reference distance {model.d_ref} m"
        )
    return model.snr_ref_db - 10.0 * model.alpha * math.log10(d / model.d_ref)
