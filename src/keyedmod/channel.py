"""AWGN channel and log-distance path loss.

The complex-baseband noise model: a symbol stream with unit average
energy (Es = 1) receives independent zero-mean Gaussian noise on each
axis with per-axis variance N0/2, where N0 = 10**(-snr_db/10). Noise is
drawn from numpy's PCG64 generator (ziggurat Gaussian sampling), so a
fixed seed reproduces the stream bit for bit.

Draw order: one ``standard_normal`` draw fills a C-contiguous float64
pair of rows in row-major order, the real axis (row 0) first, then the
imaginary axis (row 1).

``add_awgn`` is the fill and the scale below, then the sum: the fill
(``_noise_fill``) draws the unit normals z into the rows, and the scale
(``_scale_noise``) writes sigma * z. A sweep calls the same two pieces
on its own rows, filling one pair per block for every receiver and
scaling it once per sweep point and effective SNR (see
:mod:`keyedmod.experiment`), so the draw order is stated here alone.
``add_awgn`` keeps no state.
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
        # Stored as Python floats, so that no narrower float reaches the
        # SNR arithmetic of ``snr_at_distance``.
        for name in ("alpha", "d_ref", "snr_ref_db"):
            number = _real_float(getattr(self, name), f"path-loss {name}")
            if not math.isfinite(number):
                raise ValueError(f"path-loss {name} must be finite, got {number}")
            object.__setattr__(self, name, number)
        if not self.alpha > 0:
            raise ValueError(f"path-loss exponent must be positive, got {self.alpha}")
        if not self.d_ref > 0:
            raise ValueError(f"reference distance must be positive, got {self.d_ref}")


def noise_spectral_density(es_over_n0_db: float) -> float:
    """N0 for unit symbol energy at the given Es/N0 in dB.

    The dB value is a real number but a bool; an integer beyond float64
    reads as -inf or inf dB, so N0 is 0 above. Raises ``ValueError`` for
    NaN and where N0 exceeds float64 (below about -3083 dB).
    """
    snr_db = _real_float(es_over_n0_db, "es_over_n0_db")
    if math.isnan(snr_db):
        raise ValueError(f"Es/N0 must be a number of dB, got {snr_db}")
    try:
        n0 = 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        n0 = math.inf
    if n0 == math.inf:
        raise ValueError(f"Es/N0 of {snr_db} dB gives a noise density N0 beyond float64")
    return n0


def _sigma(es_over_n0_db: float) -> float:
    """Per-axis noise standard deviation sqrt(N0/2) at the given Es/N0."""
    return math.sqrt(noise_spectral_density(es_over_n0_db) / 2.0)


def _noise_fill(rng_seed, out: np.ndarray) -> None:
    """Fill C-contiguous float64 rows ``out`` with unit normals drawn from ``rng_seed``.

    One draw, in the module's draw order; two calls with one seed fill
    the same values.
    """
    np.random.default_rng(rng_seed).standard_normal(out=out)


def _scale_noise(z: np.ndarray, es_over_n0_db: float, out: np.ndarray) -> None:
    """Write the unit normals ``z`` scaled to the noise at this Es/N0 into ``out``.

    y + sigma*z equals numpy's y + normal(0, sigma) = y + (0.0 + sigma*z)
    but for the sign of an exact zero.
    """
    np.multiply(z, _sigma(es_over_n0_db), out=out)


def add_awgn(symbols, spec: ChannelSpec) -> np.ndarray:
    """Return a new complex array: ``symbols`` plus complex AWGN at the spec's Es/N0.

    Per-axis noise variance is N0/2; the input must come from a
    unit-mean-energy scheme for the dB figure to mean Es/N0. Two calls
    with the same spec produce identical output. Real arrays, such as the
    float64 planes a sweep decodes, are refused rather than read as
    symbols on the real axis.
    """
    y = np.asarray(symbols)
    if y.dtype.kind != "c":
        raise ValueError(f"symbols must be a complex array, got dtype {y.dtype}")
    y = y.astype(np.complex128, copy=False)
    out = np.empty(y.shape, dtype=np.complex128)
    noise = np.empty((2, *y.shape))
    _noise_fill(spec.rng_seed, noise)
    _scale_noise(noise, spec.es_over_n0_db, out=noise)
    np.add(y.real, noise[0], out=out.real)
    np.add(y.imag, noise[1], out=out.imag)
    return out


def snr_at_distance(model: PathLossModel, d: float) -> float:
    """Receive-side SNR in dB at a finite distance ``d`` meters (``d >= d_ref``)."""
    d = _real_float(d, "distance")
    if not math.isfinite(d):
        raise ValueError(f"distance must be finite, got {d}")
    if d < model.d_ref:
        raise ValueError(
            f"distance {d} m is inside the reference distance {model.d_ref} m"
        )
    return model.snr_ref_db - 10.0 * model.alpha * math.log10(d / model.d_ref)
