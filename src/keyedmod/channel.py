"""AWGN channel and log-distance path loss.

The complex-baseband noise model: a symbol stream with unit average
energy (Es = 1) receives independent zero-mean Gaussian noise on each
axis with per-axis variance N0/2, where N0 = 10**(-snr_db/10). Noise is
drawn from numpy's PCG64 generator (ziggurat Gaussian sampling), so a
fixed seed reproduces the stream bit for bit; parallel workers must
derive independent per-worker seeds to keep runs reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChannelSpec",
    "PathLossModel",
    "noise_spectral_density",
    "add_awgn",
    "snr_at_distance",
]


@dataclass(frozen=True)
class ChannelSpec:
    """Receive-side SNR (Es/N0, dB) plus the noise-stream seed."""

    es_over_n0_db: float
    rng_seed: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.es_over_n0_db):
            raise ValueError("es_over_n0_db must be finite")


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
            if not math.isfinite(value):
                raise ValueError(f"path-loss {name} must be finite, got {value}")
        if not self.alpha > 0:
            raise ValueError(f"path-loss exponent must be positive, got {self.alpha}")
        if not self.d_ref > 0:
            raise ValueError(f"reference distance must be positive, got {self.d_ref}")


def noise_spectral_density(es_over_n0_db: float) -> float:
    """N0 for unit symbol energy at the given Es/N0 in dB."""
    return 10.0 ** (-es_over_n0_db / 10.0)


def add_awgn(symbols, spec: ChannelSpec) -> np.ndarray:
    """Return ``symbols`` plus complex AWGN at the spec's Es/N0.

    Per-axis noise variance is N0/2; the input must come from a
    unit-mean-energy scheme for the dB figure to mean Es/N0. Two calls
    with the same spec produce identical output.
    """
    y = np.asarray(symbols, dtype=np.complex128)
    sigma = math.sqrt(noise_spectral_density(spec.es_over_n0_db) / 2.0)
    rng = np.random.default_rng(spec.rng_seed)
    # The real axis takes the first y.size draws, the imaginary axis the next.
    # Writing them straight into the output needs no complex temporary.
    out = np.empty(y.shape, dtype=np.complex128)
    out.real = rng.normal(0.0, sigma, y.shape)
    out.imag = rng.normal(0.0, sigma, y.shape)
    out += y
    return out


def snr_at_distance(model: PathLossModel, d: float) -> float:
    """Receive-side SNR in dB at distance ``d`` meters (``d >= d_ref``)."""
    if d < model.d_ref:
        raise ValueError(
            f"distance {d} m is inside the reference distance {model.d_ref} m"
        )
    return model.snr_ref_db - 10.0 * model.alpha * math.log10(d / model.d_ref)
