"""Constellation schemes with keyed bit-sequence-to-point assignments.

A scheme couples a fixed point geometry, normalized to unit average
symbol energy, with a permutation key that assigns every m-bit value to
one point. Bit values are read MSB-first within each m-bit group. The
key is the secret: two parties sharing it agree on the full bit-to-point
map, while a third party knowing only the geometry faces all M!
candidate assignments.

All types here are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "MappingKey",
    "ConstellationScheme",
    "STANDARD_SCHEME_NAMES",
    "make_standard_scheme",
    "make_keyed_scheme",
    "random_key",
    "serialize_key",
    "parse_key",
]

#: Gain applied to the 16-point grids so that a unit-energy grid uses
#: coordinates +-1a, +-3a (4x4 grid has mean square radius 10 in grid units).
QAM16_AMPLITUDE = math.sqrt(1.0 / 10.0)

#: 4x4 grid, indexed by 4-bit value (MSB first), in grid units.
QAM16_RECT_GRID = (
    -3 + 3j, -1 + 3j, 3 + 3j, 1 + 3j,
    -3 + 1j, -1 + 1j, 3 + 1j, 1 + 1j,
    -3 - 3j, -1 - 3j, 3 - 3j, 1 - 3j,
    -3 - 1j, -1 - 1j, 3 - 1j, 1 - 1j,
)

#: Two-ring layout, indexed by 4-bit value, in the same grid units. The
#: ring coordinates give a mean square radius of 9.9601 rather than 10,
#: so this table needs an extra normalization step.
QAM16_CIRC_GRID = (
    1.53 - 3.69j, 0.76 - 1.84j, -1.53 + 3.69j, -0.76 + 1.84j,
    3.69 - 1.53j, 1.84 - 0.76j, -3.69 + 1.53j, -1.84 + 0.76j,
    1.53 + 3.69j, 0.76 + 1.84j, -1.53 - 3.69j, -0.76 - 1.84j,
    3.69 + 1.53j, 1.84 + 0.76j, -3.69 - 1.53j, -1.84 - 0.76j,
)


def _normalized(points: tuple[complex, ...]) -> tuple[complex, ...]:
    energy = sum(abs(p) ** 2 for p in points) / len(points)
    gain = 1.0 / math.sqrt(energy)
    return tuple(p * gain for p in points)


#: Points of each stock scheme in bit-value order; see ``make_standard_scheme``.
_STANDARD_POINTS = {
    "bpsk": (1 + 0j, -1 + 0j),
    "qpsk": tuple(p / math.sqrt(2.0) for p in (1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j)),
    "qam16_rect": tuple(p * QAM16_AMPLITUDE for p in QAM16_RECT_GRID),
    "qam16_circ": _normalized(tuple(p * QAM16_AMPLITUDE for p in QAM16_CIRC_GRID)),
}

STANDARD_SCHEME_NAMES = tuple(_STANDARD_POINTS)

#: Average symbol energy must equal one within this tolerance.
ENERGY_TOLERANCE = 1e-9


def _integer(value, field: str) -> int:
    """An int, a numpy integer, or a float with an integral value, as an int.

    Booleans and every other type are refused with an error naming ``field``.
    """
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{field} must be an integer, got {value!r}")


def _real_float(value, field: str) -> float:
    """An int, a float, or a numpy integer or floating value, as a Python float.

    A narrower float is widened exactly, and an integer beyond float64
    reads as -inf or inf. Booleans, strings and every other type are
    refused with an error naming ``field``.
    """
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(
        value, (float, int, np.floating, np.integer)
    ):
        raise ValueError(f"{field} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


@dataclass(frozen=True)
class MappingKey:
    """Permutation of point indices; ``perm[b]`` is the point assigned to bit value ``b``."""

    perm: tuple[int, ...]

    def __post_init__(self) -> None:
        perm = tuple(_integer(p, f"key entry {b}") for b, p in enumerate(self.perm))
        object.__setattr__(self, "perm", perm)
        if len(perm) == 0:
            raise ValueError("key must not be empty")
        if sorted(perm) != list(range(len(perm))):
            raise ValueError(f"key {perm} is not a permutation of 0..{len(perm) - 1}")

    def __len__(self) -> int:
        return len(self.perm)

    @classmethod
    def identity(cls, order: int) -> "MappingKey":
        return cls(tuple(range(order)))

    def inverse(self) -> "MappingKey":
        inv = [0] * len(self.perm)
        for b, p in enumerate(self.perm):
            inv[p] = b
        return MappingKey(tuple(inv))

    def compose(self, inner: "MappingKey") -> "MappingKey":
        """Return the key applying ``inner`` first, then this key."""
        if len(inner) != len(self):
            raise ValueError("cannot compose keys of different length")
        return MappingKey(tuple(self.perm[p] for p in inner.perm))


#: Largest order :func:`random_key` draws; no stock scheme has more than 16 points.
_MAX_KEY_ORDER = 1 << 16


def random_key(order: int, seed: int) -> MappingKey:
    """Draw a uniformly random permutation of ``0..order-1``.

    Uses Fisher-Yates shuffling, so every one of the order! permutations
    is equally likely. Deterministic for a fixed seed. ``order`` and
    ``seed`` must be integers; an integral float counts as one, and
    ``order`` lies in 2..2**16. A negative seed is refused:
    ``random.Random`` seeds with its absolute value, so -s would repeat
    the key of s.
    """
    order = _integer(order, "order")
    if not 2 <= order <= _MAX_KEY_ORDER:
        raise ValueError(f"key order must be in 2..{_MAX_KEY_ORDER}, got {order}")
    seed = _integer(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    perm = list(range(order))
    random.Random(seed).shuffle(perm)
    return MappingKey(tuple(perm))


def serialize_key(key: MappingKey) -> str:
    """Render a key as a comma-separated index list, e.g. ``"2,0,3,1"``."""
    return ",".join(str(p) for p in key.perm)


def parse_key(text: str) -> MappingKey:
    """Parse the comma-separated key format; rejects non-permutations."""
    parts = [p.strip() for p in text.split(",")]
    # int() alone would also read "+1", "1_0" and non-ASCII digits.
    if not all(p.isascii() and p.isdecimal() for p in parts):
        raise ValueError(f"malformed key text {text!r}")
    return MappingKey(tuple(int(p) for p in parts))


@dataclass(frozen=True)
class ConstellationScheme:
    """An ordered point set plus the keyed bit-value-to-point assignment.

    ``points`` are stored in bit-value order for the identity key;
    ``key.perm[b]`` gives the index of the point transmitted for bit
    value ``b``. Average symbol energy is always one.
    """

    label: str
    points: tuple[complex, ...]
    key: MappingKey

    def __post_init__(self) -> None:
        points = tuple(complex(p) for p in self.points)
        object.__setattr__(self, "points", points)
        m = len(points)
        if m < 2 or m & (m - 1):
            raise ValueError(f"scheme order must be a power of two >= 2, got {m}")
        if len(self.key) != m:
            raise ValueError(
                f"key length {len(self.key)} does not match scheme order {m}"
            )
        for p in points:
            if not (math.isfinite(p.real) and math.isfinite(p.imag)):
                raise ValueError("constellation points must be finite")
        if len(set(points)) != m:
            raise ValueError("constellation points must be pairwise distinct")
        energy = sum(abs(p) ** 2 for p in points) / m
        if abs(energy - 1.0) > ENERGY_TOLERANCE:
            raise ValueError(
                f"average symbol energy must be 1, got {energy!r} for {self.label!r}"
            )

    @property
    def order(self) -> int:
        return len(self.points)

    @property
    def bits_per_symbol(self) -> int:
        return self.order.bit_length() - 1

    @cached_property
    def mapped_points(self) -> np.ndarray:
        """Points in bit-value order: ``mapped_points[b]`` is sent for bit value ``b``."""
        arr = np.asarray(self.points, dtype=np.complex128)[list(self.key.perm)]
        arr.setflags(write=False)
        return arr


def make_standard_scheme(name: str) -> ConstellationScheme:
    """Build one of the four stock schemes with the identity key.

    ``qam16_rect`` is the 4x4 grid at +-1a, +-3a with a = sqrt(1/10);
    ``qam16_circ`` is the two-ring layout scaled by the same a and then
    renormalized so the average symbol energy is exactly one (the raw
    ring coordinates fall slightly short of the grid's mean energy).
    """
    if name not in STANDARD_SCHEME_NAMES:
        raise ValueError(
            f"unknown scheme {name!r}; expected one of {STANDARD_SCHEME_NAMES}"
        )
    points = _STANDARD_POINTS[name]
    return ConstellationScheme(
        label=name, points=points, key=MappingKey.identity(len(points))
    )


def make_keyed_scheme(base: ConstellationScheme, key: MappingKey) -> ConstellationScheme:
    """Re-key ``base``: identical geometry, bit map ``b -> key.perm[base.key.perm[b]]``.

    Applying the identity key returns a scheme equal to ``base``;
    re-keying twice composes the permutations.
    """
    if len(key) != base.order:
        raise ValueError(
            f"key length {len(key)} does not match scheme order {base.order}"
        )
    return ConstellationScheme(
        label=base.label, points=base.points, key=key.compose(base.key)
    )

