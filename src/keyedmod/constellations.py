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

import json
import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "MappingKey",
    "AxisGrid",
    "ConstellationScheme",
    "STANDARD_SCHEME_NAMES",
    "make_standard_scheme",
    "make_keyed_scheme",
    "random_key",
    "serialize_key",
    "parse_key",
    "save_scheme",
    "load_scheme",
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

_QPSK_POINTS = tuple(
    p / math.sqrt(2.0) for p in (1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j)
)

_BPSK_POINTS = (1 + 0j, -1 + 0j)

STANDARD_SCHEME_NAMES = ("bpsk", "qpsk", "qam16_rect", "qam16_circ")

#: Average symbol energy must equal one within this tolerance.
ENERGY_TOLERANCE = 1e-9


@dataclass(frozen=True)
class MappingKey:
    """Permutation of point indices; ``perm[b]`` is the point assigned to bit value ``b``."""

    perm: tuple[int, ...]

    def __post_init__(self) -> None:
        perm = tuple(int(p) for p in self.perm)
        object.__setattr__(self, "perm", perm)
        if len(perm) == 0:
            raise ValueError("key must not be empty")
        if sorted(perm) != list(range(len(perm))):
            raise ValueError(f"key {perm} is not a permutation of 0..{len(perm) - 1}")

    def __len__(self) -> int:
        return len(self.perm)

    @property
    def order(self) -> int:
        return len(self.perm)

    @classmethod
    def identity(cls, order: int) -> "MappingKey":
        return cls(tuple(range(order)))

    def is_identity(self) -> bool:
        return self.perm == tuple(range(len(self.perm)))

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


def random_key(order: int, seed: int) -> MappingKey:
    """Draw a uniformly random permutation of ``0..order-1``.

    Uses Fisher-Yates shuffling, so every one of the order! permutations
    is equally likely. Deterministic for a fixed seed.
    """
    if order < 2:
        raise ValueError(f"key order must be >= 2, got {order}")
    perm = list(range(order))
    random.Random(seed).shuffle(perm)
    return MappingKey(tuple(perm))


def serialize_key(key: MappingKey) -> str:
    """Render a key as a comma-separated index list, e.g. ``"2,0,3,1"``."""
    return ",".join(str(p) for p in key.perm)


def parse_key(text: str) -> MappingKey:
    """Parse the comma-separated key format; rejects non-permutations."""
    parts = [p.strip() for p in text.split(",")]
    try:
        indices = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"malformed key text {text!r}") from exc
    return MappingKey(indices)


class AxisGrid(NamedTuple):
    """Decision data of a scheme whose points are every (real, imag) level pair.

    ``values[ix * n_imag + iy]`` is the bit value sent at real level ``ix``
    and imaginary level ``iy``, levels counted upward and ``n_imag`` being
    ``imag_midpoints.size + 1``. ``spacing`` is the smallest gap between
    adjacent levels on either axis.
    """

    real_midpoints: np.ndarray
    imag_midpoints: np.ndarray
    values: np.ndarray
    spacing: float


def _midpoints(levels: np.ndarray) -> np.ndarray:
    mids = (levels[:-1] + levels[1:]) / 2.0
    mids.setflags(write=False)
    return mids


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
    def points_array(self) -> np.ndarray:
        arr = np.asarray(self.points, dtype=np.complex128)
        arr.setflags(write=False)
        return arr

    @cached_property
    def mapped_points(self) -> np.ndarray:
        """Points in bit-value order: ``mapped_points[b]`` is sent for bit value ``b``."""
        arr = self.points_array[np.asarray(self.key.perm, dtype=np.intp)]
        arr.setflags(write=False)
        return arr

    @cached_property
    def axis_grid(self) -> AxisGrid | None:
        """Per-axis decision data, or None unless the points form a full product grid.

        On such a grid the nearest point is the nearest level on each axis
        separately, so decision cells are axis-aligned rectangles.
        """
        pts = self.mapped_points
        re_levels, ix = np.unique(pts.real, return_inverse=True)
        im_levels, iy = np.unique(pts.imag, return_inverse=True)
        if re_levels.size * im_levels.size != self.order:
            return None
        values = np.empty(self.order, dtype=np.min_scalar_type(self.order - 1))
        values[ix * im_levels.size + iy] = np.arange(self.order)
        values.setflags(write=False)
        gaps = np.concatenate((np.diff(re_levels), np.diff(im_levels)))
        return AxisGrid(
            _midpoints(re_levels), _midpoints(im_levels), values, float(gaps.min())
        )

    def point_for_value(self, value: int) -> complex:
        """Point transmitted for the m-bit value ``value``."""
        return self.points[self.key.perm[value]]


def _normalized(points: tuple[complex, ...]) -> tuple[complex, ...]:
    energy = sum(abs(p) ** 2 for p in points) / len(points)
    gain = 1.0 / math.sqrt(energy)
    return tuple(p * gain for p in points)


def make_standard_scheme(name: str) -> ConstellationScheme:
    """Build one of the four stock schemes with the identity key.

    ``qam16_rect`` is the 4x4 grid at +-1a, +-3a with a = sqrt(1/10);
    ``qam16_circ`` is the two-ring layout scaled by the same a and then
    renormalized so the average symbol energy is exactly one (the raw
    ring coordinates fall slightly short of the grid's mean energy).
    """
    if name == "bpsk":
        points = _BPSK_POINTS
    elif name == "qpsk":
        points = _QPSK_POINTS
    elif name == "qam16_rect":
        points = tuple(p * QAM16_AMPLITUDE for p in QAM16_RECT_GRID)
    elif name == "qam16_circ":
        points = _normalized(tuple(p * QAM16_AMPLITUDE for p in QAM16_CIRC_GRID))
    else:
        raise ValueError(
            f"unknown scheme {name!r}; expected one of {STANDARD_SCHEME_NAMES}"
        )
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


def save_scheme(scheme: ConstellationScheme, path) -> None:
    """Write a scheme to a JSON file: label, order, (re, im) pairs, key text."""
    doc = {
        "label": scheme.label,
        "order": scheme.order,
        "points": [[p.real, p.imag] for p in scheme.points],
        "key": serialize_key(scheme.key),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_scheme(path) -> ConstellationScheme:
    """Read a scheme file written by :func:`save_scheme`."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        label = doc["label"]
        order = int(doc["order"])
        points = tuple(complex(re, im) for re, im in doc["points"])
        key = parse_key(doc["key"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed scheme file {path}: {exc}") from exc
    if len(points) != order:
        raise ValueError(
            f"scheme file {path} declares order {order} but has {len(points)} points"
        )
    return ConstellationScheme(label=label, points=points, key=key)
