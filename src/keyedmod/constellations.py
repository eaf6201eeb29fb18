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
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "MappingKey",
    "CellTable",
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


class CellTable(NamedTuple):
    """Nearest-point decisions over bins cut by per-axis edges.

    A coordinate's bin is the number of that axis's edges below it, so the
    first and last bin on each axis are unbounded. A symbol at ``(x, y)``
    falls in ``values[ix * (imag_edges.size + 1) + iy]``, which holds the
    value decided for every symbol in the bin, or ``mixed`` (the scheme
    order) where no single point is nearest throughout it; unbounded bins
    are always mixed. When ``scale`` is set the edges are evenly spaced,
    ``1 / scale`` apart, and a bin is found by arithmetic instead of by
    counting edges.
    """

    values: np.ndarray
    real_edges: np.ndarray
    imag_edges: np.ndarray
    scale: float | None
    mixed: int


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
def _point_cell_table(points: tuple[complex, ...]) -> CellTable:
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
    return CellTable(values, real_edges, imag_edges, scale, order)


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
    def cell_table(self) -> CellTable:
        """Exact 2-D lookup of nearest bit values, with argmin left for mixed bins.

        A product grid (the 4x4 grid, QPSK, BPSK) is cut at its level
        midpoints, each widened by a guard band; any other geometry into
        256 even bins per axis. The point-index table is built once per
        geometry and shared by every key; this scheme only relabels it
        through its inverse key.
        """
        table = _point_cell_table(self.points)
        labels = np.append(self.key.inverse().perm, self.order)
        values = labels.astype(table.values.dtype).take(table.values)
        values.setflags(write=False)
        return table._replace(values=values)

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
