"""Keyspace, unicity, perfect-secrecy, and matching-count analytics.

The permutation key over an M-point scheme has M! equally likely values,
so key entropy is log2(M!) bits and a message must stay short enough
that M^n <= M! for the keyspace to cover all message candidates. With
independent symbols (zero redundancy) the unicity distance diverges:
no amount of intercepted traffic pins down the key. Brute-forcing the
assignment is counting-hard: candidate assignments are the perfect
matchings of a bipartite graph, counted by the permanent of its
bi-adjacency matrix.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .constellations import _integer, _real_float

__all__ = [
    "KeyspaceReport",
    "UnicityResult",
    "PerfectSecrecyReport",
    "keyspace_report",
    "unicity",
    "permanent",
    "verify_perfect_secrecy",
]

#: Permanent evaluation is refused beyond this dimension (2**20 subset terms;
#: 20! < 2**64 keeps the wrapped uint64 arithmetic of ``permanent`` exact).
MAX_PERMANENT_DIM = 20


@dataclass(frozen=True)
class KeyspaceReport:
    order: int
    keyspace_size: int
    key_entropy_bits: float
    shannon_bound_max_symbols: int


def keyspace_report(order: int) -> KeyspaceReport:
    """Exact keyspace size M!, its entropy in bits, and the largest n with M^n <= M!."""
    order = _integer(order, "order")
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    if order > 64:
        raise ValueError(f"order above 64 not supported, got {order}")
    size = math.factorial(order)
    entropy = sum(math.log2(k) for k in range(2, order + 1))
    n = 0
    while order ** (n + 1) <= size:
        n += 1
    return KeyspaceReport(
        order=order,
        keyspace_size=size,
        key_entropy_bits=entropy,
        shannon_bound_max_symbols=n,
    )


@dataclass(frozen=True)
class UnicityResult:
    """Ciphertext volume needed for a unique brute-force solution, H(K)/D."""

    entropy_bits: float
    redundancy: float
    distance: float

    def __post_init__(self) -> None:
        infinite = math.isinf(self.distance)
        if infinite != (self.redundancy == 0 and self.entropy_bits > 0):
            raise ValueError("distance is infinite iff redundancy is 0 and entropy > 0")


def unicity(entropy_bits: float, redundancy: float) -> UnicityResult:
    """Unicity distance for the given key entropy and per-symbol message redundancy."""
    entropy_bits = _real_float(entropy_bits, "entropy")
    redundancy = _real_float(redundancy, "redundancy")
    for name, value in (("entropy", entropy_bits), ("redundancy", redundancy)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    if entropy_bits == 0:
        distance = 0.0
    elif redundancy == 0:
        distance = math.inf
    else:
        distance = entropy_bits / redundancy
    return UnicityResult(
        entropy_bits=entropy_bits, redundancy=redundancy, distance=distance
    )


def _as_binary_matrix(matrix) -> np.ndarray:
    arr = np.asarray(matrix)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"matrix must be square, got shape {arr.shape}")
    if arr.shape[0] > MAX_PERMANENT_DIM:
        raise ValueError(
            f"dimension {arr.shape[0]} exceeds the exact-evaluation guard"
            f" ({MAX_PERMANENT_DIM})"
        )
    rows = arr.tolist()
    for row in rows:
        for v in row:
            # Compare values, never truncate: 0.5, 1.9, -1, NaN and inf all fail.
            if not (v == 0 or v == 1):
                raise ValueError(f"matrix entries must be 0 or 1, got {v!r}")
    ones = [[v == 1 for v in row] for row in rows]
    return np.array(ones, dtype=np.uint8).reshape(arr.shape)


def _subset_row_sums(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row sums of every column subset of an (n, k) matrix, split by subset size.

    Returns the (n, .) tables of the even-size and the odd-size subsets,
    2^(k-1) columns each for k >= 1 (the empty subset alone for k = 0).
    Sums of 0/1 entries stay at most n <= MAX_PERMANENT_DIM, so they keep
    the uint8 input dtype.
    """
    even = np.zeros((cols.shape[0], 1), dtype=cols.dtype)
    odd = even[:, :0]
    for j in range(cols.shape[1]):
        col = cols[:, j : j + 1]
        even, odd = np.hstack((even, odd + col)), np.hstack((odd, even + col))
    return even, odd


# Ryser's sum runs over all 2^n column subsets S. The low
# _RYSER_BLOCK_BITS columns are split off: their 2^b subsets give one
# precomputed (n, 2^b) table of row sums, and each subset of the other
# columns adds its row sums to that table and multiplies down the rows,
# so one block holds 2^b terms. Row sums are at most n, so the table
# and the block stay uint8 (80 kB each for n = 20). The products and the
# block sums are uint64 and wrap mod 2^64, which is exact here:
# reduction mod 2^64 is a ring homomorphism from the integers, so every
# sum and product computed with wrap-around is the true one mod 2^64,
# and so is the final signed total. A 0/1 permanent counts
# permutations, so it lies in [0, n!], and 20! ~ 2.43e18 < 2^64 ~
# 1.84e19: the residue in [0, 2^64) is the permanent itself for every
# n <= MAX_PERMANENT_DIM. Partial terms (up to 20^20 for the all-ones
# matrix) do overflow; numpy wraps silently inside array operations
# only, while numpy scalar arithmetic would warn, so block sums leave
# the arrays as Python ints. 21! > 2^64, so the dimension guard cannot
# rise without wider arithmetic. Twelve bits ran fastest of 10..13 on
# n = 14..18 but for 13, which was no faster and doubles the block.
_RYSER_BLOCK_BITS = 12


def permanent(matrix) -> int:
    """Exact permanent of a square 0/1 matrix via Ryser's inclusion-exclusion.

    Sums the 2^n Ryser terms (-1)^(n-|S|) prod_i sum_{j in S} a_ij over
    column subsets S in blocks of 2^12: the row sums of the low twelve
    columns' subsets are a fixed table, each subset of the remaining
    columns adds its own row sums to it, and numpy multiplies down the
    rows in wrapping uint64. The even- and odd-size halves of a block are
    summed apart and added as Python ints, and the total is reduced
    mod 2^64, which is exact because the permanent lies in [0, n!] and
    n! < 2^64 for n <= ``MAX_PERMANENT_DIM`` (see the comment above
    ``_RYSER_BLOCK_BITS``). Runs in O(2^n * n); equals the number of
    perfect matchings of the bipartite graph whose bi-adjacency matrix
    this is. Dimensions above ``MAX_PERMANENT_DIM`` are refused. Entries
    must be exactly 0 or 1 (bools are accepted).
    """
    a = _as_binary_matrix(matrix)
    n = a.shape[0]
    if n == 0:
        return 1
    b = min(n, _RYSER_BLOCK_BITS)
    low_even, low_odd = _subset_row_sums(a[:, :b])
    low = np.hstack((low_even, low_odd))
    n_even = low_even.shape[1]
    high_even, high_odd = _subset_row_sums(a[:, b:])
    block = np.empty_like(low)
    total = 0
    for sign, high in ((1, high_even), (-1, high_odd)):
        for k in range(high.shape[1]):
            np.add(low, high[:, k : k + 1], out=block)
            terms = np.prod(block, axis=0, dtype=np.uint64)
            total += sign * (int(terms[:n_even].sum()) - int(terms[n_even:].sum()))
    return (-total if n & 1 else total) % 2**64


@dataclass(frozen=True)
class PerfectSecrecyReport:
    """Exact check that ciphertext reveals nothing about the plaintext symbol."""

    order: int
    n_keys: int
    prior: tuple[Fraction, ...]
    passed: bool
    max_deviation: Fraction
    n_checked: int


def _prior_entry(k: int, p) -> Fraction:
    if isinstance(p, bool) or not isinstance(p, numbers.Real):
        raise ValueError(f"prior entry {k} must be a number, got {p!r}")
    try:
        return Fraction(p)
    except (ValueError, OverflowError, TypeError):
        raise ValueError(
            f"prior entry {k} must be a finite float or a rational, got {p!r}"
        ) from None


def _as_prior(order: int, prior) -> tuple[Fraction, ...]:
    if prior is None:
        return tuple(Fraction(1, order) for _ in range(order))
    probs = tuple(_prior_entry(k, p) for k, p in enumerate(prior))
    if len(probs) != order:
        raise ValueError(f"prior must have {order} entries, got {len(probs)}")
    if any(p < 0 for p in probs):
        raise ValueError("prior probabilities must be nonnegative")
    if sum(probs) != 1:
        raise ValueError(f"prior must sum to 1 exactly, got {sum(probs)}")
    return probs


def verify_perfect_secrecy(order: int, prior=None) -> PerfectSecrecyReport:
    """Test plaintext/ciphertext independence exactly under a uniform key.

    Under a uniform key, for every plaintext symbol p and every observed
    point index c the posterior prob(P=p | C=c) must equal the prior
    prob(P=p), and symmetrically prob(C=c | P=p) must equal prob(C=c).
    All arithmetic is rational, so the check is exact. Orders 2..64 are
    accepted, as in ``keyspace_report``.
    """
    report = keyspace_report(order)
    order, n_keys = report.order, report.keyspace_size
    probs = _as_prior(order, prior)
    # (M - 1)! keys send p to c: fix that one assignment, permute the rest.
    share = Fraction(math.factorial(order - 1), n_keys)
    joint = [[probs[p] * share] * order for p in range(order)]

    marginal_c = [sum(joint[p][c] for p in range(order)) for c in range(order)]
    max_dev = Fraction(0)
    checked = 0
    for p in range(order):
        for c in range(order):
            posterior = joint[p][c] / marginal_c[c] if marginal_c[c] else Fraction(0)
            max_dev = max(max_dev, abs(posterior - probs[p]))
            checked += 1
            if probs[p]:
                likelihood = joint[p][c] / probs[p]
                max_dev = max(max_dev, abs(likelihood - marginal_c[c]))
                checked += 1
    return PerfectSecrecyReport(
        order=order,
        n_keys=n_keys,
        prior=probs,
        passed=max_dev == 0,
        max_deviation=max_dev,
        n_checked=checked,
    )
