"""Uncoded bit-error injection on serialized payloads and value sanitisation.

Error counts follow a binomial law in the payload length and the bit error
rate; error positions are uniform without replacement (channel hardening
makes bursts unlikely, so no burst model).  Decoded fields are forced back
into their allowed ranges so a corrupted payload can never crash the
consumer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import as_generator


@dataclass(frozen=True)
class FieldSpec:
    """Allowed range of one decoded field; 'float' fields may carry NaN/inf."""

    kind: str
    minimum: float
    maximum: float

    def __post_init__(self):
        if self.kind not in ("float", "int"):
            raise ValueError("kind must be 'float' or 'int'")
        if self.minimum > self.maximum:
            raise ValueError("minimum must not exceed maximum")

    @property
    def midpoint(self) -> float:
        return (self.minimum + self.maximum) / 2.0


def sample_error_count(n_bits: int, ber: float, rng) -> int:
    """Draw the number of flipped bits from Binomial(n_bits, ber)."""
    if n_bits < 0:
        raise ValueError("n_bits must be >= 0")
    if not 0.0 <= ber <= 1.0:
        raise ValueError("ber must lie in [0, 1]")
    return int(as_generator(rng).binomial(n_bits, ber))


def sample_flip_positions(n_bits: int, k: int, rng) -> np.ndarray:
    """k distinct bit positions, uniform over all k-subsets of range(n_bits).

    Rejection on batched uniform draws: each batch is appended to the
    positions kept so far and only the first occurrence of every value
    survives, in draw order.  The cost stays near O(k log k) for the sparse
    case and the draws are stable across numpy versions.  For k > n_bits // 2
    the complement is sampled instead.
    """
    if not 0 <= k <= n_bits:
        raise ValueError(f"need 0 <= k <= n_bits, got k={k}, n_bits={n_bits}")
    gen = as_generator(rng)
    if k == 0:
        return np.empty(0, dtype=np.int64)
    if k == n_bits:
        return np.arange(n_bits, dtype=np.int64)
    if k > n_bits // 2:
        # Sample the complement instead; a uniform (n-k)-subset to drop
        # leaves a uniform k-subset behind.
        drop = sample_flip_positions(n_bits, n_bits - k, gen)
        mask = np.ones(n_bits, dtype=bool)
        mask[drop] = False
        return np.flatnonzero(mask).astype(np.int64)
    collected = np.empty(0, dtype=np.int64)
    while collected.size < k:
        batch = gen.integers(0, n_bits, size=max(16, int(1.2 * (k - collected.size))),
                             dtype=np.int64)
        merged = np.concatenate([collected, batch])
        collected = merged[_first_occurrences(merged, n_bits)]
    return collected[:k]


def _first_occurrences(values: np.ndarray, n_values: int) -> np.ndarray:
    """Mask of the first occurrence of each distinct entry of ``values``.

    ``values`` lie in ``range(n_values)``.  One sort of the composite key
    ``value << shift | index`` puts each value's first index at the start
    of its run.  ``np.unique(values, return_index=True)`` finds the same
    indices through a stable argsort, so it is kept only for keys that would
    not fit in 63 bits.
    """
    keep = np.zeros(values.size, dtype=bool)
    shift = max(1, (values.size - 1).bit_length())
    if (n_values - 1).bit_length() + shift > 63:
        keep[np.unique(values, return_index=True)[1]] = True
        return keep
    keys = np.sort((values << shift) | np.arange(values.size, dtype=np.int64))
    sorted_values = keys >> shift
    starts = np.empty(keys.size, dtype=bool)
    starts[0] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=starts[1:])
    keep[keys[starts] & ((1 << shift) - 1)] = True
    return keep


def flip_bits(payload: bytes, k: int, rng) -> bytes:
    """Invert exactly k distinct bits (LSB-first within each byte)."""
    n_bits = 8 * len(payload)
    positions = sample_flip_positions(n_bits, k, rng)
    if positions.size == 0:
        return bytes(payload)
    buf = np.frombuffer(payload, dtype=np.uint8).copy()
    byte_index = positions >> 3
    masks = (1 << (positions & 7)).astype(np.uint8)
    np.bitwise_xor.at(buf, byte_index, masks)
    return buf.tobytes()


def corrupt(payload: bytes, ber: float, rng) -> bytes:
    """Binomial error count, then uniform distinct flips."""
    gen = as_generator(rng)
    k = sample_error_count(8 * len(payload), ber, gen)
    return flip_bits(payload, k, gen)


def sanitize_array(values, spec: FieldSpec) -> np.ndarray:
    """Clamp decoded values into their allowed range; NaN/inf become the midpoint."""
    if spec.kind == "int":
        arr = np.asarray(values).astype(np.int64)
        return np.clip(arr, int(spec.minimum), int(spec.maximum))
    arr = np.asarray(values, dtype=float).copy()
    arr[~np.isfinite(arr)] = spec.midpoint
    return np.clip(arr, spec.minimum, spec.maximum)
