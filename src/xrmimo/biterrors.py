"""Uncoded bit-error injection on serialized payloads.

Error counts follow a binomial law in the payload length and the bit error
rate; error positions are uniform without replacement (channel hardening
makes bursts unlikely, so no burst model).
"""

from __future__ import annotations

import numpy as np

from .seeding import as_generator


def sample_error_count(n_bits: int, ber: float, rng) -> int:
    """Draw the number of flipped bits from Binomial(n_bits, ber)."""
    if n_bits < 0:
        raise ValueError("n_bits must be >= 0")
    if not 0.0 <= ber <= 1.0:
        raise ValueError("ber must lie in [0, 1]")
    return int(as_generator(rng).binomial(n_bits, ber))


def sample_flip_positions(n_bits: int, k: int, rng) -> np.ndarray:
    """k distinct int64 bit positions, uniform over all k-subsets of range(n_bits).

    numpy's without-replacement ``choice`` is exact: Floyd's algorithm for
    sparse draws, a partial Fisher-Yates shuffle for dense ones.
    """
    if not 0 <= k <= n_bits:
        raise ValueError(f"need 0 <= k <= n_bits, got k={k}, n_bits={n_bits}")
    return as_generator(rng).choice(n_bits, size=k, replace=False, shuffle=False)


def corrupt(payload: bytes, ber: float, rng) -> bytes:
    """Binomial error count, then uniform distinct flips."""
    buf = np.frombuffer(payload, dtype=np.uint8).copy()
    corrupt_in_place(buf, ber, rng)
    return buf.tobytes()


def corrupt_in_place(buf: np.ndarray, ber: float, rng) -> None:
    """``corrupt`` on a writable uint8 array, with the same draws.

    Flips a binomial count of distinct uniform bits, LSB-first within each byte.
    """
    gen = as_generator(rng)
    k = sample_error_count(8 * buf.size, ber, gen)
    positions = sample_flip_positions(8 * buf.size, k, gen)
    if positions.size:
        masks = (1 << (positions & 7)).astype(np.uint8)
        np.bitwise_xor.at(buf, positions >> 3, masks)
