"""Uncoded bit-error injection on serialized payloads.

Error counts follow a binomial law in the payload length and the bit error
rate; error positions are uniform without replacement (channel hardening
makes bursts unlikely, so no burst model).

Bits are numbered lane by lane: of an n-byte wire, position q is bit
``q // n`` (LSB first) of byte ``q % n``.  ``sample_flip_positions``
returns its positions in ascending order, so they arrive grouped by bit
lane, and inside a lane each byte appears at most once; ``corrupt_in_place``
then applies each lane with one fancy-indexed XOR.

The positions are drawn in one of two regimes, both exact:

- from ``SORTED_DRAW_FLIPS`` flips up to ``n_bits // 50``, where repeats
  are 1% or fewer, uniform integers are drawn with replacement, sorted and
  deduplicated, a shortfall is drawn again and a surplus is thinned by a
  uniform subset.  Each step treats every position alike, so the law of
  the set is unchanged by any relabelling of ``range(n_bits)``, and a law
  on k-subsets with that symmetry is the uniform one;
- below and above that range numpy's without-replacement ``choice``
  (Floyd's algorithm for sparse draws, a partial Fisher-Yates shuffle for
  dense ones), sorted.
"""

from __future__ import annotations

import numpy as np

from .seeding import as_generator

# Flips from which the positions are a sorted draw with replacement and the
# lanes are applied one XOR each; below it ``choice`` and one ``xor.at``
# are cheaper (about 60 us at 2048 flips either way).
SORTED_DRAW_FLIPS = 2048


def sample_error_count(n_bits: int, ber: float, rng) -> int:
    """Draw the number of flipped bits from Binomial(n_bits, ber)."""
    if n_bits < 0:
        raise ValueError("n_bits must be >= 0")
    if not 0.0 <= ber <= 1.0:
        raise ValueError("ber must lie in [0, 1]")
    return int(as_generator(rng).binomial(n_bits, ber))


def sample_flip_positions(n_bits: int, k: int, rng) -> np.ndarray:
    """k distinct ascending int64 bit positions, uniform over all k-subsets of range(n_bits)."""
    if not 0 <= k <= n_bits:
        raise ValueError(f"need 0 <= k <= n_bits, got k={k}, n_bits={n_bits}")
    gen = as_generator(rng)
    if not SORTED_DRAW_FLIPS <= k <= n_bits // 50:
        return np.sort(gen.choice(n_bits, size=k, replace=False, shuffle=False))
    dtype = np.uint32 if n_bits <= 1 << 32 else np.int64
    # Draw about as many more as the expected repeats, so that a second draw is rare.
    positions = _distinct(gen.integers(n_bits, size=k + k * k // n_bits + 16, dtype=dtype))
    while positions.size < k:
        positions = _distinct(np.concatenate(
            [positions, gen.integers(n_bits, size=k - positions.size, dtype=dtype)]))
    surplus = gen.choice(positions.size, size=positions.size - k, replace=False, shuffle=False)
    return np.delete(positions, surplus).astype(np.int64)


def _distinct(draws: np.ndarray) -> np.ndarray:
    """The distinct values of ``draws``, ascending (``np.unique`` is slower here)."""
    draws = np.sort(draws)
    keep = np.empty(draws.size, dtype=bool)
    keep[:1] = True
    np.not_equal(draws[1:], draws[:-1], out=keep[1:])
    return draws[keep]


def corrupt(payload: bytes, ber: float, rng) -> bytes:
    """Binomial error count, then uniform distinct flips."""
    buf = np.frombuffer(payload, dtype=np.uint8).copy()
    corrupt_in_place(buf, ber, rng)
    return buf.tobytes()


def corrupt_in_place(buf: np.ndarray, ber: float, rng) -> None:
    """``corrupt`` on a writable uint8 array, with the same draws.

    Flips a binomial count of distinct uniform bits, numbered lane by lane.
    """
    gen = as_generator(rng)
    n_bytes = buf.size
    k = sample_error_count(8 * n_bytes, ber, gen)
    if k == 0:  # an empty ``choice`` draws nothing, so skipping it keeps the stream
        return
    positions = sample_flip_positions(8 * n_bytes, k, gen)
    if k < SORTED_DRAW_FLIPS:
        # A byte may take flips in several lanes; ``xor.at`` applies each one.
        lanes, byte = np.divmod(positions, n_bytes)
        np.bitwise_xor.at(buf, byte, np.left_shift(1, lanes).astype(np.uint8))
        return
    ends = np.searchsorted(positions, n_bytes * np.arange(1, 9))
    for lane, (lo, hi) in enumerate(zip([0, *ends[:-1]], ends)):
        buf[positions[lo:hi] - lane * n_bytes] ^= np.uint8(1 << lane)
