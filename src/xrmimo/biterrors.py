"""Uncoded bit-error injection on serialized payloads.

Error counts follow a binomial law in the payload length and the bit error
rate; error positions are uniform without replacement (channel hardening
makes bursts unlikely, so no burst model).

Bits are numbered lane by lane: of an n-byte wire, position q is bit
``q // n`` (LSB first) of byte ``q % n``.  ``draw_flips`` draws the
positions and returns them in ascending order, so they arrive grouped by
bit lane, and inside a lane each byte appears at most once; ``apply_flips``
then applies each lane with one fancy-indexed XOR.  ``corrupt_in_place`` is
the two in turn.

The positions are drawn in one of two regimes, both exact:

- from ``SORTED_DRAW_FLIPS`` flips up, uniform integers are drawn with
  replacement, sorted and deduplicated, a shortfall is drawn again and a
  surplus is thinned by a uniform subset.  Each step treats every position
  alike, so the law of the set is unchanged by any relabelling of
  ``range(n_bits)``, and a law on k-subsets with that symmetry is the
  uniform one.  Above half the bits, the bits left unflipped are drawn
  this way and the flips are their complement, which is uniform too.  So
  the memory a draw takes grows with its flips, not with ``n_bits``;
- below it, numpy's without-replacement ``choice`` (Floyd's algorithm for
  sparse draws, a partial Fisher-Yates shuffle over ``range(n_bits)`` for
  dense ones), sorted.
"""

from __future__ import annotations

import math

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
    if k < SORTED_DRAW_FLIPS:
        return np.sort(gen.choice(n_bits, size=k, replace=False, shuffle=False))
    if 2 * k > n_bits:
        unflipped = np.ones(n_bits, dtype=bool)
        unflipped[sample_flip_positions(n_bits, n_bits - k, gen)] = False
        return np.flatnonzero(unflipped).astype(np.int64, copy=False)
    dtype = np.uint32 if n_bits <= 1 << 32 else np.int64
    if k <= n_bits // 50:
        # About as many more as the expected repeats, so that a second draw is rare.
        size = k + k * k // n_bits + 16
    else:
        # d draws leave n(1 - e^(-d/n)) distinct values on average, with a
        # spread below 0.4 sqrt(k) up to k = n/2.
        size = int(-n_bits * math.log1p(-k / n_bits)) + 2 * math.isqrt(k) + 16
    positions = _distinct(gen.integers(n_bits, size=size, dtype=dtype))
    while positions.size < k:
        positions = _distinct(np.concatenate(
            [positions, gen.integers(n_bits, size=k - positions.size, dtype=dtype)]))
    surplus = gen.choice(positions.size, size=positions.size - k, replace=False, shuffle=False)
    return np.delete(positions, surplus).astype(np.int64)


def _distinct(draws: np.ndarray) -> np.ndarray:
    """Sorts ``draws`` in place and returns its distinct values (``np.unique`` is slower)."""
    draws.sort()
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
    """``corrupt`` on a writable uint8 array, with the same draws: ``draw_flips``, applied."""
    apply_flips(buf, draw_flips(8 * buf.size, ber, rng))


def draw_flips(n_bits: int, ber: float, rng) -> np.ndarray:
    """A binomial count of distinct uniform bit positions of ``range(n_bits)``, ascending."""
    gen = as_generator(rng)
    k = sample_error_count(n_bits, ber, gen)
    # An empty ``choice`` draws nothing, so skipping it keeps the stream.
    return sample_flip_positions(n_bits, k, gen) if k else np.zeros(0, dtype=np.int64)


def apply_flips(buf: np.ndarray, positions: np.ndarray) -> None:
    """Flip bit ``q // n`` of byte ``q % n`` of an n-byte ``buf`` for each ascending q."""
    n_bytes = buf.size
    if positions.size < SORTED_DRAW_FLIPS:
        # A byte may take flips in several lanes; ``xor.at`` applies each one.
        lanes, byte = np.divmod(positions, n_bytes)
        np.bitwise_xor.at(buf, byte, np.left_shift(1, lanes).astype(np.uint8))
        return
    ends = np.searchsorted(positions, n_bytes * np.arange(1, 9))
    for lane, (lo, hi) in enumerate(zip([0, *ends[:-1]], ends)):
        buf[positions[lo:hi] - lane * n_bytes] ^= np.uint8(1 << lane)
