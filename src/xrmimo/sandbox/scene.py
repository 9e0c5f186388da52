"""Synthetic landmark scenes.

A scene is a fixed set of 3D landmarks, each with a 256-bit binary
descriptor and an 8-bit intensity.  Descriptors are pairwise far apart
(Hamming distance >= 80): ``Scene`` rejects a closer pair, so uncorrupted
matching is unambiguous and an exact descriptor names one landmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError
from ..seeding import as_generator

DESCRIPTOR_BYTES = 32
MIN_DESCRIPTOR_HAMMING = 80
ROOM_SIZE_M = (4.2, 2.5, 2.5)  # generated landmarks and trajectories lie in [0, size]


@dataclass(frozen=True)
class Scene:
    positions: np.ndarray
    descriptors: np.ndarray
    intensities: np.ndarray

    def __post_init__(self):
        positions = np.asarray(self.positions, dtype=float)
        descriptors = np.ascontiguousarray(self.descriptors, dtype=np.uint8)
        intensities = np.asarray(self.intensities, dtype=np.uint8)
        n = positions.shape[0]
        if n < 4:
            raise ConfigurationError("a scene needs at least 4 landmarks")
        if positions.shape != (n, 3) or not np.isfinite(positions).all():
            raise ConfigurationError("positions must be finite (n, 3)")
        if descriptors.shape != (n, DESCRIPTOR_BYTES):
            raise ConfigurationError(f"descriptors must be (n, {DESCRIPTOR_BYTES}) bytes")
        if intensities.shape != (n,):
            raise ConfigurationError("intensities must be (n,)")
        i, j, distance = _closest_pair(descriptors)
        if distance < MIN_DESCRIPTOR_HAMMING:
            raise ConfigurationError(
                f"descriptors of landmarks {i} and {j} are {distance} bits apart, "
                f"need >= {MIN_DESCRIPTOR_HAMMING}"
            )
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "descriptors", descriptors)
        object.__setattr__(self, "intensities", intensities)

    @property
    def n_landmarks(self) -> int:
        return self.positions.shape[0]


def descriptor_distances(a, b) -> np.ndarray:
    """Pairwise Hamming distances between two descriptor byte arrays.

    ``a`` is (n, w) or (w,) bytes and ``b`` is (m, w) or (w,); the result
    is (n, m) int32.  When w is a multiple of 8 the rows are compared as
    64-bit words, otherwise byte by byte: one (n, m) XOR and popcount per
    word position, added into the result.  Chunked over rows of ``a`` to
    keep the XOR workspace small.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.uint8))
    b = np.atleast_2d(np.asarray(b, dtype=np.uint8))
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"descriptor widths differ: {a.shape[-1]} and {b.shape[-1]}")
    out = np.zeros((a.shape[0], b.shape[0]), dtype=np.int32)
    chunk = max(1, 4_000_000 // max(1, b.shape[0] * b.shape[1]))
    if a.shape[-1] % 8 == 0:
        a = np.ascontiguousarray(a).view("<u8")
        b = np.ascontiguousarray(b).view("<u8")
    for start in range(0, a.shape[0], chunk):
        stop = min(start + chunk, a.shape[0])
        rows, block = a[start:stop], out[start:stop]
        for word in range(a.shape[-1]):
            block += np.bitwise_count(rows[:, word, None] ^ b[None, :, word])
    return out


def _closest_pair(descriptors) -> tuple[int, int, int]:
    """(i, j, Hamming distance) of the first closest pair of distinct rows, i < j."""
    dist = descriptor_distances(descriptors, descriptors)
    np.fill_diagonal(dist, DESCRIPTOR_BYTES * 8)
    i, j = np.unravel_index(np.argmin(dist), dist.shape)
    return int(i), int(j), int(dist[i, j])


def generate_scene(n_landmarks: int, rng=0) -> Scene:
    """Uniform landmarks in the room with separated random descriptors.

    The descriptors are drawn as one block, redrawn whole while any pair is
    closer than ``MIN_DESCRIPTOR_HAMMING`` bits; at 400 landmarks that
    happens to one draw in about 30 000.
    """
    if n_landmarks < 4:
        raise ConfigurationError("n_landmarks must be >= 4")
    gen = as_generator(rng)
    positions = gen.uniform(0.0, ROOM_SIZE_M, size=(n_landmarks, 3))
    shape = (n_landmarks, DESCRIPTOR_BYTES)
    descriptors = gen.integers(0, 256, size=shape, dtype=np.uint8)
    while _closest_pair(descriptors)[2] < MIN_DESCRIPTOR_HAMMING:
        descriptors = gen.integers(0, 256, size=shape, dtype=np.uint8)
    intensities = gen.integers(0, 256, size=n_landmarks, dtype=np.uint8)
    return Scene(positions=positions, descriptors=descriptors, intensities=intensities)
