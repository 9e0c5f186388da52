"""Descriptor matching against a known scene.

The receiver holds the full landmark map, so matching is a nearest-
descriptor search with an absolute distance gate and a second-best margin.
Scene descriptors are pairwise >= 80 apart, which makes uncorrupted
matches unambiguous.
"""

from __future__ import annotations

import numpy as np

from .scene import Scene, descriptor_distances

MAX_MATCH_DISTANCE = 64
MIN_SECOND_BEST_MARGIN = 32

# One accepted correspondence: the record row it came from, the landmark
# it matched, and what the solver needs of both.
MATCH_DTYPE = np.dtype([
    ("feature", "<i8"),
    ("landmark", "<i8"),
    ("pixel", "<f8", (2,)),
    ("depth", "<f8"),
    ("world", "<f8", (3,)),
])


def match_features(features, scene: Scene) -> np.ndarray:
    """Accepted feature-to-landmark correspondences, one ``MATCH_DTYPE`` row each.

    A feature matches iff its nearest scene descriptor is within
    ``MAX_MATCH_DISTANCE`` and the second nearest is at least
    ``MIN_SECOND_BEST_MARGIN`` bits farther.  An empty result is valid.
    """
    n = len(features)
    dist = descriptor_distances(features["descriptor"], scene.descriptors)
    best_idx = np.argmin(dist, axis=1)
    best = dist[np.arange(n), best_idx]
    if scene.n_landmarks >= 2:
        second = np.partition(dist, 1, axis=1)[:, 1]
    else:
        second = np.full(n, np.iinfo(np.int32).max)
    accepted = np.flatnonzero(
        (best <= MAX_MATCH_DISTANCE) & (second >= best + MIN_SECOND_BEST_MARGIN)
    )

    matches = np.zeros(accepted.size, dtype=MATCH_DTYPE)
    matches["feature"] = accepted
    matches["landmark"] = best_idx[accepted]
    matches["pixel"][:, 0] = features["u"][accepted]
    matches["pixel"][:, 1] = features["v"][accepted]
    matches["depth"] = features["depth"][accepted]
    matches["world"] = scene.positions[matches["landmark"]]
    return matches
