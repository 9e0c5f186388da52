"""Descriptor matching against a known scene.

The receiver holds the full landmark map, so matching is a nearest-
descriptor search with an absolute distance gate and a second-best margin.
Scene descriptors are pairwise >= 80 apart (``Scene`` enforces it), which
makes uncorrupted matches unambiguous.

Two exact prunings settle most rows before any full distance row is
computed, and neither changes a decision of the rule:

* a row equal to landmark j's descriptor is at distance 0 from j and, by
  the triangle inequality, at least 80 >= 0 + ``MIN_SECOND_BEST_MARGIN``
  from every other landmark, so the rule accepts it with j.  The lookup
  sorts the landmarks by their first 64-bit word and then compares the
  whole descriptor; a row that shares a first word with a landmark but
  differs elsewhere takes the full search.
* |popcount(a) - popcount(b)| <= d(a, b), so a row whose popcount lies
  more than ``MAX_MATCH_DISTANCE`` outside the range of the landmarks'
  popcounts is farther than that from every landmark and is rejected.
  This catches the phantom slots, which are near-zero descriptors.
"""

from __future__ import annotations

import numpy as np

from .scene import Scene, descriptor_distances

MAX_MATCH_DISTANCE = 64
MIN_SECOND_BEST_MARGIN = 32
# Rows per full search, so the (rows, landmarks) distance block stays
# small when a whole trajectory's records are matched in one call.
SEARCH_BLOCK_ROWS = 256

# One accepted correspondence: the record row it came from, the landmark
# it matched, and what the solver needs of both.
MATCH_DTYPE = np.dtype([
    ("feature", "<i8"),
    ("landmark", "<i8"),
    ("pixel", "<f8", (2,)),
    ("depth", "<f8"),
    ("world", "<f8", (3,)),
])


def _popcounts(words) -> np.ndarray:
    return np.bitwise_count(words).sum(axis=1, dtype=np.int64)


def match_features(features, scene: Scene) -> np.ndarray:
    """Accepted feature-to-landmark correspondences, one ``MATCH_DTYPE`` row each.

    A feature matches iff its nearest scene descriptor is within
    ``MAX_MATCH_DISTANCE`` and the second nearest is at least
    ``MIN_SECOND_BEST_MARGIN`` bits farther.  An empty result is valid.
    """
    descriptors = np.ascontiguousarray(features["descriptor"])
    rows = descriptors.view("<u8")
    landmarks = scene.descriptors.view("<u8")

    # Distance-0 lookup, then the popcount bound; the rest take the full rule.
    order = np.argsort(landmarks[:, 0], kind="stable")
    slot = np.searchsorted(landmarks[order, 0], rows[:, 0])
    best_idx = order[np.minimum(slot, order.size - 1)]
    accept = (landmarks[best_idx] == rows).all(axis=1)

    counts = _popcounts(rows)
    landmark_counts = _popcounts(landmarks)
    reachable = ((counts >= landmark_counts.min() - MAX_MATCH_DISTANCE)
                 & (counts <= landmark_counts.max() + MAX_MATCH_DISTANCE))
    rest = np.flatnonzero(~accept & reachable)
    for start in range(0, rest.size, SEARCH_BLOCK_ROWS):
        block = rest[start:start + SEARCH_BLOCK_ROWS]
        dist = descriptor_distances(descriptors[block], scene.descriptors)
        nearest = np.argmin(dist, axis=1)
        best = dist[np.arange(block.size), nearest]
        second = np.partition(dist, 1, axis=1)[:, 1]
        best_idx[block] = nearest
        accept[block] = (best <= MAX_MATCH_DISTANCE) & (second >= best + MIN_SECOND_BEST_MARGIN)
    accepted = np.flatnonzero(accept)

    matches = np.zeros(accepted.size, dtype=MATCH_DTYPE)
    matches["feature"] = accepted
    matches["landmark"] = best_idx[accepted]
    matches["pixel"][:, 0] = features["u"][accepted]
    matches["pixel"][:, 1] = features["v"][accepted]
    matches["depth"] = features["depth"][accepted]
    matches["world"] = scene.positions[matches["landmark"]]
    return matches
