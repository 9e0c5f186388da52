"""Descriptor matching against a known scene.

The receiver holds the full landmark map, so matching is a nearest-
descriptor search with an absolute distance gate and a second-best margin.
Scene descriptors are pairwise >= 80 apart (``Scene`` enforces it), which
makes uncorrupted matches unambiguous.

Two exact steps settle most rows before any full distance row is
computed, and neither changes a decision of the rule:

* |popcount(a) - popcount(b)| <= d(a, b), so a row whose popcount lies
  more than ``MAX_MATCH_DISTANCE`` outside the range of the landmarks'
  popcounts is farther than that from every landmark and is rejected.
  This catches the phantom slots, which are near-zero descriptors.
* the one-word lookup.  For each of the four 64-bit words, the landmarks
  are sorted by that word, and a row is paired with the landmark its word
  sorts onto, which shares the word if any landmark does.  A row at
  distance d <= ``LOOKUP_MAX_DISTANCE`` (24) from that landmark j is
  accepted with j: every other landmark is at least 80 - d >= d +
  ``MIN_SECOND_BEST_MARGIN`` bits away, so the rule picks j and accepts.
  A record with at most 24 flipped bits keeps one of its four words
  intact unless the flips hit every word, so most corrupted records
  settle here, and uncorrupted ones at distance 0.
"""

from __future__ import annotations

import numpy as np

from .scene import MIN_DESCRIPTOR_HAMMING, Scene, descriptor_distances

MAX_MATCH_DISTANCE = 64
MIN_SECOND_BEST_MARGIN = 32
# The farthest a row may be from one landmark and still be accepted with it
# whatever the other landmarks are (see the module docstring).
LOOKUP_MAX_DISTANCE = min((MIN_DESCRIPTOR_HAMMING - MIN_SECOND_BEST_MARGIN) // 2,
                          MAX_MATCH_DISTANCE)
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

    # The popcount bound, then the one-word lookup; the rest take the full rule.
    counts = _popcounts(rows)
    landmark_counts = _popcounts(landmarks)
    rest = np.flatnonzero((counts >= landmark_counts.min() - MAX_MATCH_DISTANCE)
                          & (counts <= landmark_counts.max() + MAX_MATCH_DISTANCE))
    accept = np.zeros(len(rows), dtype=bool)
    best_idx = np.zeros(len(rows), dtype=np.intp)
    for word in range(rows.shape[1]):
        if not rest.size:
            break
        order = np.argsort(landmarks[:, word], kind="stable")
        slot = np.searchsorted(landmarks[order, word], rows[rest, word])
        candidate = order[np.minimum(slot, order.size - 1)]
        near = _popcounts(landmarks[candidate] ^ rows[rest]) <= LOOKUP_MAX_DISTANCE
        best_idx[rest[near]] = candidate[near]
        accept[rest[near]] = True
        rest = rest[~near]
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
