"""Pruned descriptor matching against the full-matrix rule, and the scene invariant it needs."""

import numpy as np
import pytest

import xrmimo.sandbox.matching as matching_module
from hypothesis import given, settings
from hypothesis import strategies as st

from test_sandbox_scene import axis_scene
from xrmimo.exceptions import ConfigurationError
from xrmimo.sandbox import (
    MATCH_DTYPE,
    MIN_DESCRIPTOR_HAMMING,
    RECORD_WITH_DEPTH_DTYPE,
    Scene,
    descriptor_distances,
    generate_scene,
    match_features,
)
from xrmimo.sandbox.matching import (
    LOOKUP_MAX_DISTANCE,
    MAX_MATCH_DISTANCE,
    MIN_SECOND_BEST_MARGIN,
)


def oracle_match(features, scene):
    """The matching rule on the full feature-by-landmark distance matrix."""
    n = len(features)
    dist = descriptor_distances(features["descriptor"], scene.descriptors)
    best_idx = np.argmin(dist, axis=1)
    best = dist[np.arange(n), best_idx]
    second = np.partition(dist, 1, axis=1)[:, 1]
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


def collision_scene():
    """``axis_scene`` with 12 landmarks: landmarks i and i + 8 share their first 64-bit word."""
    extra = [[0.1 * k, 0.05 * k, 2.0 + 0.1 * k] for k in range(8)]
    return axis_scene(extra_landmarks=extra)


SCENES = {
    "generated": generate_scene(40, rng=61),
    "collisions": collision_scene(),
}


def flip(descriptor, bits) -> np.ndarray:
    unpacked = np.unpackbits(descriptor)
    unpacked[list(bits)] ^= 1
    return np.packbits(unpacked)


def one_sided(descriptor, set_bits: bool, count: int) -> np.ndarray:
    """``descriptor`` with its last ``count`` clear bits set, or set bits cleared.

    The popcount moves by the full distance, which is the popcount bound's edge.
    """
    bits = np.unpackbits(descriptor)
    return flip(descriptor, np.flatnonzero(bits == (0 if set_bits else 1))[::-1][:count])


def toward(scene, a, b, extra_bits, seed) -> np.ndarray:
    """Landmark a's descriptor moved toward b until b is exactly 32 bits farther.

    Needs an even distance between a and b; then ``extra_bits`` flips where
    a and b agree add to both distances and keep the margin at 32.
    """
    bits_a = np.unpackbits(scene.descriptors[a])
    bits_b = np.unpackbits(scene.descriptors[b])
    differ, agree = np.flatnonzero(bits_a != bits_b), np.flatnonzero(bits_a == bits_b)
    rng = np.random.default_rng(seed)
    steps = (differ.size - MIN_SECOND_BEST_MARGIN) // 2
    chosen = np.concatenate([rng.choice(differ, steps, replace=False),
                             rng.choice(agree, extra_bits, replace=False)])
    return flip(scene.descriptors[a], chosen)


def even_pairs(scene):
    """Landmark pairs (a, b) at an even distance, the ones ``toward`` can split."""
    dist = descriptor_distances(scene.descriptors, scene.descriptors)
    return [(a, b) for a in range(scene.n_landmarks) for b in range(scene.n_landmarks)
            if a != b and dist[a, b] % 2 == 0]


EVEN_PAIRS = {name: even_pairs(scene) for name, scene in SCENES.items()}


def make_features(descriptors):
    features = np.zeros(len(descriptors), dtype=RECORD_WITH_DEPTH_DTYPE)
    if len(descriptors):
        features["descriptor"] = np.asarray(descriptors, dtype=np.uint8)
    features["u"] = np.arange(len(descriptors), dtype=np.float32) * 3.5
    features["v"] = np.arange(len(descriptors), dtype=np.float32) * 1.25
    features["depth"] = 1.0 + np.arange(len(descriptors)) / 7.0
    features["valid"] = 1
    return features


@st.composite
def rows(draw, scene, pairs):
    """One descriptor row of a kind the pruning treats specially."""
    n = scene.n_landmarks
    kind = draw(st.sampled_from(["exact", "corrupt", "distance 64", "margin 32",
                                 "one-sided", "zeros", "ones", "random"]))
    if kind == "zeros":
        return np.zeros(32, dtype=np.uint8)
    if kind == "ones":
        return np.full(32, 0xFF, dtype=np.uint8)
    if kind == "random":
        return np.frombuffer(draw(st.binary(min_size=32, max_size=32)), dtype=np.uint8)
    if kind == "margin 32":
        a, b = draw(st.sampled_from(pairs))
        return toward(scene, a, b, draw(st.integers(0, 8)), draw(st.integers(0, 2**16)))
    landmark = scene.descriptors[draw(st.integers(0, n - 1))]
    if kind == "exact":
        return landmark.copy()
    if kind == "one-sided":
        return one_sided(landmark, draw(st.booleans()), draw(st.integers(1, 64)))
    size = (1, 40) if kind == "corrupt" else (64, 64)
    bits = draw(st.sets(st.integers(0, 255), min_size=size[0], max_size=size[1]))
    return flip(landmark, bits)


@pytest.mark.parametrize("name", sorted(SCENES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_equals_full_matrix_rule(name, data):
    scene = SCENES[name]
    drawn = data.draw(st.lists(rows(scene, EVEN_PAIRS[name]), max_size=40), label="rows")
    features = make_features(drawn)
    got = match_features(features, scene)
    assert got.dtype == MATCH_DTYPE
    assert got.tobytes() == oracle_match(features, scene).tobytes()


def tight_scene():
    """40 landmarks where 0 and 1 are exactly ``MIN_DESCRIPTOR_HAMMING`` bits apart.

    They differ only in their last two 64-bit words, so they share the first two.
    """
    scene = generate_scene(40, rng=64)
    descriptors = scene.descriptors.copy()
    descriptors[1] = flip(descriptors[0], range(256 - MIN_DESCRIPTOR_HAMMING, 256))
    return Scene(positions=scene.positions, descriptors=descriptors,
                 intensities=scene.intensities)


def closest_pair(scene):
    dist = descriptor_distances(scene.descriptors, scene.descriptors)
    np.fill_diagonal(dist, np.iinfo(dist.dtype).max)
    return np.unravel_index(np.argmin(dist), dist.shape)


LOOKUP_SCENES = {**SCENES, "tight": tight_scene()}


@st.composite
def received_rows(draw, scene):
    """A row as the receiver sees it: a record with 0-40 flipped bits, or junk.

    A "clean word" record keeps one 64-bit word intact; an "every word"
    record has at least one flip in each word, so no word can find its
    landmark.  Phantoms are empty slots with a few bits set.  A "between"
    row lies on the way from one landmark of the scene's closest pair to the
    other, near where the margin to the second nearest falls below 32.
    """
    kind = draw(st.sampled_from(["clean word", "every word", "phantom", "random", "between"]))
    if kind == "random":
        return np.frombuffer(draw(st.binary(min_size=32, max_size=32)), dtype=np.uint8)
    if kind == "phantom":
        return flip(np.zeros(32, np.uint8), draw(st.sets(st.integers(0, 255), max_size=12)))
    if kind == "between":
        a, b = closest_pair(scene)
        bits_a, bits_b = np.unpackbits(scene.descriptors[a]), np.unpackbits(scene.descriptors[b])
        differ = np.flatnonzero(bits_a != bits_b)
        # The margin is 32 at (d(a, b) - 32) / 2 steps from a.
        crossing = (differ.size - MIN_SECOND_BEST_MARGIN) // 2
        steps = draw(st.integers(crossing - 2, crossing + 8))
        return flip(scene.descriptors[a], differ[:steps])
    landmark = scene.descriptors[draw(st.integers(0, scene.n_landmarks - 1))]
    if kind == "clean word":
        clean = draw(st.integers(0, 3))
        hit = [bit for bit in range(256) if bit // 64 != clean]
        bits = draw(st.sets(st.sampled_from(hit), max_size=40))
    else:
        bits = {draw(st.integers(64 * word, 64 * word + 63)) for word in range(4)}
        bits |= draw(st.sets(st.integers(0, 255), max_size=36))
    return flip(landmark, bits)


@pytest.mark.parametrize("name", sorted(LOOKUP_SCENES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_word_lookup_equals_full_matrix_rule(name, data):
    scene = LOOKUP_SCENES[name]
    drawn = data.draw(st.lists(received_rows(scene), max_size=40), label="rows")
    features = make_features(drawn)
    assert match_features(features, scene).tobytes() == oracle_match(features, scene).tobytes()


def test_lookup_bound_follows_the_scene_separation():
    assert LOOKUP_MAX_DISTANCE == 24
    assert MIN_DESCRIPTOR_HAMMING - LOOKUP_MAX_DISTANCE >= (LOOKUP_MAX_DISTANCE
                                                           + MIN_SECOND_BEST_MARGIN)


@pytest.mark.parametrize("name", sorted(LOOKUP_SCENES))
@pytest.mark.parametrize("distance, searched", [(24, 0), (25, 1)])
def test_lookup_boundary(name, distance, searched, monkeypatch):
    """A row sharing its first word with a landmark settles in the lookup up to 24 bits away."""
    scene = LOOKUP_SCENES[name]
    rows = []
    distances = matching_module.descriptor_distances
    monkeypatch.setattr(matching_module, "descriptor_distances",
                        lambda a, b: rows.append(len(a)) or distances(a, b))
    # Flips past the first word, toward landmark 1 in the tight scene.
    bits = np.flatnonzero(np.unpackbits(scene.descriptors[0])
                          != np.unpackbits(scene.descriptors[1]))
    features = make_features([flip(scene.descriptors[0], bits[bits >= 64][:distance])])
    matches = match_features(features, scene)
    assert sum(rows) == searched
    monkeypatch.undo()
    assert matches.tobytes() == oracle_match(features, scene).tobytes()
    # In the tight scene, 25 bits toward landmark 1 leave a margin of 30.
    assert matches["landmark"].tolist() == ([] if (name, distance) == ("tight", 25) else [0])


@pytest.mark.parametrize("name", sorted(SCENES))
def test_constructed_edge_cases_hit_their_bounds(name):
    """The strategy's edge rows really sit on the rule's bounds, and match."""
    scene = SCENES[name]
    popcounts = np.unpackbits(scene.descriptors, axis=1).sum(axis=1)
    lowest, highest = int(np.argmin(popcounts)), int(np.argmax(popcounts))
    # 64 bits away from a landmark, and 64 below the lowest popcount and
    # above the highest: the popcount bound must let both through.
    edge = make_features([flip(scene.descriptors[0], range(0, 256, 4)),
                          one_sided(scene.descriptors[lowest], False, MAX_MATCH_DISTANCE),
                          one_sided(scene.descriptors[highest], True, MAX_MATCH_DISTANCE)]
                         + [toward(scene, a, b, 4, seed)
                            for seed, (a, b) in enumerate(EVEN_PAIRS[name][:20])])
    dist = descriptor_distances(edge["descriptor"], scene.descriptors)
    assert dist[0, 0] == dist[1, lowest] == dist[2, highest] == MAX_MATCH_DISTANCE
    nearest = np.sort(dist[3:], axis=1)
    assert ((nearest[:, 1] - nearest[:, 0]) == MIN_SECOND_BEST_MARGIN).any()
    assert match_features(edge, scene).tobytes() == oracle_match(edge, scene).tobytes()


def test_popcount_bound_keeps_rows_on_its_edge():
    scene = SCENES["generated"]
    popcounts = np.unpackbits(scene.descriptors, axis=1).sum(axis=1)
    lowest, highest = int(np.argmin(popcounts)), int(np.argmax(popcounts))
    edge = make_features([one_sided(scene.descriptors[lowest], False, MAX_MATCH_DISTANCE),
                          one_sided(scene.descriptors[highest], True, MAX_MATCH_DISTANCE)])
    assert match_features(edge, scene)["landmark"].tolist() == [lowest, highest]


def test_first_word_collisions_fall_through_to_the_full_search():
    scene = collision_scene()
    words = scene.descriptors.view("<u8")
    assert (words[:4, 0] == words[8:12, 0]).all()
    # Exact copies of both colliding landmarks, and a copy of landmark 0
    # with one bit flipped past its first word.
    descriptors = np.concatenate([scene.descriptors[[0, 8, 3, 11]],
                                  flip(scene.descriptors[0], [100])[None, :]])
    matches = match_features(make_features(descriptors), scene)
    assert matches["landmark"].tolist() == [0, 8, 3, 11, 0]


def test_phantoms_and_empty_input():
    scene = SCENES["generated"]
    phantoms = make_features([np.zeros(32, np.uint8), np.full(32, 0xFF, np.uint8)])
    assert len(match_features(phantoms, scene)) == 0
    empty = match_features(make_features([]), scene)
    assert len(empty) == 0 and empty.dtype == MATCH_DTYPE


class TestSceneSeparation:
    def scene_with(self, descriptors):
        n = len(descriptors)
        return Scene(positions=np.arange(3 * n, dtype=float).reshape(n, 3),
                     descriptors=descriptors, intensities=np.zeros(n, np.uint8))

    def test_duplicated_descriptor_rejected(self):
        descriptors = generate_scene(8, rng=62).descriptors.copy()
        descriptors[5] = descriptors[2]
        with pytest.raises(ConfigurationError, match="landmarks 2 and 5 are 0 bits apart"):
            self.scene_with(descriptors)

    @pytest.mark.parametrize("distance", [MIN_DESCRIPTOR_HAMMING - 1, MIN_DESCRIPTOR_HAMMING])
    def test_separation_bound(self, distance):
        descriptors = generate_scene(8, rng=63).descriptors.copy()
        descriptors[6] = flip(descriptors[1], range(distance))
        others = np.delete(descriptor_distances(descriptors[6], descriptors), [1, 6])
        assert others.min() > MIN_DESCRIPTOR_HAMMING  # only the pair (1, 6) is at issue
        if distance < MIN_DESCRIPTOR_HAMMING:
            with pytest.raises(ConfigurationError, match=f"1 and 6 are {distance} bits"):
                self.scene_with(descriptors)
        else:
            assert self.scene_with(descriptors).n_landmarks == 8

