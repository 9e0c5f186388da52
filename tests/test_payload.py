"""Wire format tests: exact sizes, round trips, sanitised decoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_biterrors import hamming_distance
from xrmimo.biterrors import corrupt
from xrmimo.exceptions import FramingError
from xrmimo.scenarios import SCENARIO_IDS, SCENARIO_UL_BYTES
from xrmimo.sandbox import (
    CameraModel,
    FEATURE_SLOTS,
    Feature,
    RECORD_DTYPE,
    RECORD_WITH_DEPTH_DTYPE,
    decode_payload,
    encode_payload,
    generate_scene,
    generate_trajectory,
    observe,
    payload_num_bytes,
)

CAMERA = CameraModel()


def sample_features(n=40, mm_aligned=False, seed=0):
    """Synthetic features with distinct integer pixels (no depth-map collisions)."""
    rng = np.random.default_rng(seed)
    cells = rng.choice(640 * 480, size=n, replace=False)
    features = []
    for i, cell in enumerate(cells):
        u = float(np.float32(cell % 640))
        v = float(np.float32(cell // 640))
        depth = rng.uniform(0.31, 9.9)
        if mm_aligned:
            depth = round(depth * 1000.0) / 1000.0
        features.append(Feature(
            u=u, v=v, depth=float(depth),
            descriptor=rng.integers(0, 256, 32, dtype=np.uint8).tobytes(),
            intensity=int(rng.integers(0, 256)),
            score=float(np.float32(rng.uniform(0, 1))),
            landmark_id=i,
        ))
    return features


class TestPayloadSizes:
    def test_table_sizes_exact(self):
        assert payload_num_bytes(1, CAMERA) == 921_600
        assert payload_num_bytes(2, CAMERA) == 688_128
        assert payload_num_bytes(3, CAMERA) == 86_016

    @pytest.mark.parametrize("scenario", SCENARIO_IDS)
    def test_scenario_table_matches_default_camera(self, scenario):
        assert payload_num_bytes(scenario) == SCENARIO_UL_BYTES[scenario]

    def test_record_layout_sizes(self):
        assert RECORD_DTYPE.itemsize == 48
        assert RECORD_WITH_DEPTH_DTYPE.itemsize == 56
        assert FEATURE_SLOTS * RECORD_WITH_DEPTH_DTYPE.itemsize == 86_016

    @pytest.mark.parametrize("scenario", [1, 2, 3])
    def test_encoded_length_matches(self, scenario):
        payload = encode_payload(sample_features(), scenario, CAMERA)
        assert len(payload) == payload_num_bytes(scenario, CAMERA)


class TestRoundTrip:
    def test_scenario_3_exact(self):
        feats = sample_features(100)
        decoded = decode_payload(encode_payload(feats, 3, CAMERA), 3, CAMERA)
        assert decoded == feats

    @pytest.mark.parametrize("scenario", [1, 2])
    def test_depth_map_scenarios_exact_on_mm_grid(self, scenario):
        feats = sample_features(60, mm_aligned=True, seed=1)
        decoded = decode_payload(encode_payload(feats, scenario, CAMERA), scenario, CAMERA)
        assert decoded == feats

    @pytest.mark.parametrize("scenario", [1, 2])
    def test_depth_quantised_to_millimetres(self, scenario):
        feats = sample_features(60, seed=2)
        decoded = decode_payload(encode_payload(feats, scenario, CAMERA), scenario, CAMERA)
        assert len(decoded) == len(feats)
        for got, sent in zip(decoded, feats):
            assert (got.u, got.v, got.descriptor, got.intensity, got.score) == \
                   (sent.u, sent.v, sent.descriptor, sent.intensity, sent.score)
            assert abs(got.depth - sent.depth) <= 5e-4

    def test_observed_features_round_trip(self):
        scene = generate_scene(300, rng=3)
        traj = generate_trajectory(5, rng=4)
        feats = observe(scene, CAMERA, traj.positions[0], traj.quaternions[0])
        decoded = decode_payload(encode_payload(feats, 3, CAMERA), 3, CAMERA)
        assert decoded == feats

    def test_empty_feature_list(self):
        decoded = decode_payload(encode_payload([], 3, CAMERA), 3, CAMERA)
        assert decoded == []


class TestFraming:
    def test_wrong_length_rejected(self):
        payload = encode_payload(sample_features(), 3, CAMERA)
        with pytest.raises(FramingError):
            decode_payload(payload[:-1], 3, CAMERA)
        with pytest.raises(FramingError):
            decode_payload(payload, 2, CAMERA)

    def test_too_many_features(self):
        feats = sample_features(10)
        with pytest.raises(FramingError):
            encode_payload(feats * 200, 3, CAMERA)

    def test_unknown_scenario(self):
        from xrmimo.exceptions import ConfigurationError
        with pytest.raises(ConfigurationError):
            encode_payload(sample_features(), 4, CAMERA)


class TestSanitisedDecoding:
    def test_nan_pixel_becomes_midpoint(self):
        feats = sample_features(5, seed=5)
        payload = bytearray(encode_payload(feats, 3, CAMERA))
        records = np.frombuffer(bytes(payload), dtype=RECORD_WITH_DEPTH_DTYPE).copy()
        records["u"][0] = np.nan
        records["depth"][1] = 42.0
        records["depth"][2] = -1.0
        decoded = decode_payload(records.tobytes(), 3, CAMERA)
        assert decoded[0].u == pytest.approx((CAMERA.width - 1) / 2.0)
        assert decoded[1].depth == CAMERA.depth_max
        assert decoded[2].depth == CAMERA.depth_min

    def test_decoded_fields_always_in_range(self):
        feats = sample_features(200, seed=6)
        payload = encode_payload(feats, 3, CAMERA)
        rng = np.random.default_rng(7)
        mangled = corrupt(payload, 5e-3, rng)
        decoded = decode_payload(mangled, 3, CAMERA)
        for f in decoded:
            assert 0.0 <= f.u <= CAMERA.width - 1
            assert 0.0 <= f.v <= CAMERA.height - 1
            assert CAMERA.depth_min <= f.depth <= CAMERA.depth_max
            assert 0.0 <= f.score <= 1.0
            assert 0 <= f.intensity <= 255

    @pytest.mark.parametrize("scenario", [1, 2, 3])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_arbitrary_bytes_decode_in_range(self, scenario, data):
        n = payload_num_bytes(scenario, CAMERA)
        # A wire image is too large to draw byte by byte: tile a drawn pattern
        # (NaN, inf and all-ones floats among them) or fill from a drawn seed,
        # then overwrite drawn spans with drawn bytes.
        if data.draw(st.booleans(), label="seeded fill"):
            seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
            wire = bytearray(np.random.default_rng(seed).bytes(n))
        else:
            tile = data.draw(st.binary(min_size=1, max_size=16), label="tile")
            wire = bytearray((tile * (n // len(tile) + 1))[:n])
        patches = st.tuples(st.integers(0, n - 1), st.binary(min_size=1, max_size=64))
        for offset, chunk in data.draw(st.lists(patches, max_size=8), label="patches"):
            chunk = chunk[:n - offset]
            wire[offset:offset + len(chunk)] = chunk
        decoded = decode_payload(bytes(wire), scenario, CAMERA)
        assert len(decoded) <= FEATURE_SLOTS
        for f in decoded:
            assert 0.0 <= f.u <= CAMERA.width - 1
            assert 0.0 <= f.v <= CAMERA.height - 1
            assert CAMERA.depth_min <= f.depth <= CAMERA.depth_max
            assert 0.0 <= f.score <= 1.0

    def test_padding_slots_stay_invalid_without_corruption(self):
        feats = sample_features(7, seed=8)
        decoded = decode_payload(encode_payload(feats, 1, CAMERA), 1, CAMERA)
        assert len(decoded) == 7


class TestCorruptionSurface:
    def test_expected_corrupted_bits_order_by_scenario(self):
        sizes = {s: payload_num_bytes(s, CAMERA) * 8 for s in (1, 2, 3)}
        for ber in (1e-5, 1e-4, 1e-3, 1e-2):
            assert sizes[1] * ber > sizes[2] * ber > sizes[3] * ber

    def test_empirical_corruption_ordering(self):
        feats = sample_features(50, seed=9)
        rng = np.random.default_rng(10)
        means = {}
        for scenario in (1, 2, 3):
            payload = encode_payload(feats, scenario, CAMERA)
            dist = [hamming_distance(corrupt(payload, 1e-3, rng), payload)
                    for _ in range(30)]
            means[scenario] = np.mean(dist)
        assert means[1] > means[2] > means[3]
