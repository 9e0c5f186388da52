"""Wire format tests: exact sizes, round trips, sanitised decoding."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_biterrors import hamming_distance
import xrmimo.sandbox.payload as payload_module
from xrmimo.biterrors import corrupt
from xrmimo.exceptions import FramingError
from xrmimo.scenarios import SCENARIO_IDS, SCENARIO_UL_BYTES
from xrmimo.sandbox import (
    CameraModel,
    FEATURE_SLOTS,
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
    """Synthetic feature records with distinct integer pixels (no depth-map collisions)."""
    rng = np.random.default_rng(seed)
    cells = rng.choice(640 * 480, size=n, replace=False)
    features = np.zeros(n, dtype=RECORD_WITH_DEPTH_DTYPE)
    features["u"] = cells % 640
    features["v"] = cells // 640
    features["valid"] = 1
    for i in range(n):
        depth = rng.uniform(0.31, 9.9)
        if mm_aligned:
            depth = round(depth * 1000.0) / 1000.0
        features["depth"][i] = depth
        features["descriptor"][i] = rng.integers(0, 256, 32, dtype=np.uint8)
        features["intensity"][i] = rng.integers(0, 256)
        features["score"][i] = rng.uniform(0, 1)
    return features


def assert_same_records(got, sent):
    assert got.dtype == sent.dtype
    for name in sent.dtype.names:
        assert np.array_equal(got[name], sent[name]), name


class TestPayloadSizes:
    def test_table_sizes_exact(self):
        assert payload_num_bytes(1, CAMERA) == 921_600
        assert payload_num_bytes(2, CAMERA) == 688_128
        assert payload_num_bytes(3, CAMERA) == 86_016

    @pytest.mark.parametrize("scenario", SCENARIO_IDS)
    def test_scenario_table_matches_default_camera(self, scenario):
        assert payload_num_bytes(scenario, CameraModel()) == SCENARIO_UL_BYTES[scenario]

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
        assert_same_records(decoded, feats)

    @pytest.mark.parametrize("scenario", [1, 2])
    def test_depth_map_scenarios_exact_on_mm_grid(self, scenario):
        feats = sample_features(60, mm_aligned=True, seed=1)
        decoded = decode_payload(encode_payload(feats, scenario, CAMERA), scenario, CAMERA)
        assert_same_records(decoded, feats)

    @pytest.mark.parametrize("scenario", [1, 2])
    def test_depth_quantised_to_millimetres(self, scenario):
        feats = sample_features(60, seed=2)
        decoded = decode_payload(encode_payload(feats, scenario, CAMERA), scenario, CAMERA)
        assert len(decoded) == len(feats)
        for name in ("u", "v", "descriptor", "intensity", "score"):
            assert np.array_equal(decoded[name], feats[name])
        assert np.abs(decoded["depth"] - feats["depth"]).max() <= 5e-4

    def test_observed_features_round_trip(self):
        scene = generate_scene(300, rng=3)
        traj = generate_trajectory(5, rng=4)
        feats = observe(scene, CAMERA, traj.positions[0], traj.quaternions[0])
        decoded = decode_payload(encode_payload(feats, 3, CAMERA), 3, CAMERA)
        assert_same_records(decoded, feats)

    def test_empty_feature_list(self):
        empty = np.zeros(0, dtype=RECORD_WITH_DEPTH_DTYPE)
        decoded = decode_payload(encode_payload(empty, 3, CAMERA), 3, CAMERA)
        assert_same_records(decoded, empty)


class TestDepthImage:
    @pytest.mark.parametrize("scenario", [1, 2])
    def test_later_feature_wins_a_shared_pixel(self, scenario):
        feats = sample_features(6, mm_aligned=True, seed=11)
        # Rows 0, 2 and 4 all round to pixel (100, 50).
        feats["u"][[0, 2, 4]] = [100.0, 100.25, 99.75]
        feats["v"][[0, 2, 4]] = [50.0, 49.75, 50.25]
        decoded = decode_payload(encode_payload(feats, scenario, CAMERA), scenario, CAMERA)
        assert (decoded["depth"][[0, 2, 4]] == feats["depth"][4]).all()
        assert np.array_equal(decoded["depth"][[1, 3, 5]], feats["depth"][[1, 3, 5]])


# (decoded rows, sha256 of their u, v, depth as f8, score, intensity and
# descriptor bytes) for one observed frame through encode, corrupt at BER
# 1e-3 and decode; pins the codec path bit for bit.
CODEC_GOLDEN = {
    1: (59, "ea3957511a6f9da8b8154f337d3384faa9801d27e000602e35b39588574ae87b"),
    2: (65, "492c681f2da9914739b0a254b79bca381df9fc77ee5fc7d581cef66a47c0cd5e"),
    3: (59, "7b1d0a70c8ab71ebcdd88c5e7df87d6d11f54fdb1539e9c95bd2e22514fd2c12"),
}


def codec_digest(decoded) -> str:
    digest = hashlib.sha256()
    for name in ("u", "v", "depth"):
        digest.update(decoded[name].astype("<f8").tobytes())
    digest.update(decoded["score"].astype("<f4").tobytes())
    digest.update(decoded["intensity"].astype("u1").tobytes())
    digest.update(np.ascontiguousarray(decoded["descriptor"]).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("scenario", [1, 2, 3])
def test_corrupted_codec_path_golden(scenario):
    scene = generate_scene(400, rng=21)
    traj = generate_trajectory(10, rng=22)
    feats = observe(scene, CAMERA, traj.positions[3], traj.quaternions[3])
    assert len(feats) == 51
    received = corrupt(encode_payload(feats, scenario, CAMERA), 1e-3, np.random.default_rng(23))
    decoded = decode_payload(received, scenario, CAMERA)
    assert (len(decoded), codec_digest(decoded)) == CODEC_GOLDEN[scenario]


def offsets_encode(features, scenario, camera) -> bytes:
    """Scenario 1 and 2 encoders as a fancy-index scatter of each record byte."""
    records = payload_module._build_records(features, RECORD_DTYPE)
    depth = payload_module._depth_image(features, camera).tobytes()
    if scenario == 2:
        return records.tobytes() + depth
    stride = payload_module._patch_stride(camera)
    image = payload_module._background_image(camera).flatten()
    offsets = (np.arange(FEATURE_SLOTS) * stride)[:, None] + np.arange(RECORD_DTYPE.itemsize)
    image[offsets] = records.view(np.uint8).reshape(FEATURE_SLOTS, RECORD_DTYPE.itemsize)
    return image.tobytes() + depth


def offsets_decode(payload, scenario, camera):
    """Scenario 1 and 2 decoders that gather records by fancy index and slice the bytes."""
    clamp = payload_module._clamp
    image_bytes = camera.width * camera.height
    if scenario == 2:
        split = FEATURE_SLOTS * RECORD_DTYPE.itemsize
        records = np.frombuffer(payload[:split], dtype=RECORD_DTYPE)
    else:
        split = image_bytes
        stride = payload_module._patch_stride(camera)
        image = np.frombuffer(payload[:image_bytes], dtype=np.uint8)
        offsets = (np.arange(FEATURE_SLOTS) * stride)[:, None] + np.arange(RECORD_DTYPE.itemsize)
        records = image[offsets].reshape(-1).view(RECORD_DTYPE)
    depth_image = np.frombuffer(payload[split:], dtype="<u2").reshape(camera.height, camera.width)
    records = records[records["valid"] != 0]
    with np.errstate(invalid="ignore"):
        u = clamp(records["u"], 0.0, float(camera.width - 1))
        v = clamp(records["v"], 0.0, float(camera.height - 1))
        score = clamp(records["score"], 0.0, 1.0)
    px = np.clip(np.rint(u), 0, camera.width - 1).astype(int)
    py = np.clip(np.rint(v), 0, camera.height - 1).astype(int)
    decoded = np.zeros(len(records), dtype=RECORD_WITH_DEPTH_DTYPE)
    decoded["descriptor"] = records["descriptor"]
    decoded["u"] = u
    decoded["v"] = v
    decoded["score"] = score
    decoded["valid"] = 1
    decoded["intensity"] = records["intensity"]
    decoded["depth"] = clamp(depth_image[py, px] / 1000.0, camera.depth_min, camera.depth_max)
    return decoded


def camera_features(camera, n, seed):
    """Random records at distinct pixels of ``camera``'s image."""
    rng = np.random.default_rng(seed)
    cells = rng.choice(camera.width * camera.height, size=n, replace=False)
    features = np.zeros(n, dtype=RECORD_WITH_DEPTH_DTYPE)
    features["u"] = cells % camera.width + rng.uniform(-0.4, 0.4, n)
    features["v"] = cells // camera.width + rng.uniform(-0.4, 0.4, n)
    features["depth"] = rng.uniform(camera.depth_min, camera.depth_max, n)
    features["descriptor"] = rng.integers(0, 256, (n, 32), dtype=np.uint8)
    features["intensity"] = rng.integers(0, 256, n)
    features["score"] = rng.uniform(0, 1, n)
    features["valid"] = 1
    return features


# 321 x 241 is an odd image size: the depth image starts at an odd byte.
@pytest.mark.parametrize("camera", [CAMERA, CameraModel(width=321, height=241)],
                         ids=["640x480", "321x241"])
@pytest.mark.parametrize("ber", [0.0, 1e-3, 0.3])
@pytest.mark.parametrize("scenario", [1, 2])
def test_codec_equals_offset_scatter_and_gather(camera, ber, scenario):
    for seed, n in enumerate([0, 60, FEATURE_SLOTS]):
        features = camera_features(camera, n, seed)
        payload = encode_payload(features, scenario, camera)
        assert payload == offsets_encode(features, scenario, camera)
        received = corrupt(payload, ber, np.random.default_rng([seed, scenario]))
        assert (decode_payload(received, scenario, camera).tobytes()
                == offsets_decode(received, scenario, camera).tobytes())


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
            encode_payload(np.tile(feats, 200), 3, CAMERA)

    def test_unknown_scenario(self):
        from xrmimo.exceptions import ConfigurationError
        with pytest.raises(ConfigurationError):
            encode_payload(sample_features(), 4, CAMERA)


def assert_in_range(decoded):
    assert ((0.0 <= decoded["u"]) & (decoded["u"] <= CAMERA.width - 1)).all()
    assert ((0.0 <= decoded["v"]) & (decoded["v"] <= CAMERA.height - 1)).all()
    assert ((CAMERA.depth_min <= decoded["depth"])
            & (decoded["depth"] <= CAMERA.depth_max)).all()
    assert ((0.0 <= decoded["score"]) & (decoded["score"] <= 1.0)).all()


class TestSanitisedDecoding:
    def test_nan_pixel_becomes_midpoint(self):
        feats = sample_features(5, seed=5)
        payload = bytearray(encode_payload(feats, 3, CAMERA))
        records = np.frombuffer(bytes(payload), dtype=RECORD_WITH_DEPTH_DTYPE).copy()
        records["u"][0] = np.nan
        records["depth"][1] = 42.0
        records["depth"][2] = -1.0
        decoded = decode_payload(records.tobytes(), 3, CAMERA)
        assert decoded["u"][0] == pytest.approx((CAMERA.width - 1) / 2.0)
        assert decoded["depth"][1] == CAMERA.depth_max
        assert decoded["depth"][2] == CAMERA.depth_min

    def test_decoded_fields_always_in_range(self):
        feats = sample_features(200, seed=6)
        payload = encode_payload(feats, 3, CAMERA)
        rng = np.random.default_rng(7)
        mangled = corrupt(payload, 5e-3, rng)
        decoded = decode_payload(mangled, 3, CAMERA)
        assert_in_range(decoded)
        assert ((0 <= decoded["intensity"]) & (decoded["intensity"] <= 255)).all()

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
        assert_in_range(decoded)

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
