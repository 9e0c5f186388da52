"""Wire format tests: exact sizes, round trips, sanitised decoding."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_biterrors import hamming_distance
import xrmimo.sandbox.payload as payload_module
from xrmimo.biterrors import apply_flips, corrupt, corrupt_in_place, draw_flips
from xrmimo.exceptions import ConfigurationError, FramingError
from xrmimo.scenarios import SCENARIO_IDS, SCENARIO_UL_BYTES
from xrmimo.sandbox import (
    CameraModel,
    MAX_FEATURES_PER_FRAME,
    RECORD_DTYPE,
    RECORD_WITH_DEPTH_DTYPE,
    decode_payload,
    encode_payload,
    generate_scene,
    generate_trajectory,
    observe,
    payload_num_bytes,
)
from xrmimo.sandbox.features import concatenate_records
from xrmimo.sandbox.payload import FrameEncoder, decode_records, read_slots

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
        assert MAX_FEATURES_PER_FRAME * RECORD_WITH_DEPTH_DTYPE.itemsize == 86_016

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
    1: (59, "b644c68d5b4e2b08835396c30a1d904deaacc6249d57cc96b3dc50ee296b84ce"),
    2: (67, "5097e7980d7d423755a8259b4a004fc515c80c01ad2f7c84c4f73298b25ff7f8"),
    3: (69, "94f111e216210e8c1071d77d95d74d739eb8d8e4bc1242e614dbce391607bfe2"),
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


def oracle_layout(scenario, camera):
    """(record dtype, slot stride, record-region bytes, has a depth image), written out."""
    pixels = camera.width * camera.height
    if scenario == 1:
        return RECORD_DTYPE, pixels // 1536, pixels, True
    if scenario == 2:
        return RECORD_DTYPE, 48, 1536 * 48, True
    return RECORD_WITH_DEPTH_DTYPE, 56, 1536 * 56, False


def slot_offsets(stride, itemsize):
    """(1536, itemsize) byte offsets of every record slot in the region."""
    return (np.arange(MAX_FEATURES_PER_FRAME) * stride)[:, None] + np.arange(itemsize)


def offsets_encode(features, scenario, camera) -> bytes:
    """The encoders as a fancy-index scatter of each record byte into a zero region."""
    dtype, stride, region_bytes, has_depth = oracle_layout(scenario, camera)
    records = np.zeros(MAX_FEATURES_PER_FRAME, dtype=dtype)
    for name in dtype.names:
        records[name][:len(features)] = features[name]
    region = np.zeros(region_bytes, dtype=np.uint8)
    region[slot_offsets(stride, dtype.itemsize)] = records.view(np.uint8).reshape(
        MAX_FEATURES_PER_FRAME, dtype.itemsize)
    if not has_depth:
        return region.tobytes()
    depth = np.zeros((camera.height, camera.width), dtype="<u2")
    for u, v, metres in zip(features["u"], features["v"], features["depth"]):
        px = int(min(max(np.rint(u), 0), camera.width - 1))
        py = int(min(max(np.rint(v), 0), camera.height - 1))
        depth[py, px] = min(max(np.rint(metres * 1000.0), 0), 65535)  # the later feature wins
    return region.tobytes() + depth.tobytes()


def offsets_decode(payload, scenario, camera):
    """The decoders as a fancy-index gather of each record byte, slicing the depth image."""
    clamp = payload_module._clamp
    dtype, stride, region_bytes, has_depth = oracle_layout(scenario, camera)
    region = np.frombuffer(payload[:region_bytes], dtype=np.uint8)
    records = region[slot_offsets(stride, dtype.itemsize)].reshape(-1).view(dtype)
    records = records[records["valid"] != 0]
    with np.errstate(invalid="ignore"):
        u = clamp(records["u"], 0.0, float(camera.width - 1))
        v = clamp(records["v"], 0.0, float(camera.height - 1))
        score = clamp(records["score"], 0.0, 1.0)
    if has_depth:
        depth_image = np.frombuffer(payload[region_bytes:], dtype="<u2").reshape(
            camera.height, camera.width)
        px = np.clip(np.rint(u), 0, camera.width - 1).astype(int)
        py = np.clip(np.rint(v), 0, camera.height - 1).astype(int)
        depth = depth_image[py, px] / 1000.0
    else:
        depth = records["depth"]
    decoded = np.zeros(len(records), dtype=RECORD_WITH_DEPTH_DTYPE)
    decoded["descriptor"] = records["descriptor"]
    decoded["u"] = u
    decoded["v"] = v
    decoded["score"] = score
    decoded["valid"] = 1
    decoded["intensity"] = records["intensity"]
    decoded["depth"] = clamp(depth, camera.depth_min, camera.depth_max)
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
@pytest.mark.parametrize("scenario", [1, 2, 3])
def test_codec_equals_offset_scatter_and_gather(camera, ber, scenario):
    for seed, n in enumerate([0, 60, MAX_FEATURES_PER_FRAME]):
        features = camera_features(camera, n, seed)
        payload = encode_payload(features, scenario, camera)
        assert payload == offsets_encode(features, scenario, camera)
        received = corrupt(payload, ber, np.random.default_rng([seed, scenario]))
        assert (decode_payload(received, scenario, camera).tobytes()
                == offsets_decode(received, scenario, camera).tobytes())


def block_frames():
    """Frames for the block codec: a pixel shared within and across frames, 3 and 1536 rows."""
    frames = [camera_features(CAMERA, n, seed) for seed, n in enumerate([40, 40, 3, 1536, 0])]
    # Frame 0 puts rows 0 and 1 on pixel (100, 50), frame 1 its row 5.
    for frame, row in ((0, 0), (0, 1), (1, 5)):
        frames[frame]["u"][row], frames[frame]["v"][row] = 100.2, 49.9
    return frames


@pytest.mark.parametrize("ber", [0.0, 1e-5, 1e-2, 0.3])
@pytest.mark.parametrize("scenario", [1, 2, 3])
def test_block_codec_equals_one_frame_codec(scenario, ber):
    frames = block_frames()
    encoder = FrameEncoder(np.concatenate(frames), [len(f) for f in frames], scenario, CAMERA)
    wire = np.full(encoder.n_bytes, 0xA5, dtype=np.uint8)
    slots, depths, expected = [], [], []
    for j, features in enumerate(frames):
        payload = encode_payload(features, scenario, CAMERA)
        encoder.write(wire, j)
        assert wire.tobytes() == payload, j
        corrupt_in_place(wire, ber, np.random.default_rng([j, scenario]))
        received = corrupt(payload, ber, np.random.default_rng([j, scenario]))
        assert wire.tobytes() == received, j
        records, depth = read_slots(wire, scenario, CAMERA)
        slots.append(records)
        depths.append(depth)
        expected.append(decode_payload(received, scenario, CAMERA))
    if scenario != 3 and ber == 0.0:
        # The later row wins a pixel within a frame, and not across frames.
        millimetres = np.rint([frames[0]["depth"][1] * 1000.0, frames[1]["depth"][5] * 1000.0])
        assert expected[0]["depth"][0] == expected[0]["depth"][1] == millimetres[0] / 1000.0
        assert expected[1]["depth"][5] == millimetres[1] / 1000.0
    decoded = decode_records(concatenate_records(slots), np.concatenate(depths), CAMERA)
    assert decoded.tobytes() == np.concatenate(expected).tobytes()


@pytest.mark.parametrize("camera", [CAMERA, CameraModel(width=321, height=241)],
                         ids=["640x480", "321x241"])
def test_scenario_1_receiver_reads_only_slots_and_depth_image(camera):
    # The encoder zero-fills the image bytes between record slots; any other
    # filler must decode to the same records.
    _, stride, region_bytes, _ = oracle_layout(1, camera)
    gaps = np.ones(region_bytes, dtype=bool)
    gaps[slot_offsets(stride, RECORD_DTYPE.itemsize)] = False
    rng = np.random.default_rng(31)
    for seed, n in enumerate([60, MAX_FEATURES_PER_FRAME]):
        features = camera_features(camera, n, seed)
        for ber in (0.0, 1e-3):
            received = corrupt(encode_payload(features, 1, camera), ber, rng)
            wire = np.frombuffer(received, dtype=np.uint8).copy()
            wire[:region_bytes][gaps] = rng.integers(0, 256, int(gaps.sum()), dtype=np.uint8)
            assert wire.tobytes() != received
            assert (decode_payload(wire.tobytes(), 1, camera).tobytes()
                    == decode_payload(received, 1, camera).tobytes())


def read_set_frames(camera):
    """Frames sharing pixels within and across frames, with a record the sender marks invalid.

    Frame 0 puts rows 0 and 1 on one pixel, and rows 3 and 4 on another
    where the invalid row 4 writes last; frame 1 puts its row 5 on frame 0's
    first pixel.  Frame 2 fills every slot, frame 3 sends 4 records and
    frame 4 none.
    """
    frames = [camera_features(camera, n, seed) for seed, n in enumerate([40, 40, 1536, 4, 0])]
    for frame, row in ((0, 0), (0, 1), (1, 5)):
        frames[frame]["u"][row], frames[frame]["v"][row] = 100.2, 49.9
    frames[0]["u"][4], frames[0]["v"][4] = frames[0]["u"][3], frames[0]["v"][3]
    frames[0]["valid"][4] = 0
    return frames


def hand_built_flips(frames, j, scenario, camera):
    """(name, byte, whether ``read_slots`` reads that byte of frame j) for single flips
    at the edges of the read set."""
    dtype, stride, region, has_depth = oracle_layout(scenario, camera)
    n = len(frames[j])
    valid = dtype.fields["valid"][1]
    cases = []
    if n:
        cases += [("first byte of a sent record", 0, True),
                  ("last byte of a sent record", (n - 1) * stride + dtype.itemsize - 1, True)]
    if n < MAX_FEATURES_PER_FRAME:
        cases += [("valid byte of an empty slot", n * stride + valid, True),
                  ("other byte of an empty slot", n * stride + valid - 1, False)]
    if scenario == 1:
        cases.append(("gap byte between slots", dtype.itemsize, False))
    if has_depth and n:
        px = np.clip(np.rint(frames[j]["u"][0]), 0, camera.width - 1).astype(int)
        py = np.clip(np.rint(frames[j]["v"][0]), 0, camera.height - 1).astype(int)
        sent = region + 2 * (py * camera.width + px)
        cases += [("high byte of a sent depth pixel", sent + 1, True),
                  ("depth pixel not sent", region + 2 * camera.width * camera.height - 2, False)]
    return cases


@pytest.mark.parametrize("camera", [CAMERA, CameraModel(width=321, height=241)],
                         ids=["640x480", "321x241"])
@pytest.mark.parametrize("scenario", [1, 2, 3])
def test_read_set_check_against_read_slots(camera, scenario):
    """Where ``reads`` finds no flip on a read byte, ``clean_read`` is ``read_slots`` of the
    written and flipped wire, byte for byte; where the two differ, ``reads`` finds one.

    Each set is checked alone, then all of them together.
    """
    frames = read_set_frames(camera)
    encoder = FrameEncoder(np.concatenate(frames), [len(f) for f in frames], scenario, camera)
    wire = np.empty(encoder.n_bytes, dtype=np.uint8)
    rng = np.random.default_rng([43, scenario])
    sets, verdicts = [], []

    def check(j, positions):
        encoder.write(wire, j)
        apply_flips(wire, positions)
        records, depth = read_slots(wire, scenario, camera)
        clean_records, clean_depth = encoder.clean_read(j)
        same = (records.dtype == clean_records.dtype
                and records.tobytes() == clean_records.tobytes()
                and depth.tobytes() == clean_depth.tobytes())
        hit = bool(encoder.reads([j], [positions])[0])
        assert hit or same, (j, positions)
        sets.append((j, positions, hit))
        return hit, same

    for j, features in enumerate(frames):
        assert check(j, np.zeros(0, dtype=np.int64)) == (False, True)
        assert len(encoder.clean_read(j)[0]) == np.count_nonzero(features["valid"])
        for name, byte, read in hand_built_flips(frames, j, scenario, camera):
            for lane in (0, 7):
                hit, same = check(j, np.array([lane * encoder.n_bytes + byte]))
                # Each read byte here changes the read-out when flipped.
                assert (hit, same) == (read, not read), (j, name, lane)
        for ber in (1e-6, 1e-5, 1e-4, 1e-3):
            for _ in range(5):
                verdicts.append(check(j, draw_flips(8 * encoder.n_bytes, ber, rng))[0])
    # The random sets give both verdicts.
    assert 0 < sum(verdicts) < len(verdicts)
    # Checked together, in any frame order, each set keeps its verdict.
    for order in (slice(None), slice(None, None, -1)):
        frame, flips, hit = zip(*sets[order])
        assert encoder.reads(np.array(frame), flips).tolist() == list(hit)
    # An encoder whose one frame sends nothing reads only the valid bytes.
    dtype, stride, region, has_depth = oracle_layout(scenario, camera)
    alone = FrameEncoder(frames[4], [0], scenario, camera)
    flips = [np.array([stride + dtype.fields["valid"][1]]), np.array([alone.n_bytes - 1])]
    assert alone.reads([0, 0], flips).tolist() == [True, False]
    # Every read byte counts once in the size that ``run_pipeline``'s gate takes.
    for j, features in enumerate(frames):
        pixels = np.unique(np.clip(np.rint(features["v"]), 0, camera.height - 1).astype(int)
                           * camera.width
                           + np.clip(np.rint(features["u"]), 0, camera.width - 1).astype(int))
        n = len(features)
        assert encoder.read_bytes[j] == (n * dtype.itemsize + MAX_FEATURES_PER_FRAME - n
                                         + 2 * pixels.size * has_depth)


class TestSmallImage:
    # 160 x 120 = 19 200 image bytes give a slot stride of 12 bytes, shorter
    # than one 48-byte record, so scenario 1 cannot carry the slots.
    CAMERA = CameraModel(width=160, height=120, cx=79.5, cy=59.5)

    def test_scenario_1_rejected(self):
        features = camera_features(self.CAMERA, 10, seed=41)
        with pytest.raises(ConfigurationError, match="too small"):
            payload_num_bytes(1, self.CAMERA)
        with pytest.raises(ConfigurationError, match="too small"):
            encode_payload(features, 1, self.CAMERA)
        with pytest.raises(ConfigurationError, match="too small"):
            decode_payload(bytes(3 * 160 * 120), 1, self.CAMERA)

    @pytest.mark.parametrize("scenario", [2, 3])
    def test_other_scenarios_round_trip(self, scenario):
        camera = self.CAMERA
        features = camera_features(camera, 60, seed=42)
        features["u"] = np.clip(features["u"], 0, camera.width - 1)
        features["v"] = np.clip(features["v"], 0, camera.height - 1)
        features["depth"] = np.rint(features["depth"] * 1000.0) / 1000.0
        payload = encode_payload(features, scenario, camera)
        assert len(payload) == payload_num_bytes(scenario, camera)
        assert_same_records(decode_payload(payload, scenario, camera), features)


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
        assert len(decoded) <= MAX_FEATURES_PER_FRAME
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
