"""The trajectory pass of the sandbox front end equals its one-frame calls, byte for byte.

``run_pipeline`` observes all frames at once, encodes and corrupts every
frame in one reused wire buffer, and matches all frames' records in one
call.  Each stacked form must give every frame the bytes of the one-frame
call, and of an independent oracle where one exists.
"""

import warnings

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

import xrmimo.sandbox.matching as matching_module
from test_matching import oracle_match
from test_sandbox_scene import landmark_ids
from test_solver import invisible_scene
from xrmimo.biterrors import corrupt, corrupt_in_place
from xrmimo.exceptions import FramingError
from xrmimo.sandbox import (
    MATCH_DTYPE,
    MAX_FEATURES_PER_FRAME,
    RECORD_WITH_DEPTH_DTYPE,
    CameraModel,
    Scene,
    decode_payload,
    encode_payload,
    generate_scene,
    generate_trajectory,
    match_features,
    observe,
    payload_num_bytes,
)
from xrmimo.sandbox.features import observe_block
from xrmimo.sandbox.matching import MAX_MATCH_DISTANCE, SEARCH_BLOCK_ROWS
from xrmimo.sandbox.payload import FrameEncoder

CAMERA = CameraModel()
# Power-of-two intrinsics put landmarks at x, y = +-0.5 z exactly on the
# image border, and depths 0.5 and 8 are exact.
BORDER_CAMERA = CameraModel(width=641, height=481, fx=640.0, fy=480.0, cx=320.0, cy=240.0,
                            depth_min=0.5, depth_max=8.0)
IDENTITY = np.array([0.0, 0.0, 0.0, 1.0])


def reference_observe(scene, camera, position, quaternion):
    """One frame's observation computed on the landmarks in range only."""
    r_wc = Rotation.from_quat(quaternion).as_matrix()
    pts_cam = (scene.positions - np.asarray(position, dtype=float)) @ r_wc
    z = pts_cam[:, 2]
    idx = np.flatnonzero((z >= camera.depth_min) & (z <= camera.depth_max))
    pixels = camera.project(pts_cam[idx])
    in_image = ((pixels[:, 0] >= 0.0) & (pixels[:, 0] <= camera.width - 1)
                & (pixels[:, 1] >= 0.0) & (pixels[:, 1] <= camera.height - 1))
    idx, pixels = idx[in_image], pixels[in_image]
    center_dist2 = (pixels[:, 0] - camera.cx) ** 2 + (pixels[:, 1] - camera.cy) ** 2
    order = np.argsort(center_dist2, kind="stable")[:MAX_FEATURES_PER_FRAME]
    landmarks = idx[order]
    records = np.zeros(order.size, dtype=RECORD_WITH_DEPTH_DTYPE)
    records["descriptor"] = scene.descriptors[landmarks]
    records["u"] = pixels[order, 0]
    records["v"] = pixels[order, 1]
    records["score"] = 1.0 / (1.0 + np.sqrt(center_dist2[order]) / 100.0)
    records["valid"] = 1
    records["intensity"] = scene.intensities[landmarks]
    records["depth"] = z[landmarks]
    return records


def observe_frames(scene, camera, positions, quaternions):
    """``observe_block`` split into one record array per frame."""
    records, counts = observe_block(scene, camera, positions, quaternions)
    assert counts.shape == (len(positions),)
    return np.split(records, np.cumsum(counts)[:-1])


def assert_frames_equal_one_at_a_time(scene, camera, positions, quaternions):
    frames = observe_frames(scene, camera, positions, quaternions)
    assert len(frames) == len(positions)
    for i, records in enumerate(frames):
        assert records.dtype == RECORD_WITH_DEPTH_DTYPE
        alone = observe(scene, camera, positions[i], quaternions[i])
        assert records.tobytes() == alone.tobytes(), i
        assert records.tobytes() == reference_observe(scene, camera, positions[i],
                                                      quaternions[i]).tobytes(), i
    return frames


def scene_at(positions, seed=0):
    """A scene with the given landmark positions and well-separated descriptors."""
    generated = generate_scene(len(positions), rng=seed)
    return Scene(positions=positions, descriptors=generated.descriptors,
                 intensities=generated.intensities)


def poses(n, seed):
    """Small moves and turns about the identity pose at the origin."""
    rng = np.random.default_rng(seed)
    positions = np.vstack([np.zeros(3), 0.05 * rng.standard_normal((n - 1, 3))])
    quaternions = np.vstack([IDENTITY, Rotation.from_rotvec(
        0.05 * rng.standard_normal((n - 1, 3))).as_quat()])
    return positions, quaternions


class TestObserveFrames:
    def test_default_trajectory(self):
        scene, traj = generate_scene(400, rng=15), generate_trajectory(100, rng=16)
        frames = assert_frames_equal_one_at_a_time(scene, CAMERA, traj.positions,
                                                   traj.quaternions)
        assert min(len(records) for records in frames) >= 4

    def test_frames_that_see_nothing(self):
        traj = generate_trajectory(10, rng=15)
        frames = assert_frames_equal_one_at_a_time(invisible_scene(), CAMERA, traj.positions,
                                                   traj.quaternions)
        assert all(len(records) == 0 for records in frames)

    def test_image_border_and_depth_range_edges(self):
        kept = [[-0.5, 0.0, 1.0], [0.5, 0.0, 1.0], [0.0, -0.5, 1.0], [0.0, 0.5, 1.0],
                [0.0, 0.0, 0.5], [0.1, 0.0, 8.0]]
        dropped = [[-0.5000001, 0.0, 1.0], [0.0, 0.5000001, 1.0],
                   [0.0, 0.0, np.nextafter(0.5, 0.0)], [0.0, 0.0, np.nextafter(8.0, 9.0)]]
        scene = scene_at(np.array(kept + dropped))
        positions, quaternions = poses(4, seed=3)
        frames = assert_frames_equal_one_at_a_time(scene, BORDER_CAMERA, positions, quaternions)
        # At the identity pose the edge landmarks are kept and the others not.
        ids = landmark_ids(scene, frames[0])
        assert sorted(ids.tolist()) == list(range(len(kept)))
        assert frames[0]["u"].min() == 0.0 and frames[0]["u"].max() == 640.0
        assert frames[0]["v"].min() == 0.0 and frames[0]["v"].max() == 480.0

    def test_landmarks_at_zero_depth_raise_no_floating_point_error(self):
        scene = scene_at(np.array([[0.0, 0.0, 0.0], [0.3, -0.2, 0.0], [1.0, 1.0, 1e-300],
                                   [0.0, 0.0, 2.0], [0.2, 0.1, 3.0]]))
        positions, quaternions = np.zeros((2, 3)), np.tile(IDENTITY, (2, 1))
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            frames = observe_frames(scene, CAMERA, positions, quaternions)
            alone = observe(scene, CAMERA, positions[0], quaternions[0])
        assert [sorted(landmark_ids(scene, f).tolist()) for f in frames] == [[3, 4], [3, 4]]
        assert alone.tobytes() == frames[0].tobytes()

    def test_cap_and_tie_order_on_a_crowded_scene(self):
        # 2000 landmarks in view, each position twice: every centre distance
        # ties, and the cap of 1536 cuts through the ties.
        rng = np.random.default_rng(21)
        unique = np.column_stack([rng.uniform(-1.0, 1.0, 1000), rng.uniform(-0.7, 0.7, 1000),
                                  rng.uniform(2.0, 5.0, 1000)])
        scene = scene_at(np.repeat(unique, 2, axis=0), seed=22)
        positions, quaternions = poses(5, seed=23)
        frames = assert_frames_equal_one_at_a_time(scene, CAMERA, positions, quaternions)
        assert all(len(records) == MAX_FEATURES_PER_FRAME for records in frames)
        ids = landmark_ids(scene, frames[0])
        pairs = ids[:-1][(ids[:-1] // 2) == (ids[1:] // 2)]
        assert pairs.size > 0 and np.all(pairs % 2 == 0)


class TestWire:
    @pytest.mark.parametrize("scenario", [1, 2, 3])
    def test_encode_into_a_used_array_equals_encode_payload(self, scenario):
        scene, traj = generate_scene(400, rng=5), generate_trajectory(3, rng=6)
        features, counts = observe_block(scene, CAMERA, traj.positions, traj.quaternions)
        encoder = FrameEncoder(features, counts, scenario, CAMERA)
        wire = np.full(payload_num_bytes(scenario, CAMERA), 0xA5, dtype=np.uint8)
        for i, records in enumerate(np.split(features, np.cumsum(counts)[:-1])):
            encoder.write(wire, i)
            assert wire.tobytes() == encode_payload(records, scenario, CAMERA)

    def test_encode_into_rejects_a_wrong_length(self):
        features = observe(generate_scene(400, rng=5), CAMERA, [2.0, 1.2, 1.2], IDENTITY)
        encoder = FrameEncoder(features, [len(features)], 2, CAMERA)
        wire = np.zeros(payload_num_bytes(2, CAMERA) - 1, dtype=np.uint8)
        with pytest.raises(FramingError):
            encoder.write(wire, 0)

    @pytest.mark.parametrize("ber", [0.0, 1e-5, 1e-2, 0.5])
    @pytest.mark.parametrize("scenario", [1, 2, 3])
    def test_corrupt_in_place_draws_what_corrupt_draws(self, scenario, ber):
        payload = np.random.default_rng(scenario).integers(
            0, 256, payload_num_bytes(scenario, CAMERA), dtype=np.uint8)
        gen_in_place, gen_copy, gen_oracle = (np.random.default_rng(77) for _ in range(3))
        buf = payload.copy()
        corrupt_in_place(buf, ber, gen_in_place)
        # Oracle: a binomial count, then distinct positions, flipped bit by bit.
        n_bits = 8 * payload.size
        k = gen_oracle.binomial(n_bits, ber)
        bits = np.unpackbits(payload, bitorder="little")
        bits[gen_oracle.choice(n_bits, size=k, replace=False, shuffle=False)] ^= 1
        expected = np.packbits(bits, bitorder="little").tobytes()
        assert buf.tobytes() == corrupt(payload.tobytes(), ber, gen_copy) == expected
        states = [g.bit_generator.state for g in (gen_in_place, gen_copy, gen_oracle)]
        assert states[0] == states[1] == states[2]


def test_trajectory_match_equals_per_frame_matches(monkeypatch):
    scene, traj = generate_scene(400, rng=8), generate_trajectory(12, rng=9)
    decoded = []
    # At BER 0.1 a record takes about 26 descriptor flips: some records
    # still settle in the one-word lookup, and more than two blocks of rows
    # reach the full search.
    for i, features in enumerate(observe_frames(scene, CAMERA, traj.positions,
                                                traj.quaternions)):
        received = corrupt(encode_payload(features, 2, CAMERA), 0.1, np.random.default_rng(i))
        decoded.append(decode_payload(received, 2, CAMERA))
    decoded.insert(5, decoded[5][:0])
    per_frame = [match_features(records, scene) for records in decoded]
    records = np.concatenate(decoded)
    assert match_features(records, scene).tobytes() == oracle_match(records, scene).tobytes()

    searched = []
    distances = matching_module.descriptor_distances
    monkeypatch.setattr(matching_module, "descriptor_distances",
                        lambda a, b: searched.append(len(a)) or distances(a, b))
    block = match_features(records, scene)
    assert sum(searched) >= 2 * SEARCH_BLOCK_ROWS + 1
    assert max(searched) <= SEARCH_BLOCK_ROWS
    # Rows within the popcount bound either settle in the lookup or are searched.
    popcounts = np.unpackbits(records["descriptor"], axis=1).sum(axis=1)
    landmark_popcounts = np.unpackbits(scene.descriptors, axis=1).sum(axis=1)
    reachable = ((popcounts >= landmark_popcounts.min() - MAX_MATCH_DISTANCE)
                 & (popcounts <= landmark_popcounts.max() + MAX_MATCH_DISTANCE))
    assert reachable.sum() - sum(searched) > 0
    # Frame j's rows of the block match are its own matches, except that the
    # block numbers features from frame j's first record, not from 0.
    starts = np.cumsum([0] + [len(d) for d in decoded])
    assert (np.diff(block["feature"]) > 0).all()
    for j, expected in enumerate(per_frame):
        got = block[(block["feature"] >= starts[j]) & (block["feature"] < starts[j + 1])]
        for name in MATCH_DTYPE.names:
            want = starts[j] + expected[name] if name == "feature" else expected[name]
            assert got[name].tobytes() == want.tobytes(), (j, name)
    assert sum(len(expected) for expected in per_frame) == len(block)
    assert len(match_features(records[:0], scene)) == 0
