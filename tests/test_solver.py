"""Matching, pose solving, and end-to-end pipeline tests."""

import math
import threading
import tracemalloc
from hashlib import sha256

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

import xrmimo.parallel as parallel_module
import xrmimo.sandbox.pipeline as pipeline_module
from test_sandbox_scene import landmark_ids
from xrmimo.biterrors import corrupt
from xrmimo.exceptions import AlignmentError
from xrmimo.metrics import ate_translation
from xrmimo.sandbox import (
    MATCH_DTYPE,
    RECORD_WITH_DEPTH_DTYPE,
    MIN_FEATURES_FOR_POSE,
    CameraModel,
    GroundTruthTrajectory,
    Scene,
    TrajectoryEstimate,
    decode_payload,
    encode_payload,
    generate_scene,
    generate_trajectory,
    match_features,
    observe,
    reprojection_jacobian,
    reprojection_residuals,
    run_pipeline,
    solve_pose,
    solve_poses,
)
from xrmimo.sandbox.features import observe_block
from xrmimo.sandbox.payload import FrameEncoder
from xrmimo.sandbox.pipeline import BLOCK_FRAMES
from xrmimo.sandbox.solver import SOLVE_CHUNK_FRAMES
from xrmimo.seeding import seed_sequence

CAMERA = CameraModel()


def random_pose(rng):
    """Camera pose (position, R_wc) looking at a landmark cloud near origin."""
    position = rng.uniform(-0.5, 0.5, 3) + np.array([0.0, 0.0, -3.0])
    r_wc = Rotation.from_rotvec(0.1 * rng.standard_normal(3)).as_matrix()
    return position, r_wc


def synthetic_correspondences(rng, n=40, depth_outliers=0):
    """Noise-free correspondences from a known pose, plus optional bad depths."""
    position, r_wc = random_pose(rng)
    r_cw = r_wc.T
    t_cw = -r_cw @ position
    world = rng.uniform(-1.0, 1.0, (n, 3))
    pts_cam = world @ r_cw.T + t_cw
    keep = (pts_cam[:, 2] > CAMERA.depth_min) & (pts_cam[:, 2] < CAMERA.depth_max)
    world, pts_cam = world[keep], pts_cam[keep]
    pixels = CAMERA.project(pts_cam)
    in_img = ((pixels[:, 0] >= 0) & (pixels[:, 0] <= CAMERA.width - 1)
              & (pixels[:, 1] >= 0) & (pixels[:, 1] <= CAMERA.height - 1))
    world, pts_cam, pixels = world[in_img], pts_cam[in_img], pixels[in_img]
    depths = pts_cam[:, 2].copy()
    if depth_outliers:
        depths[:depth_outliers] = CAMERA.depth_max
    return correspondences(pixels, depths, world), position, r_wc


def correspondences(pixels, depths, world):
    """A match array pairing feature i with landmark i."""
    matches = np.zeros(len(world), dtype=MATCH_DTYPE)
    matches["feature"] = matches["landmark"] = np.arange(len(world))
    matches["pixel"] = pixels
    matches["depth"] = depths
    matches["world"] = world
    return matches


def rotation_angle(q_a, q_b):
    return (Rotation.from_quat(q_a) * Rotation.from_quat(q_b).inv()).magnitude()


class TestMatching:
    def test_uncorrupted_matches_are_all_correct(self):
        scene = generate_scene(300, rng=0)
        traj = generate_trajectory(5, rng=1)
        feats = observe(scene, CAMERA, traj.positions[2], traj.quaternions[2])
        matches = match_features(feats, scene)
        assert len(matches) == len(feats)
        truth = landmark_ids(scene, feats)
        assert (truth >= 0).all()
        assert np.array_equal(matches["landmark"], truth[matches["feature"]])

    def test_heavily_corrupted_descriptor_rejected_or_wrong(self):
        scene = generate_scene(50, rng=2)
        traj = generate_trajectory(5, rng=3)
        feats = observe(scene, CAMERA, traj.positions[0], traj.quaternions[0])
        landmark = landmark_ids(scene, feats[:1])[0]
        assert landmark >= 0
        mangled = feats[:1].copy()
        bits = np.unpackbits(mangled["descriptor"][0])
        bits[:65] ^= 1  # 65 flips exceeds the acceptance threshold of 64
        mangled["descriptor"][0] = np.packbits(bits)
        matches = match_features(mangled, scene)
        assert (matches["landmark"] != landmark).all()

    def test_empty_input(self):
        scene = generate_scene(10, rng=4)
        matches = match_features(np.zeros(0, dtype=RECORD_WITH_DEPTH_DTYPE), scene)
        assert len(matches) == 0 and matches.dtype == MATCH_DTYPE


class TestSolvePose:
    def test_noise_free_recovery(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            matches, position, r_wc = synthetic_correspondences(rng)
            if len(matches) < 4:
                continue
            result = solve_pose(matches, CAMERA)
            assert result.solved
            assert np.linalg.norm(result.position - position) < 1e-6
            true_quat = Rotation.from_matrix(r_wc).as_quat()
            assert rotation_angle(result.quaternion, true_quat) < 1e-6

    def test_planted_depth_outliers_trimmed(self):
        rng = np.random.default_rng(6)
        matches, position, _ = synthetic_correspondences(rng, n=60, depth_outliers=12)
        result = solve_pose(matches, CAMERA)
        assert result.solved
        assert np.linalg.norm(result.position - position) < 1e-3
        assert result.n_inliers < len(matches)

    def test_three_correspondences_unsolved(self):
        rng = np.random.default_rng(7)
        matches, _, _ = synthetic_correspondences(rng)
        result = solve_pose(matches[:3], CAMERA)
        assert not result.solved

    def test_degenerate_geometry_unsolved(self):
        result = solve_pose(collinear_frame(), CAMERA)
        assert not result.solved


def collinear_frame():
    """All correspondences on one line cannot fix a pose."""
    depths = 1.0 + 0.1 * np.arange(8)
    world = np.column_stack([np.zeros(8), np.zeros(8), depths])
    return correspondences(np.tile([320.0, 240.0], (8, 1)), depths, world)


def trimmed_below_minimum_frame():
    """Five correspondences, two with bad depths: trimming leaves three."""
    matches, _, _ = synthetic_correspondences(np.random.default_rng(23), n=5, depth_outliers=2)
    return matches


def behind_camera_frame(rng, n=30):
    """A well-posed alignment whose points all lie behind the camera."""
    pts_cam = np.column_stack([rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n),
                               rng.uniform(-3.0, -1.0, n)])
    position, r_wc = random_pose(rng)
    return correspondences(CAMERA.project(pts_cam), pts_cam[:, 2], pts_cam @ r_wc.T + position)


# Four points on the optical axis in front of the camera and four behind it,
# camera at the world origin.  Every number is exact, so the alignment is
# exactly the identity.  Only the points in front enter Gauss-Newton, and on
# the optical axis their Jacobian columns for rotation about and translation
# along that axis are zero: the normal equations are exactly singular.
SINGULAR_POINTS = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0], [0.0, 0.0, 3.0], [0.0, 0.0, 4.0],
                            [2.0, 0.0, -4.0], [-2.0, 0.0, -4.0], [0.0, 1.0, -4.0],
                            [0.0, -1.0, -4.0]])


def singular_normal_equations_frame():
    return correspondences(CAMERA.project(SINGULAR_POINTS), SINGULAR_POINTS[:, 2],
                           SINGULAR_POINTS)


def noisy_frame(rng, n):
    """Correspondences with pixel noise, gross pixel outliers and bad depths."""
    matches, _, _ = synthetic_correspondences(rng, n=n, depth_outliers=n // 10)
    matches["pixel"] += rng.normal(0.0, 1.5, matches["pixel"].shape)
    matches["pixel"][-(len(matches) // 8):] += 40.0
    return matches


def mixed_batch():
    """Good frames from 4 to about 150 correspondences, with the failure cases between them."""
    rng = np.random.default_rng(20)
    clean, _, _ = synthetic_correspondences(rng, n=10)
    specials = {
        "four matches": clean[:4],
        "three matches": clean[:3],
        "collinear": collinear_frame(),
        "trimmed below 4": trimmed_below_minimum_frame(),
        "behind camera": behind_camera_frame(rng),
        "singular": singular_normal_equations_frame(),
    }
    frames, names = [], []
    sizes = [6, 8, 12, 20, 35, 60, 100, 160, 200]
    for i in range(2 * SOLVE_CHUNK_FRAMES + 8):
        if i % 11 == 5 and specials:
            name, frame = specials.popitem()
        else:
            name, frame = "good", noisy_frame(rng, sizes[i % len(sizes)])
        frames.append(frame)
        names.append(name)
    # Frames without correspondences: first, between the others and last.
    empty = np.zeros(0, dtype=MATCH_DTYPE)
    for i in (0, 40, 41, 97):
        frames.insert(i, empty)
        names.insert(i, "no matches")
    return frames + [empty, empty], names + ["no matches", "no matches"]


def solve_frames(frames):
    """``solve_poses`` on the frames' correspondences back to back."""
    return solve_poses(np.concatenate(frames), [len(f) for f in frames], CAMERA)


class TestStackedSolve:
    def test_failure_cases_are_what_they_say(self):
        assert not solve_pose(trimmed_below_minimum_frame(), CAMERA).solved
        assert len(trimmed_below_minimum_frame()) == 5
        assert not solve_pose(behind_camera_frame(np.random.default_rng(21)), CAMERA).solved
        jac = reprojection_jacobian(np.eye(3), np.zeros(3), SINGULAR_POINTS[:4], CAMERA)
        assert not jac[:, :, [2, 5]].any()
        # A singular frame keeps its aligned pose, here the world origin.
        result = solve_pose(singular_normal_equations_frame(), CAMERA)
        assert result.solved and result.n_inliers == 8
        assert np.array_equal(result.position, np.zeros(3))

    def test_frame_alone_equals_its_row_of_a_mixed_batch(self):
        frames, names = mixed_batch()
        assert {len(f) for f in frames if len(f) >= 4} >= {4, 5, 8}
        assert max(len(f) for f in frames) >= 140
        solved, positions, quaternions, n_inliers = solve_frames(frames)
        assert solved[[n == "good" for n in names]].all()
        assert set(names) == {"good", "four matches", "three matches", "collinear",
                              "trimmed below 4", "behind camera", "singular", "no matches"}
        assert names[-2:] == ["no matches", "no matches"]
        for i, (frame, name) in enumerate(zip(frames, names)):
            alone = solve_pose(frame, CAMERA)
            assert alone.solved == (name in ("good", "four matches", "singular")), name
            assert np.bool_(alone.solved).tobytes() == solved[i].tobytes(), (i, name)
            assert alone.position.tobytes() == positions[i].tobytes(), (i, name)
            assert alone.quaternion.tobytes() == quaternions[i].tobytes(), (i, name)
            assert np.int64(alone.n_inliers).tobytes() == n_inliers[i].tobytes(), (i, name)

    def test_frame_order_does_not_change_any_row(self):
        # ``solve_poses`` sorts frames by size before stacking them, so a
        # permuted batch must give the permuted rows, ties included.
        frames, _ = mixed_batch()
        frames += [frames[0].copy(), frames[1].copy()]
        reference = solve_frames(frames)
        order = np.random.default_rng(24).permutation(len(frames))
        for perm in (order, order[::-1]):
            got = solve_frames([frames[i] for i in perm])
            for name, expected, row in zip(("solved", "positions", "quaternions", "inliers"),
                                           reference, got):
                assert expected[perm].tobytes() == row.tobytes(), name

    def test_empty_batch(self):
        empty = np.zeros(0, dtype=MATCH_DTYPE)
        solved, positions, quaternions, n_inliers = solve_poses(empty, [], CAMERA)
        assert solved.shape == (0,) and positions.shape == (0, 3)
        assert quaternions.shape == (0, 4) and n_inliers.shape == (0,)
        solved, positions, quaternions, n_inliers = solve_poses(empty, [0, 0, 0], CAMERA)
        assert solved.shape == (3,) and not solved.any()
        assert positions.shape == (3, 3) and np.isnan(positions).all()
        assert (quaternions == [0.0, 0.0, 0.0, 1.0]).all() and quaternions.shape == (3, 4)
        assert n_inliers.shape == (3,) and not n_inliers.any()


class TestJacobian:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(4):
            matches, _, _ = synthetic_correspondences(rng, n=12)
            world = matches["world"]
            pixels = matches["pixel"] + rng.normal(0, 2, (len(matches), 2))
            rot = Rotation.from_rotvec(0.2 * rng.standard_normal(3)).as_matrix()
            r_cw = rot @ np.eye(3)
            t_cw = rng.normal(0, 0.1, 3) + np.array([0.0, 0.0, 3.0])
            jac = reprojection_jacobian(r_cw, t_cw, world, CAMERA)
            eps = 1e-6
            for axis in range(6):
                delta = np.zeros(6)
                delta[axis] = eps
                r_plus = Rotation.from_rotvec(delta[:3]).as_matrix() @ r_cw
                r_minus = Rotation.from_rotvec(-delta[:3]).as_matrix() @ r_cw
                res_plus = reprojection_residuals(r_plus, t_cw + delta[3:], world,
                                                  pixels, CAMERA)
                res_minus = reprojection_residuals(r_minus, t_cw - delta[3:], world,
                                                   pixels, CAMERA)
                fd = (res_plus - res_minus) / (2 * eps)
                scale = np.abs(jac[:, :, axis]).max()
                assert np.abs(jac[:, :, axis] - fd).max() <= 1e-5 * max(scale, 1.0)


@pytest.fixture(scope="module")
def world():
    scene = generate_scene(400, rng=9)
    traj = generate_trajectory(40, rng=10)
    return scene, traj


def replay_pipeline(scene, camera, trajectory, scenario, ber, rng):
    """``run_pipeline`` stage by stage, solving each frame alone with ``solve_pose``."""
    n = trajectory.n_frames
    frame_streams = seed_sequence(rng).spawn(n)
    positions = np.full((n, 3), np.nan)
    quaternions = np.tile(np.array([0.0, 0.0, 0.0, 1.0]), (n, 1))
    inliers = np.zeros(n, dtype=int)
    solved = np.zeros(n, dtype=bool)
    for i in range(n):
        features = observe(scene, camera, trajectory.positions[i], trajectory.quaternions[i])
        if len(features) < MIN_FEATURES_FOR_POSE:
            continue
        payload = encode_payload(features, scenario, camera)
        received = corrupt(payload, ber, np.random.default_rng(frame_streams[i]))
        matches = match_features(decode_payload(received, scenario, camera), scene)
        result = solve_pose(matches, camera)
        if result.solved:
            positions[i] = result.position
            quaternions[i] = result.quaternion
            inliers[i] = result.n_inliers
            solved[i] = True
    return TrajectoryEstimate(timestamps=trajectory.timestamps.copy(), positions=positions,
                              quaternions=quaternions, inlier_counts=inliers, solved=solved)


def assert_same_bytes(estimate, reference):
    for name in ("positions", "quaternions", "inlier_counts", "solved"):
        assert getattr(estimate, name).tobytes() == getattr(reference, name).tobytes(), name


def invisible_scene():
    """Landmarks clustered behind the camera path: every frame degenerate."""
    rng = np.random.default_rng(14)
    return Scene(
        positions=np.full((4, 3), [-9.0, -9.0, -9.0]) + 0.1 * rng.random((4, 3)),
        descriptors=rng.integers(0, 256, (4, 32), dtype=np.uint8),
        intensities=rng.integers(0, 256, 4, dtype=np.uint8),
    )


LINK, MATCH = pipeline_module._link, pipeline_module.match_features


def run_with_gate(monkeypatch, flips, cpus, *args, **kwargs):
    """``run_pipeline`` with the two-thread gate and the CPU count set.

    Also returns the thread that ran each ``_link`` call, and a digest of
    each block's received records.
    """
    threads, received = [], []
    monkeypatch.setattr(pipeline_module, "PARALLEL_LINK_FLIPS", flips)
    monkeypatch.setattr(parallel_module, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(pipeline_module, "_link",
                        lambda *a: threads.append(threading.get_ident()) or LINK(*a))
    monkeypatch.setattr(pipeline_module, "match_features",
                        lambda records, scene: received.append(sha256(records).hexdigest())
                        or MATCH(records, scene))
    return run_pipeline(*args, **kwargs), threads, received


def assert_links_cannot_move_a_bit(monkeypatch, scene, traj, scenario, ber, rng):
    """Gate off, then on with 1 and with 2 CPUs: the same bytes, and two threads only on 2 CPUs."""
    n_blocks = -(-traj.n_frames // pipeline_module.BLOCK_FRAMES)
    main = threading.get_ident()
    args = (scene, CAMERA, traj, scenario, ber)
    reference, threads, received = run_with_gate(monkeypatch, math.inf, 2, *args, rng=rng)
    assert threads == [main] * n_blocks and len(received) == n_blocks
    for cpus in (1, 2):
        estimate, threads, same_received = run_with_gate(monkeypatch, 0, cpus, *args, rng=rng)
        # On 2 CPUs the calling thread takes one half of each block and a worker the other.
        assert threads.count(main) == n_blocks == len(threads) // cpus
        assert same_received == received
        assert_same_bytes(estimate, reference)
    return reference


class TestLinkThreads:
    @pytest.mark.parametrize("ber", [0.0, 1e-5, 1e-2, 0.3])
    @pytest.mark.parametrize("scenario", [1, 2, 3])
    def test_two_threads_give_the_bytes_of_one(self, world, monkeypatch, scenario, ber):
        scene, _ = world
        n_frames = 300
        if ber == 0.3:
            # A frame takes 3-150 ms to corrupt at this BER, so these cases
            # cross block boundaries with shorter blocks.  The last block has
            # one frame, so the calling thread's half of it is empty.
            monkeypatch.setattr(pipeline_module, "BLOCK_FRAMES", 3)
            n_frames = 7
        traj = generate_trajectory(n_frames, rng=37)
        assert pipeline_module.BLOCK_FRAMES < n_frames < 3 * pipeline_module.BLOCK_FRAMES
        estimate = assert_links_cannot_move_a_bit(monkeypatch, scene, traj, scenario, ber, 38)
        # At BER 0.3 no frame solves; the received records above still compare.
        assert estimate.n_unsolved < n_frames or ber == 0.3

    @pytest.mark.parametrize("ber", [0.0, 1e-2])
    def test_sparse_scene(self, monkeypatch, ber):
        # The scene and trajectory of test_sparse_scene_equals_per_frame_replay,
        # flown there and back, so that unsent frames sit between the sent
        # ones of both halves, and the halves differ even at BER 0.
        scene, once = generate_scene(30, rng=1), generate_trajectory(20, rng=41)
        traj = GroundTruthTrajectory(
            timestamps=np.arange(40) / 30.0,
            positions=np.concatenate([once.positions, once.positions[::-1]]),
            quaternions=np.concatenate([once.quaternions, once.quaternions[::-1]]))
        _, counts = observe_block(scene, CAMERA, traj.positions, traj.quaternions)
        sent = np.flatnonzero(counts >= MIN_FEATURES_FOR_POSE)
        half = len(sent) // 2
        for part in (sent[:half], sent[half:]):
            assert (counts[part[0]:part[-1]] < MIN_FEATURES_FOR_POSE).any()
        estimate = assert_links_cannot_move_a_bit(monkeypatch, scene, traj, 2, ber, 42)
        assert_same_bytes(estimate, replay_pipeline(scene, CAMERA, traj, 2, ber, 42))


class TestWireBypass:
    """Frames whose bit errors miss every byte the receiver reads skip the wire.

    Skipping changes no bit (the replay tests above), so only a count shows
    that it happens.
    """

    @staticmethod
    def link_calls(monkeypatch, scene, traj, scenario, ber):
        """(wires written, generators built) over one ``run_pipeline`` call."""
        writes, generators = [], []
        write, default_rng = FrameEncoder.write, np.random.default_rng
        with monkeypatch.context() as patch:
            patch.setattr(FrameEncoder, "write",
                          lambda self, wire, i: writes.append(i) or write(self, wire, i))
            # ``_link`` is the one caller of ``default_rng`` in ``run_pipeline``.
            patch.setattr(np.random, "default_rng",
                          lambda *a: generators.append(a) or default_rng(*a))
            run_pipeline(scene, CAMERA, traj, scenario, ber, rng=44)
        return len(writes), len(generators)

    @pytest.mark.parametrize("scenario", [1, 2, 3])
    def test_most_frames_skip_the_wire_at_low_ber(self, world, monkeypatch, scenario):
        scene, _ = world
        traj = generate_trajectory(100, rng=45)
        _, counts = observe_block(scene, CAMERA, traj.positions, traj.quaternions)
        n_sent = np.count_nonzero(counts >= MIN_FEATURES_FOR_POSE)
        assert n_sent > 90
        assert self.link_calls(monkeypatch, scene, traj, scenario, 0.0) == (0, 0)
        writes, generators = self.link_calls(monkeypatch, scene, traj, scenario, 1e-5)
        assert generators == n_sent and writes <= n_sent // 2


class TestPipeline:
    # The stacked solve must give each frame the bits of solving it alone,
    # which is what the benchmark's per-frame replay checks on one seed.
    @pytest.mark.parametrize("seed", [31, 32])
    @pytest.mark.parametrize("ber", [0.0, 1e-5, 1e-3, 1e-2, 0.3])
    @pytest.mark.parametrize("scenario", [1, 2, 3])
    def test_equals_per_frame_replay(self, world, scenario, ber, seed):
        scene, _ = world
        traj = generate_trajectory(20, rng=seed)
        estimate = run_pipeline(scene, CAMERA, traj, scenario, ber, rng=seed)
        assert_same_bytes(estimate, replay_pipeline(scene, CAMERA, traj, scenario, ber, seed))

    def test_invisible_scene_equals_per_frame_replay(self):
        scene, traj = invisible_scene(), generate_trajectory(10, rng=15)
        estimate = run_pipeline(scene, CAMERA, traj, 3, 0.0, rng=16)
        assert_same_bytes(estimate, replay_pipeline(scene, CAMERA, traj, 3, 0.0, 16))

    def test_sparse_scene_equals_per_frame_replay(self):
        # Frames that see 1 to 3 landmarks are not sent; they sit before and
        # between frames that are sent and solved.
        scene, traj = generate_scene(30, rng=1), generate_trajectory(20, rng=41)
        _, counts = observe_block(scene, CAMERA, traj.positions, traj.quaternions)
        unsent = (counts > 0) & (counts < MIN_FEATURES_FOR_POSE)
        estimate = run_pipeline(scene, CAMERA, traj, 2, 0.0, rng=42)
        assert unsent[:2].all() and unsent[7:11].all()
        assert estimate.solved[2:7].all() and estimate.solved[12:17].all()
        assert_same_bytes(estimate, replay_pipeline(scene, CAMERA, traj, 2, 0.0, 42))

    def test_block_boundary_equals_per_frame_replay(self, world):
        scene, _ = world
        traj = generate_trajectory(300, rng=33)
        assert BLOCK_FRAMES < traj.n_frames < 2 * BLOCK_FRAMES
        estimate = run_pipeline(scene, CAMERA, traj, 2, 1e-3, rng=34)
        assert estimate.n_unsolved < traj.n_frames
        assert_same_bytes(estimate, replay_pipeline(scene, CAMERA, traj, 2, 1e-3, 34))

    def test_memory_does_not_grow_with_trajectory_length(self, world):
        # Blocks bound the stacked observation and the record arrays; what
        # is kept per frame is a few pose numbers.
        scene, _ = world
        peaks = []
        for n_frames in (250, 2000):
            traj = generate_trajectory(n_frames, rng=35)
            tracemalloc.start()
            try:
                run_pipeline(scene, CAMERA, traj, 2, 0.0, rng=36)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks

    def test_noise_free_matches_ground_truth(self, world):
        scene, traj = world
        for scenario in (1, 2, 3):
            estimate = run_pipeline(scene, CAMERA, traj, scenario, 0.0, rng=11)
            assert estimate.n_unsolved == 0
            result = ate_translation(estimate, traj)
            assert result.rmse < 1e-5

    def test_corruption_strictly_increases_error(self, world):
        scene, traj = world
        clean = run_pipeline(scene, CAMERA, traj, 1, 0.0, rng=12)
        noisy = run_pipeline(scene, CAMERA, traj, 1, 1e-2, rng=12)
        ate_clean = ate_translation(clean, traj).rmse
        ate_noisy = ate_translation(noisy, traj).rmse
        assert ate_noisy > ate_clean

    def test_deterministic(self, world):
        scene, traj = world
        a = run_pipeline(scene, CAMERA, traj, 2, 1e-3, rng=13)
        b = run_pipeline(scene, CAMERA, traj, 2, 1e-3, rng=13)
        assert np.array_equal(a.positions, b.positions, equal_nan=True)
        assert np.array_equal(a.inlier_counts, b.inlier_counts)

    def test_invisible_scene_all_unsolved(self):
        scene = invisible_scene()
        traj = generate_trajectory(10, rng=15)
        estimate = run_pipeline(scene, CAMERA, traj, 3, 0.0, rng=16)
        assert estimate.n_unsolved == 10
        with pytest.raises(AlignmentError):
            ate_translation(estimate, traj)

    # Scenarios 1 and 2 near BER 0.5 take about 0.2-0.3 s a frame (a dense
    # flip draw), so the examples are few and fixed to bound the test's time;
    # the explicit example pins that worst case.
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(scenario=st.integers(1, 3), ber=st.floats(0.0, 0.5),
           n_frames=st.integers(2, 3), seed=st.integers(0, 2**32 - 1))
    @example(scenario=1, ber=0.5, n_frames=2, seed=1)
    def test_any_ber_gives_finite_or_unsolved_poses(self, world, scenario, ber, n_frames,
                                                     seed):
        scene, _ = world
        traj = generate_trajectory(n_frames, rng=seed)
        estimate = run_pipeline(scene, CAMERA, traj, scenario, ber, rng=seed)
        solved = estimate.solved
        assert estimate.n_frames == n_frames
        assert np.isfinite(estimate.positions[solved]).all()
        assert np.isfinite(estimate.quaternions[solved]).all()
        assert np.isnan(estimate.positions[~solved]).all()
        assert (estimate.inlier_counts[~solved] == 0).all()

    def test_one_entry_per_frame(self, world):
        scene, traj = world
        estimate = run_pipeline(scene, CAMERA, traj, 3, 1e-3, rng=17)
        assert estimate.n_frames == traj.n_frames
