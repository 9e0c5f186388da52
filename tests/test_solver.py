"""Matching, pose solving, and end-to-end pipeline tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from test_sandbox_scene import landmark_ids
from xrmimo.exceptions import AlignmentError
from xrmimo.metrics import ate_translation
from xrmimo.sandbox import (
    MATCH_DTYPE,
    RECORD_WITH_DEPTH_DTYPE,
    CameraModel,
    Scene,
    generate_scene,
    generate_trajectory,
    match_features,
    observe,
    reprojection_jacobian,
    reprojection_residuals,
    run_pipeline,
    solve_pose,
)
from xrmimo.sandbox.scene import Box

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
        # All correspondences on one line cannot fix a pose.
        depths = 1.0 + 0.1 * np.arange(8)
        world = np.column_stack([np.zeros(8), np.zeros(8), depths])
        matches = correspondences(np.tile([320.0, 240.0], (8, 1)), depths, world)
        result = solve_pose(matches, CAMERA)
        assert not result.solved


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


class TestPipeline:

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
        # Landmarks clustered behind the camera path: every frame degenerate.
        bounds = Box(lo=np.array([-10.0, -10.0, -10.0]), hi=np.array([10.0, 10.0, 10.0]))
        rng = np.random.default_rng(14)
        scene = Scene(
            positions=np.full((4, 3), [-9.0, -9.0, -9.0]) + 0.1 * rng.random((4, 3)),
            descriptors=rng.integers(0, 256, (4, 32), dtype=np.uint8),
            intensities=rng.integers(0, 256, 4, dtype=np.uint8),
            bounds=bounds,
        )
        traj = generate_trajectory(10, rng=15)
        estimate = run_pipeline(scene, CAMERA, traj, 3, 0.0, rng=16)
        assert estimate.n_unsolved == 10
        with pytest.raises(AlignmentError):
            ate_translation(estimate, traj)

    # Scenarios 1 and 2 near BER 0.5 take about 2 s a frame (a dense flip
    # draw), so the examples are few and fixed to bound the test's time;
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
