"""Alignment, ATE, normalisation, and bootstrap tests."""

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.spatial.transform import Rotation

from xrmimo.exceptions import AlignmentError
from xrmimo.metrics import (
    ate_translation,
    bootstrap_stats,
    normalize_vs_baseline,
    stacked_outer_sum,
    trajectory_error_percentages,
    umeyama_align,
)
from xrmimo.sandbox import GroundTruthTrajectory, TrajectoryEstimate


def make_estimate(timestamps, positions, solved=None):
    n = len(timestamps)
    return TrajectoryEstimate(
        timestamps=np.asarray(timestamps, dtype=float),
        positions=np.asarray(positions, dtype=float),
        quaternions=np.tile([0.0, 0.0, 0.0, 1.0], (n, 1)),
        inlier_counts=np.zeros(n, dtype=int),
        solved=np.ones(n, dtype=bool) if solved is None else np.asarray(solved, bool),
    )


def make_ground_truth(timestamps, positions):
    n = len(timestamps)
    return GroundTruthTrajectory(
        timestamps=np.asarray(timestamps, dtype=float),
        positions=np.asarray(positions, dtype=float),
        quaternions=np.tile([0.0, 0.0, 0.0, 1.0], (n, 1)),
    )


class TestUmeyama:
    def test_identity(self):
        pts = np.random.default_rng(0).normal(size=(12, 3))
        r, t, s = umeyama_align(pts, pts)
        assert np.abs(r - np.eye(3)).max() < 1e-12
        assert np.abs(t).max() < 1e-12
        assert s == pytest.approx(1.0, abs=1e-12)

    def test_recovers_constructed_similarity(self):
        rng = np.random.default_rng(1)
        est = rng.normal(size=(20, 3))
        rot = Rotation.from_euler("z", 90, degrees=True).as_matrix()
        gt = 2.0 * est @ rot.T + np.array([1.0, 2.0, 3.0])
        r, t, s = umeyama_align(est, gt)
        assert np.abs(r - rot).max() < 1e-9
        assert np.abs(t - [1.0, 2.0, 3.0]).max() < 1e-9
        assert s == pytest.approx(2.0, abs=1e-9)

    def test_collinear_rejected(self):
        line = np.outer(np.arange(5.0), [1.0, 2.0, 0.5])
        with pytest.raises(AlignmentError):
            umeyama_align(line, line)

    def test_too_few_points(self):
        pts = np.zeros((2, 3))
        with pytest.raises(AlignmentError):
            umeyama_align(pts, pts)

    def test_without_scale_exactly_one(self):
        rng = np.random.default_rng(2)
        est = rng.normal(size=(10, 3))
        gt = 3.0 * est
        _, _, s = umeyama_align(est, gt, with_scale=False)
        assert s == 1.0

    def test_reflection_corrected(self):
        rng = np.random.default_rng(3)
        est = rng.normal(size=(15, 3))
        gt = est.copy()
        gt[:, 0] *= -1.0  # mirror image: best proper rotation is still det +1
        r, _, _ = umeyama_align(est, gt)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)


class TestAteTranslation:
    def test_exact_match_zero(self):
        t = np.arange(10) / 10.0
        pts = np.random.default_rng(4).normal(size=(10, 3))
        result = ate_translation(make_estimate(t, pts), make_ground_truth(t, pts))
        assert result.rmse < 1e-12
        assert result.n_poses == 10

    def test_constant_offset_absorbed(self):
        t = np.arange(8) / 4.0
        pts = np.random.default_rng(5).normal(size=(8, 3))
        est = make_estimate(t, pts + np.array([0.5, -0.25, 1.0]))
        result = ate_translation(est, make_ground_truth(t, pts))
        assert result.rmse < 1e-12

    def test_single_displaced_pose_matches_brute_force(self):
        """Freeze against an independent minimiser over similarity transforms."""
        t = np.arange(5) / 5.0
        gt_pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                           [1.0, 1.0, 0.5], [0.5, 0.5, 1.0]])
        est_pts = gt_pts.copy()
        est_pts[2] += [0.0, 0.05, 0.0]

        def cost(params):
            rot = Rotation.from_rotvec(params[:3]).as_matrix()
            trans = params[3:6]
            scale = np.exp(params[6])
            aligned = scale * est_pts @ rot.T + trans
            return np.mean(np.sum((gt_pts - aligned) ** 2, axis=1))

        best = min(
            (minimize(cost, x0, method="Nelder-Mead",
                      options={"xatol": 1e-12, "fatol": 1e-16, "maxiter": 20000})
             for x0 in (np.zeros(7), np.concatenate([np.full(6, 0.01), [0.0]]))),
            key=lambda r: r.fun,
        )
        expected = np.sqrt(best.fun)
        result = ate_translation(make_estimate(t, est_pts), make_ground_truth(t, gt_pts))
        assert result.rmse == pytest.approx(expected, abs=1e-6)

    def test_invariant_under_similarity_of_estimate(self):
        rng = np.random.default_rng(6)
        t = np.arange(30) / 30.0
        gt_pts = rng.normal(size=(30, 3))
        est_pts = gt_pts + 0.01 * rng.normal(size=(30, 3))
        base = ate_translation(make_estimate(t, est_pts), make_ground_truth(t, gt_pts))
        rot = Rotation.from_rotvec(rng.normal(size=3)).as_matrix()
        transformed = 1.7 * est_pts @ rot.T + np.array([4.0, -2.0, 0.5])
        moved = ate_translation(make_estimate(t, transformed), make_ground_truth(t, gt_pts))
        assert abs(moved.rmse - base.rmse) < 1e-9

    def test_unsolved_poses_excluded(self):
        t = np.arange(6) / 6.0
        pts = np.random.default_rng(7).normal(size=(6, 3))
        est_pts = pts.copy()
        est_pts[3] = [99.0, 99.0, 99.0]  # garbage in an unsolved slot
        solved = [True, True, True, False, True, True]
        result = ate_translation(make_estimate(t, est_pts, solved),
                                 make_ground_truth(t, pts))
        assert result.rmse < 1e-12
        assert result.n_poses == 5

    def test_unassociated_poses_dropped_with_count(self):
        gt_t = np.arange(10) / 10.0
        pts = np.random.default_rng(8).normal(size=(10, 3))
        est_t = gt_t.copy()
        est_t[7] = 2.0  # farther than half a frame period from every stamp
        result = ate_translation(make_estimate(est_t, pts), make_ground_truth(gt_t, pts))
        assert result.n_dropped == 1
        assert result.n_poses == 9
        assert result.rmse < 1e-12

    def test_insufficient_poses(self):
        t = np.arange(3) / 3.0
        pts = np.random.default_rng(9).normal(size=(3, 3))
        est = make_estimate(t, pts, solved=[True, True, False])
        with pytest.raises(AlignmentError):
            ate_translation(est, make_ground_truth(t, pts))


class TestNormalise:
    def test_equal_to_baseline_is_zero(self):
        assert normalize_vs_baseline([[1.0]], [1.0]) == 0.0

    def test_twenty_percent(self):
        assert normalize_vs_baseline([[1.2]], [1.0]) == pytest.approx(20.0)

    def test_two_level_average(self):
        runs = [[1.1, 1.3], [2.0]]
        baselines = [1.0, 2.0]
        per_traj = trajectory_error_percentages(runs, baselines)
        assert per_traj == pytest.approx([20.0, 0.0])
        assert normalize_vs_baseline(runs, baselines) == pytest.approx(10.0)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            normalize_vs_baseline([[1.0]], [0.0])

    def test_linear_in_error(self):
        baseline = [0.4]
        a = normalize_vs_baseline([[0.6]], baseline)
        b = normalize_vs_baseline([[0.8]], baseline)
        c = normalize_vs_baseline([[1.0]], baseline)
        assert b - a == pytest.approx(c - b)


class TestBootstrap:
    def test_constant_degenerate(self):
        stats = bootstrap_stats([3.5, 3.5, 3.5], rng=0)
        assert stats.mean == 3.5
        assert stats.std == 0.0
        assert (stats.ci_low, stats.ci_high) == (3.5, 3.5)

    @pytest.mark.parametrize("value", [0.42, 0.1])
    @pytest.mark.parametrize("length", [1, 3, 4, 7, 13])
    def test_constant_inexact_value_has_zero_spread(self, value, length):
        # Neither value is exact in binary, so the mean of many equal
        # bootstrap means rounds away from them; that must not read as spread.
        stats = bootstrap_stats([value] * length, rng=length)
        assert stats.std == 0.0
        assert stats.ci_low == stats.ci_high == pytest.approx(value)

    def test_two_point_mean(self):
        stats = bootstrap_stats([0.0, 1.0], n_draws=20_000, rng=1)
        assert abs(stats.mean - 0.5) < 0.02

    def test_single_value_collapses(self):
        stats = bootstrap_stats([2.25], rng=2)
        assert (stats.ci_low, stats.ci_high) == (2.25, 2.25)

    def test_ci_contains_sample_mean_for_symmetric_data(self):
        values = [-2.0, -1.0, 0.0, 1.0, 2.0]
        stats = bootstrap_stats(values, rng=3)
        assert stats.ci_low <= np.mean(values) <= stats.ci_high

    def test_deterministic(self):
        values = [0.1, 0.7, 0.3, 0.9]
        a = bootstrap_stats(values, rng=4)
        b = bootstrap_stats(values, rng=4)
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_stats([], rng=0)


class TestStackedOuterSum:
    @pytest.mark.parametrize("stacks", [1, 3, 64])
    @pytest.mark.parametrize("terms", [1, 5, 220, 801])
    @pytest.mark.parametrize("width", [3, 6])
    def test_adds_the_terms_in_order_from_zero(self, stacks, terms, width):
        # The pose solver's bits rest on this order.  Mixed magnitudes, zeros
        # and negative zeros make a reordered sum differ in the last bits.
        rng = np.random.default_rng([stacks, terms, width])
        scales = 10.0 ** rng.integers(-8, 8, terms)[:, None]
        left = rng.standard_normal((stacks, terms, width)) * scales
        right = rng.standard_normal((stacks, terms, width))
        left[rng.random(left.shape) < 0.2] = 0.0
        right[rng.random(right.shape) < 0.2] = -0.0
        in_order = np.zeros((stacks, width, width))
        for k in range(terms):
            in_order = in_order + left[:, k, :, None] * right[:, k, None, :]
        got = stacked_outer_sum(left, right)
        assert got.tobytes() == in_order.tobytes()
        assert got.tobytes() == np.einsum("bki,bkj->bij", left, right).tobytes()
        if terms > 200:
            backwards = np.zeros_like(in_order)
            for k in reversed(range(terms)):
                backwards = backwards + left[:, k, :, None] * right[:, k, None, :]
            assert backwards.tobytes() != in_order.tobytes()
