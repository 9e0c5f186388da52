"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every tolerance is pinned here; the stated runtime budgets are
asserted as hard bounds.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import chi2

from xrmimo import frames
from xrmimo.biterrors import sample_error_count, sample_flip_positions
from xrmimo.config import build_config
from xrmimo.linkbudget import required_tx_power, snr_target_for_ber
from xrmimo.metrics import (
    ate_translation,
    bootstrap_stats,
    normalize_vs_baseline,
    trajectory_error_percentages,
)
from xrmimo.mimo import ber_curve, generate_channel
from xrmimo.modem import qam_ber_exact
from xrmimo.sandbox import (
    CameraModel,
    encode_payload,
    generate_scene,
    generate_trajectory,
    observe,
    payload_num_bytes,
    reprojection_jacobian,
    reprojection_residuals,
    run_pipeline,
)
from xrmimo.scenarios import SCENARIO_UL_BITS
from xrmimo.seeding import seed_sequence
from xrmimo.studies import (
    run_ber_study,
    run_latency_study,
    run_power_study,
    run_sensitivity_study,
)
from scipy.spatial.transform import Rotation


@contextmanager
def criterion(number, label, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s ({elapsed:.1f}s)"
    print(f"criterion {number} ({label}): PASS ({elapsed:.1f}s)")


def test_criterion_1_latency_golden_values():
    with criterion(1, "latency golden values", budget_s=1.0):
        structures = build_config().frame_structures()
        fa, fb = structures["A"], structures["B"]
        got_s3_b = frames.transmission_latency(SCENARIO_UL_BITS[3], fb, "ul")
        assert got_s3_b == fb.tau_symb * 121  # 3 + 96 + 11 * (10 - 8)
        assert got_s3_b == pytest.approx(8.6394e-3, rel=1e-12)
        got_s1_a = frames.transmission_latency(SCENARIO_UL_BITS[1], fa, "ul")
        assert got_s1_a == fa.tau_symb * 2561  # 7 + 1024 + 255 * (10 - 4)
        assert got_s1_a == pytest.approx(182.855e-3, rel=1e-5)
        got_dl_a = frames.transmission_latency(frames.POSE_RECORD_BITS, fa, "dl")
        assert got_dl_a == fa.tau_symb * 8  # 7 + 1 + 0
        assert got_dl_a == pytest.approx(571.2e-6, rel=1e-12)


def test_criterion_2_deadline_behaviour(tmp_path):
    with criterion(2, "deadline behaviour", budget_s=5.0):
        cfg = build_config({"output_dir": str(tmp_path)})
        path = run_latency_study(cfg)
        rows = [line.split(",") for line in path.read_text().splitlines()
                if not line.startswith("#")][1:]
        verdicts = {(r[0], r[1]): r[6] for r in rows if r[2] == "total"}
        assert len(verdicts) == 6
        n_met = sum(v == "true" for v in verdicts.values())
        assert n_met >= 4
        assert len(verdicts) - n_met >= 1


def test_criterion_3_ber_oracle_equivalence():
    with criterion(3, "BER oracle equivalence", budget_s=300.0):
        master = 12345
        channel = generate_channel(100, 10, 1200, rng=seed_sequence(master, 3, 0))
        snr_points = [10.0, 15.0, 20.0, 24.32]
        curve = ber_curve(channel, snr_points, 10_000_000,
                          seed=seed_sequence(master, 3, 1))
        for point in curve:
            assert point.n_bits >= 10_000_000
            expected = qam_ber_exact(10.0 ** (point.snr_db / 10.0), 64)
            se = np.sqrt(expected * (1.0 - expected) / point.n_bits)
            assert abs(point.ber - expected) <= 3.0 * se, (
                f"{point.snr_db} dB: mc={point.ber}, analytic={expected}, se={se}"
            )


def test_criterion_4_power_reproduction_band():
    with criterion(4, "power reproduction band", budget_s=1.0):
        snr_1e4 = snr_target_for_ber(1e-4)
        snr_1e5 = snr_target_for_ber(1e-5)
        power_1e4 = required_tx_power(snr_1e4)
        power_1e5 = required_tx_power(snr_1e5)
        ref_1e4_dbm = 10.0 * np.log10(0.856)
        ref_1e5_dbm = 10.0 * np.log10(1.356)
        assert abs(power_1e4.dbm - ref_1e4_dbm) <= 3.0
        assert abs(power_1e5.dbm - ref_1e5_dbm) <= 3.0
        assert 0.5 <= power_1e5.dbm - power_1e4.dbm <= 3.5


def test_criterion_5_corruption_statistics():
    with criterion(5, "corruption statistics", budget_s=30.0):
        rng = np.random.default_rng(seed_sequence(12345, 5, 0))
        n_bits, ber, trials = 7_372_800, 1e-4, 1000
        draws = [sample_error_count(n_bits, ber, rng) for _ in range(trials)]
        expected = n_bits * ber
        sigma = np.sqrt(n_bits * ber * (1.0 - ber))
        assert abs(np.mean(draws) - expected) <= 3.0 * sigma / np.sqrt(trials)

        flips = 80_000
        counts = np.zeros(8, dtype=int)
        for _ in range(flips):
            counts[sample_flip_positions(8, 1, rng)[0]] += 1
        expected_count = flips / 8.0
        statistic = float(np.sum((counts - expected_count) ** 2 / expected_count))
        assert statistic < chi2.ppf(0.999, df=7)


def test_criterion_6_sandbox_fidelity():
    with criterion(6, "sandbox fidelity", budget_s=60.0):
        camera = CameraModel()
        scene = generate_scene(400, rng=seed_sequence(12345, 6, 0))
        trajectory = generate_trajectory(100, rng=seed_sequence(12345, 6, 1))
        for scenario in (1, 2, 3):
            estimate = run_pipeline(scene, camera, trajectory, scenario, 0.0,
                                    rng=seed_sequence(12345, 6, 2, scenario))
            result = ate_translation(estimate, trajectory)
            assert result.rmse < 1e-5, f"scenario {scenario} ATE {result.rmse}"

        rng = np.random.default_rng(seed_sequence(12345, 6, 3))
        world = rng.uniform(-1.0, 1.0, (15, 3))
        rotation = Rotation.from_rotvec(0.2 * rng.standard_normal(3)).as_matrix()
        translation = np.array([0.05, -0.02, 3.0])
        pixels = camera.project(world @ rotation.T + translation)
        jac = reprojection_jacobian(rotation, translation, world, camera)
        eps = 1e-6
        for axis in range(6):
            delta = np.zeros(6)
            delta[axis] = eps
            r_plus = Rotation.from_rotvec(delta[:3]).as_matrix() @ rotation
            r_minus = Rotation.from_rotvec(-delta[:3]).as_matrix() @ rotation
            fd = (reprojection_residuals(r_plus, translation + delta[3:], world,
                                         pixels, camera)
                  - reprojection_residuals(r_minus, translation - delta[3:], world,
                                           pixels, camera)) / (2.0 * eps)
            scale = max(np.abs(jac[:, :, axis]).max(), 1.0)
            assert np.abs(jac[:, :, axis] - fd).max() <= 1e-5 * scale

        features = observe(scene, camera, trajectory.positions[0],
                           trajectory.quaternions[0])
        expected_bytes = {1: 921_600, 2: 688_128, 3: 86_016}
        for scenario, size in expected_bytes.items():
            assert payload_num_bytes(scenario, camera) == size
            assert len(encode_payload(features, scenario, camera)) == size


def test_criterion_7_sensitivity_trend(tmp_path):
    with criterion(7, "sensitivity trend", budget_s=600.0):
        cfg = build_config({"output_dir": str(tmp_path)})
        settings = cfg.sensitivity
        assert settings["n_trajectories"] == 10 and settings["n_frames"] == 100
        path = run_sensitivity_study(cfg)
        rows = [line.split(",") for line in path.read_text().splitlines()
                if not line.startswith("#")][1:]
        by_scenario = {}
        for row in rows:
            by_scenario.setdefault(int(row[0]), []).append(
                (float(row[1]), float(row[2])))
        assert set(by_scenario) == {1, 2, 3}
        for scenario, points in by_scenario.items():
            points.sort()
            means = [m for _, m in points]
            assert all(b >= a for a, b in zip(means, means[1:])), (
                f"scenario {scenario} bootstrap means not monotone: {means}"
            )
        camera = CameraModel()
        bit_counts = {s: payload_num_bytes(s, camera) * 8 for s in (1, 2, 3)}
        for ber in settings["ber_grid"]:
            assert bit_counts[1] * ber > bit_counts[2] * ber > bit_counts[3] * ber


def _estimate_of(timestamps, positions):
    from xrmimo.sandbox import TrajectoryEstimate
    n = len(timestamps)
    return TrajectoryEstimate(
        timestamps=np.asarray(timestamps, float),
        positions=np.asarray(positions, float),
        quaternions=np.tile([0.0, 0.0, 0.0, 1.0], (n, 1)),
        inlier_counts=np.zeros(n, dtype=int),
        solved=np.ones(n, dtype=bool),
    )


def _ground_truth_of(timestamps, positions):
    from xrmimo.sandbox import GroundTruthTrajectory
    n = len(timestamps)
    return GroundTruthTrajectory(
        timestamps=np.asarray(timestamps, float),
        positions=np.asarray(positions, float),
        quaternions=np.tile([0.0, 0.0, 0.0, 1.0], (n, 1)),
    )


def test_criterion_8_metrics_correctness():
    with criterion(8, "metrics correctness", budget_s=5.0):
        make_estimate, make_ground_truth = _estimate_of, _ground_truth_of
        rng = np.random.default_rng(seed_sequence(12345, 8, 0))
        timestamps = np.arange(40) / 40.0
        gt_positions = rng.normal(size=(40, 3))
        est_positions = gt_positions + 0.005 * rng.normal(size=(40, 3))
        base = ate_translation(make_estimate(timestamps, est_positions),
                               make_ground_truth(timestamps, gt_positions))
        rotation = Rotation.from_rotvec(rng.normal(size=3)).as_matrix()
        transformed = 2.3 * est_positions @ rotation.T + np.array([1.0, -4.0, 2.0])
        moved = ate_translation(make_estimate(timestamps, transformed),
                                make_ground_truth(timestamps, gt_positions))
        assert abs(moved.rmse - base.rmse) < 1e-9

        runs = [[1.1, 1.3], [2.0]]
        baselines = [1.0, 2.0]
        assert list(trajectory_error_percentages(runs, baselines)) == [
            pytest.approx(20.0), pytest.approx(0.0)]
        assert normalize_vs_baseline(runs, baselines) == pytest.approx(10.0)

        stats = bootstrap_stats([0.42, 0.42, 0.42, 0.42], rng=1)
        assert stats.std == 0.0
        assert stats.ci_low == stats.ci_high == pytest.approx(0.42)


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "determinism", budget_s=300.0):
        fragment = {
            "latency": {"trials": 32},
            "sensitivity": {"n_trajectories": 2, "n_frames": 12, "n_landmarks": 150,
                             "bootstrap_draws": 500, "ber_grid": [1e-4, 1e-2]},
            "ber": {"bits_per_point": 100_000, "snr_grid_db": [15.0, 20.0],
                     "channel": {"subcarriers": 60}},
        }
        cfg = build_config(fragment)
        for study in (run_latency_study, run_sensitivity_study, run_ber_study,
                      run_power_study):
            outputs = [study(cfg, out_dir=tmp_path / attempt).read_bytes()
                       for attempt in ("first", "second")]
            assert outputs[0] == outputs[1], f"{study.__name__} not byte-identical"
