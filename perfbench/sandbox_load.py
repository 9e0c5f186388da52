"""Sensitivity-side workloads: ``run_pipeline`` over generated scenes and trajectories.

One round calls ``run_pipeline`` once per (trajectory, scenario, BER), on
trajectories of the sensitivity study's default length.  A traced round
calls ``run_pipeline`` itself with its stage functions wrapped in spans.
The counting round replays the same frames stage by stage (observe, encode,
corrupt, decode, match, solve) with the same per-frame spawned streams, so
its outputs must equal ``run_pipeline``'s bit for bit; it is never timed.
"""

from __future__ import annotations

import numpy as np
import xrmimo.sandbox.pipeline as pipeline_module
from xrmimo.biterrors import corrupt
from xrmimo.config import build_config
from xrmimo.exceptions import SimulationError
from xrmimo.metrics import ate_translation
from xrmimo.sandbox import (
    MIN_FEATURES_FOR_POSE,
    CameraModel,
    TrajectoryEstimate,
    decode_payload,
    encode_payload,
    generate_scene,
    generate_trajectory,
    match_features,
    observe,
    run_pipeline,
    solve_pose,
)
from xrmimo.seeding import seed_sequence

# Trajectory length and scene size are the sensitivity study's defaults
# (100 frames, 400 landmarks); fewer trajectories keep a round a few seconds.
N_TRAJECTORIES = 1
SCENARIOS = (1, 2, 3)
BERS = {"sens-clean": (0.0, 1e-5), "sens-noisy": (1e-3, 1e-2)}
# Acceptance tolerance for the noise-free pipeline (criterion 6).
ATE_LIMIT_M = 1e-5
# Spawn-key prefix of every stream this workload derives from the seed.
STREAM_KEY = 2

# The stage functions ``run_pipeline`` calls, as (owner, attribute, span name, work).
TRACED = tuple((pipeline_module, attr, name, None) for attr, name in (
    ("observe", "features.observe"),
    ("encode_payload", "payload.encode_payload"),
    ("corrupt", "biterrors.corrupt"),
    ("decode_payload", "payload.decode_payload"),
    ("match_features", "matching.match_features"),
    ("solve_pose", "solver.solve_pose"),
))


class SandboxLoad:
    """A round calls ``run_pipeline``; the work of a call is its frame count."""

    def __init__(self, name: str, seed: int):
        self.seed = seed
        self.bers = BERS[name]

    def setup(self, tracer) -> None:
        grid = [b for b in self.bers if b > 0]
        config = tracer.call("config.build_config", build_config, {
            "seed": self.seed,
            "sensitivity": {"ber_grid": grid, "n_trajectories": N_TRAJECTORIES},
        })
        settings = config.sensitivity
        self.camera = CameraModel()
        self.scenes, self.trajectories = [], []
        for traj in range(settings["n_trajectories"]):
            self.scenes.append(tracer.call(
                "scene.generate_scene", generate_scene, settings["n_landmarks"],
                rng=self._stream(traj, 0)))
            self.trajectories.append(tracer.call(
                "trajectory.generate_trajectory", generate_trajectory, settings["n_frames"],
                rng=self._stream(traj, 1)))
        self.ops = [(traj, scenario, ber_idx, ber)
                    for traj in range(settings["n_trajectories"])
                    for scenario in SCENARIOS
                    for ber_idx, ber in enumerate(self.bers)]

    def _stream(self, *key):
        return np.random.SeedSequence(self.seed, spawn_key=(STREAM_KEY,) + key)

    def is_main(self, op) -> bool:
        return True

    @staticmethod
    def group(op) -> str:
        return f"scenario {op[1]} ber {op[3]:g}"

    def call(self, op):
        traj, scenario, ber_idx, ber = op
        return run_pipeline(self.scenes[traj], self.camera, self.trajectories[traj],
                            scenario, ber, rng=self._stream(traj, 2, scenario, ber_idx))

    def trace_scope(self, tracer):
        return tracer.patched(TRACED)

    def traced_call(self, op, tracer):
        return tracer.call("pipeline.run_pipeline", self.call, op)

    def counted_call(self, op, counts):
        """``run_pipeline`` stage by stage, counting what each stage handles."""
        traj_idx, scenario, ber_idx, ber = op
        scene, camera = self.scenes[traj_idx], self.camera
        trajectory = self.trajectories[traj_idx]
        n = trajectory.n_frames
        frame_streams = seed_sequence(self._stream(traj_idx, 2, scenario, ber_idx)).spawn(n)
        positions = np.full((n, 3), np.nan)
        quaternions = np.tile(np.array([0.0, 0.0, 0.0, 1.0]), (n, 1))
        inliers = np.zeros(n, dtype=int)
        solved = np.zeros(n, dtype=bool)
        for i in range(n):
            features = observe(scene, camera, trajectory.positions[i], trajectory.quaternions[i])
            if len(features) < MIN_FEATURES_FOR_POSE:
                _count_frame(counts, features, None, None, None, (), None)
                continue
            payload = encode_payload(features, scenario, camera)
            gen = np.random.default_rng(frame_streams[i])
            received = corrupt(payload, ber, gen)
            decoded = decode_payload(received, scenario, camera)
            matches = match_features(decoded, scene)
            result = solve_pose(matches, camera)
            _count_frame(counts, features, payload, received, decoded, matches, result)
            if result.solved:
                positions[i] = result.position
                quaternions[i] = result.quaternion
                inliers[i] = result.n_inliers
                solved[i] = True
        return TrajectoryEstimate(timestamps=trajectory.timestamps.copy(), positions=positions,
                                  quaternions=quaternions, inlier_counts=inliers, solved=solved)

    def check(self, op, estimate) -> list:
        """Every solved pose is finite; noise-free calls meet the ATE tolerance."""
        errors = []
        if not (np.isfinite(estimate.positions[estimate.solved]).all()
                and np.isfinite(estimate.quaternions[estimate.solved]).all()):
            errors.append("a solved pose is not finite")
        traj, scenario, _, ber = op
        if ber == 0.0:
            try:
                rmse = ate_translation(estimate, self.trajectories[traj]).rmse
            except SimulationError as exc:
                errors.append(f"ATE failed: {exc}")
            else:
                if not rmse < ATE_LIMIT_M:
                    errors.append(f"scenario {scenario} ATE {rmse:.3e} m >= {ATE_LIMIT_M}")
        return errors

    @staticmethod
    def compare(estimate, reference) -> list:
        """Against the untraced ``run_pipeline``: bit-identical poses and flags."""
        fields = ("positions", "quaternions", "inlier_counts", "solved")
        return [f"output differs from the untraced run_pipeline in {name}" for name in fields
                if getattr(estimate, name).tobytes() != getattr(reference, name).tobytes()]

    @staticmethod
    def reference(estimate):
        return estimate

    def work(self, op, estimate) -> float:
        return float(len(estimate.solved))


def _count_frame(counts, features, payload, received, decoded, matches, result) -> None:
    counts["sandbox.frames"] += 1
    counts["features.observed"] += len(features)
    if result is None:
        counts["solver.unsolved"] += 1
        return
    flips = np.bitwise_xor(np.frombuffer(payload, np.uint8), np.frombuffer(received, np.uint8))
    counts["biterrors.flipped_bits"] += int(np.bitwise_count(flips).sum())
    counts["payload.decoded"] += len(decoded)
    counts["payload.phantoms"] += len(decoded) - len(features)
    counts["matching.accepted"] += len(matches)
    if result.solved:
        counts["solver.solved"] += 1
        counts["solver.inliers"] += result.n_inliers
        counts["matching.accepted_solved"] += len(matches)
    else:
        counts["solver.unsolved"] += 1
