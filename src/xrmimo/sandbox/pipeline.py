"""End-to-end localisation pipeline with wireless bit errors.

One pass over the trajectory: every frame's features are observed in one
stacked projection.  Each frame with enough features is serialized into
one reused wire buffer, which takes binomial bit errors in place from the
frame's own random stream and is decoded with range sanitisation.  The
decoded records of all frames are matched against the known map in one
call, and the camera poses are solved in one stacked pass.  Each frame's
result is bit-identical to running those stages on that frame alone.
"""

from __future__ import annotations

import numpy as np

from ..biterrors import corrupt_in_place
from ..seeding import seed_sequence
from .camera import CameraModel
from .features import MIN_FEATURES_FOR_POSE, RECORD_WITH_DEPTH_DTYPE, observe_frames
from .matching import MATCH_DTYPE, match_features
from .payload import decode_payload, encode_into, payload_num_bytes
from .scene import Scene
from .solver import solve_poses
from .trajectory import GroundTruthTrajectory, TrajectoryEstimate

# ``observe``, ``encode_payload``, ``corrupt`` and ``solve_pose`` are not
# called here: they are the one-frame forms of the stages above.
# perfbench patches them by name in this module and replays the pipeline
# per frame through them, and tests/test_benchmark_coupling.py pins them.
from ..biterrors import corrupt  # noqa: F401
from .features import observe  # noqa: F401
from .payload import encode_payload  # noqa: F401
from .solver import solve_pose  # noqa: F401

_NO_MATCHES = np.zeros(0, dtype=MATCH_DTYPE)
_NO_RECORDS = np.zeros(0, dtype=RECORD_WITH_DEPTH_DTYPE)


def run_pipeline(scene: Scene, camera: CameraModel, trajectory: GroundTruthTrajectory,
                 scenario: int, ber: float, rng=0) -> TrajectoryEstimate:
    """Recover the trajectory through the corrupted offloading link.

    Deterministic given ``rng``; each frame consumes its own spawned
    stream, so frame results do not depend on processing order.
    """
    n = trajectory.n_frames
    frame_streams = seed_sequence(rng).spawn(n)
    frames = observe_frames(scene, camera, trajectory.positions, trajectory.quaternions)

    wire = np.empty(payload_num_bytes(scenario, camera), dtype=np.uint8)
    sent, received = [], []
    for i, features in enumerate(frames):
        if len(features) < MIN_FEATURES_FOR_POSE:
            continue
        encode_into(wire, features, scenario, camera)
        corrupt_in_place(wire, ber, np.random.default_rng(frame_streams[i]))
        sent.append(i)
        received.append(decode_payload(wire, scenario, camera))
    correspondences = [_NO_MATCHES] * n
    for i, matches in zip(sent, _match_frames(received, scene)):
        correspondences[i] = matches
    solved, positions, quaternions, inliers = solve_poses(correspondences, camera)

    return TrajectoryEstimate(
        timestamps=trajectory.timestamps.copy(),
        positions=positions,
        quaternions=quaternions,
        inlier_counts=inliers,
        solved=solved,
    )


def _match_frames(records, scene: Scene) -> list:
    """``match_features`` of each record array, from one call on all of them."""
    starts = np.cumsum([0] + [len(frame) for frame in records])
    matches = match_features(np.concatenate([_NO_RECORDS, *records]), scene)
    # Matches are in feature order: split them by frame, then number each
    # frame's features from 0 again.
    bounds = np.searchsorted(matches["feature"], starts)
    matches["feature"] -= np.repeat(starts[:-1], np.diff(bounds))
    return [matches[bounds[j]:bounds[j + 1]] for j in range(len(records))]
