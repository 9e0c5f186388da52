"""End-to-end localisation pipeline with wireless bit errors.

Per frame: observe the scene, serialize the scenario payload, inject
binomial bit errors on the wire bytes, decode with range sanitisation,
and match descriptors against the known map.  Then the camera poses of
the whole trajectory are solved in one stacked pass.  Frames are
independent given their derived random streams, and a frame's pose does
not depend on the other frames it is solved with.
"""

from __future__ import annotations

import numpy as np

from ..biterrors import corrupt
from ..seeding import seed_sequence
from .camera import CameraModel
from .features import MIN_FEATURES_FOR_POSE, observe
from .matching import MATCH_DTYPE, match_features
from .payload import decode_payload, encode_payload
from .scene import Scene
# ``solve_pose`` is not called here; perfbench replays the pipeline per
# frame through this module's stage functions, ``solve_pose`` among them.
from .solver import solve_pose, solve_poses  # noqa: F401
from .trajectory import GroundTruthTrajectory, TrajectoryEstimate

_NO_MATCHES = np.zeros(0, dtype=MATCH_DTYPE)


def run_pipeline(scene: Scene, camera: CameraModel, trajectory: GroundTruthTrajectory,
                 scenario: int, ber: float, rng=0) -> TrajectoryEstimate:
    """Recover the trajectory through the corrupted offloading link.

    Deterministic given ``rng``; each frame consumes its own spawned
    stream, so frame results do not depend on processing order.
    """
    n = trajectory.n_frames
    frame_streams = seed_sequence(rng).spawn(n)

    correspondences = []
    for i in range(n):
        features = observe(scene, camera, trajectory.positions[i], trajectory.quaternions[i])
        if len(features) < MIN_FEATURES_FOR_POSE:
            correspondences.append(_NO_MATCHES)
            continue
        payload = encode_payload(features, scenario, camera)
        gen = np.random.default_rng(frame_streams[i])
        received = corrupt(payload, ber, gen)
        decoded = decode_payload(received, scenario, camera)
        correspondences.append(match_features(decoded, scene))
    solved, positions, quaternions, inliers = solve_poses(correspondences, camera)

    return TrajectoryEstimate(
        timestamps=trajectory.timestamps.copy(),
        positions=positions,
        quaternions=quaternions,
        inlier_counts=inliers,
        solved=solved,
    )
