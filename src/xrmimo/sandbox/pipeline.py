"""End-to-end localisation pipeline with wireless bit errors.

The trajectory is processed in blocks of at most ``BLOCK_FRAMES`` frames,
so memory stays bounded however long it is.  In a block, every frame's
features are observed in one stacked projection and converted to the wire
record once.  Each frame with enough features is then written into one
reused wire buffer, takes binomial bit errors in place from the frame's own
random stream, and has its valid slots and depths read back; only bytes
move per frame.  The received records of the block are range-sanitised
together, matched against the known map in one call, and the camera poses
are solved in one stacked pass.  Each frame's result is bit-identical to
running those stages on that frame alone.
"""

from __future__ import annotations

import numpy as np

from ..biterrors import corrupt_in_place
from ..seeding import seed_sequence
from .camera import CameraModel
from .features import MIN_FEATURES_FOR_POSE, concatenate_records, observe_block
from .matching import MATCH_DTYPE, match_features
from .payload import FrameEncoder, decode_records, read_slots
from .scene import Scene
from .solver import solve_poses
from .trajectory import GroundTruthTrajectory, TrajectoryEstimate

# ``observe``, ``encode_payload``, ``corrupt``, ``decode_payload`` and
# ``solve_pose`` are not called here: they are the one-frame forms of the
# stages above.  perfbench patches them by name in this module and replays
# the pipeline per frame through them, and tests/test_benchmark_coupling.py
# pins them.
from ..biterrors import corrupt  # noqa: F401
from .features import observe  # noqa: F401
from .payload import decode_payload, encode_payload  # noqa: F401
from .solver import solve_pose  # noqa: F401

# Frames per block: bounds the stacked observation and the record blocks.
BLOCK_FRAMES = 256

_NO_MATCHES = np.zeros(0, dtype=MATCH_DTYPE)


def run_pipeline(scene: Scene, camera: CameraModel, trajectory: GroundTruthTrajectory,
                 scenario: int, ber: float, rng=0) -> TrajectoryEstimate:
    """Recover the trajectory through the corrupted offloading link.

    Deterministic given ``rng``; each frame consumes its own spawned
    stream, so frame results do not depend on processing order.
    """
    n = trajectory.n_frames
    root = seed_sequence(rng)
    solved = np.zeros(n, dtype=bool)
    positions = np.empty((n, 3))
    quaternions = np.empty((n, 4))
    inliers = np.empty(n, dtype=int)
    for start in range(0, n, BLOCK_FRAMES):
        block = slice(start, min(start + BLOCK_FRAMES, n))
        # Spawning in blocks gives the same streams as spawning all at once.
        streams = root.spawn(block.stop - start)
        solved[block], positions[block], quaternions[block], inliers[block] = _run_block(
            scene, camera, trajectory.positions[block], trajectory.quaternions[block],
            scenario, ber, streams)
    return TrajectoryEstimate(
        timestamps=trajectory.timestamps.copy(),
        positions=positions,
        quaternions=quaternions,
        inlier_counts=inliers,
        solved=solved,
    )


def _run_block(scene, camera, positions, quaternions, scenario, ber, streams):
    """``solve_poses`` output for one block of frames."""
    features, counts = observe_block(scene, camera, positions, quaternions)
    encoder = FrameEncoder(features, counts, scenario, camera)
    wire = np.empty(encoder.n_bytes, dtype=np.uint8)
    sent = np.flatnonzero(counts >= MIN_FEATURES_FOR_POSE)
    slots, depths = [], []
    for i in sent:
        encoder.write(wire, i)
        corrupt_in_place(wire, ber, np.random.default_rng(streams[i]))
        records, depth = read_slots(wire, scenario, camera)
        slots.append(records)
        depths.append(depth)
    correspondences = [_NO_MATCHES] * len(counts)
    if sent.size:
        received = decode_records(concatenate_records(slots), np.concatenate(depths),
                                  camera)
        for i, matches in zip(sent, _match_frames(received, [len(r) for r in slots], scene)):
            correspondences[i] = matches
    return solve_poses(correspondences, camera)


def _match_frames(records, counts, scene: Scene) -> list:
    """``match_features`` of each frame of ``records``, ``counts[j]`` rows for frame j."""
    starts = np.concatenate([[0], np.cumsum(counts, dtype=np.intp)])
    matches = match_features(records, scene)
    # Matches are in feature order: split them by frame, then number each
    # frame's features from 0 again.
    bounds = np.searchsorted(matches["feature"], starts)
    matches["feature"] -= np.repeat(starts[:-1], np.diff(bounds))
    return [matches[bounds[j]:bounds[j + 1]] for j in range(len(counts))]
