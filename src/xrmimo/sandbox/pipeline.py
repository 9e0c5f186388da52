"""End-to-end localisation pipeline with wireless bit errors.

The trajectory is processed in blocks of at most ``BLOCK_FRAMES`` frames,
so memory stays bounded however long it is.  In a block, every frame's
features are observed in one stacked projection and converted to the wire
record once.  Each frame with enough features is then written into a
reused wire buffer, takes binomial bit errors in place from the frame's own
random stream, and has its valid slots and depths read back; only bytes
move per frame.  Where the frames expect dense bit errors, this link stage
runs on two threads, each over a contiguous half of the frames with its own
wire, since numpy draws and applies the flips without holding the GIL.  The
received records of the block are range-sanitised together and matched
against the known map in one call, where the popcount bound and the
one-word lookup settle most rows before any full distance search.  The
matches go to the solver as they come, back to back with a count per
frame, as the other block stages take their rows.  Each frame's result is
bit-identical to running those stages on that frame alone.
"""

from __future__ import annotations

import numpy as np

from ..biterrors import corrupt_in_place
from ..parallel import in_two_halves
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
# Expected bit flips per frame from which a block's link stage runs on two
# threads.  numpy draws and applies the flips without holding the GIL, but
# below about 8000 flips a frame the GIL-held write, read and generator
# set-up dominate and a second thread is slower; the gate is twice that.
PARALLEL_LINK_FLIPS = 16_384


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
    # A frame with too few features is not sent, and receives no records.
    sent = np.flatnonzero(counts >= MIN_FEATURES_FOR_POSE)
    received = in_two_halves(
        lambda frames: _link(encoder, frames, ber, streams, scenario, camera), sent,
        split=8 * encoder.n_bytes * ber >= PARALLEL_LINK_FLIPS)
    n_received = np.zeros(len(counts), dtype=np.intp)
    n_received[sent] = [len(records) for records, _ in received]
    matches = np.zeros(0, dtype=MATCH_DTYPE)
    if received:
        slots, depths = zip(*received)
        matches = match_features(
            decode_records(concatenate_records(slots), np.concatenate(depths), camera), scene)
    # Matches are in feature order, so frames 0 to j own those below frame j's end.
    ends = np.searchsorted(matches["feature"], np.cumsum(n_received))
    return solve_poses(matches, np.diff(ends, prepend=0), camera)


def _link(encoder, frames, ber, streams, scenario, camera):
    """The ``read_slots`` output of each of ``frames``, in order, after its trip over the link.

    Each frame is written into this call's own wire and takes bit errors
    from its own stream, so calls on disjoint frames may run on different
    threads and give the bytes of one call over all of them.
    """
    wire = np.empty(encoder.n_bytes, dtype=np.uint8)
    received = []
    for i in frames:
        encoder.write(wire, i)
        corrupt_in_place(wire, ber, np.random.default_rng(streams[i]))
        received.append(read_slots(wire, scenario, camera))
    return received
