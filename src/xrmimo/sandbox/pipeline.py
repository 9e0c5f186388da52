"""End-to-end localisation pipeline with wireless bit errors.

The trajectory is processed in blocks of at most ``BLOCK_FRAMES`` frames,
so memory stays bounded however long it is.  In a block, every frame's
features are observed in one stacked projection and converted to the wire
record once.  Each frame with enough features then draws binomial bit
errors from its own random stream.  A frame whose flips all miss the bytes
its receiver reads skips the wire and receives the records it sent, which
is what reading the flipped wire would give; at BER 0 every frame does,
with no draw.  The other frames are written into a reused wire buffer,
take their flips in place and have their valid slots and depths read back,
so only bytes move per frame.  Where the frames expect dense bit errors,
this link stage runs on two threads, each over a contiguous half of the
frames with its own wire, since numpy draws and applies the flips without
holding the GIL.  The received records of the block are range-sanitised
together and matched against the known map in one call, where the
popcount bound and the one-word lookup settle most rows before any full
distance search.  The matches go to the solver as they come, back to back
with a count per frame, as the other block stages take their rows.  Each
frame's result is bit-identical to running those stages on that frame
alone.
"""

from __future__ import annotations

import numpy as np

from ..biterrors import apply_flips, corrupt_in_place, draw_flips
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
# threads.  numpy draws, sorts and applies the flips without holding the
# GIL, but with few flips the GIL-held write, read and generator set-up
# dominate.  Over 100 frames of scenarios 1 and 2, two threads took 1.1-1.4x
# the time of one at BER 1e-3 (5 500-7 400 flips a frame), 0.8-1.1x at 2e-3
# to 4e-3 (11 000-29 000 flips), and 0.7-0.8x at 1e-2 (55 000-74 000).
PARALLEL_LINK_FLIPS = 16_384
# Expected flips lambda on the bytes ``read_slots`` reads of a frame, below
# which the frame skips the wire if its flips miss them all, as they do with
# probability e^-lambda.  Over 100 frames checked together, the check took
# 6-15 us a frame at lambda 0.3-1 and 19-41 us at 2 in scenarios 1 and 2,
# and 1 us in scenario 3; skipping saved 70-130 us and 23 us.  So the check
# pays up to lambda 1.5-1.6 in scenarios 1 and 2, and 2.9 in scenario 3.  A
# default-scene frame reads 2 300-7 100 bytes: lambda is 0.2-0.6 at BER
# 1e-5 and 1.8-5.7 at 1e-4.
SKIP_CHECK_HITS = 1.5


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

    A frame that expects fewer than ``SKIP_CHECK_HITS`` flips on the bytes
    ``read_slots`` reads of it, and draws none there, skips the wire and
    takes ``encoder.clean_read``; at BER 0 every frame does, with no draw.
    Each other frame is written into this call's own wire and takes bit
    errors from its own stream, the frames above the gate through
    ``corrupt_in_place``, so calls on disjoint frames may run on
    different threads and give the bytes of one call over all of them.
    """
    if ber == 0.0:
        return [encoder.clean_read(i) for i in frames]
    # The frames to check draw first, and are checked together.
    checked = frames[8 * ber * encoder.read_bytes[frames] < SKIP_CHECK_HITS]
    flips = {i: draw_flips(8 * encoder.n_bytes, ber, np.random.default_rng(streams[i]))
             for i in checked}
    missed = set(checked[~encoder.reads(checked, list(flips.values()))])
    wire = np.empty(encoder.n_bytes, dtype=np.uint8)
    received = []
    for i in frames:
        if i in missed:
            received.append(encoder.clean_read(i))
            continue
        encoder.write(wire, i)
        if i in flips:
            apply_flips(wire, flips.pop(i))
        else:
            corrupt_in_place(wire, ber, np.random.default_rng(streams[i]))
        received.append(read_slots(wire, scenario, camera))
    return received
