"""Per-frame feature observations of a landmark scene.

Stands in for a real detector: every landmark inside the viewing frustum
and depth range yields one feature whose descriptor and intensity are the
landmark's own.

A frame's features are one record array of ``RECORD_WITH_DEPTH_DTYPE``,
the scenario-3 wire record, from observation through decoding; the
scenario 1 and 2 records are the same layout without ``depth``.  Pixel
coordinates and scores are float32 at observation time so they survive
the wire encodings bit-exactly.
"""

from __future__ import annotations

import numpy as np

from .camera import CameraModel
from .rotations import quat_to_matrix
from .scene import DESCRIPTOR_BYTES, Scene

MAX_FEATURES_PER_FRAME = 1536
MIN_FEATURES_FOR_POSE = 4

_RECORD_FIELDS = [
    ("descriptor", "u1", (DESCRIPTOR_BYTES,)),
    ("u", "<f4"),
    ("v", "<f4"),
    ("score", "<f4"),
    ("valid", "u1"),
    ("intensity", "u1"),
    ("reserved", "<u2"),
]
RECORD_DTYPE = np.dtype(_RECORD_FIELDS)
RECORD_WITH_DEPTH_DTYPE = np.dtype(_RECORD_FIELDS + [("depth", "<f8")])


def concatenate_records(arrays) -> np.ndarray:
    """``np.concatenate`` of one or more structured arrays of one dtype, byte for byte.

    numpy promotes the fields of each structured input in turn, which costs
    more than the copy itself for the short per-frame arrays; a field-less
    void view of the same size is copied without it.
    """
    dtype = arrays[0].dtype
    raw = np.dtype((np.void, dtype.itemsize))
    return np.concatenate([array.view(raw) for array in arrays]).view(dtype)


def observe(scene: Scene, camera: CameraModel, position, quaternion) -> np.ndarray:
    """Records (``valid = 1``) for the landmarks visible from a camera pose.

    Keeps at most ``MAX_FEATURES_PER_FRAME``, preferring landmarks
    projecting nearest the image centre; ordering is deterministic (ties
    resolved by landmark index).  Fewer than 4 rows means the frame is
    degenerate for pose solving; the caller decides how to flag it.
    """
    return observe_block(scene, camera, [position], [quaternion])[0]


def observe_block(scene: Scene, camera: CameraModel, positions, quaternions):
    """``observe`` for camera poses (n, 3) and (n, 4): the records back to back, and each count.

    One rotation conversion, one projection and one sort serve every frame.
    """
    r_wc = quat_to_matrix(quaternions)
    offsets = scene.positions - np.asarray(positions, dtype=float)[:, None, :]
    pts_cam = np.matmul(offsets, r_wc)
    z = pts_cam[..., 2]
    # Landmarks outside the depth range may sit at or near z = 0; their
    # pixels may divide by zero or overflow, and are never kept.
    with np.errstate(all="ignore"):
        pixels = camera.project(pts_cam)
        u, v = pixels[..., 0], pixels[..., 1]
        # Gate matches the wire sanitisation range [0, width-1] x [0, height-1]
        # so legitimate pixels survive decoding unchanged.
        seen = ((z >= camera.depth_min) & (z <= camera.depth_max)
                & (u >= 0.0) & (u <= camera.width - 1)
                & (v >= 0.0) & (v <= camera.height - 1))
        center_dist2 = np.where(seen, (u - camera.cx) ** 2 + (v - camera.cy) ** 2, np.inf)
    # Unseen landmarks sort last; the stable sort resolves ties by landmark index.
    order = np.argsort(center_dist2, axis=1, kind="stable")[:, :MAX_FEATURES_PER_FRAME]
    counts = np.minimum(seen.sum(axis=1), MAX_FEATURES_PER_FRAME)
    frame, rank = np.nonzero(np.arange(order.shape[1]) < counts[:, None])
    landmarks = order[frame, rank]
    records = np.zeros(frame.size, dtype=RECORD_WITH_DEPTH_DTYPE)
    records["descriptor"] = scene.descriptors[landmarks]
    records["u"] = u[frame, landmarks]
    records["v"] = v[frame, landmarks]
    records["score"] = 1.0 / (1.0 + np.sqrt(center_dist2[frame, landmarks]) / 100.0)
    records["valid"] = 1
    records["intensity"] = scene.intensities[landmarks]
    records["depth"] = z[frame, landmarks]
    return records, counts
