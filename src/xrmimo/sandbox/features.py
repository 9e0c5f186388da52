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


def observe(scene: Scene, camera: CameraModel, position, quaternion) -> np.ndarray:
    """Records (``valid = 1``) for the landmarks visible from a camera pose.

    Keeps at most ``MAX_FEATURES_PER_FRAME``, preferring landmarks
    projecting nearest the image centre; ordering is deterministic (ties
    resolved by landmark index).  Fewer than 4 rows means the frame is
    degenerate for pose solving; the caller decides how to flag it.
    """
    r_wc = quat_to_matrix(quaternion)
    pts_cam = (scene.positions - np.asarray(position, dtype=float)) @ r_wc
    z = pts_cam[:, 2]
    idx = np.flatnonzero((z >= camera.depth_min) & (z <= camera.depth_max))
    pixels = camera.project(pts_cam[idx])
    # Gate matches the wire sanitisation range [0, width-1] x [0, height-1]
    # so legitimate pixels survive decoding unchanged.
    in_image = (
        (pixels[:, 0] >= 0.0) & (pixels[:, 0] <= camera.width - 1)
        & (pixels[:, 1] >= 0.0) & (pixels[:, 1] <= camera.height - 1)
    )
    idx = idx[in_image]
    pixels = pixels[in_image]

    center_dist2 = (pixels[:, 0] - camera.cx) ** 2 + (pixels[:, 1] - camera.cy) ** 2
    order = np.argsort(center_dist2, kind="stable")[:MAX_FEATURES_PER_FRAME]
    landmarks = idx[order]
    records = np.zeros(order.size, dtype=RECORD_WITH_DEPTH_DTYPE)
    records["descriptor"] = scene.descriptors[landmarks]
    records["u"] = pixels[order, 0]
    records["v"] = pixels[order, 1]
    records["score"] = 1.0 / (1.0 + np.sqrt(center_dist2[order]) / 100.0)
    records["valid"] = 1
    records["intensity"] = scene.intensities[landmarks]
    records["depth"] = z[landmarks]
    return records
