"""Synthetic landmark-localisation sandbox.

A known-map localisation pipeline that stands in for a full visual SLAM
stack: no mapping, loop closure, or bundle adjustment, just the parts
whose accuracy responds to transmission bit errors.  The fixed map
isolates the question this package studies: how sensitive is pose accuracy
to raw bit errors in each offloading payload.
"""

from .camera import CameraModel
from .features import (
    MAX_FEATURES_PER_FRAME,
    MIN_FEATURES_FOR_POSE,
    RECORD_DTYPE,
    RECORD_WITH_DEPTH_DTYPE,
    observe,
)
from .matching import MATCH_DTYPE, match_features
from .payload import FEATURE_SLOTS, decode_payload, encode_payload, payload_num_bytes
from .pipeline import run_pipeline
from .scene import (
    Box,
    DESCRIPTOR_BYTES,
    MIN_DESCRIPTOR_HAMMING,
    Scene,
    default_bounds,
    descriptor_distances,
    generate_scene,
)
from .solver import (
    PoseSolveResult,
    reprojection_jacobian,
    reprojection_residuals,
    solve_pose,
)
from .trajectory import (
    GroundTruthTrajectory,
    TrajectoryEstimate,
    generate_trajectory,
    load_trajectory_file,
    write_trajectory_file,
)

__all__ = [
    "Box",
    "CameraModel",
    "DESCRIPTOR_BYTES",
    "FEATURE_SLOTS",
    "GroundTruthTrajectory",
    "MATCH_DTYPE",
    "MAX_FEATURES_PER_FRAME",
    "MIN_DESCRIPTOR_HAMMING",
    "MIN_FEATURES_FOR_POSE",
    "PoseSolveResult",
    "RECORD_DTYPE",
    "RECORD_WITH_DEPTH_DTYPE",
    "Scene",
    "TrajectoryEstimate",
    "decode_payload",
    "default_bounds",
    "descriptor_distances",
    "encode_payload",
    "generate_scene",
    "generate_trajectory",
    "load_trajectory_file",
    "match_features",
    "observe",
    "payload_num_bytes",
    "reprojection_jacobian",
    "reprojection_residuals",
    "run_pipeline",
    "solve_pose",
    "write_trajectory_file",
]
