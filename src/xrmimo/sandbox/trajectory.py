"""Ground-truth trajectories and pose estimates.

Poses are camera-to-world: ``position`` is the camera centre and the
quaternion (x, y, z, w) rotates camera axes into world axes, with the
computer-vision camera frame (x right, y down, z forward).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.transform import Rotation

from ..exceptions import ConfigurationError
from ..seeding import as_generator
from .scene import ROOM_SIZE_M

DEFAULT_FRAME_RATE_HZ = 30.0


@dataclass(frozen=True)
class GroundTruthTrajectory:
    timestamps: np.ndarray
    positions: np.ndarray
    quaternions: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.timestamps, dtype=float)
        p = np.asarray(self.positions, dtype=float)
        q = np.asarray(self.quaternions, dtype=float)
        n = t.shape[0]
        if p.shape != (n, 3) or q.shape != (n, 4):
            raise ConfigurationError("positions must be (n, 3) and quaternions (n, 4)")
        if n >= 2 and not np.all(np.diff(t) > 0):
            raise ConfigurationError("timestamps must be strictly increasing")
        norms = np.linalg.norm(q, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ConfigurationError("quaternions must be unit norm within 1e-9")
        object.__setattr__(self, "timestamps", t)
        object.__setattr__(self, "positions", p)
        object.__setattr__(self, "quaternions", q)

    @property
    def n_frames(self) -> int:
        return self.timestamps.shape[0]


@dataclass(frozen=True)
class TrajectoryEstimate:
    """Recovered poses, one entry per input frame; unsolved frames are flagged."""

    timestamps: np.ndarray
    positions: np.ndarray
    quaternions: np.ndarray
    inlier_counts: np.ndarray
    solved: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.timestamps, dtype=float)
        p = np.asarray(self.positions, dtype=float)
        q = np.asarray(self.quaternions, dtype=float)
        inl = np.asarray(self.inlier_counts, dtype=int)
        solved = np.asarray(self.solved, dtype=bool)
        n = t.shape[0]
        if p.shape != (n, 3) or q.shape != (n, 4) or inl.shape != (n,) or solved.shape != (n,):
            raise ConfigurationError("estimate arrays must share one entry per frame")
        if solved.any() and not np.isfinite(p[solved]).all():
            raise ConfigurationError("solved poses must be finite")
        object.__setattr__(self, "timestamps", t)
        object.__setattr__(self, "positions", p)
        object.__setattr__(self, "quaternions", q)
        object.__setattr__(self, "inlier_counts", inl)
        object.__setattr__(self, "solved", solved)

    @property
    def n_frames(self) -> int:
        return self.timestamps.shape[0]

    @property
    def n_unsolved(self) -> int:
        return int(np.count_nonzero(~self.solved))


def _camera_to_world_rotation(yaw: float, pitch: float) -> np.ndarray:
    """Rotation whose columns are the camera axes expressed in world frame.

    World z is up.  The camera looks along ``forward`` (yaw around world z,
    pitch towards world z), with camera y pointing down.
    """
    cp, sp = np.cos(pitch), np.sin(pitch)
    forward = np.array([cp * np.cos(yaw), cp * np.sin(yaw), sp])
    up = np.array([0.0, 0.0, 1.0])
    right = np.cross(forward, up)
    right /= np.linalg.norm(right)
    down = np.cross(forward, right)
    return np.column_stack([right, down, forward])


def generate_trajectory(n_frames: int, rng=0) -> GroundTruthTrajectory:
    """Smooth closed loop inside the room, camera looking along the path.

    Position follows a low-order sinusoid (an ellipse with a gentle height
    swell); yaw tracks the travel direction with a slow wobble so the view
    sweeps the room.  At the default 100 frames the inter-frame motion
    stays below 0.1 m.
    """
    if n_frames < 2:
        raise ConfigurationError("n_frames must be >= 2")
    gen = as_generator(rng)
    half = np.asarray(ROOM_SIZE_M) / 2.0
    center = half  # the room's corner is the origin

    radius_x = 0.55 * half[0] * gen.uniform(0.9, 1.1)
    radius_y = 0.55 * half[1] * gen.uniform(0.9, 1.1)
    height_amp = 0.2 * half[2] * gen.uniform(0.8, 1.2)
    phase = gen.uniform(0.0, 2.0 * np.pi)
    wobble_phase = gen.uniform(0.0, 2.0 * np.pi)

    theta = 2.0 * np.pi * np.arange(n_frames) / n_frames
    positions = np.empty((n_frames, 3))
    positions[:, 0] = center[0] + radius_x * np.cos(theta)
    positions[:, 1] = center[1] + radius_y * np.sin(theta)
    positions[:, 2] = center[2] + height_amp * np.sin(2.0 * theta + phase)

    yaw = np.arctan2(radius_y * np.cos(theta), -radius_x * np.sin(theta))
    yaw += 0.15 * np.sin(3.0 * theta + wobble_phase)
    pitch = 0.08 * np.sin(2.0 * theta + wobble_phase)

    r_wc = np.stack([_camera_to_world_rotation(float(yaw[i]), float(pitch[i]))
                     for i in range(n_frames)])
    quaternions = Rotation.from_matrix(r_wc).as_quat()
    norms = np.linalg.norm(quaternions, axis=1, keepdims=True)
    quaternions /= norms

    timestamps = np.arange(n_frames) / DEFAULT_FRAME_RATE_HZ
    return GroundTruthTrajectory(timestamps=timestamps, positions=positions,
                                 quaternions=quaternions)
