"""Robust camera pose recovery from feature-to-landmark correspondences.

Three stages: back-project decoded features into the camera frame with
their depths, rigidly align the matched world landmarks onto those points
(closed form, with iterative median-absolute-deviation trimming of
outliers), then refine by Gauss-Newton on the pixel reprojection error
under a Huber loss.

State is the world-to-camera transform (R, t) with ``X_cam = R X_world + t``.
Increments perturb the rotation on the left and the translation additively,
``R <- exp([w]x) R`` and ``t <- t + dt``, which gives
``d X_cam / d w = -[R X_world]x`` and ``d X_cam / d t = I``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.transform import Rotation

from ..exceptions import AlignmentError
from ..metrics import umeyama_align
from .camera import CameraModel
from .features import MIN_FEATURES_FOR_POSE

HUBER_DELTA_PX = 2.0
MAX_TRIM_ROUNDS = 5
MAX_REFINE_ITERATIONS = 10
STEP_TOLERANCE = 1e-8
TRIM_MAD_FACTOR = 3.0
# Floor on the MAD so converged noise-free fits are not trimmed to nothing.
_MAD_FLOOR_M = 1e-9


@dataclass(frozen=True)
class PoseSolveResult:
    solved: bool
    position: np.ndarray
    quaternion: np.ndarray
    n_inliers: int

    @classmethod
    def unsolved(cls) -> "PoseSolveResult":
        return cls(solved=False, position=np.full(3, np.nan),
                   quaternion=np.array([0.0, 0.0, 0.0, 1.0]), n_inliers=0)


def _pixel_jacobian_wrt_point(points_cam: np.ndarray, camera: CameraModel) -> np.ndarray:
    """d pixel / d X_cam for each camera-frame point, shape (n, 2, 3)."""
    x, y, z = points_cam[:, 0], points_cam[:, 1], points_cam[:, 2]
    inv_z = 1.0 / z
    jac = np.zeros((points_cam.shape[0], 2, 3))
    jac[:, 0, 0] = camera.fx * inv_z
    jac[:, 0, 2] = -camera.fx * x * inv_z**2
    jac[:, 1, 1] = camera.fy * inv_z
    jac[:, 1, 2] = -camera.fy * y * inv_z**2
    return jac


def _skew(vectors: np.ndarray) -> np.ndarray:
    out = np.zeros((vectors.shape[0], 3, 3))
    out[:, 0, 1] = -vectors[:, 2]
    out[:, 0, 2] = vectors[:, 1]
    out[:, 1, 0] = vectors[:, 2]
    out[:, 1, 2] = -vectors[:, 0]
    out[:, 2, 0] = -vectors[:, 1]
    out[:, 2, 1] = vectors[:, 0]
    return out


def reprojection_residuals(rotation_cw, translation_cw, world_points, pixels,
                           camera: CameraModel) -> np.ndarray:
    """Predicted-minus-observed pixel residuals, shape (n, 2)."""
    pts_cam = np.asarray(world_points, dtype=float) @ np.asarray(rotation_cw).T
    pts_cam = pts_cam + np.asarray(translation_cw, dtype=float)
    return camera.project(pts_cam) - np.asarray(pixels, dtype=float)


def reprojection_jacobian(rotation_cw, translation_cw, world_points,
                          camera: CameraModel) -> np.ndarray:
    """Residual Jacobian w.r.t. the (rotation, translation) increment, (n, 2, 6)."""
    rotated = np.asarray(world_points, dtype=float) @ np.asarray(rotation_cw).T
    pts_cam = rotated + np.asarray(translation_cw, dtype=float)
    pixel_jac = _pixel_jacobian_wrt_point(pts_cam, camera)
    rot_block = -(pixel_jac @ _skew(rotated))
    return np.concatenate([rot_block, pixel_jac], axis=2)


def solve_pose(correspondences, camera: CameraModel) -> PoseSolveResult:
    """Camera pose (position, camera-to-world quaternion) from correspondences.

    ``correspondences`` is a ``MATCH_DTYPE`` array; only its ``pixel``,
    ``depth`` and ``world`` columns are read.
    """
    n = len(correspondences)
    if n < MIN_FEATURES_FOR_POSE:
        return PoseSolveResult.unsolved()
    pixels = correspondences["pixel"]
    world = correspondences["world"]
    cam_pts = camera.back_project(pixels, correspondences["depth"])

    keep = np.arange(n)
    rotation = translation = None
    for round_idx in range(MAX_TRIM_ROUNDS + 1):
        try:
            rotation, translation, _ = umeyama_align(world[keep], cam_pts[keep],
                                                     with_scale=False)
        except AlignmentError:
            return PoseSolveResult.unsolved()
        if round_idx == MAX_TRIM_ROUNDS:
            break
        residuals = np.linalg.norm(
            cam_pts[keep] - (world[keep] @ rotation.T + translation), axis=1
        )
        median = float(np.median(residuals))
        mad = float(np.median(np.abs(residuals - median)))
        ok = residuals <= median + TRIM_MAD_FACTOR * max(mad, _MAD_FLOOR_M)
        if ok.all():
            break
        if int(ok.sum()) < MIN_FEATURES_FOR_POSE:
            return PoseSolveResult.unsolved()
        keep = keep[ok]

    rotation, translation = _refine(rotation, translation, world[keep], pixels[keep], camera)
    if rotation is None:
        return PoseSolveResult.unsolved()
    rotation_wc = rotation.T
    position = -rotation.T @ translation
    quaternion = Rotation.from_matrix(rotation_wc).as_quat()
    return PoseSolveResult(solved=True, position=position, quaternion=quaternion,
                           n_inliers=int(keep.size))


def _refine(rotation, translation, world, pixels, camera):
    """Gauss-Newton with Huber-weighted normal equations."""
    for _ in range(MAX_REFINE_ITERATIONS):
        pts_cam = world @ rotation.T + translation
        in_front = pts_cam[:, 2] > 1e-9
        if int(in_front.sum()) < MIN_FEATURES_FOR_POSE:
            return None, None
        res = camera.project(pts_cam[in_front]) - pixels[in_front]
        err = np.linalg.norm(res, axis=1)
        weights = np.ones_like(err)
        heavy = err > HUBER_DELTA_PX
        weights[heavy] = HUBER_DELTA_PX / err[heavy]
        jac = reprojection_jacobian(rotation, translation, world[in_front], camera)
        weighted = jac * weights[:, None, None]
        hessian = np.einsum("nri,nrj->ij", weighted, jac)
        gradient = np.einsum("nri,nr->i", weighted, res)
        try:
            step = np.linalg.solve(hessian, -gradient)
        except np.linalg.LinAlgError:
            break
        rotation = Rotation.from_rotvec(step[:3]).as_matrix() @ rotation
        translation = translation + step[3:]
        if float(np.linalg.norm(step)) < STEP_TOLERANCE:
            break
    return rotation, translation
