"""Robust camera pose recovery from feature-to-landmark correspondences.

Three stages: back-project decoded features into the camera frame with
their depths, rigidly align the matched world landmarks onto those points
(closed form, with iterative median-absolute-deviation trimming of
outliers), then refine by Gauss-Newton on the pixel reprojection error
under a Huber loss.

``solve_poses`` takes many frames' correspondences back to back with a
count per frame, as the pipeline's other block stages take their records.
It gathers them into stacks, padded to one length with a validity mask,
and each stage runs once for every frame still in a stack.  A frame's
result does not depend on the other frames in its stack, bit for bit:
masked rows enter every sum as zeros after or between the real rows, no
sum runs along the correspondence axis as its innermost one, and a frame
leaves a stage by mask, so ``solve_pose`` on one frame gives the same
bits as that frame's row of ``solve_poses``.  That is what
lets ``solve_poses`` sort the frames by correspondence count before
cutting them into stacks, which pads fewer rows, and lets each
Gauss-Newton step rotate the points once for its depth test, residuals
and Jacobian.

State is the world-to-camera transform (R, t) with ``X_cam = R X_world + t``.
Increments perturb the rotation on the left and the translation additively,
``R <- exp([w]x) R`` and ``t <- t + dt``, which gives
``d X_cam / d w = -[R X_world]x`` and ``d X_cam / d t = I``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..metrics import stacked_outer_sum, umeyama_align_stacked
from .camera import CameraModel
from .features import MIN_FEATURES_FOR_POSE
from .matching import MATCH_DTYPE
from .rotations import matrix_to_quat, rotvec_to_matrix

HUBER_DELTA_PX = 2.0
MAX_TRIM_ROUNDS = 5
MAX_REFINE_ITERATIONS = 10
STEP_TOLERANCE = 1e-8
TRIM_MAD_FACTOR = 3.0
# Floor on the MAD so converged noise-free fits are not trimmed to nothing.
_MAD_FLOOR_M = 1e-9
# Frames per stack: bounds the padded (frames, correspondences, 2, 6)
# Jacobian however long the trajectory is.
SOLVE_CHUNK_FRAMES = 64


@dataclass(frozen=True)
class PoseSolveResult:
    solved: bool
    position: np.ndarray
    quaternion: np.ndarray
    n_inliers: int


def _rotate(rotation, points) -> np.ndarray:
    """``R X`` for each point, over any leading frame axes, term by term."""
    rotation = np.asarray(rotation, dtype=float)[..., None, :, :]
    points = np.asarray(points, dtype=float)
    return (points[..., 0, None] * rotation[..., 0] + points[..., 1, None] * rotation[..., 1]
            + points[..., 2, None] * rotation[..., 2])


def _camera_points(rotation_cw, translation_cw, world_points) -> np.ndarray:
    """``R X_world + t`` for each point, over any leading frame axes."""
    translation = np.asarray(translation_cw, dtype=float)[..., None, :]
    return _rotate(rotation_cw, world_points) + translation


def reprojection_residuals(rotation_cw, translation_cw, world_points, pixels,
                           camera: CameraModel) -> np.ndarray:
    """Predicted-minus-observed pixel residuals, shape (..., n, 2).

    ``rotation_cw`` (..., 3, 3), ``translation_cw`` (..., 3), ``world_points``
    (..., n, 3) and ``pixels`` (..., n, 2) share their leading frame axes.
    """
    pts_cam = _camera_points(rotation_cw, translation_cw, world_points)
    return camera.project(pts_cam) - np.asarray(pixels, dtype=float)


def reprojection_jacobian(rotation_cw, translation_cw, world_points,
                          camera: CameraModel) -> np.ndarray:
    """Residual Jacobian w.r.t. the (rotation, translation) increment, (..., n, 2, 6).

    The rotation block is ``-(d pixel / d X_cam) [R X_world]x``, written out
    per entry.
    """
    rotated = _rotate(rotation_cw, world_points)
    pts_cam = rotated + np.asarray(translation_cw, dtype=float)[..., None, :]
    return _jacobian(rotated, pts_cam, camera)


def _jacobian(rotated, pts_cam, camera: CameraModel) -> np.ndarray:
    """``reprojection_jacobian`` from ``R X`` and ``R X + t``."""
    x, y, z = pts_cam[..., 0], pts_cam[..., 1], pts_cam[..., 2]
    a, b, c = rotated[..., 0], rotated[..., 1], rotated[..., 2]
    inv_z = 1.0 / z
    du_dx = camera.fx * inv_z
    du_dz = -camera.fx * x * inv_z**2
    dv_dy = camera.fy * inv_z
    dv_dz = -camera.fy * y * inv_z**2
    zero = np.zeros_like(z)
    return np.stack([
        np.stack([du_dz * b, du_dx * c - du_dz * a, -du_dx * b, du_dx, zero, du_dz], axis=-1),
        np.stack([dv_dz * b - dv_dy * c, -dv_dz * a, dv_dy * a, zero, dv_dy, dv_dz], axis=-1),
    ], axis=-2)


def solve_pose(correspondences, camera: CameraModel) -> PoseSolveResult:
    """Camera pose (position, camera-to-world quaternion) from correspondences.

    ``correspondences`` is a ``MATCH_DTYPE`` array; only its ``pixel``,
    ``depth`` and ``world`` columns are read.  The one-frame call of
    ``solve_poses``.
    """
    solved, positions, quaternions, n_inliers = solve_poses(
        correspondences, [len(correspondences)], camera)
    return PoseSolveResult(solved=bool(solved[0]), position=positions[0],
                           quaternion=quaternions[0], n_inliers=int(n_inliers[0]))


def solve_poses(matches, counts, camera: CameraModel):
    """Camera poses of many frames from their correspondences, back to back.

    ``matches`` is a ``MATCH_DTYPE`` array holding frame 0's rows, then
    frame 1's, and so on; ``counts[j]`` is the number of frame j's rows.
    Only the ``pixel``, ``depth`` and ``world`` columns are read.  Returns
    (solved, positions, quaternions, n_inliers) with one row per frame.  An
    unsolved frame has a NaN position, the identity quaternion and 0
    inliers.  Frames are sorted by row count and solved in stacks of
    ``SOLVE_CHUNK_FRAMES``; the result does not depend on their order.
    """
    counts = np.asarray(counts, dtype=np.intp)
    n = counts.size
    starts = np.cumsum(counts) - counts
    solved = np.zeros(n, dtype=bool)
    positions = np.full((n, 3), np.nan)
    quaternions = np.tile(np.array([0.0, 0.0, 0.0, 1.0]), (n, 1))
    n_inliers = np.zeros(n, dtype=int)
    # Stacks of similar sizes pad fewer rows; the stable sort keeps frame
    # order among equal sizes.
    frames = np.flatnonzero(counts >= MIN_FEATURES_FOR_POSE)
    frames = frames[np.argsort(counts[frames], kind="stable")]
    for start in range(0, frames.size, SOLVE_CHUNK_FRAMES):
        chunk = frames[start:start + SOLVE_CHUNK_FRAMES]
        offsets = np.arange(counts[chunk].max())
        valid = offsets < counts[chunk, None]
        packed = np.zeros(valid.shape, dtype=MATCH_DTYPE)
        packed[valid] = matches[(starts[chunk, None] + offsets)[valid]]
        ok, rotation, translation, kept = _solve_stack(packed, valid, camera)
        rotation_wc = np.swapaxes(rotation[ok], 1, 2)
        done = chunk[ok]
        solved[done] = True
        positions[done] = -np.einsum("bij,bj->bi", rotation_wc, translation[ok])
        if done.size:
            quaternions[done] = matrix_to_quat(rotation_wc)
        n_inliers[done] = kept[ok]
    return solved, positions, quaternions, n_inliers


def _solve_stack(packed, valid, camera: CameraModel):
    """Trim and refine one stack of frames with at least 4 correspondences each.

    ``packed`` holds one frame's ``MATCH_DTYPE`` rows per row, padded to one
    length, and ``valid`` marks the real ones.  Returns the solved flags,
    world-to-camera rotations and translations, and inlier counts, one row
    per frame.
    """
    pixels, world = packed["pixel"], packed["world"]
    cam_pts = camera.back_project(pixels, packed["depth"])

    n_frames = len(packed)
    solved = np.ones(n_frames, dtype=bool)
    rotation = np.empty((n_frames, 3, 3))
    translation = np.empty((n_frames, 3))
    keep = valid.copy()
    rows = np.arange(n_frames)
    for round_idx in range(MAX_TRIM_ROUNDS + 1):
        rot, trans, _, degenerate = umeyama_align_stacked(world[rows], cam_pts[rows],
                                                          keep[rows], with_scale=False)
        rotation[rows], translation[rows] = rot, trans
        solved[rows[degenerate]] = False
        rows, rot, trans = rows[~degenerate], rot[~degenerate], trans[~degenerate]
        if round_idx == MAX_TRIM_ROUNDS or rows.size == 0:
            break
        kept = keep[rows]
        residuals = np.linalg.norm(cam_pts[rows] - _camera_points(rot, trans, world[rows]),
                                   axis=-1)
        median = _masked_median(residuals, kept)
        mad = _masked_median(np.abs(residuals - median[:, None]), kept)
        limit = median + TRIM_MAD_FACTOR * np.maximum(mad, _MAD_FLOOR_M)
        ok = kept & (residuals <= limit[:, None])
        n_ok = np.count_nonzero(ok, axis=1)
        trimmed = n_ok < np.count_nonzero(kept, axis=1)
        solved[rows[trimmed & (n_ok < MIN_FEATURES_FOR_POSE)]] = False
        again = trimmed & (n_ok >= MIN_FEATURES_FOR_POSE)
        keep[rows[again]] = ok[again]
        rows = rows[again]

    _refine(rotation, translation, world, pixels, keep, solved, camera)
    return solved, rotation, translation, np.count_nonzero(keep, axis=1)


def _masked_median(values, mask) -> np.ndarray:
    """Per-row median of ``values`` over ``mask``, as ``np.median`` takes it."""
    count = np.count_nonzero(mask, axis=1)
    ordered = np.sort(np.where(mask, values, np.inf), axis=1)
    rows = np.arange(len(ordered))
    return (ordered[rows, (count - 1) // 2] + ordered[rows, count // 2]) / 2.0


def _refine(rotation, translation, world, pixels, keep, solved, camera) -> None:
    """Gauss-Newton with Huber-weighted normal equations, in place, for ``solved`` frames.

    A frame stops once its step is below ``STEP_TOLERANCE`` or its normal
    equations are singular (it keeps its pose), and is unsolved once fewer
    than ``MIN_FEATURES_FOR_POSE`` of its points are in front of the camera.
    """
    rows = np.flatnonzero(solved)
    for _ in range(MAX_REFINE_ITERATIONS):
        if rows.size == 0:
            return
        # One ``R X`` per step serves the depth test, the residuals and the Jacobian.
        rotated = _rotate(rotation[rows], world[rows])
        pts_cam = rotated + translation[rows][:, None, :]
        use = keep[rows] & (pts_cam[..., 2] > 1e-9)
        behind = np.count_nonzero(use, axis=1) < MIN_FEATURES_FOR_POSE
        solved[rows[behind]] = False
        ahead = ~behind
        rows, use, rotated, pts_cam = rows[ahead], use[ahead], rotated[ahead], pts_cam[ahead]
        if rows.size == 0:
            return
        rot, trans = rotation[rows], translation[rows]
        # Points that are not used may sit on the camera plane; their
        # entries are replaced before any sum.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            res = np.where(use[..., None], camera.project(pts_cam) - pixels[rows], 0.0)
            jac = np.where(use[..., None, None], _jacobian(rotated, pts_cam, camera), 0.0)
            err = np.linalg.norm(res, axis=-1)
            weights = np.where(err > HUBER_DELTA_PX, HUBER_DELTA_PX / err, 1.0)
        weighted = jac * weights[..., None, None]
        hessian = stacked_outer_sum(weighted.reshape(rows.size, -1, 6),
                                    jac.reshape(rows.size, -1, 6))
        gradient = np.einsum("bnri,bnrj->bij", weighted, res[..., None])[..., 0]
        step, singular = _solve_normal_equations(hessian, -gradient)
        move = ~singular
        if move.any():
            turn = rotvec_to_matrix(step[move, :3])
            rotation[rows[move]] = np.einsum("bij,bjk->bik", turn, rot[move])
            translation[rows[move]] = trans[move] + step[move, 3:]
        rows = rows[move & ~(np.linalg.norm(step, axis=1) < STEP_TOLERANCE)]


def _solve_normal_equations(hessian, rhs):
    """Steps (m, 6) and per-frame singular flags; a singular frame's step is 0.

    A stacked ``solve`` raises for the whole stack when one matrix is
    singular, so then each frame is solved alone, with the same call.
    """
    try:
        return np.linalg.solve(hessian, rhs[..., None])[..., 0], np.zeros(len(rhs), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    steps = np.zeros_like(rhs)
    singular = np.zeros(len(rhs), dtype=bool)
    for j in range(len(rhs)):
        try:
            steps[j] = np.linalg.solve(hessian[j:j + 1], rhs[j:j + 1, :, None])[0, :, 0]
        except np.linalg.LinAlgError:
            singular[j] = True
    return steps, singular
