"""Trajectory accuracy metrics.

Translation-only absolute trajectory error after a least-squares
similarity alignment over all solved poses, percentage errors against a
per-trajectory baseline with two-level averaging, and bootstrap
aggregation across trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import AlignmentError
from .seeding import as_generator

_DEGENERACY_RTOL = 1e-9


@dataclass(frozen=True)
class AteResult:
    """Translation RMSE after alignment, with the transform that achieved it."""

    rmse: float
    n_poses: int
    n_dropped: int
    rotation: np.ndarray
    translation: np.ndarray
    scale: float

    def __post_init__(self):
        if self.rmse < 0:
            raise ValueError("rmse must be >= 0")
        if not self.scale > 0:
            raise ValueError("scale must be positive")
        r = np.asarray(self.rotation, dtype=float)
        if np.abs(r @ r.T - np.eye(3)).max() > 1e-9 or abs(np.linalg.det(r) - 1.0) > 1e-9:
            raise ValueError("rotation must be orthonormal with determinant +1")


@dataclass(frozen=True)
class BootstrapStats:
    mean: float
    std: float
    ci_low: float
    ci_high: float
    n_draws: int


def umeyama_align(estimated, ground_truth, with_scale: bool = True):
    """Least-squares similarity transform mapping ``estimated`` onto ``ground_truth``.

    Returns (rotation, translation, scale) minimising
    sum ||gt_i - (s R est_i + t)||^2, with the usual SVD reflection
    correction.  Raises AlignmentError for fewer than 3 points or a
    configuration of rank < 2 (collinear or coincident points).  This is
    the one-set call of ``umeyama_align_stacked``.
    """
    est = np.asarray(estimated, dtype=float)
    gt = np.asarray(ground_truth, dtype=float)
    if est.shape != gt.shape or est.ndim != 2 or est.shape[1] != 3:
        raise AlignmentError(f"point sets must both be (n, 3), got {est.shape} and {gt.shape}")
    n = est.shape[0]
    if n < 3:
        raise AlignmentError(f"need at least 3 correspondences, got {n}")
    rotation, translation, scale, degenerate = umeyama_align_stacked(
        est[None], gt[None], np.ones((1, n), dtype=bool), with_scale)
    if degenerate[0]:
        raise AlignmentError("degenerate point configuration (rank < 2)")
    return rotation[0], translation[0], float(scale[0])


def umeyama_align_stacked(estimated, ground_truth, valid, with_scale: bool = True):
    """``umeyama_align`` over a stack of point sets padded to one length.

    ``estimated`` and ``ground_truth`` are (B, N, 3) and ``valid`` (B, N)
    marks each set's points; every set needs at least one.  Returns
    rotations (B, 3, 3), translations (B, 3), scales (B,) and a (B,) flag
    for sets of rank < 2, whose transforms are meaningless.  Each set's
    result depends on its valid points alone: the others enter every sum
    as zeros, and no sum runs along the point axis as its innermost one.
    """
    mask = valid[..., None]
    counts = np.count_nonzero(valid, axis=1)[:, None]
    mu_est = np.where(mask, estimated, 0.0).sum(axis=1) / counts
    mu_gt = np.where(mask, ground_truth, 0.0).sum(axis=1) / counts
    centred_est = np.where(mask, estimated - mu_est[:, None], 0.0)
    centred_gt = np.where(mask, ground_truth - mu_gt[:, None], 0.0)
    var_est = (centred_est**2).sum(axis=1).sum(axis=1) / counts[:, 0]
    cov = np.einsum("bni,bnj->bij", centred_gt, centred_est) / counts[:, :, None]
    u, d, vt = np.linalg.svd(cov)
    degenerate = (var_est <= 0) | (
        d[:, 1] <= _DEGENERACY_RTOL * np.maximum(d[:, 0], np.finfo(float).tiny))
    sign = np.ones_like(d)
    sign[np.linalg.det(u) * np.linalg.det(vt) < 0, 2] = -1.0
    rotation = np.einsum("bij,bjk->bik", u * sign[:, None, :], vt)
    scale = np.ones(len(d))
    if with_scale:
        np.divide((d * sign).sum(axis=1), var_est, out=scale, where=~degenerate)
    translation = mu_gt - scale[:, None] * np.einsum("bij,bj->bi", rotation, mu_est)
    return rotation, translation, scale, degenerate


def _nearest_timestamps(reference: np.ndarray, queries: np.ndarray):
    """Index of the nearest reference timestamp for each query, plus the gap."""
    idx = np.searchsorted(reference, queries)
    idx = np.clip(idx, 1, len(reference) - 1)
    left = reference[idx - 1]
    right = reference[idx]
    use_left = (queries - left) <= (right - queries)
    nearest = np.where(use_left, idx - 1, idx)
    return nearest, np.abs(reference[nearest] - queries)


def ate_translation(estimate, ground_truth) -> AteResult:
    """Translation ATE of an estimate against ground truth.

    Solved estimate poses are associated to the nearest ground-truth
    timestamp within half a frame period; unmatched ones are dropped and
    counted.  Needs at least 3 associated poses.
    """
    est_t = np.asarray(estimate.timestamps, dtype=float)
    est_p = np.asarray(estimate.positions, dtype=float)
    gt_t = np.asarray(ground_truth.timestamps, dtype=float)
    gt_p = np.asarray(ground_truth.positions, dtype=float)
    if len(gt_t) < 2:
        raise AlignmentError("ground truth needs at least 2 poses to define a frame period")
    tolerance = float(np.median(np.diff(gt_t))) / 2.0

    est_idx = np.flatnonzero(estimate.solved)
    if est_idx.size == 0:
        raise AlignmentError("no solved poses in the estimate")
    nearest, gap = _nearest_timestamps(gt_t, est_t[est_idx])
    within = gap <= tolerance
    n_dropped = int(np.count_nonzero(~within))
    est_idx = est_idx[within]
    gt_idx = nearest[within]
    if est_idx.size < 3:
        raise AlignmentError(
            f"only {est_idx.size} associated poses; at least 3 are required"
        )
    rotation, translation, scale = umeyama_align(est_p[est_idx], gt_p[gt_idx])
    aligned = scale * (est_p[est_idx] @ rotation.T) + translation
    rmse = float(np.sqrt(np.mean(np.sum((gt_p[gt_idx] - aligned) ** 2, axis=1))))
    return AteResult(rmse=rmse, n_poses=int(est_idx.size), n_dropped=n_dropped,
                     rotation=rotation, translation=translation, scale=scale)


def trajectory_error_percentages(run_errors, baselines) -> np.ndarray:
    """Per-trajectory mean percentage deviation from that trajectory's baseline."""
    if len(run_errors) != len(baselines):
        raise ValueError("run_errors and baselines must have equal length")
    if len(baselines) == 0:
        raise ValueError("no trajectories given")
    out = []
    for runs, baseline in zip(run_errors, baselines):
        runs = np.asarray(runs, dtype=float)
        if runs.size == 0:
            raise ValueError("each trajectory needs at least one run error")
        if not baseline > 0:
            raise ValueError("baseline error must be positive for normalisation")
        out.append(float(np.mean(100.0 * (runs - baseline) / baseline)))
    return np.asarray(out)


def normalize_vs_baseline(run_errors, baselines) -> float:
    """Average percentage error: first within, then across trajectories."""
    return float(np.mean(trajectory_error_percentages(run_errors, baselines)))


def bootstrap_stats(values, n_draws: int = 10_000, ci_level: float = 0.95,
                    rng=0) -> BootstrapStats:
    """Bootstrap mean, standard deviation, and percentile CI of a sample mean.

    The mean and the standard deviation are taken of the bootstrap means
    shifted by the first of them (the shifted-data variance algorithm of
    Chan, Golub & LeVeque, Am. Stat. 37(3), 1983), so rounding in the
    mean of the bootstrap means does not show up as spread.  A constant
    sample therefore gives a standard deviation of exactly 0 and a CI
    collapsed to one point at its value (``ci_low == ci_high``).  The
    percentiles are taken of the unshifted bootstrap means.
    """
    vals = np.asarray(values, dtype=float)
    if vals.size == 0:
        raise ValueError("values must be non-empty")
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    if not 0.0 < ci_level < 1.0:
        raise ValueError("ci_level must lie in (0, 1)")
    gen = as_generator(rng)
    idx = gen.integers(0, vals.size, size=(n_draws, vals.size))
    means = vals[idx].mean(axis=1)
    alpha = 100.0 * (1.0 - ci_level) / 2.0
    lo, hi = np.percentile(means, [alpha, 100.0 - alpha])
    shifted = means - means[0]
    return BootstrapStats(mean=float(means[0] + shifted.mean()),
                          std=float(shifted.std(ddof=0)),
                          ci_low=float(lo), ci_high=float(hi), n_draws=n_draws)
