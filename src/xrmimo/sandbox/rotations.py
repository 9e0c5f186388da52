"""Quaternion, rotation-matrix and rotation-vector conversions.

Quaternions are (x, y, z, w), scalar last.  Matrix to quaternion is
Shepperd's method (S. W. Shepperd, "Quaternion from rotation matrix",
J. Guidance and Control 1(3), 1978): of the four equivalent formulas, the
one whose pivot (m00, m11, m22 or the trace) is largest is used, so no
division is by a small number.  Each function gives the same bits as the
matching ``Rotation`` conversion of SciPy 1.17, which the tests check.
"""

from __future__ import annotations

import numpy as np


def quat_to_matrix(quaternion) -> np.ndarray:
    """Rotation matrices (..., 3, 3) of quaternions (..., 4), each normalised first.

    A zero quaternion raises ``ZeroDivisionError``.
    """
    q = np.asarray(quaternion, dtype=float)
    x, y, z, w = np.moveaxis(q, -1, 0)
    norm = np.sqrt(x * x + y * y + z * z + w * w)
    if np.any(norm == 0.0):
        raise ZeroDivisionError("zero quaternion has no rotation")
    entries = _matrix_entries(x / norm, y / norm, z / norm, w / norm)
    return np.stack(entries, axis=-1).reshape(q.shape[:-1] + (3, 3))


def matrix_to_quat(matrix) -> np.ndarray:
    """Unit quaternions (n, 4) of rotation matrices (n, 3, 3).

    The matrices must be orthonormal to rounding: unlike SciPy's
    ``Rotation.from_matrix``, this does not project other matrices onto
    the nearest rotation.
    """
    m = np.asarray(matrix, dtype=float)
    d0, d1, d2 = m[:, 0, 0], m[:, 1, 1], m[:, 2, 2]
    trace = d0 + d1 + d2
    s01, s02, s12 = m[:, 1, 0] + m[:, 0, 1], m[:, 2, 0] + m[:, 0, 2], m[:, 2, 1] + m[:, 1, 2]
    a0, a1, a2 = m[:, 2, 1] - m[:, 1, 2], m[:, 0, 2] - m[:, 2, 0], m[:, 1, 0] - m[:, 0, 1]
    # Row p is the unnormalised quaternion pivoting on m00, m11, m22 or the trace.
    candidates = np.array([
        [1 - trace + 2 * d0, s01, s02, a0],
        [s01, 1 - trace + 2 * d1, s12, a1],
        [s02, s12, 1 - trace + 2 * d2, a2],
        [a0, a1, a2, 1 + trace],
    ])
    pivot = np.argmax(np.stack([d0, d1, d2, trace]), axis=0)
    quat = candidates[pivot, :, np.arange(len(m))]
    return quat / np.linalg.norm(quat, axis=1, keepdims=True)


def rotvec_to_matrix(rotvec) -> np.ndarray:
    """Rotation matrices (n, 3, 3) of rotation vectors (n, 3), angle in radians.

    Below 1e-3 rad, sin(angle / 2) / angle is its Taylor series.  The
    quaternion is not renormalised, as SciPy does not.
    """
    v = np.asarray(rotvec, dtype=float)
    angle = np.linalg.norm(v, axis=1)
    small = angle <= 1e-3
    angle2 = angle * angle
    # Adding ``small`` keeps the unused large-angle branch finite at 0.
    scale = np.where(small, 0.5 - angle2 / 48 + angle2 * angle2 / 3840,
                     np.sin(angle / 2) / (angle + small))
    x, y, z = (v * scale[:, None]).T
    return np.stack(_matrix_entries(x, y, z, np.cos(angle / 2)), axis=1).reshape(-1, 3, 3)


def _matrix_entries(x, y, z, w):
    """The nine row-major entries of a unit quaternion's rotation matrix."""
    x2, y2, z2, w2 = x * x, y * y, z * z, w * w
    xy, zw, xz, yw, yz, xw = x * y, z * w, x * z, y * w, y * z, x * w
    return (x2 - y2 - z2 + w2, 2 * (xy - zw), 2 * (xz + yw),
            2 * (xy + zw), -x2 + y2 - z2 + w2, 2 * (yz - xw),
            2 * (xz - yw), 2 * (yz + xw), -x2 - y2 + z2 + w2)
