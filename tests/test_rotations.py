"""Rotation conversions against scipy's ``Rotation``, bit for bit."""

import warnings

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from xrmimo.sandbox.rotations import matrix_to_quat, quat_to_matrix, rotvec_to_matrix

RNG_SEED = 20261019


def random_axes(rng, n):
    axes = rng.normal(size=(n, 3))
    return axes / np.linalg.norm(axes, axis=1, keepdims=True)


def pivots(matrices):
    """Index of the largest of (m00, m11, m22, trace), the branch Shepperd's method takes."""
    diagonal = np.diagonal(matrices, axis1=1, axis2=2)
    return np.argmax(np.column_stack([diagonal, diagonal.sum(axis=1)]), axis=1)


class TestQuatToMatrix:
    def test_random_unnormalised_quaternions(self):
        rng = np.random.default_rng(RNG_SEED)
        quats = rng.normal(size=(3000, 4)) * rng.uniform(1e-3, 1e3, size=(3000, 1))
        for quat in quats:
            assert np.array_equal(quat_to_matrix(quat), Rotation.from_quat(quat).as_matrix())

    def test_takes_a_list(self):
        quat = [0.1, -0.2, 0.3, 0.9]
        assert np.array_equal(quat_to_matrix(quat), Rotation.from_quat(quat).as_matrix())

    def test_zero_norm_raises(self):
        with pytest.raises(ZeroDivisionError):
            quat_to_matrix([0.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("shape", [(500, 4), (2, 3, 4), (1, 4)])
    def test_stacked_rows_equal_one_at_a_time(self, shape):
        rng = np.random.default_rng(RNG_SEED)
        quats = rng.normal(size=shape) * rng.uniform(1e-3, 1e3, size=shape[:-1] + (1,))
        matrices = quat_to_matrix(quats)
        assert matrices.shape == shape[:-1] + (3, 3)
        for index in np.ndindex(shape[:-1]):
            assert np.array_equal(matrices[index], Rotation.from_quat(quats[index]).as_matrix())

    def test_stack_with_a_zero_row_raises(self):
        quats = np.random.default_rng(RNG_SEED).normal(size=(5, 4))
        quats[3] = 0.0
        with pytest.raises(ZeroDivisionError):
            quat_to_matrix(quats)


class TestMatrixToQuat:
    def test_random_rotations(self):
        rng = np.random.default_rng(RNG_SEED)
        matrices = Rotation.from_quat(rng.normal(size=(20000, 4))).as_matrix()
        assert np.array_equal(matrix_to_quat(matrices), Rotation.from_matrix(matrices).as_quat())

    @pytest.mark.parametrize("pivot", [0, 1, 2, 3])
    def test_each_pivot(self, pivot):
        # Near the identity the trace dominates; near a half turn about
        # axis i, m_ii does.
        rng = np.random.default_rng(RNG_SEED + pivot)
        if pivot == 3:
            rotvecs = 0.5 * rng.uniform(-1.0, 1.0, size=(2000, 3))
        else:
            axes = np.eye(3)[pivot] + 0.3 * rng.uniform(-1.0, 1.0, size=(2000, 3))
            axes /= np.linalg.norm(axes, axis=1, keepdims=True)
            rotvecs = axes * rng.uniform(2.5, np.pi, size=(2000, 1))
        matrices = Rotation.from_rotvec(rotvecs).as_matrix()
        assert np.all(pivots(matrices) == pivot)
        assert np.array_equal(matrix_to_quat(matrices), Rotation.from_matrix(matrices).as_quat())

    @pytest.mark.parametrize("angle", [np.pi, np.nextafter(np.pi, 0.0), np.pi - 1e-9,
                                       np.pi - 1e-6])
    def test_at_and_near_half_turn(self, angle):
        rng = np.random.default_rng(RNG_SEED)
        axes = np.vstack([np.eye(3), random_axes(rng, 3000)])
        matrices = Rotation.from_rotvec(angle * axes).as_matrix()
        assert set(pivots(matrices)) == {0, 1, 2}
        assert np.array_equal(matrix_to_quat(matrices), Rotation.from_matrix(matrices).as_quat())

    def test_identity(self):
        quat = matrix_to_quat(np.eye(3)[None])
        assert np.array_equal(quat, [[0.0, 0.0, 0.0, 1.0]])


class TestRotvecToMatrix:
    @pytest.mark.parametrize("scale", [1e-9, 1e-5, 5e-4, 0.01, 0.3, 1.0, 3.0, np.pi])
    def test_random_rotation_vectors(self, scale):
        rng = np.random.default_rng(RNG_SEED)
        rotvecs = random_axes(rng, 5000) * scale * rng.uniform(0.0, 1.0, size=(5000, 1))
        assert np.array_equal(rotvec_to_matrix(rotvecs), Rotation.from_rotvec(rotvecs).as_matrix())

    def test_both_sides_of_the_taylor_switch(self):
        rng = np.random.default_rng(RNG_SEED)
        switch = 1e-3
        angles = np.concatenate([
            [switch, np.nextafter(switch, 0.0), np.nextafter(switch, 1.0)],
            switch * (1.0 + rng.uniform(-1e-6, 1e-6, size=2000)),
        ])
        rotvecs = random_axes(rng, len(angles)) * angles[:, None]
        norms = np.linalg.norm(rotvecs, axis=1)
        assert np.any(norms <= switch) and np.any(norms > switch)
        assert np.array_equal(rotvec_to_matrix(rotvecs), Rotation.from_rotvec(rotvecs).as_matrix())

    def test_zero_is_the_identity_without_warnings(self):
        zero = np.zeros((2, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrices = rotvec_to_matrix(zero)
        assert np.array_equal(matrices, Rotation.from_rotvec(zero).as_matrix())
        assert np.array_equal(matrices, np.broadcast_to(np.eye(3), (2, 3, 3)))
