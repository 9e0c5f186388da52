"""Scene, camera, trajectory, and observation tests."""

import hashlib

import numpy as np
import pytest

from xrmimo.exceptions import ConfigurationError
from xrmimo.sandbox import (
    CameraModel,
    GroundTruthTrajectory,
    MAX_FEATURES_PER_FRAME,
    MIN_DESCRIPTOR_HAMMING,
    Scene,
    descriptor_distances,
    generate_scene,
    generate_trajectory,
    observe,
)
from xrmimo.sandbox.scene import ROOM_SIZE_M


def inside(points):
    return np.all((points >= 0.0) & (points <= np.asarray(ROOM_SIZE_M)), axis=-1)


@pytest.fixture(scope="module")
def camera():
    return CameraModel()


def axis_scene(extra_landmarks=()):
    """Scene with one landmark straight ahead of an identity-pose camera."""
    positions = np.array([[0.0, 0.0, 1.0], [0.4, 0.1, 2.0], [-0.3, 0.2, 3.0],
                          [0.1, -0.2, 1.5], *extra_landmarks])
    n = len(positions)
    rng = np.random.default_rng(0)
    descriptors = rng.integers(0, 256, (n, 32), dtype=np.uint8)
    # Spread descriptors far apart by construction for test determinism.
    for i in range(n):
        descriptors[i, :8] = 0
        descriptors[i, i % 8] = 0xFF
    return Scene(positions=positions,
                 descriptors=descriptors,
                 intensities=rng.integers(0, 256, n, dtype=np.uint8))


IDENTITY_QUAT = np.array([0.0, 0.0, 0.0, 1.0])


def landmark_ids(scene, records):
    """Landmark index of each feature record by exact descriptor lookup, -1 if none.

    Scene descriptors are pairwise distinct, so an exact match names one
    landmark.
    """
    hits = (records["descriptor"][:, None, :] == scene.descriptors[None, :, :]).all(axis=2)
    return np.where(hits.any(axis=1), hits.argmax(axis=1), -1)


class TestCamera:
    def test_project_back_project_round_trip(self, camera):
        rng = np.random.default_rng(1)
        depths = rng.uniform(camera.depth_min, camera.depth_max, 200)
        pts = np.column_stack([rng.uniform(-1, 1, 200), rng.uniform(-1, 1, 200), depths])
        pixels = camera.project(pts)
        restored = camera.back_project(pixels, depths)
        assert np.abs(restored - pts).max() < 1e-9

    def test_optical_axis_lands_on_principal_point(self, camera):
        pixel = camera.project(np.array([[0.0, 0.0, 1.0]]))
        assert pixel[0] == pytest.approx([camera.cx, camera.cy])

    @pytest.mark.parametrize("kwargs", [
        {"fx": 0.0}, {"cx": 1000.0}, {"depth_min": 0.0}, {"depth_min": 11.0},
        {"width": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            CameraModel(**kwargs)


class TestScene:
    def test_generate_deterministic(self):
        a = generate_scene(64, rng=5)
        b = generate_scene(64, rng=5)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.descriptors, b.descriptors)

    def test_minimum_landmarks(self):
        scene = generate_scene(4, rng=6)
        assert scene.n_landmarks == 4
        with pytest.raises(ConfigurationError):
            generate_scene(3, rng=6)

    def test_landmarks_inside_bounds(self):
        scene = generate_scene(128, rng=7)
        assert inside(scene.positions).all()

    def test_descriptor_separation_exhaustive_large(self):
        scene = generate_scene(2000, rng=8)
        dist = descriptor_distances(scene.descriptors, scene.descriptors)
        np.fill_diagonal(dist, 10_000)
        assert int(dist.min()) >= MIN_DESCRIPTOR_HAMMING

    def test_default_bounds_size(self):
        # Landmarks fill the 4.2 x 2.5 x 2.5 m room from its corner at the origin.
        positions = generate_scene(400, rng=7).positions
        assert positions.min(axis=0) == pytest.approx([0.0, 0.0, 0.0], abs=0.05)
        assert positions.max(axis=0) == pytest.approx([4.2, 2.5, 2.5], abs=0.05)

    # sha256 of the positions, descriptors and intensities bytes of
    # 400-landmark scenes, pinned when descriptors were still drawn and
    # checked one candidate at a time.
    @pytest.mark.parametrize("seed,digest", [
        (0, "5f6be875d9c1f6666e1e47cd22f6bbe8e5fc8860159bf6f2a8c7ef7b4230f5ad"),
        (1, "002becf7d8c6876d511ea80fee1911e7923eb561036ebeeaec2a828ad479b3bd"),
        (12345, "19662491d289d59277371836728bac29c811fee513294901549fd7805b3c2c8c"),
    ])
    def test_pinned_bytes(self, seed, digest):
        scene = generate_scene(400, rng=seed)
        sha = hashlib.sha256()
        for array in (scene.positions, scene.descriptors, scene.intensities):
            sha.update(array.tobytes())
        assert sha.hexdigest() == digest

    def test_close_pair_redraws_the_descriptor_block(self):
        class RepeatRowOnce(np.random.Generator):
            """Copies row 0 of the first 2-D integer block into row 1."""
            blocks = 0

            def integers(self, *args, **kwargs):
                out = super().integers(*args, **kwargs)
                if out.ndim == 2:
                    if self.blocks == 0:
                        out[1] = out[0]
                    self.blocks += 1
                return out

        gen = RepeatRowOnce(np.random.PCG64(3))
        scene = generate_scene(25, rng=gen)
        assert gen.blocks == 2

        reference = np.random.Generator(np.random.PCG64(3))
        positions = reference.uniform(0.0, ROOM_SIZE_M, size=(25, 3))
        first = reference.integers(0, 256, size=(25, 32), dtype=np.uint8)
        second = reference.integers(0, 256, size=(25, 32), dtype=np.uint8)
        assert not np.array_equal(first, second)
        assert np.array_equal(scene.positions, positions)
        assert np.array_equal(scene.descriptors, second)
        assert np.array_equal(scene.intensities,
                              reference.integers(0, 256, size=25, dtype=np.uint8))
        dist = descriptor_distances(scene.descriptors, scene.descriptors)
        np.fill_diagonal(dist, 10_000)
        assert int(dist.min()) >= MIN_DESCRIPTOR_HAMMING


def bytewise_distances(a, b) -> np.ndarray:
    """Reference: XOR every byte pair and count its bits."""
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    return np.bitwise_count(a[:, None] ^ b[None]).sum(-1)


class TestDescriptorDistances:
    @pytest.mark.parametrize("width", [1, 7, 8, 32, 33])
    def test_matches_bytewise_reference(self, width):
        rng = np.random.default_rng(width)
        a = rng.integers(0, 256, (23, width), dtype=np.uint8)
        b = rng.integers(0, 256, (17, width), dtype=np.uint8)
        b[0] = ~a[0]  # one pair differing in every bit
        dist = descriptor_distances(a, b)
        assert dist.dtype == np.int32
        assert np.array_equal(dist, bytewise_distances(a, b))
        assert dist[0, 0] == 8 * width

    def test_single_row_as_scene_generation_passes_it(self):
        rng = np.random.default_rng(40)
        accepted = rng.integers(0, 256, (9, 32), dtype=np.uint8)
        candidate = rng.integers(0, 256, 32, dtype=np.uint8)
        dist = descriptor_distances(candidate[None, :], accepted)
        assert dist.shape == (1, 9)
        assert np.array_equal(dist, bytewise_distances(candidate, accepted))
        assert np.array_equal(descriptor_distances(candidate, accepted), dist)

    def test_non_contiguous_inputs(self):
        rng = np.random.default_rng(41)
        wide = rng.integers(0, 256, (30, 64), dtype=np.uint8)
        cases = [
            (wide[::2, :32], wide[1::3, 32:]),       # strided rows, offset columns
            (wide[:, ::2], wide[:12, 1::2]),         # strided columns
            (np.asfortranarray(wide[:8, :40]), wide[8:20, 24:]),
        ]
        for a, b in cases:
            assert not (a.flags.c_contiguous and b.flags.c_contiguous)
            assert np.array_equal(descriptor_distances(a, b), bytewise_distances(a, b))

    def test_row_chunks_agree_with_one_block(self):
        """More rows than one XOR chunk holds."""
        rng = np.random.default_rng(42)
        a = rng.integers(0, 256, (70, 32), dtype=np.uint8)  # 62 rows a chunk
        b = rng.integers(0, 256, (2000, 32), dtype=np.uint8)
        assert np.array_equal(descriptor_distances(a, b), bytewise_distances(a, b))

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            descriptor_distances(np.zeros((2, 32), np.uint8), np.zeros((2, 33), np.uint8))


class TestTrajectory:
    def test_two_frames_inside_bounds(self):
        traj = generate_trajectory(2, rng=9)
        assert inside(traj.positions).all()

    def test_unit_quaternions(self):
        traj = generate_trajectory(50, rng=10)
        norms = np.linalg.norm(traj.quaternions, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-9

    def test_default_run_stays_smooth(self):
        traj = generate_trajectory(100, rng=11)
        steps = np.linalg.norm(np.diff(traj.positions, axis=0), axis=1)
        assert steps.max() < 0.1
        assert inside(traj.positions).all()

    def test_timestamps_strictly_increasing(self):
        traj = generate_trajectory(20, rng=12)
        assert (np.diff(traj.timestamps) > 0).all()

    def test_deterministic(self):
        a = generate_trajectory(30, rng=13)
        b = generate_trajectory(30, rng=13)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.quaternions, b.quaternions)

    # sha256 of the positions and quaternions bytes of 100-frame trajectories,
    # pinned when the quaternions were still converted one frame at a time.
    @pytest.mark.parametrize("seed,positions,quaternions", [
        (0, "90006a5021619e73e5dd1bd03cf9e91da3500a57c2609d94035fc84312b60b14",
         "ee31db1c4084407e167399c9d9f73f9e4ae41c05e0423cc15aa073f03446e8f1"),
        (1, "2a6471cf146cb6d6e04806b76603d1330dc5933e419d655c7a90994c8f189b5c",
         "013fa0797217ab0185ae5e6fd82488f13b39f7fb1a2c397bb397b22371ff7867"),
        (12345, "26bf78d1b8599bbc28b77510f0a925909102a11b87217d3b0a9d2e71c8221869",
         "f37adc83524a7a3d68c366d182676db3b7b174b602910a94e802934e8662dbeb"),
    ])
    def test_pinned_bytes(self, seed, positions, quaternions):
        traj = generate_trajectory(100, rng=seed)
        assert hashlib.sha256(traj.positions.tobytes()).hexdigest() == positions
        assert hashlib.sha256(traj.quaternions.tobytes()).hexdigest() == quaternions

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GroundTruthTrajectory(
                timestamps=np.array([0.0, 0.0]),
                positions=np.zeros((2, 3)),
                quaternions=np.tile([0.0, 0.0, 0.0, 1.0], (2, 1)),
            )
        with pytest.raises(ConfigurationError):
            GroundTruthTrajectory(
                timestamps=np.array([0.0, 1.0]),
                positions=np.zeros((2, 3)),
                quaternions=np.tile([0.0, 0.0, 0.0, 2.0], (2, 1)),
            )


class TestObserve:
    def test_on_axis_landmark(self, camera):
        scene = axis_scene()
        feats = observe(scene, camera, np.zeros(3), IDENTITY_QUAT)
        on_axis = feats[landmark_ids(scene, feats) == 0]
        assert len(on_axis) == 1
        assert on_axis["u"][0] == pytest.approx(camera.cx)
        assert on_axis["v"][0] == pytest.approx(camera.cy)
        assert on_axis["depth"][0] == pytest.approx(1.0)

    def test_landmark_behind_camera_excluded(self, camera):
        scene = axis_scene(extra_landmarks=[[0.0, 0.0, -2.0]])
        feats = observe(scene, camera, np.zeros(3), IDENTITY_QUAT)
        assert (landmark_ids(scene, feats) != 4).all()

    def test_landmark_beyond_depth_range_excluded(self, camera):
        scene = axis_scene(extra_landmarks=[[0.0, 0.0, 20.0], [0.0, 0.0, 0.1]])
        feats = observe(scene, camera, np.zeros(3), IDENTITY_QUAT)
        ids = set(landmark_ids(scene, feats).tolist())
        assert 4 not in ids and 5 not in ids

    def test_descriptor_and_intensity_copied(self, camera):
        scene = axis_scene()
        feats = observe(scene, camera, np.zeros(3), IDENTITY_QUAT)
        ids = landmark_ids(scene, feats)
        assert (ids >= 0).all()
        assert np.array_equal(feats["descriptor"], scene.descriptors[ids])
        assert np.array_equal(feats["intensity"], scene.intensities[ids])

    def test_valid_flag_set(self, camera):
        feats = observe(axis_scene(), camera, np.zeros(3), IDENTITY_QUAT)
        assert len(feats) == 4
        assert (feats["valid"] == 1).all()

    def test_max_features_prefers_center(self, camera):
        # More landmarks in view than a frame keeps: the on-axis one comes first.
        rng = np.random.default_rng(19)
        n_extra = MAX_FEATURES_PER_FRAME + 100
        extra = np.column_stack([rng.uniform(-1.0, 1.0, n_extra),
                                 rng.uniform(-0.8, 0.8, n_extra),
                                 rng.uniform(2.0, 5.0, n_extra)])
        positions = np.vstack([[0.0, 0.0, 1.0], extra])
        scene = Scene(positions=positions,
                      descriptors=rng.integers(0, 256, (n_extra + 1, 32), dtype=np.uint8),
                      intensities=rng.integers(0, 256, n_extra + 1, dtype=np.uint8))
        feats = observe(scene, camera, np.zeros(3), IDENTITY_QUAT)
        assert len(feats) == MAX_FEATURES_PER_FRAME
        assert landmark_ids(scene, feats)[0] == 0  # on the optical axis

    def test_default_scene_always_has_enough_features(self, camera):
        scene = generate_scene(400, rng=15)
        traj = generate_trajectory(100, rng=16)
        counts = [len(observe(scene, camera, traj.positions[i], traj.quaternions[i]))
                  for i in range(traj.n_frames)]
        assert min(counts) >= 4

    def test_pixels_are_float32_exact(self, camera):
        scene = generate_scene(100, rng=17)
        traj = generate_trajectory(5, rng=18)
        feats = observe(scene, camera, traj.positions[0], traj.quaternions[0])
        assert feats.dtype["u"] == np.float32 and feats.dtype["v"] == np.float32
