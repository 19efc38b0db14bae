import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ormllm.errors import ConfigurationError, DomainError
from ormllm.geometry import CameraIntrinsics, CameraPose, reconstruct_point_cloud


def back_project_pixel(u, v, depth, K, pose):
    """Oracle: one pixel with known depth lifted into a world-frame
    3-vector."""
    p_cam = np.array([(u - K.cx) / K.fx * depth, (v - K.cy) / K.fy * depth, depth])
    return pose.rotation @ p_cam + pose.translation


def project_point(p, K, pose):
    """Oracle: the algebraic inverse of back_project_pixel, world point to
    (u, v, depth)."""
    cam = pose.rotation.T @ (np.asarray(p, dtype=np.float64) - pose.translation)
    z = cam[2]
    if z <= 0:
        raise DomainError(f"point has camera-frame z={z}, not in front of camera")
    return float(cam[0] / z * K.fx + K.cx), float(cam[1] / z * K.fy + K.cy), float(z)


def reconstruct_map(values, K, pose):
    """The cloud of a whole depth map [H, W]: reconstruct_point_cloud at
    every pixel, in raster (row-major) order."""
    H, W = values.shape
    vv, uu = np.divmod(np.arange(H * W), W)
    return reconstruct_point_cloud(values.reshape(-1), K, pose,
                                   np.stack([uu, vv], axis=1))


def lift(u, v, depth, K, pose):
    """One pixel's world point through reconstruct_point_cloud."""
    (p,) = reconstruct_point_cloud(np.array([depth]), K, pose, np.array([[u, v]]))
    return p


UNIT_K = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0)
IDENTITY = CameraPose(np.eye(3), np.zeros(3))


def random_pose(rng) -> CameraPose:
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    rot = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
    return CameraPose(rot, rng.normal(size=3) * 3.0)


def test_principal_ray():
    np.testing.assert_allclose(
        lift(0, 0, 2.0, UNIT_K, IDENTITY), [0.0, 0.0, 2.0]
    )


def test_hand_case_unit_intrinsics():
    # ((2-0)/1*3, (1-0)/1*3, 3)
    np.testing.assert_allclose(
        lift(2, 1, 3.0, UNIT_K, IDENTITY), [6.0, 3.0, 3.0]
    )


def test_hand_case_offset_intrinsics_and_translation():
    K = CameraIntrinsics(fx=2.0, fy=2.0, cx=1.0, cy=1.0)
    pose = CameraPose(np.eye(3), np.array([1.0, 0.0, 0.0]))
    # ((3-1)/2*4+1, (1-1)/2*4, 4)
    np.testing.assert_allclose(
        lift(3, 1, 4.0, K, pose), [5.0, 0.0, 4.0]
    )


def test_nonpositive_depth_rejected():
    # 0 marks a pixel with no geometry: it is skipped, not lifted.
    pixel = np.array([[0, 0]])
    points = reconstruct_point_cloud(np.array([0.0]), UNIT_K, IDENTITY, pixel)
    assert points.shape == (0, 3)
    with pytest.raises(DomainError):
        reconstruct_point_cloud(np.array([-1.0]), UNIT_K, IDENTITY, pixel)


def test_project_principal_point():
    assert project_point(np.array([0.0, 0.0, 2.0]), UNIT_K, IDENTITY) == (0.0, 0.0, 2.0)


def test_behind_camera_error():
    with pytest.raises(DomainError):
        project_point(np.array([0.0, 0.0, -1.0]), UNIT_K, IDENTITY)


def test_round_trip_random_cameras():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        pose = random_pose(rng)
        K = CameraIntrinsics(
            fx=rng.uniform(0.5, 100.0),
            fy=rng.uniform(0.5, 100.0),
            cx=rng.uniform(-20, 20),
            cy=rng.uniform(-20, 20),
        )
        u, v = rng.integers(-50, 50, size=2)
        d = rng.uniform(0.1, 20.0)
        u2, v2, d2 = project_point(lift(u, v, d, K, pose), K, pose)
        assert abs(u2 - u) < 1e-9 and abs(v2 - v) < 1e-9 and abs(d2 - d) < 1e-9


@settings(max_examples=50, deadline=None)
@given(
    u=st.integers(-30, 30),
    v=st.integers(-30, 30),
    d=st.floats(0.1, 20.0),
    seed=st.integers(0, 10_000),
)
def test_round_trip_property(u, v, d, seed):
    rng = np.random.default_rng(seed)
    pose = random_pose(rng)
    K = CameraIntrinsics(fx=rng.uniform(0.5, 50), fy=rng.uniform(0.5, 50),
                         cx=rng.uniform(-5, 5), cy=rng.uniform(-5, 5))
    u2, v2, d2 = project_point(lift(u, v, d, K, pose), K, pose)
    assert abs(u2 - u) < 1e-9 and abs(v2 - v) < 1e-9 and abs(d2 - d) < 1e-9


def test_world_frame_consistency():
    rng = np.random.default_rng(1)
    pose = random_pose(rng)
    for _ in range(100):
        u, v = rng.integers(-10, 10, size=2)
        d = rng.uniform(0.1, 20.0)
        p_world = lift(u, v, d, UNIT_K, pose)
        p_cam = pose.rotation.T @ (p_world - pose.translation)
        p_identity = lift(u, v, d, UNIT_K, IDENTITY)
        np.testing.assert_allclose(p_cam, p_identity, atol=1e-9)


def test_reconstruct_2x2_hand_case():
    points = reconstruct_map(np.ones((2, 2)), UNIT_K, IDENTITY)
    np.testing.assert_array_equal(points, [[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]])


def test_reconstruct_skips_sentinels():
    values = np.array([[1.0, 0.0], [0.0, 2.0]])
    points = reconstruct_map(values, UNIT_K, IDENTITY)
    np.testing.assert_array_equal(points, [[0, 0, 1], [2, 2, 2]])


def test_all_sentinels_empty_cloud():
    points = reconstruct_map(np.zeros((3, 3)), UNIT_K, IDENTITY)
    assert points.shape == (0, 3)


def test_point_count_equals_valid_pixels():
    rng = np.random.default_rng(2)
    values = rng.uniform(0.0, 5.0, size=(8, 8))
    values[values < 2.0] = 0.0
    points = reconstruct_map(values, UNIT_K, IDENTITY)
    assert len(points) == int((values > 0).sum())


def test_reconstruct_matches_pixel_oracle_under_random_cameras():
    rng = np.random.default_rng(3)
    values = rng.uniform(0.0, 5.0, size=(6, 7))
    values[values < 1.0] = 0.0
    pose = random_pose(rng)
    K = CameraIntrinsics(fx=30.0, fy=25.0, cx=3.0, cy=2.5)
    points = reconstruct_map(values, K, pose)
    vv, uu = np.nonzero(values)
    want = [back_project_pixel(u, v, values[v, u], K, pose) for u, v in zip(uu, vv)]
    np.testing.assert_allclose(points, want, rtol=0, atol=1e-12)


def test_reconstruct_at_pixels_hand_case():
    # Depths given at (u, v) pixels, in that order; the zero one is skipped.
    pixels = np.array([[1, 1], [0, 0], [1, 0]])
    points = reconstruct_point_cloud(np.array([2.0, 0.0, 1.0]), UNIT_K, IDENTITY,
                                     pixels)
    np.testing.assert_array_equal(points, [[2, 2, 2], [1, 0, 1]])


@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
def test_reconstruct_at_pixels_rejects_bad_depth(bad):
    with pytest.raises(DomainError):
        reconstruct_point_cloud(np.array([1.0, bad]), UNIT_K, IDENTITY,
                                np.array([[0, 0], [1, 0]]))


def test_invalid_rotation_rejected():
    with pytest.raises(ConfigurationError):
        CameraPose(np.eye(3) * 2.0, np.zeros(3))
    reflect = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ConfigurationError):
        CameraPose(reflect, np.zeros(3))

