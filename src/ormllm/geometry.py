"""Pinhole camera model and depth back-projection.

Conventions: pixel (u, v) addresses the pixel center at integer
coordinates, u along width and v along height; intrinsics are skew-free;
the camera frame is x right, y down, z forward; a pose maps camera-frame
points into world coordinates (p_world = R p_cam + t). Depth is the
camera-frame z coordinate, and 0 is the sentinel for pixels with no
geometry, which are excluded from the valid domain.

Back-projection takes a whole depth map or the depths at a given set of
pixels; the model's point path passes the predicted depth on a fixed
raster of pixels only, the pixels the point encoder reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ConfigurationError(
                f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}"
            )


@dataclass(frozen=True)
class CameraPose:
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64)
        if r.shape != (3, 3) or t.shape != (3,):
            raise ConfigurationError("pose needs a 3x3 rotation and a 3-vector")
        if not np.allclose(r.T @ r, np.eye(3), atol=1e-9):
            raise ConfigurationError("rotation is not orthonormal within 1e-9")
        if abs(np.linalg.det(r) - 1.0) > 1e-9:
            raise ConfigurationError("rotation determinant is not +1 within 1e-9")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "CameraPose":
        return CameraPose(np.eye(3), np.zeros(3))


@dataclass
class DepthMap:
    values: np.ndarray  # [H, W], meters; 0 marks invalid pixels

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ConfigurationError(f"depth map must be 2-d, got shape {v.shape}")
        if not np.isfinite(v).all() or (v < 0).any():
            raise DomainError("depth values must be finite and non-negative")
        self.values = v

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def valid_mask(self) -> np.ndarray:
        return self.values > 0


@dataclass
class PointCloud:
    points: np.ndarray         # [N, 3] world meters
    source_pixels: np.ndarray  # [N, 2] integer (u, v)

    def __post_init__(self):
        p = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        s = np.asarray(self.source_pixels, dtype=np.int64).reshape(-1, 2)
        if len(p) != len(s):
            raise ConfigurationError("points and source_pixels lengths differ")
        self.points = p
        self.source_pixels = s

    def __len__(self) -> int:
        return len(self.points)


def back_project_pixel(u: float, v: float, depth: float, K: CameraIntrinsics,
                       pose: CameraPose) -> np.ndarray:
    """Lift one pixel with known depth into a world-frame 3-vector."""
    if depth <= 0:
        raise DomainError(f"depth must be positive, got {depth}")
    p_cam = np.array([
        (u - K.cx) / K.fx * depth,
        (v - K.cy) / K.fy * depth,
        depth,
    ])
    return pose.rotation @ p_cam + pose.translation


def reconstruct_point_cloud(depth, K: CameraIntrinsics, pose: CameraPose,
                            pixels: np.ndarray | None = None) -> PointCloud:
    """Back-project every valid pixel of a DepthMap, in raster (row-major)
    order. With `pixels` ([P, 2] integer (u, v)), `depth` holds the depths
    [P] at those pixels instead, checked as a DepthMap's are, and their
    valid (positive) ones are back-projected in the given order."""
    if pixels is None:
        vv, uu = np.nonzero(depth.valid_mask)
        d = depth.values[vv, uu]
    else:
        d = np.asarray(depth, dtype=np.float64)
        if not np.isfinite(d).all() or (d < 0).any():
            raise DomainError("depth values must be finite and non-negative")
        keep = d > 0
        uu, vv = np.asarray(pixels, dtype=np.int64)[keep].T
        d = d[keep]
    x = (uu - K.cx) / K.fx * d
    y = (vv - K.cy) / K.fy * d
    cam = np.stack([x, y, d], axis=1)
    world = cam @ pose.rotation.T + pose.translation
    return PointCloud(points=world, source_pixels=np.stack([uu, vv], axis=1))
