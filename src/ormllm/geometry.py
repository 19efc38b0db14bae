"""Pinhole camera model and depth back-projection.

Conventions: pixel (u, v) addresses the pixel center at integer
coordinates, u along width and v along height; intrinsics are skew-free;
the camera frame is x right, y down, z forward; a pose maps camera-frame
points into world coordinates (p_world = R p_cam + t). Depth is the
camera-frame z coordinate, and 0 is the sentinel for pixels with no
geometry, which are excluded from the valid domain.

Back-projection takes the depths at a given set of pixels; the model's
point path passes the predicted depth on a fixed raster of pixels, the
pixels the point encoder reads.
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


def reconstruct_point_cloud(depth, K: CameraIntrinsics, pose: CameraPose,
                            pixels: np.ndarray) -> np.ndarray:
    """World points [N, 3] of the valid (positive) depths [P] at `pixels`
    ([P, 2] integer (u, v)), in the given order. Depths must be finite and
    non-negative; 0 marks a pixel with no geometry."""
    d = np.asarray(depth, dtype=np.float64)
    if not np.isfinite(d).all() or (d < 0).any():
        raise DomainError("depth values must be finite and non-negative")
    keep = d > 0
    uu, vv = np.asarray(pixels, dtype=np.int64)[keep].T
    d = d[keep]
    x = (uu - K.cx) / K.fx * d
    y = (vv - K.cy) / K.fy * d
    cam = np.stack([x, y, d], axis=1)
    return cam @ pose.rotation.T + pose.translation
