"""Cameras, rays, and the world/camera coordinate transform.

Conventions, fixed once and asserted by round-trip tests:
  * world -> camera is x_cam = R @ x + t; the camera looks down -z in its
    own frame.
  * a ray is the curve x(tau) = origin - nu * tau with tau >= 0, so `nu`
    points opposite the viewing direction and marching forward along the
    ray means subtracting.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import imgio
from .errors import DataError, DomainError

ORTHO_TOL = 1e-9
# Clipped rays start at least NEAR_EPS past the origin and span at least MIN_SPAN.
NEAR_EPS = 1e-4
MIN_SPAN = 1e-3


def _as_vec3(x) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.shape != (3,):
        raise DomainError(f"expected a 3-vector, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class CameraPose:
    """World-to-camera rigid transform plus pinhole intrinsics for one frame."""

    rotation: np.ndarray  # (3, 3), world -> camera
    translation: np.ndarray  # (3,)
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = _as_vec3(self.translation)
        if r.shape != (3, 3):
            raise DomainError(f"rotation must be 3x3, got {r.shape}")
        if np.max(np.abs(r.T @ r - np.eye(3))) > ORTHO_TOL:
            raise DomainError("rotation is not orthonormal within 1e-9")
        if abs(np.linalg.det(r) - 1.0) > ORTHO_TOL:
            raise DomainError("rotation determinant is not +1 within 1e-9")
        r.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @property
    def center(self) -> np.ndarray:
        """Camera center in world coordinates (point mapping to the origin)."""
        return -self.rotation.T @ self.translation


def world_to_camera(pose: CameraPose, x) -> np.ndarray:
    """Map world point(s) x (..., 3) into camera coordinates."""
    x = np.asarray(x, dtype=np.float64)
    return x @ pose.rotation.T + pose.translation


def pixel_directions(pose: CameraPose, ux, uy) -> np.ndarray:
    """Unit world-frame viewing directions through pixel coordinates (ux, uy).

    `ux` and `uy` are arrays of one shape (...); returns (..., 3). The
    directions point away from the camera, the sense in which a ray marches.
    """
    ux = np.asarray(ux, dtype=np.float64)
    uy = np.asarray(uy, dtype=np.float64)
    d = np.stack(
        [(ux - pose.cx) / pose.fx, (uy - pose.cy) / pose.fy, -np.ones_like(ux)], axis=-1
    )
    d = d @ pose.rotation  # rows of R are camera axes: R^T @ d per pixel
    return d / np.linalg.norm(d, axis=-1, keepdims=True)


def slab_interval(origins, march, lo, hi):
    """(enter, exit) distances of rays origins + march * tau through the box [lo, hi].

    Broadcasts over leading axes and reduces the last (xyz) axis. A ray
    parallel to a slab is unconstrained by it when its origin lies within
    the slab and misses otherwise; a missed box gives exit < enter.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        # 0 * inf on an axis-parallel slab is nan; the where below drops it.
        inv = 1.0 / march
        t0 = (lo - origins) * inv
        t1 = (hi - origins) * inv
    on_axis = march == 0.0
    inside = (origins >= lo) & (origins <= hi)
    t_lo = np.where(on_axis, np.where(inside, -np.inf, np.inf), np.minimum(t0, t1))
    t_hi = np.where(on_axis, np.where(inside, np.inf, -np.inf), np.maximum(t0, t1))
    return t_lo.max(axis=-1), t_hi.min(axis=-1)


def ray_through_pixel(pose: CameraPose, pixel: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Origin and direction nu of the ray through pixel (u_x, u_y), as `camera_rays` gives them."""
    return pose.center, -pixel_directions(pose, float(pixel[0]), float(pixel[1]))


def clip_to_box(origin, nu, lo, hi):
    """(t_near, t_far) of rays origin - nu * tau clipped to the box [lo, hi].

    Broadcasts like :func:`slab_interval`. A ray that misses the box gets
    a span too, so a frame renders every pixel; one parallel to a slab it
    lies outside enters at infinity, so its span starts at NEAR_EPS.
    """
    enter, exit_ = slab_interval(origin, -nu, lo, hi)
    t_near = np.maximum(np.where(np.isfinite(enter), enter, NEAR_EPS), NEAR_EPS)
    return t_near, np.maximum(exit_, t_near + MIN_SPAN)


def camera_rays(pose: CameraPose, width: int, height: int, world_lo, world_hi):
    """Per-pixel ray origin, directions nu, and box-clipped (t_near, t_far).

    Directions follow the marching convention point = origin - nu * depth.
    Flattened row-major over pixels: index iy * width + ix.
    """
    uy, ux = np.mgrid[0:height, 0:width].astype(np.float64)
    nu = -pixel_directions(pose, ux, uy).reshape(-1, 3)
    origin = pose.center
    return (origin, nu) + clip_to_box(origin, nu, world_lo, world_hi)


def look_at(position, target, **intrinsics) -> CameraPose:
    """Pose at `position` viewing `target`, with the image up-axis near world +z."""
    position = _as_vec3(position)
    target = _as_vec3(target)
    up = np.array([0.0, 0.0, 1.0])
    fwd = target - position
    n = np.linalg.norm(fwd)
    if n < 1e-12:
        raise DomainError("look_at target coincides with camera position")
    fwd = fwd / n
    right = np.cross(fwd, up)
    rn = np.linalg.norm(right)
    if rn < 1e-12:
        raise DomainError("viewing direction is parallel to the z axis")
    right /= rn
    true_up = np.cross(right, fwd)
    # Rows of R are the camera axes expressed in world coordinates: x right,
    # y up, z backward (the camera views along -z).
    r = np.stack([right, true_up, -fwd])
    return CameraPose(rotation=r, translation=-r @ position, **intrinsics)


_CSV_HEADER = (
    ["t"]
    + [f"r{i}{j}" for i in range(3) for j in range(3)]
    + ["tx", "ty", "tz", "fx", "fy", "cx", "cy"]
)


def save_cameras(path, poses: Iterable[CameraPose]) -> str:
    """Write a camera trajectory CSV (t, row-major rotation, translation, intrinsics); returns its SHA-256.

    Row t is the camera of frame t; the t column holds that position.
    """
    rows = [_CSV_HEADER] + [
        [t]
        + [f"{v:.17g}" for v in p.rotation.ravel()]
        + [f"{v:.17g}" for v in p.translation]
        + [f"{v:.17g}" for v in (p.fx, p.fy, p.cx, p.cy)]
        for t, p in enumerate(poses)
    ]
    return imgio.write_bytes(path, imgio.encode_csv(rows))


def load_cameras(path) -> list[CameraPose]:
    """Read a trajectory written by `save_cameras`; a malformed row raises DataError.

    So does a row whose t is not its position: the position alone is the
    frame index, and the t column must agree with it.
    """
    data = imgio.read_bytes(path)
    try:
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
    except (UnicodeDecodeError, csv.Error) as e:
        raise DataError(f"{path}: unreadable camera CSV: {e}") from e
    if not rows or rows[0] != _CSV_HEADER:
        raise DataError(f"unexpected camera CSV header in {path}")
    poses = []
    for n, row in enumerate(rows[1:], start=1):
        if not row:
            continue
        if len(row) != len(_CSV_HEADER):
            raise DataError(f"{path}: row {n} has {len(row)} fields, expected {len(_CSV_HEADER)}")
        try:
            vals = [float(v) for v in row]
            if not all(math.isfinite(v) for v in vals):
                raise DomainError("non-finite value")
            if vals[0] != len(poses):
                raise DomainError(f"t is {row[0]}, expected {len(poses)} (row order is frame order)")
            poses.append(
                CameraPose(
                    rotation=np.array(vals[1:10]).reshape(3, 3),
                    translation=np.array(vals[10:13]),
                    fx=vals[13],
                    fy=vals[14],
                    cx=vals[15],
                    cy=vals[16],
                )
            )
        except (ValueError, DomainError) as e:
            raise DataError(f"{path}: row {n}: {e}") from e
    return poses
