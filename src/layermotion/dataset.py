"""On-disk dataset: frames, masks, pseudo-labels, cameras.

Disk layout under a dataset directory:

    frames/frame_0000.ppm      RGB frames (P6)
    masks/dyn_0000.pgm         binary dynamic ground truth (255 = foreground)
    masks/ss_0000.pgm          binary semi-static ground truth
    pseudo/pseudo_0000.pgm     soft pseudo-labels, linear 0-255
    cameras.csv                trajectory (see geometry.save_cameras)
    meta.json                  scene name, sizes, world box, eval protocol
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import imgio
from .errors import DataError, MissingArtifactError
from .fields import FieldConfig, FrustumSpec, check_world_box, is_int
from .geometry import CameraPose, camera_rays, load_cameras, save_cameras
from .losses import RayBatch
from .renderer import sample_depths
from .scenegen import GroundTruth, SceneConfig, SceneSpec


# Each frame's files, in write order: (Dataset field, path under the dataset
# root). The suffix picks the codec; masks are written as 0/1 images.
_FRAME_FILES = (
    ("rgb", "frames/frame_{t:04d}.ppm"),
    ("mask_dyn", "masks/dyn_{t:04d}.pgm"),
    ("mask_ss", "masks/ss_{t:04d}.pgm"),
    ("pseudo", "pseudo/pseudo_{t:04d}.pgm"),
)


@dataclass
class Dataset:
    rgb: np.ndarray  # (T, H, W, 3)
    mask_dyn: np.ndarray  # (T, H, W) bool
    mask_ss: np.ndarray  # (T, H, W) bool
    pseudo: np.ndarray  # (T, H, W) soft labels
    poses: list[CameraPose]  # poses[t] is the camera of frame t
    meta: dict

    def __post_init__(self):
        t, h, w, _ = self.rgb.shape
        if len(self.poses) != t:
            raise DataError("camera count does not match frame count")
        # field_config() builds the dynamic frustum from one set of intrinsics.
        intrinsics = [(p.fx, p.fy, p.cx, p.cy) for p in self.poses]
        for i, k in enumerate(intrinsics):
            if k != intrinsics[0]:
                raise DataError(f"camera {i} intrinsics {k} differ from camera 0's {intrinsics[0]}")
        self._rays = None

    @property
    def n_frames(self) -> int:
        return self.rgb.shape[0]

    @property
    def height(self) -> int:
        return self.rgb.shape[1]

    @property
    def width(self) -> int:
        return self.rgb.shape[2]

    @property
    def n_pixels(self) -> int:
        return self.n_frames * self.height * self.width

    @property
    def eval_frames(self) -> tuple[int, ...]:
        return tuple(self.meta["eval_frames"])

    def _ray_tables(self):
        """Per-frame ray geometry, built once: nu, origins, near/far, poses."""
        if self._rays is None:
            t, h, w = self.n_frames, self.height, self.width
            lo, hi = self.meta["world_lo"], self.meta["world_hi"]
            nu = np.empty((t, h * w, 3))
            near = np.empty((t, h * w))
            far = np.empty((t, h * w))
            origins = np.empty((t, 3))
            rot = np.empty((t, 3, 3))
            trans = np.empty((t, 3))
            for i, pose in enumerate(self.poses):
                origins[i], nu[i], near[i], far[i] = camera_rays(pose, w, h, lo, hi)
                rot[i] = pose.rotation
                trans[i] = pose.translation
            self._rays = (nu, near, far, origins, rot, trans)
        return self._rays

    def pixel_ids_for_frames(self, frames) -> np.ndarray:
        per = self.height * self.width
        return np.concatenate(
            [np.arange(per, dtype=np.int64) + int(t) * per for t in frames]
        )

    def ray_batch(
        self, pixel_ids, n_samples: int, stratified: bool = False, seed=0
    ) -> RayBatch:
        """Assemble a supervision batch for flat pixel ids over (T, H, W)."""
        nu, near, far, origins, rot, trans = self._ray_tables()
        ids = np.asarray(pixel_ids, dtype=np.int64)
        per = self.height * self.width
        t_idx = ids // per
        pix = ids % per
        depths, deltas = sample_depths(
            near[t_idx, pix], far[t_idx, pix], n_samples, stratified, seed
        )
        flat_rgb = self.rgb.reshape(self.n_frames, per, 3)
        return RayBatch(
            origins=origins[t_idx],
            nus=nu[t_idx, pix],
            rot=rot[t_idx],
            trans=trans[t_idx],
            t_idx=t_idx,
            depths=depths,
            deltas=deltas,
            target_rgb=flat_rgb[t_idx, pix],
            mask_values=self.pseudo.reshape(self.n_frames, per)[t_idx, pix],
        )

    def field_config(self) -> FieldConfig:
        p0 = self.poses[0]
        frustum = FrustumSpec(
            fx=p0.fx, fy=p0.fy, cx=p0.cx, cy=p0.cy, width=self.width, height=self.height
        )
        return FieldConfig(
            n_frames=self.n_frames,
            frustum=frustum,
            world_lo=tuple(self.meta["world_lo"]),
            world_hi=tuple(self.meta["world_hi"]),
        )


def _meta(scene: SceneSpec, config: SceneConfig) -> dict:
    """The meta.json fields: scene name, sizes, world box, eval protocol."""
    return {
        "name": config.name,
        "seed": config.seed,
        "n_frames": scene.n_frames,
        "height": scene.height,
        "width": scene.width,
        "world_lo": list(scene.world_lo),
        "world_hi": list(scene.world_hi),
        "eval_frames": list(config.eval_frames()),
        "recall": config.recall,
        "fpr": config.fpr,
    }


def write_dataset(
    root,
    scene: SceneSpec,
    gt: GroundTruth,
    pseudo: np.ndarray,
    config: SceneConfig,
) -> dict[Path, str]:
    """Write the full dataset tree; returns {path: SHA-256} in write order."""
    root = Path(root)
    images = {
        "rgb": gt.rgb,
        "mask_dyn": gt.mask_dyn.astype(np.float64),
        "mask_ss": gt.mask_ss.astype(np.float64),
        "pseudo": pseudo,
    }
    written: dict[Path, str] = {}
    for t in range(scene.n_frames):
        for key, name in _FRAME_FILES:
            path = root / name.format(t=t)
            write = imgio.write_ppm if path.suffix == ".ppm" else imgio.write_pgm
            written[path] = write(path, images[key][t])
    written[root / "cameras.csv"] = save_cameras(root / "cameras.csv", scene.cameras)
    meta = json.dumps(_meta(scene, config), indent=1, sort_keys=True).encode("utf-8")
    written[root / "meta.json"] = imgio.write_bytes(root / "meta.json", meta)
    return written


def _read_meta(path: Path) -> dict:
    """meta.json, checked for every key that loading and ray building read."""
    if not path.exists():
        raise MissingArtifactError(f"dataset meta not found: {path}")
    meta = imgio.read_json(path)
    t_total = meta.get("n_frames")
    if not is_int(t_total) or t_total < 1:
        raise DataError(f"{path}: n_frames must be a positive integer, got {t_total!r}")
    check_world_box(meta.get("world_lo"), meta.get("world_hi"), str(path))
    frames = meta.get("eval_frames")
    if not (isinstance(frames, list) and all(is_int(t) and 0 <= t < t_total for t in frames)):
        raise DataError(f"{path}: eval_frames must be frame indices in [0, {t_total}), got {frames!r}")
    if not frames or len(set(frames)) < len(frames):
        raise DataError(f"{path}: eval_frames must be non-empty and name each frame once, got {frames}")
    return meta


def load_dataset(root) -> Dataset:
    """Read a dataset tree; malformed files raise DataError, absent ones MissingArtifactError."""
    root = Path(root)
    meta = _read_meta(root / "meta.json")
    images: dict[str, list] = {key: [] for key, _ in _FRAME_FILES}
    shape = None  # (H, W) of the first frame; every image must match it
    for t in range(meta["n_frames"]):
        for key, name in _FRAME_FILES:
            path = root / name.format(t=t)
            if not path.exists():
                raise MissingArtifactError(f"dataset file not found: {path}")
            img = imgio.read_ppm(path) if path.suffix == ".ppm" else imgio.read_pgm(path)
            shape = shape or img.shape[:2]
            if img.shape[:2] != shape:
                raise DataError(
                    f"{path}: image is {img.shape[1]}x{img.shape[0]}, "
                    f"the first frame is {shape[1]}x{shape[0]}"
                )
            images[key].append(img)
    poses = load_cameras(root / "cameras.csv")
    return Dataset(
        rgb=np.stack(images["rgb"]),
        mask_dyn=np.stack(images["mask_dyn"]) >= 0.5,
        mask_ss=np.stack(images["mask_ss"]) >= 0.5,
        pseudo=np.stack(images["pseudo"]),
        poses=poses,
        meta=meta,
    )
