"""Procedural dynamic scenes with analytic ground truth.

A scene is a closed textured room plus three object categories:

  * static     -- fixed world-frame primitives,
  * semi_static -- world-frame primitives that relocate once at frame t_star,
  * dynamic    -- primitives pinned to the camera frame (they follow the
                  observer exactly, like a hand-held object).

Ground truth is rendered by exact ray/primitive intersection: the front-most
surface per pixel decides color and category, so the masks are exact. The
field baker fills every grid from one point query over the same primitives.
Pseudo-masks emulate a 2D motion-segmentation model with an
incomplete-but-precise error profile: high-confidence interiors, eroded
low-confidence boundaries, random dropout, and a few small false-positive
blobs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DomainError
from .geometry import CameraPose, look_at, pixel_directions, slab_interval

STATIC = "static"
SEMI_STATIC = "semi_static"
DYNAMIC = "dynamic"
_CATEGORIES = (STATIC, SEMI_STATIC, DYNAMIC)


# ---------------------------------------------------------------------------
# Primitives and textures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColorRamp:
    """Volumetric color: clip(base + gain @ (x - ref) + checker term, 0, 1).

    Defined on points rather than surfaces so the same function serves both
    surface shading and field baking.
    """

    base: tuple[float, float, float]
    gain: tuple[float, ...] = (0.0,) * 9  # row-major 3x3
    ref: tuple[float, float, float] = (0.0, 0.0, 0.0)
    checker_amp: float = 0.0
    checker_cell: float = 0.5

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        g = np.asarray(self.gain, dtype=np.float64).reshape(3, 3)
        c = np.asarray(self.base) + (x - np.asarray(self.ref)) @ g.T
        if self.checker_amp != 0.0:
            cells = np.floor(x / self.checker_cell).sum(axis=-1)
            c = c + self.checker_amp * (2.0 * np.mod(cells, 2.0) - 1.0)[..., None]
        return np.clip(c, 0.0, 1.0)


_HIT_EPS = 1e-9  # hits closer than this to the ray origin do not count


def _box_gap(pts, lo, hi) -> np.ndarray:
    """Euclidean distance from points to the closed box [lo, hi], 0 inside it."""
    gap = np.maximum(np.maximum(lo - pts, pts - hi), 0.0)
    return np.linalg.norm(gap, axis=-1)


@dataclass(frozen=True)
class Sphere:
    center: tuple[float, float, float]
    radius: float

    def hit(self, origins, dirs, offset) -> np.ndarray:
        oc = origins - (np.asarray(self.center) + offset)
        b = np.einsum("...i,...i->...", oc, dirs)
        c = np.einsum("...i,...i->...", oc, oc) - self.radius * self.radius
        disc = b * b - c
        hit = disc >= 0.0
        sq = np.sqrt(np.where(hit, disc, 0.0))
        t0 = -b - sq
        t1 = -b + sq
        t = np.where(t0 > _HIT_EPS, t0, np.where(t1 > _HIT_EPS, t1, np.inf))
        return np.where(hit, t, np.inf)

    def distance(self, pts) -> np.ndarray:
        gap = np.linalg.norm(pts - np.asarray(self.center), axis=-1) - self.radius
        return np.maximum(gap, 0.0)


@dataclass(frozen=True)
class Box:
    lo: tuple[float, float, float]
    hi: tuple[float, float, float]

    def hit(self, origins, dirs, offset) -> np.ndarray:
        lo, hi = np.asarray(self.lo) + offset, np.asarray(self.hi) + offset
        enter, exit_ = slab_interval(origins, dirs, lo, hi)
        ok = (exit_ >= enter) & (exit_ > _HIT_EPS)
        return np.where(ok, np.where(enter > _HIT_EPS, enter, exit_), np.inf)

    def distance(self, pts) -> np.ndarray:
        return _box_gap(pts, np.asarray(self.lo), np.asarray(self.hi))


@dataclass(frozen=True)
class RoomShell:
    """Hollow box; wall material fills the gap between inner and outer faces."""

    lo: tuple[float, float, float]  # inner cavity
    hi: tuple[float, float, float]
    thickness: float = 0.2

    def hit(self, origins, dirs, offset) -> np.ndarray:
        # Cameras live inside the cavity; the visible surface is the cavity exit.
        lo, hi = np.asarray(self.lo) + offset, np.asarray(self.hi) + offset
        _, exit_ = slab_interval(origins, dirs, lo, hi)
        return np.where(np.isfinite(exit_) & (exit_ > _HIT_EPS), exit_, np.inf)

    def distance(self, pts) -> np.ndarray:
        """To the nearest inner face from the open cavity, to the outer box beyond it."""
        lo, hi = np.asarray(self.lo), np.asarray(self.hi)
        in_cavity = np.all((pts > lo) & (pts < hi), axis=-1)
        face_gap = np.minimum(pts - lo, hi - pts).min(axis=-1)
        outer = _box_gap(pts, lo - self.thickness, hi + self.thickness)
        return np.where(in_cavity, face_gap, outer)


# Every primitive answers two queries. `hit(origins, dirs, offset)` is the
# first hit distance per ray beyond _HIT_EPS (inf where missed), with the
# primitive moved by `offset`. `distance(pts)` is the distance from points,
# given in the primitive's own frame, to its material: 0 exactly on it.
Primitive = Sphere | Box | RoomShell


@dataclass(frozen=True)
class SceneObject:
    """A primitive with a category, a texture, and (for semi-static) a schedule.

    Coordinates are world-frame for static/semi-static objects and
    camera-frame for dynamic ones. A semi-static object sits at
    `offset_a` for t < t_star and at `offset_b` afterwards.
    """

    primitive: Primitive
    color: ColorRamp
    category: str
    offset_a: tuple[float, float, float] = (0.0, 0.0, 0.0)
    offset_b: tuple[float, float, float] = (0.0, 0.0, 0.0)
    t_star: int = 0

    def __post_init__(self):
        if self.category not in _CATEGORIES:
            raise ConfigError(f"unknown object category '{self.category}'")

    def offset_at(self, t: int) -> np.ndarray:
        late = self.category == SEMI_STATIC and t >= self.t_star
        return np.asarray(self.offset_b if late else self.offset_a, dtype=np.float64)


@dataclass(frozen=True)
class SceneSpec:
    """Fully instantiated analytic scene: objects plus a camera trajectory."""

    n_frames: int
    height: int
    width: int
    objects: tuple[SceneObject, ...]
    cameras: tuple[CameraPose, ...]
    background: tuple[float, float, float] = (0.5, 0.5, 0.5)
    world_lo: tuple[float, float, float] = (-1.25, -1.25, -1.25)
    world_hi: tuple[float, float, float] = (1.25, 1.25, 1.25)

    def __post_init__(self):
        if len(self.cameras) != self.n_frames:
            raise ConfigError("camera trajectory length must equal n_frames")
        for obj in self.objects:
            if obj.category == SEMI_STATIC and not (0 < obj.t_star < self.n_frames):
                raise ConfigError("semi-static relocation time must be in (0, T)")


@dataclass(frozen=True)
class GroundTruth:
    """Exact renders and per-category masks for every frame."""

    rgb: np.ndarray  # (T, H, W, 3) in [0, 1]
    mask_dyn: np.ndarray  # (T, H, W) bool
    mask_ss: np.ndarray  # (T, H, W) bool

    def __post_init__(self):
        if np.any(self.mask_dyn & self.mask_ss):
            raise DomainError("a pixel cannot be both dynamic and semi-static")


# ---------------------------------------------------------------------------
# Scene configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SceneConfig:
    name: str = "custom"
    n_frames: int = 60
    height: int = 64
    width: int = 64
    seed: int = 0
    recall: float = 0.6
    fpr: float = 0.002
    eval_stride: int = 6

    def __post_init__(self):
        if not 0.0 < self.recall <= 1.0:
            raise ConfigError("recall must lie in (0, 1]")
        if not 0.0 <= self.fpr < 1.0:
            raise ConfigError("fpr must lie in [0, 1)")
        if self.eval_stride < 1:
            raise ConfigError("eval_stride must be at least 1")

    def eval_frames(self) -> tuple[int, ...]:
        return tuple(range(0, self.n_frames, self.eval_stride))


BENCH_V1 = "lmf-bench-v1"
FOV_DEGREES = 64.0  # horizontal field of view of every generated camera


def benchmark_config(name: str, seed: int = 0) -> SceneConfig:
    """Named benchmark presets; only 'lmf-bench-v1' is defined."""
    if name == BENCH_V1:
        return SceneConfig(name=BENCH_V1, n_frames=60, height=64, width=64, seed=seed)
    raise ConfigError(f"unknown benchmark '{name}'")


def generate_scene(config: SceneConfig) -> SceneSpec:
    """Instantiate the procedural scene for `config`, deterministically.

    The composition is fixed: the room, one static box, one semi-static cube
    that jumps between two shelf positions at t_star = T // 2, and one
    camera-attached sphere that stays fixed in the view while the camera
    sweeps an arc inside the room (nonzero baseline).
    """
    t_total, h, w = config.n_frames, config.height, config.width
    if t_total < 2:
        raise ConfigError("need at least two frames")
    if h < 8 or w < 8:
        raise ConfigError("image must be at least 8x8")

    box_c = np.array([-0.62, -0.30, -0.45])
    box_half = np.array([0.22, 0.18, 0.22])
    # Pinned slightly right of and below the optical axis, at arm's length.
    # Sized so its projected disk covers roughly 8% of the frame: large
    # enough that the default false-positive rate keeps pseudo-label
    # precision above 0.95.
    sphere_c = (0.125, -0.095, -0.5)
    objects = (
        SceneObject(
            primitive=RoomShell(lo=(-1.0, -1.0, -1.0), hi=(1.0, 1.0, 1.0)),
            color=ColorRamp(
                base=(0.52, 0.48, 0.55),
                gain=(0.22, 0, 0, 0, 0.18, 0, 0, 0, 0.15),
                checker_amp=0.08,
                checker_cell=0.5,
            ),
            category=STATIC,
        ),
        SceneObject(
            primitive=Box(lo=tuple(box_c - box_half), hi=tuple(box_c + box_half)),
            color=ColorRamp(
                base=(0.75, 0.45, 0.2),
                gain=(0, 0.3, 0, 0, 0, 0.3, 0.3, 0, 0),
                ref=tuple(box_c),
            ),
            category=STATIC,
        ),
        # Both shelf positions sit above the camera axis, clear of the
        # camera-pinned sphere in the lower half of the frame, so the
        # negative-fusion pixel set never overlaps the relocating object.
        SceneObject(
            primitive=Box(lo=(-0.14, -0.14, -0.14), hi=(0.14, 0.14, 0.14)),
            color=ColorRamp(
                base=(0.2, 0.72, 0.35),
                gain=(0, 0, 0.4, 0.4, 0, 0, 0, 0.4, 0),
            ),
            category=SEMI_STATIC,
            offset_a=(-0.62, 0.38, 0.3),
            offset_b=(-0.55, -0.02, 0.55),
            t_star=t_total // 2,
        ),
        SceneObject(
            primitive=Sphere(center=sphere_c, radius=0.1),
            color=ColorRamp(
                base=(0.85, 0.2, 0.25),
                gain=(0, 0, 2.0, 0, 0, 0, 0, 0, 0),
                ref=sphere_c,
            ),
            category=DYNAMIC,
        ),
    )

    fx = 0.5 * w / math.tan(math.radians(FOV_DEGREES) / 2.0)
    intr = dict(fx=fx, fy=fx, cx=(w - 1) / 2.0, cy=(h - 1) / 2.0)
    cameras = []
    for t in range(t_total):
        s = t / max(t_total - 1, 1)
        phi = math.radians(-42.0 + 84.0 * s)
        pos = np.array(
            [0.52 * math.cos(phi), 0.52 * math.sin(phi), 0.12 + 0.05 * math.sin(2 * math.pi * s)]
        )
        target = np.array([-0.62, 0.12 * math.sin(math.pi * s), 0.05])
        cameras.append(look_at(pos, target, **intr))

    return SceneSpec(
        n_frames=t_total,
        height=h,
        width=w,
        objects=objects,
        cameras=tuple(cameras),
    )


# ---------------------------------------------------------------------------
# Analytic ray intersection
# ---------------------------------------------------------------------------


def render_ground_truth(scene: SceneSpec) -> GroundTruth:
    """Exact per-pixel front-surface render of all frames.

    Pure function: identical SceneSpec gives bit-identical output.
    """
    t_total, h, w = scene.n_frames, scene.height, scene.width
    rgb = np.empty((t_total, h, w, 3))
    mask_dyn = np.zeros((t_total, h, w), dtype=bool)
    mask_ss = np.zeros((t_total, h, w), dtype=bool)
    uy, ux = np.mgrid[0:h, 0:w].astype(np.float64)
    for t, pose in enumerate(scene.cameras):
        dirs_w = pixel_directions(pose, ux, uy)
        # Camera-frame objects are traced from the camera origin along
        # camera-frame directions, the rest in world coordinates.
        world = (pose.center, dirs_w)
        camera = (np.zeros(3), dirs_w @ pose.rotation.T)
        best = np.full((h, w), np.inf)
        winner = np.full((h, w), -1, dtype=np.int64)
        hits = []
        for k, obj in enumerate(scene.objects):
            origin, dirs = camera if obj.category == DYNAMIC else world
            off = obj.offset_at(t)
            d = obj.primitive.hit(origin, dirs, off)
            hits.append((origin, dirs, off, d))
            closer = d < best
            best = np.where(closer, d, best)
            winner = np.where(closer, k, winner)
        frame = np.broadcast_to(np.asarray(scene.background), (h, w, 3)).copy()
        for k, obj in enumerate(scene.objects):
            sel = winner == k
            if not np.any(sel):
                continue
            origin, dirs, off, d = hits[k]
            frame[sel] = obj.color(origin + d[sel][:, None] * dirs[sel] - off)
            if obj.category == DYNAMIC:
                mask_dyn[t][sel] = True
            elif obj.category == SEMI_STATIC:
                mask_ss[t][sel] = True
        rgb[t] = frame
    return GroundTruth(rgb=rgb, mask_dyn=mask_dyn, mask_ss=mask_ss)


# ---------------------------------------------------------------------------
# Point queries (used for baking scenes into field grids)
# ---------------------------------------------------------------------------


def material(objects: Sequence[SceneObject], pts: np.ndarray, offsets):
    """(inside, color) of the union of `objects`, each moved by its offset.

    One pass over the primitives' `distance`: a point is inside when its
    nearest object is at distance 0, and takes that object's volumetric
    color, the first one on ties. Empty points get the nearest surface's
    color too, so baked grids do not bleed gray into boundaries. With no
    objects every point is outside and mid-gray.
    """
    best = np.full(pts.shape[:-1], np.inf)
    color = np.full(pts.shape[:-1] + (3,), 0.5)
    for obj, off in zip(objects, offsets):
        local = pts - np.asarray(off)
        d = obj.primitive.distance(local)
        closer = d < best
        if np.any(closer):
            color[closer] = obj.color(local[closer])
            best = np.where(closer, d, best)
    return best == 0.0, color


# ---------------------------------------------------------------------------
# Pseudo-mask degradation
# ---------------------------------------------------------------------------


def _erode4(mask: np.ndarray) -> np.ndarray:
    """4-neighborhood binary erosion; outside the image counts as background."""
    out = mask.copy()
    out[1:, :] &= mask[:-1, :]
    out[:-1, :] &= mask[1:, :]
    out[:, 1:] &= mask[:, :-1]
    out[:, :-1] &= mask[:, 1:]
    return out


_BLOB_OFFSETS = np.array([(0, 0), (0, 1), (0, -1), (1, 0), (-1, 0), (1, 1)])


def degrade_to_pseudo_masks(
    gt: GroundTruth,
    recall: float,
    fpr: float,
    seed: int = 0,
) -> np.ndarray:
    """Emulate an incomplete-but-precise 2D motion-segmentation model.

    Returns the soft pseudo-labels, (T, H, W) float64 in [0, 1].

    Per frame the requested recall is met exactly (up to rounding) by keeping
    a random subset of the eroded true-dynamic region at full confidence;
    eroded-away boundary pixels keep a sub-threshold confidence and dropped
    interior pixels go to zero. False positives are small blobs placed on
    true-negative pixels until the frame's share of `fpr` is met exactly.

    recall == 1.0 and fpr == 0.0 reproduce the ground-truth mask verbatim.
    """
    if not (0.0 < recall <= 1.0):
        raise DomainError("recall must lie in (0, 1]")
    if not (0.0 <= fpr < 1.0):
        raise DomainError("fpr must lie in [0, 1)")
    t_total, h, w = gt.mask_dyn.shape
    out = np.zeros((t_total, h, w))
    for t in range(t_total):
        rng = np.random.default_rng([seed, t])
        pos = gt.mask_dyn[t]
        values = out[t]
        n_pos = int(pos.sum())
        if recall >= 1.0:
            values[pos] = 1.0
        elif n_pos > 0:
            target_tp = int(round(recall * n_pos))
            eroded = _erode4(pos)
            core = np.flatnonzero(eroded.ravel())
            ring = np.flatnonzero((pos & ~eroded).ravel())
            if core.size >= target_tp:
                kept = rng.choice(core, size=target_tp, replace=False)
            else:
                extra = rng.choice(ring, size=target_tp - core.size, replace=False)
                kept = np.concatenate([core, extra])
            flat = values.ravel()
            boundary = np.setdiff1d(ring, kept, assume_unique=False)
            flat[boundary] = rng.uniform(0.15, 0.45, size=boundary.size)
            flat[kept] = 1.0
        if fpr > 0.0:
            neg = np.flatnonzero((~pos).ravel())
            target_fp = int(round(fpr * neg.size))
            flat = values.ravel()
            placed: list[np.ndarray] = []
            n_placed = 0
            free = np.zeros(h * w, dtype=bool)
            free[neg] = True
            order = rng.permutation(neg)
            for center in order:
                if n_placed >= target_fp:
                    break
                cy, cx = divmod(int(center), w)
                yy = cy + _BLOB_OFFSETS[:, 0]
                xx = cx + _BLOB_OFFSETS[:, 1]
                ok = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
                idx = yy[ok] * w + xx[ok]
                idx = idx[free[idx]]
                if idx.size == 0:
                    continue
                idx = idx[: target_fp - n_placed]
                free[idx] = False
                placed.append(idx)
                n_placed += idx.size
            if placed:
                all_idx = np.concatenate(placed)
                flat[all_idx] = rng.uniform(0.55, 0.9, size=all_idx.size)
    return out
