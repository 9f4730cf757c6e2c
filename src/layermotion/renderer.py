"""Discrete emission-absorption rendering of color, uncertainty, and masks.

Per sample i along a ray: alpha_i = 1 - exp(-sigma_i * delta_i),
transmittance T_i = prod_{j<i} (1 - alpha_j), weight w_i = T_i * alpha_i.
Layer densities add; colors, uncertainties, and the layer-indicator
pseudo-colors mix weighted by each layer's density share, so the rendered
semi-static/dynamic mask images are the transported density shares of those
layers. The residual transmittance T_bg is reported per ray, and the
uncertainty image receives a beta_min * T_bg floor so empty rays keep a
positive uncertainty.

Samples with total density below EPS_SIGMA use the empty-space convention
(zero color and mask shares); their quadrature weight is vanishing, so the
convention is consequence-free.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RenderError
from .fields import FrameField, LayerEvalCache, LayeredFieldParams, eval_layers_batch
from .geometry import CameraPose, Ray, camera_rays, clip_ray_to_box, world_to_camera

EPS_SIGMA = 1e-12
DELTA_CAP = 8.0  # pseudo-width of the last sample, meters
CHANNELS = ("color", "uncertainty", "mask_ss", "mask_dy", "mask_st", "t_bg")
RENDER_SAMPLES = 64  # default quadrature nodes per rendered ray
# Sample points per work item of render_frame: one training gradient chunk
# (512 rays x 16 samples). Sizing items in points, not pixels, keeps each
# item's gathered grid corners (under 8 MB for a 15-channel grid) the same
# size at any sample count; 1,024-pixel items at 64 samples ran memory-bound.
RENDER_POINTS = 8192


@dataclass(frozen=True)
class RaySamples:
    """Quadrature nodes for one ray."""

    depths: np.ndarray  # (K,), strictly increasing within [t_near, t_far]
    deltas: np.ndarray  # (K,), last entry = DELTA_CAP
    points_world: np.ndarray  # (K, 3)
    points_cam: np.ndarray | None = None  # (K, 3) when a pose was supplied

    def __post_init__(self):
        d = np.asarray(self.depths, dtype=np.float64)
        if d.size < 2:
            raise DomainError("need at least two samples per ray")
        if np.any(np.diff(d) <= 0):
            raise DomainError("sample depths must be strictly increasing")


@dataclass(frozen=True)
class RenderBundle:
    """Per-pixel render outputs; arrays share a common leading shape."""

    color: np.ndarray  # (..., 3)
    uncertainty: np.ndarray
    mask_ss: np.ndarray
    mask_dy: np.ndarray
    mask_st: np.ndarray
    t_bg: np.ndarray


def sample_depths(t_near, t_far, n_samples: int, stratified: bool = False, seed: int = 0):
    """Depths/deltas for a batch of rays; midpoints of equal bins, or jittered.

    t_near/t_far are arrays of shape (N,); returns (N, K) arrays.
    """
    if n_samples < 2:
        raise DomainError("need at least two samples per ray")
    t_near = np.atleast_1d(np.asarray(t_near, dtype=np.float64))
    t_far = np.atleast_1d(np.asarray(t_far, dtype=np.float64))
    n = t_near.shape[0]
    edges = np.linspace(0.0, 1.0, n_samples + 1)
    lo = t_near[:, None] + (t_far - t_near)[:, None] * edges[None, :-1]
    width = (t_far - t_near)[:, None] / n_samples
    if stratified:
        u = np.random.default_rng(seed).random((n, n_samples))
    else:
        u = 0.5
    depths = lo + width * u
    deltas = np.empty_like(depths)
    deltas[:, :-1] = np.diff(depths, axis=1)
    deltas[:, -1] = DELTA_CAP
    return depths, deltas


def sample_ray(ray: Ray, n_samples: int, pose: CameraPose | None = None) -> RaySamples:
    """Midpoint quadrature nodes for a single ray; pass `pose` to get camera points."""
    if not np.isfinite(ray.t_far):
        raise DomainError("sample_ray requires a finite t_far (clip the ray first)")
    depths, deltas = sample_depths(np.array([ray.t_near]), np.array([ray.t_far]), n_samples)
    pts = ray.point_at(depths[0])
    pts_cam = None if pose is None else world_to_camera(pose, pts)
    return RaySamples(
        depths=depths[0], deltas=deltas[0], points_world=pts, points_cam=pts_cam
    )


def composite_point(sigma, color, beta=None):
    """Mix per-layer values at point(s): densities add, the rest mix by share.

    `sigma` is (..., 3) over (static, semi-static, dynamic); `color` is
    (..., 3, 3); optional `beta` is (..., 3). Returns a dict with `sigma`,
    `color`, `m_st`, `m_ss`, `m_dy` (and `beta` when given). Points with
    total density below EPS_SIGMA get zero color and shares.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    color = np.asarray(color, dtype=np.float64)
    total = sigma.sum(axis=-1)
    live = total > EPS_SIGMA
    denom = np.where(live, total, 1.0)
    share = sigma / denom[..., None] * live[..., None]
    mixed_color = np.einsum("...l,...lc->...c", share, color)
    out = {
        "sigma": total,
        "color": mixed_color,
        "m_st": share[..., 0],
        "m_ss": share[..., 1],
        "m_dy": share[..., 2],
    }
    if beta is not None:
        out["beta"] = np.einsum("...l,...l->...", share, np.asarray(beta, dtype=np.float64))
    return out


@dataclass
class ForwardCache:
    """Everything the loss backward pass needs from one rendered batch."""

    sigma_layers: np.ndarray  # (N, K, 3)
    values: np.ndarray  # (N, K, 6): mixed color 3, mixed beta, m_ss, m_dy
    share: np.ndarray  # (N, K, 3)
    live: np.ndarray  # (N, K) bool
    color_layers: np.ndarray  # (N, K, 3, 3)
    beta_layers: np.ndarray  # (N, K, 3)
    alpha: np.ndarray  # (N, K)
    trans: np.ndarray  # (N, K) exclusive transmittance
    weights: np.ndarray  # (N, K)
    t_bg: np.ndarray  # (N,)
    deltas: np.ndarray  # (N, K)
    bg: np.ndarray  # (6,)
    eval_cache: LayerEvalCache


def _integrate(sigma, deltas, values, bg):
    """Quadrature over samples: returns (out (N, C), alpha, trans, weights, t_bg)."""
    alpha = -np.expm1(-sigma * deltas)
    one_minus = 1.0 - alpha
    trans = np.cumprod(one_minus, axis=1)
    t_bg = trans[:, -1].copy()
    trans = np.roll(trans, 1, axis=1)
    trans[:, 0] = 1.0
    weights = trans * alpha
    out = np.einsum("nk,nkc->nc", weights, values) + t_bg[:, None] * bg
    return out, alpha, trans, weights, t_bg


def render_batch(
    params: LayeredFieldParams,
    pts_world: np.ndarray,  # (N, K, 3)
    pts_cam: np.ndarray,  # (N, K, 3)
    deltas: np.ndarray,  # (N, K)
    t_idx: np.ndarray,  # (N,)
    want_cache: bool = False,
):
    """Forward render of a batch of rays; the workhorse for single rays and losses."""
    k = pts_world.shape[1]
    flat_t = np.repeat(np.asarray(t_idx, dtype=np.int64), k)
    ev = eval_layers_batch(
        params,
        pts_world.reshape(-1, 3),
        pts_cam.reshape(-1, 3),
        flat_t,
        want_cache=want_cache,
    )
    return _composite_rays(ev, deltas, params.config.beta_min, want_cache)


def _composite_rays(ev, deltas: np.ndarray, beta_min: float, want_cache: bool):
    """Render rays from per-layer point values `ev` = (sigma, color, beta[, eval cache]).

    The points are the rays' samples in ray-major order; `deltas` is (N, K).
    """
    n, k = deltas.shape
    sigma_l, color_l, beta_l = ev[0], ev[1], ev[2]
    comp = composite_point(sigma_l, color_l, beta_l)
    values = np.concatenate(
        [
            comp["color"],
            comp["beta"][:, None],
            comp["m_ss"][:, None],
            comp["m_dy"][:, None],
            comp["m_st"][:, None],
        ],
        axis=1,
    ).reshape(n, k, 7)
    sigma = comp["sigma"].reshape(n, k)
    bg = np.array([0, 0, 0, beta_min, 0, 0, 0], dtype=np.float64)
    out, alpha, trans, weights, t_bg = _integrate(sigma, deltas, values, bg)
    bundle = RenderBundle(
        color=out[:, 0:3],
        uncertainty=out[:, 3],
        mask_ss=out[:, 4],
        mask_dy=out[:, 5],
        mask_st=out[:, 6],
        t_bg=t_bg,
    )
    if not np.all(np.isfinite(out)):
        bad = np.argwhere(~np.isfinite(out))
        ray_i = int(bad[0, 0])
        samp = int(np.argmax(~np.isfinite(values[ray_i]).all(axis=-1)))
        raise RenderError(f"non-finite render output at ray {ray_i}, sample {samp}")
    if not want_cache:
        return bundle
    live = (sigma > EPS_SIGMA)
    cache = ForwardCache(
        sigma_layers=sigma_l.reshape(n, k, 3),
        values=values[..., :6],
        share=np.stack(
            [comp["m_st"], comp["m_ss"], comp["m_dy"]], axis=-1
        ).reshape(n, k, 3),
        live=live,
        color_layers=color_l.reshape(n, k, 3, 3),
        beta_layers=beta_l.reshape(n, k, 3),
        alpha=alpha,
        trans=trans,
        weights=weights,
        t_bg=t_bg,
        deltas=deltas,
        bg=bg[:6],
        eval_cache=ev[3],
    )
    return bundle, cache


def render_ray(
    params: LayeredFieldParams,
    ray: Ray,
    pose: CameraPose,
    t: int | None = None,
    n_samples: int = RENDER_SAMPLES,
) -> RenderBundle:
    """Render one ray at frame t (defaults to the pose's frame index)."""
    t = pose.frame_index if t is None else int(t)
    clipped = ray
    if not np.isfinite(ray.t_far):
        clipped = clip_ray_to_box(ray, params.config.world_lo, params.config.world_hi)
    samples = sample_ray(clipped, n_samples, pose=pose)
    bundle = render_batch(
        params,
        samples.points_world[None],
        samples.points_cam[None],
        samples.deltas[None],
        np.array([t]),
    )
    return RenderBundle(**{k: getattr(bundle, k)[0] for k in RenderBundle.__dataclass_fields__})


def render_frame(
    params: LayeredFieldParams,
    pose: CameraPose,
    t: int | None = None,
    channels: tuple[str, ...] = CHANNELS,
    n_samples: int = RENDER_SAMPLES,
    workers: int = 1,
) -> dict[str, np.ndarray]:
    """Render a full frame; pixel (ix, iy) equals the single-ray render there
    to rounding.

    The field is evaluated through one :class:`FrameField`, folded once per
    frame, so pixels agree with :func:`render_ray` to about 1e-15, not bit
    for bit. Work is split into items of about RENDER_POINTS sample points,
    written to disjoint output slices. Every pixel is computed independently
    of the others, so results are bit-identical for any worker count and
    item size.
    """
    t = pose.frame_index if t is None else int(t)
    bad = set(channels) - set(CHANNELS)
    if bad:
        raise DomainError(f"unknown render channels: {sorted(bad)}")
    fr = params.config.frustum
    h, w = fr.height, fr.width
    origin, nu, t_near, t_far = camera_rays(
        pose, w, h, params.config.world_lo, params.config.world_hi
    )
    n_pix = h * w
    out = {
        name: np.zeros((n_pix, 3) if name == "color" else (n_pix,))
        for name in channels
    }

    field = FrameField(params, t)
    chunk = max(1, RENDER_POINTS // n_samples)

    def run_chunk(start: int) -> None:
        stop = min(start + chunk, n_pix)
        sl = slice(start, stop)
        depths, deltas = sample_depths(t_near[sl], t_far[sl], n_samples)
        pts = origin[None, None, :] - nu[sl][:, None, :] * depths[:, :, None]
        pts_cam = world_to_camera(pose, pts)
        ev = field.eval(pts.reshape(-1, 3), pts_cam.reshape(-1, 3))
        bundle = _composite_rays(ev, deltas, params.config.beta_min, False)
        for name in channels:
            out[name][sl] = getattr(bundle, name)

    starts = range(0, n_pix, chunk)
    if workers <= 1:
        for s in starts:
            run_chunk(s)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_chunk, starts))
    return {
        name: arr.reshape((h, w, 3) if name == "color" else (h, w))
        for name, arr in out.items()
    }
