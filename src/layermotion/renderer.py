"""Discrete emission-absorption rendering of color, uncertainty, and masks.

Per sample i along a ray: alpha_i = 1 - exp(-sigma_i * delta_i),
transmittance T_i = prod_{j<i} (1 - alpha_j), weight w_i = T_i * alpha_i.
Layer densities add, and each layer gets its own quadrature weight
w_i * share_{i,l}, its density share of the sample's weight. Colors and
uncertainties mix by these per-layer weights, and the static, semi-static and
dynamic mask images are their sums over samples: each layer's transported
density share. The residual transmittance T_bg is reported per ray, and the
uncertainty image receives a beta_min * T_bg floor so empty rays keep a
positive uncertainty.

Samples with total density below EPS_SIGMA use the empty-space convention
(zero shares, so zero layer weights); their quadrature weight is vanishing,
so the convention is consequence-free.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RenderError
from .fields import LayeredFieldParams, eval_layers_batch
from .geometry import ORTHO_TOL, CameraPose, camera_rays, clip_to_box, world_to_camera

EPS_SIGMA = 1e-12
DELTA_CAP = 8.0  # pseudo-width of the last sample, meters
CHANNELS = ("color", "uncertainty", "mask_ss", "mask_dy", "mask_st", "t_bg")
RENDER_SAMPLES = 64  # default quadrature nodes per rendered ray
# Sample points per work item of render_frame: one training gradient chunk
# (512 rays x 16 samples). Sizing items in points, not pixels, keeps each
# item's gathered grid corners (under 5 MB for the 9 world channels) the same
# size at any sample count; 1,024-pixel items at 64 samples ran memory-bound.
RENDER_POINTS = 8192


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


def composite_point(sigma):
    """Total density and each layer's density share at point(s).

    `sigma` is (..., 3) over (static, semi-static, dynamic). Returns (total
    (...), share (..., 3)). Points with total density below EPS_SIGMA get
    zero shares.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    total = sigma.sum(axis=-1)
    live = total > EPS_SIGMA
    denom = np.where(live, total, 1.0)
    share = sigma / denom[..., None] * live[..., None]
    return total, share


@dataclass
class ForwardCache:
    """Everything :func:`backward_composite` needs from one composited batch."""

    total: np.ndarray  # (N, K) total density
    share: np.ndarray  # (N, K, 3)
    color_layers: np.ndarray  # (N, K, 3, 3)
    beta_layers: np.ndarray  # (N, K, 3)
    alpha: np.ndarray  # (N, K)
    trans: np.ndarray  # (N, K) exclusive transmittance
    weights: np.ndarray  # (N, K)
    t_bg: np.ndarray  # (N,)
    deltas: np.ndarray  # (N, K)
    beta_min: float  # background uncertainty, weighted by t_bg


def _integrate(sigma, deltas):
    """Quadrature weights of samples: returns (alpha, trans, weights, t_bg)."""
    alpha = -np.expm1(-sigma * deltas)
    one_minus = 1.0 - alpha
    trans = np.cumprod(one_minus, axis=1)
    t_bg = trans[:, -1].copy()
    trans = np.roll(trans, 1, axis=1)
    trans[:, 0] = 1.0
    weights = trans * alpha
    return alpha, trans, weights, t_bg


def backward_composite(cache: ForwardCache, d_color, d_uncertainty, d_mask_ss, d_mask_dy):
    """Adjoint of :func:`composite_rays`: the quadrature and the density-share mixing.

    Takes the loss gradient of each render channel, (N, 3) for `d_color`
    and (N,) for the others; a scalar (0.0 for a channel no loss reads)
    broadcasts. Returns the gradients with respect to composite_rays'
    `sigma` (N*K, 3), `color` (N*K, 3, 3) and `beta` (N*K, 3).
    """
    w, trans, alpha, share = cache.weights, cache.trans, cache.alpha, cache.share
    n = cache.total.shape[0]
    d_color = np.broadcast_to(d_color, (n, 3))
    d_unc = np.broadcast_to(d_uncertainty, (n,))
    # g_l: dL per unit quadrature weight of layer l at a sample; the
    # semi-static and dynamic masks read that layer's weight alone.
    g = np.einsum("nklc,nc->nkl", cache.color_layers, d_color) + cache.beta_layers * d_unc[:, None, None]
    g[..., 1] += np.reshape(d_mask_ss, (-1, 1))
    g[..., 2] += np.reshape(d_mask_dy, (-1, 1))
    proj = np.einsum("nkl,nkl->nk", share, g)  # dL per unit weight of the sample
    wproj = w * proj
    suffix = np.sum(wproj, axis=1, keepdims=True) - np.cumsum(wproj, axis=1)
    t_incl = trans * (1.0 - alpha)  # transmittance just past each sample
    d_bg = cache.beta_min * d_unc  # the background is beta_min in uncertainty only
    d_sigma_tot = cache.deltas * (t_incl * proj - suffix - (cache.t_bg * d_bg)[:, None])
    # Density shares: d share_m / d sigma_l = ([m = l] - share_m) / total on live samples.
    live = cache.total > EPS_SIGMA
    scale = w * live / np.where(live, cache.total, 1.0)
    d_sigma = d_sigma_tot[..., None] + scale[..., None] * (g - proj[..., None])
    layer_w = w[..., None] * share
    d_color = layer_w[..., None] * d_color[:, None, None, :]
    d_beta = layer_w * d_unc[:, None, None]
    return d_sigma.reshape(-1, 3), d_color.reshape(-1, 3, 3), d_beta.reshape(-1, 3)


def composite_rays(sigma, color, beta, deltas: np.ndarray, beta_min: float):
    """Render rays from per-layer point values; returns (RenderBundle, ForwardCache).

    `sigma` (N*K, 3), `color` (N*K, 3, 3) and `beta` (N*K, 3) are the values
    at the rays' samples in ray-major order; `deltas` is (N, K). A
    non-finite output raises `RenderError`.
    """
    n, k = deltas.shape
    total, share = composite_point(sigma)
    total, share = total.reshape(n, k), share.reshape(n, k, 3)
    color, beta = color.reshape(n, k, 3, 3), beta.reshape(n, k, 3)
    alpha, trans, weights, t_bg = _integrate(total, deltas)
    # Layer l's quadrature weight at a sample is weights * share_l; each mask
    # sums one layer's weights, and color and uncertainty mix per sample first.
    masks = np.einsum("nk,nkl->nl", weights, share)  # (N, 3): static, semi-static, dynamic
    mixed_color = np.einsum("nkl,nklc->nkc", share, color)
    mixed_beta = np.einsum("nkl,nkl->nk", share, beta)
    bundle = RenderBundle(
        color=np.einsum("nk,nkc->nc", weights, mixed_color),
        uncertainty=np.einsum("nk,nk->n", weights, mixed_beta) + t_bg * beta_min,
        mask_ss=masks[:, 1],
        mask_dy=masks[:, 2],
        mask_st=masks[:, 0],
        t_bg=t_bg,
    )
    finite = np.isfinite(bundle.color).all(axis=1) & np.isfinite(bundle.uncertainty)
    finite &= np.isfinite(masks).all(axis=1)
    if not finite.all():
        ray_i = int(np.argmin(finite))
        ok = np.isfinite(share[ray_i]).all(axis=1) & np.isfinite(color[ray_i]).all(axis=(1, 2))
        samp = int(np.argmin(ok & np.isfinite(beta[ray_i]).all(axis=1)))
        raise RenderError(f"non-finite render output at ray {ray_i}, sample {samp}")
    cache = ForwardCache(
        total=total,
        share=share,
        color_layers=color,
        beta_layers=beta,
        alpha=alpha,
        trans=trans,
        weights=weights,
        t_bg=t_bg,
        deltas=deltas,
        beta_min=beta_min,
    )
    return bundle, cache


def render_batch(
    params: LayeredFieldParams,
    pts_world: np.ndarray,  # (N, K, 3)
    pts_cam: np.ndarray,  # (N, K, 3)
    deltas: np.ndarray,  # (N, K)
    t_idx: np.ndarray,  # (N,)
):
    """Forward render of a batch of rays through :func:`eval_layers_batch`.

    Returns (RenderBundle, ForwardCache, LayerEvalCache): the caches feed
    :func:`backward_composite` and `fields.backward_eval_layers`.
    """
    k = pts_world.shape[1]
    flat_t = np.repeat(np.asarray(t_idx, dtype=np.int64), k)
    sigma, color, beta, field_cache = eval_layers_batch(
        params, pts_world.reshape(-1, 3), pts_cam.reshape(-1, 3), flat_t
    )
    bundle, cache = composite_rays(sigma, color, beta, deltas, params.config.beta_min)
    return bundle, cache, field_cache


def render_ray(
    params: LayeredFieldParams,
    ray: tuple[np.ndarray, np.ndarray],
    pose: CameraPose,
    t: int,
    n_samples: int = RENDER_SAMPLES,
) -> RenderBundle:
    """Render one `ray_through_pixel` ray (origin, nu) of `pose` at frame t.

    The ray is clipped to the world box by `clip_to_box`, as
    :func:`render_frame` clips its pixel rays, so it renders as that pixel.
    """
    origin, nu = ray
    if abs(np.linalg.norm(nu) - 1.0) > ORTHO_TOL:
        raise DomainError("ray direction must be unit length within 1e-9")
    t_near, t_far = clip_to_box(origin, nu, params.config.world_lo, params.config.world_hi)
    depths, deltas = sample_depths(t_near, t_far, n_samples)
    pts = origin - nu * depths[0][:, None]
    bundle, _, _ = render_batch(
        params, pts[None], world_to_camera(pose, pts)[None], deltas, np.array([t])
    )
    return RenderBundle(**{k: getattr(bundle, k)[0] for k in RenderBundle.__dataclass_fields__})


def render_frame(
    params: LayeredFieldParams,
    pose: CameraPose,
    t: int,
    channels: tuple[str, ...] = CHANNELS,
    n_samples: int = RENDER_SAMPLES,
    workers: int = 1,
) -> dict[str, np.ndarray]:
    """Render the full frame of `pose` at frame t through :func:`render_batch`.

    Work is split into items of about RENDER_POINTS sample points, run on a
    pool of `workers` threads (at least 1) and written to disjoint output
    slices. Every pixel is computed independently of the others, so results
    are bit-identical for any worker count and item size.
    """
    bad = set(channels) - set(CHANNELS)
    if bad:
        raise DomainError(f"unknown render channels: {sorted(bad)}")
    if workers < 1:
        raise DomainError("workers must be at least 1")
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

    chunk = max(1, RENDER_POINTS // n_samples)

    def run_chunk(start: int) -> None:
        stop = min(start + chunk, n_pix)
        sl = slice(start, stop)
        depths, deltas = sample_depths(t_near[sl], t_far[sl], n_samples)
        pts = origin[None, None, :] - nu[sl][:, None, :] * depths[:, :, None]
        bundle, _, _ = render_batch(
            params, pts, world_to_camera(pose, pts), deltas, np.full(stop - start, t)
        )
        for name in channels:
            out[name][sl] = getattr(bundle, name)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run_chunk, range(0, n_pix, chunk)))
    return {
        name: arr.reshape((h, w, 3) if name == "color" else (h, w))
        for name, arr in out.items()
    }
