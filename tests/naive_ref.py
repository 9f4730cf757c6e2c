"""Independent scalar reference implementations used as test oracles.

Everything here is written with plain Python loops and math.* calls,
deliberately sharing no code with the package's vectorized paths. The
exceptions are `naive_scatter`, `naive_sigmoid` and `naive_lookup`: the
straightforward former forms of package kernels, kept to check their faster
replacements for exact equality; and `naive_mixed_layer` with
`naive_unfolded_gradients`: the former per-point time mixing and its adjoint,
kept to check the folded evaluation's gradients.
"""

import math
from typing import NamedTuple

import numpy as np

from layermotion.errors import DomainError
from layermotion.fields import BLOCK_NAMES, _lookups, sigmoid


def naive_softplus(x):
    if x > 30.0:
        return x
    return math.log1p(math.exp(x))


def naive_sigmoid(x):
    """Elementwise logistic in two masked branches, each with its own exponential."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


_CORNERS = np.array(
    [[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], dtype=np.int64
)


def naive_lookup(pts, lo, hi, res):
    """(idx, w, inside) of a trilinear lookup, by a broadcast outer product of axis weights."""
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    inside = np.all((pts >= lo) & (pts <= hi), axis=-1)
    g = (pts - lo) / (hi - lo) * (res - 1)
    g = np.clip(g, 0.0, res - 1.0)
    i0 = np.minimum(g.astype(np.int64), res - 2)
    f = g - i0
    base = (i0[:, 0] * res + i0[:, 1]) * res + i0[:, 2]
    offsets = (_CORNERS[:, 0] * res + _CORNERS[:, 1]) * res + _CORNERS[:, 2]
    fx, fy, fz = f[:, 0:1], f[:, 1:2], f[:, 2:3]
    wx = np.concatenate([1.0 - fx, fx], axis=1)  # (B, 2)
    wy = np.concatenate([1.0 - fy, fy], axis=1)
    wz = np.concatenate([1.0 - fz, fz], axis=1)
    w = (wx[:, :, None, None] * wy[:, None, :, None] * wz[:, None, None, :]).reshape(-1, 8)
    return base[:, None] + offsets[None, :], w, inside


def naive_trilinear(grid, point, lo, hi, res):
    """8-corner weighted sum over the last grid axes, one point at a time."""
    grid = np.asarray(grid)
    chan = grid.shape[3:]
    g = [(point[a] - lo[a]) / (hi[a] - lo[a]) * (res - 1) for a in range(3)]
    g = [min(max(v, 0.0), res - 1.0) for v in g]
    i0 = [min(int(math.floor(v)), res - 2) for v in g]
    f = [g[a] - i0[a] for a in range(3)]
    out = np.zeros(chan)
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                w = 1.0
                for a, d in zip(range(3), (dx, dy, dz)):
                    w *= f[a] if d == 1 else 1.0 - f[a]
                out = out + w * grid[i0[0] + dx, i0[1] + dy, i0[2] + dz]
    return out


def naive_scatter(shape, flat_idx, w, dvals):
    """Adjoint of the trilinear gather by eight unbuffered scatter-adds.

    The straightforward `np.add.at` form: corner by corner, every point adds
    its weighted value into its corner's cell.
    """
    res3 = shape[0] * shape[1] * shape[2]
    c = int(np.prod(shape[3:])) if len(shape) > 3 else 1
    dv = dvals.reshape(dvals.shape[0], c)
    out = np.zeros((res3, c))
    for o in range(8):
        np.add.at(out, flat_idx[:, o], w[:, o, None] * dv)
    return out.reshape(shape)


class NaiveMixed(NamedTuple):
    """Forward intermediates of one time-dependent layer."""

    lookup: object
    g: np.ndarray  # (B, K, 5) grid reads
    a: np.ndarray  # (B, K) mixing coefficients
    z: np.ndarray  # (B, D) temporal codes


def naive_mixed_layer(params, which: str, lookup, t_idx):
    """Pre-activations (B, 5) of layer `which` ('ss' or 'dy') and its record.

    The layer's K grid reads are mixed by coefficients that are linear in
    the frame's temporal code, one point at a time.
    """
    b = params.blocks
    g = lookup.read(b[f"{which}_grids"])
    z = params.code_table(which)[t_idx]
    a = z @ b[f"{which}_zmap_w"].T + b[f"{which}_zmap_b"]
    return np.einsum("bk,bkc->bc", a, g), NaiveMixed(lookup, g, a, z)


def naive_unfolded_gradients(params, pts_world, pts_cam, t_idx, d_sigma, d_color, d_beta,
                             wrt=BLOCK_NAMES):
    """Gradients of the blocks in `wrt` through the former per-point evaluation.

    Every point reads all K grids of each time-dependent layer (15 channels)
    and mixes them by its frame's coefficients; the adjoint scatters the
    K-mixed channel gradients and accumulates the code gradients point by
    point into their frame's row.
    """
    cfg = params.config
    b = params.blocks
    t_idx = np.asarray(t_idx, dtype=np.int64)
    world, ss_lookup, dy_lookup, support = _lookups(cfg, pts_world, pts_cam)
    phi0 = world.read(b["phi0"])
    pre_st = world.read(b["st_grid"]) + phi0 @ b["st_head"].T
    pre_ss, ss = naive_mixed_layer(params, "ss", ss_lookup, t_idx)
    pre_ss = pre_ss + phi0 @ b["ss_head"].T
    pre_dy, dy = naive_mixed_layer(params, "dy", dy_lookup, t_idx)
    pre = np.stack([pre_st, pre_ss, pre_dy], axis=1)  # (B, 3 layers, 5 channels)
    color = sigmoid(pre[:, :, 1:4])

    want = set(wrt)
    dpre_sig = d_sigma * (sigmoid(pre[:, :, 0]) * support)
    dpre_col = d_color * (color * (1.0 - color))
    dpre_bet = d_beta * sigmoid(pre[:, :, 4])
    dpre = np.concatenate(
        [dpre_sig[:, :, None], dpre_col, dpre_bet[:, :, None]], axis=2
    )
    dpre_st, dpre_ss, dpre_dy = dpre[:, 0], dpre[:, 1], dpre[:, 2]

    grads = {}
    if "st_grid" in want:
        grads["st_grid"] = world.adjoint(b["st_grid"].shape, dpre_st)
    if "st_head" in want:
        grads["st_head"] = dpre_st.T @ phi0
    if "ss_head" in want:
        grads["ss_head"] = dpre_ss.T @ phi0
    if "phi0" in want:
        dphi0 = dpre_st @ b["st_head"] + dpre_ss @ b["ss_head"]
        grads["phi0"] = world.adjoint(b["phi0"].shape, dphi0)

    for which, dpre_l, (lookup, g, a, z) in zip(("ss", "dy"), (dpre_ss, dpre_dy), (ss, dy)):
        grid, zmap_w, zmap_b, code = (
            f"{which}_grids", f"{which}_zmap_w", f"{which}_zmap_b", f"code_{which}"
        )
        if grid in want:
            dg = a[:, :, None] * dpre_l[:, None, :]  # (B, K, 5)
            grads[grid] = lookup.adjoint(b[grid].shape, dg)
        if want.isdisjoint((zmap_w, zmap_b, code)):
            continue
        da = np.einsum("bkc,bc->bk", g, dpre_l)
        if zmap_w in want:
            grads[zmap_w] = da.T @ z
        if zmap_b in want:
            grads[zmap_b] = da.sum(axis=0)
        if code not in want:
            continue
        dz = da @ b[zmap_w]
        # z = code[t] @ basis -> accumulate dz @ basis^T into row t
        rows = dz @ params.basis.T  # (B, P)
        n_t, n_p = b[code].shape
        acc = np.empty((n_t, n_p))
        for p in range(n_p):
            acc[:, p] = np.bincount(t_idx, weights=rows[:, p], minlength=n_t)
        grads[code] = acc
    return grads


def naive_eval_point(params, x, x_cam, t):
    """Per-layer (sigma, color, beta) at one point, by explicit arithmetic."""
    cfg = params.config
    b = params.blocks
    lo, hi = np.asarray(cfg.world_lo), np.asarray(cfg.world_hi)
    in_world = all(lo[a] <= x[a] <= hi[a] for a in range(3))

    phi0 = naive_trilinear(b["phi0"], x, lo, hi, cfg.grid_res)
    pre_st = naive_trilinear(b["st_grid"], x, lo, hi, cfg.grid_res)
    pre_st = pre_st + b["st_head"] @ phi0

    g_ss = naive_trilinear(b["ss_grids"], x, lo, hi, cfg.ss_grid_res)  # (K, 5)
    z_full = params.code_table("ss")[t]
    a_ss = b["ss_zmap_w"] @ z_full + b["ss_zmap_b"]
    pre_ss = np.zeros(5)
    for k in range(cfg.mix_k):
        pre_ss = pre_ss + a_ss[k] * g_ss[k]
    pre_ss = pre_ss + b["ss_head"] @ phi0

    fr = cfg.frustum
    d = -x_cam[2]
    in_frustum = False
    pre_dy = np.zeros(5)
    if d > 1e-9:
        span = 1.0 + fr.margin
        sx = fr.fx * (x_cam[0] / d) / (fr.width / 2.0)
        sy = fr.fy * (x_cam[1] / d) / (fr.height / 2.0)
        q = (1.0 / fr.near - 1.0 / d) / (1.0 / fr.near - 1.0 / fr.far)
        in_frustum = fr.near <= d <= fr.far and abs(sx) <= span and abs(sy) <= span
        u = [
            (sx / span + 1.0) / 2.0,
            (sy / span + 1.0) / 2.0,
            min(max(q, 0.0), 1.0),
        ]
        g_dy = naive_trilinear(
            b["dy_grids"], u, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), cfg.dyn_grid_res
        )
        z_dy = params.code_table("dy")[t]
        a_dy = b["dy_zmap_w"] @ z_dy + b["dy_zmap_b"]
        for k in range(cfg.dyn_mix_k):
            pre_dy = pre_dy + a_dy[k] * g_dy[k]

    layers = []
    for pre, inside in ((pre_st, in_world), (pre_ss, in_world), (pre_dy, in_frustum)):
        sigma = naive_softplus(pre[0]) if inside else 0.0
        color = naive_sigmoid(pre[1:4])
        beta = naive_softplus(pre[4]) + cfg.beta_min
        layers.append((sigma, color, beta))
    return layers


def naive_render_ray(params, pts_world, pts_cam, deltas, t, eps_sigma=1e-12):
    """Fully unrolled scalar emission-absorption over one ray's samples."""
    cfg = params.config
    n = len(deltas)
    color_out = np.zeros(3)
    b_out = 0.0
    m_ss = 0.0
    m_dy = 0.0
    m_st = 0.0
    trans = 1.0
    for i in range(n):
        layers = naive_eval_point(params, pts_world[i], pts_cam[i], t)
        sig = sum(l[0] for l in layers)
        if sig > eps_sigma:
            c = sum(l[0] * l[1] for l in layers) / sig
            beta = sum(l[0] * l[2] for l in layers) / sig
            sh_st = layers[0][0] / sig
            sh_ss = layers[1][0] / sig
            sh_dy = layers[2][0] / sig
        else:
            c = np.zeros(3)
            beta = 0.0
            sh_st = sh_ss = sh_dy = 0.0
        alpha = 1.0 - math.exp(-sig * deltas[i])
        w = trans * alpha
        color_out = color_out + w * c
        b_out += w * beta
        m_ss += w * sh_ss
        m_dy += w * sh_dy
        m_st += w * sh_st
        trans *= 1.0 - alpha
    b_out += cfg.beta_min * trans
    return {
        "color": color_out,
        "uncertainty": b_out,
        "mask_ss": m_ss,
        "mask_dy": m_dy,
        "mask_st": m_st,
        "t_bg": trans,
    }


def naive_average_precision(scores, gt):
    """Stable-order ranked precision mean, quadratic and explicit."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0
    precisions = []
    for rank, idx in enumerate(order, start=1):
        if gt[idx]:
            hits += 1
            precisions.append(hits / rank)
    return sum(precisions) / len(precisions)


def naive_slab(origin, march, lo, hi):
    """(enter, exit) of origin + march * tau through the box, one axis at a time."""
    enter, exit_ = -math.inf, math.inf
    for a in range(3):
        if march[a] == 0.0:
            if not lo[a] <= origin[a] <= hi[a]:
                return math.inf, -math.inf
            continue
        t0 = (lo[a] - origin[a]) / march[a]
        t1 = (hi[a] - origin[a]) / march[a]
        enter = max(enter, min(t0, t1))
        exit_ = min(exit_, max(t0, t1))
    return enter, exit_


def naive_clip(origin, nu, lo, hi):
    """(t_near, t_far) of the ray origin - nu * tau through the box, in plain floats.

    The span starts at least 1e-4 past the origin and is at least 1e-3 long,
    also for a ray that misses the box; one that never enters it starts at 1e-4.
    """
    enter, exit_ = naive_slab([float(o) for o in origin], [-float(d) for d in nu], lo, hi)
    t_near = max(enter, 1e-4) if enter < math.inf else 1e-4
    return t_near, max(exit_, t_near + 1e-3)


def camera_to_world(pose, x_cam):
    """Inverse of the world-to-camera map x_cam = R @ x + t."""
    return (np.asarray(x_cam, dtype=np.float64) - pose.translation) @ pose.rotation


def psnr(a, b) -> float:
    """Peak signal-to-noise ratio between two [0, 1] images."""
    mse = float(np.mean((np.asarray(a) - np.asarray(b)) ** 2))
    if mse == 0.0:
        return np.inf
    return -10.0 * np.log10(mse)


def rgb_loss(pred, target, uncertainty) -> float:
    """Self-calibrated reconstruction loss, averaged over the pixel batch."""
    uncertainty = np.asarray(uncertainty, dtype=np.float64)
    if np.any(uncertainty <= 0.0):
        raise DomainError("uncertainty must be positive")
    err = np.sum((np.asarray(pred) - np.asarray(target)) ** 2, axis=-1)
    return float(np.mean(err / (2.0 * uncertainty**2) + np.log(uncertainty**2)))


def pmf_loss(pred_mask_dy, mask_values, lambda_pmf=1.1) -> float:
    """Squared pull of the rendered dynamic mask toward the soft 2D label."""
    d = np.asarray(pred_mask_dy, dtype=np.float64) - np.asarray(mask_values)
    return float(lambda_pmf * np.mean(d**2))


def nmf_loss(pred_mask_ss, mask_binary, lambda_nmf=1.0) -> float:
    """Penalty on the semi-static mask over labeled-dynamic pixels; 0 if none."""
    mask_binary = np.asarray(mask_binary, dtype=bool)
    count = int(mask_binary.sum())
    if count == 0:
        return 0.0
    v = np.asarray(pred_mask_ss, dtype=np.float64)[mask_binary]
    return float(lambda_nmf * np.sum(v**2) / count)


def naive_sphere_inside(center, radius, p) -> bool:
    return math.dist(p, center) <= radius


def naive_sphere_distance(center, radius, p) -> float:
    return max(math.dist(p, center) - radius, 0.0)


def naive_box_inside(lo, hi, p) -> bool:
    return all(lo[a] <= p[a] <= hi[a] for a in range(3))


def naive_box_distance(lo, hi, p) -> float:
    """Euclidean distance from `p` to the closed box, 0 inside it."""
    gap = [max(lo[a] - p[a], p[a] - hi[a], 0.0) for a in range(3)]
    return math.sqrt(sum(g * g for g in gap))


def naive_room_inside(lo, hi, thickness, p) -> bool:
    """Wall material: the closed outer box minus the open cavity (lo, hi)."""
    outer_lo = [v - thickness for v in lo]
    outer_hi = [v + thickness for v in hi]
    in_cavity = all(lo[a] < p[a] < hi[a] for a in range(3))
    return naive_box_inside(outer_lo, outer_hi, p) and not in_cavity


def naive_room_distance(lo, hi, thickness, p) -> float:
    """Distance to the wall material: to the nearest inner face from inside
    the cavity, to the outer box from beyond the wall, 0 in the wall."""
    if all(lo[a] < p[a] < hi[a] for a in range(3)):
        return min(min(p[a] - lo[a], hi[a] - p[a]) for a in range(3))
    outer_lo = [v - thickness for v in lo]
    outer_hi = [v + thickness for v in hi]
    return naive_box_distance(outer_lo, outer_hi, p)
