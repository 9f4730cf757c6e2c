"""Independent scalar reference implementations used as test oracles.

Everything here is written with plain Python loops and math.* calls,
deliberately sharing no code with the package's vectorized paths. The
exceptions are `naive_scatter` and `naive_sigmoid`: the straightforward
former forms of package kernels, kept to check their faster replacements
for exact equality.
"""

import math

import numpy as np

from layermotion.errors import DomainError


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
