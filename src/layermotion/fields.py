"""The learnable three-layer radiance field.

Layers and their parameter partitions:

  static      (W_st): a world-frame feature grid `phi0` shared with the
                      semi-static head, plus a grid `st_grid` and linear head
                      `st_head` emitting (density, color, uncertainty)
                      pre-activations. Time-independent by construction.
  semi-static (W_ss): K world-frame grids mixed by coefficients that are a
                      learned linear function of the frame's temporal code,
                      plus its own linear head on `phi0`.
  dynamic     (W_dy): K grids over normalized camera-frustum coordinates
                      (image plane in [-1, 1], disparity-mapped depth), mixed
                      by its own temporal-code map. Depends only on the
                      camera-frame point and t.

Each time-dependent layer owns a learned (T x P) coefficient block; times
one fixed (P x D) bank of unit-norm sinusoid rows it gives that layer's
per-frame codes. No block is shared between partitions, so the parameter
partition is exact.

Activations: density and uncertainty use softplus (uncertainty gets a
`beta_min` floor), color uses sigmoid. Colors are view-independent.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from itertools import zip_longest

import numpy as np

from . import imgio
from .errors import ConfigError, DataError, DomainError, NumericalError

# Block name -> partition. `phi0` is shared by the static and semi-static
# heads but belongs to the static partition.
PARTITION: dict[str, tuple[str, ...]] = {
    "st": ("phi0", "st_grid", "st_head"),
    "ss": ("ss_grids", "ss_head", "ss_zmap_w", "ss_zmap_b", "code_ss"),
    "dy": ("dy_grids", "dy_zmap_w", "dy_zmap_b", "code_dy"),
}
BLOCK_NAMES = tuple(n for names in PARTITION.values() for n in names)


def softplus(x):
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > 30.0, x, np.log1p(np.exp(np.minimum(x, 30.0))))


def softplus_inv(y):
    y = np.asarray(y, dtype=np.float64)
    return y + np.log(-np.expm1(-y))


def sigmoid(x):
    # exp(-|x|) never overflows; it is exp(-x) where x >= 0 and exp(x) elsewhere.
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def logit(p):
    p = np.clip(np.asarray(p, dtype=np.float64), 1e-4, 1.0 - 1e-4)
    return np.log(p) - np.log1p(-p)


def _sinusoid(p: int, n: int) -> np.ndarray | None:
    """Row p of :func:`fourier_rows` at length n, or None where it vanishes."""
    f = (p + 1) // 2
    phase = 2.0 * np.pi * f * np.arange(n) / n
    wave = np.sin(phase) if p % 2 == 1 else np.cos(phase)
    norm = np.linalg.norm(wave)
    return wave / norm if norm > 1e-9 else None


def fourier_rows(n_rows: int, n_cols: int) -> np.ndarray:
    """Unit-norm sinusoid rows: row p has frequency ceil(p/2), sin/cos alternating.

    A row that vanishes at length `n_cols` raises `ConfigError`.
    """
    rows = np.empty((n_rows, n_cols))
    for p in range(n_rows):
        row = _sinusoid(p, n_cols)
        if row is None:
            raise ConfigError(
                f"sinusoid row {p} vanishes for length {n_cols}; increase the code dim"
            )
        rows[p] = row
    return rows


@dataclass(frozen=True)
class FrustumSpec:
    """Reference camera geometry for normalized frustum coordinates."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    near: float = 0.05
    far: float = 6.0
    margin: float = 0.2


@dataclass(frozen=True)
class FieldConfig:
    n_frames: int
    frustum: FrustumSpec
    world_lo: tuple[float, float, float] = (-1.25, -1.25, -1.25)
    world_hi: tuple[float, float, float] = (1.25, 1.25, 1.25)
    grid_res: int = 24
    feat_channels: int = 4
    mix_k: int = 3
    # Time-dependent layers get coarser grids on purpose: fine texture is
    # only cheap for the static layer, so transient content cannot park in
    # the semi-static or dynamic layer without a reconstruction penalty.
    ss_grid_res: int = 12
    dyn_grid_res: int = 12
    dyn_mix_k: int = 3
    code_rank: int = 4  # P per time-dependent layer
    code_dim: int = 8  # D
    beta_min: float = 0.03

    def __post_init__(self):
        if self.n_frames < 1:
            raise ConfigError("need at least one frame")
        if self.code_rank < 1 or self.code_dim < 2 * self.code_rank - 1:
            raise ConfigError("code_dim too small for the requested code_rank")
        if self.beta_min <= 0:
            raise ConfigError("beta_min must be positive")


class LayeredFieldParams:
    """Named parameter blocks plus the fixed sinusoid basis of the temporal codes."""

    def __init__(self, config: FieldConfig, blocks: dict[str, np.ndarray]):
        missing = set(BLOCK_NAMES) - set(blocks)
        if missing:
            raise ConfigError(f"missing parameter blocks: {sorted(missing)}")
        self.config = config
        self.blocks = {k: np.asarray(v, dtype=np.float64) for k, v in blocks.items()}
        self.basis = fourier_rows(config.code_rank, config.code_dim)  # (P, D)

    def copy(self) -> "LayeredFieldParams":
        return LayeredFieldParams(
            self.config, {k: v.copy() for k, v in self.blocks.items()}
        )

    def code_table(self, which: str) -> np.ndarray:
        """(T, D) table of per-frame codes for one consumer ('ss' or 'dy')."""
        return self.blocks[f"code_{which}"] @ self.basis


def block_shapes(config: FieldConfig) -> dict[str, tuple[int, ...]]:
    """The shape of every parameter block under `config`, in BLOCK_NAMES order."""
    r, c0, k = config.grid_res, config.feat_channels, config.mix_k
    rs, rd, kd = config.ss_grid_res, config.dyn_grid_res, config.dyn_mix_k
    p, d, t = config.code_rank, config.code_dim, config.n_frames
    return {
        "phi0": (r, r, r, c0),
        "st_grid": (r, r, r, 5),
        "st_head": (5, c0),
        "ss_grids": (rs, rs, rs, k, 5),
        "ss_head": (5, c0),
        "ss_zmap_w": (k, d),
        "ss_zmap_b": (k,),
        "code_ss": (t, p),
        "dy_grids": (rd, rd, rd, kd, 5),
        "dy_zmap_w": (kd, d),
        "dy_zmap_b": (kd,),
        "code_dy": (t, p),
    }


# `init_params`: the base density of each layer, and the scale of the
# symmetry-breaking noise on the grids and heads.
INIT_SIGMA_STATIC = 0.10
INIT_SIGMA_SEMI_STATIC = 0.02
INIT_SIGMA_DYNAMIC = 0.01
INIT_NOISE = 0.01


def init_params(config: FieldConfig, seed: int = 0) -> LayeredFieldParams:
    """Fresh parameters: near-constant layers at the INIT_SIGMA_* base densities.

    Mixing-coefficient biases start at (1, 0, ...) so the first grid of each
    time-dependent layer is live from step zero; the codes and maps carry
    small noise for symmetry breaking.
    """
    cfg = config
    rng = np.random.default_rng(seed)
    shape = block_shapes(cfg)

    def g(name):
        return INIT_NOISE * rng.standard_normal(shape[name])

    st_grid = g("st_grid")
    st_grid[..., 0] += softplus_inv(INIT_SIGMA_STATIC)
    ss_grids = g("ss_grids")
    ss_grids[..., 0, 0] += softplus_inv(INIT_SIGMA_SEMI_STATIC)
    dy_grids = g("dy_grids")
    dy_grids[..., 0, 0] += softplus_inv(INIT_SIGMA_DYNAMIC)
    ss_zmap_b = np.zeros(cfg.mix_k)
    ss_zmap_b[0] = 1.0
    dy_zmap_b = np.zeros(cfg.dyn_mix_k)
    dy_zmap_b[0] = 1.0
    # Start the per-frame coefficients as smooth sinusoids of normalized
    # time (plus noise): the gates then vary over t from step one, which
    # is what lets the grids specialize to "before" and "after" phases.
    # Sinusoid columns that alias to zero at this frame count fall back
    # to noise.
    t, p = shape["code_ss"]
    zt = np.empty((t, p))
    for col in range(p):
        wave = _sinusoid(col, t)
        zt[:, col] = wave * np.sqrt(t) if wave is not None else rng.standard_normal(t)
    code_ss = zt + 0.02 * rng.standard_normal((t, p))
    code_dy = zt + 0.02 * rng.standard_normal((t, p))
    blocks = {
        "phi0": g("phi0"),
        "st_grid": st_grid,
        "st_head": g("st_head"),
        "ss_grids": ss_grids,
        "ss_head": g("ss_head"),
        "ss_zmap_w": 0.05 * rng.standard_normal(shape["ss_zmap_w"]),
        "ss_zmap_b": ss_zmap_b,
        "code_ss": code_ss,
        "dy_grids": dy_grids,
        "dy_zmap_w": 0.05 * rng.standard_normal(shape["dy_zmap_w"]),
        "dy_zmap_b": dy_zmap_b,
        "code_dy": code_dy,
    }
    return LayeredFieldParams(cfg, blocks)


def zero_params(config: FieldConfig) -> LayeredFieldParams:
    """All-zero parameters (constant softplus(0) density everywhere in support)."""
    return LayeredFieldParams(
        config, {name: np.zeros(shape) for name, shape in block_shapes(config).items()}
    )


# ---------------------------------------------------------------------------
# Trilinear interpolation
# ---------------------------------------------------------------------------

_CORNERS = np.array(
    [[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], dtype=np.int64
)


@dataclass(frozen=True)
class _Lookup:
    """Trilinear lookup of a point batch in one grid domain.

    `idx` (B, 8) are flat corner indices, `w` (B, 8) the corner weights and
    `inside` (B,) marks the points inside the box [lo, hi]^3. `row0` offsets
    each point's indices to its grid's first row in a table of stacked grids.
    """

    idx: np.ndarray
    w: np.ndarray
    inside: np.ndarray

    @classmethod
    def at(cls, pts: np.ndarray, lo, hi, res: int, row0=0) -> "_Lookup":
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        inside = (pts[:, 0] >= lo[0]) & (pts[:, 0] <= hi[0])
        for a in (1, 2):
            inside &= (pts[:, a] >= lo[a]) & (pts[:, a] <= hi[a])
        g = (pts - lo) / (hi - lo) * (res - 1)
        g = np.clip(g, 0.0, res - 1.0)
        i0 = np.minimum(g.astype(np.int64), res - 2)
        base = (i0[:, 0] * res + i0[:, 1]) * res + i0[:, 2] + row0
        offsets = (_CORNERS[:, 0] * res + _CORNERS[:, 1]) * res + _CORNERS[:, 2]
        # One contiguous (B,) row per axis and corner weight; corner
        # o = 4i + 2j + k gets (wx[i] * wy[j]) * wz[k], the product order of
        # a (B, 2, 2, 2) broadcast outer product, without building one.
        fx, fy, fz = np.ascontiguousarray((g - i0).T)
        wz = (1.0 - fz, fz)
        wxy = [a * b for a in (1.0 - fx, fx) for b in (1.0 - fy, fy)]
        w = np.stack([wxy[o >> 1] * wz[o & 1] for o in range(8)])  # (8, B)
        return cls(base[:, None] + offsets[None, :], w.T, inside)

    def read(self, grid: np.ndarray) -> np.ndarray:
        """Trilinear read; `grid` is (R, R, R, ...channels) -> (B, ...channels)."""
        res3 = grid.shape[0] * grid.shape[1] * grid.shape[2]
        gf = grid.reshape(res3, math.prod(grid.shape[3:]))  # res3 is 0 for an empty batch's table
        vals = np.take(gf, self.idx, axis=0)  # (B, 8, C); faster than gf[self.idx]
        out = np.einsum("bo,boc->bc", self.w, vals)
        return out.reshape((self.idx.shape[0],) + grid.shape[3:])

    def adjoint(self, shape, dvals: np.ndarray) -> np.ndarray:
        """Adjoint of :meth:`read`; returns a dense gradient array of `shape`.

        One ordered segment sum (`np.bincount`) per channel over the flattened
        corner indices. Terms are laid out corner-major (all points' corner 0,
        then corner 1, ...), so every cell adds its terms in the same order as
        eight sequential unbuffered scatter-adds would.
        """
        res3 = shape[0] * shape[1] * shape[2]
        c = int(np.prod(shape[3:]))
        dv = dvals.reshape(dvals.shape[0], c)
        idx = self.idx.T.ravel()
        wt = np.ascontiguousarray(self.w.T)  # (8, B)
        out = np.empty((res3, c))
        for ch in range(c):
            out[:, ch] = np.bincount(idx, weights=(wt * dv[:, ch]).ravel(), minlength=res3)
        return out.reshape(shape)


def _frustum_points(x_cam: np.ndarray, fr: FrustumSpec):
    """Map camera points to [0, 1]^3 frustum-box coordinates plus validity mask."""
    d = -x_cam[:, 2]
    safe_d = np.where(d > 1e-9, d, 1.0)
    span = 1.0 + fr.margin
    sx = fr.fx * (x_cam[:, 0] / safe_d) / (fr.width / 2.0)
    sy = fr.fy * (x_cam[:, 1] / safe_d) / (fr.height / 2.0)
    inv_n, inv_f = 1.0 / fr.near, 1.0 / fr.far
    q = (inv_n - 1.0 / np.where(d > 1e-9, d, fr.near)) / (inv_n - inv_f)
    ok = (
        (d >= fr.near)
        & (d <= fr.far)
        & (np.abs(sx) <= span)
        & (np.abs(sy) <= span)
    )
    u = np.stack(
        [(sx / span + 1.0) / 2.0, (sy / span + 1.0) / 2.0, np.clip(q, 0.0, 1.0)],
        axis=-1,
    )
    return u, ok


# ---------------------------------------------------------------------------
# Layer evaluation
# ---------------------------------------------------------------------------


def _mix(params: LayeredFieldParams, which: str, frames: np.ndarray):
    """(A, Z, G) of layer `which` ('ss' or 'dy') at the frames `frames`.

    Z (F, D) are the frames' temporal codes, A = Z @ zmap_w^T + zmap_b (F, K)
    the mixing coefficients and G (K, R³·5) the layer's K grids as rows, so
    row f of A @ G is the layer's grid at frame `frames[f]`, its K grids mixed.

    The products with A and G go through `np.einsum`, not `@`: on 2 cores
    with OpenBLAS 0.3.31, its threaded (60, 3) @ (3, 8640) fold took 16 ms
    against 0.4 ms on one thread, and the render and gradient worker
    threads contend for its threads.
    """
    b = params.blocks
    grids = b[f"{which}_grids"]
    k = grids.shape[3]
    z = params.code_table(which)[frames]
    a = z @ b[f"{which}_zmap_w"].T + b[f"{which}_zmap_b"]
    return a, z, grids.reshape(-1, k, 5).swapaxes(0, 1).reshape(k, -1)


@dataclass
class LayerEvalCache:
    """Intermediates retained for the hand-written backward pass."""

    world: _Lookup  # world domain at the static resolution
    # semi-static and dynamic reads of their folded (F·R, R, R, 5) tables
    mixed: tuple[_Lookup, _Lookup]
    phi0: np.ndarray  # (B, C0)
    pre: np.ndarray  # (B, 3 layers, 5 channels) pre-activations
    color: np.ndarray  # (B, 3 layers, 3) the colors returned
    support: np.ndarray  # (B, 3) 1 inside a layer's spatial support, else 0
    frames: np.ndarray  # (F,) the batch's frames, ascending: block f of a table

    @property
    def n_points(self) -> int:
        return self.pre.shape[0]


def _lookups(cfg: FieldConfig, pts_world: np.ndarray, pts_cam: np.ndarray, block=0):
    """(world, semi-static, dynamic) lookups of a point batch and its (B, 3) layer support.

    The time-dependent lookups read grid `block` (B,) of their stacked tables.
    """
    if not (np.all(np.isfinite(pts_world)) and np.all(np.isfinite(pts_cam))):
        raise NumericalError("non-finite point coordinates passed to eval_layers")
    world = _Lookup.at(pts_world, cfg.world_lo, cfg.world_hi, cfg.grid_res)
    res = cfg.ss_grid_res
    ss = _Lookup.at(pts_world, cfg.world_lo, cfg.world_hi, res, block * res**3)
    # `ok` implies u in [0, 1]^3, so it is the whole dynamic support.
    upts, ok = _frustum_points(pts_cam, cfg.frustum)
    res = cfg.dyn_grid_res
    dy = _Lookup.at(upts, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), res, block * res**3)
    support = np.stack([world.inside, world.inside, ok], axis=1).astype(np.float64)
    return world, ss, dy, support


def _activate(pre: np.ndarray, support: np.ndarray, beta_min: float):
    """(sigma, color, beta) from (B, 3 layers, 5 channels) pre-activations."""
    sigma = softplus(pre[:, :, 0]) * support
    color = sigmoid(pre[:, :, 1:4])
    beta = softplus(pre[:, :, 4]) + beta_min
    return sigma, color, beta


def eval_layers_batch(
    params: LayeredFieldParams,
    pts_world: np.ndarray,
    pts_cam: np.ndarray,
    t_idx: np.ndarray,
):
    """Evaluate all three layers at a flat batch of points.

    Returns (sigma (B, 3), color (B, 3, 3), beta (B, 3), cache) with the
    layer axis ordered (static, semi-static, dynamic); `cache` is what
    :func:`backward_eval_layers` needs. Density is zero outside a layer's
    spatial support.

    The time mixing of the semi-static and dynamic layers is linear, and a
    linear map commutes with trilinear interpolation. So each of them is
    folded once per call, for the F frames the batch holds, into a table of
    F mixed grids, and a point at frame t reads 5 channels from block t. The
    static layer and the semi-static head on `phi0` are applied per point.
    """
    cfg = params.config
    b = params.blocks
    t_idx = np.asarray(t_idx, dtype=np.int64)
    if np.any((t_idx < 0) | (t_idx >= cfg.n_frames)):
        raise DomainError("frame index outside [0, T)")
    # np.unique would sort; this is 4x cheaper on a render item's 8,192 points.
    present = np.bincount(t_idx, minlength=cfg.n_frames) > 0
    frames = np.flatnonzero(present)
    block = np.cumsum(present)[t_idx] - 1  # each point's table block
    world, ss, dy, support = _lookups(cfg, pts_world, pts_cam, block)

    phi0 = world.read(b["phi0"])
    pre_mixed = []
    for which, lookup in (("ss", ss), ("dy", dy)):
        a, _, g = _mix(params, which, frames)
        res = b[f"{which}_grids"].shape[0]
        table = np.einsum("fk,kx->fx", a, g).reshape(-1, res, res, 5)  # see _mix
        pre_mixed.append(lookup.read(table))
    pre = np.stack(  # (B, 3 layers, 5 channels)
        [
            world.read(b["st_grid"]) + phi0 @ b["st_head"].T,
            pre_mixed[0] + phi0 @ b["ss_head"].T,
            pre_mixed[1],
        ],
        axis=1,
    )
    sigma, color, beta = _activate(pre, support, cfg.beta_min)
    cache = LayerEvalCache(world, (ss, dy), phi0, pre, color, support, frames)
    return sigma, color, beta, cache


def backward_eval_layers(
    params: LayeredFieldParams,
    cache: LayerEvalCache,
    d_sigma: np.ndarray,
    d_color: np.ndarray,
    d_beta: np.ndarray,
    parts=tuple(PARTITION),
) -> dict[str, np.ndarray]:
    """Exact adjoint of :func:`eval_layers_batch` for the partitions named in `parts`.

    `parts` is a subset of ("st", "ss", "dy"); the result holds a gradient
    for every block of those partitions (default: all three) and no other.
    The work that only feeds other partitions is skipped; e.g. without "st"
    neither the `st_grid` nor the `phi0` scatter runs. A returned gradient
    does not depend on which other partitions were requested. Frames the
    batch does not hold get exactly zero code rows. Any other name in `parts`
    raises `DomainError`.
    """
    if set(parts) - set(PARTITION):
        raise DomainError(f"unknown partitions {sorted(set(parts) - set(PARTITION))}; use st, ss, dy")
    b = params.blocks
    pre, color = cache.pre, cache.color
    dpre = np.empty_like(pre)  # (B, 3 layers, 5 channels) pre-activation gradients
    # softplus' is sigmoid, at the density and uncertainty pre-activations
    dpre[:, :, 0] = d_sigma * (sigmoid(pre[:, :, 0]) * cache.support)
    dpre[:, :, 1:4] = d_color * (color * (1.0 - color))
    dpre[:, :, 4] = d_beta * sigmoid(pre[:, :, 4])
    dpre_st, dpre_ss, dpre_dy = dpre[:, 0], dpre[:, 1], dpre[:, 2]

    grads: dict[str, np.ndarray] = {}
    if "st" in parts:
        grads["st_grid"] = cache.world.adjoint(b["st_grid"].shape, dpre_st)
        grads["st_head"] = dpre_st.T @ cache.phi0
        dphi0 = dpre_st @ b["st_head"] + dpre_ss @ b["ss_head"]
        grads["phi0"] = cache.world.adjoint(b["phi0"].shape, dphi0)
    if "ss" in parts:
        grads["ss_head"] = dpre_ss.T @ cache.phi0

    n_f = cache.frames.shape[0]
    for which, dpre_l, lookup in zip(("ss", "dy"), (dpre_ss, dpre_dy), cache.mixed):
        if which not in parts:
            continue
        a, z, g = _mix(params, which, cache.frames)
        shape = b[f"{which}_grids"].shape
        # Adjoint of the table read, then of the fold `a @ g`; D is dense
        # per call and reduced here, so no caller holds it.
        d = lookup.adjoint((n_f * shape[0],) + shape[1:3] + (5,), dpre_l).reshape(n_f, g.shape[1])
        dg = np.einsum("fk,fx->kx", a, d)  # (K, R³·5)
        grads[f"{which}_grids"] = dg.reshape(shape[3], -1, 5).swapaxes(0, 1).reshape(shape)
        da = np.einsum("fx,kx->fk", d, g)  # (F, K)
        grads[f"{which}_zmap_w"] = da.T @ z
        grads[f"{which}_zmap_b"] = da.sum(axis=0)
        code = grads[f"code_{which}"] = np.zeros(b[f"code_{which}"].shape)
        code[cache.frames] = (da @ b[f"{which}_zmap_w"]) @ params.basis.T
    return grads


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

_MAGIC = b"LMF2"


def save_checkpoint(params: LayeredFieldParams, path, meta: dict | None = None) -> str:
    """One file, written whole: the magic 'LMF2', the little-endian u32 length
    of a sorted-key UTF-8 JSON header {"blocks": [[name, shape], ...],
    "config": ..., "meta": ...}, then every block as raw little-endian float64
    in BLOCK_NAMES order. Returns the file's SHA-256.
    """
    header = {
        "blocks": [[name, list(params.blocks[name].shape)] for name in BLOCK_NAMES],
        "config": asdict(params.config),
        "meta": meta or {},
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [_MAGIC, len(head).to_bytes(4, "little"), head]
    parts += [np.ascontiguousarray(params.blocks[name], dtype="<f8").tobytes() for name in BLOCK_NAMES]
    return imgio.write_bytes(path, b"".join(parts))


def is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _checked_keys(d, cls, where: str) -> dict:
    """`d` if it holds exactly the fields of `cls`, an int in every `int`
    field and a finite number in every `float` field; else `DataError`."""
    if not isinstance(d, dict):
        raise DataError(f"{where} is not a JSON object")
    want = {f.name for f in fields(cls)}
    if set(d) != want:
        raise DataError(
            f"{where}: unknown keys {sorted(set(d) - want)}, missing keys {sorted(want - set(d))}"
        )
    for f in fields(cls):
        v = d[f.name]
        if f.type == "int" and not is_int(v):
            raise DataError(f"{where}: {f.name} must be an integer, got {v!r}")
        if f.type == "float" and not _is_finite_number(v):
            raise DataError(f"{where}: {f.name} must be a finite number, got {v!r}")
    return dict(d)


def _is_finite_number(v) -> bool:
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int too large for a float
        return False


def check_world_box(lo, hi, where: str) -> tuple[tuple, tuple]:
    """The world box corners `lo`, `hi` as read from JSON, as two tuples.

    Each corner must be a list of 3 finite numbers, and lo < hi on every
    axis; anything else raises `DataError`.
    """
    for key, box in (("world_lo", lo), ("world_hi", hi)):
        if not (isinstance(box, list) and len(box) == 3 and all(_is_finite_number(v) for v in box)):
            raise DataError(f"{where}: {key} must be a list of 3 finite numbers, got {box!r}")
    if not all(a < b for a, b in zip(lo, hi)):
        raise DataError(f"{where}: world_lo must be below world_hi on every axis, got {lo} and {hi}")
    return tuple(lo), tuple(hi)


def load_checkpoint(path):
    """Inverse of :func:`save_checkpoint`; returns (params, meta).

    Checks, in order: the magic, the header length, the header JSON, the
    config (exactly the fields of :class:`FieldConfig`, a valid world box,
    values it accepts), the header's block list against the shapes the config
    implies, and the byte count. Any defect raises `DataError`.
    """
    data = imgio.read_bytes(path)
    if data[:4] != _MAGIC[: len(data)]:
        raise DataError(f"{path}: bad magic, not an LMF2 checkpoint")
    n = int.from_bytes(data[4:8], "little")
    if len(data) < 8 + n:
        raise DataError(f"{path}: truncated checkpoint, the header is cut short")
    try:
        header = json.loads(data[8 : 8 + n])
    except ValueError as e:
        raise DataError(f"{path}: header is not valid JSON ({e})") from e
    if not isinstance(header, dict) or set(header) != {"blocks", "config", "meta"}:
        raise DataError(f"{path}: the header must be a JSON object of blocks, config and meta")
    if not (isinstance(header["blocks"], list) and isinstance(header["meta"], dict)):
        raise DataError(f"{path}: the header's blocks must be a JSON list and its meta an object")
    where = f"{path}: config"
    cfg_d = _checked_keys(header["config"], FieldConfig, where)
    cfg_d["world_lo"], cfg_d["world_hi"] = check_world_box(cfg_d["world_lo"], cfg_d["world_hi"], where)
    try:
        cfg_d["frustum"] = FrustumSpec(**_checked_keys(cfg_d["frustum"], FrustumSpec, f"{path}: frustum"))
        config = FieldConfig(**cfg_d)
    except (ConfigError, TypeError, ValueError) as e:
        raise DataError(f"{where}: bad config ({e})") from e
    # The list is checked even where the byte count would agree: a config
    # edit can keep the total size (n_frames 60 -> 80 with code_rank 4 -> 3).
    shapes = block_shapes(config)
    want = [[name, list(shape)] for name, shape in shapes.items()]
    if header["blocks"] != want:
        i, got, exp = next((i, a, b) for i, (a, b) in enumerate(zip_longest(header["blocks"], want)) if a != b)
        raise DataError(f"{path}: block {i} in the header is {got}, the config implies {exp}")
    size = 8 + n + 8 * sum(math.prod(shape) for shape in shapes.values())
    if len(data) < size:
        raise DataError(f"{path}: truncated checkpoint, the block data is cut short")
    if len(data) > size:
        raise DataError(f"{path}: trailing bytes after the last block")
    blocks, offset = {}, 8 + n
    for name, shape in shapes.items():
        count = math.prod(shape)
        # astype copies, so no block keeps the file's bytes alive.
        blocks[name] = np.frombuffer(data, "<f8", count, offset).reshape(shape).astype(np.float64)
        offset += 8 * count
    return LayeredFieldParams(config, blocks), header["meta"]
