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
import struct
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

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
    init_sigma_static: float = 0.10
    init_sigma_semi_static: float = 0.02
    init_sigma_dynamic: float = 0.01
    init_noise: float = 0.01

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


def init_params(config: FieldConfig, seed: int = 0) -> LayeredFieldParams:
    """Fresh parameters: near-constant layers at the configured base densities.

    Mixing-coefficient biases start at (1, 0, ...) so the first grid of each
    time-dependent layer is live from step zero; the codes and maps carry
    small noise for symmetry breaking.
    """
    cfg = config
    rng = np.random.default_rng(seed)
    shape = block_shapes(cfg)
    noise = cfg.init_noise

    def g(name):
        return noise * rng.standard_normal(shape[name])

    st_grid = g("st_grid")
    st_grid[..., 0] += softplus_inv(cfg.init_sigma_static)
    ss_grids = g("ss_grids")
    ss_grids[..., 0, 0] += softplus_inv(cfg.init_sigma_semi_static)
    dy_grids = g("dy_grids")
    dy_grids[..., 0, 0] += softplus_inv(cfg.init_sigma_dynamic)
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
    `inside` (B,) marks the points inside the box [lo, hi]^3.
    """

    idx: np.ndarray
    w: np.ndarray
    inside: np.ndarray

    @classmethod
    def at(cls, pts: np.ndarray, lo, hi, res: int) -> "_Lookup":
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
        return cls(base[:, None] + offsets[None, :], w, inside)

    def read(self, grid: np.ndarray) -> np.ndarray:
        """Trilinear read; `grid` is (R, R, R, ...channels) -> (B, ...channels)."""
        res3 = grid.shape[0] * grid.shape[1] * grid.shape[2]
        gf = grid.reshape(res3, -1)
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


class _Mixed(NamedTuple):
    """Forward intermediates of one time-dependent layer."""

    lookup: _Lookup
    g: np.ndarray  # (B, K, 5) grid reads
    a: np.ndarray  # (B, K) mixing coefficients
    z: np.ndarray  # (B, D) temporal codes


def _mixed_layer(params: LayeredFieldParams, which: str, lookup: _Lookup, t_idx):
    """Pre-activations (B, 5) of layer `which` ('ss' or 'dy') and its record.

    The layer's K grid reads are mixed by coefficients that are linear in
    the frame's temporal code.
    """
    b = params.blocks
    g = lookup.read(b[f"{which}_grids"])
    z = params.code_table(which)[t_idx]
    a = z @ b[f"{which}_zmap_w"].T + b[f"{which}_zmap_b"]
    return np.einsum("bk,bkc->bc", a, g), _Mixed(lookup, g, a, z)


@dataclass
class LayerEvalCache:
    """Intermediates retained for the hand-written backward pass."""

    n_points: int
    t_idx: np.ndarray  # (B,)
    world: _Lookup  # world domain at the static resolution
    phi0: np.ndarray  # (B, C0)
    mixed: tuple[_Mixed, _Mixed]  # semi-static, dynamic
    # pre-activation derivative factors, per layer
    dsig: np.ndarray  # (B, 3) softplus' at density pre-activations
    dcol: np.ndarray  # (B, 3, 3) sigmoid' at color pre-activations
    dbet: np.ndarray  # (B, 3) softplus' at uncertainty pre-activations


def eval_layers_batch(
    params: LayeredFieldParams,
    pts_world: np.ndarray,
    pts_cam: np.ndarray,
    t_idx: np.ndarray,
    want_cache: bool = False,
):
    """Evaluate all three layers at a flat batch of points.

    Returns (sigma (B, 3), color (B, 3, 3), beta (B, 3)[, cache]) with the
    layer axis ordered (static, semi-static, dynamic). Density is zero
    outside a layer's spatial support.
    """
    if not (np.all(np.isfinite(pts_world)) and np.all(np.isfinite(pts_cam))):
        raise NumericalError("non-finite point coordinates passed to eval_layers")
    cfg = params.config
    b = params.blocks
    t_idx = np.asarray(t_idx, dtype=np.int64)
    if np.any((t_idx < 0) | (t_idx >= cfg.n_frames)):
        raise DomainError("frame index outside [0, T)")

    world = _Lookup.at(pts_world, cfg.world_lo, cfg.world_hi, cfg.grid_res)
    phi0 = world.read(b["phi0"])
    pre_st = world.read(b["st_grid"]) + phi0 @ b["st_head"].T
    ss_lookup = _Lookup.at(pts_world, cfg.world_lo, cfg.world_hi, cfg.ss_grid_res)
    pre_ss, ss = _mixed_layer(params, "ss", ss_lookup, t_idx)
    pre_ss = pre_ss + phi0 @ b["ss_head"].T
    # `ok` implies u in [0, 1]^3, so it is the whole dynamic support.
    upts, ok = _frustum_points(pts_cam, cfg.frustum)
    dy_lookup = _Lookup.at(upts, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), cfg.dyn_grid_res)
    pre_dy, dy = _mixed_layer(params, "dy", dy_lookup, t_idx)

    pre = np.stack([pre_st, pre_ss, pre_dy], axis=1)  # (B, 3 layers, 5 channels)
    support = np.stack([world.inside, world.inside, ok], axis=1).astype(np.float64)
    sigma = softplus(pre[:, :, 0]) * support
    color = sigmoid(pre[:, :, 1:4])
    beta = softplus(pre[:, :, 4]) + cfg.beta_min

    if not want_cache:
        return sigma, color, beta
    cache = LayerEvalCache(
        n_points=pts_world.shape[0],
        t_idx=t_idx,
        world=world,
        phi0=phi0,
        mixed=(ss, dy),
        dsig=sigmoid(pre[:, :, 0]) * support,
        dcol=color * (1.0 - color),
        dbet=sigmoid(pre[:, :, 4]),
    )
    return sigma, color, beta, cache


def backward_eval_layers(
    params: LayeredFieldParams,
    cache: LayerEvalCache,
    d_sigma: np.ndarray,
    d_color: np.ndarray,
    d_beta: np.ndarray,
    wrt=BLOCK_NAMES,
) -> dict[str, np.ndarray]:
    """Exact adjoint of :func:`eval_layers_batch` for the blocks named in `wrt`.

    Returns gradients for exactly those blocks (default: every block). The
    work that only feeds other blocks is skipped; e.g. without the static
    blocks neither the `st_grid` nor the `phi0` scatter runs. A returned
    gradient does not depend on which other blocks were requested.
    """
    b = params.blocks
    want = set(wrt)
    dpre_sig = d_sigma * cache.dsig
    dpre_col = d_color * cache.dcol
    dpre_bet = d_beta * cache.dbet
    # (B, 3 layers, 5 channels) pre-activation gradients
    dpre = np.concatenate(
        [dpre_sig[:, :, None], dpre_col, dpre_bet[:, :, None]], axis=2
    )
    dpre_st, dpre_ss, dpre_dy = dpre[:, 0], dpre[:, 1], dpre[:, 2]

    grads: dict[str, np.ndarray] = {}
    if "st_grid" in want:
        grads["st_grid"] = cache.world.adjoint(b["st_grid"].shape, dpre_st)
    if "st_head" in want:
        grads["st_head"] = dpre_st.T @ cache.phi0
    if "ss_head" in want:
        grads["ss_head"] = dpre_ss.T @ cache.phi0
    if "phi0" in want:
        dphi0 = dpre_st @ b["st_head"] + dpre_ss @ b["ss_head"]
        grads["phi0"] = cache.world.adjoint(b["phi0"].shape, dphi0)

    for which, dpre_l, (lookup, g, a, z) in zip(("ss", "dy"), (dpre_ss, dpre_dy), cache.mixed):
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
        # z = code[t] @ basis -> accumulate dz @ basis^T into row t,
        # one ordered segment sum per code column
        rows = dz @ params.basis.T  # (B, P)
        n_t, n_p = b[code].shape
        acc = np.empty((n_t, n_p))
        for p in range(n_p):
            acc[:, p] = np.bincount(cache.t_idx, weights=rows[:, p], minlength=n_t)
        grads[code] = acc
    return grads


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

_MAGIC = b"LMF1"


def save_checkpoint(params: LayeredFieldParams, path, meta: dict | None = None) -> None:
    """Binary container: magic 'LMF1', little-endian block headers, raw float64.

    Hyperparameters and run metadata go to a JSON sidecar at `path + '.json'`.
    """
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(BLOCK_NAMES)))
        for name in BLOCK_NAMES:
            arr = params.blocks[name]
            nb = name.encode("ascii")
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    cfg = asdict(params.config)
    cfg["frustum"] = asdict(params.config.frustum)
    sidecar = {"format": "LMF1", "config": cfg, "meta": meta or {}}
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=1, sort_keys=True))


def _checked_keys(d, cls, where: str) -> dict:
    if not isinstance(d, dict):
        raise DataError(f"{where} is not a JSON object")
    want = {f.name for f in fields(cls)}
    if set(d) != want:
        raise DataError(
            f"{where}: unknown keys {sorted(set(d) - want)}, missing keys {sorted(want - set(d))}"
        )
    return dict(d)


def read_sidecar(path) -> tuple[FieldConfig, dict]:
    """The validated JSON sidecar of the checkpoint at `path`: (config, meta).

    Every defect (no file, invalid JSON, no `config`, config keys other
    than the fields of :class:`FieldConfig`, or values it rejects) raises
    `DataError`.
    """
    sidecar_path = Path(str(path) + ".json")
    if not sidecar_path.exists():
        raise DataError(f"checkpoint sidecar not found: {sidecar_path}")
    try:
        sidecar = json.loads(sidecar_path.read_text())
    except ValueError as e:
        raise DataError(f"{sidecar_path}: not valid JSON ({e})") from e
    if not isinstance(sidecar, dict) or "config" not in sidecar:
        raise DataError(f"{sidecar_path}: no 'config' entry")
    meta = sidecar.get("meta", {})
    if not isinstance(meta, dict):
        raise DataError(f"{sidecar_path}: 'meta' is not a JSON object")
    cfg_d = _checked_keys(sidecar["config"], FieldConfig, f"{sidecar_path}: config")
    try:
        cfg_d["frustum"] = FrustumSpec(
            **_checked_keys(cfg_d["frustum"], FrustumSpec, f"{sidecar_path}: frustum")
        )
        for key in ("world_lo", "world_hi"):
            cfg_d[key] = tuple(cfg_d[key])
        return FieldConfig(**cfg_d), meta
    except (ConfigError, TypeError, ValueError) as e:
        raise DataError(f"{sidecar_path}: bad config ({e})") from e


def load_checkpoint(path):
    """Inverse of :func:`save_checkpoint`; returns (params, meta).

    The blocks must be exactly BLOCK_NAMES, each with the shape the
    sidecar's config implies. Each block header is checked as soon as it is
    read, before its data; any mismatch raises `DataError`.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"checkpoint not found: {path}")
    config, meta = read_sidecar(path)
    expected = block_shapes(config)
    blocks: dict[str, np.ndarray] = {}
    size = path.stat().st_size
    with open(path, "rb") as fh:

        def need(n: int, what: str) -> None:
            # Checked against the file size before every read, so a corrupt
            # shape can never make us allocate more than the file holds.
            if n > size - fh.tell():
                raise DataError(f"{path}: truncated checkpoint, {what} is cut short")

        def read(n: int, what: str) -> bytes:
            need(n, what)
            return fh.read(n)

        if read(4, "the magic") != _MAGIC:
            raise DataError(f"{path}: bad magic, not an LMF1 checkpoint")
        (n_blocks,) = struct.unpack("<I", read(4, "the block count"))
        for _ in range(n_blocks):
            (name_len,) = struct.unpack("<H", read(2, "a block name length"))
            raw_name = read(name_len, "a block name")
            if not raw_name.isascii():
                raise DataError(f"{path}: block name {raw_name!r} is not ASCII")
            name = raw_name.decode("ascii")
            if name not in expected:
                raise DataError(f"{path}: unexpected blocks {[name]}")
            if name in blocks:
                raise DataError(f"{path}: block '{name}' appears twice")
            (ndim,) = struct.unpack("<B", read(1, f"the rank of '{name}'"))
            shape = struct.unpack(f"<{ndim}I", read(4 * ndim, f"the shape of '{name}'"))
            n_bytes = 8 * math.prod(shape)
            need(n_bytes, f"the data of '{name}'")
            if shape != expected[name]:
                raise DataError(
                    f"{path}: block '{name}' has shape {shape}, "
                    f"the sidecar config implies {expected[name]}"
                )
            data = fh.read(n_bytes)
            blocks[name] = np.frombuffer(data, dtype="<f8").reshape(shape).astype(np.float64)
        if fh.read(1):
            raise DataError(f"{path}: trailing bytes after the last block")
    if len(blocks) != len(expected):
        raise DataError(f"{path}: missing blocks {sorted(set(expected) - set(blocks))}")
    return LayeredFieldParams(config, blocks), meta
