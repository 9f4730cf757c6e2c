"""Bake an analytic scene into field grids, layer by layer.

Every grid is filled from one `scenegen.material` query over the layer's
objects: nodes on material get a high density pre-activation, empty nodes a
vanishing one, and every node the color of the nearest object, so trilinear
interpolation across a boundary does not bleed gray into it. The
semi-static layer uses two grids gated by the temporal code (early pose /
late pose). The dynamic layer fills its frustum grid directly in camera
coordinates, where camera-pinned objects are constant. Baked fields let
the discrete renderer be checked against the exact analytic ray tracer
with no optimization in the loop.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .fields import FieldConfig, LayeredFieldParams, logit, softplus_inv, zero_params
from .scenegen import DYNAMIC, SEMI_STATIC, STATIC, SceneSpec, material

_DENSE = 400.0  # baked in-material density: opaque within a fraction of a cell
_EMPTY = 1e-4


def _grid_nodes(lo, hi, res: int) -> np.ndarray:
    axes = [np.linspace(lo[i], hi[i], res) for i in range(3)]
    g = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return g.reshape(-1, 3)


def _fill(grid_slice, objects, pts, offsets):
    inside, color = material(objects, pts, offsets)
    grid_slice[..., 0] = np.where(inside, softplus_inv(_DENSE), softplus_inv(_EMPTY))
    grid_slice[..., 1:4] = logit(color)
    grid_slice[..., 4] = softplus_inv(0.05)


def bake_scene(scene: SceneSpec, config: FieldConfig) -> LayeredFieldParams:
    """Field parameters that reproduce the analytic scene when rendered."""
    ss_objects = [o for o in scene.objects if o.category == SEMI_STATIC]
    dy_objects = [o for o in scene.objects if o.category == DYNAMIC]
    st_objects = [o for o in scene.objects if o.category == STATIC]
    if ss_objects and config.mix_k < 2:
        raise ConfigError("need mix_k >= 2 to bake a relocating object")

    params = zero_params(config)
    b = params.blocks
    pts = _grid_nodes(config.world_lo, config.world_hi, config.grid_res)
    _fill(b["st_grid"].reshape(-1, 5), st_objects, pts, [o.offset_a for o in st_objects])

    # Semi-static: grid 0 holds every object at its early pose, grid 1 at its
    # late pose; the temporal code gates grid 0 on for t < t_star, grid 1 after.
    pts_ss = _grid_nodes(config.world_lo, config.world_hi, config.ss_grid_res)
    ss = b["ss_grids"].reshape(-1, config.mix_k, 5)
    ss[..., 0] = softplus_inv(_EMPTY)
    ss[..., 4] = softplus_inv(0.05)
    _fill(ss[:, 0], ss_objects, pts_ss, [o.offset_a for o in ss_objects])
    _fill(ss[:, 1], ss_objects, pts_ss, [o.offset_b for o in ss_objects])
    if ss_objects:
        t_star = ss_objects[0].t_star
        basis = params.basis
        code = np.zeros((config.n_frames, config.code_rank))
        code[:t_star, 0] = 1.0
        code[t_star:, 1 if config.code_rank > 1 else 0] = 1.0
        b["code_ss"][...] = code
        # Basis rows are orthonormal, so row projections recover the gates.
        zmap = np.zeros((config.mix_k, config.code_dim))
        zmap[0] = basis[0]
        if config.code_rank > 1:
            zmap[1] = basis[1]
        b["ss_zmap_w"][...] = zmap
        b["ss_zmap_b"][...] = 0.0

    # Dynamic: camera-pinned objects are constant in frustum coordinates.
    fr = config.frustum
    u = _grid_nodes((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), config.dyn_grid_res)
    span = 1.0 + fr.margin
    inv_n, inv_f = 1.0 / fr.near, 1.0 / fr.far
    d = 1.0 / (inv_n - u[:, 2] * (inv_n - inv_f))
    x = (u[:, 0] * 2.0 - 1.0) * span * d * (fr.width / 2.0) / fr.fx
    y = (u[:, 1] * 2.0 - 1.0) * span * d * (fr.height / 2.0) / fr.fy
    cam_pts = np.stack([x, y, -d], axis=-1)
    dy = b["dy_grids"].reshape(-1, config.dyn_mix_k, 5)
    dy[..., 0] = softplus_inv(_EMPTY)
    dy[..., 4] = softplus_inv(0.05)
    _fill(dy[:, 0], dy_objects, cam_pts, [o.offset_a for o in dy_objects])
    b["dy_zmap_b"][...] = 0.0
    b["dy_zmap_b"][0] = 1.0
    return params
