"""Base optimization and test-time refinement of the layered field.

Training runs Adam with a cosine-annealed learning rate over random pixel
batches. Refinement restricts the pixel pool to a chosen frame set (plus an
optional symmetric neighbor window per frame), optimizes only the
semi-static and dynamic partitions while the static partition stays
bit-identical, and guards the objective with step-halving: every
GUARD_EVERY steps the refinement loss is probed on a fixed batch and a
round that raised it is rolled back at half the learning rate, so the
accepted probe losses form a non-increasing sequence.

Everything is deterministic given the seed; gradient reductions are
chunk-ordered, and each chunk takes its rays in frame order, which depends
only on the batch, so the worker count never changes the math.
"""

from __future__ import annotations

import copy
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .fields import PARTITION, LayeredFieldParams
from .losses import LossConfig, LossReport, total_loss_and_gradients

# Per-block multipliers on the base learning rate. Grids need far larger
# steps than heads and codes to reach opaque pre-activations within a
# desk-scale step budget; the dynamic grid is deliberately slower so the
# camera-frame layer does not win every transient by default and the
# motion-fusion losses have observable work to do.
DEFAULT_BLOCK_LR: dict[str, float] = {
    "st_grid": 50.0,
    "phi0": 50.0,
    "ss_grids": 50.0,
    "dy_grids": 15.0,
}
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Columns of the training and refinement logs, in CSV order.
LOG_COLUMNS = ("epoch", "step", "l_rgb", "l_pmf", "l_nmf", "l_total",
               "grad_norm_st", "grad_norm_ss", "grad_norm_dy")


@dataclass(frozen=True, kw_only=True)
class OptimConfig:
    """Settings shared by training and refinement."""

    learning_rate: float
    rays_per_step: int = 2048
    n_samples: int = 24
    loss: LossConfig = LossConfig()
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError("learning_rate must be finite and positive")
        if self.rays_per_step < 1:
            raise ConfigError("rays_per_step must be positive")
        if self.n_samples < 2:
            raise ConfigError("n_samples must be at least 2")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")


@dataclass(frozen=True, kw_only=True)
class TrainConfig(OptimConfig):
    learning_rate: float = 5e-4
    epochs: int = 20
    steps_per_epoch: int | None = None  # None: one full sweep over all pixels

    def __post_init__(self):
        super().__post_init__()
        if self.epochs < 1:
            raise ConfigError("epochs must be positive")
        if self.steps_per_epoch is not None and self.steps_per_epoch < 1:
            raise ConfigError("steps_per_epoch must be positive")


@dataclass(frozen=True, kw_only=True)
class RefineConfig(OptimConfig):
    learning_rate: float = 1e-3
    frames: tuple[int, ...]
    neighbors: int = 0
    steps: int = 300

    def __post_init__(self):
        super().__post_init__()
        if self.neighbors < 0:
            raise ConfigError("neighbors must be non-negative")
        if self.steps < 0:
            raise ConfigError("refine steps must be non-negative")


PROBE_RAYS = 4096  # size of the fixed batch on which refinement guards its loss
GUARD_EVERY = 25  # refinement steps per guard round


def neighbor_frames(t_i: int, window: int, n_frames: int) -> list[int]:
    """{t_i - N, ..., t_i + N} clipped to [0, T), ascending."""
    if not 0 <= t_i < n_frames:
        raise DomainError(f"frame {t_i} outside [0, {n_frames})")
    if window < 0:
        raise DomainError("window must be non-negative")
    return list(range(max(t_i - window, 0), min(t_i + window, n_frames - 1) + 1))


def refinement_set(frames, window: int, n_frames: int) -> list[int]:
    """Union of neighbor windows over the requested frames, deduplicated."""
    frames = list(frames)
    if not frames:
        raise ConfigError("refinement needs a nonempty frame set")
    out: set[int] = set()
    for t_i in frames:
        out.update(neighbor_frames(int(t_i), window, n_frames))
    return sorted(out)


class Adam:
    """Per-parameter moment estimation over named blocks.

    Each block's rate is the base rate times its DEFAULT_BLOCK_LR multiplier
    (1.0 for blocks not listed).
    """

    def __init__(self, names, lr: float):
        self.names = tuple(names)
        self.lr = lr
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, blocks: dict[str, np.ndarray], grads: dict[str, np.ndarray], lr_scale: float = 1.0):
        self.t += 1
        b1c = 1.0 - ADAM_BETA1**self.t
        b2c = 1.0 - ADAM_BETA2**self.t
        for name in self.names:
            g = grads[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            rate = self.lr * lr_scale * DEFAULT_BLOCK_LR.get(name, 1.0)
            blocks[name] -= rate * (m / b1c) / (np.sqrt(v / b2c) + ADAM_EPS)


def cosine_lr(step: int, total_steps: int) -> float:
    """Cosine annealing factor from 1 at step 0 toward 0 at the final step."""
    if total_steps <= 1:
        return 1.0
    return 0.5 * (1.0 + math.cos(math.pi * step / (total_steps - 1)))


def partition_digest(params: LayeredFieldParams, part: str) -> str:
    """SHA-256 over one partition's raw parameter bytes (freeze checks)."""
    h = hashlib.sha256()
    for name in PARTITION[part]:
        h.update(np.ascontiguousarray(params.blocks[name], dtype="<f8").tobytes())
    return h.hexdigest()


def train(params: LayeredFieldParams, dataset, cfg: TrainConfig):
    """Optimize all partitions on the dataset; returns (new params, log rows).

    Log rows are dicts matching the training-log CSV columns.
    """
    params = params.copy()
    log: list[dict] = []
    n_pixels = dataset.n_pixels
    steps_per_epoch = cfg.steps_per_epoch or max(n_pixels // cfg.rays_per_step, 1)
    steps_per_epoch = min(steps_per_epoch, max(n_pixels // cfg.rays_per_step, 1))
    total_steps = cfg.epochs * steps_per_epoch
    opt = Adam(list(params.blocks), cfg.learning_rate)
    k = 0
    for epoch in range(cfg.epochs):
        perm = np.random.default_rng([cfg.seed, 11, epoch]).permutation(n_pixels)
        for step in range(steps_per_epoch):
            ids = perm[step * cfg.rays_per_step : (step + 1) * cfg.rays_per_step]
            batch = dataset.ray_batch(
                ids, cfg.n_samples, stratified=True, seed=[cfg.seed, 13, epoch, step]
            )
            report, grads = total_loss_and_gradients(
                params, batch, cfg.loss, workers=cfg.workers
            )
            opt.step(params.blocks, grads, cosine_lr(k, total_steps))
            log.append(_log_row(epoch, k, report))
            k += 1
    return params, log


def _log_row(epoch: int, step: int, report: LossReport) -> dict:
    norms = (report.grad_norms[part] for part in PARTITION)
    values = (epoch, step, report.l_rgb, report.l_pmf, report.l_nmf, report.l_total, *norms)
    return dict(zip(LOG_COLUMNS, values))


def refine(params: LayeredFieldParams, dataset, cfg: RefineConfig):
    """Test-time refinement of the semi-static and dynamic partitions only.

    Returns (refined params, log rows, accepted probe losses). Each step
    differentiates only the "ss" and "dy" partitions, so the static adjoint
    is never computed and the static partition of the result is
    bit-identical to the input; the `grad_norm_st` log column reads 0.0.
    Guard probes evaluate the loss without any backward pass. Each round
    starts from a deep copy of the trainable blocks and the optimizer, and a
    rolled-back round puts that copy back; the static blocks are never
    copied or replaced.
    """
    frames = refinement_set(cfg.frames, cfg.neighbors, dataset.n_frames)
    params = params.copy()
    log: list[dict] = []
    if cfg.steps == 0:
        return params, log, []
    pool = dataset.pixel_ids_for_frames(frames)
    trainable = PARTITION["ss"] + PARTITION["dy"]
    opt = Adam(trainable, cfg.learning_rate)

    probe_rng = np.random.default_rng([cfg.seed, 17])
    probe_ids = probe_rng.choice(pool, size=min(PROBE_RAYS, pool.size), replace=False)
    probe_batch = dataset.ray_batch(probe_ids, cfg.n_samples)

    def probe_loss() -> float:
        report, _ = total_loss_and_gradients(
            params, probe_batch, cfg.loss, cfg.workers, parts=()
        )
        return report.l_total

    accepted = [probe_loss()]
    lr_scale = 1.0
    step = 0
    while step < cfg.steps:
        saved = copy.deepcopy(({name: params.blocks[name] for name in trainable}, opt))
        round_steps = min(GUARD_EVERY, cfg.steps - step)
        for _ in range(round_steps):
            rng = np.random.default_rng([cfg.seed, 23, step])
            ids = rng.choice(pool, size=min(cfg.rays_per_step, pool.size), replace=False)
            batch = dataset.ray_batch(
                ids, cfg.n_samples, stratified=True, seed=[cfg.seed, 29, step]
            )
            report, grads = total_loss_and_gradients(
                params, batch, cfg.loss, cfg.workers, parts=("ss", "dy")
            )
            opt.step(params.blocks, grads, lr_scale)
            log.append(_log_row(-1, step, report))
            step += 1
        new_loss = probe_loss()
        if new_loss <= accepted[-1] + 1e-12:
            accepted.append(new_loss)
        else:
            # Roll the round back and retry more cautiously.
            blocks, opt = saved
            params.blocks.update(blocks)
            lr_scale *= 0.5
            accepted.append(accepted[-1])
    return params, log, accepted
