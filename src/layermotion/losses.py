"""Training objective and exact analytic gradients.

Three terms, reported separately and summed without extra weights (the
lambda factors live inside the fusion terms):

  rgb   uncertainty-weighted reconstruction,
        mean_u [ ||pred - target||^2 / (2 B^2) + log B^2 ]
  pmf   positive motion fusion: mean_u lambda_pmf * (mask_dy - M)^2,
        pulling the dynamic layer's rendered mask toward the soft 2D label,
  nmf   negative motion fusion: lambda_nmf * mean over labeled-dynamic
        pixels of mask_ss^2, silencing the semi-static layer there. The
        pixel set comes from binarizing M at `threshold` and is normalized
        per minibatch; an empty set gives zero loss.

Gradients are hand-derived end to end (quadrature, density-share mixing,
activations, trilinear interpolation, temporal-code factors) and validated
against central finite differences. Each chunk takes its rays in frame
order (a stable sort of the batch by frame index), so a chunk holds a
narrow run of frames and the per-call time-mix fold stays small. Chunks
run on a thread pool of the requested size, one code path for any worker
count, and their contributions are summed in chunk order, so results are
bit-identical for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, NumericalError
from .fields import PARTITION, LayeredFieldParams, backward_eval_layers
from .renderer import backward_composite, render_batch

# Rays per reduction chunk, taken in frame order; fixed so workers cannot
# reorder math.
GRAD_CHUNK = 512
LOSS_TERMS = ("rgb", "pmf", "nmf")


@dataclass(frozen=True)
class LossConfig:
    """The enabled loss terms, by name, and the motion-fusion settings.

    `terms` is stored in LOSS_TERMS order without repeats; an unknown name,
    or none at all, raises `ConfigError`.
    """

    terms: tuple[str, ...] = LOSS_TERMS
    lambda_pmf: float = 1.1
    lambda_nmf: float = 1.0
    threshold: float = 0.5

    def __post_init__(self):
        if not (0 <= self.lambda_pmf < np.inf and 0 <= self.lambda_nmf < np.inf):
            raise ConfigError("lambda_pmf and lambda_nmf must be finite and non-negative")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError("threshold must lie in (0, 1)")
        unknown = set(self.terms) - set(LOSS_TERMS)
        if unknown:
            raise ConfigError(f"unknown loss names: {sorted(unknown)}")
        if not self.terms:
            raise ConfigError("no loss term enabled; name at least one of rgb, pmf, nmf")
        object.__setattr__(self, "terms", tuple(n for n in LOSS_TERMS if n in self.terms))


@dataclass(frozen=True)
class LossReport:
    l_rgb: float
    l_pmf: float
    l_nmf: float
    l_total: float
    grad_norms: dict[str, float]
    n_fused: int  # |Omega-bar|, pixels the binarized label marks dynamic


@dataclass(frozen=True)
class RayBatch:
    """A flat batch of rays with quadrature nodes and supervision targets."""

    origins: np.ndarray  # (N, 3)
    nus: np.ndarray  # (N, 3), ray marches origin - nu * depth
    rot: np.ndarray  # (N, 3, 3) world->camera per ray
    trans: np.ndarray  # (N, 3)
    t_idx: np.ndarray  # (N,)
    depths: np.ndarray  # (N, K)
    deltas: np.ndarray  # (N, K)
    target_rgb: np.ndarray  # (N, 3)
    mask_values: np.ndarray  # (N,) soft labels in [0, 1]

    @property
    def n_rays(self) -> int:
        return self.origins.shape[0]

    def points(self, rows):
        """World and camera sample points of the rays `rows` (a slice or index array)."""
        pts = (
            self.origins[rows, None, :]
            - self.nus[rows, None, :] * self.depths[rows, :, None]
        )
        pts_cam = (
            np.einsum("nij,nkj->nki", self.rot[rows], pts) + self.trans[rows, None, :]
        )
        return pts, pts_cam


def _add_into(total: dict[str, np.ndarray], part: dict[str, np.ndarray]) -> None:
    for name, g in part.items():
        if name in total:
            total[name] += g
        else:
            total[name] = g


def total_loss_and_gradients(
    params: LayeredFieldParams,
    batch: RayBatch,
    cfg: LossConfig = LossConfig(),
    workers: int = 1,
    parts=tuple(PARTITION),
):
    """Evaluate the enabled loss terms and exact gradients for the partitions in `parts`.

    Returns (LossReport, grads) where grads maps every block of the
    partitions named in `parts` (a subset of ("st", "ss", "dy"); default:
    all three) to an array of matching shape. Gradients of other blocks are
    never computed, and their partition norms in the report read 0.0. An
    empty `parts` runs the forward pass and the loss terms, with every
    finiteness check, and no backward pass. Neither the losses nor a
    requested gradient depend on `parts`. Duplicating every ray in the
    batch leaves both the losses and the gradients unchanged.
    """
    n = batch.n_rays
    if n == 0:
        raise DomainError("empty ray batch")
    if workers < 1:
        raise DomainError("workers must be at least 1")
    fused = batch.mask_values >= cfg.threshold
    n_fused = int(fused.sum())

    # Frame-ordered chunks: each one folds only the frames its rays hold.
    order = np.argsort(batch.t_idx, kind="stable")
    chunks = [order[i : i + GRAD_CHUNK] for i in range(0, n, GRAD_CHUNK)]
    results: list[tuple] = [None] * len(chunks)

    def run(ci: int) -> None:
        rows = chunks[ci]
        pts, pts_cam = batch.points(rows)
        bundle, cache, field_cache = render_batch(
            params, pts, pts_cam, batch.deltas[rows], batch.t_idx[rows]
        )
        sums = np.zeros(3)  # per-term sums of per-ray contributions
        # Loss gradient per render channel; 0.0 where no enabled term reads it.
        d_color = d_uncertainty = d_mask_ss = d_mask_dy = 0.0
        if "rgb" in cfg.terms:
            resid = bundle.color - batch.target_rgb[rows]
            err = np.sum(resid**2, axis=-1)
            bsq = bundle.uncertainty**2
            sums[0] = np.sum(err / (2.0 * bsq) + np.log(bsq))
            d_color = resid / bsq[:, None] / n
            d_uncertainty = (-err / bundle.uncertainty**3 + 2.0 / bundle.uncertainty) / n
        if "pmf" in cfg.terms:
            d = bundle.mask_dy - batch.mask_values[rows]
            sums[1] = cfg.lambda_pmf * np.sum(d**2)
            d_mask_dy = 2.0 * cfg.lambda_pmf * d / n
        if "nmf" in cfg.terms and n_fused > 0:
            sel = fused[rows]
            sums[2] = cfg.lambda_nmf * np.sum((bundle.mask_ss * sel) ** 2)
            d_mask_ss = 2.0 * cfg.lambda_nmf * bundle.mask_ss * sel / n_fused
        if not parts:
            results[ci] = (sums, {})
            return
        grads = backward_eval_layers(
            params,
            field_cache,
            *backward_composite(cache, d_color, d_uncertainty, d_mask_ss, d_mask_dy),
            parts=parts,
        )
        results[ci] = (sums, grads)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run, range(len(chunks))))

    total_sums = np.zeros(3)
    grads: dict[str, np.ndarray] = {}
    for sums, part in results:  # fixed chunk order: deterministic reduction
        total_sums += sums
        _add_into(grads, part)

    l_rgb = float(total_sums[0] / n) if "rgb" in cfg.terms else 0.0
    l_pmf = float(total_sums[1] / n) if "pmf" in cfg.terms else 0.0
    l_nmf = float(total_sums[2] / n_fused) if ("nmf" in cfg.terms and n_fused > 0) else 0.0
    l_total = l_rgb + l_pmf + l_nmf
    if not np.isfinite(l_total):
        raise NumericalError("non-finite training loss")
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient in parameter block '{name}'")

    norms = {
        part: float(
            np.sqrt(sum(float(np.sum(grads[b] ** 2)) for b in names if b in grads))
        )
        for part, names in PARTITION.items()
    }
    report = LossReport(
        l_rgb=l_rgb,
        l_pmf=l_pmf,
        l_nmf=l_nmf,
        l_total=l_total,
        grad_norms=norms,
        n_fused=n_fused,
    )
    return report, grads
