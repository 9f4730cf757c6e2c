"""Segmentation scoring: per-frame average precision and mAP summaries.

AP convention: pixels are ranked by score, descending, ties broken by
stable original order; AP is the mean of precision-at-rank over the ranks
holding true positives (all-points, uninterpolated). mAP averages per-frame
APs; frames whose ground truth has no positive pixel for a category are
excluded from that category's mean and counted in the report.

Categories: 'dyn' scores the dynamic-mask render against the dynamic ground
truth, 'ss' likewise for semi-static, and 'union' scores
min(mask_ss + mask_dy, 1) against the OR of both ground-truth masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError
from .renderer import RENDER_SAMPLES, render_frame

CATEGORIES = ("dyn", "ss", "union")
# The binarization thresholds at which analyze_pseudo_masks scores the labels.
PSEUDO_THRESHOLDS = np.round(np.arange(0.05, 1.0, 0.05), 10)


def average_precision(scores, gt) -> float:
    """All-points AP of `scores` against a binary `gt` of equal length."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    gt = np.asarray(gt).ravel().astype(bool)
    if scores.shape != gt.shape:
        raise DataError(f"scores/gt length mismatch: {scores.size} vs {gt.size}")
    n_pos = int(gt.sum())
    if n_pos == 0:
        raise DomainError("average precision undefined without positives")
    order = np.argsort(-scores, kind="stable")
    hits = gt[order]
    ranks = np.arange(1, scores.size + 1)
    precision = np.cumsum(hits) / ranks
    return float(precision[hits].mean())


@dataclass(frozen=True)
class EvalReport:
    map_dyn: float
    map_ss: float
    map_union: float
    per_frame: dict[str, dict[int, float]]  # category -> frame -> AP
    skipped: dict[str, list[int]]  # frames without positives, per category
    label: str = ""

    def as_rows(self) -> list[dict]:
        """Flat rows for CSV emission: one per frame per category plus summaries."""
        rows = []
        for cat in CATEGORIES:
            for t, ap in sorted(self.per_frame[cat].items()):
                rows.append({"category": cat, "frame": t, "ap": ap, "kind": "frame"})
        for cat, value in zip(CATEGORIES, (self.map_dyn, self.map_ss, self.map_union)):
            rows.append({"category": cat, "frame": -1, "ap": value, "kind": "summary"})
        return rows

    def summary_table(self) -> str:
        """Plain-text table: Method | Dyn | SS | Dyn+SS, mAP in percent."""
        label = self.label or "model"
        head = f"{'Method':<24}{'Dyn':>8}{'SS':>8}{'Dyn+SS':>8}"
        line = "-" * len(head)
        vals = (
            f"{label:<24}"
            f"{100 * self.map_dyn:>8.2f}{100 * self.map_ss:>8.2f}"
            f"{100 * self.map_union:>8.2f}"
        )
        return "\n".join([head, line, vals])


def evaluate(predictions, ground_truth, frames, label: str = "") -> EvalReport:
    """Score per-frame mask predictions against ground truth.

    `predictions` maps frame index -> (mask_ss, mask_dy) score images;
    `ground_truth` provides mask_dyn / mask_ss arrays indexed by frame.
    Pure function of its inputs. A non-finite score raises `DataError`.
    """
    per_frame: dict[str, dict[int, float]] = {c: {} for c in CATEGORIES}
    skipped: dict[str, list[int]] = {c: [] for c in CATEGORIES}
    for t in frames:
        mask_ss, mask_dy = predictions[t]
        gt_dyn = np.asarray(ground_truth.mask_dyn[t], dtype=bool)
        gt_ss = np.asarray(ground_truth.mask_ss[t], dtype=bool)
        mask_ss = np.asarray(mask_ss, dtype=np.float64)
        mask_dy = np.asarray(mask_dy, dtype=np.float64)
        if mask_ss.shape != gt_ss.shape or mask_dy.shape != gt_dyn.shape:
            raise DataError(f"frame {t}: prediction/ground-truth shape mismatch")
        if not (np.all(np.isfinite(mask_ss)) and np.all(np.isfinite(mask_dy))):
            raise DataError(f"frame {t}: non-finite mask score")
        union_score = np.minimum(mask_ss + mask_dy, 1.0)
        union_gt = gt_dyn | gt_ss
        for cat, score, gt in (
            ("dyn", mask_dy, gt_dyn),
            ("ss", mask_ss, gt_ss),
            ("union", union_score, union_gt),
        ):
            if not gt.any():
                skipped[cat].append(t)
                continue
            per_frame[cat][t] = average_precision(score, gt)

    def mean(cat: str) -> float:
        vals = list(per_frame[cat].values())
        return float(np.mean(vals)) if vals else 0.0

    return EvalReport(
        map_dyn=mean("dyn"),
        map_ss=mean("ss"),
        map_union=mean("union"),
        per_frame=per_frame,
        skipped=skipped,
        label=label,
    )


def evaluate_params(
    params, dataset, frames, label: str = "", n_samples: int = RENDER_SAMPLES, workers: int = 1
) -> EvalReport:
    """Render a model's mask channels on `frames` and score them."""
    preds = {}
    for t in frames:
        out = render_frame(
            params, dataset.poses[t], t=t, n_samples=n_samples, workers=workers,
            channels=("mask_ss", "mask_dy"),
        )
        preds[t] = (out["mask_ss"], out["mask_dy"])
    return evaluate(preds, dataset, frames, label=label)


def analyze_pseudo_masks(pseudo, mask_dyn) -> list[dict]:
    """Pooled precision/recall/FPR/FNR of soft pseudo-labels per threshold.

    `pseudo` holds the soft labels and `mask_dyn` the dynamic ground truth,
    both (T, H, W); one row per PSEUDO_THRESHOLDS entry, ascending.
    """
    values = np.asarray(pseudo, dtype=np.float64)
    gt = np.asarray(mask_dyn, dtype=bool)
    n_pos = int(gt.sum())
    n_neg = int(gt.size - n_pos)
    rows = []
    for theta in PSEUDO_THRESHOLDS:
        pred = values >= theta
        tp = int(np.sum(pred & gt))
        fp = int(np.sum(pred & ~gt))
        fn = n_pos - tp
        precision = tp / (tp + fp) if (tp + fp) > 0 else 1.0
        recall = tp / n_pos if n_pos > 0 else 0.0
        rows.append(
            {
                "threshold": float(theta),
                "precision": precision,
                "recall": recall,
                "fpr": fp / n_neg if n_neg > 0 else 0.0,
                "fnr": fn / n_pos if n_pos > 0 else 0.0,
            }
        )
    return rows
