"""Shared fixtures.

The benchmark fixtures are session-scoped because training the ablation
variants dominates suite runtime; every test that needs a trained model
shares the same four runs (rgb-only, rgb+nmf, full fusion, refined).
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from layermotion import evalkit, renderer, scenegen
from layermotion.dataset import dataset_from_scene
from layermotion.fields import init_params
from layermotion.losses import LossConfig
from layermotion.trainer import RefineConfig, TrainConfig, refine, train

BENCH_SEED = 0
# Training profile for the desk-scale acceptance runs: enough steps for the
# layer decomposition to form, small enough to keep the suite fast.
BENCH_TRAIN = dict(
    epochs=8,
    steps_per_epoch=60,
    rays_per_step=2048,
    n_samples=16,
    learning_rate=2e-3,
    seed=BENCH_SEED,
    workers=2,
)
BENCH_REFINE = dict(
    steps=240,
    learning_rate=1e-3,
    rays_per_step=2048,
    n_samples=16,
    seed=BENCH_SEED,
    workers=2,
)


@pytest.fixture(scope="session")
def bench_scene():
    return scenegen.generate_scene(scenegen.benchmark_config("lmf-bench-v1", seed=BENCH_SEED))


@pytest.fixture(scope="session")
def bench_gt(bench_scene):
    return scenegen.render_ground_truth(bench_scene)


@pytest.fixture(scope="session")
def bench_pseudo(bench_gt):
    return scenegen.degrade_to_pseudo_masks(bench_gt, recall=0.6, fpr=0.002, seed=BENCH_SEED)


@pytest.fixture(scope="session")
def bench_dataset(bench_scene, bench_gt, bench_pseudo):
    cfg = scenegen.benchmark_config("lmf-bench-v1", seed=BENCH_SEED)
    return dataset_from_scene(bench_scene, bench_gt, bench_pseudo, cfg)


def _mask_predictions(params, ds, frames):
    preds = {}
    for t in frames:
        out = renderer.render_frame(
            params, ds.poses[t], t=t, n_samples=64, workers=2,
            channels=("mask_ss", "mask_dy"),
        )
        preds[t] = (out["mask_ss"], out["mask_dy"])
    return preds


def _ss_share_on_dynamic(params, ds, frames):
    vals = []
    for t in frames:
        out = renderer.render_frame(
            params, ds.poses[t], t=t, n_samples=64, workers=2, channels=("mask_ss",)
        )
        vals.append(out["mask_ss"][ds.mask_dyn[t]].mean())
    return float(np.mean(vals))


@pytest.fixture(scope="session")
def bench_runs(bench_dataset):
    """Train the ablation variants once and evaluate them on the eval frames.

    Returns a dict with params, EvalReports, the pseudo-mask baseline
    report, semi-static leakage statistics, and wall-clock stage timings.
    """
    ds = bench_dataset
    frames = ds.eval_frames
    fcfg = ds.field_config()
    base = init_params(fcfg, seed=BENCH_SEED)
    out = {"timings": {}, "params": {}, "reports": {}}

    t0 = time.time()
    variants = {
        "rgb": ("rgb",),
        "nmf": ("rgb", "nmf"),
        "lmf": ("rgb", "pmf", "nmf"),
    }
    for name, losses in variants.items():
        t1 = time.time()
        params, log = train(base, ds, TrainConfig(loss=LossConfig(terms=losses), **BENCH_TRAIN))
        out["timings"][f"train_{name}"] = time.time() - t1
        out["params"][name] = params
        out[f"log_{name}"] = log
    t1 = time.time()
    refined, _, probe = refine(
        out["params"]["lmf"], ds, RefineConfig(frames=frames, **BENCH_REFINE)
    )
    out["timings"]["refine"] = time.time() - t1
    out["params"]["tr"] = refined
    out["probe_losses"] = probe

    t1 = time.time()
    for name in ("rgb", "nmf", "lmf", "tr"):
        preds = _mask_predictions(out["params"][name], ds, frames)
        out["reports"][name] = evalkit.evaluate(preds, ds, frames, label=name)
    out["timings"]["render_eval"] = time.time() - t1

    pseudo_preds = {t: (np.zeros_like(ds.pseudo[t]), ds.pseudo[t]) for t in frames}
    out["reports"]["pseudo"] = evalkit.evaluate(pseudo_preds, ds, frames, label="pseudo")
    out["ss_on_dyn"] = {
        name: _ss_share_on_dynamic(out["params"][name], ds, frames)
        for name in ("rgb", "nmf")
    }
    out["total_time"] = time.time() - t0
    return out
