import math

import numpy as np
import pytest

from layermotion import cli, scenegen
from layermotion.dataset import dataset_from_scene
from layermotion.errors import ConfigError, DomainError
from layermotion.fields import init_params
from layermotion.losses import LossConfig
from layermotion.trainer import (
    GUARD_EVERY,
    Adam,
    RefineConfig,
    TrainConfig,
    cosine_lr,
    neighbor_frames,
    partition_digest,
    refine,
    refinement_set,
    train,
)


@pytest.fixture(scope="module")
def tiny_dataset():
    cfg = scenegen.SceneConfig(name="tiny", n_frames=6, height=20, width=20, seed=2,
                               eval_stride=2)
    scene = scenegen.generate_scene(cfg)
    gt = scenegen.render_ground_truth(scene)
    pseudo = scenegen.degrade_to_pseudo_masks(gt, 0.7, 0.003, seed=2)
    return dataset_from_scene(scene, gt, pseudo, cfg)


TINY_TRAIN = dict(epochs=2, steps_per_epoch=4, rays_per_step=256, n_samples=8,
                  learning_rate=2e-3, seed=1)


class TestNeighborFrames:
    def test_window_zero(self):
        assert neighbor_frames(10, 0, 60) == [10]

    def test_interior_window(self):
        assert neighbor_frames(10, 2, 60) == [8, 9, 10, 11, 12]

    def test_clipped_at_start_brute_force(self):
        expected = sorted({t for t in range(1 - 5, 1 + 5 + 1) if 0 <= t < 60})
        assert neighbor_frames(1, 5, 60) == expected == [0, 1, 2, 3, 4, 5, 6]

    def test_validation(self):
        with pytest.raises(DomainError):
            neighbor_frames(60, 1, 60)
        with pytest.raises(DomainError):
            neighbor_frames(0, -1, 60)


class TestRefinementSet:
    def test_singleton(self):
        assert refinement_set([5], 0, 60) == [5]

    def test_overlapping_windows_deduplicate(self):
        assert refinement_set([5, 6], 1, 60) == [4, 5, 6, 7]

    def test_brute_force_union(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            t_total = int(rng.integers(2, 50))
            frames = rng.integers(0, t_total, size=rng.integers(1, 6)).tolist()
            window = int(rng.integers(0, 8))
            expected = sorted(
                {t for f in frames for t in range(f - window, f + window + 1)
                 if 0 <= t < t_total}
            )
            assert refinement_set(frames, window, t_total) == expected

    def test_empty_set_rejected(self):
        with pytest.raises(ConfigError):
            refinement_set([], 0, 60)


class TestTrain:
    def test_identical_seed_identical_result(self, tiny_dataset):
        params = init_params(tiny_dataset.field_config(), seed=0)
        a, _ = train(params, tiny_dataset, TrainConfig(**TINY_TRAIN))
        b, _ = train(params, tiny_dataset, TrainConfig(**TINY_TRAIN))
        for name in a.blocks:
            np.testing.assert_array_equal(a.blocks[name], b.blocks[name])

    def test_worker_count_invariance(self, tiny_dataset):
        params = init_params(tiny_dataset.field_config(), seed=0)
        a, _ = train(params, tiny_dataset, TrainConfig(**{**TINY_TRAIN, "workers": 1}))
        b, _ = train(params, tiny_dataset, TrainConfig(**{**TINY_TRAIN, "workers": 2}))
        for name in a.blocks:
            np.testing.assert_array_equal(a.blocks[name], b.blocks[name])

    def test_loss_decreases(self, tiny_dataset):
        params = init_params(tiny_dataset.field_config(), seed=0)
        cfg = TrainConfig(**{**TINY_TRAIN, "epochs": 4})
        _, log = train(params, tiny_dataset, cfg)
        first = np.mean([r["l_total"] for r in log[: cfg.steps_per_epoch]])
        last = np.mean([r["l_total"] for r in log[-cfg.steps_per_epoch :]])
        assert last < first

    def test_config_validation(self):
        for bad in (
            dict(learning_rate=0.0), dict(epochs=0), dict(epochs=-1), dict(n_samples=1),
            dict(steps_per_epoch=0), dict(steps_per_epoch=-3), dict(workers=0),
            dict(learning_rate=math.nan), dict(learning_rate=math.inf),
        ):
            with pytest.raises(ConfigError):
                TrainConfig(**bad)
        # The loss settings are checked where they live.
        for bad in (
            dict(threshold=1.5), dict(threshold=0.0), dict(lambda_pmf=-1.0),
            dict(lambda_pmf=math.nan), dict(lambda_pmf=math.inf),
            dict(lambda_nmf=math.nan), dict(lambda_nmf=math.inf),
        ):
            with pytest.raises(ConfigError):
                LossConfig(**bad)

    def test_refine_config_shares_the_checks(self):
        for bad in (
            dict(learning_rate=0.0), dict(rays_per_step=0), dict(n_samples=1),
            dict(neighbors=-1), dict(steps=-1), dict(workers=0),
            dict(learning_rate=math.nan), dict(learning_rate=math.inf),
        ):
            with pytest.raises(ConfigError):
                RefineConfig(frames=(0,), **bad)

    def test_loss_defaults_have_one_source(self):
        for cfg in (TrainConfig(), RefineConfig(frames=(0,))):
            assert cfg.loss == LossConfig()
        # Terms are kept in LOSS_TERMS order without repeats; the CLI strips names.
        assert LossConfig(terms=("nmf", "rgb", "pmf", "rgb")) == LossConfig()
        args = cli.build_parser().parse_args(["train", "--workspace", "ws", "--losses", "rgb, pmf,nmf,"])
        assert cli._settings(args)["loss"] == LossConfig()
        with pytest.raises(ConfigError):
            LossConfig(terms=("rgb", "bogus"))

    def test_log_row_columns(self, tiny_dataset):
        params = init_params(tiny_dataset.field_config(), seed=0)
        _, log = train(params, tiny_dataset, TrainConfig(**TINY_TRAIN))
        assert len(log) == 8
        assert set(log[0]) == {
            "epoch", "step", "l_rgb", "l_pmf", "l_nmf", "l_total",
            "grad_norm_st", "grad_norm_ss", "grad_norm_dy",
        }


@pytest.fixture(scope="module")
def trained(tiny_dataset):
    params = init_params(tiny_dataset.field_config(), seed=0)
    out, _ = train(params, tiny_dataset, TrainConfig(**TINY_TRAIN))
    return out


class TestRefine:
    def test_zero_steps_identity(self, tiny_dataset, trained):
        out, log, probes = refine(
            trained, tiny_dataset,
            RefineConfig(frames=(1, 3), steps=0, rays_per_step=128, n_samples=6, seed=3),
        )
        for name in trained.blocks:
            np.testing.assert_array_equal(out.blocks[name], trained.blocks[name])

    def test_freeze_contract(self, tiny_dataset, trained):
        out, _, _ = refine(
            trained, tiny_dataset,
            RefineConfig(frames=(1, 3), steps=12, rays_per_step=128, n_samples=6,
                         learning_rate=1e-3, seed=3),
        )
        assert partition_digest(out, "st") == partition_digest(trained, "st")
        changed = (
            partition_digest(out, "ss") != partition_digest(trained, "ss")
            or partition_digest(out, "dy") != partition_digest(trained, "dy")
        )
        assert changed

    def test_probe_losses_non_increasing(self, tiny_dataset, trained):
        _, _, probes = refine(
            trained, tiny_dataset,
            RefineConfig(frames=(0, 2, 4), steps=100,
                         rays_per_step=128, n_samples=6, learning_rate=2e-3, seed=4),
        )
        assert len(probes) == 1 + 100 // GUARD_EVERY  # the initial probe plus four rounds
        assert all(b <= a + 1e-12 for a, b in zip(probes, probes[1:]))

    @pytest.mark.parametrize("lr, rolled_back", [
        (1.0, [True, True, True, True]),
        (0.1, [True, False, False, False]),
    ], ids=["every_round", "first_round"])
    def test_rolled_back_rounds(self, tiny_dataset, trained, monkeypatch, lr, rolled_back):
        steps, adam_step = [], Adam.step

        def recording_step(self, blocks, grads, lr_scale=1.0):
            steps.append((lr_scale, self.t))
            adam_step(self, blocks, grads, lr_scale)

        monkeypatch.setattr(Adam, "step", recording_step)
        cfg = RefineConfig(frames=(0, 2, 4), steps=100, rays_per_step=128, n_samples=6,
                           learning_rate=lr, seed=4)
        out, _, probes = refine(trained, tiny_dataset, cfg)
        # A rolled-back round repeats the last accepted loss, halves the rate
        # and takes the optimizer back to its step count at the round's start.
        assert [b == a for a, b in zip(probes, probes[1:])] == rolled_back
        assert all(b < a for a, b, back in zip(probes, probes[1:], rolled_back) if not back)
        rounds = [(0.5 ** sum(rolled_back[:i]), GUARD_EVERY * rolled_back[:i].count(False))
                  for i in range(len(rolled_back))]
        assert steps == [(rate, t + k) for rate, t in rounds for k in range(GUARD_EVERY)]
        assert partition_digest(out, "st") == partition_digest(trained, "st")
        again, _, _ = refine(trained, tiny_dataset, cfg)
        for name in out.blocks:
            assert out.blocks[name].tobytes() == again.blocks[name].tobytes()
            if all(rolled_back):
                assert out.blocks[name].tobytes() == trained.blocks[name].tobytes()

    def test_deterministic(self, tiny_dataset, trained):
        cfg = RefineConfig(frames=(1,), steps=10, rays_per_step=128, n_samples=6, seed=5)
        a, _, _ = refine(trained, tiny_dataset, cfg)
        b, _, _ = refine(trained, tiny_dataset, cfg)
        for name in a.blocks:
            np.testing.assert_array_equal(a.blocks[name], b.blocks[name])

    def test_neighbor_window_expands_pool(self, tiny_dataset, trained):
        cfg = RefineConfig(frames=(3,), neighbors=2, steps=4, rays_per_step=64,
                           n_samples=6, seed=6)
        out, log, _ = refine(trained, tiny_dataset, cfg)
        assert len(log) == 4


@pytest.mark.slow
def test_refinement_on_eval_frames_improves_dyn_map(bench_runs):
    # Refining with full fusion on exactly the evaluated frames must squeeze
    # out strictly more dynamic mAP on those frames than the base model.
    base = bench_runs["reports"]["lmf"].map_dyn
    refined = bench_runs["reports"]["tr"].map_dyn
    assert refined > base


@pytest.mark.slow
def test_rgb_training_improves_psnr_by_5db(bench_dataset, bench_runs):
    from layermotion.renderer import render_frame

    from naive_ref import psnr

    ds = bench_dataset
    fresh = init_params(ds.field_config(), seed=0)
    trained = bench_runs["params"]["rgb"]
    gains = []
    for t in (0, 30):
        before = render_frame(fresh, ds.poses[t], t=t, n_samples=64, workers=2,
                              channels=("color",))["color"]
        after = render_frame(trained, ds.poses[t], t=t, n_samples=64, workers=2,
                             channels=("color",))["color"]
        gains.append(psnr(after, ds.rgb[t]) - psnr(before, ds.rgb[t]))
    assert np.mean(gains) >= 5.0


class TestAdamAndSchedule:
    def test_cosine_endpoints(self):
        assert cosine_lr(0, 100) == pytest.approx(1.0)
        assert cosine_lr(99, 100) == pytest.approx(0.0, abs=1e-12)
        assert cosine_lr(0, 1) == 1.0

    def test_adam_moves_toward_minimum(self):
        blocks = {"w": np.array([4.0])}
        opt = Adam(["w"], lr=0.1)
        for _ in range(200):
            grads = {"w": 2.0 * blocks["w"]}
            opt.step(blocks, grads)
        assert abs(blocks["w"][0]) < 0.2

    def test_block_lr_multiplier(self):
        # st_grid steps at 50x the base rate, st_head at the base rate.
        blocks = {"st_grid": np.array([1.0]), "st_head": np.array([1.0])}
        opt = Adam(["st_grid", "st_head"], lr=0.01)
        grads = {"st_grid": np.array([1.0]), "st_head": np.array([1.0])}
        opt.step(blocks, grads)
        assert (1.0 - blocks["st_grid"][0]) > (1.0 - blocks["st_head"][0]) * 5
