import importlib.util
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from layermotion import losses
from layermotion.errors import ConfigError, DomainError
from layermotion.fields import BLOCK_NAMES, PARTITION
from layermotion.geometry import look_at
from layermotion.losses import GRAD_CHUNK, LossConfig, RayBatch, total_loss_and_gradients
from layermotion.renderer import render_batch, sample_depths

from naive_ref import nmf_loss, pmf_loss, rgb_loss
from test_fields import randomized_params, small_config


def make_batch(cfg, n_rays=12, n_samples=6, seed=0, mask_values=None, out_of_support=False):
    """Random supervised rays through a handful of poses of the small frustum."""
    rng = np.random.default_rng(seed)
    poses = [
        look_at(
            (0.6 * np.cos(a), 0.6 * np.sin(a), 0.1),
            (0, 0, 0),
            fx=cfg.frustum.fx,
            fy=cfg.frustum.fy,
            cx=cfg.frustum.cx,
            cy=cfg.frustum.cy,
        )
        for a in np.linspace(0.0, 0.9, cfg.n_frames)
    ]
    t_idx = rng.integers(0, cfg.n_frames, n_rays)
    nus = []
    origins = []
    for i in range(n_rays):
        pose = poses[t_idx[i]]
        ux, uy = rng.uniform(0, cfg.frustum.width - 1, 2)
        d_cam = np.array([(ux - pose.cx) / pose.fx, (uy - pose.cy) / pose.fy, -1.0])
        d_w = pose.rotation.T @ d_cam
        nus.append(-d_w / np.linalg.norm(d_w))
        origins.append(pose.center)
    near = np.full(n_rays, 0.05)
    far = np.full(n_rays, 2.2)
    if out_of_support:
        near, far = near + 50.0, far + 50.0
    depths, deltas = sample_depths(near, far, n_samples, stratified=True, seed=seed + 1)
    if mask_values is None:
        mask_values = rng.uniform(0, 1, n_rays)
    return RayBatch(
        origins=np.stack(origins),
        nus=np.stack(nus),
        rot=np.stack([poses[t].rotation for t in t_idx]),
        trans=np.stack([poses[t].translation for t in t_idx]),
        t_idx=t_idx,
        depths=depths,
        deltas=deltas,
        target_rgb=rng.uniform(0, 1, (n_rays, 3)),
        mask_values=np.asarray(mask_values, dtype=np.float64),
    )


class TestRgbLoss:
    def test_perfect_fit_unit_uncertainty(self):
        pred = np.random.default_rng(0).random((5, 3))
        assert rgb_loss(pred, pred, np.ones(5)) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self):
        pred = np.array([[1.0, 1.0, 0.0]])
        target = np.array([[0.0, 0.0, 0.0]])  # squared error 2
        assert rgb_loss(pred, target, np.ones(1)) == pytest.approx(1.0, abs=1e-15)

    def test_per_pixel_stationarity_by_numeric_minimization(self):
        # The uncertainty minimizing e/(2B^2) + log B^2 for a fixed squared
        # error e, found by 1-D numeric minimization.
        rng = np.random.default_rng(1)
        for _ in range(5):
            pred = rng.random((1, 3))
            target = rng.random((1, 3))
            e = float(np.sum((pred - target) ** 2))
            grid = np.linspace(1e-3, 3.0, 200_000)
            vals = e / (2.0 * grid**2) + np.log(grid**2)
            b_star = grid[np.argmin(vals)]
            assert b_star**2 == pytest.approx(e / 2.0, rel=1e-3)
            # and it is a minimum of the implemented loss
            lo = rgb_loss(pred, target, np.array([b_star]))
            assert lo <= rgb_loss(pred, target, np.array([b_star * 1.1]))
            assert lo <= rgb_loss(pred, target, np.array([b_star * 0.9]))

    def test_matches_scalar_recomputation(self):
        rng = np.random.default_rng(2)
        pred = rng.random((9, 3))
        target = rng.random((9, 3))
        b = rng.uniform(0.2, 2.0, 9)
        expected = 0.0
        for i in range(9):
            e = sum((pred[i, c] - target[i, c]) ** 2 for c in range(3))
            expected += e / (2 * b[i] ** 2) + np.log(b[i] ** 2)
        expected /= 9
        assert rgb_loss(pred, target, b) == pytest.approx(expected, abs=1e-12)

    def test_rejects_non_positive_uncertainty(self):
        with pytest.raises(DomainError):
            rgb_loss(np.zeros((1, 3)), np.zeros((1, 3)), np.zeros(1))


class TestPmfLoss:
    def test_exact_match(self):
        m = np.random.default_rng(3).random(20)
        assert pmf_loss(m, m) == 0.0

    def test_paper_weight_on_unit_error(self):
        # Full miss on every pixel of a 10-pixel batch scores the fusion
        # weight itself.
        assert pmf_loss(np.zeros(10), np.ones(10)) == pytest.approx(1.1, abs=1e-15)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(4)
        pred = rng.random(17)
        m = rng.random(17)
        expected = 1.1 * sum((pred[i] - m[i]) ** 2 for i in range(17)) / 17
        assert pmf_loss(pred, m) == pytest.approx(expected, abs=1e-12)


class TestNmfLoss:
    def test_silent_semi_static(self):
        assert nmf_loss(np.zeros(8), np.ones(8, dtype=bool)) == 0.0

    def test_empty_selection_is_zero(self):
        assert nmf_loss(np.full(8, 0.7), np.zeros(8, dtype=bool)) == 0.0

    def test_half_mass_on_selected(self):
        assert nmf_loss(np.full(6, 0.5), np.ones(6, dtype=bool)) == pytest.approx(0.25)

    def test_binarization_threshold_selects_support(self):
        # For any threshold at or below the smallest positive value, the
        # selected set is exactly the support of the soft mask.
        values = np.array([0.0, 0.3, 0.0, 0.9, 0.25])
        theta = values[values > 0].min()
        np.testing.assert_array_equal(values >= theta, values > 0)


class TestTotalLossAndGradients:
    def test_workers_must_be_positive(self):
        # Zero once ran serially; the one thread-pool path needs at least one.
        cfg = small_config()
        batch = make_batch(cfg, n_rays=4, seed=3)
        with pytest.raises(DomainError, match="workers"):
            total_loss_and_gradients(randomized_params(cfg, seed=3), batch, LossConfig(), workers=0)

    def test_zero_density_pmf_only_all_gradients_zero(self):
        cfg = small_config()
        params = randomized_params(cfg, seed=5)
        batch = make_batch(cfg, mask_values=np.zeros(12), out_of_support=True)
        report, grads = total_loss_and_gradients(
            params, batch, LossConfig(terms=("pmf",))
        )
        assert report.l_pmf == 0.0
        for g in grads.values():
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_finite_difference_single_ray_two_samples(self):
        cfg = small_config()
        params = randomized_params(cfg, seed=6)
        batch = make_batch(cfg, n_rays=1, n_samples=2, seed=7)
        lcfg = LossConfig()
        _, grads = total_loss_and_gradients(params, batch, lcfg)
        h = 1e-5
        rng = np.random.default_rng(8)
        for name, arr in params.blocks.items():
            flat = arr.ravel()
            for i in rng.choice(flat.size, size=min(10, flat.size), replace=False):
                old = flat[i]
                flat[i] = old + h
                lp, _ = total_loss_and_gradients(params, batch, lcfg)
                flat[i] = old - h
                lm, _ = total_loss_and_gradients(params, batch, lcfg)
                flat[i] = old
                fd = (lp.l_total - lm.l_total) / (2 * h)
                a = grads[name].ravel()[i]
                assert abs(a - fd) / max(abs(a), abs(fd), 1e-3) < 1e-4

    def test_terms_match_scalar_oracles(self):
        cfg = small_config()
        params = randomized_params(cfg, seed=25)
        batch = make_batch(cfg, n_rays=40, seed=26)
        report, _ = total_loss_and_gradients(params, batch, LossConfig(), parts=())
        pts, pts_cam = batch.points(slice(None))
        out, _, _ = render_batch(params, pts, pts_cam, batch.deltas, batch.t_idx)
        fused = batch.mask_values >= LossConfig().threshold
        assert report.l_rgb == pytest.approx(
            rgb_loss(out.color, batch.target_rgb, out.uncertainty), abs=1e-12)
        assert report.l_pmf == pytest.approx(pmf_loss(out.mask_dy, batch.mask_values), abs=1e-12)
        assert report.l_nmf == pytest.approx(nmf_loss(out.mask_ss, fused), abs=1e-12)

    def test_batch_duplication_invariance(self):
        cfg = small_config()
        params = randomized_params(cfg, seed=9)
        batch = make_batch(cfg, n_rays=8, seed=10)
        doubled = RayBatch(
            origins=np.tile(batch.origins, (2, 1)),
            nus=np.tile(batch.nus, (2, 1)),
            rot=np.tile(batch.rot, (2, 1, 1)),
            trans=np.tile(batch.trans, (2, 1)),
            t_idx=np.tile(batch.t_idx, 2),
            depths=np.tile(batch.depths, (2, 1)),
            deltas=np.tile(batch.deltas, (2, 1)),
            target_rgb=np.tile(batch.target_rgb, (2, 1)),
            mask_values=np.tile(batch.mask_values, 2),
        )
        r1, g1 = total_loss_and_gradients(params, batch, LossConfig())
        r2, g2 = total_loss_and_gradients(params, doubled, LossConfig())
        assert r2.l_total == pytest.approx(r1.l_total, abs=1e-12)
        for name in g1:
            np.testing.assert_allclose(g2[name], g1[name], atol=1e-12)

    def test_ray_order_across_chunks(self):
        # Three chunks; shuffling the rays regroups them, so only rounding moves.
        cfg = small_config()
        params = randomized_params(cfg, seed=27)
        batch = make_batch(cfg, n_rays=2 * GRAD_CHUNK + 8, n_samples=3, seed=28)
        perm = np.random.default_rng(29).permutation(batch.n_rays)
        shuffled = RayBatch(**{f.name: getattr(batch, f.name)[perm] for f in fields(RayBatch)})
        r1, g1 = total_loss_and_gradients(params, batch, LossConfig())
        r2, g2 = total_loss_and_gradients(params, shuffled, LossConfig())
        assert r2.n_fused == r1.n_fused
        assert r2.l_total == pytest.approx(r1.l_total, abs=1e-12)
        for name in g1:
            np.testing.assert_allclose(g2[name], g1[name], atol=1e-12)

    def test_pmf_gradient_ignores_static_color(self):
        cfg = small_config()
        params = randomized_params(cfg, seed=11)
        batch = make_batch(cfg, seed=12)
        _, grads = total_loss_and_gradients(params, batch, LossConfig(terms=("pmf",)))
        np.testing.assert_array_equal(grads["st_grid"][..., 1:4], 0.0)
        np.testing.assert_array_equal(grads["st_head"][1:4, :], 0.0)

    def test_nmf_descent_direction(self):
        cfg = small_config()
        params = randomized_params(cfg, seed=13)
        batch = make_batch(cfg, seed=14, mask_values=np.linspace(0, 1, 12))
        lcfg = LossConfig(terms=("nmf",))
        before, grads = total_loss_and_gradients(params, batch, lcfg)
        if before.l_nmf == 0.0:
            pytest.skip("no labeled-dynamic pixels drawn")
        step = 1e-6
        for name, g in grads.items():
            params.blocks[name] -= step * g
        after, _ = total_loss_and_gradients(params, batch, lcfg)
        assert after.l_nmf <= before.l_nmf

    def test_report_identity_and_counts(self):
        cfg = small_config()
        params = randomized_params(cfg, seed=15)
        mask = np.array([0.9] * 5 + [0.1] * 7)
        batch = make_batch(cfg, seed=16, mask_values=mask)
        report, _ = total_loss_and_gradients(params, batch, LossConfig())
        assert report.l_total == pytest.approx(
            report.l_rgb + report.l_pmf + report.l_nmf, abs=1e-12
        )
        assert report.n_fused == 5
        assert report.l_pmf >= 0.0 and report.l_nmf >= 0.0
        assert set(report.grad_norms) == set(PARTITION)

    def test_toggle_validation(self):
        with pytest.raises(ConfigError):
            LossConfig(terms=("rgb", "bogus"))
        with pytest.raises(ConfigError):
            LossConfig(terms=())

    def test_worker_count_invariance(self):
        cfg = small_config()
        params = randomized_params(cfg, seed=19)
        batch = make_batch(cfg, n_rays=600, n_samples=3, seed=20)
        r1, g1 = total_loss_and_gradients(params, batch, LossConfig(), workers=1)
        r2, g2 = total_loss_and_gradients(params, batch, LossConfig(), workers=3)
        assert r1.l_total == r2.l_total
        for name in g1:
            np.testing.assert_array_equal(g1[name], g2[name])


    def test_chunks_are_frame_grouped(self, monkeypatch):
        cfg = small_config(n_frames=12)
        params = randomized_params(cfg, seed=30)
        batch = make_batch(cfg, n_rays=2 * GRAD_CHUNK + 8, n_samples=3, seed=31)
        assert np.any(np.diff(batch.t_idx) < 0)  # the frames are interleaved
        results = {w: total_loss_and_gradients(params, batch, LossConfig(), workers=w)
                   for w in (1, 2)}
        seen = []

        def recording_render_batch(params, pts, pts_cam, deltas, t_idx):
            seen.append(np.array(t_idx))
            return render_batch(params, pts, pts_cam, deltas, t_idx)

        monkeypatch.setattr(losses, "render_batch", recording_render_batch)
        total_loss_and_gradients(params, batch, LossConfig(), workers=1)
        assert [len(t) for t in seen] == [GRAD_CHUNK, GRAD_CHUNK, 8]
        np.testing.assert_array_equal(np.sort(np.concatenate(seen)), np.sort(batch.t_idx))
        for t in seen:
            assert np.all(np.diff(t) >= 0)
        for a, b in zip(seen, seen[1:]):
            assert set(a) & set(b) <= {a[-1]}
        (r1, g1), (r2, g2) = results[1], results[2]
        assert r1 == r2
        for name in g1:
            assert g1[name].tobytes() == g2[name].tobytes()


class TestGradientSubset:
    def test_empty_set_matches_full_losses_bit_for_bit(self):
        cfg = small_config()
        params = randomized_params(cfg, seed=21)
        batch = make_batch(cfg, n_rays=600, n_samples=3, seed=22)
        full, _ = total_loss_and_gradients(params, batch, LossConfig(), workers=2)
        probe, grads = total_loss_and_gradients(params, batch, LossConfig(), workers=2, parts=())
        assert grads == {}
        for field in ("l_rgb", "l_pmf", "l_nmf", "l_total", "n_fused"):
            assert getattr(probe, field) == getattr(full, field)
        assert probe.grad_norms == {"st": 0.0, "ss": 0.0, "dy": 0.0}

    def test_refined_blocks_match_full_call(self):
        cfg = small_config()
        params = randomized_params(cfg, seed=23)
        batch = make_batch(cfg, n_rays=600, n_samples=3, seed=24)
        blocks = PARTITION["ss"] + PARTITION["dy"]
        r_full, g_full = total_loss_and_gradients(params, batch, LossConfig(), workers=2)
        r_part, g_part = total_loss_and_gradients(
            params, batch, LossConfig(), workers=2, parts=("ss", "dy")
        )
        assert set(g_part) == set(blocks)
        for name in blocks:
            np.testing.assert_array_equal(g_part[name], g_full[name])
        assert r_part.l_total == r_full.l_total
        assert r_part.grad_norms["st"] == 0.0
        assert r_part.grad_norms["ss"] == r_full.grad_norms["ss"]
        assert r_part.grad_norms["dy"] == r_full.grad_norms["dy"]
        assert set(g_full) == set(BLOCK_NAMES)

    def test_unknown_partition_raises(self):
        # Once returned no gradients and zero norms without a word.
        cfg = small_config()
        batch = make_batch(cfg, n_rays=8, seed=25)
        with pytest.raises(DomainError, match="unknown partitions \\['dyn'\\]"):
            total_loss_and_gradients(randomized_params(cfg, seed=25), batch, LossConfig(), parts=("dyn",))


def test_tracer_spans_the_render_stack():
    # perfbench/tracer.py records spans by rebinding `render_batch`,
    # `backward_eval_layers` and `ThreadPoolExecutor` in `losses` and
    # `eval_layers_batch` in `renderer`; a renamed global would silently
    # drop its spans from `perfbench/run.py --trace 1`.
    import layermotion
    import layermotion.cli  # noqa: F401  (the tracer wraps cli names too)

    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)

    cfg = small_config()
    params = randomized_params(cfg, seed=50)
    n_rays, n_samples = GRAD_CHUNK + 8, 3  # two chunks, so the pool runs
    batch = make_batch(cfg, n_rays=n_rays, n_samples=n_samples, seed=51)
    spans = tracer.Tracer()
    with tracer.Instrumentation(spans, layermotion):
        total_loss_and_gradients(params, batch, workers=2)
    by_name = {}
    for span in spans.spans:
        by_name.setdefault(span.name, []).append(span)
    for name in ("renderer.render_batch", "fields.eval_layers_batch",
                 "fields.backward_eval_layers", "losses.chunk"):
        assert len(by_name.get(name, ())) == 2, name
    assert sum(s.attrs["samples"] for s in by_name["renderer.render_batch"]) == n_rays * n_samples
    for name in ("fields.eval_layers_batch", "fields.backward_eval_layers"):
        assert sum(s.attrs["points"] for s in by_name[name]) == n_rays * n_samples
    assert layermotion.losses.render_batch is layermotion.renderer.render_batch  # restored
