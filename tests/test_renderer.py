import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from layermotion import renderer
from layermotion.bake import bake_scene
from layermotion.errors import DomainError, RenderError
from layermotion.fields import softplus_inv, zero_params
from layermotion.geometry import look_at, ray_through_pixel, world_to_camera
from layermotion.renderer import (
    CHANNELS,
    DELTA_CAP,
    RENDER_POINTS,
    backward_composite,
    composite_point,
    composite_rays,
    render_batch,
    render_frame,
    render_ray,
    sample_depths,
)
from naive_ref import naive_clip, naive_render_ray, naive_slab
from test_fields import randomized_params, sample_points, small_config, small_frustum


class TestSampling:
    def test_midpoint_rule(self):
        depths, deltas = sample_depths(np.array([0.0]), np.array([1.0]), 2)
        np.testing.assert_allclose(depths[0], [0.25, 0.75])
        np.testing.assert_allclose(deltas[0], [0.5, DELTA_CAP])

    def test_stratified_deterministic(self):
        a, _ = sample_depths(np.zeros(4), np.ones(4), 8, stratified=True, seed=9)
        b, _ = sample_depths(np.zeros(4), np.ones(4), 8, stratified=True, seed=9)
        np.testing.assert_array_equal(a, b)
        c, _ = sample_depths(np.zeros(4), np.ones(4), 8, stratified=True, seed=10)
        assert (a != c).any()

    def test_monte_carlo_bin_means(self):
        n = 10_000
        depths, _ = sample_depths(np.zeros(n), np.ones(n), 4, stratified=True, seed=1)
        centers = np.array([0.125, 0.375, 0.625, 0.875])
        width = 0.25
        tol = 3.0 * (width / np.sqrt(12.0)) / np.sqrt(n)
        np.testing.assert_allclose(depths.mean(axis=0), centers, atol=tol)

    def test_samples_strictly_increasing(self):
        depths, _ = sample_depths(np.zeros(16), np.full(16, 2.7), 32, stratified=True, seed=3)
        assert (np.diff(depths, axis=1) > 0).all()

    def test_sample_ray_with_pose(self):
        pose = look_at((0.4, 0.0, 0.1), (0, 0, 0), fx=8, fy=8, cx=3.5, cy=3.5)
        origin, nu = ray_through_pixel(pose, (3.5, 3.5))
        # the single-ray sampling of render_ray, over [0.1, 1.0]
        depths, _ = sample_depths(np.array([0.1]), np.array([1.0]), 6)
        points_cam = world_to_camera(pose, origin - nu * depths[0][:, None])
        # camera-frame samples of a center ray lie near the optical axis
        assert np.abs(points_cam[:, :2]).max() < 0.15
        assert (points_cam[:, 2] < 0).all()

    def test_invalid_sample_counts(self):
        with pytest.raises(DomainError):
            sample_depths(np.zeros(1), np.ones(1), 1)


class TestCompositePoint:
    def test_single_layer_occupancy(self):
        total, share = composite_point(np.array([0.0, 2.5, 0.0]))
        assert total == 2.5
        np.testing.assert_array_equal(share, [0.0, 1.0, 0.0])

    def test_equal_mixture(self):
        total, share = composite_point(np.ones(3))
        assert total == 3.0
        np.testing.assert_allclose(share, 1 / 3, rtol=1e-15)

    def test_shares_sum_to_one_vs_naive(self):
        rng = np.random.default_rng(4)
        sigma = rng.uniform(0.01, 5.0, (100, 3))
        total, share = composite_point(sigma)
        assert total.shape == (100,) and share.shape == (100, 3)
        np.testing.assert_allclose(share.sum(axis=-1), 1.0, atol=1e-12)
        for i in range(0, 100, 17):
            s = sigma[i].sum()
            assert total[i] == pytest.approx(s, abs=1e-12)
            assert abs(share[i, 0] - sigma[i, 0] / s) < 1e-12
            assert abs(share[i, 1] - sigma[i, 1] / s) < 1e-12
            assert abs(share[i, 2] - sigma[i, 2] / s) < 1e-12

    def test_empty_space_convention(self):
        total, share = composite_point(np.zeros(3))
        assert total == 0.0
        np.testing.assert_array_equal(share, np.zeros(3))


class TestOneSampleMixing:
    """composite_rays on one ray of one opaque sample: each layer's weight is its share."""

    @staticmethod
    def render(sigma, color, beta, beta_min=0.03):
        # sigma * delta = 40 per unit density: the sample's weight is 1 - exp(-40 * total).
        bundle, _ = composite_rays(
            np.array([sigma], dtype=float), np.array([color], dtype=float),
            np.array([beta], dtype=float), np.array([[40.0]]), beta_min,
        )
        return bundle

    def test_single_live_layer(self):
        color = [[0.1, 0.1, 0.1], [0.9, 0.5, 0.2], [0.7, 0.7, 0.7]]
        for layer, mask in enumerate(("mask_st", "mask_ss", "mask_dy")):
            sigma = np.zeros(3)
            sigma[layer] = 2.5
            b = self.render(sigma, color, [1.0, 2.0, 3.0])
            np.testing.assert_allclose(b.color[0], color[layer], rtol=1e-15)
            assert b.uncertainty[0] == pytest.approx(layer + 1.0, rel=1e-15)
            assert getattr(b, mask)[0] == pytest.approx(1.0, rel=1e-15)
            others = {"mask_st", "mask_ss", "mask_dy"} - {mask}
            assert all(getattr(b, m)[0] == 0.0 for m in others)

    def test_equal_mixture_gives_the_means(self):
        b = self.render(np.ones(3), np.eye(3), [1.0, 2.0, 3.0])
        np.testing.assert_allclose(b.color[0], 1 / 3, rtol=1e-15)
        assert b.uncertainty[0] == pytest.approx(2.0, rel=1e-15)
        for mask in ("mask_st", "mask_ss", "mask_dy"):
            assert getattr(b, mask)[0] == pytest.approx(1 / 3, rel=1e-15)

    def test_empty_sample_gives_zero_shares(self):
        b = self.render(np.zeros(3), np.full((3, 3), 0.7), np.ones(3), beta_min=0.03)
        np.testing.assert_array_equal(b.color[0], 0.0)
        assert b.mask_st[0] == b.mask_ss[0] == b.mask_dy[0] == 0.0
        assert b.t_bg[0] == 1.0
        assert b.uncertainty[0] == 0.03

    def test_non_finite_output_names_ray_and_sample(self):
        sigma = np.ones((6, 3))
        color = np.full((6, 3, 3), 0.5)
        color[4, 1, 2] = np.nan  # ray 1 (of 2, 3 samples each), sample 1
        with pytest.raises(RenderError, match="ray 1, sample 1"):
            composite_rays(sigma, color, np.ones((6, 3)), np.full((2, 3), 0.2), 0.03)


class TestBackwardComposite:
    """Central differences of composite_rays against backward_composite."""

    CHANNELS = ("color", "uncertainty", "mask_ss", "mask_dy")

    @staticmethod
    def layer_values(seed, n=6, k=5):
        rng = np.random.default_rng(seed)
        sigma = rng.uniform(0.05, 3.0, (n * k, 3))
        # Exactly zero density in some layers of some samples, one sample
        # with no density at all (not live), and one live sample whose
        # total is carried by a single layer.
        sigma[rng.random((n * k, 3)) < 0.3] = 0.0
        sigma[3] = 0.0
        sigma[7] = [0.0, 0.0, 1.5]
        color = rng.uniform(0.05, 0.95, (n * k, 3, 3))
        beta = rng.uniform(0.05, 1.0, (n * k, 3))
        deltas = rng.uniform(0.05, 0.6, (n, k))
        return sigma, color, beta, deltas

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("channel", CHANNELS)
    def test_each_channel_gradient_matches_finite_differences(self, seed, channel):
        sigma, color, beta, deltas = self.layer_values(seed)
        n = deltas.shape[0]
        beta_min = 0.03
        weight = np.random.default_rng(100 + seed).standard_normal((n, 3) if channel == "color" else n)

        def loss(s, c, b):
            bundle, _ = composite_rays(s, c, b, deltas, beta_min)
            return float(np.sum(weight * getattr(bundle, channel)))

        _, cache = composite_rays(sigma, color, beta, deltas, beta_min)
        grads = {f"d_{name}": 0.0 for name in self.CHANNELS}
        grads[f"d_{channel}"] = weight
        d_sigma, d_color, d_beta = backward_composite(cache, **grads)
        assert d_sigma.shape == sigma.shape
        assert d_color.shape == color.shape
        assert d_beta.shape == beta.shape

        live = sigma.sum(axis=-1) > 0.0
        assert live.sum() < live.size  # the dead sample is in the batch
        h = 1e-5
        worst = 0.0
        for x, dx in ((sigma, d_sigma), (color, d_color), (beta, d_beta)):
            for i in np.flatnonzero(live):
                for j in np.ndindex(x.shape[1:]):
                    at = (i,) + j
                    old = x[at]
                    x[at] = old + h
                    lp = loss(sigma, color, beta)
                    x[at] = old - h
                    lm = loss(sigma, color, beta)
                    x[at] = old
                    fd = (lp - lm) / (2.0 * h)
                    worst = max(worst, abs(dx[at] - fd) / max(abs(fd), abs(dx[at]), 1e-3))
        assert worst < 1e-6

    def test_zero_density_layers_take_no_color_or_beta_gradient(self):
        sigma, color, beta, deltas = self.layer_values(2)
        _, cache = composite_rays(sigma, color, beta, deltas, 0.03)
        n = deltas.shape[0]
        rng = np.random.default_rng(3)
        _, d_color, d_beta = backward_composite(
            cache, rng.standard_normal((n, 3)), rng.standard_normal(n),
            rng.standard_normal(n), rng.standard_normal(n),
        )
        empty = sigma == 0.0
        assert empty.any()
        np.testing.assert_array_equal(d_color[empty], 0.0)
        np.testing.assert_array_equal(d_beta[empty], 0.0)


def transparent_params(cfg):
    """Parameters whose density is numerically zero everywhere."""
    params = zero_params(cfg)
    params.blocks["st_grid"][..., 0] = -60.0
    params.blocks["ss_zmap_b"][0] = 1.0
    params.blocks["ss_grids"][..., 0, 0] = -60.0
    params.blocks["dy_zmap_b"][0] = 1.0
    params.blocks["dy_grids"][..., 0, 0] = -60.0
    return params


class TestRenderRay:
    def test_empty_space(self):
        cfg = small_config()
        params = transparent_params(cfg)
        pose = look_at((0.9, 0.0, 0.0), (0, 0, 0), fx=8, fy=8, cx=3.5, cy=3.5)
        ray = ray_through_pixel(pose, (3.5, 3.5))
        out = render_ray(params, ray, pose, t=0, n_samples=16)
        np.testing.assert_allclose(out.color, 0.0, atol=1e-15)
        assert out.mask_ss == pytest.approx(0.0, abs=1e-15)
        assert out.mask_dy == pytest.approx(0.0, abs=1e-15)
        assert out.t_bg == pytest.approx(1.0, abs=1e-12)
        assert out.uncertainty == pytest.approx(cfg.beta_min, abs=1e-12)

    def test_requires_unit_direction(self):
        params = transparent_params(small_config())
        pose = look_at((0.9, 0.0, 0.0), (0, 0, 0), fx=8, fy=8, cx=3.5, cy=3.5)
        with pytest.raises(DomainError):
            render_ray(params, (np.zeros(3), np.array([0.0, 0.0, 2.0])), pose, t=0)

    def test_camera_outside_box_matches_frame(self):
        # A wide camera outside the world box: its corner rays miss the box,
        # its center rays meet it, and every pixel renders as the frame does.
        cfg = small_config()
        params = randomized_params(cfg, seed=32)
        pose = look_at((3.0, 0.2, 0.1), (0, 0, 0), fx=2.0, fy=2.0, cx=3.5, cy=3.5)
        frame = render_frame(params, pose, t=2, n_samples=10)
        hits = 0
        for iy in range(8):
            for ix in range(8):
                origin, nu = ray_through_pixel(pose, (ix, iy))
                enter, exit_ = naive_slab(origin, -nu, cfg.world_lo, cfg.world_hi)
                hits += bool(exit_ > enter)
                out = render_ray(params, (origin, nu), pose, t=2, n_samples=10)
                for name in CHANNELS:
                    np.testing.assert_allclose(getattr(out, name), frame[name][iy, ix], atol=1e-12)
                if not exit_ > enter:
                    assert out.t_bg == 1.0
        assert 0 < hits < 64

    def test_axis_parallel_rays_above_the_box_render_background(self):
        # The centre row of this odd-height camera is parallel to the z slab
        # and above it, so its rays never enter the box; the rows below do.
        cfg = small_config(frustum=small_frustum(7))
        params = randomized_params(cfg, seed=34)
        pose = look_at((3.0, 0.0, 2.0), (0.0, 0.0, 2.0), fx=8, fy=8, cx=3.0, cy=3.0)
        origin, nu = ray_through_pixel(pose, (3, 3))
        assert np.count_nonzero(nu) == 1
        frame = render_frame(params, pose, t=1, n_samples=10)
        np.testing.assert_array_equal(frame["t_bg"][3], 1.0)
        assert frame["t_bg"].min() < 0.5
        out = render_ray(params, (origin, nu), pose, t=1, n_samples=10)
        for name in CHANNELS:
            np.testing.assert_array_equal(getattr(out, name), frame[name][3, 3])

    def test_opaque_semi_static_sample(self):
        # One sample with sigma_ss * delta = 20, second sample out of support.
        cfg = small_config()
        params = transparent_params(cfg)
        params.blocks["ss_grids"][..., 0, 0] = softplus_inv(2.0)
        pts = np.array([[[0.0, 0.0, 0.0], [55.0, 55.0, 55.0]]])
        pts_cam = np.array([[[0.0, 0.0, 9.0], [0.0, 0.0, 9.0]]])  # behind camera
        deltas = np.array([[10.0, 10.0]])
        bundle, _, _ = render_batch(params, pts, pts_cam, deltas, np.array([0]))
        assert bundle.mask_ss[0] == pytest.approx(1.0 - np.exp(-20.0), rel=1e-12)
        assert bundle.mask_dy[0] == pytest.approx(0.0, abs=1e-15)

    def test_unrolled_scalar_oracle(self):
        cfg = small_config()
        params = randomized_params(cfg, seed=21, scale=0.8)
        rng = np.random.default_rng(22)
        n = 200
        pts = rng.uniform(-1.5, 1.5, (n, 3, 3))
        d = rng.uniform(0.1, 4.0, (n, 3))
        xy = rng.uniform(-0.4, 0.4, (n, 3, 2)) * d[..., None]
        pts_cam = np.concatenate([xy, -d[..., None]], axis=-1)
        deltas = np.abs(rng.uniform(0.05, 1.0, (n, 3)))
        t_idx = rng.integers(0, cfg.n_frames, n)
        bundle, _, _ = render_batch(params, pts, pts_cam, deltas, t_idx)
        for i in range(n):
            ref = naive_render_ray(params, pts[i], pts_cam[i], deltas[i], int(t_idx[i]))
            np.testing.assert_allclose(bundle.color[i], ref["color"], atol=1e-12)
            assert abs(bundle.uncertainty[i] - ref["uncertainty"]) < 1e-12
            assert abs(bundle.mask_ss[i] - ref["mask_ss"]) < 1e-12
            assert abs(bundle.mask_dy[i] - ref["mask_dy"]) < 1e-12
            assert abs(bundle.t_bg[i] - ref["t_bg"]) < 1e-12

    def test_weight_conservation(self):
        cfg = small_config()
        params = randomized_params(cfg, seed=23, scale=1.5)
        pts, pts_cam, t_idx = sample_points(cfg, 64, seed=24)
        pts = pts.reshape(8, 8, 3)
        pts_cam = pts_cam.reshape(8, 8, 3)
        deltas = np.abs(np.random.default_rng(25).uniform(0.05, 0.8, (8, 8)))
        _, cache, _ = render_batch(params, pts, pts_cam, deltas, t_idx[:8])
        total = cache.weights.sum(axis=1) + cache.t_bg
        np.testing.assert_allclose(total, 1.0, atol=1e-9)

    def test_mask_partition_identity(self):
        cfg = small_config()
        params = randomized_params(cfg, seed=26)
        pts, pts_cam, t_idx = sample_points(cfg, 40, seed=27)
        deltas = np.full((8, 5), 0.3)
        bundle, _, _ = render_batch(
            params, pts.reshape(8, 5, 3), pts_cam.reshape(8, 5, 3), deltas, t_idx[:8]
        )
        total = bundle.mask_ss + bundle.mask_dy + bundle.mask_st + bundle.t_bg
        np.testing.assert_allclose(total, 1.0, atol=1e-9)

    def test_zero_dynamic_density_kills_dynamic_mask(self):
        cfg = small_config()
        params = randomized_params(cfg, seed=28)
        params.blocks["dy_grids"][..., 0] = -60.0
        params.blocks["dy_zmap_w"][...] = 0.0
        params.blocks["dy_zmap_b"][...] = np.array([1.0, 0.0])
        pts, pts_cam, t_idx = sample_points(cfg, 60, seed=29)
        deltas = np.full((12, 5), 0.4)
        bundle, _, _ = render_batch(
            params, pts.reshape(12, 5, 3), pts_cam.reshape(12, 5, 3), deltas, t_idx[:12]
        )
        np.testing.assert_allclose(bundle.mask_dy, 0.0, atol=1e-12)

    def test_semi_static_monotonicity_single_sample(self):
        cfg = small_config()
        base = transparent_params(cfg)
        values = []
        for sig in (0.5, 1.0, 2.0, 4.0):
            params = base.copy()
            params.blocks["ss_grids"][..., 0, 0] = softplus_inv(sig)
            pts = np.array([[[0.0, 0.0, 0.0], [55.0, 55.0, 55.0]]])
            pts_cam = np.full((1, 2, 3), 9.0)
            bundle, _, _ = render_batch(params, pts, pts_cam, np.array([[0.5, 0.5]]), np.array([0]))
            values.append(bundle.mask_ss[0])
        assert all(b > a for a, b in zip(values, values[1:]))


class TestRenderFrame:
    def test_matches_single_ray_calls(self):
        cfg = small_config(frustum=type(small_config().frustum)(
            fx=2.0, fy=2.0, cx=0.5, cy=0.5, width=2, height=2))
        params = randomized_params(cfg, seed=30)
        pose = look_at((0.8, 0.1, 0.05), (0, 0, 0), fx=2.0, fy=2.0, cx=0.5, cy=0.5)
        frame = render_frame(params, pose, t=1, n_samples=9)
        for iy in range(2):
            for ix in range(2):
                # the single-ray sampling of render_ray, rendered by the scalar oracle
                origin, nu = ray_through_pixel(pose, (float(ix), float(iy)))
                t_near, t_far = naive_clip(origin, nu, cfg.world_lo, cfg.world_hi)
                depths, deltas = sample_depths(np.array([t_near]), np.array([t_far]), 9)
                pts = origin - nu * depths[0][:, None]
                single = naive_render_ray(params, pts, world_to_camera(pose, pts), deltas[0], 1)
                np.testing.assert_allclose(frame["color"][iy, ix], single["color"], atol=1e-12)
                assert frame["mask_dy"][iy, ix] == pytest.approx(single["mask_dy"], abs=1e-12)
                assert frame["t_bg"][iy, ix] == pytest.approx(single["t_bg"], abs=1e-12)

    def test_worker_count_invariance(self):
        # 48 x 48 = 2304 pixels in items of RENDER_POINTS // 12 pixels (682 at
        # 8192 points): at least three items, so three workers split the frame.
        assert 2 * (RENDER_POINTS // 12) < 48 * 48
        cfg = small_config(frustum=small_frustum(48))
        params = randomized_params(cfg, seed=31)
        pose = look_at((0.7, -0.2, 0.1), (0, 0, 0), fx=8, fy=8, cx=23.5, cy=23.5)
        a = render_frame(params, pose, t=0, n_samples=12, workers=1)
        b = render_frame(params, pose, t=0, n_samples=12, workers=3)
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])

    # At 12 samples the default renders this 400-pixel frame as one item. The
    # split runs use items of 1 pixel (also from fewer points than one ray
    # has), 3, 7 and 133 pixels (400 = 3 x 133 + 1 leaves a 1-pixel tail).
    @pytest.mark.parametrize("points", [5, 12, 36, 84, 133 * 12])
    def test_work_item_size_invariance(self, monkeypatch, points):
        cfg = small_config(frustum=small_frustum(20))
        params = randomized_params(cfg, seed=32)
        pose = look_at((0.7, 0.2, -0.1), (0, 0, 0), fx=8, fy=8, cx=9.5, cy=9.5)
        whole = render_frame(params, pose, t=0, n_samples=12)
        monkeypatch.setattr(renderer, "RENDER_POINTS", points)
        split = render_frame(params, pose, t=0, n_samples=12)
        for key in whole:
            np.testing.assert_array_equal(split[key], whole[key])

    def test_tracer_sees_the_field_evaluation(self):
        # perfbench/tracer.py counts a frame's points and samples through the
        # `render_batch` and `eval_layers_batch` globals of `renderer`, which
        # render_frame calls once per work item.
        import layermotion
        import layermotion.cli  # the tracer wraps `cli.render_frame`

        path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)

        cfg = small_config(frustum=small_frustum(48))
        params = randomized_params(cfg, seed=33)
        pose = look_at((0.7, -0.2, 0.1), (0, 0, 0), fx=8, fy=8, cx=23.5, cy=23.5)
        n_samples = 12
        items = -(-48 * 48 // (RENDER_POINTS // n_samples))
        spans = tracer.Tracer()
        with tracer.Instrumentation(spans, layermotion):
            layermotion.cli.render_frame(params, pose, t=2, n_samples=n_samples, workers=2)
        by_name = {}
        for span in spans.spans:
            by_name.setdefault(span.name, []).append(span)
        assert len(by_name["renderer.render_frame"]) == 1
        for name in ("renderer.render_batch", "fields.eval_layers_batch", "renderer.chunk"):
            assert len(by_name[name]) == items, name
        assert sum(s.attrs["samples"] for s in by_name["renderer.render_batch"]) == 48 * 48 * n_samples
        assert sum(s.attrs["points"] for s in by_name["fields.eval_layers_batch"]) == 48 * 48 * n_samples
        metrics = tracer.rep_metrics(spans.spans, 1.0, 2, 39)
        assert metrics["renderer.samples"] == metrics["fields.eval_layers_batch.points"] == 48 * 48 * n_samples
        assert layermotion.cli.render_frame is renderer.render_frame  # restored

    def test_unknown_channel_rejected(self):
        params = zero_params(small_config())
        pose = look_at((0.7, 0.0, 0.0), (0, 0, 0), fx=8, fy=8, cx=3.5, cy=3.5)
        with pytest.raises(DomainError):
            render_frame(params, pose, t=0, channels=("color", "depth"))

    def test_workers_must_be_positive(self):
        # Zero once rendered serially; it is a typed error, as on the CLI.
        params = zero_params(small_config())
        pose = look_at((0.7, 0.0, 0.0), (0, 0, 0), fx=8, fy=8, cx=3.5, cy=3.5)
        for workers in (0, -1):
            with pytest.raises(DomainError, match="workers"):
                render_frame(params, pose, t=0, workers=workers)


@pytest.mark.slow
def test_baked_scene_matches_analytic_ground_truth(bench_scene, bench_gt, bench_dataset):
    # End-to-end renderer oracle: bake the analytic benchmark scene into
    # grids at high resolution and compare full frames to the exact ray
    # tracer, including one frame on each side of the relocation.
    fcfg = dataclasses.replace(
        bench_dataset.field_config(),
        grid_res=56, ss_grid_res=48, dyn_grid_res=40, feat_channels=2, mix_k=2, dyn_mix_k=2,
    )
    params = bake_scene(bench_scene, fcfg)
    errs = []
    for t in (0, 29, 30, 59):
        out = render_frame(params, bench_scene.cameras[t], t=t, n_samples=128, workers=2)
        errs.append(np.abs(out["color"] - bench_gt.rgb[t]).mean())
        total = out["mask_ss"] + out["mask_dy"] + out["mask_st"] + out["t_bg"]
        np.testing.assert_allclose(total, 1.0, atol=1e-9)
    assert np.mean(errs) < 0.1
