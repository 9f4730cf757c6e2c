import numpy as np
import pytest

from layermotion import renderer
from layermotion.bake import bake_scene
from layermotion.errors import DomainError
from layermotion.fields import softplus_inv, zero_params
from layermotion.geometry import look_at, ray_through_pixel
from layermotion.renderer import (
    DELTA_CAP,
    RENDER_POINTS,
    RaySamples,
    composite_point,
    render_batch,
    render_frame,
    render_ray,
    sample_depths,
    sample_ray,
)
from naive_ref import naive_render_ray
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
        ray = ray_through_pixel(pose, (3.5, 3.5))
        ray = type(ray)(origin=ray.origin, direction=ray.direction, t_near=0.1,
                        t_far=1.0, pixel=ray.pixel)
        samples = sample_ray(ray, 6, pose=pose)
        assert samples.points_cam is not None
        # camera-frame samples of a center ray lie near the optical axis
        assert np.abs(samples.points_cam[:, :2]).max() < 0.15
        assert (samples.points_cam[:, 2] < 0).all()

    def test_invalid_sample_counts(self):
        with pytest.raises(DomainError):
            sample_depths(np.zeros(1), np.ones(1), 1)
        with pytest.raises(DomainError):
            RaySamples(depths=np.array([0.5, 0.4]), deltas=np.array([0.1, 0.1]),
                       points_world=np.zeros((2, 3)))


class TestCompositePoint:
    def test_single_layer_occupancy(self):
        sigma = np.array([0.0, 2.5, 0.0])
        color = np.array([[0.1, 0.1, 0.1], [0.9, 0.5, 0.2], [0.7, 0.7, 0.7]])
        out = composite_point(sigma, color)
        assert out["m_ss"] == pytest.approx(1.0)
        assert out["m_dy"] == pytest.approx(0.0)
        np.testing.assert_allclose(out["color"], color[1])

    def test_equal_mixture(self):
        sigma = np.ones(3)
        color = np.eye(3)
        out = composite_point(sigma, color)
        np.testing.assert_allclose(out["color"], [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
        assert out["m_ss"] == pytest.approx(1 / 3)
        assert out["m_dy"] == pytest.approx(1 / 3)

    def test_shares_sum_to_one_vs_naive(self):
        rng = np.random.default_rng(4)
        sigma = rng.uniform(0.01, 5.0, (100, 3))
        color = rng.random((100, 3, 3))
        out = composite_point(sigma, color)
        total = out["m_st"] + out["m_ss"] + out["m_dy"]
        np.testing.assert_allclose(total, 1.0, atol=1e-12)
        for i in range(0, 100, 17):
            s = sigma[i].sum()
            assert abs(out["m_st"][i] - sigma[i, 0] / s) < 1e-12
            assert abs(out["m_ss"][i] - sigma[i, 1] / s) < 1e-12
            assert abs(out["m_dy"][i] - sigma[i, 2] / s) < 1e-12

    def test_empty_space_convention(self):
        out = composite_point(np.zeros(3), np.full((3, 3), 0.7))
        assert out["sigma"] == 0.0
        np.testing.assert_array_equal(out["color"], np.zeros(3))
        assert out["m_ss"] == 0.0 and out["m_dy"] == 0.0


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
        out = render_ray(params, ray, pose, n_samples=16)
        np.testing.assert_allclose(out.color, 0.0, atol=1e-15)
        assert out.mask_ss == pytest.approx(0.0, abs=1e-15)
        assert out.mask_dy == pytest.approx(0.0, abs=1e-15)
        assert out.t_bg == pytest.approx(1.0, abs=1e-12)
        assert out.uncertainty == pytest.approx(cfg.beta_min, abs=1e-12)

    def test_opaque_semi_static_sample(self):
        # One sample with sigma_ss * delta = 20, second sample out of support.
        cfg = small_config()
        params = transparent_params(cfg)
        params.blocks["ss_grids"][..., 0, 0] = softplus_inv(2.0)
        pts = np.array([[[0.0, 0.0, 0.0], [55.0, 55.0, 55.0]]])
        pts_cam = np.array([[[0.0, 0.0, 9.0], [0.0, 0.0, 9.0]]])  # behind camera
        deltas = np.array([[10.0, 10.0]])
        bundle = render_batch(params, pts, pts_cam, deltas, np.array([0]))
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
        bundle = render_batch(params, pts, pts_cam, deltas, t_idx)
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
        _, cache = render_batch(params, pts, pts_cam, deltas, t_idx[:8], want_cache=True)
        total = cache.weights.sum(axis=1) + cache.t_bg
        np.testing.assert_allclose(total, 1.0, atol=1e-9)

    def test_mask_partition_identity(self):
        cfg = small_config()
        params = randomized_params(cfg, seed=26)
        pts, pts_cam, t_idx = sample_points(cfg, 40, seed=27)
        deltas = np.full((8, 5), 0.3)
        bundle = render_batch(
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
        bundle = render_batch(
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
            bundle = render_batch(params, pts, pts_cam, np.array([[0.5, 0.5]]), np.array([0]))
            values.append(bundle.mask_ss[0])
        assert all(b > a for a, b in zip(values, values[1:]))


class TestRenderFrame:
    def test_matches_single_ray_calls(self):
        cfg = small_config(frustum=type(small_config().frustum)(
            fx=2.0, fy=2.0, cx=0.5, cy=0.5, width=2, height=2))
        params = randomized_params(cfg, seed=30)
        pose = look_at((0.8, 0.1, 0.05), (0, 0, 0), fx=2.0, fy=2.0, cx=0.5, cy=0.5,
                       frame_index=1)
        frame = render_frame(params, pose, n_samples=9)
        for iy in range(2):
            for ix in range(2):
                ray = ray_through_pixel(pose, (float(ix), float(iy)))
                single = render_ray(params, ray, pose, n_samples=9)
                np.testing.assert_allclose(frame["color"][iy, ix], single.color, atol=1e-12)
                assert frame["mask_dy"][iy, ix] == pytest.approx(single.mask_dy, abs=1e-12)
                assert frame["t_bg"][iy, ix] == pytest.approx(single.t_bg, abs=1e-12)

    def test_worker_count_invariance(self):
        # 48 x 48 = 2304 pixels in items of RENDER_POINTS // 12 pixels (682 at
        # 8192 points): at least three items, so three workers split the frame.
        assert 2 * (RENDER_POINTS // 12) < 48 * 48
        cfg = small_config(frustum=small_frustum(48))
        params = randomized_params(cfg, seed=31)
        pose = look_at((0.7, -0.2, 0.1), (0, 0, 0), fx=8, fy=8, cx=23.5, cy=23.5)
        a = render_frame(params, pose, n_samples=12, workers=1)
        b = render_frame(params, pose, n_samples=12, workers=3)
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
        whole = render_frame(params, pose, n_samples=12)
        monkeypatch.setattr(renderer, "RENDER_POINTS", points)
        split = render_frame(params, pose, n_samples=12)
        for key in whole:
            np.testing.assert_array_equal(split[key], whole[key])

    def test_unknown_channel_rejected(self):
        params = zero_params(small_config())
        pose = look_at((0.7, 0.0, 0.0), (0, 0, 0), fx=8, fy=8, cx=3.5, cy=3.5)
        with pytest.raises(DomainError):
            render_frame(params, pose, channels=("color", "depth"))


@pytest.mark.slow
def test_baked_scene_matches_analytic_ground_truth(bench_scene, bench_gt, bench_dataset):
    # End-to-end renderer oracle: bake the analytic benchmark scene into
    # grids at high resolution and compare full frames to the exact ray
    # tracer, including one frame on each side of the relocation.
    fcfg = bench_dataset.field_config(
        grid_res=56, ss_grid_res=48, dyn_grid_res=40, feat_channels=2, mix_k=2, dyn_mix_k=2
    )
    params = bake_scene(bench_scene, fcfg)
    errs = []
    for t in (0, 29, 30, 59):
        out = render_frame(params, bench_scene.cameras[t], t=t, n_samples=128, workers=2)
        errs.append(np.abs(out["color"] - bench_gt.rgb[t]).mean())
        total = out["mask_ss"] + out["mask_dy"] + out["mask_st"] + out["t_bg"]
        np.testing.assert_allclose(total, 1.0, atol=1e-9)
    assert np.mean(errs) < 0.1
