import dataclasses

import numpy as np
import pytest
from naive_ref import (
    naive_box_distance,
    naive_box_inside,
    naive_room_distance,
    naive_room_inside,
    naive_sphere_distance,
    naive_sphere_inside,
)

from layermotion import scenegen
from layermotion.errors import ConfigError, DomainError
from layermotion.geometry import look_at
from layermotion.scenegen import (
    ColorRamp,
    GroundTruth,
    SceneConfig,
    SceneSpec,
    Sphere,
    SceneObject,
    benchmark_config,
    degrade_to_pseudo_masks,
    generate_scene,
    render_ground_truth,
)


def small_config(**kw):
    base = dict(name="small", n_frames=6, height=24, width=24, seed=1)
    base.update(kw)
    return SceneConfig(**base)


class TestGenerateScene:
    def test_deterministic_regeneration(self):
        cfg = benchmark_config("lmf-bench-v1")
        a = generate_scene(cfg)
        b = generate_scene(cfg)
        assert a.objects == b.objects  # primitives and ramps are plain tuples
        for pa, pb in zip(a.cameras, b.cameras):
            np.testing.assert_array_equal(pa.rotation, pb.rotation)
            np.testing.assert_array_equal(pa.translation, pb.translation)
        ga = render_ground_truth(a)
        gb = render_ground_truth(b)
        np.testing.assert_array_equal(ga.rgb, gb.rgb)
        np.testing.assert_array_equal(ga.mask_dyn, gb.mask_dyn)

    def test_no_dynamic_objects_means_empty_dyn_mask(self):
        scene = generate_scene(small_config())
        scene = dataclasses.replace(
            scene, objects=tuple(o for o in scene.objects if o.category != scenegen.DYNAMIC)
        )
        gt = render_ground_truth(scene)
        assert not gt.mask_dyn.any()
        assert gt.mask_ss.any()

    def test_bench_dynamic_fraction_by_exhaustive_count(self):
        scene = generate_scene(benchmark_config("lmf-bench-v1"))
        gt = render_ground_truth(scene)
        frac = gt.mask_dyn.reshape(gt.mask_dyn.shape[0], -1).mean(axis=1)
        assert frac.min() >= 0.02 and frac.max() <= 0.20

    def test_degenerate_configs_rejected(self):
        with pytest.raises(ConfigError):
            generate_scene(small_config(n_frames=1))
        with pytest.raises(ConfigError):
            generate_scene(small_config(height=4))
        with pytest.raises(ConfigError):
            benchmark_config("nope")

    def test_eval_stride_below_one_rejected(self):
        # Zero once raised a raw ValueError from range(), and a negative
        # stride gave an empty eval set.
        for stride in (0, -2):
            with pytest.raises(ConfigError, match="eval_stride"):
                SceneConfig(eval_stride=stride)

    def test_nonzero_camera_baseline(self):
        scene = generate_scene(small_config())
        centers = np.stack([p.center for p in scene.cameras])
        assert np.linalg.norm(centers[-1] - centers[0]) > 0.1


def _const_cameras(n, h, w):
    fx = 0.5 * w / np.tan(np.radians(32.0))
    intr = dict(fx=fx, fy=fx, cx=(w - 1) / 2, cy=(h - 1) / 2)
    return tuple(
        look_at((0.5, 0.0, 0.0), (-0.5, 0.0, 0.0), **intr)
        for _ in range(n)
    )


class TestRenderGroundTruth:
    def test_empty_scene_is_background(self):
        scene = SceneSpec(
            n_frames=2, height=16, width=16,
            objects=(), cameras=_const_cameras(2, 16, 16), background=(0.2, 0.4, 0.6),
        )
        gt = render_ground_truth(scene)
        assert np.all(gt.rgb == np.array([0.2, 0.4, 0.6]))
        assert not gt.mask_dyn.any() and not gt.mask_ss.any()

    def test_camera_attached_sphere_matches_analytic_disk(self):
        h = w = 32
        center = np.array([0.0, 0.0, -0.5])
        scene = SceneSpec(
            n_frames=2, height=h, width=w,
            objects=(
                SceneObject(
                    primitive=Sphere(center=tuple(center), radius=0.12),
                    color=ColorRamp(base=(1, 0, 0)),
                    category=scenegen.DYNAMIC,
                ),
            ),
            cameras=_const_cameras(2, h, w),
        )
        gt = render_ground_truth(scene)
        pose = scene.cameras[0]
        expected = np.zeros((h, w), dtype=bool)
        for iy in range(h):
            for ix in range(w):
                d = np.array([(ix - pose.cx) / pose.fx, (iy - pose.cy) / pose.fy, -1.0])
                d = d / np.linalg.norm(d)
                proj = center @ d
                if proj <= 0:
                    continue
                dist = np.linalg.norm(center - proj * d)
                expected[iy, ix] = dist <= 0.12
        np.testing.assert_array_equal(gt.mask_dyn[0], expected)
        np.testing.assert_array_equal(gt.mask_dyn[1], expected)  # camera-pinned

    def test_semi_static_pose_swap_oracle(self):
        def build(swap):
            a, b = (-0.4, 0.15, 0.0), (-0.4, -0.2, 0.1)
            if swap:
                a, b = b, a
            return SceneSpec(
                n_frames=4, height=24, width=24,
                objects=(
                    SceneObject(
                        primitive=scenegen.Box(lo=(-0.1, -0.1, -0.1), hi=(0.1, 0.1, 0.1)),
                        color=ColorRamp(base=(0, 1, 0)),
                        category=scenegen.SEMI_STATIC,
                        offset_a=a, offset_b=b, t_star=2,
                    ),
                ),
                cameras=_const_cameras(4, 24, 24),
            )

        gt = render_ground_truth(build(False))
        gt_sw = render_ground_truth(build(True))
        np.testing.assert_array_equal(gt.mask_ss[1], gt_sw.mask_ss[2])
        np.testing.assert_array_equal(gt.mask_ss[2], gt_sw.mask_ss[1])
        assert (gt.mask_ss[1] != gt.mask_ss[2]).any()

    def test_masks_disjoint_invariant(self, bench_gt):
        assert not (bench_gt.mask_dyn & bench_gt.mask_ss).any()

    def test_ground_truth_constructor_rejects_overlap(self):
        m = np.ones((1, 2, 2), dtype=bool)
        with pytest.raises(DomainError):
            GroundTruth(rgb=np.zeros((1, 2, 2, 3)), mask_dyn=m, mask_ss=m)


class TestDegradeToPseudoMasks:
    def test_no_degradation_is_exact(self, bench_gt):
        masks = degrade_to_pseudo_masks(bench_gt, recall=1.0, fpr=0.0, seed=0)
        for t, m in enumerate(masks):
            np.testing.assert_array_equal(m, bench_gt.mask_dyn[t].astype(float))

    def test_confusion_matrix_oracle(self, bench_gt, bench_pseudo):
        pred = bench_pseudo >= 0.5
        gt = bench_gt.mask_dyn
        tp = int((pred & gt).sum())
        fp = int((pred & ~gt).sum())
        pos = int(gt.sum())
        neg = int((~gt).sum())
        recall = tp / pos
        precision = tp / (tp + fp)
        assert 0.55 <= recall <= 0.65
        assert precision >= 0.95
        assert abs(fp / neg - 0.002) <= 0.5 * 0.002

    def test_empty_positive_frame_gets_only_false_positives(self):
        rgb = np.zeros((2, 32, 32, 3))
        dyn = np.zeros((2, 32, 32), dtype=bool)
        dyn[1, 8:16, 8:16] = True
        gt = GroundTruth(rgb=rgb, mask_dyn=dyn, mask_ss=np.zeros_like(dyn))
        masks = degrade_to_pseudo_masks(gt, recall=0.6, fpr=0.01, seed=3)
        assert not ((masks[0] >= 0.5) & dyn[0]).any()
        assert (masks[0] >= 0.5).sum() == round(0.01 * 32 * 32)

    def test_deterministic_given_seed(self, bench_gt):
        a = degrade_to_pseudo_masks(bench_gt, recall=0.7, fpr=0.003, seed=5)
        b = degrade_to_pseudo_masks(bench_gt, recall=0.7, fpr=0.003, seed=5)
        for ma, mb in zip(a, b):
            np.testing.assert_array_equal(ma, mb)

    def test_precision_invariant_default_settings(self, bench_gt, bench_pseudo):
        pred = bench_pseudo >= 0.5
        tp = int((pred & bench_gt.mask_dyn).sum())
        fp = int((pred & ~bench_gt.mask_dyn).sum())
        assert tp / (tp + fp) >= 0.9

    def test_parameter_validation(self, bench_gt):
        with pytest.raises(DomainError):
            degrade_to_pseudo_masks(bench_gt, recall=0.0, fpr=0.0)
        with pytest.raises(DomainError):
            degrade_to_pseudo_masks(bench_gt, recall=0.5, fpr=1.0)

    def test_motion_mask_invariants(self, bench_gt, bench_pseudo):
        assert bench_pseudo.shape == bench_gt.mask_dyn.shape
        assert bench_pseudo.dtype == np.float64
        assert bench_pseudo.min() >= 0.0 and bench_pseudo.max() <= 1.0


def _oracle(prim, p):
    """(inside, distance) of one primitive at one point, by the scalar oracles."""
    if isinstance(prim, scenegen.Sphere):
        c, r = prim.center, prim.radius
        return naive_sphere_inside(c, r, p), naive_sphere_distance(c, r, p)
    if isinstance(prim, scenegen.Box):
        return naive_box_inside(prim.lo, prim.hi, p), naive_box_distance(prim.lo, prim.hi, p)
    return (
        naive_room_inside(prim.lo, prim.hi, prim.thickness, p),
        naive_room_distance(prim.lo, prim.hi, prim.thickness, p),
    )


class TestMaterial:
    # Nodes 0.1 apart over the world box [-1.25, 1.25]^3: some in the room's
    # cavity, some inside its wall (|x| in (1, 1.2]), some beyond the wall.
    AXIS = np.linspace(-1.25, 1.25, 26)
    NODES = np.stack(np.meshgrid(AXIS, AXIS, AXIS, indexing="ij"), axis=-1).reshape(-1, 3)

    def test_inside_matches_the_scalar_oracles(self, bench_scene):
        semi = [o for o in bench_scene.objects if o.category == scenegen.SEMI_STATIC]
        objects = list(bench_scene.objects) + semi  # the semi-static cube at both poses
        offsets = [o.offset_a for o in bench_scene.objects] + [o.offset_b for o in semi]
        union = np.zeros(len(self.NODES), dtype=bool)
        for obj, off in zip(objects, offsets):
            local = self.NODES - np.asarray(off)
            expected = [_oracle(obj.primitive, tuple(p)) for p in local]
            inside, _ = scenegen.material([obj], self.NODES, [off])
            np.testing.assert_array_equal(inside, [e[0] for e in expected])
            distance = obj.primitive.distance(local)
            np.testing.assert_allclose(distance, [e[1] for e in expected], atol=1e-12)
            union |= inside
        inside, _ = scenegen.material(objects, self.NODES, offsets)
        np.testing.assert_array_equal(inside, union)
        beyond = np.abs(self.NODES).max(axis=-1) > 1.2
        assert beyond.any() and not inside[beyond].any()
        assert inside[~beyond & (np.abs(self.NODES).max(axis=-1) > 1.0)].all()

    def test_inside_points_take_the_first_containing_object(self):
        box = scenegen.Box(lo=(-1, -1, -1), hi=(1, 1, 1))
        red = SceneObject(box, ColorRamp(base=(1, 0, 0)), scenegen.STATIC)
        ball = Sphere(center=(0, 0, 0), radius=0.5)
        blue = SceneObject(ball, ColorRamp(base=(0, 0, 1)), scenegen.STATIC)
        pts = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        inside, color = scenegen.material([red, blue], pts, [(0, 0, 0)] * 2)
        np.testing.assert_array_equal(inside, [True, False])
        np.testing.assert_array_equal(color, [[1, 0, 0], [1, 0, 0]])
        inside, color = scenegen.material([blue, red], pts, [(0, 0, 0)] * 2)
        np.testing.assert_array_equal(color[0], [0, 0, 1])

    def test_no_objects_is_empty_mid_gray(self):
        inside, color = scenegen.material([], self.NODES[:5], [])
        assert not inside.any()
        assert np.all(color == 0.5)
