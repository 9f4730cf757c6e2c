import csv

import numpy as np
import pytest

from layermotion.errors import DataError, DomainError
from layermotion.geometry import (
    MIN_SPAN,
    NEAR_EPS,
    CameraPose,
    camera_rays,
    clip_to_box,
    load_cameras,
    look_at,
    pixel_directions,
    ray_through_pixel,
    save_cameras,
    slab_interval,
    world_to_camera,
)

from naive_ref import camera_to_world, naive_clip, naive_slab


def random_rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_pose(rng):
    return CameraPose(
        rotation=random_rotation(rng),
        translation=rng.uniform(-2, 2, 3),
        fx=40.0 + 10 * rng.random(),
        fy=40.0 + 10 * rng.random(),
        cx=15.5,
        cy=15.5,
    )


def identity_pose(fx=1.0, fy=1.0, cx=0.0, cy=0.0, translation=(0, 0, 0)):
    return CameraPose(
        rotation=np.eye(3), translation=np.asarray(translation, float),
        fx=fx, fy=fy, cx=cx, cy=cy,
    )


class TestRayThroughPixel:
    def test_principal_point_ray(self):
        origin, nu = ray_through_pixel(identity_pose(), (0.0, 0.0))
        np.testing.assert_allclose(origin, [0, 0, 0], atol=1e-15)
        # Marching x(tau) = origin - nu*tau proceeds along the view axis.
        np.testing.assert_allclose(nu, [0, 0, 1], atol=1e-15)
        np.testing.assert_allclose(origin - nu * 2.0, [0, 0, -2.0], atol=1e-15)

    def test_pure_translation(self):
        # Camera center at (1, 2, 3): x_cam = x + t with t = -center.
        pose = identity_pose(translation=(-1.0, -2.0, -3.0))
        origin, nu = ray_through_pixel(pose, (0.0, 0.0))
        np.testing.assert_allclose(origin, [1, 2, 3], atol=1e-15)
        np.testing.assert_allclose(nu, [0, 0, 1], atol=1e-15)

    def test_round_trip_projection_oracle(self):
        # Independent check: project a far point of the ray back through the
        # pinhole model and recover the pixel.
        rng = np.random.default_rng(7)
        for _ in range(50):
            pose = random_pose(rng)
            pixel = (17.0, 5.0)
            origin, nu = ray_through_pixel(pose, pixel)
            x = origin - nu * 3.7
            xc = pose.rotation @ x + pose.translation
            depth = -xc[2]
            assert depth > 0
            u = pose.fx * xc[0] / depth + pose.cx
            v = pose.fy * xc[1] / depth + pose.cy
            assert abs(u - pixel[0]) < 1e-6
            assert abs(v - pixel[1]) < 1e-6

    def test_reprojection_along_ray_property(self):
        rng = np.random.default_rng(11)
        pose = random_pose(rng)
        for _ in range(20):
            pixel = tuple(rng.uniform(0, 31, 2))
            origin, nu = ray_through_pixel(pose, pixel)
            for tau in rng.uniform(0.2, 10.0, 5):
                xc = pose.rotation @ (origin - nu * tau) + pose.translation
                u = pose.fx * xc[0] / -xc[2] + pose.cx
                v = pose.fy * xc[1] / -xc[2] + pose.cy
                assert abs(u - pixel[0]) < 1e-6 and abs(v - pixel[1]) < 1e-6


class TestWorldToCamera:
    def test_identity(self):
        pose = identity_pose()
        np.testing.assert_allclose(world_to_camera(pose, [1.0, 2.0, 3.0]), [1, 2, 3])

    def test_translation(self):
        pose = identity_pose(translation=(-1.0, 0.0, 0.0))
        np.testing.assert_allclose(world_to_camera(pose, [1.0, 0.0, 0.0]), [0, 0, 0])

    def test_inverse_composition(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            pose = random_pose(rng)
            x = rng.uniform(-5, 5, 3)
            back = camera_to_world(pose, world_to_camera(pose, x))
            np.testing.assert_allclose(back, x, atol=1e-9)

    def test_rigidity(self):
        rng = np.random.default_rng(5)
        pose = random_pose(rng)
        a = rng.uniform(-3, 3, (20, 3))
        b = rng.uniform(-3, 3, (20, 3))
        d_before = np.linalg.norm(a - b, axis=1)
        d_after = np.linalg.norm(world_to_camera(pose, a) - world_to_camera(pose, b), axis=1)
        np.testing.assert_allclose(d_after, d_before, atol=1e-9)


class TestPoseValidation:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(DomainError):
            CameraPose(rotation=np.eye(3) * 1.01, translation=np.zeros(3),
                       fx=1, fy=1, cx=0, cy=0)

    def test_rejects_reflection(self):
        r = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(DomainError):
            CameraPose(rotation=r, translation=np.zeros(3), fx=1, fy=1, cx=0, cy=0)


class TestClipToBox:
    def test_clip_inside_box(self):
        origin, nu = ray_through_pixel(identity_pose(), (0.0, 0.0))
        t_near, t_far = clip_to_box(origin, nu, (-1, -1, -1), (1, 1, 1))
        assert 0 < t_near < t_far
        assert t_far == pytest.approx(1.0)

    def test_axis_parallel_ray_outside_a_slab(self):
        # Parallel to the z slab and above it: the slab never lets the ray in.
        lo, hi = (-1.25, -1.25, -1.25), (1.25, 1.25, 1.25)
        origin, nu = np.array([3.0, 0.0, 2.0]), np.array([1.0, -0.0, -0.0])
        t_near, t_far = clip_to_box(origin, nu, lo, hi)
        assert (t_near, t_far) == (NEAR_EPS, NEAR_EPS + MIN_SPAN)
        assert (t_near, t_far) == naive_clip(origin, nu, lo, hi)

    def test_matches_naive_clip(self):
        # Hits, misses and rays from inside the box, over a pixel grid.
        rng = np.random.default_rng(13)
        lo, hi = (-1.0, -0.5, 0.0), (1.0, 0.5, 2.0)
        for _ in range(10):
            pose = random_pose(rng)
            origin, nu, t_near, t_far = camera_rays(pose, 6, 5, lo, hi)
            for i in range(len(nu)):
                ref = naive_clip(origin, nu[i], lo, hi)
                np.testing.assert_allclose((t_near[i], t_far[i]), ref, rtol=1e-12)


class TestSlabInterval:
    LO = np.array([-1.0, -0.5, 0.0])
    HI = np.array([1.0, 0.5, 2.0])

    def check(self, origins, march):
        origins = np.asarray(origins, dtype=np.float64)
        march = np.asarray(march, dtype=np.float64)
        enter, exit_ = slab_interval(origins, march, self.LO, self.HI)
        assert enter.shape == exit_.shape == march.shape[:-1]
        for i in np.ndindex(march.shape[:-1]):
            o = origins if origins.ndim == 1 else origins[i]
            ref = naive_slab(o, march[i], self.LO, self.HI)
            np.testing.assert_allclose((enter[i], exit_[i]), ref, rtol=1e-14, atol=0)
        return enter, exit_

    def test_axis_parallel_signed_zeros(self):
        # Rays along +-x with +0.0 and -0.0 in the other components: one
        # inside the y/z slabs, one outside the y slab.
        march = np.array([[1.0, 0.0, -0.0], [-1.0, -0.0, 0.0], [1.0, -0.0, -0.0]])
        enter, exit_ = self.check(np.array([0.0, 0.0, 1.0]), march)
        np.testing.assert_array_equal(enter, [-1.0, -1.0, -1.0])
        np.testing.assert_array_equal(exit_, [1.0, 1.0, 1.0])
        enter, exit_ = self.check(np.array([0.0, 0.7, 1.0]), march)
        assert np.all(enter == np.inf) and np.all(exit_ == -np.inf)

    def test_origins_on_a_face(self):
        origins = np.array([[1.0, 0.0, 1.0], [0.0, -0.5, 1.0], [0.0, 0.0, 2.0], [0.0, 0.5, 0.0]])
        march = np.array([[-1.0, 0.0, 0.0], [0.0, 1.0, -0.0], [0.3, 0.0, -0.9], [1.0, 0.0, -0.0]])
        enter, exit_ = self.check(origins, march)
        np.testing.assert_array_equal(enter[:3], [0.0, 0.0, 0.0])
        assert exit_[3] == 1.0  # grazing the y = 0.5 face counts as inside

    def test_origins_inside(self):
        rng = np.random.default_rng(0)
        origins = rng.uniform(self.LO, self.HI, (50, 3))
        march = rng.standard_normal((50, 3))
        enter, exit_ = self.check(origins, march)
        assert np.all(enter < 0.0) and np.all(exit_ > 0.0)

    def test_misses(self):
        rng = np.random.default_rng(1)
        origins = rng.uniform(3.0, 4.0, (50, 3))  # beyond every upper face
        march = rng.uniform(0.1, 1.0, (50, 3))  # marching further away
        enter, exit_ = self.check(origins, march)
        assert np.all(exit_ < 0.0)

    def test_broadcast_over_a_pixel_grid(self):
        rng = np.random.default_rng(2)
        march = rng.standard_normal((4, 5, 3))
        march[0, :, 1] = 0.0
        march[1, :, 2] = -0.0
        self.check(np.array([0.2, 0.1, 0.4]), march)


class TestPixelDirections:
    def test_grid_matches_per_pixel_rays_bit_for_bit(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            pose = random_pose(rng)
            _, nu, _, _ = camera_rays(pose, 9, 7, (-1.0,) * 3, (1.0,) * 3)
            per_pixel = np.stack(
                [ray_through_pixel(pose, (ix, iy))[1] for iy in range(7) for ix in range(9)]
            )
            np.testing.assert_array_equal(nu, per_pixel)

    def test_unit_length_and_shape(self):
        pose = random_pose(np.random.default_rng(19))
        d = pixel_directions(pose, np.zeros((2, 3)), np.ones((2, 3)))
        assert d.shape == (2, 3, 3)
        np.testing.assert_allclose(np.linalg.norm(d, axis=-1), 1.0, atol=1e-15)


class TestCameraCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        poses = [random_pose(rng) for _ in range(5)]
        path = tmp_path / "cameras.csv"
        save_cameras(path, poses)
        loaded = load_cameras(path)
        assert len(loaded) == len(poses)
        for a, b in zip(poses, loaded):
            np.testing.assert_array_equal(a.rotation, b.rotation)
            np.testing.assert_array_equal(a.translation, b.translation)
            assert (a.fx, a.fy, a.cx, a.cy) == (b.fx, b.fy, b.cx, b.cy)
        # The t column holds each row's position, the frame index.
        with open(path, newline="") as fh:
            assert [row[0] for row in csv.reader(fh)][1:] == [str(t) for t in range(5)]

    def test_header_shape(self, tmp_path):
        path = tmp_path / "cameras.csv"
        save_cameras(path, [identity_pose()])
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "t"
        assert len(rows[0]) == 17  # t + 9 rotation + 3 translation + 4 intrinsics
        assert len(rows[1]) == 17

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_cameras(tmp_path / "nope.csv")

    @staticmethod
    def edit_first_row(tmp_path, edit):
        path = tmp_path / "cameras.csv"
        save_cameras(path, [identity_pose(), identity_pose()])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[1] = edit(rows[1])
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        return path

    def test_non_numeric_field(self, tmp_path):
        path = self.edit_first_row(tmp_path, lambda row: row[:1] + ["x" + row[1]] + row[2:])
        with pytest.raises(DataError, match="row 1"):
            load_cameras(path)

    @pytest.mark.parametrize("edit", [lambda row: row[:-1], lambda row: row + ["0"]])
    def test_wrong_column_count(self, tmp_path, edit):
        with pytest.raises(DataError, match="expected 17"):
            load_cameras(self.edit_first_row(tmp_path, edit))

    def test_pose_rejected_by_camera_pose(self, tmp_path):
        def scale_r00(row):
            return row[:1] + [repr(1.5 * float(row[1]))] + row[2:]

        with pytest.raises(DataError, match="not orthonormal"):
            load_cameras(self.edit_first_row(tmp_path, scale_r00))

    def test_non_finite_field(self, tmp_path):
        path = self.edit_first_row(tmp_path, lambda row: row[:13] + ["nan"] + row[14:])
        with pytest.raises(DataError, match="non-finite value"):
            load_cameras(path)

    def test_nul_byte(self, tmp_path):
        path = tmp_path / "cameras.csv"
        save_cameras(path, [identity_pose()])
        path.write_bytes(path.read_bytes().replace(b"1", b"\x00", 1))
        with pytest.raises(DataError):
            load_cameras(path)


def test_look_at_is_valid_rotation():
    rng = np.random.default_rng(13)
    for _ in range(20):
        pos = rng.uniform(-1, 1, 3)
        target = rng.uniform(-1, 1, 3)
        if np.linalg.norm(target - pos) < 0.1:
            continue
        pose = look_at(pos, target, fx=10, fy=10, cx=5, cy=5)
        np.testing.assert_allclose(pose.rotation @ pose.rotation.T, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(pose.center, pos, atol=1e-12)
        # The target must sit in front of the camera (negative z).
        assert world_to_camera(pose, target)[2] < 0
