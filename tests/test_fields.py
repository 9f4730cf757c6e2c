import itertools
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from layermotion.errors import ConfigError, DataError, DomainError, NumericalError
from layermotion.fields import (
    BLOCK_NAMES,
    PARTITION,
    FieldConfig,
    FrustumSpec,
    _Lookup,
    backward_eval_layers,
    eval_layers_batch,
    fourier_rows,
    init_params,
    load_checkpoint,
    save_checkpoint,
    sigmoid,
    softplus,
    softplus_inv,
    zero_params,
)

from naive_ref import (
    naive_eval_point,
    naive_lookup,
    naive_scatter,
    naive_sigmoid,
    naive_unfolded_gradients,
)


def small_frustum(n=8):
    return FrustumSpec(fx=8.0, fy=8.0, cx=(n - 1) / 2, cy=(n - 1) / 2, width=n, height=n)


def small_config(**kw):
    base = dict(
        n_frames=5,
        frustum=small_frustum(),
        grid_res=5,
        feat_channels=2,
        mix_k=2,
        ss_grid_res=4,
        dyn_grid_res=4,
        dyn_mix_k=2,
        code_rank=2,
        code_dim=4,
    )
    base.update(kw)
    return FieldConfig(**base)


def randomized_params(cfg, seed=0, scale=0.4):
    params = init_params(cfg, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for v in params.blocks.values():
        v += scale * rng.standard_normal(v.shape)
    return params


def sample_points(cfg, n, seed=0):
    rng = np.random.default_rng(seed)
    lo = np.asarray(cfg.world_lo)
    hi = np.asarray(cfg.world_hi)
    pts = rng.uniform(lo, hi, (n, 3))
    # camera points in front of the reference frustum
    d = rng.uniform(cfg.frustum.near * 1.5, cfg.frustum.far * 0.5, n)
    x = rng.uniform(-0.3, 0.3, n) * d
    y = rng.uniform(-0.3, 0.3, n) * d
    pts_cam = np.stack([x, y, -d], axis=-1)
    t_idx = rng.integers(0, cfg.n_frames, n)
    return pts, pts_cam, t_idx


def eval_one(params, x, x_cam, t):
    """Per-layer (sigma, color, beta) at one world point and one camera point."""
    sigma, color, beta, _ = eval_layers_batch(
        params, np.array([x], dtype=float), np.array([x_cam], dtype=float), np.array([t])
    )
    return sigma[0], color[0], beta[0]


class TestTemporalCode:
    """Per-frame codes are rows of code_table: a coefficient block times the basis."""

    def test_zero_coefficients(self):
        params = zero_params(small_config())
        for which in ("ss", "dy"):
            np.testing.assert_array_equal(params.code_table(which), np.zeros((5, 4)))

    def test_rank_one_constant(self):
        params = zero_params(small_config(code_rank=1, code_dim=6, n_frames=4))
        params.blocks["code_ss"][...] = 1.0
        table = params.code_table("ss")
        for t in range(4):
            np.testing.assert_allclose(table[t], np.full(6, 1.0 / np.sqrt(6.0)), atol=1e-15)
            np.testing.assert_array_equal(table[t], table[0])

    def test_matches_naive_triple_loop(self):
        cfg = small_config()
        params = randomized_params(cfg, seed=2)
        basis = fourier_rows(cfg.code_rank, cfg.code_dim)
        for which in ("ss", "dy"):
            coeffs = params.blocks[f"code_{which}"]
            table = params.code_table(which)
            for t in range(cfg.n_frames):
                expected = np.zeros(cfg.code_dim)
                for d in range(cfg.code_dim):
                    for p in range(cfg.code_rank):
                        expected[d] += coeffs[t, p] * basis[p, d]
                np.testing.assert_allclose(table[t], expected, atol=1e-12)

    def test_linearity_in_coefficients(self):
        cfg = small_config()
        rng = np.random.default_rng(3)
        p1 = zero_params(cfg)
        p2 = zero_params(cfg)
        p3 = zero_params(cfg)
        for name in ("code_ss", "code_dy"):
            a = rng.standard_normal(p1.blocks[name].shape)
            b = rng.standard_normal(p1.blocks[name].shape)
            p1.blocks[name][...] = a
            p2.blocks[name][...] = b
            p3.blocks[name][...] = 2.0 * a + 3.0 * b
        for which in ("ss", "dy"):
            lhs = p3.code_table(which)
            rhs = 2.0 * p1.code_table(which) + 3.0 * p2.code_table(which)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_out_of_range_frame(self):
        params = zero_params(small_config())
        for t in (5, -1):
            with pytest.raises(DomainError):
                eval_one(params, [0.1, 0.2, 0.3], [0.0, 0.0, -1.0], t)

    def test_fourier_rows_shape_and_norm(self):
        f = fourier_rows(4, 8)
        assert f.shape == (4, 8)
        np.testing.assert_allclose(np.linalg.norm(f, axis=1), 1.0, atol=1e-12)
        with pytest.raises(ConfigError):
            fourier_rows(2, 2)  # sin(pi j) vanishes at every integer j


class TestEvalLayers:
    def test_constant_zero_initialization(self):
        cfg = small_config()
        params = zero_params(cfg)
        sigma, color, beta = eval_one(params, [0.1, -0.2, 0.3], [0.05, 0.02, -1.0], 2)
        for layer in range(3):
            assert sigma[layer] == pytest.approx(softplus(0.0), abs=1e-12)
            np.testing.assert_allclose(color[layer], 0.5, atol=1e-12)
            assert beta[layer] == pytest.approx(softplus(0.0) + cfg.beta_min, abs=1e-12)

    def test_out_of_support(self):
        cfg = small_config()
        params = randomized_params(cfg)
        sigma, _, _ = eval_one(params, [9.0, 9.0, 9.0], [0.05, 0.02, -1.0], 1)
        assert sigma[0] == 0.0  # static
        assert sigma[1] == 0.0  # semi-static
        assert sigma[2] > 0.0  # dynamic: the camera point is inside the frustum
        sigma, _, _ = eval_one(params, [9.0, 9.0, 9.0], [0.0, 0.0, 9.0], 1)
        assert sigma[2] == 0.0  # behind the camera
    def test_matches_eight_corner_oracle(self):
        cfg = small_config()
        params = randomized_params(cfg, seed=4)
        pts, pts_cam, t_idx = sample_points(cfg, 40, seed=5)
        sigma, color, beta, _ = eval_layers_batch(params, pts, pts_cam, t_idx)
        for i in range(40):
            ref = naive_eval_point(params, pts[i], pts_cam[i], int(t_idx[i]))
            for l in range(3):
                assert abs(sigma[i, l] - ref[l][0]) < 1e-12
                np.testing.assert_allclose(color[i, l], ref[l][1], atol=1e-12)
                assert abs(beta[i, l] - ref[l][2]) < 1e-12

    def test_static_layer_time_invariant(self):
        cfg = small_config()
        params = randomized_params(cfg, seed=6)
        pts, pts_cam, _ = sample_points(cfg, 10, seed=7)
        outs = [
            eval_layers_batch(params, pts, pts_cam, np.full(10, t))
            for t in range(cfg.n_frames)
        ]
        for sigma, color, beta, _ in outs[1:]:
            np.testing.assert_array_equal(sigma[:, 0], outs[0][0][:, 0])
            np.testing.assert_array_equal(color[:, 0], outs[0][1][:, 0])
            np.testing.assert_array_equal(beta[:, 0], outs[0][2][:, 0])

    def test_dynamic_layer_depends_only_on_camera_point(self):
        # Two different world points with the same camera coordinates must
        # produce identical dynamic triples.
        cfg = small_config()
        params = randomized_params(cfg, seed=8)
        x_cam = np.array([[0.05, -0.02, -0.8]])
        t = np.array([1])
        a = eval_layers_batch(params, np.array([[0.1, 0.2, 0.3]]), x_cam, t)
        b = eval_layers_batch(params, np.array([[-0.7, 0.4, 0.9]]), x_cam, t)
        np.testing.assert_array_equal(a[0][:, 2], b[0][:, 2])
        np.testing.assert_array_equal(a[1][:, 2], b[1][:, 2])

    def test_rejects_non_finite_points(self):
        params = zero_params(small_config())
        with pytest.raises(Exception):
            eval_layers_batch(
                params, np.array([[np.nan, 0, 0]]), np.zeros((1, 3)), np.array([0])
            )

    def test_positive_finite_outputs(self):
        cfg = small_config()
        params = randomized_params(cfg, seed=9, scale=2.0)
        pts, pts_cam, t_idx = sample_points(cfg, 64, seed=10)
        sigma, color, beta, _ = eval_layers_batch(params, pts, pts_cam, t_idx)
        assert np.all(sigma >= 0) and np.all(np.isfinite(sigma))
        assert np.all(beta >= cfg.beta_min) and np.all(np.isfinite(beta))
        assert np.all((color >= 0) & (color <= 1))


def mixed_frame_case(n_frames, n=240, seed=41):
    """Unequal resolutions and mixture sizes, and a batch mixing every frame,
    with points outside the world box and behind the camera."""
    cfg = small_config(
        n_frames=n_frames, grid_res=6, ss_grid_res=5, dyn_grid_res=4, mix_k=2, dyn_mix_k=3
    )
    params = randomized_params(cfg, seed=40 + n_frames)
    pts, pts_cam, t_idx = sample_points(cfg, n, seed=seed)
    pts[: n // 4] *= 3.0  # mostly outside the world box
    pts_cam[n // 6 : n // 3, 2] *= -1.0  # behind the camera
    assert np.unique(t_idx).size == n_frames
    return params, pts, pts_cam, t_idx


class TestMixedFrames:
    """The folded evaluation against the per-point scalar oracle, on batches
    whose points belong to different frames."""

    @pytest.mark.parametrize("n_frames", [1, 2, 6])
    def test_matches_eight_corner_oracle(self, n_frames):
        params, pts, pts_cam, t_idx = mixed_frame_case(n_frames)
        sigma, color, beta, _ = eval_layers_batch(params, pts, pts_cam, t_idx)
        for i in range(len(pts)):
            ref = naive_eval_point(params, pts[i], pts_cam[i], int(t_idx[i]))
            # Behind the camera the dynamic density is 0, and the oracle
            # leaves that layer's colour and beta at their values for a zero
            # pre-activation; with no density they never reach a render.
            in_front = -pts_cam[i, 2] > 1e-9
            for l in range(3):
                np.testing.assert_allclose(sigma[i, l], ref[l][0], rtol=0.0, atol=1e-12)
                if l < 2 or in_front:
                    np.testing.assert_allclose(color[i, l], ref[l][1], rtol=0.0, atol=1e-12)
                    np.testing.assert_allclose(beta[i, l], ref[l][2], rtol=0.0, atol=1e-12)
        assert np.any(sigma[:60, 0] == 0.0) and np.all(sigma[40:80, 2] == 0.0)

    def test_keeps_the_errors(self):
        params = zero_params(small_config())
        pts = np.zeros((2, 3))
        for t in (5, -1):
            with pytest.raises(DomainError, match="frame index"):
                eval_layers_batch(params, pts, pts, np.array([4, t]))
        for bad in (np.array([[np.nan, 0.0, 0.0]]), np.array([[0.0, np.inf, 0.0]])):
            with pytest.raises(NumericalError):
                eval_layers_batch(params, bad, np.zeros((1, 3)), np.array([4]))
            with pytest.raises(NumericalError):
                eval_layers_batch(params, np.zeros((1, 3)), bad, np.array([4]))


def test_empty_batch():
    params = randomized_params(small_config())
    sigma, color, beta, cache = eval_layers_batch(
        params, np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0, dtype=int)
    )
    assert sigma.shape == (0, 3) and color.shape == (0, 3, 3) and beta.shape == (0, 3)
    grads = backward_eval_layers(params, cache, sigma, color, beta)
    for name in BLOCK_NAMES:
        assert grads[name].shape == params.blocks[name].shape
        assert not grads[name].any()


class TestFoldedAdjoint:
    """`backward_eval_layers` against the former per-point adjoint, every block.

    The fold reorders the sums, so the two agree to rounding, not bit for bit.
    """

    # every subset of the partitions, the 8 values `parts` takes
    PARTS = [c for r in range(4) for c in itertools.combinations(PARTITION, r)]

    @staticmethod
    def check(params, pts, pts_cam, t_idx, parts):
        rng = np.random.default_rng(len(t_idx))
        upstream = (
            rng.standard_normal((len(t_idx), 3)),
            rng.standard_normal((len(t_idx), 3, 3)),
            rng.standard_normal((len(t_idx), 3)),
        )
        *_, cache = eval_layers_batch(params, pts, pts_cam, t_idx)
        blocks = [name for part in parts for name in PARTITION[part]]
        got = backward_eval_layers(params, cache, *upstream, parts=parts)
        want = naive_unfolded_gradients(params, pts, pts_cam, t_idx, *upstream, wrt=blocks)
        assert set(got) == set(want) == set(blocks)
        for name in blocks:
            assert got[name].shape == want[name].shape
            err = np.abs(got[name] - want[name]).max()
            assert err <= 1e-12 * np.abs(want[name]).max(), (name, err)
        return got

    @pytest.mark.parametrize("n_frames", [1, 2, 6])
    def test_every_block_and_subset(self, n_frames):
        params, pts, pts_cam, t_idx = mixed_frame_case(n_frames, n=160, seed=51)
        for parts in self.PARTS:
            self.check(params, pts, pts_cam, t_idx, parts)

    def test_frames_outside_the_batch_get_zero_code_rows(self):
        params, pts, pts_cam, t_idx = mixed_frame_case(6, n=160, seed=52)
        t_idx = np.where(t_idx % 2 == 0, 1, 4)  # only frames 1 and 4
        grads = self.check(params, pts, pts_cam, t_idx, tuple(PARTITION))
        for code in ("code_ss", "code_dy"):
            assert np.all(grads[code][[0, 2, 3, 5]] == 0.0)
            assert np.all(grads[code][[1, 4]] != 0.0)


class TestLookup:
    """`_Lookup.at` against its former broadcast form, byte for byte."""

    @pytest.mark.parametrize("res", [2, 12, 24])
    def test_matches_oracle(self, res):
        lo, hi = np.array([-1.25, -0.5, 0.0]), np.array([1.25, 2.0, 0.75])
        rng = np.random.default_rng(res)
        inner = rng.uniform(lo, hi, (300, 3))
        # Each of 120 points moved onto one of the six faces, in turn.
        faces = inner[:120].copy()
        axis, on_hi = np.arange(120) % 3, np.arange(120) // 3 % 2 == 1
        faces[np.arange(120), axis] = np.where(on_hi, hi[axis], lo[axis])
        corners = np.array([[(lo, hi)[c][a] for a, c in enumerate(ijk)] for ijk in np.ndindex(2, 2, 2)])
        outside = rng.uniform(lo - 1.0, hi + 1.0, (300, 3))
        pts = np.concatenate([inner, faces, corners, outside])
        lookup = _Lookup.at(pts, lo, hi, res)
        want = naive_lookup(pts, lo, hi, res)
        for got, ref in zip((lookup.idx, lookup.w, lookup.inside), want):
            assert got.shape == ref.shape and got.dtype == ref.dtype
            assert got.tobytes() == ref.tobytes()
        assert lookup.inside[:428].all() and not lookup.inside[428:].all()


class TestScatter:
    """The bincount adjoint of a lookup against the `np.add.at` oracle.

    Both add each cell's terms in the same order, so they agree exactly.
    """

    @staticmethod
    def check(shape, pts, seed):
        lookup = _Lookup.at(pts, (-1.0,) * 3, (1.0,) * 3, shape[0])
        dv = np.random.default_rng(seed).standard_normal((pts.shape[0],) + shape[3:])
        out = lookup.adjoint(shape, dv)
        assert out.shape == shape and out.flags.c_contiguous
        np.testing.assert_array_equal(out, naive_scatter(shape, lookup.idx, lookup.w, dv))

    @pytest.mark.parametrize(
        "shape", [(6, 6, 6, 4), (5, 5, 5, 1), (5, 5, 5), (4, 4, 4, 3, 5), (7, 7, 7, 2, 5)]
    )
    def test_random_points(self, shape):
        pts = np.random.default_rng(0).uniform(-1.0, 1.0, (500, 3))
        self.check(shape, pts, seed=1)

    @pytest.mark.parametrize("shape", [(6, 6, 6, 4), (5, 5, 5), (4, 4, 4, 3, 5)])
    def test_points_all_in_one_cell(self, shape):
        # Every point adds into the same eight cells: maximal index collisions.
        pts = np.random.default_rng(2).uniform(0.01, 0.09, (300, 3))
        self.check(shape, pts, seed=3)

    def test_points_on_the_boundary(self):
        pts = np.random.default_rng(4).choice([-1.0, 1.0], (64, 3))
        self.check((4, 4, 4, 3, 5), pts, seed=5)


class TestBackwardSubset:
    @staticmethod
    def cached_eval(cfg, seed):
        params = randomized_params(cfg, seed=seed)
        pts, pts_cam, t_idx = sample_points(cfg, 80, seed=seed + 1)
        *_, cache = eval_layers_batch(params, pts, pts_cam, t_idx)
        rng = np.random.default_rng(seed + 2)
        upstream = (
            rng.standard_normal((80, 3)),
            rng.standard_normal((80, 3, 3)),
            rng.standard_normal((80, 3)),
        )
        return params, cache, upstream

    def test_time_dependent_blocks_match_full_call(self):
        params, cache, upstream = self.cached_eval(small_config(), 20)
        assert cache.n_points == 80  # read by perfbench/tracer.py
        full = backward_eval_layers(params, cache, *upstream)
        assert set(full) == set(BLOCK_NAMES)
        blocks = PARTITION["ss"] + PARTITION["dy"]
        part = backward_eval_layers(params, cache, *upstream, parts=("ss", "dy"))
        assert set(part) == set(blocks)
        for name in blocks:
            np.testing.assert_array_equal(part[name], full[name])

    def test_each_single_partition(self):
        params, cache, upstream = self.cached_eval(small_config(), 30)
        full = backward_eval_layers(params, cache, *upstream)
        for part, blocks in PARTITION.items():
            one = backward_eval_layers(params, cache, *upstream, parts=(part,))
            assert set(one) == set(blocks)
            for name in blocks:
                np.testing.assert_array_equal(one[name], full[name])

    def test_empty_set(self):
        params, cache, upstream = self.cached_eval(small_config(), 40)
        assert backward_eval_layers(params, cache, *upstream, parts=()) == {}


class TestParameterPartition:
    def test_partition_complete_and_disjoint(self):
        names = [n for part in ("st", "ss", "dy") for n in PARTITION[part]]
        assert len(set(names)) == len(names)
        assert sorted(names) == sorted(BLOCK_NAMES)
        params = randomized_params(small_config())
        assert set(params.blocks) == set(BLOCK_NAMES)
        total = sum(v.size for v in params.blocks.values())
        assert sum(params.blocks[n].size for n in names) == total

    def test_dynamic_perturbation_isolated(self):
        cfg = small_config()
        params = randomized_params(cfg, seed=11)
        pts, pts_cam, t_idx = sample_points(cfg, 30, seed=12)
        before = eval_layers_batch(params, pts, pts_cam, t_idx)[:3]
        rng = np.random.default_rng(13)
        for name in PARTITION["dy"]:
            params.blocks[name] += rng.standard_normal(params.blocks[name].shape)
        after = eval_layers_batch(params, pts, pts_cam, t_idx)[:3]
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a[:, 0], b[:, 0])  # static untouched
            np.testing.assert_array_equal(a[:, 1], b[:, 1])  # semi-static untouched
        assert (before[0][:, 2] != after[0][:, 2]).any()

    def test_code_perturbation_sweep(self):
        # Perturbing coefficients consumed by the semi-static map changes its
        # density but never the static one, on an exhaustive 4^3 point grid.
        cfg = small_config()
        params = randomized_params(cfg, seed=14)
        axes = np.linspace(-1.0, 1.0, 4)
        pts = np.stack(np.meshgrid(axes, axes, axes, indexing="ij"), -1).reshape(-1, 3)
        pts_cam = np.tile([[0.0, 0.0, -1.0]], (pts.shape[0], 1))
        t_idx = np.full(pts.shape[0], 3)
        before = eval_layers_batch(params, pts, pts_cam, t_idx)
        params.blocks["code_ss"][3] += 0.5
        after = eval_layers_batch(params, pts, pts_cam, t_idx)
        np.testing.assert_array_equal(before[0][:, 0], after[0][:, 0])
        assert (before[0][:, 1] != after[0][:, 1]).any()


def split_lmf(path):
    """(JSON header, raw block bytes) of the LMF2 file at `path`."""
    data = path.read_bytes()
    n = struct.unpack("<I", data[4:8])[0]
    return json.loads(data[8 : 8 + n]), data[8 + n :]


def write_lmf(path, header, payload, head=None):
    """An LMF2 file holding `header` (or the raw `head` bytes) and then `payload`,
    independent of save_checkpoint: unsorted keys, default separators."""
    head = json.dumps(header).encode("utf-8") if head is None else head
    path.write_bytes(b"LMF2" + struct.pack("<I", len(head)) + head + payload)


def block_bytes(blocks):
    return b"".join(np.asarray(arr, dtype="<f8").tobytes() for _, arr in blocks)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = small_config()
        params = randomized_params(cfg, seed=15)
        path = tmp_path / "model.lmf"
        save_checkpoint(params, path, meta={"losses": ["rgb"], "refined": False})
        loaded, meta = load_checkpoint(path)
        assert meta["losses"] == ["rgb"]
        assert loaded.config == cfg
        for name in BLOCK_NAMES:
            np.testing.assert_array_equal(loaded.blocks[name], params.blocks[name])

    def test_magic_bytes(self, tmp_path):
        # One file: no sidecar beside it.
        params = zero_params(small_config())
        path = tmp_path / "model.lmf"
        save_checkpoint(params, path)
        assert path.read_bytes()[:4] == b"LMF2"
        assert [p.name for p in tmp_path.iterdir()] == ["model.lmf"]

    def test_rejects_bad_magic(self, tmp_path):
        # LMF1, the format with a JSON sidecar, has no reader.
        params = zero_params(small_config())
        path = tmp_path / "model.lmf"
        save_checkpoint(params, path)
        for magic in (b"XXXX", b"LMF1"):
            path.write_bytes(magic + path.read_bytes()[4:])
            with pytest.raises(DataError, match="bad magic"):
                load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        for path in (tmp_path / "none.lmf", tmp_path):
            with pytest.raises(DataError, match="cannot read"):
                load_checkpoint(path)

    # Layout: magic (4), header length (4), the JSON header, then the block
    # data; the header lists phi0 first, as "phi0",[5,5,5,2].
    @pytest.mark.parametrize("cut", [
        lambda d: 2,
        lambda d: 6,
        lambda d: d.index(b'"phi0"') + 3,
        lambda d: d.index(b'"phi0",[') + 8,
        lambda d: d.index(b'"phi0",[') + 10,
        lambda d: 8 + struct.unpack("<I", d[4:8])[0] + 40,
        lambda d: len(d) - 8,
    ], ids=["magic", "count", "name", "rank", "shape", "data", "last"])
    def test_truncated_file(self, tmp_path, cut):
        params = randomized_params(small_config(), seed=16)
        path = tmp_path / "model.lmf"
        save_checkpoint(params, path)
        data = path.read_bytes()
        path.write_bytes(data[: cut(data)])
        with pytest.raises(DataError, match="is cut short"):
            load_checkpoint(path)

    def test_trailing_byte(self, tmp_path):
        params = zero_params(small_config())
        path = tmp_path / "model.lmf"
        save_checkpoint(params, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(DataError, match="after the last block"):
            load_checkpoint(path)

    def test_corrupt_shape_claims_more_than_the_file(self, tmp_path):
        # A config and block list that agree on 10^6-cell grids: the byte
        # count is checked before any block is read.
        params = zero_params(small_config())
        path = tmp_path / "model.lmf"
        save_checkpoint(params, path)
        header, payload = split_lmf(path)
        header["config"]["grid_res"] = 10**6
        for entry in header["blocks"][:2]:  # phi0, st_grid
            entry[1][:3] = [10**6] * 3
        write_lmf(path, header, payload)
        with pytest.raises(DataError, match="is cut short"):
            load_checkpoint(path)

    # One flipped byte: the header length, a block name, a separator of
    # phi0's shape (the rank), and its first axis.
    @pytest.mark.parametrize("offset, flip, message", [
        (lambda d: 4, 0x01, "header is not valid JSON"),
        (lambda d: d.index(b'"phi0"') + 4, 0x01, "block 0 in the header is \\['phi1'"),
        (lambda d: d.index(b'"phi0",[') + 9, 0x19, "block 0 in the header is \\['phi0', \\[555, 5, 2\\]\\]"),
        (lambda d: d.index(b'"phi0",[') + 8, 0x05, "block 0 in the header is \\['phi0', \\[0, 5, 5, 2\\]\\]"),
    ], ids=["name_length", "name", "rank", "shape_zero"])
    def test_flipped_header_byte(self, tmp_path, offset, flip, message):
        params = zero_params(small_config())
        path = tmp_path / "model.lmf"
        save_checkpoint(params, path)
        data = bytearray(path.read_bytes())
        data[offset(data)] ^= flip
        path.write_bytes(bytes(data))
        with pytest.raises(DataError, match=message):
            load_checkpoint(path)


class TestCheckpointValidation:
    """Malformed headers and block sets raise DataError, one case each."""

    @staticmethod
    def saved(tmp_path):
        params = randomized_params(small_config(), seed=17)
        path = tmp_path / "model.lmf"
        save_checkpoint(params, path, meta={"losses": ["rgb"]})
        header, payload = split_lmf(path)
        return params, path, header, payload

    def test_header_is_invalid_json(self, tmp_path):
        _, path, header, payload = self.saved(tmp_path)
        write_lmf(path, header, payload, head=json.dumps(header).encode("utf-8")[:40])
        with pytest.raises(DataError, match="not valid JSON"):
            load_checkpoint(path)

    def test_header_without_config(self, tmp_path):
        _, path, header, payload = self.saved(tmp_path)
        del header["config"]
        write_lmf(path, header, payload)
        with pytest.raises(DataError, match="a JSON object of blocks, config and meta"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value", [("blocks", {}), ("meta", [])])
    def test_header_entry_of_the_wrong_type(self, tmp_path, key, value):
        _, path, header, payload = self.saved(tmp_path)
        header[key] = value
        write_lmf(path, header, payload)
        with pytest.raises(DataError, match="blocks must be a JSON list and its meta an object"):
            load_checkpoint(path)

    def test_unknown_config_key(self, tmp_path):
        # Checkpoints written while the field had a learned-basis mode carry its flag.
        _, path, header, payload = self.saved(tmp_path)
        header["config"]["learn_basis"] = False
        write_lmf(path, header, payload)
        with pytest.raises(DataError, match="unknown keys \\['learn_basis'\\]"):
            load_checkpoint(path)

    def test_missing_config_key(self, tmp_path):
        _, path, header, payload = self.saved(tmp_path)
        del header["config"]["frustum"]["far"]
        write_lmf(path, header, payload)
        with pytest.raises(DataError, match="missing keys \\['far'\\]"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["world_lo", "world_hi"])
    @pytest.mark.parametrize(
        "box", ["abc", [1, 1], [1.0, "a", 1.0], [1.0, 1.0, True], 1.25, None, [1.0, 1.0, math.inf]]
    )
    def test_world_box_not_3_finite_numbers(self, tmp_path, key, box):
        _, path, header, payload = self.saved(tmp_path)
        header["config"][key] = box
        write_lmf(path, header, payload)
        with pytest.raises(DataError, match=f"{key} must be a list of 3 finite numbers"):
            load_checkpoint(path)

    @pytest.mark.parametrize("lo", [[1.25, -1.25, -1.25], [-1.25, -1.25, 2.0]])
    def test_world_box_empty_on_an_axis(self, tmp_path, lo):
        _, path, header, payload = self.saved(tmp_path)
        header["config"]["world_lo"] = lo
        write_lmf(path, header, payload)
        with pytest.raises(DataError, match="world_lo must be below world_hi on every axis"):
            load_checkpoint(path)

    @pytest.mark.parametrize("section, key, value, what", [
        ("config", "grid_res", 5.0, "an integer"),
        ("config", "n_frames", 3.0, "an integer"),
        ("config", "n_frames", True, "an integer"),
        ("frustum", "width", 8.0, "an integer"),
        ("config", "beta_min", math.nan, "a finite number"),
        ("config", "beta_min", "0.03", "a finite number"),
        ("frustum", "near", math.inf, "a finite number"),
    ])
    def test_config_value_of_the_wrong_type(self, tmp_path, section, key, value, what):
        # A float count once reached np.frombuffer as a raw TypeError, and a
        # NaN (which JSON parsing accepts) loaded.
        _, path, header, payload = self.saved(tmp_path)
        config = header["config"]
        (config if section == "config" else config["frustum"])[key] = value
        write_lmf(path, header, payload)
        with pytest.raises(DataError, match=f"{key} must be {what}, got"):
            load_checkpoint(path)

    def test_extra_block(self, tmp_path):
        _, path, header, payload = self.saved(tmp_path)
        header["blocks"].append(["bogus", [2]])
        write_lmf(path, header, payload + bytes(16))
        with pytest.raises(DataError, match="block 12 in the header is \\['bogus', \\[2\\]\\]"):
            load_checkpoint(path)

    def test_duplicate_block(self, tmp_path):
        params, path, header, payload = self.saved(tmp_path)
        header["blocks"].append(header["blocks"][0])
        write_lmf(path, header, payload + block_bytes([("phi0", params.blocks["phi0"])]))
        with pytest.raises(DataError, match="block 12 in the header is \\['phi0'"):
            load_checkpoint(path)

    def test_missing_block(self, tmp_path):
        params, path, header, _ = self.saved(tmp_path)
        header["blocks"] = [entry for entry in header["blocks"] if entry[0] != "code_dy"]
        write_lmf(path, header, block_bytes((k, v) for k, v in params.blocks.items() if k != "code_dy"))
        with pytest.raises(DataError, match="block 11 in the header is None, the config implies \\['code_dy'"):
            load_checkpoint(path)

    def test_block_shape_disagrees_with_config(self, tmp_path):
        _, path, header, payload = self.saved(tmp_path)
        header["config"]["grid_res"] = 7
        write_lmf(path, header, payload)
        with pytest.raises(DataError, match="block 0 in the header is \\['phi0', \\[5, 5, 5, 2\\]\\], "
                           "the config implies \\['phi0', \\[7, 7, 7, 2\\]\\]"):
            load_checkpoint(path)

    def test_config_edit_that_keeps_the_byte_count(self, tmp_path):
        # 10 frames at code rank 1 hold as many coefficients as 5 at rank 2.
        _, path, header, payload = self.saved(tmp_path)
        header["config"].update(n_frames=10, code_rank=1)
        write_lmf(path, header, payload)
        with pytest.raises(DataError, match="block 7 in the header is \\['code_ss', \\[5, 2\\]\\]"):
            load_checkpoint(path)

    def test_independent_writer_round_trips(self, tmp_path):
        params, path, header, _ = self.saved(tmp_path)
        write_lmf(path, header, block_bytes(params.blocks.items()))
        loaded, meta = load_checkpoint(path)
        assert meta == {"losses": ["rgb"]}
        for name in BLOCK_NAMES:
            np.testing.assert_array_equal(loaded.blocks[name], params.blocks[name])


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    # Zero blocks, like the empty regions of a baked model.
    params = zero_params(small_config())
    path = tmp_path_factory.mktemp("ckpt") / "model.lmf"
    save_checkpoint(params, path, meta={"losses": ["rgb"]})
    return path


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cut_or_flipped_checkpoint_loads_or_raises_data_error(saved_checkpoint, data):
    # Offsets are drawn from anywhere in the file, and half the time from
    # the magic, the header length and the JSON header.
    path = saved_checkpoint
    original = path.read_bytes()
    header = range(8 + struct.unpack("<I", original[4:8])[0])
    offset = data.draw(st.one_of(st.sampled_from(header), st.integers(0, len(original) - 1)), label="offset")
    if data.draw(st.booleans(), label="cut"):
        mutated = original[:offset]
    else:
        flip = data.draw(st.integers(1, 255), label="xor")
        mutated = original[:offset] + bytes([original[offset] ^ flip]) + original[offset + 1 :]
    path.write_bytes(mutated)
    try:
        load_checkpoint(path)
    except DataError:
        pass
    finally:
        path.write_bytes(original)


class TestSigmoid:
    """`sigmoid` computes the same float operations as the two-branch oracle."""

    def test_edge_values(self):
        x = np.array([0.0, -0.0, 1e-300, -1e-300, 30.0, -30.0, 700.0, -700.0,
                      800.0, -800.0, np.inf, -np.inf, np.nan])
        np.testing.assert_array_equal(sigmoid(x), naive_sigmoid(x))
        assert sigmoid(-800.0) == 0.0 and sigmoid(800.0) == 1.0

    def test_random_draws(self):
        x = 8.0 * np.random.default_rng(40).standard_normal((65_536, 3, 3))
        np.testing.assert_array_equal(sigmoid(x), naive_sigmoid(x))

    def test_strided_view(self):
        # The colour pre-activations are channels 1..3 of a (B, 3, 5) stack.
        pre = 8.0 * np.random.default_rng(41).standard_normal((4096, 3, 5))
        view = pre[:, :, 1:4]
        assert not view.flags.c_contiguous
        np.testing.assert_array_equal(sigmoid(view), naive_sigmoid(view))


def test_config_validation():
    with pytest.raises(ConfigError):
        FieldConfig(n_frames=0, frustum=small_frustum())
    with pytest.raises(ConfigError):
        FieldConfig(n_frames=4, frustum=small_frustum(), code_rank=4, code_dim=3)
    with pytest.raises(ConfigError):
        FieldConfig(n_frames=4, frustum=small_frustum(), beta_min=0.0)


def test_softplus_inverse():
    for y in (0.01, 0.5, 3.0, 40.0):
        assert softplus(softplus_inv(y)) == pytest.approx(y, rel=1e-9)
