import json
import struct

import numpy as np
import pytest

from layermotion.errors import ConfigError, DataError, DomainError
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
    softplus,
    softplus_inv,
    zero_params,
)

from naive_ref import naive_eval_point, naive_scatter


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
    sigma, color, beta = eval_layers_batch(
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
        sigma, color, beta = eval_layers_batch(params, pts, pts_cam, t_idx)
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
        for sigma, color, beta in outs[1:]:
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
        sigma, color, beta = eval_layers_batch(params, pts, pts_cam, t_idx)
        assert np.all(sigma >= 0) and np.all(np.isfinite(sigma))
        assert np.all(beta >= cfg.beta_min) and np.all(np.isfinite(beta))
        assert np.all((color >= 0) & (color <= 1))


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
        *_, cache = eval_layers_batch(params, pts, pts_cam, t_idx, want_cache=True)
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
        wrt = PARTITION["ss"] + PARTITION["dy"]
        part = backward_eval_layers(params, cache, *upstream, wrt=wrt)
        assert set(part) == set(wrt)
        for name in wrt:
            np.testing.assert_array_equal(part[name], full[name])

    def test_each_single_block(self):
        params, cache, upstream = self.cached_eval(small_config(), 30)
        full = backward_eval_layers(params, cache, *upstream)
        for name in BLOCK_NAMES:
            one = backward_eval_layers(params, cache, *upstream, wrt=(name,))
            assert list(one) == [name]
            np.testing.assert_array_equal(one[name], full[name])

    def test_empty_set(self):
        params, cache, upstream = self.cached_eval(small_config(), 40)
        assert backward_eval_layers(params, cache, *upstream, wrt=()) == {}


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
        before = eval_layers_batch(params, pts, pts_cam, t_idx)
        rng = np.random.default_rng(13)
        for name in PARTITION["dy"]:
            params.blocks[name] += rng.standard_normal(params.blocks[name].shape)
        after = eval_layers_batch(params, pts, pts_cam, t_idx)
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
        params = zero_params(small_config())
        path = tmp_path / "model.lmf"
        save_checkpoint(params, path)
        assert path.read_bytes()[:4] == b"LMF1"

    def test_rejects_bad_magic(self, tmp_path):
        params = zero_params(small_config())
        path = tmp_path / "model.lmf"
        save_checkpoint(params, path)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_checkpoint(tmp_path / "none.lmf")

    # Header layout: magic (4), block count (4); then per block: name length
    # (2), name, rank (1), shape (4 per axis), float64 data. The first block
    # is `phi0` with rank 4, so its shape spans bytes 15..30.
    @pytest.mark.parametrize(
        "cut", [2, 6, 12, 14, 20, 40, -8], ids=["magic", "count", "name", "rank", "shape", "data", "last"]
    )
    def test_truncated_file(self, tmp_path, cut):
        params = randomized_params(small_config(), seed=16)
        path = tmp_path / "model.lmf"
        save_checkpoint(params, path)
        path.write_bytes(path.read_bytes()[:cut])
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
        params = zero_params(small_config())
        path = tmp_path / "model.lmf"
        save_checkpoint(params, path)
        data = bytearray(path.read_bytes())
        data[15:19] = b"\xff\xff\xff\xff"  # first axis of phi0
        path.write_bytes(bytes(data))
        with pytest.raises(DataError, match="is cut short"):
            load_checkpoint(path)


def write_lmf(path, blocks):
    """An LMF1 container holding exactly `blocks`, independent of save_checkpoint."""
    with open(path, "wb") as fh:
        fh.write(b"LMF1" + struct.pack("<I", len(blocks)))
        for name, arr in blocks.items():
            fh.write(struct.pack("<H", len(name)) + name.encode("ascii"))
            fh.write(struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape))
            fh.write(np.asarray(arr, dtype="<f8").tobytes())


class TestCheckpointValidation:
    """Malformed sidecars and block sets raise DataError, one case each."""

    @staticmethod
    def saved(tmp_path):
        params = randomized_params(small_config(), seed=17)
        path = tmp_path / "model.lmf"
        save_checkpoint(params, path, meta={"losses": ["rgb"]})
        sidecar = tmp_path / "model.lmf.json"
        return params, path, sidecar, json.loads(sidecar.read_text())

    def test_sidecar_cut_short_is_invalid_json(self, tmp_path):
        _, path, sidecar, _ = self.saved(tmp_path)
        sidecar.write_bytes(sidecar.read_bytes()[:40])
        with pytest.raises(DataError, match="not valid JSON"):
            load_checkpoint(path)

    def test_sidecar_without_config(self, tmp_path):
        _, path, sidecar, _ = self.saved(tmp_path)
        sidecar.write_text(json.dumps({"format": "LMF1"}))
        with pytest.raises(DataError, match="no 'config'"):
            load_checkpoint(path)

    def test_unknown_config_key(self, tmp_path):
        # Sidecars written while the field had a learned-basis mode carry its flag.
        _, path, sidecar, doc = self.saved(tmp_path)
        doc["config"]["learn_basis"] = False
        sidecar.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="unknown keys \\['learn_basis'\\]"):
            load_checkpoint(path)

    def test_missing_config_key(self, tmp_path):
        _, path, sidecar, doc = self.saved(tmp_path)
        del doc["config"]["frustum"]["far"]
        sidecar.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="missing keys \\['far'\\]"):
            load_checkpoint(path)

    def test_extra_block(self, tmp_path):
        params, path, _, _ = self.saved(tmp_path)
        write_lmf(path, {**params.blocks, "bogus": np.zeros(2)})
        with pytest.raises(DataError, match="unexpected blocks \\['bogus'\\]"):
            load_checkpoint(path)

    def test_missing_block(self, tmp_path):
        params, path, _, _ = self.saved(tmp_path)
        write_lmf(path, {k: v for k, v in params.blocks.items() if k != "code_dy"})
        with pytest.raises(DataError, match="missing blocks \\['code_dy'\\]"):
            load_checkpoint(path)

    def test_block_shape_disagrees_with_config(self, tmp_path):
        _, path, sidecar, doc = self.saved(tmp_path)
        doc["config"]["grid_res"] = 7
        sidecar.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="block 'phi0' has shape"):
            load_checkpoint(path)

    def test_independent_writer_round_trips(self, tmp_path):
        params, path, _, _ = self.saved(tmp_path)
        write_lmf(path, params.blocks)
        loaded, meta = load_checkpoint(path)
        assert meta == {"losses": ["rgb"]}
        for name in BLOCK_NAMES:
            np.testing.assert_array_equal(loaded.blocks[name], params.blocks[name])


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
