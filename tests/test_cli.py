import csv
import errno
import hashlib
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from layermotion import imgio
from layermotion.cli import main, read_config_file, sha256_file
from layermotion.errors import ConfigError
from layermotion.fields import FieldConfig, FrustumSpec, load_checkpoint, save_checkpoint, zero_params

TINY = [
    "--scene", "mini:6x24x24",
    "--epochs", "2", "--steps-per-epoch", "4", "--rays-per-step", "256",
    "--n-samples", "8", "--lr", "2e-3",
    "--refine-steps", "8", "--render-samples", "24",
]


def run(args):
    return main([str(a) for a in args])


def tree_hashes(root: Path) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = sha256_file(p)
    return out


def run_pipeline(ws, seed=0, workers=1):
    base = ["--workspace", ws, "--seed", seed, "--workers", workers] + TINY
    assert run(["generate"] + base) == 0
    assert run(["train"] + base) == 0
    assert run(["refine"] + base) == 0
    assert run(["render"] + base) == 0
    assert run(["eval"] + base) == 0


class TestGenerate:
    def test_bench_file_count_contract(self, tmp_path):
        ws = tmp_path / "ws"
        assert run(["generate", "--workspace", ws, "--scene", "lmf-bench-v1"]) == 0
        d = ws / "dataset"
        assert len(list((d / "frames").glob("*.ppm"))) == 60
        assert len(list((d / "masks").glob("*.pgm"))) == 120
        assert len(list((d / "pseudo").glob("*.pgm"))) == 60
        assert (d / "cameras.csv").exists()

    def test_rerun_same_seed_identical_checksums(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for ws in (a, b):
            assert run(["generate", "--workspace", ws, "--scene", "mini:6x24x24",
                        "--seed", 7]) == 0
        assert tree_hashes(a) == tree_hashes(b)

    def test_unknown_scene_is_config_error(self, tmp_path):
        assert run(["generate", "--workspace", tmp_path / "ws", "--scene", "bogus"]) == 2

    def test_dataset_does_not_depend_on_the_threshold(self, tmp_path):
        # The threshold is a loss setting; the pseudo-labels stay soft.
        a, b = tmp_path / "a", tmp_path / "b"
        for ws, threshold in ((a, 0.3), (b, 0.7)):
            assert run(["generate", "--workspace", ws, "--scene", "mini:6x24x24",
                        "--threshold", threshold]) == 0
        assert tree_hashes(a / "dataset") == tree_hashes(b / "dataset")


class TestConfigFile:
    def test_corrupt_key_names_offender(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 3\nbananas = 7\n")
        code = run(["train", "--workspace", tmp_path / "ws", "--config", cfg])
        assert code == 2
        assert "bananas" in capsys.readouterr().err

    def test_parses_values_and_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nepochs = 3\nlr = 1e-3  # inline\nlosses = rgb,pmf\n")
        parsed = read_config_file(cfg)
        assert parsed == {"epochs": 3, "lr": 1e-3, "losses": "rgb,pmf"}

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scene = bogus\n")
        ws = tmp_path / "ws"
        assert run(["generate", "--workspace", ws, "--config", cfg,
                    "--scene", "mini:6x24x24"]) == 0

    def test_bad_value_type(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = soon\n")
        with pytest.raises(ConfigError):
            read_config_file(cfg)
        cfg.write_bytes(b"epochs = 3\n\xff\xfe\n")
        with pytest.raises(ConfigError):
            read_config_file(cfg)
        assert run(["train", "--workspace", tmp_path / "ws", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    def test_directory_in_place_of_the_config_file(self, tmp_path, capsys):
        assert run(["train", "--workspace", tmp_path / "ws", "--config", tmp_path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("bad artifact: ") and "cannot read" in err and err.count("\n") == 1


class TestMissingArtifacts:
    def test_train_without_dataset(self, tmp_path, capsys):
        assert run(["train", "--workspace", tmp_path / "ws"]) == 3
        assert "meta.json" in capsys.readouterr().err

    def test_refine_without_checkpoint(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        assert run(["generate", "--workspace", ws, "--scene", "mini:6x24x24"]) == 0
        assert run(["refine", "--workspace", ws]) == 3
        assert "model.lmf" in capsys.readouterr().err

    @staticmethod
    def workspace_with_checkpoint(tmp_path):
        ws = tmp_path / "ws"
        assert run(["generate", "--workspace", ws, "--scene", "mini:6x24x24"]) == 0
        frustum = FrustumSpec(fx=8.0, fy=8.0, cx=3.5, cy=3.5, width=8, height=8)
        ckpt = ws / "checkpoints" / "model.lmf"
        ckpt.parent.mkdir(exist_ok=True)
        save_checkpoint(zero_params(FieldConfig(n_frames=6, frustum=frustum)), ckpt)
        return ws, ckpt

    def test_truncated_checkpoint(self, tmp_path, capsys):
        ws, ckpt = self.workspace_with_checkpoint(tmp_path)
        ckpt.write_bytes(ckpt.read_bytes()[:-1])
        assert run(["render", "--workspace", ws, "--frames", "0"]) == 3
        assert "cut short" in capsys.readouterr().err

    def test_flipped_header_length(self, tmp_path, capsys):
        # Bytes 4..8 hold the JSON header's length.
        ws, ckpt = self.workspace_with_checkpoint(tmp_path)
        data = bytearray(ckpt.read_bytes())
        data[4] ^= 0x01
        ckpt.write_bytes(bytes(data))
        capsys.readouterr()
        assert run(["render", "--workspace", ws, "--frames", "0"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("bad artifact: ") and err.count("\n") == 1
        assert "header is not valid JSON" in err


def _cut_meta(d):
    (d / "meta.json").write_bytes((d / "meta.json").read_bytes()[:30])


def _zero_frames(d):
    meta = json.loads((d / "meta.json").read_text())
    (d / "meta.json").write_text(json.dumps({**meta, "n_frames": 0}))


def _edit_cameras(d, edit):
    """Apply `edit(header, rows)` to the rows of cameras.csv in place."""
    path = d / "cameras.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows[0], rows[1:])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _edit_r00(d, edit):
    def r00(header, rows):
        rows[0][1] = edit(rows[0][1])
    _edit_cameras(d, r00)


def _narrow_pseudo(d):
    (d / "pseudo" / "pseudo_0002.pgm").write_bytes(b"P5\n20 24\n255\n" + bytes(20 * 24))


def _reverse_t(header, rows):
    for row, t in zip(rows, reversed([row[0] for row in rows])):
        row[0] = t


def _double_fx(header, rows):
    col = header.index("fx")
    rows[3][col] = repr(2.0 * float(rows[3][col]))


def _directory_in_place_of(name):
    def corrupt(d):
        (d / name).unlink()
        (d / name).mkdir()
    return corrupt


class TestMalformedDataset:
    """Each malformed dataset input ends `lmf train` with exit 3 and one line on stderr."""

    @pytest.fixture(scope="class")
    def generated(self, tmp_path_factory):
        ws = tmp_path_factory.mktemp("gen") / "ws"
        assert run(["generate", "--workspace", ws, "--scene", "mini:6x24x24"]) == 0
        return ws

    @pytest.mark.parametrize("corrupt, message", [
        (_cut_meta, "not valid JSON"),
        (_zero_frames, "n_frames must be a positive integer"),
        (lambda d: _edit_r00(d, lambda v: "x" + v), "could not convert"),
        (lambda d: _edit_r00(d, lambda v: repr(1.5 * float(v))), "not orthonormal"),
        (_narrow_pseudo, "image is 20x24"),
        (lambda d: _edit_cameras(d, _reverse_t), "row 1: t is 5, expected 0"),
        (lambda d: _edit_cameras(d, _double_fx), "camera 3 intrinsics"),
        (_directory_in_place_of("cameras.csv"), "cameras.csv: cannot read"),
        (_directory_in_place_of("frames/frame_0002.ppm"), "frame_0002.ppm: cannot read"),
    ], ids=["meta_cut_30_bytes", "n_frames_0", "camera_x_prefix", "rotation_scaled", "pgm_20x24",
            "t_reversed", "fx_doubled_in_row_3", "cameras_csv_is_a_directory", "frame_is_a_directory"])
    def test_train_exits_3(self, generated, tmp_path, capsys, corrupt, message):
        ws = tmp_path / "ws"
        shutil.copytree(generated, ws)
        corrupt(ws / "dataset")
        capsys.readouterr()
        assert run(["train", "--workspace", ws] + TINY) == 3
        err = capsys.readouterr().err
        assert err.startswith("bad artifact: ") and err.count("\n") == 1
        assert message in err


@pytest.fixture(scope="module")
def mini_ws(tmp_path_factory):
    """A finished mini pipeline; tests that change it work on a copy."""
    ws = tmp_path_factory.mktemp("mini") / "ws"
    run_pipeline(ws, seed=3)
    return ws


class TestFrameRange:
    @pytest.mark.parametrize("sub", ["render", "eval", "refine"])
    @pytest.mark.parametrize("frames", ["99", "-1", "0,6"])
    def test_out_of_range_frames_are_config_errors(self, mini_ws, capsys, sub, frames):
        assert run([sub, "--workspace", mini_ws, f"--frames={frames}"] + TINY) == 2
        assert "outside [0, 6)" in capsys.readouterr().err

    @pytest.mark.parametrize("sub", ["render", "eval", "refine"])
    def test_empty_frame_list_is_a_config_error(self, mini_ws, capsys, sub):
        # The (frames, message) pairs run in one test per subcommand.
        before = tree_hashes(mini_ws)
        for frames, message in ((",", "empty frame list"), ("0,0", "frame 0 repeated")):
            capsys.readouterr()
            assert run([sub, "--workspace", mini_ws, f"--frames={frames}"] + TINY) == 2, frames
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and message in err
            assert tree_hashes(mini_ws) == before


    def test_render_rejects_empty_or_repeated_eval_frames(self, mini_ws, tmp_path, capsys):
        # Without --frames, render takes meta.json's eval_frames, which loading checks.
        ws = tmp_path / "ws"
        shutil.copytree(mini_ws, ws)
        meta_path = ws / "dataset" / "meta.json"
        meta = json.loads(meta_path.read_text())
        for frames in ([], [0, 0]):
            meta_path.write_text(json.dumps({**meta, "eval_frames": frames}))
            before = tree_hashes(ws / "renders")
            capsys.readouterr()
            assert run(["render", "--workspace", ws] + TINY) == 3, frames
            err = capsys.readouterr().err
            assert err.startswith("bad artifact: ") and "eval_frames must be non-empty" in err
            assert tree_hashes(ws / "renders") == before


@pytest.mark.parametrize("sub, flag, value", [
    ("train", "--n-samples", 1),
    ("train", "--render-samples", 0),
    ("render", "--render-samples", 1),
    ("refine", "--neighbors", -1),
    ("generate", "--recall", 0),
    ("generate", "--fpr", 1),
    ("generate", "--threshold", 1.5),
    ("train", "--threshold", 1.5),
    ("train", "--steps-per-epoch", 0),
    ("train", "--steps-per-epoch", -3),
    ("refine", "--refine-steps", -1),
    ("train", "--losses", ","),
    ("refine", "--losses", ","),
    ("train", "--workers", 0),
    ("render", "--workers", -3),
    ("train", "--epochs", 0),
    ("train", "--lr", "nan"),
    ("train", "--lr", "inf"),
    ("refine", "--refine-lr", "nan"),
    ("refine", "--refine-lr", "inf"),
    ("generate", "--lambda-pmf", "nan"),
    ("generate", "--lambda-nmf", "inf"),
])
def test_out_of_range_settings_exit_2(mini_ws, capsys, sub, flag, value):
    # Each run stops before it writes, so the shared workspace stays as it was.
    before = tree_hashes(mini_ws)
    capsys.readouterr()
    assert run([sub, "--workspace", mini_ws] + TINY + [flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert tree_hashes(mini_ws) == before


class TestBadSidecar:
    """A workspace from before checkpoints held their own config: LMF1 blocks
    beside a JSON sidecar. Nothing reads the sidecar, and the magic is exit 3."""

    @staticmethod
    def lmf1_workspace(mini_ws, tmp_path):
        ws = tmp_path / "ws"
        shutil.copytree(mini_ws, ws)
        for ckpt in (ws / "checkpoints").glob("*.lmf"):
            ckpt.write_bytes(b"LMF1" + ckpt.read_bytes()[4:])
            Path(f"{ckpt}.json").write_text('{"format": "LMF1"}')
        return ws

    def test_render(self, mini_ws, tmp_path, capsys):
        ws = self.lmf1_workspace(mini_ws, tmp_path)
        assert run(["render", "--workspace", ws, "--frames", "0"] + TINY) == 3
        assert "bad magic" in capsys.readouterr().err

    def test_eval_of_existing_renders(self, mini_ws, tmp_path, capsys):
        ws = self.lmf1_workspace(mini_ws, tmp_path)
        assert (ws / "renders" / "mask_dy_0000.f64").exists()
        assert run(["eval", "--workspace", ws] + TINY) == 3
        assert "bad magic" in capsys.readouterr().err


class TestCheckpointOfAnotherDataset:
    """A checkpoint trained on mini:6x24x24 over a regenerated dataset."""

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        ws = tmp_path_factory.mktemp("trained") / "ws"
        assert run(["generate", "--workspace", ws] + TINY) == 0
        assert run(["train", "--workspace", ws] + TINY) == 0
        return ws

    # Each once ran: the 8-frame cases exited 1 (frame index outside [0, T))
    # or, for refine --frames 1, 0; the 32x32 ones exited 0.
    @pytest.mark.parametrize("scene, args", [
        ("mini:8x24x24", ["render"]),
        ("mini:8x24x24", ["eval"]),
        ("mini:8x24x24", ["refine", "--frames", "6"]),
        ("mini:8x24x24", ["refine", "--frames", "1"]),
        ("mini:6x32x32", ["refine"]),
        ("mini:6x32x32", ["render"]),
    ], ids=["8_frames-render", "8_frames-eval", "8_frames-refine_6", "8_frames-refine_1",
            "32x32-refine", "32x32-render"])
    def test_exits_3(self, trained, tmp_path, capsys, scene, args):
        ws = tmp_path / "ws"
        shutil.copytree(trained, ws)
        assert run(["generate", "--workspace", ws] + TINY + ["--scene", scene]) == 0
        before = tree_hashes(ws)
        capsys.readouterr()
        assert run(args + ["--workspace", ws] + TINY) == 3
        err = capsys.readouterr().err
        assert err.startswith("bad artifact: ") and err.count("\n") == 1
        assert "model.lmf: its field config differs from the dataset's" in err
        assert tree_hashes(ws) == before


def test_refined_checkpoint_of_a_replaced_model(mini_ws, tmp_path, capsys):
    # Once scored the old refined model as ND+TR+PMF+NMF with exit 0.
    ws = tmp_path / "ws"
    shutil.copytree(mini_ws, ws)
    assert run(["train", "--workspace", ws, "--losses", "rgb", "--seed", 3] + TINY) == 0
    for sub in ("eval", "render"):
        capsys.readouterr()
        assert run([sub, "--workspace", ws] + TINY) == 3, sub
        err = capsys.readouterr().err
        assert err.startswith("bad artifact: ") and "model_refined.lmf: refined from another model.lmf" in err


def test_a_refined_checkpoint_without_a_lineage_record(mini_ws, tmp_path, capsys):
    # A refined checkpoint as refine once wrote it: the scalar model_sha256,
    # right for the current model.lmf, and no lineage record.
    ws = tmp_path / "ws"
    shutil.copytree(mini_ws, ws)
    refined = ws / "checkpoints" / "model_refined.lmf"
    params, meta = load_checkpoint(refined)
    del meta["lineage"]
    save_checkpoint(params, refined, dict(meta, model_sha256=sha256_file(ws / "checkpoints" / "model.lmf")))
    for sub in ("render", "eval"):
        capsys.readouterr()
        assert run([sub, "--workspace", ws] + TINY) == 3, sub
        err = capsys.readouterr().err
        assert err.startswith("bad artifact: ") and "rerun refine" in err


@pytest.mark.parametrize("losses", [5, ["rgb", 5]])
def test_eval_rejects_malformed_losses_in_the_checkpoint(mini_ws, tmp_path, capsys, losses):
    # 5 once died in the label as a raw TypeError; ["rgb", 5] was scored.
    ws = tmp_path / "ws"
    shutil.copytree(mini_ws, ws)
    shutil.rmtree(ws / "renders")
    refined = ws / "checkpoints" / "model_refined.lmf"
    params, meta = load_checkpoint(refined)
    save_checkpoint(params, refined, dict(meta, losses=losses))
    capsys.readouterr()
    assert run(["eval", "--workspace", ws] + TINY) == 3
    err = capsys.readouterr().err
    assert err.startswith("bad artifact: ") and "losses must be a list of loss names" in err


def test_a_failed_write_is_exit_1(mini_ws, tmp_path, capsys, monkeypatch):
    # Once escaped `main` as a raw OSError.
    ws = tmp_path / "ws"
    shutil.copytree(mini_ws, ws)
    before = (ws / "checkpoints" / "model.lmf").read_bytes()

    def disk_full(src, dst):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(dst))

    monkeypatch.setattr(imgio.os, "replace", disk_full)
    capsys.readouterr()
    assert run(["train", "--workspace", ws] + TINY) == 1
    monkeypatch.undo()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "No space left on device" in err
    assert (ws / "checkpoints" / "model.lmf").read_bytes() == before
    assert list(ws.rglob("*.tmp")) == []


def test_a_failed_checkpoint_write_leaves_a_whole_checkpoint(tmp_path, capsys, monkeypatch):
    # The disk fills at the checkpoint write of a retrain: train exits 1 and
    # eval scores the old model under its own label. With a separate sidecar
    # it once scored the new blocks as ND.
    ws, copy = tmp_path / "ws", tmp_path / "copy"
    base = ["--seed", 1] + TINY
    assert run(["generate", "--workspace", ws] + base) == 0
    assert run(["train", "--workspace", ws, "--losses", "rgb"] + base) == 0

    def table(root):
        capsys.readouterr()
        assert run(["eval", "--workspace", root] + base) == 0
        return capsys.readouterr().out

    before = table(ws)
    shutil.copytree(ws, copy)
    assert run(["train", "--workspace", copy] + base) == 0
    retrained = table(copy)
    assert "ND+PMF+NMF" in retrained and "ND+PMF+NMF" not in before

    write_bytes, written = imgio.write_bytes, []

    def disk_fills(path, data):
        if "checkpoints" in Path(path).parts:
            written.append(Path(path))
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
        write_bytes(path, data)

    monkeypatch.setattr(imgio, "write_bytes", disk_fills)
    assert run(["train", "--workspace", ws] + base) == 1
    monkeypatch.undo()
    assert written == [ws / "checkpoints" / "model.lmf"]
    assert table(ws) == before


class TestRenderSource:
    def test_render_records_its_checkpoint(self, mini_ws):
        ckpt = mini_ws / "checkpoints" / "model_refined.lmf"
        source = mini_ws / "renders" / "source.json"
        dumps = sorted(mini_ws.glob("renders/mask_*.f64"))
        assert len(dumps) == 12
        written = [p for p in mini_ws.glob("renders/*") if p != source]
        assert json.loads(source.read_text()) == {
            "checkpoints/model_refined.lmf": sha256_file(ckpt),
            **{p.relative_to(mini_ws).as_posix(): sha256_file(p) for p in written},
        }
        rows = [line.split(",") for line in (mini_ws / "manifest.csv").read_text().splitlines()]
        assert ["render", "render", "renders/source.json", sha256_file(source)] in rows

    def test_eval_rejects_renders_of_another_checkpoint(self, tmp_path, capsys):
        # Rendered before refine: the dumps come from model.lmf, but eval
        # picks model_refined.lmf and would label them +TR.
        ws = tmp_path / "ws"
        base = ["--workspace", ws, "--seed", 1] + TINY
        for sub in ("generate", "train", "render", "refine"):
            assert run([sub] + base) == 0
        capsys.readouterr()
        assert run(["eval"] + base) == 3
        err = capsys.readouterr().err
        assert err.startswith("bad artifact: ") and "checkpoints/model_refined.lmf" in err
        assert not (ws / "reports" / "eval.csv").exists()

    @pytest.mark.parametrize("source", [
        None,
        b'{"checkpoint": ',
        b"\xff\xfe",
        b"[]",
        b'{"checkpoint": "checkpoints/model_refined.lmf", "sha256": "00"}',
        b'{"checkpoint": "checkpoints/model.lmf", "sha256": "00"}',
        "old shape",
    ])
    def test_eval_needs_a_matching_source(self, mini_ws, tmp_path, capsys, source):
        ws = tmp_path / "ws"
        shutil.copytree(mini_ws, ws)
        path = ws / "renders" / "source.json"
        if source is None:
            path.unlink()
        elif source == "old shape":
            # The record as renders once wrote it, with every digest right.
            dumps = sorted(ws.glob("renders/mask_*.f64"))
            path.write_text(json.dumps({
                "checkpoint": "checkpoints/model_refined.lmf",
                "sha256": sha256_file(ws / "checkpoints" / "model_refined.lmf"),
                "mask_dumps": {p.relative_to(ws).as_posix(): sha256_file(p) for p in dumps},
            }))
        else:
            path.write_bytes(source)
        capsys.readouterr()
        assert run(["eval", "--workspace", ws] + TINY) == 3
        err = capsys.readouterr().err
        assert err.startswith("bad artifact: ") and "source.json" in err

    def test_eval_rejects_a_dump_with_other_bytes(self, mini_ws, tmp_path, capsys):
        # In-range zeros once moved Dyn from 96.76 to 82.61 with exit 0.
        ws = tmp_path / "ws"
        shutil.copytree(mini_ws, ws)
        dump = ws / "renders" / "mask_dy_0000.f64"
        dump.write_bytes(bytes(len(dump.read_bytes())))
        before = tree_hashes(ws)
        capsys.readouterr()
        assert run(["eval", "--workspace", ws] + TINY) == 3
        err = capsys.readouterr().err
        assert err.startswith("bad artifact: ") and err.count("\n") == 1
        assert "renders/mask_dy_0000.f64 differs from what the last render wrote" in err
        assert tree_hashes(ws) == before


def _overwrite_dump(ws, name, changes):
    """Set values of a mask dump (index -> value) and record its new bytes in
    `renders/source.json`, as a render that wrote those values would have."""
    dump = ws / "renders" / name
    values = np.frombuffer(dump.read_bytes(), dtype="<f8").copy()
    values[list(changes)] = list(changes.values())
    dump.write_bytes(values.astype("<f8").tobytes())
    source = ws / "renders" / "source.json"
    recorded = json.loads(source.read_text())
    recorded[f"renders/{name}"] = sha256_file(dump)
    source.write_text(json.dumps(recorded))


@pytest.mark.parametrize("value, message", [
    (np.nan, "frame 0: non-finite mask score"),
    (7.0, "mask_dy_0000.f64: mask values outside [0, 1]"),
    (-1e-9, "mask_dy_0000.f64: mask values outside [0, 1]"),
], ids=["nan", "seven", "negative"])
def test_eval_rejects_corrupt_mask_dumps(mini_ws, tmp_path, capsys, value, message):
    # Each once scored: NaN gave Dyn 80.58 and 7.0 gave 79.53, both exit 0.
    ws = tmp_path / "ws"
    shutil.copytree(mini_ws, ws)
    _overwrite_dump(ws, "mask_dy_0000.f64", {17: value})
    capsys.readouterr()
    assert run(["eval", "--workspace", ws] + TINY) == 3
    err = capsys.readouterr().err
    assert err.startswith("bad artifact: ") and message in err


def test_mask_dumps_within_rounding_of_the_unit_range_are_scored(mini_ws, tmp_path):
    ws = tmp_path / "ws"
    shutil.copytree(mini_ws, ws)
    _overwrite_dump(ws, "mask_dy_0000.f64", {17: -1e-13, 18: 1.0 + 1e-13})
    assert run(["eval", "--workspace", ws] + TINY) == 0


def test_numerical_failure_maps_to_exit_4(tmp_path, capsys, monkeypatch):
    import layermotion.cli as cli_mod
    from layermotion.errors import NumericalError

    ws = tmp_path / "ws"
    assert run(["generate", "--workspace", ws] + TINY) == 0
    assert run(["train", "--workspace", ws] + TINY) == 0
    log = ws / "reports" / "training_log.csv"
    before = log.read_bytes()

    def exploding_train(params, dataset, cfg):
        raise NumericalError("non-finite training loss")

    monkeypatch.setattr(cli_mod, "train", exploding_train)
    capsys.readouterr()
    assert run(["train", "--workspace", ws] + TINY) == 4
    err = capsys.readouterr().err
    assert "non-finite" in err
    # The failed run wrote no log, so stderr must not point at the earlier one.
    assert "training_log.csv" not in err
    assert log.read_bytes() == before


class TestPipeline:
    def test_labels_and_reports(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        base = ["--workspace", ws, "--seed", 1] + TINY
        assert run(["generate"] + base) == 0
        assert run(["train"] + base + ["--losses", "rgb"]) == 0
        assert run(["eval"] + base) == 0
        out = capsys.readouterr().out
        assert "ND " in out or "ND\n" in out.replace("  ", " ")
        # full fusion + refinement flips the label
        assert run(["train"] + base) == 0
        assert run(["refine"] + base) == 0
        assert run(["eval"] + base) == 0
        out = capsys.readouterr().out
        assert "ND+TR+PMF+NMF" in out
        report = (ws / "reports" / "eval.csv").read_text().splitlines()
        assert report[0] == "label,category,frame,ap,kind"
        assert any(",summary" in line for line in report[1:])

    def test_external_pgm_predictions_share_format(self, mini_ws, tmp_path, capsys):
        ws = tmp_path / "ws"
        shutil.copytree(mini_ws, ws)
        base = ["--workspace", ws] + TINY
        code = run(["eval"] + base + ["--pred-dir", ws / "dataset" / "pseudo",
                                      "--label", "external-2d"])
        assert code == 0
        out = capsys.readouterr().out
        assert "external-2d" in out and "Dyn+SS" in out

        def scores(pred_dir):
            capsys.readouterr()
            assert run(["eval"] + base + ["--pred-dir", pred_dir]) == 0
            return (ws / "reports" / "eval.csv").read_text()

        # mask_dy/mask_ss pairs, as `lmf render` writes them.
        pairs = scores(ws / "renders")
        assert pairs != scores(ws / "dataset" / "pseudo")
        # Only mask_dy: the semi-static layer is scored as zeros, as for pseudo_*.pgm.
        dy_only, as_pseudo = tmp_path / "dy_only", tmp_path / "as_pseudo"
        dy_only.mkdir()
        as_pseudo.mkdir()
        for p in (ws / "renders").glob("mask_dy_*.pgm"):
            shutil.copy(p, dy_only / p.name)
            shutil.copy(p, as_pseudo / p.name.replace("mask_dy", "pseudo"))
        assert scores(dy_only) == scores(as_pseudo) != pairs

        def dyn_rows(text):
            return [line for line in text.splitlines() if line.split(",")[1] == "dyn"]

        assert dyn_rows(scores(dy_only)) == dyn_rows(pairs)
        # A frame with no prediction is a missing artifact.
        next(dy_only.glob("mask_dy_*.pgm")).unlink()
        capsys.readouterr()
        assert run(["eval"] + base + ["--pred-dir", dy_only]) == 3
        assert "prediction for frame" in capsys.readouterr().err

    def test_manifest_records_artifacts(self, tmp_path):
        ws = tmp_path / "ws"
        run_pipeline(ws, seed=2)
        manifest = (ws / "manifest.csv").read_text().splitlines()
        assert manifest[0] == "subcommand,kind,path,sha256"
        commands = {line.split(",")[0] for line in manifest[1:]}
        assert commands == {"generate", "train", "refine", "render", "eval"}
        # every recorded artifact exists and hashes match
        for line in manifest[1:]:
            cmd, kind, rel, digest = line.split(",")
            p = ws / rel
            assert p.exists()
            assert sha256_file(p) == digest


def test_commands_record_their_writes_and_read_none_back(tmp_path, monkeypatch):
    """Each command's manifest rows are exactly its writes, in write order,
    with the digests of the bytes written; no command reads a file it wrote;
    and eval reads each mask dump it scores once."""
    reads, writes = [], []
    read_bytes, write_bytes = imgio.read_bytes, imgio.write_bytes

    def reading(path):
        reads.append(Path(path))
        return read_bytes(path)

    def writing(path, data):
        writes.append((Path(path), data))
        return write_bytes(path, data)

    monkeypatch.setattr(imgio, "read_bytes", reading)
    monkeypatch.setattr(imgio, "write_bytes", writing)
    ws = tmp_path / "ws"
    manifest = ws / "manifest.csv"
    for sub in ("generate", "train", "refine", "render", "eval"):
        reads.clear()
        writes.clear()
        rows_before = len(manifest.read_text().splitlines()) if manifest.exists() else 1
        assert run([sub, "--workspace", ws, "--seed", 0] + TINY) == 0, sub
        rows = [line.split(",") for line in manifest.read_text().splitlines()[rows_before:]]
        assert [(rel, digest) for _, _, rel, digest in rows] == [
            (p.relative_to(ws).as_posix(), hashlib.sha256(data).hexdigest()) for p, data in writes
        ], sub
        assert {p for p, _ in writes}.isdisjoint(reads), sub
    dumps = [p for p in reads if p.parent.name == "renders" and p.suffix == ".f64"]
    assert len(dumps) == 12 and len(set(dumps)) == 12


GOLDEN = Path(__file__).parent / "golden_mini.sha256"
# The workspace manifest hashes the checkpoints, which store the field config.
GOLDEN_EXEMPT = {"manifest.csv"}


def test_golden_checksums(tmp_path):
    """Every artifact of the mini pipeline (seed 0, 2 workers) is pinned byte for byte.

    `golden_mini.sha256` was recorded with numpy 2.4.6 on x86-64; a refactor
    that claims to keep the maths must keep every listed digest. Only the
    workspace manifest is exempt.
    """
    ws = tmp_path / "ws"
    run_pipeline(ws, seed=0, workers=2)
    expected = dict(
        reversed(line.split("  ", 1)) for line in GOLDEN.read_text().splitlines()
    )
    got = {k: v for k, v in tree_hashes(ws).items() if k not in GOLDEN_EXEMPT}
    assert sorted(got) == sorted(expected)
    changed = sorted(k for k in expected if got[k] != expected[k])
    assert changed == []


@pytest.mark.slow
class TestEndToEndDeterminism:
    def test_checksum_identical_runs_and_worker_independence(self, tmp_path):
        a, b, c = (tmp_path / n for n in ("a", "b", "c"))
        run_pipeline(a, seed=5, workers=1)
        run_pipeline(b, seed=5, workers=1)
        run_pipeline(c, seed=5, workers=2)
        ha, hb, hc = tree_hashes(a), tree_hashes(b), tree_hashes(c)
        assert ha == hb
        assert ha == hc

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_pipeline(a, seed=5)
        run_pipeline(b, seed=6)
        assert tree_hashes(a) != tree_hashes(b)
