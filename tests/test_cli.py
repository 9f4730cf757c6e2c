import csv
import json
import shutil
from pathlib import Path

import pytest

from layermotion.cli import main, read_config_file, sha256_file
from layermotion.errors import ConfigError
from layermotion.fields import FieldConfig, FrustumSpec, save_checkpoint, zero_params

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
        assert (d / "manifest.csv").exists()

    def test_rerun_same_seed_identical_checksums(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for ws in (a, b):
            assert run(["generate", "--workspace", ws, "--scene", "mini:6x24x24",
                        "--seed", 7]) == 0
        assert tree_hashes(a) == tree_hashes(b)

    def test_unknown_scene_is_config_error(self, tmp_path):
        assert run(["generate", "--workspace", tmp_path / "ws", "--scene", "bogus"]) == 2


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

    def test_flipped_block_name_length(self, tmp_path, capsys):
        # Byte 8 is the first block's name length; a flip used to misparse the
        # header into a zero-size shape and end in a raw ValueError.
        ws, ckpt = self.workspace_with_checkpoint(tmp_path)
        data = bytearray(ckpt.read_bytes())
        data[8] ^= 0x01
        ckpt.write_bytes(bytes(data))
        capsys.readouterr()
        assert run(["render", "--workspace", ws, "--frames", "0"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("bad artifact: ") and err.count("\n") == 1
        assert "unexpected blocks" in err


def _cut_meta(d):
    (d / "meta.json").write_bytes((d / "meta.json").read_bytes()[:30])


def _zero_frames(d):
    meta = json.loads((d / "meta.json").read_text())
    (d / "meta.json").write_text(json.dumps({**meta, "n_frames": 0}))


def _edit_r00(d, edit):
    path = d / "cameras.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1][1] = edit(rows[1][1])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _narrow_pseudo(d):
    (d / "pseudo" / "pseudo_0002.pgm").write_bytes(b"P5\n20 24\n255\n" + bytes(20 * 24))


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
    ], ids=["meta_cut_30_bytes", "n_frames_0", "camera_x_prefix", "rotation_scaled", "pgm_20x24"])
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
    @staticmethod
    def cut_sidecars(mini_ws, tmp_path):
        ws = tmp_path / "ws"
        shutil.copytree(mini_ws, ws)
        for sidecar in (ws / "checkpoints").glob("*.lmf.json"):
            sidecar.write_bytes(sidecar.read_bytes()[:40])
        return ws

    def test_render(self, mini_ws, tmp_path, capsys):
        ws = self.cut_sidecars(mini_ws, tmp_path)
        assert run(["render", "--workspace", ws, "--frames", "0"] + TINY) == 3
        assert "not valid JSON" in capsys.readouterr().err

    def test_eval_of_existing_renders(self, mini_ws, tmp_path, capsys):
        ws = self.cut_sidecars(mini_ws, tmp_path)
        assert (ws / "renders" / "mask_dy_0000.f64").exists()
        assert run(["eval", "--workspace", ws] + TINY) == 3
        assert "not valid JSON" in capsys.readouterr().err


def test_numerical_failure_maps_to_exit_4(tmp_path, capsys, monkeypatch):
    import layermotion.cli as cli_mod
    from layermotion.errors import NumericalError

    ws = tmp_path / "ws"
    assert run(["generate", "--workspace", ws, "--scene", "mini:6x24x24"]) == 0

    def exploding_train(params, dataset, cfg):
        raise NumericalError("non-finite training loss")

    monkeypatch.setattr(cli_mod, "train", exploding_train)
    assert run(["train", "--workspace", ws] + TINY) == 4
    assert "non-finite" in capsys.readouterr().err


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

    def test_external_pgm_predictions_share_format(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        base = ["--workspace", ws, "--seed", 1] + TINY
        assert run(["generate"] + base) == 0
        code = run(["eval"] + base + ["--pred-dir", ws / "dataset" / "pseudo",
                                      "--label", "external-2d"])
        assert code == 0
        out = capsys.readouterr().out
        assert "external-2d" in out and "Dyn+SS" in out

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


GOLDEN = Path(__file__).parent / "golden_mini.sha256"
# The sidecars store the field config, and the workspace manifest hashes them.
GOLDEN_EXEMPT = {"manifest.csv", "checkpoints/model.lmf.json", "checkpoints/model_refined.lmf.json"}


def test_golden_checksums(tmp_path):
    """Every artifact of the mini pipeline (seed 0, 2 workers) is pinned byte for byte.

    `golden_mini.sha256` was recorded with numpy 2.4.6 on x86-64; a refactor
    that claims to keep the maths must keep every listed digest. Only the
    checkpoint sidecars and the workspace manifest are exempt.
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
