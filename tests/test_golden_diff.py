"""`tools/golden_diff.py` on mini pipeline workspaces."""

import importlib.util
import shutil
from pathlib import Path

import numpy as np
import pytest

from layermotion import imgio
from layermotion.fields import load_checkpoint, save_checkpoint
from test_cli import run_pipeline

SPEC = importlib.util.spec_from_file_location(
    "golden_diff", Path(__file__).resolve().parent.parent / "tools" / "golden_diff.py"
)
golden_diff = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(golden_diff)


@pytest.fixture(scope="module")
def seed0(tmp_path_factory):
    ws = tmp_path_factory.mktemp("seed0") / "ws"
    run_pipeline(ws, seed=0, workers=2)
    return ws


def test_same_seed_reports_every_file_equal(seed0, tmp_path, capsys):
    again = tmp_path / "ws"
    run_pipeline(again, seed=0, workers=2)
    rows, equal = golden_diff.diff_trees(seed0, again)
    assert rows == []
    assert len(equal) == sum(1 for p in seed0.rglob("*") if p.is_file())
    assert golden_diff.main([str(seed0), str(again)]) == 0
    assert f"{len(equal)} files equal, 0 differ" in capsys.readouterr().out


def test_another_seed_reports_moves(seed0, tmp_path):
    other = tmp_path / "ws"
    run_pipeline(other, seed=1, workers=2)
    rows, _ = golden_diff.diff_trees(seed0, other)
    kinds = {(path.split(":")[0], kind) for path, kind, _, _ in rows}
    assert ("checkpoints/model.lmf", "block") in kinds
    assert ("renders/mask_dy_0000.f64", "dump") in kinds
    assert ("renders/mask_dy_0000.pgm", "image") in kinds
    assert ("reports/training_log.csv", "column") in kinds
    assert ("renders/source.json", "derived") in kinds
    assert ("dataset/meta.json", "bytes") in kinds
    assert golden_diff.main([str(seed0), str(other)]) == 1


def test_rounding_moves_are_measured(seed0, tmp_path):
    # One block, one dump and one log cell nudged at rounding level; the
    # tool names each and reports the size of the move.
    ws = tmp_path / "ws"
    shutil.copytree(seed0, ws)
    ckpt = ws / "checkpoints" / "model.lmf"
    params, meta = load_checkpoint(ckpt)
    params.blocks["phi0"].flat[7] += 2e-15
    save_checkpoint(params, ckpt, meta)
    dump = ws / "renders" / "mask_ss_0002.f64"
    arr = np.frombuffer(imgio.read_bytes(dump), dtype="<f8").copy()
    arr[3] += 1e-16
    imgio.write_f64(dump, arr)
    log = ws / "reports" / "training_log.csv"
    lines = log.read_text().splitlines(keepends=True)
    cells = lines[1].split(",")
    cells[5] = repr(float(cells[5]) + 1e-14)
    lines[1] = ",".join(cells)
    log.write_text("".join(lines))

    rows, equal = golden_diff.diff_trees(seed0, ws)
    by_path = {path: (kind, largest) for path, kind, _, largest in rows}
    assert set(by_path) == {
        "checkpoints/model.lmf:phi0", "renders/mask_ss_0002.f64", "reports/training_log.csv:l_total"
    }
    for path, (lo, hi) in {
        "checkpoints/model.lmf:phi0": (1e-15, 3e-15),
        "renders/mask_ss_0002.f64": (5e-17, 2e-16),
        "reports/training_log.csv:l_total": (5e-15, 2e-14),
    }.items():
        assert lo < by_path[path][1] < hi, path
    assert "renders/mask_ss_0002.pgm" in equal
