#!/usr/bin/env python3
"""How far each artifact of one workspace moved against another.

Run from anywhere, with two workspaces of one pipeline (for example the mini
pipeline of `tests/test_cli.py::test_golden_checksums`, run at a parent
commit and at a change):

    python3 tools/golden_diff.py ws_parent ws_change

Every file that differs by bytes is decoded and given its largest move:

  checkpoints (.lmf)   per block, the largest absolute and relative
                       difference, read through `fields.load_checkpoint`
                       (relative: |a - b| / max(|a|, |b|), 0 where both are 0)
  dumps (.f64)         the largest absolute difference
  images (.ppm, .pgm)  the number of changed 8-bit values
  CSV files            per numeric column, the largest absolute difference;
                       per other column, the number of changed cells
  derived files        no decoding: `renders/source.json`, `manifest.csv`
                       and `reports/summary.txt` hold digests or a
                       rendering of other files, so their moves follow
                       from those files' rows

Any other file that differs is listed by name. Prints one markdown table
row per move (one per checkpoint block, one per CSV column), then the count
of equal and differing files. The exit status is 0 when the trees are
byte-identical, 1 when anything differs or exists on one side only, as
with diff(1).
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from layermotion import imgio  # noqa: E402
from layermotion.fields import load_checkpoint  # noqa: E402

DERIVED = {"renders/source.json", "manifest.csv", "reports/summary.txt"}


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    scale = np.maximum(np.abs(a), np.abs(b))
    diff = np.abs(a - b)
    return float(np.max(np.where(scale > 0, diff / np.where(scale > 0, scale, 1.0), 0.0), initial=0.0))


def _checkpoint(a: Path, b: Path):
    (pa, ma), (pb, mb) = load_checkpoint(a), load_checkpoint(b)
    rows = []
    for name in sorted(set(pa.blocks) | set(pb.blocks)):
        x, y = pa.blocks.get(name), pb.blocks.get(name)
        if x is None or y is None or x.shape != y.shape:
            rows.append((f":{name}", "block", "shape changed", None))
        elif not np.array_equal(x, y):
            d = float(np.max(np.abs(x - y)))
            rows.append((f":{name}", "block", f"abs {d:.2g}, rel {_rel(x, y):.2g}", d))
    if pa.config != pb.config:
        rows.append((":config", "config", "changed", None))
    if ma != mb:
        keys = sorted(k for k in set(ma) | set(mb) if ma.get(k) != mb.get(k))
        rows.append((":meta", "derived", "keys " + ", ".join(keys), None))
    return rows


def _f64(a: Path, b: Path):
    x = np.frombuffer(imgio.read_bytes(a), dtype="<f8")
    y = np.frombuffer(imgio.read_bytes(b), dtype="<f8")
    if x.shape != y.shape:
        return [("", "dump", "size changed", None)]
    d = float(np.max(np.abs(x - y)))
    return [("", "dump", f"abs {d:.2g}", d)]


def _image(a: Path, b: Path):
    read = imgio.read_ppm if a.suffix == ".ppm" else imgio.read_pgm
    x, y = read(a), read(b)
    if x.shape != y.shape:
        return [("", "image", "size changed", None)]
    return [("", "image", f"{int(np.count_nonzero(x != y))} of {x.size} values changed", None)]


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _csv(a: Path, b: Path):
    ra, rb = (list(csv.reader(io.StringIO(imgio.read_bytes(p).decode("utf-8")))) for p in (a, b))
    if not ra or not rb or ra[0] != rb[0] or len(ra) != len(rb):
        return [("", "csv", "header or row count changed", None)]
    rows = []
    for j, col in enumerate(ra[0]):
        pairs = [(x[j], y[j]) for x, y in zip(ra[1:], rb[1:]) if x[j] != y[j]]
        if not pairs:
            continue
        nums = [(_number(x), _number(y)) for x, y in pairs]
        if all(x is not None and y is not None for x, y in nums):
            d = max(abs(x - y) for x, y in nums)
            rows.append((f":{col}", "column", f"abs {d:.2g} over {len(pairs)} cells", d))
        else:
            rows.append((f":{col}", "column", f"{len(pairs)} cells changed", None))
    return rows


DECODERS = {".lmf": _checkpoint, ".f64": _f64, ".ppm": _image, ".pgm": _image, ".csv": _csv}


def diff_trees(a: Path, b: Path):
    """(rows, equal): one (path, kind, move, largest absolute move or None) row
    per move between the trees, and the relative paths of the equal files."""
    files = {
        p.relative_to(root).as_posix() for root in (a, b) for p in root.rglob("*") if p.is_file()
    }
    rows, equal = [], []
    for rel in sorted(files):
        pa, pb = a / rel, b / rel
        if not (pa.is_file() and pb.is_file()):
            rows.append((rel, "missing", f"only in {a if pa.is_file() else b}", None))
        elif imgio.read_bytes(pa) == imgio.read_bytes(pb):
            equal.append(rel)
        elif rel in DERIVED:
            rows.append((rel, "derived", "follows from the other rows", None))
        elif pa.suffix in DECODERS:
            moves = DECODERS[pa.suffix](pa, pb) or [("", "bytes", "differs, decoded values equal", None)]
            rows += [(rel + sub, kind, move, d) for sub, kind, move, d in moves]
        else:
            rows.append((rel, "bytes", "differs (no decoder)", None))
    return rows, equal


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="the reference workspace, such as the parent's")
    parser.add_argument("b", type=Path, help="the workspace to compare with it")
    args = parser.parse_args(argv)
    for root in (args.a, args.b):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    rows, equal = diff_trees(args.a, args.b)
    print("| file | kind | move |\n|---|---|---|")
    for rel, kind, move, _ in rows:
        print(f"| `{rel}` | {kind} | {move} |")
    moved = len({rel.split(":")[0] for rel, *_ in rows})
    print(f"\n{len(equal)} files equal, {moved} differ")
    return 1 if rows else 0


if __name__ == "__main__":
    sys.exit(main())
