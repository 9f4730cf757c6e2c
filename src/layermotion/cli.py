"""Command-line pipeline: generate -> train -> refine -> render -> eval.

One binary with subcommands, a flat key=value config file, and CLI flag
overrides (flags win). Every subcommand appends its artifacts to
`<workspace>/manifest.csv` (subcommand, kind, relative path, sha256) with
the digests its writes returned, so no command reads back what it wrote.
A successful pipeline is reproducible and checkable from the manifest plus
the seed alone; nothing written contains timestamps. A lineage record is
{workspace-relative path: sha256}: a refined checkpoint's `meta["lineage"]`
holds its `model.lmf`, and `renders/source.json` the checkpoint a render
read plus every file it wrote. `_check_lineage` checks both.

Exit codes: 0 success, 1 a failed write or any other engine error,
2 configuration error, 3 missing or stale upstream artifact, 4 numerical
failure during optimization or rendering.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import imgio
from .dataset import Dataset, load_dataset, write_dataset
from .errors import ConfigError, DataError, EngineError, MissingArtifactError, NumericalError
from .evalkit import analyze_pseudo_masks, evaluate, evaluate_params
from .fields import init_params, load_checkpoint, save_checkpoint
from .losses import LOSS_TERMS, LossConfig
from .renderer import RENDER_SAMPLES, render_frame
from .scenegen import (
    BENCH_V1,
    SceneConfig,
    benchmark_config,
    degrade_to_pseudo_masks,
    generate_scene,
    render_ground_truth,
)
from .trainer import LOG_COLUMNS, RefineConfig, TrainConfig, refine, train

# Every setting, as key -> (parser, default, help). The key is the config-file
# key, and with '_' -> '-' the flag of every subcommand. Each default is read
# from the dataclass or constant that owns it; None means unset.
_SETTINGS = {
    "scene": (str, BENCH_V1, "lmf-bench-v1 or mini:TxHxW"),
    "seed": (int, TrainConfig.seed, None),
    "workers": (int, None, "thread count (default: the CPU count)"),
    "epochs": (int, TrainConfig.epochs, None),
    "steps_per_epoch": (int, TrainConfig.steps_per_epoch, None),
    "rays_per_step": (int, TrainConfig.rays_per_step, None),
    "n_samples": (int, TrainConfig.n_samples, None),
    "lr": (float, TrainConfig.learning_rate, None),
    "losses": (str, ",".join(LossConfig.terms), "subset of " + ",".join(LOSS_TERMS)),
    "lambda_pmf": (float, LossConfig.lambda_pmf, None),
    "lambda_nmf": (float, LossConfig.lambda_nmf, None),
    "threshold": (float, LossConfig.threshold, None),
    "recall": (float, SceneConfig.recall, None),
    "fpr": (float, SceneConfig.fpr, None),
    "frames": (str, None, "comma-separated frame set"),
    "neighbors": (int, RefineConfig.neighbors, "symmetric frame window"),
    "refine_steps": (int, RefineConfig.steps, None),
    "refine_lr": (float, RefineConfig.learning_rate, None),
    "render_samples": (int, RENDER_SAMPLES, None),
    "label": (str, None, None),
}


def read_config_file(path) -> dict:
    """Parse a flat key=value file; '#' starts a comment."""
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"config file not found: {path}")
    try:
        text = imgio.read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from e
    out = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key = value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _SETTINGS:
            raise ConfigError(f"{path}:{ln}: unknown config key '{key}'")
        try:
            out[key] = _SETTINGS[key][0](value)
        except ValueError as e:
            raise ConfigError(f"{path}:{ln}: bad value for '{key}': {value!r}") from e
    return out


def _settings(args) -> dict:
    """Table defaults, overridden by the config file, overridden by flags.

    Every subcommand checks the loss settings: `cfg["loss"]` is the one
    `LossConfig` built from them, which owns the binarization threshold.
    """
    cfg = {key: default for key, (_, default, _) in _SETTINGS.items()}
    if args.config:
        cfg.update(read_config_file(args.config))
    for key in _SETTINGS:
        flag = getattr(args, key)
        if flag is not None:
            cfg[key] = flag
    if cfg["workers"] is None:
        cfg["workers"] = os.cpu_count() or 1
    if cfg["workers"] < 1:
        raise ConfigError("workers must be at least 1")
    if cfg["render_samples"] < 2:
        raise ConfigError("render_samples must be at least 2")
    cfg["loss"] = LossConfig(
        terms=tuple(s.strip() for s in cfg["losses"].split(",") if s.strip()),
        lambda_pmf=cfg["lambda_pmf"],
        lambda_nmf=cfg["lambda_nmf"],
        threshold=cfg["threshold"],
    )
    return cfg


def _parse_frames(text: str | None, ds: Dataset) -> tuple[int, ...]:
    """The comma-separated frame list, each frame once, or the dataset's eval frames when unset."""
    if not text:
        return ds.eval_frames
    try:
        frames = tuple(int(s) for s in str(text).split(",") if s.strip() != "")
    except ValueError as e:
        raise ConfigError(f"bad frame list: {text!r}") from e
    if not frames:
        raise ConfigError(f"empty frame list: {text!r}")
    repeated = [t for i, t in enumerate(frames) if t in frames[:i]]
    if repeated:
        raise ConfigError(f"frame {repeated[0]} repeated in {text!r}")
    bad = [t for t in frames if not 0 <= t < ds.n_frames]
    if bad:
        raise ConfigError(f"frames {bad} outside [0, {ds.n_frames})")
    return frames


def sha256_file(path) -> str:
    return hashlib.sha256(imgio.read_bytes(path)).hexdigest()


class Workspace:
    """Directory layout plus the append-only run manifest."""

    def __init__(self, root):
        self.root = Path(root)

    @property
    def dataset_dir(self) -> Path:
        return self.root / "dataset"

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.csv"

    def rel(self, path) -> str:
        """`path` relative to the workspace root, with '/' separators."""
        return Path(path).relative_to(self.root).as_posix()

    def record(self, subcommand: str, kind: str, written: dict) -> None:
        """Append one row per written path (path -> the SHA-256 its write
        returned), in one write; the first call writes the header."""
        rows = [] if self.manifest_path.exists() else [["subcommand", "kind", "path", "sha256"]]
        rows += [[subcommand, kind, self.rel(p), digest] for p, digest in written.items()]
        with open(self.manifest_path, "ab") as fh:
            fh.write(imgio.encode_csv(rows))


def _scene_config(cfg: dict) -> SceneConfig:
    name = cfg["scene"]
    if name == BENCH_V1:
        base = benchmark_config(name, seed=cfg["seed"])
    elif name.startswith("mini:"):
        # mini:TxHxW, reduced smoke scenes
        try:
            t, h, w = (int(v) for v in name.split(":", 1)[1].split("x"))
        except ValueError as e:
            raise ConfigError(f"bad mini scene spec '{name}', want mini:TxHxW") from e
        base = SceneConfig(name=name, n_frames=t, height=h, width=w, seed=cfg["seed"], eval_stride=max(t // 8, 1))
    else:
        raise ConfigError(f"unknown scene '{name}'")
    return dataclasses.replace(base, recall=cfg["recall"], fpr=cfg["fpr"])


def _optim_settings(cfg: dict) -> dict:
    """The TrainConfig/RefineConfig fields the two subcommands share."""
    return dict(
        rays_per_step=cfg["rays_per_step"],
        n_samples=cfg["n_samples"],
        loss=cfg["loss"],
        seed=cfg["seed"],
        workers=cfg["workers"],
    )


def _label(meta: dict) -> str:
    names = meta.get("losses", ["rgb"])
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
        raise DataError(f"checkpoint meta: losses must be a list of loss names, got {names!r}")
    label = "ND"
    if meta.get("refined"):
        label += "+TR"
    if "pmf" in names:
        label += "+PMF"
    if "nmf" in names:
        label += "+NMF"
    return label


def cmd_generate(args) -> int:
    cfg = _settings(args)
    ws = Workspace(args.workspace)
    scene_cfg = _scene_config(cfg)
    scene = generate_scene(scene_cfg)
    gt = render_ground_truth(scene)
    pseudo = degrade_to_pseudo_masks(gt, recall=scene_cfg.recall, fpr=scene_cfg.fpr, seed=scene_cfg.seed)
    ws.record("generate", "dataset", write_dataset(ws.dataset_dir, scene, gt, pseudo, scene_cfg))
    print(f"dataset: {scene.n_frames} frames {scene.height}x{scene.width} -> {ws.dataset_dir}")
    return 0


def cmd_train(args) -> int:
    cfg = _settings(args)
    ws = Workspace(args.workspace)
    ds = load_dataset(ws.dataset_dir)
    tc = TrainConfig(
        epochs=cfg["epochs"],
        learning_rate=cfg["lr"],
        steps_per_epoch=cfg["steps_per_epoch"],
        **_optim_settings(cfg),
    )
    params = init_params(ds.field_config(), seed=cfg["seed"])
    params, log = train(params, ds, tc)
    ckpt = ws.root / "checkpoints" / "model.lmf"
    log_path = ws.root / "reports" / "training_log.csv"
    meta = {"losses": list(tc.loss.terms), "refined": False, "seed": cfg["seed"], "scene": ds.meta.get("name")}
    written = {ckpt: save_checkpoint(params, ckpt, meta), log_path: _write_log(log_path, log)}
    ws.record("train", "checkpoint", written)
    print(f"trained {tc.epochs} epochs ({len(log)} steps) -> {ckpt}")
    return 0


def _write_log(path, log_rows) -> str:
    rows = [[row[c] for c in LOG_COLUMNS] for row in log_rows]
    return imgio.write_bytes(path, imgio.encode_csv([LOG_COLUMNS] + rows))


def cmd_refine(args) -> int:
    cfg = _settings(args)
    ws = Workspace(args.workspace)
    ds = load_dataset(ws.dataset_dir)
    ckpt_in = ws.root / "checkpoints" / "model.lmf"
    if not ckpt_in.exists():
        raise MissingArtifactError(f"checkpoint not found: {ckpt_in} (run train first)")
    params, meta = _load_checkpoint(ckpt_in, ds)
    lineage = {ws.rel(ckpt_in): sha256_file(ckpt_in)}
    frames = _parse_frames(cfg["frames"], ds)
    rc = RefineConfig(
        frames=frames,
        neighbors=cfg["neighbors"],
        steps=cfg["refine_steps"],
        learning_rate=cfg["refine_lr"],
        **_optim_settings(cfg),
    )
    params, log, _ = refine(params, ds, rc)
    ckpt_out = ws.root / "checkpoints" / "model_refined.lmf"
    log_path = ws.root / "reports" / "refine_log.csv"
    meta.update(refined=True, refine_frames=list(frames), neighbors=rc.neighbors, lineage=lineage)
    written = {ckpt_out: save_checkpoint(params, ckpt_out, meta), log_path: _write_log(log_path, log)}
    ws.record("refine", "checkpoint", written)
    print(f"refined on frames {list(frames)} (N={rc.neighbors}) -> {ckpt_out}")
    return 0


def _load_checkpoint(path: Path, ds: Dataset):
    """The checkpoint at `path` as (params, meta); a field config other than
    the one `ds` implies (another frame count, image size or camera) raises
    `DataError`."""
    params, meta = load_checkpoint(path)
    if params.config != ds.field_config():
        raise DataError(f"{path}: its field config differs from the dataset's; retrain on this dataset")
    return params, meta


def _check_lineage(where: Path, record, now: dict, stale: str) -> None:
    """Raise `DataError` unless the lineage record `record` (workspace-relative
    path -> SHA-256, stored in `where`) holds each path of `now` with the
    digest `now` gives it. The message names `where`, then `stale` formatted
    with the first path that is missing or differs (`path`) and its file name
    (`name`)."""
    record = record if isinstance(record, dict) else {}
    for rel, digest in now.items():
        if record.get(rel) != digest:
            raise DataError(f"{where}: " + stale.format(path=rel, name=Path(rel).name))


def _pick_checkpoint(ws: Workspace, ds: Dataset):
    """The checkpoint render and eval use, as (path, params, meta):
    model_refined.lmf when it exists, else model.lmf. A refined checkpoint
    whose lineage does not hold the current model.lmf raises `DataError`."""
    model, refined = ws.root / "checkpoints" / "model.lmf", ws.root / "checkpoints" / "model_refined.lmf"
    path = refined if refined.exists() else model
    if not path.exists():
        raise MissingArtifactError(f"no checkpoint under {path.parent} (run train first)")
    params, meta = _load_checkpoint(path, ds)
    if path == refined:
        _check_lineage(refined, meta.get("lineage"), {ws.rel(model): sha256_file(model)},
                       "refined from another {name} than the current one; rerun refine")
    return path, params, meta


def _mask_dumps(render_dir: Path, t: int) -> list[Path]:
    """The (semi-static, dynamic) mask dumps of frame `t`, which eval scores."""
    return [render_dir / f"{key}_{t:04d}.f64" for key in ("mask_ss", "mask_dy")]


def cmd_render(args) -> int:
    cfg = _settings(args)
    ws = Workspace(args.workspace)
    ds = load_dataset(ws.dataset_dir)
    ckpt, params, _ = _pick_checkpoint(ws, ds)
    frames = _parse_frames(cfg["frames"], ds)
    out_dir = ws.root / "renders"
    # Each frame's files, in manifest order: (channel, file name, encoder).
    # The 8-bit images clip to [0, 1]; the raw dumps keep every value.
    files = [(key, f"{key}_{{t:04d}}.f64", imgio.write_f64)
             for key in ("color", "mask_ss", "mask_dy", "uncertainty")]
    files += [
        ("color", "color_{t:04d}.ppm", imgio.write_ppm),
        ("uncertainty", "b_{t:04d}.pgm", imgio.write_pgm),
        ("mask_ss", "mask_ss_{t:04d}.pgm", imgio.write_pgm),
        ("mask_dy", "mask_dy_{t:04d}.pgm", imgio.write_pgm),
    ]
    written = {}
    for t in frames:
        out = render_frame(
            params, ds.poses[t], t=t, n_samples=cfg["render_samples"], workers=cfg["workers"]
        )
        for key, name, write in files:
            path = out_dir / name.format(t=t)
            written[path] = write(path, out[key])
    # The lineage record eval checks: the checkpoint read, then every file written.
    record = {ws.rel(ckpt): sha256_file(ckpt)} | {ws.rel(p): digest for p, digest in written.items()}
    source = out_dir / "source.json"
    text = json.dumps(record, indent=1, sort_keys=True) + "\n"
    written[source] = imgio.write_bytes(source, text.encode("utf-8"))
    ws.record("render", "render", written)
    print(f"rendered {len(frames)} frames -> {out_dir}")
    return 0


def _predictions_from_pgm_dir(pred_dir: Path, frames, shape):
    """Load external per-frame mask predictions from PGM files.

    Accepts mask_dy_%04d.pgm / mask_ss_%04d.pgm pairs, or single-channel
    dynamic predictions named pseudo_%04d.pgm (semi-static scored as zero).
    """
    preds = {}
    for t in frames:
        dy_p = pred_dir / f"mask_dy_{t:04d}.pgm"
        ss_p = pred_dir / f"mask_ss_{t:04d}.pgm"
        alt = pred_dir / f"pseudo_{t:04d}.pgm"
        if dy_p.exists():
            dy = imgio.read_pgm(dy_p)
            ss = imgio.read_pgm(ss_p) if ss_p.exists() else np.zeros(shape)
        elif alt.exists():
            dy = imgio.read_pgm(alt)
            ss = np.zeros(shape)
        else:
            raise MissingArtifactError(f"prediction for frame {t} not found in {pred_dir}")
        preds[t] = (ss, dy)
    return preds


def cmd_eval(args) -> int:
    cfg = _settings(args)
    ws = Workspace(args.workspace)
    ds = load_dataset(ws.dataset_dir)
    frames = _parse_frames(cfg["frames"], ds)
    label = cfg["label"]
    dumps = {t: _mask_dumps(ws.root / "renders", t) for t in frames}
    if args.pred_dir:
        preds = _predictions_from_pgm_dir(Path(args.pred_dir), frames, (ds.height, ds.width))
        report = evaluate(preds, ds, frames, label=label or "external")
    elif all(p.exists() for pair in dumps.values() for p in pair):
        ckpt, _, meta = _pick_checkpoint(ws, ds)
        source = ws.root / "renders" / "source.json"
        # Each dump is read once. read_f64 checks its length, so an array's
        # digest is its file's: the bytes checked are the bytes scored.
        scored = {p: imgio.read_f64(p, (ds.height, ds.width)) for pair in dumps.values() for p in pair}
        now = {ws.rel(ckpt): sha256_file(ckpt)} | {ws.rel(p): hashlib.sha256(m).hexdigest() for p, m in scored.items()}
        _check_lineage(source, imgio.read_json(source), now,
                       "{path} differs from what the last render wrote or read; rerun render")
        # Masks are density shares: a value past [0, 1] by more than rounding
        # is bad. NaN is left to `evaluate`, which rejects non-finite scores.
        for p, m in scored.items():
            if np.any((m < -1e-12) | (m > 1.0 + 1e-12)):
                raise DataError(f"{p}: mask values outside [0, 1]")
        preds = {t: tuple(scored[p] for p in pair) for t, pair in dumps.items()}
        report = evaluate(preds, ds, frames, label=label or _label(meta))
    else:
        _, params, meta = _pick_checkpoint(ws, ds)
        report = evaluate_params(
            params, ds, frames, label=label or _label(meta),
            n_samples=cfg["render_samples"], workers=cfg["workers"],
        )
    out_dir = ws.root / "reports"
    rows = [["label", "category", "frame", "ap", "kind"]] + [
        [report.label, row["category"], row["frame"], f"{row['ap']:.6f}", row["kind"]] for row in report.as_rows()
    ]
    table = report.summary_table()
    # A loaded dataset always has pseudo-labels; score their quality too.
    cols = ["threshold", "precision", "recall", "fpr", "fnr"]
    quality = [[f"{row[k]:.6f}" for k in cols] for row in analyze_pseudo_masks(ds.pseudo, ds.mask_dyn)]
    files = {
        out_dir / "eval.csv": imgio.encode_csv(rows),
        out_dir / "summary.txt": (table + "\n").encode("utf-8"),
        out_dir / "pseudo_curves.csv": imgio.encode_csv([cols] + quality),
    }
    ws.record("eval", "report", {p: imgio.write_bytes(p, data) for p, data in files.items()})
    print(table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmf",
        description="Layered radiance-field motion fusion on procedural scenes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("generate", cmd_generate),
        ("train", cmd_train),
        ("refine", cmd_refine),
        ("render", cmd_render),
        ("eval", cmd_eval),
    ):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--config", type=str, default=None, help="key=value config file")
        p.add_argument("--workspace", type=str, required=True)
        for key, (parse, _, help_text) in _SETTINGS.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=parse, help=help_text)
        if name == "eval":
            p.add_argument("--pred-dir", type=str, default=None,
                           help="score external PGM mask predictions instead of renders")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except MissingArtifactError as e:
        print(f"missing artifact: {e}", file=sys.stderr)
        return 3
    except DataError as e:
        print(f"bad artifact: {e}", file=sys.stderr)
        return 3
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 4
    except (EngineError, OSError) as e:  # every read error is a DataError, so OSError is a failed write
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
