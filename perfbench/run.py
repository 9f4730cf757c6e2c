#!/usr/bin/env python3
"""Benchmark of the layermotion pipeline: `train`, `refine` and `render_eval`.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train --seed 0 --seconds 30 --trace 0

The engine is imported from the checkout's `src/` and driven in-process
through `layermotion.cli.main` with `--workers 2`; `--seed` is passed on to
every `lmf` command. Set-up generates the `lmf-bench-v1` scene and bakes it
into the start checkpoint. Each repetition then copies that workspace and
runs the workload's `lmf` commands on the copy, until `--seconds` is used up.
`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer metrics
of a traced run. The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`. README.md describes
the workloads, the metrics and the output checks.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIG = ROOT / "configs" / "bench.cfg"
WORK = ROOT / ".perfbench_work"

SCENE = "lmf-bench-v1"
WORKERS = 2
TRAIN_STEPS = 20
REFINE_STEPS = 25  # one guard round: a probe before it and one after
SETUPS = 7  # set-ups per run; setup_s is their median
LOSS_TAIL = 10  # final log rows averaged into loss_final
CHECK_PIXELS = 4  # pixels per frame re-rendered with render_ray
PIXEL_TOL = 1e-9
MASK_TOL = 1e-9
MAP_TOL = 1e-3  # 0.1 mAP point, the ROADMAP's accuracy gate
STATIC = "st"


class CheckFailed(Exception):
    """An output check of one operation failed."""


def load_engine():
    """Import layermotion from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "layermotion" / "cli.py").is_file() or not CONFIG.is_file():
        sys.exit(f"perfbench: layermotion sources or {CONFIG.name} not found under {ROOT}")
    sys.path.insert(0, str(src))
    import layermotion
    import layermotion.cli  # noqa: F401  (not imported by the package itself)

    if Path(layermotion.__file__).resolve().parent != src / "layermotion":
        sys.exit(f"perfbench: imported layermotion from {layermotion.__file__}, not {src}")
    return layermotion


class Bench:
    """One benchmark run: a seed, a scratch directory and the start workspace."""

    def __init__(self, lm, seed: int, work: Path):
        self.lm = lm
        self.seed = seed
        self.work = work
        self.settings = lm.cli.read_config_file(CONFIG)
        recorded = json.loads((BENCH / "expected_maps.json").read_text())
        self.expected_maps = recorded.get(str(seed))
        self.template: Path | None = None

    # -- lmf commands -----------------------------------------------------

    def lmf(self, sub: str, ws: Path, *extra: str, workers: int = WORKERS) -> float:
        """Run one `lmf` subcommand in-process; returns its wall time."""
        argv = [sub, "--workspace", str(ws), "--config", str(CONFIG),
                "--seed", str(self.seed), "--workers", str(workers), *extra]
        err = io.StringIO()
        t0 = perf_counter()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = self.lm.cli.main(argv)
        wall = perf_counter() - t0
        if code != 0:
            raise CheckFailed(f"lmf {sub} exited {code}: {err.getvalue().strip()}")
        return wall

    # -- set-up -----------------------------------------------------------

    def set_up(self, ws: Path) -> float:
        """Generate the scene and bake the start checkpoint; returns the wall time."""
        lm = self.lm
        t0 = perf_counter()
        self.lmf("generate", ws)
        ds = lm.dataset.load_dataset(ws / "dataset")
        scene = lm.scenegen.generate_scene(lm.scenegen.benchmark_config(SCENE, seed=self.seed))
        params = lm.bake.bake_scene(scene, ds.field_config())
        (ws / "checkpoints").mkdir()
        meta = {"losses": self.settings["losses"].split(","), "refined": False,
                "seed": self.seed, "scene": SCENE}
        lm.fields.save_checkpoint(params, ws / "checkpoints" / "model.lmf", meta)
        return perf_counter() - t0

    def adopt_template(self, ws: Path) -> None:
        lm = self.lm
        self.template = ws
        self.ds = lm.dataset.load_dataset(ws / "dataset")
        ckpt = ws / "checkpoints" / "model.lmf"
        self.start_sha256 = lm.cli.sha256_file(ckpt)
        self.start_params, _ = lm.fields.load_checkpoint(ckpt)
        self.start_digest = lm.trainer.partition_digest(self.start_params, STATIC)
        # l_total is bounded below by the uncertainty term's floor log(beta_min^2);
        # loss_final is reported above that floor so that it stays positive.
        self.loss_floor = 2.0 * math.log(self.start_params.config.beta_min)

    # -- workloads: each returns (wall of its lmf commands, rays asked for) --

    def run_train(self, ws: Path, workers: int):
        wall = self.lmf("train", ws, "--epochs", "1", "--steps-per-epoch", str(TRAIN_STEPS), workers=workers)
        return wall, TRAIN_STEPS * self.settings["rays_per_step"]

    def run_refine(self, ws: Path, workers: int):
        wall = self.lmf("refine", ws, "--refine-steps", str(REFINE_STEPS), workers=workers)
        return wall, REFINE_STEPS * self.settings["rays_per_step"]

    def run_render_eval(self, ws: Path, workers: int):
        wall = self.lmf("render", ws, workers=workers) + self.lmf("eval", ws, workers=workers)
        return wall, len(self.ds.eval_frames) * self.ds.height * self.ds.width

    # -- output checks: each returns the quality figures of one repetition --

    def check_log(self, path: Path, steps: int) -> float:
        """One finite row per step; returns the mean final l_total above its floor."""
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != steps:
            raise CheckFailed(f"{path.name}: {len(rows)} rows for {steps} steps")
        values = [float(v) for row in rows for k, v in row.items() if k not in ("epoch", "step")]
        if not all(math.isfinite(v) for v in values):
            raise CheckFailed(f"{path.name}: non-finite loss or gradient norm")
        tail = [float(row["l_total"]) for row in rows[-LOSS_TAIL:]]
        return sum(tail) / len(tail) - self.loss_floor

    def check_train(self, ws: Path) -> dict:
        return {"loss": self.check_log(ws / "reports" / "training_log.csv", TRAIN_STEPS)}

    def check_refine(self, ws: Path) -> dict:
        loss = self.check_log(ws / "reports" / "refine_log.csv", REFINE_STEPS)
        refined, _ = self.lm.fields.load_checkpoint(ws / "checkpoints" / "model_refined.lmf")
        if self.lm.trainer.partition_digest(refined, STATIC) != self.start_digest:
            raise CheckFailed("refine changed the static partition")
        return {"loss": loss}

    def check_render_eval(self, ws: Path) -> dict:
        lm, ds, s = self.lm, self.ds, self.settings
        h, w = ds.height, ds.width
        shapes = {"color": (h, w, 3), "uncertainty": (h, w), "mask_ss": (h, w), "mask_dy": (h, w)}
        preds = {}
        rgb = pmf = nmf = 0.0
        n_fused = 0
        for t in ds.eval_frames:
            dump = {k: lm.imgio.read_f64(ws / "renders" / f"{k}_{t:04d}.f64", shape) for k, shape in shapes.items()}
            ss, dy = dump["mask_ss"], dump["mask_dy"]
            if min(ss.min(), dy.min()) < 0.0 or max(ss.max(), dy.max()) > 1.0 + MASK_TOL:
                raise CheckFailed(f"frame {t}: mask outside [0, 1]")
            if (ss + dy).max() > 1.0 + MASK_TOL:
                raise CheckFailed(f"frame {t}: mask_ss + mask_dy exceeds 1")
            self.check_pixels(t, dump)
            preds[t] = (ss, dy)
            # The training objective over every pixel of the rendered frame.
            b = dump["uncertainty"]
            err = ((dump["color"] - ds.rgb[t]) ** 2).sum(axis=-1)
            rgb += float((err / (2.0 * b**2) + np.log(b**2)).sum())
            pmf += float(((dy - ds.pseudo[t]) ** 2).sum())
            fused = ds.pseudo[t] >= s["threshold"]
            nmf += float((ss[fused] ** 2).sum())
            n_fused += int(fused.sum())
        n_pix = len(ds.eval_frames) * h * w
        l_total = rgb / n_pix + s["lambda_pmf"] * pmf / n_pix + (s["lambda_nmf"] * nmf / n_fused if n_fused else 0.0)

        maps = self.read_maps(ws)
        ref = lm.evalkit.evaluate(preds, ds, ds.eval_frames)
        scored = (ref.map_dyn, ref.map_ss, ref.map_union)
        if max(abs(a - b) for a, b in zip(maps, scored)) > 1e-6:
            raise CheckFailed(f"eval.csv mAPs {maps} differ from scoring the renders {scored}")
        if self.expected_maps is not None:
            expect = tuple(self.expected_maps[c] for c in ("dyn", "ss", "union"))
            if max(abs(a - b) for a, b in zip(maps, expect)) > MAP_TOL:
                raise CheckFailed(f"mAPs {maps} differ from those recorded for seed {self.seed}: {expect}")
        return {"loss": l_total - self.loss_floor, "maps": maps}

    def check_pixels(self, t: int, dump: dict) -> None:
        """A few pixels of the frame dumps against the single-ray renderer."""
        lm, ds = self.lm, self.ds
        rng = np.random.default_rng([self.seed, 31, t])
        objects = np.flatnonzero(ds.mask_dyn[t] | ds.mask_ss[t])
        picks = list(rng.choice(ds.height * ds.width, CHECK_PIXELS // 2, replace=False))
        if objects.size:
            picks += list(rng.choice(objects, min(CHECK_PIXELS - len(picks), objects.size), replace=False))
        pose = ds.poses[t]
        for p in picks:
            iy, ix = divmod(int(p), ds.width)
            ray = lm.geometry.ray_through_pixel(pose, (ix, iy))
            out = lm.renderer.render_ray(self.start_params, ray, pose, t=t, n_samples=self.settings["render_samples"])
            for key in ("color", "uncertainty", "mask_ss", "mask_dy"):
                if np.max(np.abs(getattr(out, key) - dump[key][iy, ix])) > PIXEL_TOL:
                    raise CheckFailed(f"frame {t} pixel ({ix}, {iy}): {key} differs from render_ray")

    def read_maps(self, ws: Path) -> tuple[float, float, float]:
        """(dyn, ss, union) mAP from the summary rows of reports/eval.csv."""
        with open(ws / "reports" / "eval.csv", newline="") as fh:
            summary = {r["category"]: float(r["ap"]) for r in csv.DictReader(fh) if r["kind"] == "summary"}
        maps = tuple(summary.get(c, math.nan) for c in ("dyn", "ss", "union"))
        if not all(0.0 <= m <= 1.0 for m in maps):
            raise CheckFailed(f"eval.csv summary mAPs out of range: {maps}")
        return maps

    def score(self, ws: Path) -> tuple[float, float, float]:
        """mAPs of the model a train or refine repetition left in `ws`, rendered
        at the sample count it was trained with."""
        self.lmf("eval", ws, "--render-samples", str(self.settings["n_samples"]))
        return self.read_maps(ws)


WORKLOADS = {
    "train": (Bench.run_train, Bench.check_train),
    "refine": (Bench.run_refine, Bench.check_refine),
    "render_eval": (Bench.run_render_eval, Bench.check_render_eval),
}


class Tally:
    """Operations attempted and failed; a failure is reported, not raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, what: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # any failure of one operation is counted and the run goes on
            self.failed += 1
            print(f"perfbench: {what} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None


def repeat(bench: Bench, tally: Tally, workload: str, seconds: float, traced: bool) -> list[dict]:
    """Repetitions of the workload until `seconds` are used up.

    The first repetition warms the process up (allocator, thread pools) and
    is checked but not timed. A repetition starts only if one more of the
    last one's length still fits. With tracing, untraced and traced
    repetitions alternate after the warm-up.
    """
    run, check = WORKLOADS[workload]
    reps: list[dict] = []
    t0 = perf_counter()
    last = 0.0
    i = 0
    while i < (3 if traced else 2) or perf_counter() - t0 + last <= seconds:
        begin = perf_counter()
        ws = bench.work / f"rep{i}"
        shutil.copytree(bench.template, ws)
        rep = {"ws": ws, "warmup": i == 0, "tracer": tracer.Tracer() if traced and i and i % 2 == 0 else None}

        def one(rep=rep):
            with tracer.Instrumentation(rep["tracer"], bench.lm) if rep["tracer"] else nullcontext():
                rep["wall"], rep["rays"] = run(bench, rep["ws"], WORKERS)
            rep.update(check(bench, rep["ws"]))
            return rep

        if tally.run(f"{workload} repetition {i}", one) is not None:
            for old in reps:
                shutil.rmtree(old["ws"], ignore_errors=True)
            reps.append(rep)
        else:
            shutil.rmtree(ws, ignore_errors=True)
        last = perf_counter() - begin
        i += 1
    return reps


def openblas() -> dict:
    """Version and thread count of the BLAS numpy was built against."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"blas": blas.get("name"), "blas_version": blas.get("version"), "blas_threads": None}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def measure(lm, args, work: Path) -> tuple[dict, Tally, dict]:
    """Returns (metric values, tally, provenance) for one run."""
    bench = Bench(lm, args.seed, work)
    tally = Tally()
    traced = bool(args.trace)
    setup_walls = []
    setup_trace = tracer.Tracer()
    for i in range(1 if traced else SETUPS):
        ws = work / f"setup{i}"
        with tracer.Instrumentation(setup_trace, lm) if traced else nullcontext():
            setup_walls.append(bench.set_up(ws))
        tally.attempted += 1
        if i == 0:
            bench.adopt_template(ws)
            continue
        if lm.cli.sha256_file(ws / "checkpoints" / "model.lmf") != bench.start_sha256:
            tally.failed += 1
            print(f"perfbench: set-up {i} baked a different start checkpoint", file=sys.stderr)
        shutil.rmtree(ws)

    reps = repeat(bench, tally, args.workload, args.seconds, traced)
    plain = [r for r in reps if r["tracer"] is None and not r["warmup"]]
    values: dict[str, float] = {}
    if not traced:
        values["setup_s"] = statistics.median(setup_walls)
        values["rays_per_s"] = statistics.median(r["rays"] / r["wall"] for r in plain) if plain else 0.0
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values["loss_final"] = statistics.median(r["loss"] for r in plain) if plain else 0.0
        maps = reps[-1].get("maps") if reps else None
        if reps and maps is None:
            maps = tally.run(f"{args.workload} scoring", bench.score, reps[-1]["ws"])
        for name, value in zip(("map_dyn", "map_ss", "map_union"), maps or (0.0, 0.0, 0.0)):
            values[name] = 100.0 * value
    else:
        values.update(layer_values(bench, tally, args.workload, reps, setup_trace))

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **openblas(),
        "start_checkpoint_sha256": bench.start_sha256,
        "setup_walls_s": setup_walls,
        "rep_walls_s": [r["wall"] for r in reps],
        "rep_kinds": ["warmup" if r["warmup"] else "traced" if r["tracer"] else "plain" for r in reps],
    }
    return values, tally, provenance


def layer_values(bench: Bench, tally: Tally, workload: str, reps: list[dict], setup_trace) -> dict:
    """Per-layer metrics: the mean over traced repetitions, plus the set-up stages."""
    traced = [r for r in reps if r["tracer"] is not None]
    plain = [r for r in reps if r["tracer"] is None and not r["warmup"]]
    blocks = bench.start_params.blocks
    channels = sum(int(np.prod(blocks[n].shape[3:])) for n in ("phi0", "st_grid", "ss_grids", "dy_grids"))
    per_rep = [tracer.rep_metrics(r["tracer"].spans, r["wall"], WORKERS, channels) for r in traced]
    values = {k: statistics.fmean(m[k] for m in per_rep) for k in per_rep[0]} if per_rep else {}
    steps = [s for r in traced for s in tracer.step_times(r["tracer"].spans)]
    if len(steps) >= 2:
        q = statistics.quantiles(steps, n=10)
        values["trainer.step_s.p50"] = statistics.median(steps)
        values["trainer.step_s.p90"] = q[8]
    else:
        values["trainer.step_s.p50"] = values["trainer.step_s.p90"] = 0.0
    values.update(tracer.setup_metrics(setup_trace.spans))
    values["trace.overhead_s"] = (
        statistics.median(r["wall"] for r in traced) - statistics.median(r["wall"] for r in plain)
        if traced and plain else 0.0
    )
    # Worker scaling is measured on train only: one more untraced repetition at one worker.
    values["losses.worker_speedup"] = 0.0
    if workload == "train" and plain:
        ws = bench.work / "workers1"
        shutil.copytree(bench.template, ws)
        timed = tally.run("train at one worker", lambda: (bench.run_train(ws, 1), bench.check_train(ws)))
        if timed is not None:
            values["losses.worker_speedup"] = timed[0][0] / statistics.median(r["wall"] for r in plain)
        shutil.rmtree(ws, ignore_errors=True)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lm = load_engine()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        values, tally, provenance = measure(lm, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and not tally.failed:
        sys.exit(f"perfbench: no value measured for {missing}")
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}
    print("# provenance " + json.dumps(provenance))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
