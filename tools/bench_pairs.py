#!/usr/bin/env python3
"""Alternating parent/change pairs of one perfbench workload.

Run from anywhere, with two checkouts of this repository:

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workload render_eval --pairs 10 --seed 20

Pair i runs `python3 perfbench/run.py --workload W --seed SEED+i --seconds S`
once in each checkout, the parent first in even pairs and the change first in
odd ones, so drift on a shared machine falls on both sides alike. Each
checkout runs its own unchanged `perfbench/run.py` on its own `src/`.

Writes `BENCH_<workload>.json`: the machine, both checkouts, every run
(metrics, correctness, failures, provenance), and per side the median and
quartiles of every end-to-end metric, plus the pairs the change won per
metric and the start checkpoint hash of every seed.

Each end-to-end metric also gets three verdicts, with its `bound` from
`BENCHMARK.json` taken relative to the parent's median:

  within_bound  the change's median is no worse than the parent's by more
                than the bound;
  unresolved    the parent's q3 - q1 is wider than the bound, and not every
                change run reads better than every parent run;
  gain          the change won at least nine tenths of the pairs (a tie is
                a win for neither side), and the medians differ in the
                better direction by more than the parent's q3 - q1.

`regressions` lists the metrics that are not within their bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def git(checkout: Path, *args: str) -> str:
    out = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else ""


def checkout_facts(checkout: Path) -> dict:
    """Commit and `src/` tree hash; `dirty` is None outside a git checkout."""
    commit = git(checkout, "rev-parse", "HEAD")
    return {
        "commit": commit,
        "src_tree": git(checkout, "rev-parse", "HEAD:src"),
        "dirty": bool(git(checkout, "status", "--porcelain", "--", "src", "perfbench")) if commit else None,
    }


def machine_facts() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.platform(),
        "python": platform.python_version(),
    }


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in `checkout`; its JSON result plus provenance."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.splitlines()
    result = {"seed": seed, "wall_s": wall, "exit": proc.returncode}
    try:
        result.update(json.loads(lines[-1]))
        result["provenance"] = next(
            json.loads(line.split(" ", 2)[2]) for line in lines if line.startswith("# provenance ")
        )
    except (IndexError, ValueError, StopIteration):
        result.update(correct=False, failed=None, metrics={})
    if proc.returncode or not result.get("correct"):
        result["stderr_tail"] = proc.stderr[-2000:]
    return result


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return {"q1": v, "median": v, "q3": v}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    summary = {}
    for m in metrics:
        name = m["name"]
        sides = {
            side: [r["metrics"][name]["value"] for r in runs if r["side"] == side and name in r["metrics"]]
            for side in SIDES
        }
        by_pair = {}
        for r in runs:
            if name in r["metrics"]:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r["metrics"][name]["value"]
        sign = 1.0 if m["better"] == "higher" else -1.0
        pairs = [p for p in by_pair.values() if len(p) == 2]
        entry = {side: quartiles(vals) for side, vals in sides.items()}
        entry.update(
            unit=m["unit"],
            better=m["better"],
            change_wins=sum(sign * (p["change"] - p["parent"]) > 0 for p in pairs),
            ties=sum(p["change"] == p["parent"] for p in pairs),
            pairs=len(pairs),
        )
        base = entry["parent"]["median"]
        entry["median_ratio"] = entry["change"]["median"] / base if base else None
        bound = m["bound"] * abs(base)
        spread = entry["parent"]["q3"] - entry["parent"]["q1"]
        gap = sign * (entry["change"]["median"] - base)  # positive: the change reads better
        entry.update(
            within_bound=gap >= -bound,
            unresolved=spread > bound
            and not all(sign * (c - p) > 0 for c in sides["change"] for p in sides["parent"]),
            gain=bool(pairs) and entry["change_wins"] >= 0.9 * len(pairs) and gap > spread,
        )
        summary[name] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=20, help="seed of pair 0; pair i uses seed + i")
    parser.add_argument("--out", type=Path, help="output file (default: BENCH_<workload>.json)")
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    out = args.out or Path(f"BENCH_{args.workload}.json")
    runs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            r = run_once(checkouts[side], args.workload, args.seed + i, spec["run_seconds"])
            r.update(side=side, pair=i, first=side == order[0])
            runs.append(r)
            rate = r["metrics"].get("rays_per_s", {}).get("value")
            print(f"pair {i} {side}: correct={r.get('correct')} failed={r.get('failed')} rays_per_s={rate}",
                  file=sys.stderr)
    summary = summarize(runs, spec["end_to_end"])
    report = {
        "workload": args.workload,
        "run_seconds": spec["run_seconds"],
        "pairs": args.pairs,
        "machine": machine_facts(),
        "checkouts": {side: checkout_facts(path) for side, path in checkouts.items()},
        "all_correct": all(r.get("correct") and r.get("failed") == 0 for r in runs),
        "start_checkpoint_sha256": {
            side: {str(r["seed"]): r["provenance"]["start_checkpoint_sha256"]
                   for r in runs if r["side"] == side and "provenance" in r}
            for side in SIDES
        },
        "regressions": [name for name, e in summary.items() if not e["within_bound"]],
        "summary": summary,
        "runs": runs,
    }
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0 if report["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
