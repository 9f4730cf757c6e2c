#!/usr/bin/env python3
"""Record the mAPs that `render_eval` must reproduce, one entry per seed.

Run from the root of a checkout:

    python3 perfbench/record_maps.py 0 31

renders and scores the baked start model of each seed in the inclusive range
and rewrites perfbench/expected_maps.json. `render_eval` fails a repetition
whose mAPs differ from the recorded ones by more than run.MAP_TOL; seeds
without an entry are checked only against scoring their own renders. Record
again only for a change that is meant to alter the start model or scoring.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit("usage: record_maps.py FIRST_SEED LAST_SEED")
    first, last = int(argv[0]), int(argv[1])
    lm = run.load_engine()
    path = run.BENCH / "expected_maps.json"
    table = json.loads(path.read_text())
    for seed in range(first, last + 1):
        work = run.WORK / f"record-{seed}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        try:
            bench = run.Bench(lm, seed, work)
            ws = work / "workspace"
            bench.set_up(ws)
            bench.adopt_template(ws)
            bench.run_render_eval(ws, run.WORKERS)
            table[str(seed)] = dict(zip(("dyn", "ss", "union"), bench.read_maps(ws)))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(seed, table[str(seed)], flush=True)
    ordered = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(ordered, indent=1) + "\n")
    try:
        run.WORK.rmdir()
    except OSError:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
