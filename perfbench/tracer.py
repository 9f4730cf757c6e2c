"""Outside-in span tracing of the layermotion pipeline.

Spans are recorded by rebinding each public function at the name its caller
looks it up by (for example `renderer.eval_layers_batch`, which is what
`render_batch` calls), so the engine under `src/` carries no tracing code.
`Instrumentation` installs the wrappers and puts the originals back.

A span holds its name, start, end, thread id, the span that caused it and a
few counts. Work the engine hands to a thread pool is attributed to the span
that submitted it: the pool class seen by `losses` and `renderer` is replaced
by one whose tasks open a chunk span whose parent is the submitting span.

Self time answers "what was the process waiting on at each instant": every
instant is given to the innermost spans open at it. Without parallel work a
span's self time is its duration minus the time its child spans cover; where
pool threads run spans side by side, each instant is split equally among
them. The self times of all spans sum to the time the outermost spans cover.
"""

from __future__ import annotations

import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter


class Span:
    __slots__ = ("name", "parent", "tid", "start", "end", "attrs")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.tid = threading.get_ident()
        self.start = 0.0
        self.end = 0.0
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; one tracer per traced repetition."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, parent: Span | None = None) -> Span:
        stack = self._stack()
        span = Span(name, parent if parent is not None else (stack[-1] if stack else None))
        with self._lock:
            self.spans.append(span)
        stack.append(span)
        span.start = perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _bytes_of(arg: int, sidecar: bool = False):
    """Note the size of the file named by positional argument `arg`, after the call."""
    def note(args, kwargs, result):
        path = args[arg]
        return {"bytes": _file_bytes(path) + (_file_bytes(str(path) + ".json") if sidecar else 0)}
    return note


def _samples(args, kwargs, result):
    return {"samples": args[1].shape[0] * args[1].shape[1]}


class Instrumentation:
    """Wrap the pipeline's module boundaries with spans for one tracer.

    Use as a context manager; leaving it restores every rebound name.
    """

    def __init__(self, tracer: Tracer, lm):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []
        cli, trainer, losses, renderer = lm.cli, lm.trainer, lm.losses, lm.renderer
        imgio, dataset, fields = lm.imgio, lm.dataset, lm.fields
        for sub in ("generate", "train", "refine", "render", "eval"):
            self._wrap(cli, f"cmd_{sub}", f"cli.{sub}")
        self._wrap(cli, "sha256_file", "cli.sha256_file", _bytes_of(0))
        self._wrap(cli, "generate_scene", "scenegen.generate_scene")
        self._wrap(cli, "render_ground_truth", "scenegen.render_ground_truth")
        self._wrap(cli, "degrade_to_pseudo_masks", "scenegen.degrade_to_pseudo_masks")
        self._wrap(cli, "write_dataset", "dataset.write_dataset")
        self._wrap(cli, "load_dataset", "dataset.load_dataset")
        self._wrap(cli, "train", "trainer.train")
        self._wrap(cli, "refine", "trainer.refine", lambda a, k, r: {"accepted": list(r[2])})
        self._wrap(cli, "save_checkpoint", "fields.save_checkpoint", _bytes_of(1, sidecar=True))
        self._wrap(cli, "load_checkpoint", "fields.load_checkpoint", _bytes_of(0, sidecar=True))
        self._wrap(cli, "render_frame", "renderer.render_frame")
        self._wrap(cli, "evaluate", "evalkit.evaluate")
        self._wrap(cli, "analyze_pseudo_masks", "evalkit.analyze_pseudo_masks")
        # The benchmark's own set-up looks these up as module attributes.
        self._wrap(lm.scenegen, "generate_scene", "scenegen.generate_scene")
        self._wrap(dataset, "load_dataset", "dataset.load_dataset")
        self._wrap(lm.bake, "bake_scene", "bake.bake_scene")
        self._wrap(fields, "save_checkpoint", "fields.save_checkpoint", _bytes_of(1, sidecar=True))
        for fn in ("read_ppm", "read_pgm", "read_f64"):
            self._wrap(imgio, fn, "imgio.read", _bytes_of(0))
        for fn in ("write_ppm", "write_pgm", "write_f64"):
            self._wrap(imgio, fn, "imgio.write", _bytes_of(0))
        self._wrap(dataset.Dataset, "ray_batch", "dataset.Dataset.ray_batch")
        self._wrap(trainer, "total_loss_and_gradients", "losses.total_loss_and_gradients",
                   lambda a, k, r: {"rays": a[1].n_rays, "n_fused": r[0].n_fused, "l_total": r[0].l_total})
        self._wrap(trainer.Adam, "step", "trainer.Adam.step",
                   lambda a, k, r: {"params": sum(a[2][n].size for n in a[0].names)})
        self._wrap(losses, "render_batch", "renderer.render_batch",
                   _samples)
        self._wrap(renderer, "render_batch", "renderer.render_batch",
                   _samples)
        self._wrap(losses, "backward_eval_layers", "fields.backward_eval_layers",
                   lambda a, k, r: {"points": a[1].n_points})
        self._wrap(renderer, "eval_layers_batch", "fields.eval_layers_batch",
                   lambda a, k, r: {"points": a[1].shape[0]})
        self._rebind(losses, "ThreadPoolExecutor", self._pool("losses.chunk"))
        self._rebind(renderer, "ThreadPoolExecutor", self._pool("renderer.chunk"))

    def _rebind(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, owner, attr: str, name: str, note=None) -> None:
        fn = owner.__dict__[attr]
        tracer = self.tracer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    span.attrs.update(note(args, kwargs, result))
                return result
            finally:
                tracer.close(span)

        self._rebind(owner, attr, traced)

    def _pool(self, name: str):
        tracer = self.tracer

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def chunk(*a, **k):
                    span = tracer.open(name, parent)
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer.close(span)

                return super().submit(chunk, *args, **kwargs)

        return TracedPool

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()
        return False


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span (keyed by id), by a sweep over span boundaries.

    Between consecutive boundaries the elapsed time goes to the open spans
    that have no open child, shared equally among them.
    """
    events = []
    for span in spans:
        events.append((span.start, 1, span))
        events.append((span.end, 0, span))
    events.sort(key=lambda e: (e[0], e[1]))
    open_children: dict[int, int] = {}
    leaves: dict[int, Span] = {}
    out = {id(s): 0.0 for s in spans}
    last = None
    for t, is_open, span in events:
        if last is not None and leaves and t > last:
            share = (t - last) / len(leaves)
            for key in leaves:
                out[key] += share
        last = t
        parent = span.parent
        parent_open = parent is not None and id(parent) in open_children
        if is_open:
            open_children[id(span)] = 0
            leaves[id(span)] = span
            if parent_open:
                open_children[id(parent)] += 1
                leaves.pop(id(parent), None)
        else:
            open_children.pop(id(span), None)
            leaves.pop(id(span), None)
            if parent_open:
                open_children[id(parent)] -= 1
                if open_children[id(parent)] == 0:
                    leaves[id(parent)] = parent
    return out


# Module whose self time a span counts towards, by the prefix of its name.
MODULES = ("cli", "dataset", "fields", "renderer", "losses", "trainer", "evalkit", "imgio")

SETUP_SPANS = (
    "scenegen.generate_scene",
    "scenegen.render_ground_truth",
    "scenegen.degrade_to_pseudo_masks",
    "dataset.write_dataset",
    "bake.bake_scene",
    "cli.generate",
)


def _under(span: Span, name: str) -> bool:
    return _ancestor(span, lambda p: p.name == name)


def _ancestor(span: Span, match) -> bool:
    p = span.parent
    while p is not None:
        if match(p):
            return True
        p = p.parent
    return False


def _refine_rounds(spans: list[Span]) -> tuple[int, int, int]:
    """(probe calls, guard rounds, rounds accepted) over the refine spans.

    A loss evaluation inside `trainer.refine` that no Adam step follows is a
    guard probe. A round was accepted when the accepted-loss history records
    that round's probe loss; a rolled-back round repeats the previous value.
    """
    probes = rounds = accepted = 0
    for ref in (s for s in spans if s.name == "trainer.refine"):
        seq = sorted(
            (s for s in spans
             if s.name in ("losses.total_loss_and_gradients", "trainer.Adam.step")
             and _ancestor(s, lambda p: p is ref)),
            key=lambda s: s.start,
        )
        probe_losses = [
            s.attrs["l_total"] for i, s in enumerate(seq)
            if s.name != "trainer.Adam.step" and (i + 1 == len(seq) or seq[i + 1].name != "trainer.Adam.step")
        ]
        history = ref.attrs.get("accepted", [])
        probes += len(probe_losses)
        rounds += len(probe_losses) - 1
        accepted += sum(1 for h, p in zip(history[1:], probe_losses[1:]) if h == p)
    return probes, rounds, accepted


def step_times(spans: list[Span]) -> list[float]:
    """Optimizer step times: start of the step's ray batch to the end of its Adam update."""
    out = []
    batch_start = None
    main = [s for s in spans if s.name in ("dataset.Dataset.ray_batch", "trainer.Adam.step")]
    for s in sorted(main, key=lambda s: s.start):
        if s.name == "dataset.Dataset.ray_batch":
            batch_start = s.start
        elif batch_start is not None:
            out.append(s.end - batch_start)
            batch_start = None
    return out


def rep_metrics(spans: list[Span], wall: float, workers: int, scatter_channels: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition whose commands took `wall` seconds."""
    selfs = self_times(spans)
    by: dict[str, list[Span]] = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def total(name):
        return sum(s.duration for s in by.get(name, ()))

    def self_s(*names):
        return sum(selfs[id(s)] for n in names for s in by.get(n, ()))

    def attr(name, key):
        return sum(s.attrs.get(key, 0) for s in by.get(name, ()))

    def calls(name):
        return len(by.get(name, ()))

    m: dict[str, float] = {}
    for fn in ("backward_eval_layers", "eval_layers_batch"):
        n = f"fields.{fn}"
        m[f"{n}.busy_s"] = total(n)
        m[f"{n}.self_s"] = self_s(n)
        m[f"{n}.calls"] = calls(n)
        m[f"{n}.points"] = attr(n, "points")
    # Computed, not measured: every point scatters 8 corners x all grid channels x 8 B.
    m["fields.scatter_bytes"] = m["fields.backward_eval_layers.points"] * 8 * scatter_channels * 8
    for n in ("fields.save_checkpoint", "fields.load_checkpoint", "imgio.read", "imgio.write", "cli.sha256_file"):
        m[f"{n}.s"] = total(n)
        m[f"{n}.bytes"] = attr(n, "bytes")

    m["renderer.render_batch.self_s"] = self_s("renderer.render_batch")
    m["renderer.render_frame.s"] = total("renderer.render_frame")
    m["renderer.render_frame.calls"] = calls("renderer.render_frame")
    m["renderer.samples"] = attr("renderer.render_batch", "samples")

    tlg = "losses.total_loss_and_gradients"
    m[f"{tlg}.self_s"] = self_s(tlg, "losses.chunk")
    m[f"{tlg}.calls"] = calls(tlg)
    m[f"{tlg}.rays"] = attr(tlg, "rays")
    m["losses.n_fused"] = attr(tlg, "n_fused")
    tlg_wall = total(tlg)
    m["losses.parallel_efficiency"] = total("losses.chunk") / (tlg_wall * workers) if tlg_wall else 0.0

    m["trainer.Adam.step.s"] = total("trainer.Adam.step")
    m["trainer.Adam.step.calls"] = calls("trainer.Adam.step")
    m["trainer.Adam.step.params_updated"] = attr("trainer.Adam.step", "params")
    probes, rounds, accepted = _refine_rounds(spans)
    m["trainer.refine.probe_calls"] = probes
    m["trainer.refine.rounds"] = rounds
    m["trainer.refine.rounds_accepted"] = accepted

    m["dataset.load_dataset.s"] = total("dataset.load_dataset")
    m["dataset.load_dataset.files"] = sum(1 for s in by.get("imgio.read", ()) if _under(s, "dataset.load_dataset"))
    m["dataset.Dataset.ray_batch.s"] = total("dataset.Dataset.ray_batch")
    m["dataset.Dataset.ray_batch.calls"] = calls("dataset.Dataset.ray_batch")
    m["evalkit.evaluate.s"] = total("evalkit.evaluate")
    m["evalkit.analyze_pseudo_masks.s"] = total("evalkit.analyze_pseudo_masks")
    for sub in ("train", "refine", "render", "eval"):
        m[f"cli.{sub}.s"] = total(f"cli.{sub}")

    for mod in MODULES:
        m[f"{mod}.self_s"] = sum(selfs[id(s)] for s in spans if s.name.split(".")[0] == mod)
    accounted = sum(selfs.values())
    m["trace.wall_s"] = wall
    m["trace.accounted_s"] = accounted
    m["trace.unaccounted_s"] = wall - accounted
    return m


def setup_metrics(spans: list[Span]) -> dict[str, float]:
    """Inclusive time of the set-up stages, from one traced set-up."""
    return {f"{n}.s": sum(s.duration for s in spans if s.name == n) for n in SETUP_SPANS}
