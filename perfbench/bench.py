"""One benchmark run: set-up, a timed untraced pass and, when traced, a second
pass over the same sequences with spans and MAC counters installed.

Frame times are the wall time of ``tracker.step`` and therefore include the
search crop, unlike ``hitrack.evalbench.latency_bench`` which times the
forward only. ``fps`` divides the frames stepped by the wall time of the
``track_sequence`` calls, so the per-sequence template crop and embed count.

Every frame is checked: its box must be finite and its route must be
``route1`` exactly when F > T. In the traced pass its MACs per label must
equal ``flop_account`` for the route taken, and its box must equal the
untraced pass's box. A frame that fails a check, or belongs to a sequence
whose ``track_sequence`` call raised, counts as failed.
"""
from __future__ import annotations

import dataclasses
import gc
import json
import math
import resource
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from hitrack import evaluate_trace, flop_account, init_weights, make_config, track_sequence
from hitrack.config import geometry
from hitrack.routing import ROUTE1, ROUTE2, TEMPLATE_FACTOR
from hitrack.tensor import count_macs

from tracing import CROP_SPANS, LABEL_SPANS, ROOT_SPANS, SpanTotal, Tracer, instrument
from workloads import WEIGHT_SEED, Workload, make_sequence, make_workload_tracker

# Set-up is repeated at least SETUP_MIN_REPEATS times and until
# SETUP_MIN_SECONDS have passed, so that the median of a cheap set-up (toy,
# ~30 ms) rests on enough samples to be steady.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 25
SETUP_MIN_SECONDS = 2.0


@dataclass
class Frame:
    sequence: int
    frame: int
    step_s: float
    forward_s: float
    route: str
    f: float | None
    fallback: bool | None
    base: bool                  # box came from the base tracker
    box: tuple
    macs: dict | None = None


@dataclass
class Pass:
    frames: list[Frame] = field(default_factory=list)
    boxes: list[list[tuple]] = field(default_factory=list)     # per sequence
    gt: list[list[tuple]] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)           # per track_sequence call
    init_macs: list[dict] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    n_sequences: int = 0

    @property
    def steps(self) -> int:
        return sum(len(b) - 1 for b in self.boxes)

    @property
    def fps(self) -> float:
        wall = sum(self.walls)
        return self.steps / wall if wall else float("nan")

    def label_macs(self) -> dict[str, int]:
        """MACs per label over every init and step of the pass."""
        total: dict[str, int] = {}
        for counts in self.init_macs + [f.macs for f in self.frames]:
            for label, n in counts.items():
                total[label] = total.get(label, 0) + n
        return total

    def fail(self, n_frames: int, reason: str) -> None:
        self.failed += n_frames
        self.failures.append(reason)


@dataclass
class Setup:
    params: object
    totals: list[float]
    init_weights: list[float]
    first_frame: list[float]


def measure_setup(wl: Workload, seq, seed: int) -> Setup:
    """make_config + init_weights + the first sequence's init and first step.

    The geometry cache is cleared and the weights rebuilt each time, so every
    repeat pays for the lru-cached geometry and the per-layer bias gathers.
    """
    totals, weights_s, first_s = [], [], []
    params = tracker = None
    box0 = tuple(float(v) for v in seq.boxes[0])
    start = perf_counter()
    while len(totals) < SETUP_MIN_REPEATS or (
            len(totals) < SETUP_MAX_REPEATS and perf_counter() - start < SETUP_MIN_SECONDS):
        params = tracker = None  # free the last weights before building the next
        gc.collect()
        geometry.cache_clear()
        t0 = perf_counter()
        params = init_weights(make_config(wl.variant), WEIGHT_SEED)
        t1 = perf_counter()
        tracker = make_workload_tracker(wl, params, seq, seed, 0)
        tracker.init(seq.frames[0], box0)
        tracker.step(seq.frames[1], 1, box0)
        t2 = perf_counter()
        totals.append(t2 - t0)
        weights_s.append(t1 - t0)
        first_s.append(t2 - t1)
    return Setup(params, totals, weights_s, first_s)


def template_embed_macs(cfg) -> int:
    """Closed-form MACs of the template embed alone.

    ``flop_account`` sums template and search embeds; with both inputs at the
    template size the two halves are equal.
    """
    square = dataclasses.replace(cfg, search_size=cfg.template_size)
    return flop_account(square).modules["embed"].macs // 2


def expected_macs(wl: Workload, cfg) -> dict:
    """Per-label MACs per step for each route, plus the per-sequence init."""
    report = flop_account(cfg)
    modules = {k: c.macs for k, c in report.modules.items()}
    extras = {k: c.macs for k, c in report.extras.items()}
    template = template_embed_macs(cfg)
    trunk = {"embed": modules["embed"] - template, "stage1": modules["stage1"]}
    full = dict(modules, embed=trunk["embed"])
    if wl.kind == "full":
        return {"init": {"embed": template}, ROUTE2: full}
    router = {"router": extras["router"]}
    return {
        "init": {"embed": template},
        ROUTE1: {**trunk, **router, "head1": extras["head1"]},
        ROUTE2: {**trunk, **router} if wl.kind == "dytracker" else {**full, **router},
    }


def _run_sequence(wl, params, seed, index, out: Pass, tracer: Tracer | None,
                  expected: dict | None) -> None:
    seq = make_sequence(wl, seed, index)
    gt = [tuple(float(v) for v in b) for b in seq.boxes]
    tracker = make_workload_tracker(wl, params, seq, seed, index)
    inner_init, inner_step = tracker.init, tracker.step
    step_s: list[float] = []
    step_macs: list[dict] = []

    if tracer is None:
        def step(frame, frame_index, prev_box):
            t0 = perf_counter()
            result = inner_step(frame, frame_index, prev_box)
            step_s.append(perf_counter() - t0)
            return result
    else:
        def traced(name, call, macs_out):
            def run(*args):
                tracer.frame = (index, args[1] if name == "routing.step" else 0)
                idx = tracer.begin(name)
                try:
                    with count_macs() as counter:
                        result = call(*args)
                finally:
                    tracer.end(idx)
                macs_out.append(dict(counter.counts))
                if name == "routing.step":
                    step_s.append(tracer.spans[idx].duration)
                return result
            return run

        tracker.init = traced("routing.init", inner_init, out.init_macs)
        step = traced("routing.step", inner_step, step_macs)
    tracker.step = step

    n_steps = len(seq) - 1
    out.attempted += n_steps
    t0 = perf_counter()
    try:
        result = track_sequence(seq.frames, gt[0], tracker)
    except Exception as exc:  # a failed sequence is counted, and the run goes on
        traceback.print_exc(file=sys.stderr)
        out.fail(n_steps, f"sequence {index}: track_sequence raised {exc!r}")
        return
    out.walls.append(perf_counter() - t0)
    out.boxes.append(result.boxes)
    out.gt.append(gt)

    if tracer is not None and out.init_macs[-1] != expected["init"]:
        out.fail(n_steps, f"sequence {index}: init MACs {out.init_macs[-1]} != {expected['init']}")
        return
    for i, (decision, fwd) in enumerate(zip(result.decisions, result.forward_seconds)):
        box = result.boxes[i + 1]
        if decision is None:
            route, f, fallback = ROUTE2, None, None
        else:
            route, f, fallback = decision.route, decision.f, decision.fallback
        frame = Frame(index, i + 1, step_s[i], fwd, route, f, fallback,
                      wl.kind == "dytracker" and route == ROUTE2, box,
                      step_macs[i] if tracer is not None else None)
        out.frames.append(frame)
        reason = _check_frame(wl, frame, expected)
        if reason:
            out.fail(1, f"sequence {index} frame {i + 1}: {reason}")


def _check_frame(wl: Workload, frame: Frame, expected: dict | None) -> str | None:
    if not all(math.isfinite(v) for v in frame.box):
        return f"non-finite box {frame.box}"
    if frame.f is not None:
        if not 0.0 < frame.f < 1.0:
            return f"router score F={frame.f} outside (0, 1)"
        want = ROUTE1 if frame.f > wl.threshold else ROUTE2
        if frame.route != want:
            return f"route {frame.route} with F={frame.f}, T={wl.threshold}"
    if expected is not None:
        macs = {k: v for k, v in frame.macs.items() if v}
        if macs != expected[frame.route]:
            return f"{frame.route} MACs {macs} != closed form {expected[frame.route]}"
    return None


def track_pass(wl: Workload, params, seed: int, *, budget_s: float | None = None,
               n_sequences: int | None = None, tracer: Tracer | None = None) -> Pass:
    """Track sequences 0, 1, ... of the suite.

    With ``budget_s`` a sequence is started only while it is expected to end
    within the budget (at least one always runs); with ``n_sequences`` exactly
    that many are tracked.
    """
    out = Pass()
    expected = None
    hooks = nullcontext()
    if tracer is not None:
        expected = expected_macs(wl, params.config)
        hooks = instrument(tracer, TEMPLATE_FACTOR)
    start = perf_counter()
    with hooks:
        while True:
            index = out.n_sequences
            if n_sequences is not None:
                if index >= n_sequences:
                    break
            elif index:
                elapsed = perf_counter() - start
                if elapsed + elapsed / index > budget_s:
                    break
            _run_sequence(wl, params, seed, index, out, tracer, expected)
            out.n_sequences += 1
    return out


def _ao(p: Pass) -> float:
    if not p.boxes:
        return float("nan")
    boxes = [b for seq in p.boxes for b in seq]
    gt = [g for seq in p.gt for g in seq]
    return evaluate_trace(boxes, gt).ao


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


@dataclass
class Metric:
    value: float
    samples: str = ""


def end_to_end(setup: Setup, p: Pass) -> dict[str, Metric]:
    ms = np.array([f.step_s for f in p.frames]) * 1000.0
    p90 = float(np.percentile(ms, 90)) if ms.size else float("nan")
    return {
        "fps": Metric(p.fps, f"{p.steps} frames in {len(p.walls)} sequences"),
        "frame_ms_p50": Metric(float(np.median(ms)) if ms.size else float("nan"),
                               f"{ms.size} frames"),
        "frame_ms_p90": Metric(p90, f"{ms.size} frames, {int((ms > p90).sum())} above"),
        "setup_s": Metric(median(setup.totals), f"median of {len(setup.totals)} set-ups"),
        "peak_rss_mb": Metric(peak_rss_mb(), "process high-water mark"),
    }


def per_layer(setup: Setup, plain: Pass, traced: Pass, totals: dict[str, SpanTotal],
              macs: dict[str, int], matmul: tuple[int, float]) -> dict[str, Metric]:
    steps = traced.steps
    n = f"{steps} frames"

    def per_frame(x):
        return x / steps if steps else float("nan")

    def self_ms(*names):
        return per_frame(sum(totals[s].self_s for s in names if s in totals)) * 1e3

    m: dict[str, Metric] = {}
    for label, name in LABEL_SPANS.items():
        m[f"{name}.ms"] = Metric(self_ms(name), n)
        t = totals.get(name)
        m[f"{name}.gmacs"] = Metric(macs.get(label, 0) / t.busy_s / 1e9 if t else 0.0,
                                    f"{t.calls if t else 0} calls")
    for name in CROP_SPANS.values():
        m[f"{name}.ms"] = Metric(self_ms(name), n)
    m["runtime.crop.calls"] = Metric(
        per_frame(sum(totals[s].calls for s in CROP_SPANS.values() if s in totals)), n)
    frames = traced.frames
    m["routing.route1_frac"] = Metric(per_frame(sum(f.route == ROUTE1 for f in frames)), n)
    m["routing.fallback_frac"] = Metric(per_frame(sum(bool(f.fallback) for f in frames)), n)
    m["routing.base_frac"] = Metric(per_frame(sum(f.base for f in frames)), n)
    m["routing.dispatch.ms"] = Metric(self_ms(*ROOT_SPANS), n)
    m["tensor.matmul.calls"] = Metric(per_frame(matmul[0]), n)
    m["tensor.matmul.ms"] = Metric(per_frame(matmul[1]) * 1e3, n)
    m["tensor.macs"] = Metric(per_frame(sum(macs.values())), f"{n}, init included")
    for route in (ROUTE1, ROUTE2):
        sel = [sum(f.macs.values()) for f in frames if f.route == route]
        m[f"tensor.macs.{route}"] = Metric(float(np.mean(sel)) if sel else 0.0, f"{len(sel)} frames")
    m["setup.init_weights_s"] = Metric(median(setup.init_weights), f"{len(setup.init_weights)} set-ups")
    m["setup.first_frame_s"] = Metric(median(setup.first_frame), f"{len(setup.first_frame)} set-ups")
    busy = sum(totals[r].busy_s for r in ROOT_SPANS if r in totals)
    m["trace.frame_ms"] = Metric(per_frame(busy) * 1e3, f"{n}, init included")
    m["trace.overhead_pct"] = Metric((plain.fps - traced.fps) / plain.fps * 100.0,
                                     f"{plain.fps:.3f} vs {traced.fps:.3f} frames/s")
    m["evalbench.ao"] = Metric(_ao(traced), n)
    return m


def label_table(cfg, steps: int, totals: dict[str, SpanTotal], macs: dict[str, int]) -> list[str]:
    """Measured self ms next to closed-form MACs and achieved GMAC/s."""
    report = flop_account(cfg)
    closed = {k: c.macs for k, c in {**report.modules, **report.extras}.items()}
    steps = max(steps, 1)
    rows = ["label          calls  ms/frame  closed-form MACs/call  measured MACs/frame  GMAC/s"]
    for label, name in (*LABEL_SPANS.items(), *CROP_SPANS.items()):
        t = totals.get(name, SpanTotal())
        work = macs.get(label, 0)
        rows.append(f"{label:<12} {t.calls:>7} {t.self_s / steps * 1e3:>9.3f} "
                    f"{closed.get(label, 0):>21d} {work / steps:>20.0f} "
                    f"{work / t.busy_s / 1e9 if t.busy_s else 0.0:>7.2f}")
    return rows


def write_traces(out_dir: Path, wl: Workload, seed: int, traced: Pass, tracer: Tracer) -> list[Path]:
    """Per-frame JSONL and the raw spans, written once the run is over."""
    out_dir.mkdir(parents=True, exist_ok=True)
    own = tracer.self_times()
    per_frame: dict[tuple, dict] = {}
    for span, t in zip(tracer.spans, own):
        per_frame.setdefault(span.frame, {})
        per_frame[span.frame][span.name] = per_frame[span.frame].get(span.name, 0.0) + t
    label_of = {v: k for k, v in LABEL_SPANS.items()}
    stem = f"{wl.name}-seed{seed}"
    frames_path = out_dir / f"{stem}.frames.jsonl"
    with open(frames_path, "w", encoding="utf-8") as fh:
        for f in traced.frames:
            times = per_frame.get((f.sequence, f.frame), {})
            fh.write(json.dumps({
                "workload": wl.name, "seed": seed, "sequence": f.sequence, "frame": f.frame,
                "route": f.route, "f": f.f, "fallback": f.fallback, "base": f.base,
                "step_ms": f.step_s * 1e3, "forward_ms": f.forward_s * 1e3,
                "crop_ms": times.get(CROP_SPANS["search"], 0.0) * 1e3,
                "dispatch_ms": times.get("routing.step", 0.0) * 1e3,
                "labels": {label_of[name]: {"ms": t * 1e3, "macs": f.macs.get(label_of[name], 0)}
                           for name, t in times.items() if name in label_of},
            }) + "\n")
    spans_path = out_dir / f"{stem}.spans.jsonl"
    t0 = tracer.spans[0].start if tracer.spans else 0.0
    with open(spans_path, "w", encoding="utf-8") as fh:
        for i, (span, t) in enumerate(zip(tracer.spans, own)):
            fh.write(json.dumps({
                "id": i, "name": span.name, "parent": span.parent,
                "sequence": span.frame[0], "frame": span.frame[1],
                "start_ms": (span.start - t0) * 1e3, "end_ms": (span.end - t0) * 1e3,
                "self_ms": t * 1e3,
            }) + "\n")
    return [frames_path, spans_path]


@dataclass
class RunResult:
    metrics: dict[str, Metric]
    attempted: int
    failed: int
    failures: list[str]
    report: list[str]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.failures


def run(wl: Workload, seed: int, seconds: float, trace: bool,
        out_dir: Path | None = None) -> RunResult:
    first = make_sequence(wl, seed, 0)
    setup = measure_setup(wl, first, seed)
    del first
    params = setup.params
    plain = track_pass(wl, params, seed, budget_s=seconds / 2 if trace else seconds)
    report = [f"ao {_ao(plain):.6f} ratio n={plain.steps} frames",
              f"fail_rate {plain.failed / max(plain.attempted, 1):.6f} ratio "
              f"n={plain.attempted} frames"]
    passes = [plain]
    if not trace:
        metrics = end_to_end(setup, plain)
    else:
        tracer = Tracer()
        traced = track_pass(wl, params, seed, n_sequences=plain.n_sequences, tracer=tracer)
        passes.append(traced)
        differ = sum(a != b for p, t in zip(plain.boxes, traced.boxes) for a, b in zip(p, t))
        if differ or len(plain.boxes) != len(traced.boxes):
            traced.fail(differ, f"{differ} traced boxes differ from the untraced pass")
        totals = tracer.totals()
        macs = traced.label_macs()
        metrics = per_layer(setup, plain, traced, totals, macs,
                            (tracer.matmul_calls, tracer.matmul_seconds))
        parts = sum(metrics[f"{name}.ms"].value
                    for name in (*LABEL_SPANS.values(), *CROP_SPANS.values()))
        parts += metrics["routing.dispatch.ms"].value
        total = metrics["trace.frame_ms"].value
        report.append(f"self-time sum {parts:.6f} ms vs traced frame {total:.6f} ms")
        if not math.isclose(parts, total, rel_tol=1e-9):
            traced.fail(0, f"self times sum to {parts} ms, traced frame is {total} ms")
        report += label_table(params.config, traced.steps, totals, macs)
        if out_dir is not None:
            report += [f"wrote {p}" for p in write_traces(out_dir, wl, seed, traced, tracer)]
    failures = [r for p in passes for r in p.failures]
    return RunResult(metrics, sum(p.attempted for p in passes), sum(p.failed for p in passes),
                     failures, report)
