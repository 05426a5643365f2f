"""Command-line interface.

Subcommands: infer, track, sweep, bench, flops, fit-router, gen-synth, eval.
A flat ``key = value`` config file can preload any model option; command-line
flags win over config values. Exit codes: 0 success, 2 usage error, 3 data
error, 4 numeric failure.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import evalbench, objectives, routing, runtime, weights
from .config import VARIANTS, make_config
from .errors import DataError, HitrackError, NumericError

USAGE_ERROR = 2
DATA_ERROR = 3
NUMERIC_ERROR = 4

_CONFIG_KEYS = {
    "variant": str,
    "template_size": int,
    "search_size": int,
    "key_dim": int,
    "tau_fg": float,
    "classify_every_n": int,
    "dtype": str,
    "threshold": float,
    "seed": int,
}


def read_config_file(path) -> dict:
    """Parse a flat UTF-8 ``key = value`` config file ('#' starts a comment)."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _CONFIG_KEYS:
                raise DataError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _CONFIG_KEYS[key](value)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
    return values


def _build_config(args, file_values):
    variant = getattr(args, "variant", None) or file_values.get("variant", "base")
    overrides = {k: v for k, v in file_values.items() if k not in ("variant", "threshold", "seed")}
    if getattr(args, "tau_fg", None) is not None:
        overrides["tau_fg"] = args.tau_fg
    if getattr(args, "classify_every_n", None) is not None:
        overrides["classify_every_n"] = args.classify_every_n
    if getattr(args, "dtype", None):
        overrides["dtype"] = args.dtype
    return make_config(variant, **overrides)


def _resolve(args, file_values, key, default):
    value = getattr(args, key, None)
    if value is not None:
        return value
    return file_values.get(key, default)


def _load_params(args, cfg, file_values):
    if getattr(args, "weights", None):
        return weights.load_weights(args.weights, cfg)
    return weights.init_weights(cfg, _resolve(args, file_values, "seed", 0))


def _add_model_args(p):
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--variant", choices=sorted(VARIANTS), help="model variant")
    p.add_argument("--weights", help="HITW weight archive (default: seeded init)")
    p.add_argument("--seed", type=int, help="init seed when no weights are given")
    p.add_argument("--dtype", choices=("float32", "float64"))
    p.add_argument("--tau-fg", dest="tau_fg", type=float, help="foreground score threshold")


def _fields(text, sep, n, what, cast=int):
    """argparse type: ``n`` numbers joined by ``sep``, else a usage error."""
    try:
        values = tuple(cast(p) for p in text.split(sep))
    except ValueError:
        values = ()
    if len(values) != n:
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return values


def _synth_spec(text):
    return _fields(text, ":", 3, "seed:difficulty:length")


def _synth_list(text):
    return [_synth_spec(spec) for spec in text.split(",")]


def _frame_size(text):
    return _fields(text, "x", 2, "HxW")


def _float_list(text):
    try:
        return [float(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma list of numbers, got {text!r}") from None


def _box(text):
    return _fields(text, ",", 4, "x,y,w,h", float)


def _load_sequence(args, file_values):
    if getattr(args, "frames", None):
        frames = runtime.load_frames(args.frames)
        gt_path = Path(args.frames) / "groundtruth.txt"
        gt = runtime.read_boxes(args.gt or gt_path)
        return frames, gt
    seq = runtime.gen_synthetic(*args.synth)
    return list(seq.frames), [tuple(b) for b in seq.boxes]


def cmd_gen_synth(args):
    seq = runtime.gen_synthetic(args.seed, args.difficulty, args.length,
                                hw=args.size, blur=args.blur)
    runtime.write_sequence(args.out, seq)
    print(f"wrote {len(seq)} frames ({seq.frames.shape[1]}x{seq.frames.shape[2]}) "
          f"and groundtruth.txt to {args.out}")
    return 0


def cmd_infer(args):
    file_values = read_config_file(args.config) if args.config else {}
    cfg = _build_config(args, file_values)
    params = _load_params(args, cfg, file_values)
    template = runtime.read_ppm(args.template)
    search = runtime.read_ppm(args.search)
    route = {"auto": None, "route1": routing.ROUTE1, "full": routing.ROUTE2}[args.route]
    pred, decision = routing.forward(template, search, params, route,
                                     _resolve(args, file_values, "threshold", 0.5))
    x1, y1, x2, y2 = pred.corners
    s = cfg.search_size
    print(f"corners_norm: {x1:.6f},{y1:.6f},{x2:.6f},{y2:.6f}")
    print(f"box_px: {x1 * s:.2f},{y1 * s:.2f},{(x2 - x1) * s:.2f},{(y2 - y1) * s:.2f}")
    if decision is not None:
        print(f"route: {decision.route}  F: {decision.f:.6f}  T: {decision.threshold:g}")
    return 0


def _make_tracker(args, cfg, params, file_values):
    threshold = _resolve(args, file_values, "threshold", 0.5)
    base = None
    if args.tracker == "dytracker":
        if not args.base_results:
            raise DataError("--base-results is required for the dytracker")
        base = routing.file_base_tracker(args.base_results)
    return routing.make_tracker(args.tracker, params, threshold, base)


def cmd_track(args):
    file_values = read_config_file(args.config) if args.config else {}
    cfg = _build_config(args, file_values)
    params = _load_params(args, cfg, file_values)
    frames, gt = _load_sequence(args, file_values)
    init_box = args.init_box or gt[0]
    tracker = _make_tracker(args, cfg, params, file_values)
    result = runtime.track_sequence(frames, init_box, tracker)
    runtime.write_boxes(args.out, result.boxes)
    if args.decisions_out:
        with open(args.decisions_out, "w", encoding="utf-8") as fh:
            fh.write("frame,route,F,fallback,reused\n")
            for i, d in enumerate(result.decisions, start=2):
                if d is None:
                    continue
                fh.write(f"{i},{d.route},{d.f:.6f},{int(d.fallback)},{int(d.reused)}\n")
    metrics = evalbench.evaluate_trace(result.boxes, gt)
    print(f"tracked {len(result.boxes)} frames -> {args.out}")
    print(f"AO: {metrics.ao:.4f}  AUC: {metrics.auc:.4f}  P@20px: {metrics.precision:.4f}")
    return 0


def cmd_eval(args):
    pred = runtime.read_boxes(args.pred)
    gt = runtime.read_boxes(args.gt)
    m = evalbench.evaluate_trace(pred, gt)
    print(f"frames: {len(m.ious)}")
    print(f"AUC: {m.auc:.4f}")
    print(f"P@20px: {m.precision:.4f}")
    print(f"AO: {m.ao:.4f}")
    print(f"SR@0.5: {m.sr50:.4f}")
    print(f"SR@0.75: {m.sr75:.4f}")
    return 0


def cmd_sweep(args):
    file_values = read_config_file(args.config) if args.config else {}
    cfg = _build_config(args, file_values)
    params = _load_params(args, cfg, file_values)
    sequences = [runtime.gen_synthetic(*spec) for spec in args.synth]
    rows = evalbench.threshold_sweep(args.grid, sequences, params)
    csv = evalbench.sweep_csv(rows)
    if args.out:
        Path(args.out).write_text(csv, encoding="utf-8")
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        sys.stdout.write(csv)
    return 0


def cmd_bench(args):
    file_values = read_config_file(args.config) if args.config else {}
    cfg = _build_config(args, file_values)
    params = _load_params(args, cfg, file_values)
    frames, gt = _load_sequence(args, file_values)
    tracker = _make_tracker(args, cfg, params, file_values)
    stats = evalbench.latency_bench(tracker, frames, gt[0], args.warmup, args.reps)
    print(f"mean: {stats.mean_ms:.3f} ms  median: {stats.median_ms:.3f} ms  "
          f"p95: {stats.p95_ms:.3f} ms  fps: {stats.fps:.1f}")
    for route, (mean_ms, count) in stats.per_route.items():
        print(f"  {route}: {mean_ms:.3f} ms over {count} frames")
    return 0


def cmd_flops(args):
    file_values = read_config_file(args.config) if args.config else {}
    cfg = _build_config(args, file_values)
    report = evalbench.flop_account(cfg)
    print(f"variant: {cfg.variant}  (template {cfg.template_size}, search {cfg.search_size})")
    print(f"{'module':<8} {'MACs':>14} {'params':>12} {'frac':>8}")
    for name, cost in report.modules.items():
        print(f"{name:<8} {cost.macs:>14,} {cost.params:>12,} {report.fractions[name]:>7.2%}")
    print(f"{'total':<8} {report.total_macs:>14,} {report.total_params:>12,}")
    for name, cost in report.extras.items():
        print(f"{name + '*':<8} {cost.macs:>14,} {cost.params:>12,} {report.extra_fraction(name):>7.2%}")
    print("(*) dynamic-routing extras, not part of the static pipeline")
    return 0


def _router_hidden(dim: int) -> tuple[int, int]:
    """Router hidden sizes of the variants whose stage-1 width C1 is ``dim``."""
    widths = {v: make_config(v) for v in VARIANTS}
    hidden = {cfg.router_hidden for cfg in widths.values() if cfg.channels[0] == dim}
    if len(hidden) != 1:
        known = ", ".join(f"{v} {cfg.channels[0]}" for v, cfg in widths.items())
        raise DataError(f"{dim}-channel features fit no single variant's router (stage-1 widths: {known})")
    return hidden.pop()


def cmd_fit_router(args):
    features, targets = objectives.read_router_dataset(args.dataset)
    fitted, losses = objectives.fit_router(features, targets, args.lr, args.epochs, args.seed,
                                           hidden=_router_hidden(features.shape[1]))
    weights.save_router(args.out, fitted)
    print(f"fitted router on {features.shape[0]} samples (dim {features.shape[1]})")
    print(f"loss: {losses[0]:.6f} -> {losses[-1]:.6f} over {args.epochs} epochs")
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hitrack",
        description="Hierarchical-transformer tracker with dynamic early-exit routing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic tracking sequence")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--difficulty", type=int, default=0)
    p.add_argument("--length", type=int, default=50)
    p.add_argument("--size", type=_frame_size, default=(120, 160),
                   help="frame size HxW, each side at least 32")
    p.add_argument("--blur", action="store_true")
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("infer", help="run one template/search pair")
    _add_model_args(p)
    p.add_argument("--template", required=True, help="template patch (PPM)")
    p.add_argument("--search", required=True, help="search patch (PPM)")
    p.add_argument("--route", choices=("auto", "route1", "full"), default="auto")
    p.add_argument("--threshold", type=float)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("track", help="track a sequence")
    _add_model_args(p)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--frames", help="directory of PPM frames")
    source.add_argument("--synth", type=_synth_spec, help="seed:difficulty:length synthetic sequence")
    p.add_argument("--gt", help="ground-truth box file (default <frames>/groundtruth.txt)")
    p.add_argument("--init-box", type=_box, help="x,y,w,h for frame 1 (default: first gt line)")
    p.add_argument("--tracker", choices=("full", "route1", "dyhit", "dytracker"), default="dyhit")
    p.add_argument("--threshold", type=float)
    p.add_argument("--classify-every-n", type=int)
    p.add_argument("--base-results", help="per-frame x,y,w,h file for the dytracker base")
    p.add_argument("--out", required=True)
    p.add_argument("--decisions-out")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("eval", help="metrics from prediction and gt files")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="threshold sweep over synthetic sequences")
    _add_model_args(p)
    p.add_argument("--synth", type=_synth_list, required=True,
                   help="comma list of seed:difficulty:length")
    p.add_argument("--grid", type=_float_list, default=[0.0, 0.25, 0.5, 0.75, 1.0])
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bench", help="latency benchmark")
    _add_model_args(p)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--frames")
    source.add_argument("--synth", type=_synth_spec, help="seed:difficulty:length")
    p.add_argument("--gt")
    p.add_argument("--tracker", choices=("full", "route1", "dyhit", "dytracker"), default="full")
    p.add_argument("--threshold", type=float)
    p.add_argument("--base-results")
    p.add_argument("--warmup", type=int, default=1)
    p.add_argument("--reps", type=int, default=3)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("flops", help="closed-form MAC/parameter report")
    _add_model_args(p)
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("fit-router", help="fit the router on a dataset file")
    p.add_argument("--dataset", required=True)
    p.add_argument("--lr", type=float, default=1e-2)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit_router)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except HitrackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
