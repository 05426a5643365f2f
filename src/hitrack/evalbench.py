"""OPE metrics, closed-form cost accounting, latency benching, threshold sweeps.

The cost accountant mirrors the forward implementation exactly: only matrix
products count (convolutions at their im2col size, attention as QKV
projections plus per-head score and weighted-sum products), so its per-module
totals equal the instrumented ``MacCounter`` readings from a real forward
pass, not approximately but exactly. The report's ``modules`` section covers
the static full pipeline; the router and the fast-route head are listed under
``extras`` since the plain tracker never runs them.

Success AUC averages success rates over 51 IoU thresholds 0.00, 0.02, ... ,
1.00 with ``iou >= t`` (a perfect trace scores 1); SR@t uses the strict
``iou > t`` convention and AO is the mean IoU. Precision is the fraction of
frames with center error at most 20 pixels.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boxes import center_distance_xywh, iou_xywh
from .config import (BRIDGE_KERNEL, MHA_VALUE_RATIO, MLP_RATIO, SHRINK_VALUE_RATIO, STAGE_BLOCKS,
                     ModelConfig, geometry)
from .errors import DataError
from .routing import ROUTE1, make_tracker
from .runtime import track_sequence

SUCCESS_THRESHOLDS = np.linspace(0.0, 1.0, 51)


@dataclass
class TraceMetrics:
    ious: np.ndarray
    center_errors: np.ndarray
    auc: float
    precision: float
    ao: float
    sr50: float
    sr75: float


def evaluate_trace(pred_boxes, gt_boxes) -> TraceMetrics:
    """Per-frame IoU / center error and the OPE aggregates."""
    pred = list(pred_boxes)
    gt = list(gt_boxes)
    if len(pred) != len(gt):
        raise DataError(f"trace lengths differ: {len(pred)} predictions vs {len(gt)} ground truth")
    if not pred:
        raise DataError("empty trace")
    ious = np.array([iou_xywh(p, g) for p, g in zip(pred, gt)])
    errors = np.array([center_distance_xywh(p, g) for p, g in zip(pred, gt)])
    auc = float(np.mean([(ious >= t).mean() for t in SUCCESS_THRESHOLDS]))
    return TraceMetrics(
        ious=ious,
        center_errors=errors,
        auc=auc,
        precision=float((errors <= 20.0).mean()),
        ao=float(ious.mean()),
        sr50=float((ious > 0.5).mean()),
        sr75=float((ious > 0.75).mean()),
    )


# ---------------------------------------------------------------------------
# Closed-form multiply-accumulate and parameter accounting.

@dataclass
class LayerCost:
    macs: int = 0
    params: int = 0

    def __iadd__(self, other):
        self.macs += other.macs
        self.params += other.params
        return self


@dataclass
class CostReport:
    modules: dict[str, LayerCost]
    extras: dict[str, LayerCost]

    @property
    def total_macs(self) -> int:
        return sum(c.macs for c in self.modules.values())

    @property
    def total_params(self) -> int:
        return sum(c.params for c in self.modules.values())

    @property
    def fractions(self) -> dict[str, float]:
        total = self.total_macs
        return {name: c.macs / total for name, c in self.modules.items()}

    def extra_fraction(self, name: str) -> float:
        return self.extras[name].macs / self.total_macs


def _conv_cost(grid_hw, cin, cout) -> LayerCost:
    """A 3x3 convolution over an h x w grid."""
    h, w = grid_hw
    return LayerCost(macs=h * w * 9 * cin * cout, params=9 * cin * cout)


def _embed_cost(config: ModelConfig, size: int) -> LayerCost:
    cost = LayerCost()
    chain = (3,) + config.embed_channels
    grid = size
    for cin, cout in zip(chain[:-1], chain[1:]):
        grid //= 2
        conv = _conv_cost((grid, grid), cin, cout)
        cost += LayerCost(conv.macs, conv.params + 2 * cout)  # kernel, affine
    return cost


def _attention_cost(layer_geo, cin: int, cout: int, n: int, d: int, v: int) -> LayerCost:
    """An attention layer with its input affine: ``n`` heads with Q and K
    ``d`` wide and V ``v * d`` wide, Tq queries over Tk keys."""
    tq, tk = layer_geo.bias_index.shape[:2]
    rows, cols = layer_geo.table_shape
    width = n * v * d              # all heads' V
    macs = (
        (tq + tk) * cin * n * d    # q, k projections
        + tk * cin * width         # v projection
        + n * (tq * d * tk)        # scores per head
        + tq * tk * width          # weighted sum, all heads
        + tq * width * cout        # output projection
    )
    params = (
        2 * cin                    # affine
        + 2 * cin * n * d          # wq, wk
        + cin * width              # wv
        + width * cout             # wo
        + n * rows * cols          # bias table
    )
    return LayerCost(macs, params)


def _stage_cost(config: ModelConfig, stage: int) -> LayerCost:
    stage_geo = geometry(config).stages[stage]
    t = stage_geo.layout.n_tokens
    c = config.channels[stage]
    r = MLP_RATIO
    block = _attention_cost(stage_geo, c, c, config.heads[stage], config.key_dim, MHA_VALUE_RATIO)
    block += LayerCost(
        macs=2 * r * t * c * c,
        params=2 * c + c * r * c + r * c + r * c * c + c,  # affine, w1, b1, w2, b2
    )
    blocks = STAGE_BLOCKS[stage]
    return LayerCost(block.macs * blocks, block.params * blocks)


def _shrink_cost(config: ModelConfig, idx: int) -> LayerCost:
    return _attention_cost(geometry(config).shrinks[idx], config.channels[idx], config.channels[idx + 1],
                           config.heads[idx + 1], config.key_dim, SHRINK_VALUE_RATIO)


def _bridge_cost(config: ModelConfig) -> LayerCost:
    geo = geometry(config)
    k = BRIDGE_KERNEL
    c1, c2, c3 = config.channels
    h3, w3 = geo.stages[2].layout.search_hw
    h2, w2 = geo.stages[1].layout.search_hw
    macs = h3 * w3 * c3 * k * k * c2 + h2 * w2 * c2 * k * k * c1
    params = k * k * c3 * c2 + k * k * c2 * c1
    return LayerCost(macs, params)


def _head_cost(config: ModelConfig, projected: bool) -> LayerCost:
    geo = geometry(config)
    h, w = geo.stages[0].layout.search_hw
    chain = config.head_channels
    cost = LayerCost()
    if projected:
        cost += LayerCost(macs=config.channels[2] * config.channels[0],
                          params=config.channels[2] * config.channels[0])
    cost += LayerCost(macs=h * w * config.channels[0])  # similarity map
    for cin, cout in zip(chain[:-1], chain[1:]):
        branch = _conv_cost((h, w), cin, cout)
        cost += LayerCost(2 * branch.macs, 2 * (branch.params + cout))  # tl + br, conv bias
    return cost


def _router_cost(config: ModelConfig) -> LayerCost:
    geo = geometry(config)
    t = geo.stages[0].layout.n_search
    c1 = config.channels[0]
    h1, h2 = config.router_hidden
    macs = t * c1 * h1 + t * h1 * h2 + t * h2 * 1
    params = c1 * h1 + h1 + h1 * h2 + h2 + h2 * 1 + 1
    return LayerCost(macs, params)


def flop_account(config: ModelConfig) -> CostReport:
    """Per-module MAC and parameter counts for the static pipeline.

    ``modules`` sums to the plain full forward (embed through Head2); the
    router and Head1 appear under ``extras``.
    """
    template = _embed_cost(config, config.template_size)
    search = _embed_cost(config, config.search_size)
    # The two images share one embed, so its parameters are counted once.
    embed = LayerCost(template.macs + search.macs, search.params)
    modules = {
        "embed": embed,
        "stage1": _stage_cost(config, 0),
        "sa1": _shrink_cost(config, 0),
        "stage2": _stage_cost(config, 1),
        "sa2": _shrink_cost(config, 1),
        "stage3": _stage_cost(config, 2),
        "bridge": _bridge_cost(config),
        "head2": _head_cost(config, projected=True),
    }
    extras = {
        "router": _router_cost(config),
        "head1": _head_cost(config, projected=False),
    }
    return CostReport(modules, extras)


# ---------------------------------------------------------------------------
# Wall-clock latency benchmarking.

@dataclass
class LatencyStats:
    mean_ms: float
    median_ms: float
    p95_ms: float
    fps: float
    per_route: dict[str, tuple[float, int]]  # route -> (mean_ms, frames)


def latency_bench(tracker, frames, init_box, warmup: int = 1, reps: int = 3) -> LatencyStats:
    """Time the forward/dispatch path over a sequence, crops excluded.

    The sequence is run ``warmup + reps`` times; per-frame forward times from
    the warmup passes are discarded.
    """
    if warmup < 0:
        raise DataError(f"warmup must be >= 0, got {warmup}")
    if reps < 1:
        raise DataError(f"reps must be >= 1, got {reps}")
    frames = list(frames)
    if len(frames) < 2:
        raise DataError("the sequence has no frame after the init frame to time")
    times = []
    routes = []
    for rep in range(warmup + reps):
        result = track_sequence(frames, init_box, tracker)
        if rep >= warmup:
            times.extend(result.forward_seconds)
            routes.extend(d.route if d is not None else "static" for d in result.decisions)
    ms = np.asarray(times) * 1000.0
    per_route: dict[str, tuple[float, int]] = {}
    for route in sorted(set(routes)):
        sel = ms[np.array([r == route for r in routes])]
        per_route[route] = (float(sel.mean()), int(sel.size))
    mean = float(ms.mean())
    return LatencyStats(
        mean_ms=mean,
        median_ms=float(np.median(ms)),
        p95_ms=float(np.percentile(ms, 95)),
        fps=1000.0 / mean,
        per_route=per_route,
    )


# ---------------------------------------------------------------------------
# Scene-complexity threshold sweep.

@dataclass
class SweepRow:
    threshold: float
    metric: float          # AO across all sequences
    fps: float
    route1_fraction: float


def threshold_sweep(t_grid, sequences, params) -> list[SweepRow]:
    """One row per threshold over a suite of sequences with ``frames`` and
    ground-truth ``boxes`` (``runtime.gen_synthetic`` sequences).

    Boxes and routing are deterministic given the sequences; only the fps
    column varies between runs.
    """
    t_grid = [float(t) for t in t_grid]
    if not t_grid:
        raise DataError("empty threshold grid")
    suite = [(list(seq.frames), [tuple(float(v) for v in b) for b in seq.boxes])
             for seq in sequences]
    if not any(len(frames) > 1 for frames, _ in suite):
        raise DataError("no sequence has a frame after its init frame to time")

    ious = [[] for _ in t_grid]
    seconds = [[] for _ in t_grid]
    r1 = [0] * len(t_grid)
    # Thresholds take turns on each sequence, so a drift in machine speed
    # during the sweep shifts every threshold's frame times alike.
    for frames, gt in suite:
        for i, t in enumerate(t_grid):
            result = track_sequence(frames, gt[0], make_tracker("dyhit", params, t))
            ious[i].extend(iou_xywh(p, g) for p, g in zip(result.boxes, gt))
            r1[i] += sum(1 for d in result.decisions if d.route == ROUTE1)
            seconds[i].extend(result.forward_seconds)
    # median per-frame forward time: robust against GC and scheduler spikes
    medians = [float(np.median(s)) for s in seconds]
    return [SweepRow(threshold=t, metric=float(np.mean(ious[i])),
                     fps=1.0 / medians[i] if medians[i] > 0 else float("inf"),
                     route1_fraction=r1[i] / len(seconds[i]))
            for i, t in enumerate(t_grid)]


def sweep_csv(rows) -> str:
    lines = ["T,metric,fps,route1_fraction"]
    for row in rows:
        lines.append(f"{row.threshold:g},{row.metric:.6f},{row.fps:.3f},{row.route1_fraction:.6f}")
    return "\n".join(lines) + "\n"
