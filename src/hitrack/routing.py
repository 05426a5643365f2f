"""Dynamic routing: the scene router, early-exit dispatch and gated trackers.

The router is three linear layers with hardswish between and a sigmoid
output, applied per search token of the stage-1 feature map. Its pooled score
F is the mean of the per-token scores that exceed the foreground threshold
tau_fg; when no token clears the threshold F falls back to the mean of all
scores (keeping F strictly inside (0, 1), so T=0 always routes fast and T=1
always routes full under the strict comparisons below).

Dispatch (threshold T): F > T runs the fast route, Head1 on (s_max, g1),
and the rest of the network is never executed; F <= T runs stages 2-3, the
bridge and Head2. The tie F == T deliberately takes the full route.
``route_head`` is the one place that maps a route to its head.

``Tracker`` runs that dispatch on a sequence, with the route fixed (the
``route1`` and ``full`` kinds) or chosen by the router (``dyhit``). The same
decision gates an arbitrary base tracker (``dytracker``): easy frames are
answered by the fast route, hard frames are re-predicted by the base tracker
from the raw frame (fast-route features are never fed to it).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from . import runtime
from .backbone import Stage1State, continue_forward, embed_template, stage1_forward
from .errors import DataError, NumericError, ShapeError
from .fusion import BoxPrediction, bridge, corner_head
from .tensor import hardswish, linear, mac_scope, sigmoid
from .weights import ModelParams, RouterWeights

ROUTE1 = "route1"
ROUTE2 = "route2"


@dataclass(eq=False)
class RouteDecision:
    score_map: np.ndarray       # [Hx, Wx] per-token scores
    f: float                    # pooled score
    threshold: float
    route: str                  # ROUTE1 iff f > threshold
    fallback: bool              # no token above tau_fg
    reused: bool = False        # decision carried over (classify_every_n > 1)


def router_apply(features: np.ndarray, w: RouterWeights) -> np.ndarray:
    """Per-token scores in (0, 1) for a [T, C1] feature matrix."""
    z = hardswish(linear(features, w.w1, w.b1))
    z = hardswish(linear(z, w.w2, w.b2))
    return sigmoid(linear(z, w.w3, w.b3))[:, 0]


def router_score(s_max_feat: np.ndarray, w: RouterWeights):
    """Score map plus pooled score F; returns (scores, f, fallback)."""
    s_max_feat = np.asarray(s_max_feat)
    if s_max_feat.ndim != 3:
        raise ShapeError(f"router expects an HxWxC feature map, got {s_max_feat.shape}")
    h, wd, c = s_max_feat.shape
    if c != w.w1.shape[0]:
        raise ShapeError(f"router expects {w.w1.shape[0]} channels, features have {c}")
    with mac_scope("router"):
        scores = router_apply(s_max_feat.reshape(h * wd, c), w)
    above = scores > w.tau_fg
    if above.any():
        f = float(scores[above].mean())
        fallback = False
    else:
        f = float(scores.mean())
        fallback = True
    if not np.isfinite(f):
        raise NumericError(f"non-finite router score F={f}")
    return scores.reshape(h, wd), f, fallback


def route_decision(s_max_feat: np.ndarray, w: RouterWeights, threshold: float) -> RouteDecision:
    if not 0.0 <= threshold <= 1.0:
        raise DataError(f"threshold must be in [0, 1], got {threshold}")
    scores, f, fallback = router_score(s_max_feat, w)
    route = ROUTE1 if f > threshold else ROUTE2
    return RouteDecision(scores, f, float(threshold), route, fallback)


def route_head(state: Stage1State, params: ModelParams, route: str) -> BoxPrediction:
    """The route's answer from stage-1 features: Head1, or stages 2-3, the
    bridge and Head2."""
    if route == ROUTE1:
        return corner_head(state.s_max, state.g1, params.head1, scope="head1")
    outs = continue_forward(state, params)
    fused = bridge(outs.s_max, outs.s_mid, outs.s_min, params.bridge)
    return corner_head(fused, outs.g, params.head2, scope="head2")


def route1_forward(template_img, search_img, params: ModelParams) -> BoxPrediction:
    """Standalone fast route: stage 1 + Head1, no router involved."""
    return route_head(stage1_forward(template_img, search_img, params), params, ROUTE1)


def full_forward(template_img, search_img, params: ModelParams) -> BoxPrediction:
    """The plain static tracker: all stages, bridge, Head2, no router."""
    return route_head(stage1_forward(template_img, search_img, params), params, ROUTE2)


def dyhit_forward(template_img, search_img, params: ModelParams,
                  threshold: float) -> tuple[BoxPrediction, RouteDecision]:
    """Early-exit dispatch on one image pair."""
    state = stage1_forward(template_img, search_img, params)
    decision = route_decision(state.s_max, params.router, threshold)
    return route_head(state, params, decision.route), decision


# ---------------------------------------------------------------------------
# Base-tracker handles for the training-free gating wrapper.

class OracleBaseTracker:
    """Test double for a high-performance tracker: ground truth plus seeded
    Gaussian jitter on center and size. Noise is keyed by (seed, frame index)
    so predictions do not depend on which frames were routed to it."""

    def __init__(self, gt_boxes, noise_scale: float, seed: int):
        self.gt = [tuple(float(v) for v in b) for b in gt_boxes]
        self.noise = float(noise_scale)
        self.seed = int(seed)
        self._ready = False

    def init(self, frame, box) -> None:
        self._ready = True

    def predict(self, frame_index: int, frame, prev_box):
        if not self._ready:
            raise DataError("base tracker used before init")
        if not 0 <= frame_index < len(self.gt):
            raise DataError(f"no ground truth for frame index {frame_index}")
        x, y, w, h = self.gt[frame_index]
        if self.noise == 0.0:
            return (x, y, w, h)
        rng = np.random.default_rng((self.seed, frame_index))
        n = rng.standard_normal(4)
        cx = x + w / 2.0 + self.noise * w * n[0]
        cy = y + h / 2.0 + self.noise * h * n[1]
        nw = max(w * (1.0 + self.noise * n[2]), 1e-6)
        nh = max(h * (1.0 + self.noise * n[3]), 1e-6)
        return (cx - nw / 2.0, cy - nh / 2.0, nw, nh)


def oracle_base_tracker(gt_boxes, noise_scale: float, seed: int) -> OracleBaseTracker:
    return OracleBaseTracker(gt_boxes, noise_scale, seed)


class FileBaseTracker:
    """Replays per-frame boxes precomputed by any external tracker."""

    def __init__(self, path):
        self.path = path
        self.boxes = runtime.read_boxes(path)
        self._ready = False

    def init(self, frame, box) -> None:
        self._ready = True

    def predict(self, frame_index: int, frame, prev_box):
        if not self._ready:
            raise DataError("base tracker used before init")
        if frame_index >= len(self.boxes):
            raise DataError(
                f"{self.path}: no stored box for frame {frame_index + 1} "
                f"(file has {len(self.boxes)} lines)")
        return self.boxes[frame_index]


def file_base_tracker(path) -> FileBaseTracker:
    return FileBaseTracker(path)


# ---------------------------------------------------------------------------
# Tracker objects implementing the runtime protocol: init(frame, box) then
# step(frame, frame_index, prev_box) -> (box_xywh, decision | None, seconds).

TEMPLATE_FACTOR = 2.0
SEARCH_FACTOR = 4.0
MIN_CROP_EXTENT = 2.0  # pixels


def crop_reference(box, min_extent: float = MIN_CROP_EXTENT):
    """Previous-output box made crop-safe: extents floored, center kept.

    Untrained heads may emit inverted corners; the reported box keeps them,
    but the next frame's context crop needs a positive-area reference.
    """
    x, y, w, h = (float(v) for v in box)
    cx = x + w / 2.0
    cy = y + h / 2.0
    w = max(w, min_extent)
    h = max(h, min_extent)
    return (cx - w / 2.0, cy - h / 2.0, w, h)


class Tracker:
    """Crop, stage 1, route, answer: the one tracker behind every kind.

    ``route`` fixes the route (ROUTE1 or ROUTE2) and the router never runs;
    the decision is then None. Otherwise the router decides at ``threshold``,
    running on every ``config.classify_every_n``-th step and reusing its last
    decision in between. ``base`` answers route-2 frames from the raw frame
    (fast-route features are never fed to it); ``route1_override`` answers
    route-1 frames (used by tests to model a fast tracker of known accuracy).
    Any other frame is answered by ``route_head``.
    """

    def __init__(self, params: ModelParams, threshold: float = 0.5, route: str | None = None,
                 base=None, route1_override=None):
        if route not in (None, ROUTE1, ROUTE2):
            raise DataError(f"unknown route {route!r}")
        threshold = float(threshold)
        if not 0.0 <= threshold <= 1.0:
            raise DataError(f"threshold must be in [0, 1], got {threshold}")
        self.params = params
        self.threshold = threshold
        self.route = route
        self.base = base
        self.route1_override = route1_override
        self.template = None
        self.template_grid = None  # template embed is fixed per sequence
        self._last: RouteDecision | None = None
        self._steps = 0

    def init(self, frame, box) -> None:
        cfg = self.params.config
        self.template, _ = runtime.crop_resize(frame, box, TEMPLATE_FACTOR, cfg.template_size)
        self.template_grid = embed_template(self.template, self.params)
        self._last = None
        self._steps = 0
        for helper in (self.base, self.route1_override):
            if helper is not None:
                helper.init(frame, box)

    def step(self, frame, frame_index, prev_box):
        """One frame: (box_xywh, RouteDecision | None, seconds after the crop)."""
        params = self.params
        patch, mapping = runtime.crop_resize(frame, crop_reference(prev_box), SEARCH_FACTOR,
                                             params.config.search_size)
        t0 = time.perf_counter()
        state = stage1_forward(self.template, patch, params, self.template_grid)
        decision = None
        route = self.route
        if route is None:
            if self._steps % params.config.classify_every_n == 0:
                decision = route_decision(state.s_max, params.router, self.threshold)
            else:
                decision = dc_replace(self._last, reused=True)
            self._last = decision
            self._steps += 1
            route = decision.route
        if route == ROUTE2 and self.base is not None:
            box = self.base.predict(frame_index, frame, prev_box)
        elif route == ROUTE1 and self.route1_override is not None:
            box = self.route1_override.predict(frame_index, frame, prev_box)
        else:
            box = runtime.map_box_to_frame(route_head(state, params, route).corners, mapping)
        dt = time.perf_counter() - t0
        if not np.isfinite(box).all():
            raise NumericError(f"non-finite box {box} at frame {frame_index + 1}")
        return box, decision, dt


def make_tracker(kind: str, params: ModelParams, threshold: float = 0.5, base=None) -> Tracker:
    if kind == "route1":
        return Tracker(params, threshold, route=ROUTE1)
    if kind == "full":
        return Tracker(params, threshold, route=ROUTE2)
    if kind == "dyhit":
        return Tracker(params, threshold)
    if kind == "dytracker":
        if base is None:
            raise DataError("dytracker needs a base tracker")
        return Tracker(params, threshold, base=base)
    raise DataError(f"unknown tracker kind {kind!r}")
