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
``route_head`` is the one place that maps a route to its head, and
``_check_threshold`` the one place that checks T.

``forward`` runs one template/search pair and ``Tracker`` a sequence. Both
take a fixed ``route`` (ROUTE1 or ROUTE2; the router never runs) or
``route=None`` (the router decides at the threshold). The same decision
gates an arbitrary base tracker (``dytracker``): easy frames are answered by
the fast route, hard frames are re-predicted by the base tracker from the
raw frame (fast-route features are never fed to it). ``ReplayBaseTracker``
answers frame i with the i-th stored box: an external tracker's output or
jittered ground truth.
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
    z = linear(features, w.w1, w.b1)
    z = linear(hardswish(z, out=z), w.w2, w.b2)
    return sigmoid(linear(hardswish(z, out=z), w.w3, w.b3))[:, 0]


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


def _check_threshold(threshold) -> float:
    """The scene threshold T as a float; anything outside [0, 1], NaN
    included, is a DataError."""
    threshold = float(threshold)
    if not 0.0 <= threshold <= 1.0:
        raise DataError(f"threshold must be in [0, 1], got {threshold}")
    return threshold


def _check_route(route) -> None:
    if route not in (None, ROUTE1, ROUTE2):
        raise DataError(f"unknown route {route!r}")


def route_decision(s_max_feat: np.ndarray, w: RouterWeights, threshold: float) -> RouteDecision:
    threshold = _check_threshold(threshold)
    scores, f, fallback = router_score(s_max_feat, w)
    route = ROUTE1 if f > threshold else ROUTE2
    return RouteDecision(scores, f, threshold, route, fallback)


def route_head(state: Stage1State, params: ModelParams, route: str) -> BoxPrediction:
    """The route's answer from stage-1 features: Head1, or stages 2-3, the
    bridge and Head2."""
    if route == ROUTE1:
        return corner_head(state.s_max, state.g1, params.head1, scope="head1")
    s_mid, s_min, g = continue_forward(state, params)
    return corner_head(bridge(state.s_max, s_mid, s_min, params.bridge), g, params.head2,
                       scope="head2")


def forward(template_img, search_img, params: ModelParams, route: str | None = None,
            threshold: float = 0.5) -> tuple[BoxPrediction, RouteDecision | None]:
    """One template/search pair: (prediction, decision).

    A fixed ``route`` answers from that route and the decision is None;
    ``route=None`` lets the router decide at ``threshold``.
    """
    _check_route(route)
    threshold = _check_threshold(threshold)
    state = stage1_forward(embed_template(template_img, params), search_img, params)
    decision = None
    if route is None:
        decision = route_decision(state.s_max, params.router, threshold)
        route = decision.route
    return route_head(state, params, route), decision


# ---------------------------------------------------------------------------
# Base-tracker handles for the training-free gating wrapper.

class ReplayBaseTracker:
    """Answers frame i with the i-th of a list of (x, y, w, h) boxes."""

    def __init__(self, boxes, source: str):
        self.boxes = boxes
        self.source = source
        self._ready = False

    def init(self, frame, box) -> None:
        self._ready = True

    def predict(self, frame_index: int, frame, prev_box):
        if not self._ready:
            raise DataError("base tracker used before init")
        if not 0 <= frame_index < len(self.boxes):
            raise DataError(f"{self.source}: no stored box for frame {frame_index + 1} "
                            f"({len(self.boxes)} boxes)")
        return self.boxes[frame_index]


def _jitter(box, noise: float, key) -> tuple:
    x, y, w, h = box
    n = np.random.default_rng(key).standard_normal(4)
    cx = x + w / 2.0 + noise * w * n[0]
    cy = y + h / 2.0 + noise * h * n[1]
    nw = max(w * (1.0 + noise * n[2]), 1e-6)
    nh = max(h * (1.0 + noise * n[3]), 1e-6)
    return (cx - nw / 2.0, cy - nh / 2.0, nw, nh)


def oracle_base_tracker(gt_boxes, noise_scale: float, seed: int) -> ReplayBaseTracker:
    """Test double for a high-performance tracker: ground truth plus seeded
    Gaussian jitter on center and size. Frame i's noise is drawn from
    ``default_rng((seed, i))``, so a box does not depend on which frames
    were routed to the tracker."""
    boxes = [tuple(float(v) for v in b) for b in gt_boxes]
    noise = float(noise_scale)
    if noise != 0.0:
        boxes = [_jitter(b, noise, (int(seed), i)) for i, b in enumerate(boxes)]
    return ReplayBaseTracker(boxes, "ground truth")


def file_base_tracker(path) -> ReplayBaseTracker:
    """Replays per-frame boxes precomputed by any external tracker."""
    return ReplayBaseTracker(runtime.read_boxes(path), str(path))


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
        _check_route(route)
        self.params = params
        self.threshold = _check_threshold(threshold)
        self.route = route
        self.base = base
        self.route1_override = route1_override
        self.template_grid = None  # template embed is fixed per sequence
        self._last: RouteDecision | None = None
        self._steps = 0

    def init(self, frame, box) -> None:
        cfg = self.params.config
        template, _ = runtime.crop_resize(frame, box, TEMPLATE_FACTOR, cfg.template_size)
        self.template_grid = embed_template(template, self.params)
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
        state = stage1_forward(self.template_grid, patch, params)
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
