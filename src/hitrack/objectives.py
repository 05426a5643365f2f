"""Losses with analytic gradients, router target labeling and router fitting.

Box losses work on normalized corner boxes (x1, y1, x2, y2). GIoU is
IoU - (|C| - |U|) / |C| with C the smallest enclosing box; its value is in
(-1, 1] and the loss is 1 - GIoU. The L1 term is the sum of the four absolute
coordinate differences. Subgradients at ties take the left-continuous branch
(max contributes only when strictly larger, min when smaller or equal), so
gradients are deterministic everywhere.

The static tracker's box loss is 2 * (1 - GIoU) + 5 * L1 (``hit_loss``).
The paper's router-stage objective, 1 * (1 - GIoU) + 1 * L1 + 5 * MSE of the
score map against its targets, is not implemented: it waits on gradients
through the head stack. Only the router is fit at this scale: full-batch
gradient descent on the MSE term (``mse_with_grad``, averaged over the
scored tokens) through the three linear layers, with hand-derived
gradients verified against central differences by ``grad_check``. Its
training set comes from ``label_router_samples``: stage-1 search features
of sampled frames, each token labelled by ``label_router_targets`` from
Head1's box.
"""
from __future__ import annotations

import numpy as np

from . import runtime
from .backbone import embed_template, stage1_forward
from .boxes import iou_corners
from .errors import DataError, NumericError, ShapeError
from .routing import ROUTE1, SEARCH_FACTOR, TEMPLATE_FACTOR, route_head
from .tensor import hardswish, hardswish_grad, sigmoid
from .weights import ModelParams, RouterWeights, _uniform_maker, named_arrays, router_weights

LABEL_STRIDE = 4  # label_router_samples labels frames 1, 5, 9, ... of each sequence


def giou_with_grad(a, b):
    """GIoU(a, b) and its gradient with respect to a's four coordinates.

    When both boxes are degenerate the value is defined as -1 with a zero
    gradient.
    """
    ax1, ay1, ax2, ay2 = (float(v) for v in a)
    bx1, by1, bx2, by2 = (float(v) for v in b)

    aw, ah = max(0.0, ax2 - ax1), max(0.0, ay2 - ay1)
    bw, bh = max(0.0, bx2 - bx1), max(0.0, by2 - by1)
    area_a = aw * ah
    area_b = bw * bh
    if area_a == 0.0 and area_b == 0.0:
        return -1.0, np.zeros(4)

    # d(area_a)/d(ax1, ay1, ax2, ay2); max(0, .) kills the slope when extent <= 0.
    da = np.zeros(4)
    if ax2 - ax1 > 0.0 and ay2 - ay1 > 0.0:
        da[:] = (-ah, -aw, ah, aw)

    ix1, iy1 = max(ax1, bx1), max(ay1, by1)
    ix2, iy2 = min(ax2, bx2), min(ay2, by2)
    iw, ih = max(0.0, ix2 - ix1), max(0.0, iy2 - iy1)
    inter = iw * ih
    di = np.zeros(4)
    if iw > 0.0 and ih > 0.0:
        # left-continuous: max passes gradient iff strictly larger, min iff <=
        di[0] = -ih if ax1 > bx1 else 0.0
        di[1] = -iw if ay1 > by1 else 0.0
        di[2] = ih if ax2 <= bx2 else 0.0
        di[3] = iw if ay2 <= by2 else 0.0

    union = area_a + area_b - inter
    du = da - di

    cx1, cy1 = min(ax1, bx1), min(ay1, by1)
    cx2, cy2 = max(ax2, bx2), max(ay2, by2)
    cw, ch = cx2 - cx1, cy2 - cy1
    c_area = cw * ch
    dc = np.zeros(4)
    dc[0] = -ch if ax1 <= bx1 else 0.0
    dc[1] = -cw if ay1 <= by1 else 0.0
    dc[2] = ch if ax2 > bx2 else 0.0
    dc[3] = cw if ay2 > by2 else 0.0

    if union <= 0.0 or c_area <= 0.0:
        return -1.0, np.zeros(4)

    iou = inter / union
    d_iou = (di * union - inter * du) / (union * union)
    gap = (c_area - union) / c_area
    d_gap = ((dc - du) * c_area - (c_area - union) * dc) / (c_area * c_area)
    return iou - gap, d_iou - d_gap


def giou(a, b) -> float:
    return giou_with_grad(a, b)[0]


def l1_with_grad(a, b):
    """Sum of absolute coordinate differences and its gradient w.r.t. a."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    diff = a - b
    return float(np.abs(diff).sum()), np.sign(diff)


def mse_with_grad(pred, target):
    """Mean squared error over a score map and its gradient w.r.t. pred."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeError(f"score map {pred.shape} does not match targets {target.shape}")
    diff = pred - target
    n = pred.size
    return float((diff * diff).sum() / n), 2.0 * diff / n


def hit_loss(pred, gt) -> float:
    """Static-tracker objective: 2 * (1 - GIoU) + 5 * L1."""
    g = giou(pred, gt)
    l1, _ = l1_with_grad(pred, gt)
    return 2.0 * (1.0 - g) + 5.0 * l1


def label_router_targets(grid_hw, gt, route1_pred):
    """Per-token regression targets over a search-crop score grid.

    A token is positive when its cell center lies inside the ground-truth
    box; positive targets equal IoU(route1_pred, gt), negatives are zero.
    Returns (targets [H, W], positive mask [H, W]).
    """
    h, w = int(grid_hw[0]), int(grid_hw[1])
    gx1, gy1, gx2, gy2 = (float(v) for v in gt)
    cx = (np.arange(w) + 0.5) / w
    cy = (np.arange(h) + 0.5) / h
    inside_x = (cx >= gx1) & (cx <= gx2)
    inside_y = (cy >= gy1) & (cy <= gy2)
    positive = inside_y[:, None] & inside_x[None, :]
    if gx2 <= gx1 or gy2 <= gy1:
        positive = np.zeros((h, w), dtype=bool)
    value = iou_corners(tuple(float(v) for v in route1_pred), (gx1, gy1, gx2, gy2))
    targets = np.where(positive, value, 0.0)
    return targets, positive


def label_router_samples(sequences, params: ModelParams):
    """Router training set from sequences with ground truth: (features, targets).

    Every ``LABEL_STRIDE``-th frame after the first is cropped around the
    previous ground-truth box, and one template embed per sequence serves
    all its frames. Each crop's stage-1 search tokens are labelled by
    ``label_router_targets`` from Head1's box.

    Returns features [N, C1] in the config dtype and targets [N], one row
    per search token of each labelled frame.
    """
    cfg = params.config
    features, targets = [], []
    for seq in sequences:
        frames = seq.frames
        gt = [tuple(b) for b in seq.boxes]
        template, _ = runtime.crop_resize(frames[0], gt[0], TEMPLATE_FACTOR, cfg.template_size)
        grid = embed_template(template, params)
        for t in range(1, len(gt), LABEL_STRIDE):
            patch, mapping = runtime.crop_resize(frames[t], gt[t - 1], SEARCH_FACTOR,
                                                 cfg.search_size)
            state = stage1_forward(grid, patch, params)
            labels, _ = label_router_targets(state.s_max.shape[:2],
                                             runtime.map_box_to_crop(gt[t], mapping),
                                             route_head(state, params, ROUTE1).corners)
            features.append(state.s_max.reshape(-1, state.s_max.shape[2]))
            targets.append(labels.reshape(-1))
    if not features:
        raise DataError("no frame to label: every sequence has a single frame")
    return np.concatenate(features), np.concatenate(targets)


def grad_check(loss_fn, point, eps: float = 1e-6) -> float:
    """Largest relative error between analytic and central-difference grads.

    ``loss_fn(x)`` must return ``(value, gradient)``; the check runs in
    float64.
    """
    point = np.asarray(point, dtype=np.float64)
    _, analytic = loss_fn(point)
    analytic = np.asarray(analytic, dtype=np.float64)
    worst = 0.0
    for i in range(point.size):
        shift = np.zeros_like(point)
        shift.flat[i] = eps
        hi, _ = loss_fn(point + shift)
        lo, _ = loss_fn(point - shift)
        numeric = (hi - lo) / (2.0 * eps)
        denom = max(abs(numeric), abs(analytic.flat[i]), 1e-8)
        worst = max(worst, abs(numeric - analytic.flat[i]) / denom)
    return worst


# ---------------------------------------------------------------------------
# Router fitting: full-batch gradient descent on the MSE term only.

def _router_forward_full(x, w: RouterWeights):
    z1 = x @ w.w1 + w.b1
    a1 = hardswish(z1)
    z2 = a1 @ w.w2 + w.b2
    a2 = hardswish(z2)
    z3 = a2 @ w.w3 + w.b3
    return z1, a1, z2, a2, z3, sigmoid(z3)[:, 0]


def check_fit_args(lr, epochs) -> None:
    """A learning rate that is not a finite number >= 0, or a negative epoch
    count, is a DataError (``fit-router`` checks both before labelling)."""
    if not (np.isfinite(lr) and lr >= 0):
        raise DataError(f"lr must be a finite number >= 0, got {lr}")
    if epochs < 0:
        raise DataError(f"epochs must be >= 0, got {epochs}")


@np.errstate(over="ignore", invalid="ignore")
def fit_router(features, targets, lr: float, epochs: int, seed: int, hidden=(96, 32)):
    """Fit the three-layer router to per-token targets; returns (weights, losses).

    The fit runs in float64 from ``router_weights``' draw for ``seed``, the
    builder ``init_weights`` uses for the seeded tree's router. The weights
    come back in the features' float dtype, so a router fitted on a tree's
    float32 features routes in memory as it does after a save and reload.

    ``losses`` holds the MSE before each update plus the final value, so
    ``losses[0]`` and ``losses[-1]`` are the initial and final training loss.
    A step size that overflows the weights shows as a non-finite loss, which
    raises ``NumericError`` naming the epoch (overflow warnings are off).
    """
    dtype = np.result_type(np.asarray(features), np.float32)
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64).reshape(-1)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ShapeError(f"features {x.shape} do not match {y.shape[0]} targets")
    if x.shape[0] == 0:
        raise DataError("empty router training set")
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed}")
    check_fit_args(lr, epochs)
    w = router_weights(_uniform_maker(seed), x.shape[1], hidden, np.float64)

    losses = []
    for epoch in range(epochs + 1):
        z1, a1, z2, a2, z3, s = _router_forward_full(x, w)
        loss, ds = mse_with_grad(s, y)
        if not np.isfinite(loss):
            raise NumericError(f"router fitting diverged at epoch {epoch}: loss={loss}")
        losses.append(loss)
        if epoch == epochs:
            return RouterWeights(**{key: a.astype(dtype) for key, a in named_arrays(w)}), losses

        dz3 = (ds * s * (1.0 - s))[:, None]
        gw3 = a2.T @ dz3
        gb3 = dz3.sum(axis=0)
        da2 = dz3 @ w.w3.T
        dz2 = da2 * hardswish_grad(z2)
        gw2 = a1.T @ dz2
        gb2 = dz2.sum(axis=0)
        da1 = dz2 @ w.w2.T
        dz1 = da1 * hardswish_grad(z1)
        gw1 = x.T @ dz1
        gb1 = dz1.sum(axis=0)

        w.w3 = w.w3 - lr * gw3
        w.b3 = w.b3 - lr * gb3
        w.w2 = w.w2 - lr * gw2
        w.b2 = w.b2 - lr * gb2
        w.w1 = w.w1 - lr * gw1
        w.b1 = w.b1 - lr * gb1
