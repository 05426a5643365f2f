"""Feature bridge and the corner prediction head.

The bridge restores fine detail lost to downsampling by additive fusion:
``o_s = s_max + up(s_mid + up(s_min))`` with stride-2 transposed-conv
upsamplers. The corner head re-weights ``o_s`` by its similarity to the
global vector, runs two small convolutional branches to produce top-left and
bottom-right logit maps, and reads the corners off each map with a spatial
softmax followed by a soft-argmax. All four corner coordinates are convex
combinations of pixel centers, so they always lie in [0, 1]; on untrained
weights the top-left corner may land right of the bottom-right one, which is
reported as-is (downstream IoU treats negative extents as zero area).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError
from .tensor import add_into, conv2d, conv2d_many, conv_transpose2d, hardswish, mac_scope, matmul, softmax_rows
from .weights import BridgeWeights, CornerHeadWeights


@dataclass(eq=False)
class BoxPrediction:
    """Normalized corner box in crop coordinates plus its corner heatmaps."""

    corners: tuple[float, float, float, float]  # (x_tl, y_tl, x_br, y_br)
    tl_heatmap: np.ndarray
    br_heatmap: np.ndarray


def bridge(s_max: np.ndarray, s_mid: np.ndarray, s_min: np.ndarray,
           w: BridgeWeights) -> np.ndarray:
    """s_max + Upsample(s_mid + Upsample(s_min)); output shape equals s_max's."""
    for low, high, kernel in ((s_min, s_mid, w.up1), (s_mid, s_max, w.up2)):
        if (2 * low.shape[0], 2 * low.shape[1]) != high.shape[:2]:
            raise ShapeError(f"stage grids {low.shape[:2]} and {high.shape[:2]} are not 2x apart")
        if low.shape[2] != kernel.shape[2] or high.shape[2] != kernel.shape[3]:
            raise ShapeError(
                f"upsampler {kernel.shape} does not map {low.shape[2]} -> {high.shape[2]} channels")
    with mac_scope("bridge"):
        pad = (w.up1.shape[0] - 2) // 2
        mid = add_into(conv_transpose2d(s_min, w.up1, stride=2, padding=pad), s_mid)
        return add_into(conv_transpose2d(mid, w.up2, stride=2, padding=pad), s_max)


def soft_argmax(heatmap: np.ndarray) -> tuple[float, float]:
    """Expected (x, y) of a probability map, pixel centers at (i + 0.5) / n."""
    heatmap = np.asarray(heatmap)
    if heatmap.ndim != 2:
        raise ShapeError(f"soft_argmax expects a 2-D map, got {heatmap.shape}")
    total = float(heatmap.sum())
    if not math.isfinite(total):
        raise NumericError(f"soft_argmax input sums to {total}")
    if not math.isclose(total, 1.0, abs_tol=1e-6):
        warnings.warn(f"soft_argmax input sums to {total:.6g}, renormalizing", stacklevel=2)
        heatmap = heatmap / total
    h, w = heatmap.shape
    xs = (np.arange(w, dtype=heatmap.dtype) + 0.5) / w
    ys = (np.arange(h, dtype=heatmap.dtype) + 0.5) / h
    x = float((heatmap.sum(axis=0) * xs).sum())
    y = float((heatmap.sum(axis=1) * ys).sum())
    return x, y


def box_from_heatmaps(tl_heatmap: np.ndarray, br_heatmap: np.ndarray) -> BoxPrediction:
    x1, y1 = soft_argmax(tl_heatmap)
    x2, y2 = soft_argmax(br_heatmap)
    return BoxPrediction((x1, y1, x2, y2), tl_heatmap, br_heatmap)


def _branch_logits(first: np.ndarray, branch) -> np.ndarray:
    """A corner branch's logit map, from its first convolution's output."""
    x = first
    for conv, following in zip(branch, branch[1:]):
        x = add_into(x, conv.bias)
        x = conv2d(hardswish(x, out=x), following.kernel, stride=1, padding=1)
    return add_into(x, branch[-1].bias)[:, :, 0]


def corner_head(o_s: np.ndarray, g: np.ndarray, w: CornerHeadWeights,
                scope: str = "head") -> BoxPrediction:
    """Global-vector re-weighting followed by the two corner branches.

    The branches read one re-weighted map, so their first convolutions share
    one im2col.
    """
    h, wd, c = o_s.shape
    with mac_scope(scope):
        gv = np.asarray(g).reshape(1, -1)
        if w.proj is not None:
            gv = matmul(gv, w.proj)
        if gv.shape[1] != c:
            raise ShapeError(f"global vector has {gv.shape[1]} channels, features have {c}")
        flat = o_s.reshape(h * wd, c)
        sim = matmul(flat, gv.T).reshape(1, h * wd)
        sim /= math.sqrt(c)
        attn = softmax_rows(sim, out=sim).reshape(h * wd, 1)
        weighted = (flat * attn).reshape(h, wd, c)
        tl_first, br_first = conv2d_many(weighted, (w.tl[0].kernel, w.br[0].kernel), stride=1, padding=1)
        tl = _branch_logits(tl_first, w.tl).reshape(1, h * wd)
        br = _branch_logits(br_first, w.br).reshape(1, h * wd)
        tl = softmax_rows(tl, out=tl).reshape(h, wd)
        br = softmax_rows(br, out=br).reshape(h, wd)
    return box_from_heatmaps(tl, br)
