"""Box geometry shared by the losses and the evaluation metrics.

Two conventions appear in the package. Corner boxes (x1, y1, x2, y2) are used
by the prediction head and the losses, usually normalized to [0, 1] crop
coordinates. Frame-level traces use (x, y, w, h) in pixels, matching the
ground-truth and results file format. Degenerate boxes (non-positive extents)
are allowed everywhere and have zero area.
"""
from __future__ import annotations

import numpy as np


def xywh_to_corners(box):
    x, y, w, h = (float(v) for v in box)
    return (x, y, x + w, y + h)


def box_area(box) -> float:
    x1, y1, x2, y2 = box
    return max(0.0, x2 - x1) * max(0.0, y2 - y1)


def iou_corners(a, b) -> float:
    """Intersection over union of two corner boxes, extents clamped at zero."""
    ix1 = max(a[0], b[0])
    iy1 = max(a[1], b[1])
    ix2 = min(a[2], b[2])
    iy2 = min(a[3], b[3])
    inter = max(0.0, ix2 - ix1) * max(0.0, iy2 - iy1)
    union = box_area(a) + box_area(b) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def iou_xywh(a, b) -> float:
    return iou_corners(xywh_to_corners(a), xywh_to_corners(b))


def center_distance_xywh(a, b) -> float:
    ax = a[0] + a[2] / 2.0
    ay = a[1] + a[3] / 2.0
    bx = b[0] + b[2] / 2.0
    by = b[1] + b[3] / 2.0
    return float(np.hypot(ax - bx, ay - by))
