"""Dual-image position encoding.

Template and search tokens are placed in one joint coordinate frame along
its diagonal: the template occupies rows [0, Hz) and columns [0, Wz) while
the search block occupies rows [Hz, Hz+Hx) and columns [Wz, Wz+Wx), so every
token has a unique (row, col) pair and the two blocks share no row or column
index. Attention biases are learned per head, LeViT-style, and indexed by the
absolute coordinate offsets (|dr|, |dc|) between token pairs; every
attention layer takes one, gathered into a C-contiguous [N, Tq, Tk] array.

Coordinates are a plain [T, 2] integer array in the token order of a
``config.TokenLayout``; Shrink Attention's query coordinates are
``layout.subsample(coords)``, so even-index tokens keep their pre-subsampling
coordinates and offsets against the full grid stay metric.
"""
from __future__ import annotations

import numpy as np

from .errors import ShapeError


def dual_coords(layout) -> np.ndarray:
    """[T, 2] (row, col) diagonal joint coordinates of a layout's tokens."""
    tpl = np.moveaxis(np.indices(layout.template_hw), 0, -1)
    srch = np.moveaxis(np.indices(layout.search_hw), 0, -1) + layout.template_hw
    return layout.join(tpl, srch)


def bias_index(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """[Tq, Tk, 2] absolute offsets: entry (i, j) is (|ri-rj|, |ci-cj|) between
    query coordinate i and key coordinate j."""
    return np.abs(q[:, None] - k[None])


def table_shape(coords: np.ndarray) -> tuple[int, int]:
    """Minimal bias-table extents for every pair of these coordinates."""
    rows, cols = coords.max(axis=0)
    return int(rows) + 1, int(cols) + 1


def gather_bias(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Look up per-head biases: out[h, i, j] = table[h, dr(i,j), dc(i,j)], one
    C-contiguous array taken from the [N, rows*cols] table at ``dr * cols + dc``."""
    n, rows, cols = table.shape
    dr = index[..., 0]
    dc = index[..., 1]
    if dr.max() >= rows or dc.max() >= cols:
        raise ShapeError(
            f"bias index exceeds table extents {(rows, cols)}; the table was sized for a smaller grid"
        )
    return np.take(table.reshape(n, -1), dr * cols + dc, axis=1)
