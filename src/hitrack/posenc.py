"""Dual-image position encoding.

Template and search tokens are placed in one joint coordinate frame along
its diagonal: the template occupies rows [0, Hz) and columns [0, Wz) while
the search block occupies rows [Hz, Hz+Hx) and columns [Wz, Wz+Wx), so every
token has a unique (row, col) pair and the two blocks share no row or column
index. Attention biases are learned per head, LeViT-style, and indexed by the
absolute coordinate offsets (|dr|, |dc|) between token pairs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError


@dataclass(frozen=True)
class CoordMap:
    """Per-token (row, col) coordinates for a template+search token sequence.

    Tokens are ordered template-first, each block row-major.
    """

    rows: np.ndarray
    cols: np.ndarray
    template_hw: tuple[int, int]
    search_hw: tuple[int, int]

    @property
    def n_tokens(self) -> int:
        return self.rows.shape[0]

    @property
    def n_template(self) -> int:
        return self.template_hw[0] * self.template_hw[1]


def _block_coords(hw: tuple[int, int], row_off: int, col_off: int):
    h, w = hw
    rr, cc = np.meshgrid(np.arange(h) + row_off, np.arange(w) + col_off, indexing="ij")
    return rr.reshape(-1), cc.reshape(-1)


def assign_dual_coords(template_hw, search_hw) -> CoordMap:
    """Assign diagonal joint coordinates to the template and search token grids."""
    template_hw = (int(template_hw[0]), int(template_hw[1]))
    search_hw = (int(search_hw[0]), int(search_hw[1]))
    if min(template_hw) <= 0 or min(search_hw) <= 0:
        raise ShapeError(f"grid extents must be positive, got {template_hw} and {search_hw}")
    tr, tc = _block_coords(template_hw, 0, 0)
    sr, sc = _block_coords(search_hw, *template_hw)
    return CoordMap(
        rows=np.concatenate([tr, sr]),
        cols=np.concatenate([tc, sc]),
        template_hw=template_hw,
        search_hw=search_hw,
    )


def subsample_coords(coords: CoordMap) -> CoordMap:
    """Coordinates of the 2x2-subsampled grids, as used by Shrink Attention Q.

    Even-index rows and columns of each block keep their pre-subsampling
    coordinates, so offsets against the full grid stay metric.
    """
    hz, wz = coords.template_hw
    hx, wx = coords.search_hw
    if hz % 2 or wz % 2 or hx % 2 or wx % 2:
        raise ShapeError(f"subsampling needs even grid extents, got {coords.template_hw} and {coords.search_hw}")
    rows = coords.rows
    cols = coords.cols
    nz = coords.n_template

    def pick(block_rows, block_cols, h, w):
        rr = block_rows.reshape(h, w)[::2, ::2].reshape(-1)
        cc = block_cols.reshape(h, w)[::2, ::2].reshape(-1)
        return rr, cc

    tr, tc = pick(rows[:nz], cols[:nz], hz, wz)
    sr, sc = pick(rows[nz:], cols[nz:], hx, wx)
    return CoordMap(
        rows=np.concatenate([tr, sr]),
        cols=np.concatenate([tc, sc]),
        template_hw=(hz // 2, wz // 2),
        search_hw=(hx // 2, wx // 2),
    )


def build_bias_index(coords: CoordMap, k_coords: CoordMap | None = None) -> np.ndarray:
    """Index matrix of absolute offsets: entry (i, j) is (|ri-rj|, |ci-cj|).

    With one argument the matrix is square over all tokens. For Shrink
    Attention, pass the subsampled Q coordinates first and the full input
    coordinates as ``k_coords``.
    """
    kc = coords if k_coords is None else k_coords
    dr = np.abs(coords.rows[:, None] - kc.rows[None, :])
    dc = np.abs(coords.cols[:, None] - kc.cols[None, :])
    return np.stack([dr, dc], axis=-1)


def table_shape(coords: CoordMap) -> tuple[int, int]:
    """Minimal bias-table extents for every token pair of this coordinate map."""
    return int(coords.rows.max()) + 1, int(coords.cols.max()) + 1


def gather_bias(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Look up per-head biases: out[h, i, j] = table[h, dr(i,j), dc(i,j)]."""
    dr = index[..., 0]
    dc = index[..., 1]
    if dr.max() >= table.shape[1] or dc.max() >= table.shape[2]:
        raise ShapeError(
            f"bias index exceeds table extents {table.shape[1:]}; the table was sized for a smaller grid"
        )
    return table[:, dr, dc]
