"""Model configuration, token layouts and static geometry.

The four built-in variants mirror a LeViT-style channel/head schedule:

=======  ==============  ============  =======  ================
variant  channels        heads         key dim  template/search
=======  ==============  ============  =======  ================
base     384, 512, 768   6, 9, 12      32       128 / 256
small    128, 256, 384   4, 6, 8       16       128 / 256
tiny     128, 256, 384   2, 3, 4       16       128 / 256
toy      32, 48, 64      2, 3, 4       8        64 / 128
=======  ==============  ============  =======  ================

Input sizes must be divisible by 64: patch embedding downsamples 16x and the
two Shrink Attention layers each halve the grids, so anything smaller leaves
a stage with odd or empty grids.

Every variant shares one design beyond this schedule: ``STAGE_BLOCKS``
residual blocks per stage with ``MLP_RATIO``-wide MLPs, the diagonal
joint-coordinate position encoding with a per-head bias table in every
attention layer (see ``posenc``), and a Bridge Module whose two stride-2
transposed-conv upsamplers have ``BRIDGE_KERNEL`` x ``BRIDGE_KERNEL`` kernels.

``TokenLayout`` fixes the order of the joint token sequence (template first,
each grid row-major) and owns the slicing, joining and 2x2 subsampling built
on it;
``geometry`` derives every attention layer's bias index from it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DataError, ShapeError
from . import posenc

DTYPES = {"float32": np.float32, "float64": np.float64}
BRIDGE_KERNEL = 4
STAGE_BLOCKS = (4, 4, 4)
MLP_RATIO = 2


@dataclass(frozen=True)
class TokenLayout:
    """The order of a flattened template+search token sequence.

    Tokens run template first, then search, each grid row-major. This class
    is the only place that order is written down: ``split`` views a token
    array as its two grids, ``join`` is its inverse, and ``subsample`` is
    Shrink Attention's one even-index 2x2 rule. Token features, coordinates
    and any other per-token array go through these methods.
    """

    template_hw: tuple[int, int]
    search_hw: tuple[int, int]

    def __post_init__(self):
        if min(self.template_hw) <= 0 or min(self.search_hw) <= 0:
            raise ShapeError(f"grid extents must be positive, got {self.template_hw} and {self.search_hw}")

    @property
    def n_template(self) -> int:
        return self.template_hw[0] * self.template_hw[1]

    @property
    def n_search(self) -> int:
        return self.search_hw[0] * self.search_hw[1]

    @property
    def n_tokens(self) -> int:
        return self.n_template + self.n_search

    def split(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Views of a [T, ...] array as its template [Hz, Wz, ...] and search
        [Hx, Wx, ...] grids."""
        if rows.shape[0] != self.n_tokens:
            raise ShapeError(f"{rows.shape[0]} tokens do not fit layout {self}")
        rest = rows.shape[1:]
        nz = self.n_template
        return rows[:nz].reshape(self.template_hw + rest), rows[nz:].reshape(self.search_hw + rest)

    def join(self, template: np.ndarray, search: np.ndarray) -> np.ndarray:
        """The inverse of ``split``: [Hz, Wz, ...] and [Hx, Wx, ...] grids to
        one new [T, ...] array."""
        if template.shape[:2] != self.template_hw or search.shape[:2] != self.search_hw:
            raise ShapeError(f"grids {template.shape[:2]}, {search.shape[:2]} do not fit layout {self}")
        rest = template.shape[2:]
        return np.concatenate([template.reshape((-1,) + rest), search.reshape((-1,) + rest)], axis=0)

    def shrink(self) -> "TokenLayout":
        """The layout ``subsample`` produces: both grids halved per axis."""
        hz, wz = self.template_hw
        hx, wx = self.search_hw
        if hz % 2 or wz % 2 or hx % 2 or wx % 2:
            raise ShapeError(f"cannot shrink odd grid extents {self.template_hw}, {self.search_hw}")
        return TokenLayout((hz // 2, wz // 2), (hx // 2, wx // 2))

    def subsample(self, rows: np.ndarray) -> np.ndarray:
        """Even-index rows and columns of each grid, in this order: [T, ...] ->
        [T/4, ...]. Template rows never read search rows and vice versa."""
        tpl, srch = self.split(rows)
        return self.shrink().join(tpl[::2, ::2], srch[::2, ::2])


@dataclass(frozen=True)
class ModelConfig:
    variant: str = "base"
    template_size: int = 128
    search_size: int = 256
    channels: tuple[int, int, int] = (384, 512, 768)
    heads: tuple[int, int, int] = (6, 9, 12)
    key_dim: int = 32
    router_hidden: tuple[int, int] = (96, 32)
    tau_fg: float = 0.6
    classify_every_n: int = 1
    dtype: str = "float32"

    def __post_init__(self):
        c1, c2, c3 = self.channels
        if not (c1 < c2 < c3):
            raise ShapeError(f"stage channels must increase, got {self.channels}")
        for size in (self.template_size, self.search_size):
            if size % 64:
                raise ShapeError(f"input sizes must be divisible by 64, got {size}")
        if self.dtype not in DTYPES:
            raise ShapeError(f"unknown dtype {self.dtype!r}")
        if c1 % 8:
            raise ShapeError(f"C1 must be divisible by 8 for the embed/head channel ramps, got {c1}")
        if self.classify_every_n < 1:
            raise DataError(f"classify_every_n must be >= 1, got {self.classify_every_n}")
        if not 0.0 <= self.tau_fg <= 1.0:
            raise DataError(f"tau_fg must be in [0, 1], got {self.tau_fg}")

    @property
    def np_dtype(self):
        return DTYPES[self.dtype]

    @property
    def embed_channels(self) -> tuple[int, int, int, int]:
        c1 = self.channels[0]
        return (c1 // 8, c1 // 4, c1 // 2, c1)

    @property
    def head_channels(self) -> tuple[int, ...]:
        c1 = self.channels[0]
        return (c1, c1 // 2, c1 // 4, c1 // 8, 1)

    def layout(self, stage: int) -> TokenLayout:
        base = TokenLayout(
            (self.template_size // 16, self.template_size // 16),
            (self.search_size // 16, self.search_size // 16),
        )
        for _ in range(stage):
            base = base.shrink()
        return base


VARIANTS: dict[str, dict] = {
    "base": dict(channels=(384, 512, 768), heads=(6, 9, 12), key_dim=32,
                 template_size=128, search_size=256, router_hidden=(96, 32)),
    "small": dict(channels=(128, 256, 384), heads=(4, 6, 8), key_dim=16,
                  template_size=128, search_size=256, router_hidden=(96, 32)),
    "tiny": dict(channels=(128, 256, 384), heads=(2, 3, 4), key_dim=16,
                 template_size=128, search_size=256, router_hidden=(96, 32)),
    "toy": dict(channels=(32, 48, 64), heads=(2, 3, 4), key_dim=8,
                template_size=64, search_size=128, router_hidden=(16, 8)),
}


def make_config(variant: str = "base", **overrides) -> ModelConfig:
    if variant not in VARIANTS:
        raise ShapeError(f"unknown variant {variant!r}, expected one of {sorted(VARIANTS)}")
    kwargs = dict(VARIANTS[variant])
    kwargs.update(overrides)
    return ModelConfig(variant=variant, **kwargs)


@dataclass(frozen=True, eq=False)
class AttentionGeometry:
    """One attention layer's static geometry.

    ``layout`` orders the layer's keys (its input tokens); a Shrink Attention
    layer's queries are ``layout.subsample`` of them. ``bias_index`` is the
    [Tq, Tk, 2] offset matrix into a bias table of ``table_shape``.
    """

    layout: TokenLayout
    bias_index: np.ndarray = field(repr=False)
    table_shape: tuple[int, int]


@dataclass(frozen=True, eq=False)
class ModelGeometry:
    stages: tuple[AttentionGeometry, AttentionGeometry, AttentionGeometry]
    shrinks: tuple[AttentionGeometry, AttentionGeometry]


@lru_cache(maxsize=16)
def geometry(config: ModelConfig) -> ModelGeometry:
    """Layouts, bias-index matrices and table extents of every attention layer.

    Shrink layer ``s`` reads stage ``s``'s tokens as keys and writes stage
    ``s + 1``'s; it shares stage ``s``'s coordinates and table extents.
    """
    stages = []
    shrinks = []
    for stage in range(3):
        layout = config.layout(stage)
        coords = posenc.dual_coords(layout)
        shape = posenc.table_shape(coords)
        stages.append(AttentionGeometry(layout, posenc.bias_index(coords, coords), shape))
        if stage < 2:
            q_coords = layout.subsample(coords)
            shrinks.append(AttentionGeometry(layout, posenc.bias_index(q_coords, coords), shape))
    return ModelGeometry(tuple(stages), tuple(shrinks))
