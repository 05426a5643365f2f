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

Every variant shares one design beyond this schedule: the diagonal
joint-coordinate position encoding with a per-head bias table in every
attention layer (see ``posenc``), and a Bridge Module whose two stride-2
transposed-conv upsamplers have ``BRIDGE_KERNEL`` x ``BRIDGE_KERNEL`` kernels.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DataError, ShapeError
from . import posenc

DTYPES = {"float32": np.float32, "float64": np.float64}
BRIDGE_KERNEL = 4


@dataclass(frozen=True)
class TokenLayout:
    """Spatial layout of a flattened template+search token sequence."""

    template_hw: tuple[int, int]
    search_hw: tuple[int, int]

    @property
    def n_template(self) -> int:
        return self.template_hw[0] * self.template_hw[1]

    @property
    def n_search(self) -> int:
        return self.search_hw[0] * self.search_hw[1]

    @property
    def n_tokens(self) -> int:
        return self.n_template + self.n_search

    def shrink(self) -> "TokenLayout":
        hz, wz = self.template_hw
        hx, wx = self.search_hw
        if hz % 2 or wz % 2 or hx % 2 or wx % 2:
            raise ShapeError(f"cannot shrink odd grid extents {self.template_hw}, {self.search_hw}")
        return TokenLayout((hz // 2, wz // 2), (hx // 2, wx // 2))


@dataclass(frozen=True)
class ModelConfig:
    variant: str = "base"
    template_size: int = 128
    search_size: int = 256
    channels: tuple[int, int, int] = (384, 512, 768)
    heads: tuple[int, int, int] = (6, 9, 12)
    blocks: tuple[int, int, int] = (4, 4, 4)
    key_dim: int = 32
    mlp_ratio: int = 2
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
class StageGeometry:
    layout: TokenLayout
    coords: posenc.CoordMap
    bias_index: np.ndarray = field(repr=False)
    table_shape: tuple[int, int]


@dataclass(frozen=True, eq=False)
class ShrinkGeometry:
    in_layout: TokenLayout
    out_layout: TokenLayout
    q_coords: posenc.CoordMap
    bias_index: np.ndarray = field(repr=False)
    table_shape: tuple[int, int]


@dataclass(frozen=True, eq=False)
class ModelGeometry:
    stages: tuple[StageGeometry, StageGeometry, StageGeometry]
    shrinks: tuple[ShrinkGeometry, ShrinkGeometry]


@lru_cache(maxsize=16)
def geometry(config: ModelConfig) -> ModelGeometry:
    """Precomputed layouts, coordinates and bias-index matrices per stage."""
    stages = []
    shrinks = []
    for stage in range(3):
        layout = config.layout(stage)
        coords = posenc.assign_dual_coords(layout.template_hw, layout.search_hw)
        index = posenc.build_bias_index(coords)
        stages.append(StageGeometry(layout, coords, index, posenc.table_shape(coords)))
    for stage in range(2):
        full = stages[stage]
        q_coords = posenc.subsample_coords(full.coords)
        index = posenc.build_bias_index(q_coords, full.coords)
        shrinks.append(
            ShrinkGeometry(full.layout, stages[stage + 1].layout, q_coords, index, full.table_shape)
        )
    return ModelGeometry(tuple(stages), tuple(shrinks))
