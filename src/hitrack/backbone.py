"""Hierarchical backbone: patch embedding, three stages, per-stage features.

Crops stay in 0-255 pixel units up to the embed, which normalises each one
per channel as ``(x / 255 - mean) / std`` with ImageNet's statistics
(``PIXEL_MEAN`` = 0.485, 0.456, 0.406; ``PIXEL_STD`` = 0.229, 0.224, 0.225),
in the image's own dtype. The template and search images are then embedded
by a shared stack of four stride-2 3x3 convolutions (16x downsampling),
flattened, concatenated template-first and pushed through three stages of
residual blocks joined by Shrink Attention. Each stage's search grid is read
through ``TokenLayout.split``: stage 1 gives the fine-resolution feature map
``s_max``, stages 2 and 3 give ``s_mid`` and ``s_min``. A head's global
vector is ``global_vector`` of a search grid, the mean of its tokens: Head 1
takes it of ``s_max``, Head 2 of ``s_min``.

The forward is split so the dynamic router can stop after stage 1 without
touching the rest of the network: ``stage1_forward`` runs the search embed
and stage 1 on the template's ``embed_template`` grid (computed once per
sequence), and ``continue_forward`` returns stages 2-3's ``(s_mid, s_min)``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import posenc
from .attention import shrink_attention, transformer_block
from .config import geometry
from .errors import ShapeError
from .tensor import affine, conv2d, hardswish, mac_scope
from .weights import EmbedWeights, ModelParams

# ImageNet channel statistics of 0-1 images, as HiT and LeViT normalise them.
PIXEL_MEAN = (0.485, 0.456, 0.406)
PIXEL_STD = (0.229, 0.224, 0.225)
# (x / 255 - mean) / std as one scale and shift on 0-255 pixels.
_PIXEL_SCALE = 1.0 / (255.0 * np.array(PIXEL_STD))
_PIXEL_SHIFT = -np.array(PIXEL_MEAN) / np.array(PIXEL_STD)


@dataclass(eq=False)
class Stage1State:
    """Everything the early-exit route needs from the shared trunk; Head 1's
    global vector is ``global_vector(s_max)``."""

    tokens: np.ndarray      # [N1, C1] stage-1 output (S1)
    s_max: np.ndarray       # [Hx/16, Wx/16, C1] search slice of S1


def patch_embed(image: np.ndarray, ew: EmbedWeights) -> np.ndarray:
    """Normalise a 0-255 HxWx3 image, then four stacked stride-2 convolutions
    with hardswish between: 16x down.

    The normalisation runs in the image's dtype (float32 stays float32), so
    template and search, float32 and float64 all see the same map.
    """
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ShapeError(f"patch_embed expects an HxWx3 image, got {image.shape}")
    if image.shape[0] % 16 or image.shape[1] % 16:
        raise ShapeError(f"image extents must be divisible by 16, got {image.shape[:2]}")
    dt = np.result_type(image.dtype, np.float32)
    x = affine(image, _PIXEL_SCALE.astype(dt), _PIXEL_SHIFT.astype(dt))
    last = len(ew.convs) - 1
    for i, conv in enumerate(ew.convs):
        x = affine(conv2d(x, conv.kernel, stride=2), conv.scale, conv.shift)
        if i != last:
            hardswish(x, out=x)
    return x


def global_vector(grid: np.ndarray) -> np.ndarray:
    """A head's global vector: the mean over a [H, W, C] search grid's tokens,
    taken on its [H*W, C] rows so the sum runs in token order."""
    return grid.reshape(-1, grid.shape[-1]).mean(axis=0)


def _layer_bias(attn_weights, index: np.ndarray) -> np.ndarray:
    """The layer's contiguous [N, Tq, Tk] bias, cached on the weight object.

    The cache holds because no bias table is written after the tree's first
    forward: ``init_weights`` and ``load_weights`` fill every table before
    any forward runs, so the gather is a pure function of the layer and is
    reused across frames.
    """
    cached = getattr(attn_weights, "_bias_cache", None)
    if cached is None:
        cached = posenc.gather_bias(attn_weights.bias_table, index)
        attn_weights._bias_cache = cached
    return cached


def _run_stage(tokens: np.ndarray, blocks, stage_geo) -> np.ndarray:
    for bw in blocks:
        tokens = transformer_block(tokens, bw, _layer_bias(bw.attn, stage_geo.bias_index))
    return tokens


def _embed(image: np.ndarray, size: int, what: str, params: ModelParams) -> np.ndarray:
    """Patch-embed grid of a ``size``-square image in the config dtype."""
    if image.shape[:2] != (size, size):
        raise ShapeError(f"{what} is {image.shape[:2]}, config expects {size}x{size}")
    with mac_scope("embed"):
        return patch_embed(np.asarray(image, dtype=params.config.np_dtype), params.embed)


def embed_template(template_img: np.ndarray, params: ModelParams) -> np.ndarray:
    """Template patch-embed grid, computable once per sequence."""
    return _embed(template_img, params.config.template_size, "template", params)


def stage1_forward(template_grid: np.ndarray, search_img: np.ndarray,
                   params: ModelParams) -> Stage1State:
    """Search embed and stage 1 on top of the template's ``embed_template`` grid."""
    srch = _embed(search_img, params.config.search_size, "search", params)
    geo = geometry(params.config)
    layout1 = geo.stages[0].layout
    tokens = layout1.join(template_grid, srch)
    with mac_scope("stage1"):
        tokens = _run_stage(tokens, params.stages[0], geo.stages[0])
    return Stage1State(tokens=tokens, s_max=layout1.split(tokens)[1])


def continue_forward(state: Stage1State, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Stages 2 and 3 (with their shrink layers) on top of a stage-1 state:
    ``(s_mid, s_min)``, the search grids of stages 2 and 3."""
    geo = geometry(params.config)
    tokens = state.tokens

    def shrink(idx, tokens):
        sw = params.shrinks[idx]
        sg = geo.shrinks[idx]
        return shrink_attention(tokens, sg.layout, sw, _layer_bias(sw, sg.bias_index))

    with mac_scope("sa1"):
        tokens = shrink(0, tokens)
    with mac_scope("stage2"):
        tokens = _run_stage(tokens, params.stages[1], geo.stages[1])
    s_mid = geo.stages[1].layout.split(tokens)[1]
    with mac_scope("sa2"):
        tokens = shrink(1, tokens)
    with mac_scope("stage3"):
        tokens = _run_stage(tokens, params.stages[2], geo.stages[2])
    return s_mid, geo.stages[2].layout.split(tokens)[1]
