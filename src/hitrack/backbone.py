"""Hierarchical backbone: patch embedding, three stages, per-stage features.

Crops stay in 0-255 pixel units up to the embed, which normalises each one
per channel as ``(x / 255 - mean) / std`` with ImageNet's statistics
(``PIXEL_MEAN`` = 0.485, 0.456, 0.406; ``PIXEL_STD`` = 0.229, 0.224, 0.225),
in the image's own dtype. The template and search images are then embedded
by a shared stack of four stride-2 3x3 convolutions (16x downsampling),
flattened, concatenated template-first and pushed through three stages of
residual blocks joined by Shrink Attention. After stage 1 the search slice
is recorded as the fine-resolution feature map ``s_max`` together with its
mean ``g1``; stages 2 and 3 produce ``s_mid``, ``s_min`` and the final global
vector ``g`` (mean over the stage-3 search tokens).

The forward is split so the dynamic router can stop after stage 1 without
touching the rest of the network: ``stage1_forward`` runs the search embed
and stage 1 on the template's ``embed_template`` grid (computed once per
sequence), and ``continue_forward`` returns stages 2-3's ``(s_mid, s_min, g)``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import posenc
from .attention import shrink_attention, transformer_block
from .config import TokenLayout, geometry
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
    """Everything the early-exit route needs from the shared trunk."""

    tokens: np.ndarray      # [N1, C1] stage-1 output (S1)
    s_max: np.ndarray       # [Hx/16, Wx/16, C1] search slice of S1
    g1: np.ndarray          # [C1] mean over the stage-1 search tokens


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
        x = affine(conv2d(x, conv.kernel, stride=2, padding=1), conv.scale, conv.shift)
        if i != last:
            hardswish(x, out=x)
    return x


def extract_search(tokens: np.ndarray, layout: TokenLayout) -> np.ndarray:
    """Search-region tokens reshaped to their spatial grid."""
    return layout.split(tokens)[1]


def global_vector(tokens: np.ndarray, layout: TokenLayout) -> np.ndarray:
    """Arithmetic mean over the search-region tokens, taken on their [N, C]
    rows so the sum runs in token order."""
    return layout.split(tokens)[1].reshape(layout.n_search, -1).mean(axis=0)


def _layer_bias(attn_weights, index: np.ndarray) -> np.ndarray:
    """Gathered per-head bias for one layer, cached on the weight object.

    Weights are immutable after construction (see the concurrency notes), so
    the gather is a pure function of the layer and can be reused across
    frames.
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


def embed_template(template_img: np.ndarray, params: ModelParams) -> np.ndarray:
    """Template patch-embed grid, computable once per sequence."""
    cfg = params.config
    if template_img.shape[:2] != (cfg.template_size, cfg.template_size):
        raise ShapeError(
            f"template is {template_img.shape[:2]}, config expects {cfg.template_size}x{cfg.template_size}")
    with mac_scope("embed"):
        return patch_embed(np.asarray(template_img, dtype=cfg.np_dtype), params.embed)


def stage1_forward(template_grid: np.ndarray, search_img: np.ndarray,
                   params: ModelParams) -> Stage1State:
    """Search embed and stage 1 on top of the template's ``embed_template`` grid."""
    cfg = params.config
    if search_img.shape[:2] != (cfg.search_size, cfg.search_size):
        raise ShapeError(
            f"search is {search_img.shape[:2]}, config expects {cfg.search_size}x{cfg.search_size}")
    geo = geometry(cfg)
    with mac_scope("embed"):
        srch = patch_embed(np.asarray(search_img, dtype=cfg.np_dtype), params.embed)
    layout1 = geo.stages[0].layout
    tokens = layout1.join(template_grid, srch)
    with mac_scope("stage1"):
        tokens = _run_stage(tokens, params.stages[0], geo.stages[0])
    return Stage1State(
        tokens=tokens,
        s_max=extract_search(tokens, layout1),
        g1=global_vector(tokens, layout1),
    )


def continue_forward(state: Stage1State,
                     params: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stages 2 and 3 (with their shrink layers) on top of a stage-1 state:
    ``(s_mid, s_min, g)``, the search maps of stages 2 and 3 and the mean over
    the stage-3 search tokens."""
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
    s_mid = extract_search(tokens, geo.stages[1].layout)
    with mac_scope("sa2"):
        tokens = shrink(1, tokens)
    with mac_scope("stage3"):
        tokens = _run_stage(tokens, params.stages[2], geo.stages[2])
    layout3 = geo.stages[2].layout
    return s_mid, extract_search(tokens, layout3), global_vector(tokens, layout3)
