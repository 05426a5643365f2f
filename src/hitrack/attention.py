"""Multi-Head Attention, Shrink Attention and the residual transformer block.

MHA follows the halved-key design: per head, Q and K project to ``key_dim``
channels while V projects to ``2 * key_dim``. Attention logits are scaled dot
products plus a per-head learned bias gathered from the position-encoding
table; hardswish is applied to every head's attention output before the heads
are concatenated and projected back to the token width.

Shrink Attention reduces the token count 4x: queries come from the template
and search grids independently subsampled 2x in each spatial direction (the
two regions are never mixed by the subsampling), keys and values see all
input tokens, V channels are doubled again (4 * key_dim per head) and the
output projection widens the channels for the next stage. There is no
residual across it since the token count changes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import TokenLayout
from .errors import ShapeError
from .tensor import affine, hardswish, linear, matmul, softmax_rows


@dataclass(eq=False)
class AffineParams:
    scale: np.ndarray
    shift: np.ndarray


@dataclass(eq=False)
class MhaWeights:
    """Projections for one attention layer plus its bias table.

    wq, wk: [C, N*D]; wv: [C, N*2D]; wo: [N*2D, C].
    ``bias_table`` is [N, rows, cols] or None when running with absolute
    position embeddings.
    """

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    bias_table: np.ndarray | None
    n_heads: int = 1
    key_dim: int = 16


@dataclass(eq=False)
class SaWeights:
    """Shrink Attention weights: V is 4*D per head and wo maps to C_out > C."""

    affine: AffineParams
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    bias_table: np.ndarray | None
    n_heads: int = 1
    key_dim: int = 16


@dataclass(eq=False)
class MlpWeights:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass(eq=False)
class BlockWeights:
    attn_affine: AffineParams
    attn: MhaWeights
    mlp_affine: AffineParams
    mlp: MlpWeights


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, bias, n_heads: int,
            key_dim: int, val_dim: int) -> np.ndarray:
    """Per-head scaled dot-product attention with bias, hardswish per head."""
    heads = []
    scale = math.sqrt(key_dim)
    for h in range(n_heads):
        qh = q[:, h * key_dim:(h + 1) * key_dim]
        kh = k[:, h * key_dim:(h + 1) * key_dim]
        vh = v[:, h * val_dim:(h + 1) * val_dim]
        scores = matmul(qh, kh.T) / scale
        if bias is not None:
            scores = scores + bias[h]
        heads.append(hardswish(matmul(softmax_rows(scores), vh)))
    return np.concatenate(heads, axis=1)


def mha_forward(tokens: np.ndarray, w: MhaWeights, bias: np.ndarray | None) -> np.ndarray:
    """Multi-head attention over a [T, C] token matrix; output is [T, C]."""
    n = tokens.shape[0]
    if bias is not None and bias.shape[-2:] != (n, n):
        raise ShapeError(f"bias extents {bias.shape[-2:]} do not match {n} tokens")
    q = matmul(tokens, w.wq)
    k = matmul(tokens, w.wk)
    v = matmul(tokens, w.wv)
    mixed = _attend(q, k, v, bias, w.n_heads, w.key_dim, 2 * w.key_dim)
    return matmul(mixed, w.wo)


def subsample_tokens(tokens: np.ndarray, layout: TokenLayout) -> np.ndarray:
    """Even-index 2x2 subsampling of each region, re-concatenated.

    Template rows never read search tokens and vice versa.
    """
    hz, wz = layout.template_hw
    hx, wx = layout.search_hw
    if hz % 2 or wz % 2 or hx % 2 or wx % 2:
        raise ShapeError(f"shrink attention needs even grid extents, got {layout}")
    if tokens.shape[0] != layout.n_tokens:
        raise ShapeError(f"{tokens.shape[0]} tokens do not fit layout {layout}")
    c = tokens.shape[1]
    tpl = tokens[:layout.n_template].reshape(hz, wz, c)[::2, ::2].reshape(-1, c)
    srch = tokens[layout.n_template:].reshape(hx, wx, c)[::2, ::2].reshape(-1, c)
    return np.concatenate([tpl, srch], axis=0)


def shrink_attention(tokens: np.ndarray, layout: TokenLayout, w: SaWeights,
                     bias: np.ndarray | None) -> np.ndarray:
    """Downsampling attention: [T, C] -> [T/4, C_out]."""
    x = affine(tokens, w.affine.scale, w.affine.shift)
    q_in = subsample_tokens(x, layout)
    q = matmul(q_in, w.wq)
    k = matmul(x, w.wk)
    v = matmul(x, w.wv)
    mixed = _attend(q, k, v, bias, w.n_heads, w.key_dim, 4 * w.key_dim)
    return matmul(mixed, w.wo)


def mlp_forward(tokens: np.ndarray, w: MlpWeights) -> np.ndarray:
    return linear(hardswish(linear(tokens, w.w1, w.b1)), w.w2, w.b2)


def transformer_block(tokens: np.ndarray, bw: BlockWeights, bias: np.ndarray | None) -> np.ndarray:
    """Residual block: x + MHA(affine(x)), then y + MLP(affine(y))."""
    x = tokens + mha_forward(affine(tokens, bw.attn_affine.scale, bw.attn_affine.shift), bw.attn, bias)
    return x + mlp_forward(affine(x, bw.mlp_affine.scale, bw.mlp_affine.shift), bw.mlp)
