"""Multi-Head Attention, Shrink Attention and the residual transformer block.

MHA follows the halved-key design: per head, Q and K project to ``key_dim``
channels while V projects to ``config.MHA_VALUE_RATIO * key_dim``. Attention
logits are scaled dot products plus a per-head learned position bias: every
layer takes one, a C-contiguous [N, Tq, Tk] array that ``posenc.gather_bias``
gathers from the layer's table. Hardswish is applied to every head's
attention output before the heads are concatenated and projected back to
the token width.

Shrink Attention reduces the token count 4x: queries are the input tokens
subsampled by ``TokenLayout.subsample`` (each grid's even-index rows and
columns; the two regions are never mixed), keys and values see all input
tokens, V is ``config.SHRINK_VALUE_RATIO * key_dim`` wide per head and the
output projection widens the channels for the next stage. There is no
residual across it since the token count changes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import TokenLayout
from .errors import ShapeError
from .tensor import add_into, affine, hardswish, linear, matmul, softmax_rows


@dataclass(eq=False)
class AffineParams:
    scale: np.ndarray
    shift: np.ndarray


@dataclass(eq=False)
class MhaWeights:
    """Projections for one attention layer plus its bias table.

    wq, wk: [C, N*D]; wv: [C, N*V]; wo: [N*V, C], with V =
    ``MHA_VALUE_RATIO * D`` (``weights._build_params`` draws all four).
    ``bias_table`` is the layer's [N, rows, cols] position-bias table; the
    backbone gathers it into the [N, T, T] ``bias`` that ``mha_forward`` adds
    to the scores. The head count N is ``bias_table``'s first extent and the
    key width D is ``wq``'s width over N.
    """

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    bias_table: np.ndarray


@dataclass(eq=False)
class SaWeights:
    """Shrink Attention weights: the projections of ``MhaWeights`` with V =
    ``SHRINK_VALUE_RATIO * D`` per head, and wo mapping to C_out > C.

    As in ``MhaWeights``, N is ``bias_table``'s first extent and D is
    ``wq``'s width over N.
    """

    affine: AffineParams
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    bias_table: np.ndarray


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


def _attend(q_in: np.ndarray, kv_in: np.ndarray, w: MhaWeights | SaWeights, bias: np.ndarray) -> np.ndarray:
    """Project, attend with all heads at once, and project back.

    Q, K and V are viewed as [N, T, D] head stacks, so the scores and the
    weighted values are one stacked product each; ``bias`` is [N, Tq, Tk].
    """
    n = w.bias_table.shape[0]
    d = w.wq.shape[1] // n
    tq, tk = q_in.shape[0], kv_in.shape[0]
    q = matmul(q_in, w.wq).reshape(tq, n, d).transpose(1, 0, 2)
    k = matmul(kv_in, w.wk).reshape(tk, n, d).transpose(1, 2, 0)
    v = matmul(kv_in, w.wv).reshape(tk, n, -1).transpose(1, 0, 2)
    scores = matmul(q, k)
    scores /= math.sqrt(d)
    scores = add_into(scores, bias)
    heads = matmul(softmax_rows(scores, out=scores), v)
    hardswish(heads, out=heads)
    return matmul(heads.transpose(1, 0, 2).reshape(tq, -1), w.wo)


def mha_forward(tokens: np.ndarray, w: MhaWeights, bias: np.ndarray) -> np.ndarray:
    """Multi-head attention over a [T, C] token matrix; output is [T, C]."""
    n = tokens.shape[0]
    if bias.shape[-2:] != (n, n):
        raise ShapeError(f"bias extents {bias.shape[-2:]} do not match {n} tokens")
    return _attend(tokens, tokens, w, bias)


def shrink_attention(tokens: np.ndarray, layout: TokenLayout, w: SaWeights,
                     bias: np.ndarray) -> np.ndarray:
    """Downsampling attention: [T, C] -> [T/4, C_out]."""
    x = affine(tokens, w.affine.scale, w.affine.shift)
    return _attend(layout.subsample(x), x, w, bias)


def mlp_forward(tokens: np.ndarray, w: MlpWeights) -> np.ndarray:
    hidden = linear(tokens, w.w1, w.b1)
    return linear(hardswish(hidden, out=hidden), w.w2, w.b2)


def transformer_block(tokens: np.ndarray, bw: BlockWeights, bias: np.ndarray) -> np.ndarray:
    """Residual block: x + MHA(affine(x)), then y + MLP(affine(y)).

    Each residual is added into the fresh branch output.
    """
    x = add_into(mha_forward(affine(tokens, bw.attn_affine.scale, bw.attn_affine.shift), bw.attn, bias),
                 tokens)
    return add_into(mlp_forward(affine(x, bw.mlp_affine.scale, bw.mlp_affine.shift), bw.mlp), x)
