import math

import numpy as np
import pytest

from hitrack import posenc, tensor
from hitrack.attention import (AffineParams, BlockWeights, MhaWeights, MlpWeights,
                               SaWeights, mha_forward, mlp_forward, shrink_attention,
                               transformer_block)
from hitrack.config import TokenLayout
from hitrack.errors import ShapeError


def make_mha(rng, c, n_heads, d, dtype=np.float64):
    def u(shape):
        return rng.uniform(-0.5, 0.5, size=shape).astype(dtype)
    return MhaWeights(
        wq=u((c, n_heads * d)), wk=u((c, n_heads * d)),
        wv=u((c, n_heads * 2 * d)), wo=u((n_heads * 2 * d, c)),
        bias_table=np.zeros((n_heads, 1, 1)),
    )


def zero_bias(n_heads, tq, tk):
    """A position bias that adds nothing: [N, Tq, Tk] zeros."""
    return np.zeros((n_heads, tq, tk))


def naive_mha(tokens, w, bias):
    """Reference implementation: explicit per-head loop on raw numpy."""
    t = tokens.shape[0]
    n_heads = w.bias_table.shape[0]
    d = w.wq.shape[1] // n_heads
    q = tensor.matmul(tokens, w.wq)
    k = tensor.matmul(tokens, w.wk)
    v = tensor.matmul(tokens, w.wv)
    heads = []
    for h in range(n_heads):
        qh = q[:, h * d:(h + 1) * d]
        kh = k[:, h * d:(h + 1) * d]
        vh = v[:, h * 2 * d:(h + 1) * 2 * d]
        scores = tensor.matmul(qh, kh.T) / math.sqrt(d)
        if bias is not None:
            scores = scores + bias[h]
        attn = tensor.softmax_rows(scores)
        assert np.abs(attn.sum(axis=1) - 1.0).max() < 1e-6
        heads.append(tensor.hardswish(tensor.matmul(attn, vh)))
    return tensor.matmul(np.concatenate(heads, axis=1), w.wo)


class TestMhaForward:
    def test_zero_output_projection(self):
        rng = np.random.default_rng(0)
        w = make_mha(rng, c=8, n_heads=2, d=4)
        w.wo = np.zeros_like(w.wo)
        out = mha_forward(rng.standard_normal((6, 8)), w, zero_bias(2, 6, 6))
        assert out.shape == (6, 8)
        assert not out.any()

    def test_zero_q_gives_uniform_attention_closed_form(self):
        rng = np.random.default_rng(1)
        w = make_mha(rng, c=8, n_heads=1, d=4)
        w.wq = np.zeros_like(w.wq)
        x = rng.standard_normal((5, 8))
        out = mha_forward(x, w, zero_bias(1, 5, 5))
        v = tensor.matmul(x, w.wv)
        pooled = tensor.hardswish(v.mean(axis=0, keepdims=True))
        expect = np.repeat(tensor.matmul(pooled, w.wo), 5, axis=0)
        assert np.allclose(out, expect, atol=1e-12)

    def test_matches_naive_oracle_bit_exactly(self):
        rng = np.random.default_rng(2)
        w = make_mha(rng, c=10, n_heads=2, d=5)
        bias = rng.standard_normal((2, 12, 12))
        x = rng.standard_normal((12, 10))
        assert np.array_equal(mha_forward(x, w, bias), naive_mha(x, w, bias))

    def test_float32_matches_per_head_loop(self):
        rng = np.random.default_rng(41)
        w = make_mha(rng, c=24, n_heads=3, d=8, dtype=np.float32)
        bias = rng.standard_normal((3, 40, 40)).astype(np.float32)
        x = rng.standard_normal((40, 24)).astype(np.float32)
        out = mha_forward(x, w, bias)
        assert out.dtype == np.float32
        assert np.array_equal(out, naive_mha(x, w, bias))

    def test_bias_extent_mismatch(self):
        rng = np.random.default_rng(3)
        w = make_mha(rng, c=8, n_heads=1, d=4)
        with pytest.raises(ShapeError):
            mha_forward(rng.standard_normal((6, 8)), w, np.zeros((1, 5, 5)))

    def test_permutation_equivariance_constant_bias(self):
        # general inputs: permuting tokens permutes the accumulation order of
        # the token-sum reductions, so equality is to rounding, not bitwise
        rng = np.random.default_rng(4)
        w = make_mha(rng, c=8, n_heads=2, d=4)
        x = rng.standard_normal((9, 8))
        bias = np.full((2, 9, 9), 0.37)
        perm = rng.permutation(9)
        out = mha_forward(x, w, bias)[perm]
        out_p = mha_forward(x[perm], w, bias)
        assert np.allclose(out, out_p, rtol=1e-12, atol=1e-14)

    def test_permutation_equivariance_bit_exact_when_sums_exact(self):
        # uniform attention over a power-of-two token count with dyadic values:
        # every reduction is exact, so any summation order gives the same bits
        rng = np.random.default_rng(40)
        w = MhaWeights(
            wq=np.zeros((8, 4)),
            wk=rng.integers(-8, 8, (8, 4)) / 16.0,
            wv=rng.integers(-8, 8, (8, 8)) / 16.0,
            wo=rng.integers(-8, 8, (8, 8)) / 16.0,
            bias_table=np.zeros((1, 1, 1)),
        )
        x = rng.integers(-8, 8, (8, 8)) / 8.0
        bias = np.full((1, 8, 8), 0.25)
        perm = rng.permutation(8)
        assert np.array_equal(mha_forward(x, w, bias)[perm], mha_forward(x[perm], w, bias))


LAYOUT = TokenLayout((4, 4), (8, 8))


def make_sa(rng, cin, cout, n_heads, d, dtype=np.float64):
    def u(shape):
        return rng.uniform(-0.5, 0.5, size=shape).astype(dtype)
    return SaWeights(
        affine=AffineParams(np.ones(cin, dtype=dtype), np.zeros(cin, dtype=dtype)),
        wq=u((cin, n_heads * d)), wk=u((cin, n_heads * d)),
        wv=u((cin, n_heads * 4 * d)), wo=u((n_heads * 4 * d, cout)),
        bias_table=np.zeros((n_heads, 1, 1)),
    )


class TestShrinkAttention:
    def test_token_count_divided_by_four(self):
        rng = np.random.default_rng(5)
        w = make_sa(rng, cin=6, cout=10, n_heads=2, d=3)
        out = shrink_attention(rng.standard_normal((80, 6)), LAYOUT, w, zero_bias(2, 20, 80))
        assert out.shape == (20, 10)

    def test_subsampled_positions_are_even_index_grid_points(self):
        # position-marker values: token i carries value i, so Q rows reveal
        # exactly which tokens were kept
        tokens = np.arange(80, dtype=np.float64).reshape(80, 1)
        kept = LAYOUT.subsample(tokens)[:, 0].astype(int)
        tpl = np.arange(16).reshape(4, 4)[::2, ::2].reshape(-1)
        srch = (np.arange(64).reshape(8, 8)[::2, ::2] + 16).reshape(-1)
        assert np.array_equal(kept, np.concatenate([tpl, srch]))

    def test_no_cross_region_mixing_in_q(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((80, 6))
        zeroed = x.copy()
        zeroed[LAYOUT.n_template:] = 0.0
        q_full = LAYOUT.subsample(x)
        q_zeroed = LAYOUT.subsample(zeroed)
        assert np.array_equal(q_full[:4], q_zeroed[:4])  # template Q rows unchanged

    def test_one_hot_template_token_is_isolated_in_q(self):
        x = np.zeros((80, 6))
        x[5, 2] = 1.0  # template token (1, 1), odd indices: dropped from Q
        q = LAYOUT.subsample(x)
        assert not q.any()
        x2 = np.zeros((80, 6))
        x2[10, 2] = 1.0  # template token (2, 2), even: kept at Q row 3
        q2 = LAYOUT.subsample(x2)
        assert q2[3, 2] == 1.0 and q2.sum() == 1.0

    def test_odd_extents_rejected(self):
        rng = np.random.default_rng(7)
        w = make_sa(rng, cin=6, cout=10, n_heads=1, d=3)
        layout = TokenLayout((3, 4), (8, 8))
        with pytest.raises(ShapeError):
            shrink_attention(rng.standard_normal((76, 6)), layout, w, zero_bias(1, 19, 76))

    def test_matches_stepwise_oracle(self):
        rng = np.random.default_rng(8)
        w = make_sa(rng, cin=6, cout=10, n_heads=2, d=3)
        x = rng.standard_normal((80, 6))
        coords = posenc.dual_coords(LAYOUT)
        idx = posenc.bias_index(LAYOUT.subsample(coords), coords)
        table = rng.standard_normal((2,) + posenc.table_shape(coords))
        bias = posenc.gather_bias(table, idx)
        out = shrink_attention(x, LAYOUT, w, bias)
        # stepwise: affine, subsample q, per-head attention, concat, project
        a = x * w.affine.scale + w.affine.shift
        q = tensor.matmul(LAYOUT.subsample(a), w.wq)
        k = tensor.matmul(a, w.wk)
        v = tensor.matmul(a, w.wv)
        heads = []
        for h in range(2):
            qh = q[:, h * 3:(h + 1) * 3]
            kh = k[:, h * 3:(h + 1) * 3]
            vh = v[:, h * 12:(h + 1) * 12]
            s = tensor.matmul(qh, kh.T) / np.sqrt(3) + bias[h]
            heads.append(tensor.hardswish(tensor.matmul(tensor.softmax_rows(s), vh)))
        expect = tensor.matmul(np.concatenate(heads, axis=1), w.wo)
        assert np.array_equal(out, expect)


def stepwise_shrink(x, layout, w, bias):
    """Per-head loop oracle for shrink_attention, in the dtype of its inputs."""
    n_heads = w.bias_table.shape[0]
    d = w.wq.shape[1] // n_heads
    a = x * w.affine.scale + w.affine.shift
    q = tensor.matmul(layout.subsample(a), w.wq)
    k = tensor.matmul(a, w.wk)
    v = tensor.matmul(a, w.wv)
    heads = []
    for h in range(n_heads):
        qh = q[:, h * d:(h + 1) * d]
        kh = k[:, h * d:(h + 1) * d]
        vh = v[:, h * 4 * d:(h + 1) * 4 * d]
        s = tensor.matmul(qh, kh.T) / math.sqrt(d) + bias[h]
        heads.append(tensor.hardswish(tensor.matmul(tensor.softmax_rows(s), vh)))
    return tensor.matmul(np.concatenate(heads, axis=1), w.wo)


class TestShrinkAttentionFloat32:
    def test_matches_per_head_loop(self):
        rng = np.random.default_rng(42)
        w = make_sa(rng, cin=16, cout=24, n_heads=3, d=8, dtype=np.float32)
        x = rng.standard_normal((80, 16)).astype(np.float32)
        coords = posenc.dual_coords(LAYOUT)
        idx = posenc.bias_index(LAYOUT.subsample(coords), coords)
        table = rng.standard_normal((3,) + posenc.table_shape(coords)).astype(np.float32)
        bias = posenc.gather_bias(table, idx)
        out = shrink_attention(x, LAYOUT, w, bias)
        assert out.dtype == np.float32
        assert np.array_equal(out, stepwise_shrink(x, LAYOUT, w, bias))


def make_block(rng, c, n_heads, d, zero=False):
    def u(shape):
        if zero:
            return np.zeros(shape)
        return rng.uniform(-0.4, 0.4, size=shape)
    mha = MhaWeights(u((c, n_heads * d)), u((c, n_heads * d)),
                     u((c, n_heads * 2 * d)), u((n_heads * 2 * d, c)),
                     np.zeros((n_heads, 1, 1)))
    mlp = MlpWeights(u((c, 2 * c)), u(2 * c) if not zero else np.zeros(2 * c),
                     u((2 * c, c)), u(c) if not zero else np.zeros(c))
    scale = np.zeros(c) if zero else np.ones(c)
    return BlockWeights(AffineParams(scale.copy(), np.zeros(c)), mha,
                        AffineParams(scale.copy(), np.zeros(c)), mlp)


class TestTransformerBlock:
    def test_zero_weights_identity(self):
        rng = np.random.default_rng(9)
        bw = make_block(rng, c=6, n_heads=2, d=3, zero=True)
        x = rng.standard_normal((10, 6))
        assert np.array_equal(transformer_block(x, bw, zero_bias(2, 10, 10)), x)

    def test_output_shape_matches_input(self):
        rng = np.random.default_rng(10)
        bw = make_block(rng, c=6, n_heads=2, d=3)
        x = rng.standard_normal((10, 6))
        assert transformer_block(x, bw, zero_bias(2, 10, 10)).shape == x.shape

    def test_matches_stepwise_composition(self):
        rng = np.random.default_rng(11)
        bw = make_block(rng, c=6, n_heads=2, d=3)
        bias = rng.standard_normal((2, 10, 10))
        x = rng.standard_normal((10, 6))
        a = x * bw.attn_affine.scale + bw.attn_affine.shift
        mid = x + mha_forward(a, bw.attn, bias)
        m = mid * bw.mlp_affine.scale + bw.mlp_affine.shift
        expect = mid + mlp_forward(m, bw.mlp)
        assert np.array_equal(transformer_block(x, bw, bias), expect)

    def test_mlp_is_linear_hardswish_linear(self):
        rng = np.random.default_rng(12)
        mlp = MlpWeights(rng.standard_normal((4, 8)), rng.standard_normal(8),
                         rng.standard_normal((8, 4)), rng.standard_normal(4))
        x = rng.standard_normal((3, 4))
        expect = tensor.hardswish(x @ mlp.w1 + mlp.b1) @ mlp.w2 + mlp.b2
        assert np.allclose(mlp_forward(x, mlp), expect, atol=1e-12)
