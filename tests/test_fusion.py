import numpy as np
import pytest

from hitrack import tensor
from hitrack.fusion import (bridge, box_from_heatmaps, corner_head, soft_argmax)
from hitrack.errors import NumericError, ShapeError
from hitrack.weights import BridgeWeights, ConvBias, CornerHeadWeights


def make_bridge(rng, c=(4, 6, 8), k=4, zero=False):
    c1, c2, c3 = c
    shape1 = (k, k, c3, c2)
    shape2 = (k, k, c2, c1)
    if zero:
        return BridgeWeights(np.zeros(shape1), np.zeros(shape2))
    return BridgeWeights(rng.standard_normal(shape1), rng.standard_normal(shape2))


class TestBridge:
    def test_zero_kernels_identity(self):
        rng = np.random.default_rng(0)
        s_max = rng.standard_normal((8, 8, 4))
        s_mid = rng.standard_normal((4, 4, 6))
        s_min = rng.standard_normal((2, 2, 8))
        out = bridge(s_max, s_mid, s_min, make_bridge(rng, zero=True))
        assert np.array_equal(out, s_max)

    def test_matches_stepwise_composition(self):
        rng = np.random.default_rng(1)
        w = make_bridge(rng)
        s_max = rng.standard_normal((8, 8, 4))
        s_mid = rng.standard_normal((4, 4, 6))
        s_min = rng.standard_normal((2, 2, 8))
        out = bridge(s_max, s_mid, s_min, w)
        step1 = s_mid + tensor.conv_transpose2d(s_min, w.up1)
        step2 = s_max + tensor.conv_transpose2d(step1, w.up2)
        assert np.array_equal(out, step2)

    def test_toy_shape_chain_1_2_4(self):
        rng = np.random.default_rng(2)
        w = make_bridge(rng)
        s_max = rng.standard_normal((4, 4, 4))
        s_mid = rng.standard_normal((2, 2, 6))
        s_min = rng.standard_normal((1, 1, 8))
        out = bridge(s_max, s_mid, s_min, w)
        assert out.shape == (4, 4, 4)

    def test_kernel2_variant(self):
        rng = np.random.default_rng(3)
        w = make_bridge(rng, k=2)
        s_max = rng.standard_normal((8, 8, 4))
        s_mid = rng.standard_normal((4, 4, 6))
        s_min = rng.standard_normal((2, 2, 8))
        step1 = s_mid + tensor.conv_transpose2d(s_min, w.up1)
        expect = s_max + tensor.conv_transpose2d(step1, w.up2)
        assert np.array_equal(bridge(s_max, s_mid, s_min, w), expect)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(4)
        w = make_bridge(rng)
        with pytest.raises(ShapeError):
            bridge(rng.standard_normal((8, 8, 4)), rng.standard_normal((4, 4, 5)),
                   rng.standard_normal((2, 2, 8)), w)


class TestSoftArgmax:
    def test_uniform_map_centers(self):
        x, y = soft_argmax(np.full((4, 4), 1.0 / 16.0))
        assert np.isclose(x, 0.5) and np.isclose(y, 0.5)

    def test_one_hot_corner(self):
        heat = np.zeros((4, 4))
        heat[0, 0] = 1.0
        x, y = soft_argmax(heat)
        assert np.isclose(x, 0.125) and np.isclose(y, 0.125)

    def test_matches_naive_expectation(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((5, 7))
        heat = np.exp(logits)
        heat /= heat.sum()
        x, y = soft_argmax(heat)
        ex = sum(heat[r, c] * (c + 0.5) / 7 for r in range(5) for c in range(7))
        ey = sum(heat[r, c] * (r + 0.5) / 5 for r in range(5) for c in range(7))
        assert np.isclose(x, ex, atol=1e-12) and np.isclose(y, ey, atol=1e-12)

    def test_renormalizes_with_warning(self):
        with pytest.warns(UserWarning):
            x, y = soft_argmax(np.full((2, 2), 1.0))
        assert np.isclose(x, 0.5) and np.isclose(y, 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sum_raises(self, bad):
        heat = np.full((2, 2), 0.25)
        heat[1, 0] = bad
        with pytest.raises(NumericError):
            soft_argmax(heat)


def make_head(rng, c1=8, cg=None, zero_logits=False):
    chain = (c1, c1 // 2, c1 // 4, c1 // 8, 1)
    def branch():
        convs = []
        for cin, cout in zip(chain[:-1], chain[1:]):
            k = np.zeros((3, 3, cin, cout)) if zero_logits else rng.uniform(-0.3, 0.3, (3, 3, cin, cout))
            convs.append(ConvBias(k, np.zeros(cout)))
        return convs
    proj = rng.uniform(-0.3, 0.3, (cg, c1)) if cg else None
    return CornerHeadWeights(proj, branch(), branch())


class TestCornerHead:
    def test_uniform_logits_center_box(self):
        rng = np.random.default_rng(6)
        w = make_head(rng, zero_logits=True)
        o_s = rng.standard_normal((4, 4, 8))
        g = rng.standard_normal(8)
        pred = corner_head(o_s, g, w)
        assert np.allclose(pred.corners, (0.5, 0.5, 0.5, 0.5), atol=1e-12)
        assert np.allclose(pred.tl_heatmap, 1.0 / 16.0)

    def test_one_hot_heatmaps_box(self):
        h, w = 4, 4
        tl = np.zeros((h, w)); tl[0, 0] = 1.0
        br = np.zeros((h, w)); br[h - 1, w - 1] = 1.0
        pred = box_from_heatmaps(tl, br)
        assert np.allclose(pred.corners, (0.5 / w, 0.5 / h, (w - 0.5) / w, (h - 0.5) / h))

    def test_matches_stepwise_oracle(self):
        rng = np.random.default_rng(7)
        w = make_head(rng, cg=12)
        o_s = rng.standard_normal((4, 4, 8))
        g = rng.standard_normal(12)
        pred = corner_head(o_s, g, w)
        # stepwise: project g, similarity softmax, re-weight, branches, softmax
        gv = tensor.matmul(g.reshape(1, 12), w.proj)
        flat = o_s.reshape(16, 8)
        sim = tensor.matmul(flat, gv.T) / np.sqrt(8)
        attn = tensor.softmax_rows(sim.reshape(1, 16)).reshape(16, 1)
        assert abs(attn.sum() - 1.0) < 1e-6
        weighted = (flat * attn).reshape(4, 4, 8)
        def run_branch(branch):
            x = weighted
            for i, cb in enumerate(branch):
                x = tensor.conv2d(x, cb.kernel) + cb.bias
                if i != len(branch) - 1:
                    x = tensor.hardswish(x)
            return tensor.softmax_rows(x[:, :, 0].reshape(1, 16)).reshape(4, 4)
        tl = run_branch(w.tl)
        br = run_branch(w.br)
        assert np.array_equal(pred.tl_heatmap, tl)
        assert np.array_equal(pred.br_heatmap, br)
        ex1, ey1 = soft_argmax(tl)
        assert pred.corners[0] == ex1 and pred.corners[1] == ey1
        ex2, ey2 = soft_argmax(br)
        assert pred.corners[2] == ex2 and pred.corners[3] == ey2

    def test_corners_always_in_unit_interval(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            w = make_head(rng, cg=12)
            o_s = rng.standard_normal((4, 4, 8)) * 10.0
            g = rng.standard_normal(12) * 10.0
            pred = corner_head(o_s, g, w)
            assert all(0.0 <= c <= 1.0 for c in pred.corners)

    def test_heatmaps_sum_to_one(self):
        rng = np.random.default_rng(9)
        w = make_head(rng, cg=12)
        pred = corner_head(rng.standard_normal((4, 4, 8)), rng.standard_normal(12), w)
        assert abs(pred.tl_heatmap.sum() - 1.0) < 1e-6
        assert abs(pred.br_heatmap.sum() - 1.0) < 1e-6

    def test_projection_mismatch(self):
        rng = np.random.default_rng(10)
        w = make_head(rng, cg=None)  # identity projection
        with pytest.raises(ShapeError):
            corner_head(rng.standard_normal((4, 4, 8)), rng.standard_normal(12), w)
