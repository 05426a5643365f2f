from types import SimpleNamespace

import numpy as np
import pytest

from hitrack import backbone, make_config, tensor
from hitrack.backbone import (PIXEL_MEAN, PIXEL_STD, continue_forward, embed_template,
                              extract_search, global_vector, patch_embed, stage1_forward)
from hitrack.config import TokenLayout, geometry
from hitrack.errors import ShapeError
from hitrack.weights import init_weights, zero_weights


class TestPatchEmbed:
    def test_template_grid_128(self, toy_params):
        rng = np.random.default_rng(0)
        out = patch_embed(rng.uniform(0, 255, (128, 128, 3)).astype(np.float32), toy_params.embed)
        assert out.shape == (8, 8, 32)

    def test_search_grid_256(self, toy_params):
        rng = np.random.default_rng(1)
        out = patch_embed(rng.uniform(0, 255, (256, 256, 3)).astype(np.float32), toy_params.embed)
        assert out.shape == (16, 16, 32)

    def test_toy_grid_64(self, toy_params):
        rng = np.random.default_rng(2)
        out = patch_embed(rng.uniform(0, 255, (64, 64, 3)).astype(np.float32), toy_params.embed)
        assert out.shape == (4, 4, 32)

    def test_indivisible_extents_rejected(self, toy_params):
        with pytest.raises(ShapeError):
            patch_embed(np.zeros((60, 64, 3), dtype=np.float32), toy_params.embed)


class TestPixelNormalisation:
    @pytest.fixture()
    def conv_inputs(self, monkeypatch):
        seen = []

        def conv_spy(x, kernel, **kwargs):
            seen.append(x)
            return tensor.conv2d(x, kernel, **kwargs)

        monkeypatch.setattr(backbone, "conv2d", conv_spy)
        return seen

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_embed_stays_in_image_dtype(self, conv_inputs, dtype):
        # no float64 upcast of a float32 image, no downcast of a float64 one
        params = init_weights(make_config("toy", dtype=dtype), seed=7)
        rng = np.random.default_rng(4)
        out = patch_embed(rng.uniform(0, 255, (64, 64, 3)).astype(dtype), params.embed)
        assert len(conv_inputs) == len(params.embed.convs)
        assert all(x.dtype == np.dtype(dtype) for x in conv_inputs)
        assert out.dtype == np.dtype(dtype)

    def test_first_conv_sees_imagenet_normalised_pixels(self, conv_inputs, toy_params):
        rng = np.random.default_rng(5)
        image = rng.uniform(0, 255, (64, 64, 3))
        patch_embed(image, toy_params.embed)
        expect = (image / 255.0 - np.array(PIXEL_MEAN)) / np.array(PIXEL_STD)
        assert np.allclose(conv_inputs[0], expect, rtol=0, atol=1e-12)
        # a float32 image gets the same map, rounded to float32
        patch_embed(image.astype(np.float32), toy_params.embed)
        normalised32 = conv_inputs[len(toy_params.embed.convs)]
        assert normalised32.dtype == np.float32
        assert np.allclose(normalised32, expect, rtol=0, atol=1e-5)


class TestLayoutChain:
    def test_base_token_counts(self):
        cfg = make_config("base")
        counts = [cfg.layout(s).n_tokens for s in range(3)]
        assert counts == [320, 80, 20]  # 16^2+8^2, 8^2+4^2, 4^2+2^2

    def test_toy_token_counts(self, toy_cfg):
        assert [toy_cfg.layout(s).n_tokens for s in range(3)] == [80, 20, 5]

    def test_all_variants_shape_chain(self):
        for variant in ("base", "small", "tiny", "toy"):
            cfg = make_config(variant)
            for s in range(3):
                lay = cfg.layout(s)
                assert lay.template_hw[0] == cfg.template_size // 16 // (2 ** s)
                assert lay.search_hw[0] == cfg.search_size // 16 // (2 ** s)
            geo = geometry(cfg)
            for s in range(2):
                assert geo.stages[s + 1].layout.n_tokens * 4 == geo.shrinks[s].layout.n_tokens

    def test_input_sizes_must_divide_64(self):
        with pytest.raises(ShapeError):
            make_config("toy", template_size=32)


def backbone_forward(template_img, search_img, params):
    """Both halves of the backbone on one pair, every output by name."""
    state = stage1_forward(embed_template(template_img, params), search_img, params)
    s_mid, s_min, g = continue_forward(state, params)
    return SimpleNamespace(s_max=state.s_max, s_mid=s_mid, s_min=s_min, g=g, g1=state.g1,
                           s1=state.tokens)


class TestBackboneForward:
    def test_stage_output_shapes(self, toy_params, toy_pair):
        outs = backbone_forward(*toy_pair, toy_params)
        assert outs.s_max.shape == (8, 8, 32)
        assert outs.s_mid.shape == (4, 4, 48)
        assert outs.s_min.shape == (2, 2, 64)
        assert outs.g.shape == (64,)
        assert outs.g1.shape == (32,)
        assert outs.s1.shape == (80, 32)

    def test_deterministic_bit_identical(self, toy_params, toy_pair):
        a = backbone_forward(*toy_pair, toy_params)
        b = backbone_forward(*toy_pair, toy_params)
        assert np.array_equal(a.s_min, b.s_min) and np.array_equal(a.g, b.g)

    def test_s_max_is_search_slice_of_s1(self, toy_params, toy_pair):
        outs = backbone_forward(*toy_pair, toy_params)
        layout = toy_params.config.layout(0)
        assert np.array_equal(outs.s_max, outs.s1[layout.n_template:].reshape(8, 8, 32))

    def test_zero_stage_weights_pass_embed_through(self, toy_cfg, toy_pair):
        # blocks with zero projections are identity maps, so S_max equals the
        # search patch-embed grid and G1 equals its mean
        params = init_weights(toy_cfg, seed=3)
        for bw in params.stages[0]:
            for arr in (bw.attn.wq, bw.attn.wk, bw.attn.wv, bw.attn.wo,
                        bw.mlp.w1, bw.mlp.b1, bw.mlp.w2, bw.mlp.b2):
                arr[...] = 0.0
        state = stage1_forward(embed_template(toy_pair[0], params), toy_pair[1], params)
        embedded = patch_embed(toy_pair[1], params.embed)
        assert np.array_equal(state.s_max, embedded)
        assert np.allclose(state.g1, embedded.reshape(-1, 32).mean(axis=0), atol=1e-6)

    def test_constant_input_zero_weights(self, toy_cfg):
        params = zero_weights(toy_cfg)
        tpl = np.full((64, 64, 3), 0.5, dtype=np.float32)
        srch = np.full((128, 128, 3), 0.5, dtype=np.float32)
        outs = backbone_forward(tpl, srch, params)
        assert not outs.s_max.any() and not outs.g.any()

    def test_search_sentinel_lands_in_s_max_only(self, toy_cfg, toy_pair):
        # sentinel written into search pixels changes s_max but never the
        # template slice bookkeeping of the embed grids
        params = init_weights(toy_cfg, seed=3)
        tpl, srch = toy_pair
        poked = srch.copy()
        poked[:16, :16] += 500.0
        base_t = patch_embed(tpl, params.embed)
        poke_t = patch_embed(tpl, params.embed)
        assert np.array_equal(base_t, poke_t)
        base_s = patch_embed(srch, params.embed)
        poke_s = patch_embed(poked, params.embed)
        assert not np.array_equal(base_s, poke_s)

    def test_wrong_image_size_rejected(self, toy_params):
        grid = embed_template(np.zeros((64, 64, 3), dtype=np.float32), toy_params)
        with pytest.raises(ShapeError):
            stage1_forward(grid, np.zeros((64, 64, 3), dtype=np.float32), toy_params)


class TestExtractSearch:
    LAYOUT = TokenLayout((4, 4), (8, 8))

    def test_grid_shape(self):
        rng = np.random.default_rng(4)
        tokens = rng.standard_normal((80, 6))
        assert extract_search(tokens, self.LAYOUT).shape == (8, 8, 6)

    def test_round_trip_flatten_unflatten(self):
        rng = np.random.default_rng(5)
        tokens = rng.standard_normal((80, 6))
        grid = extract_search(tokens, self.LAYOUT)
        assert np.array_equal(grid.reshape(64, 6), tokens[16:])

    def test_positional_one_hot_survives(self):
        tokens = np.zeros((80, 3))
        tokens[16 + 8 * 2 + 5, 1] = 1.0  # search cell (2, 5)
        grid = extract_search(tokens, self.LAYOUT)
        assert grid[2, 5, 1] == 1.0 and grid.sum() == 1.0

    def test_layout_mismatch(self):
        with pytest.raises(ShapeError):
            extract_search(np.zeros((70, 6)), self.LAYOUT)


class TestGlobalVector:
    LAYOUT = TokenLayout((2, 2), (4, 4))

    def test_constant_tokens(self):
        tokens = np.full((20, 5), 3.25)
        assert np.array_equal(global_vector(tokens, self.LAYOUT), np.full(5, 3.25))

    def test_matches_naive_mean(self):
        rng = np.random.default_rng(6)
        tokens = rng.standard_normal((20, 5))
        expect = np.zeros(5)
        for i in range(4, 20):
            expect += tokens[i]
        expect /= 16
        assert np.allclose(global_vector(tokens, self.LAYOUT), expect, atol=1e-12)

    def test_channel_count_follows_stage(self, toy_params, toy_pair):
        outs = backbone_forward(*toy_pair, toy_params)
        assert outs.g.shape == (toy_params.config.channels[2],)

