import numpy as np
import pytest

from hitrack.config import VARIANTS, TokenLayout, geometry, make_config
from hitrack.errors import ShapeError


def sliced_subsample(tokens, layout):
    """Even-index 2x2 subsampling written out on the flat token order."""
    hz, wz = layout.template_hw
    hx, wx = layout.search_hw
    c = tokens.shape[1]
    tpl = tokens[:layout.n_template].reshape(hz, wz, c)[::2, ::2].reshape(-1, c)
    srch = tokens[layout.n_template:].reshape(hx, wx, c)[::2, ::2].reshape(-1, c)
    return np.concatenate([tpl, srch], axis=0)


def loop_coords(layout, step=1):
    """Diagonal joint coordinates, built token by token: template rows and
    columns from 0, search rows and columns offset by the template extents."""
    (hz, wz), (hx, wx) = layout.template_hw, layout.search_hw
    coords = [(r, c) for r in range(0, hz, step) for c in range(0, wz, step)]
    coords += [(hz + r, wz + c) for r in range(0, hx, step) for c in range(0, wx, step)]
    return coords


def loop_index(q_coords, k_coords):
    out = np.empty((len(q_coords), len(k_coords), 2), dtype=np.int64)
    for i, (ri, ci) in enumerate(q_coords):
        for j, (rj, cj) in enumerate(k_coords):
            out[i, j] = (abs(ri - rj), abs(ci - cj))
    return out


class TestTokenLayout:
    LAYOUT = TokenLayout((4, 4), (8, 8))

    def test_split_views_both_grids(self):
        tokens = np.arange(80 * 3, dtype=np.float64).reshape(80, 3)
        tpl, srch = self.LAYOUT.split(tokens)
        assert tpl.shape == (4, 4, 3) and srch.shape == (8, 8, 3)
        assert np.array_equal(tpl.reshape(16, 3), tokens[:16])
        assert np.array_equal(srch[2, 5], tokens[16 + 8 * 2 + 5])
        assert np.array_equal(self.LAYOUT.join(tpl, srch), tokens)
        srch[0, 0] = -1.0
        assert (tokens[16] == -1.0).all()  # views, not copies

    def test_join_rejects_grids_of_another_layout(self):
        with pytest.raises(ShapeError):
            self.LAYOUT.join(np.zeros((4, 4, 3)), np.zeros((4, 4, 3)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_subsample_bytes_equal_slicing_formula(self, dtype):
        rng = np.random.default_rng(9)
        for layout in (self.LAYOUT, TokenLayout((2, 6), (4, 2)), make_config("tiny").layout(0)):
            tokens = rng.standard_normal((layout.n_tokens, 7)).astype(dtype)
            out = layout.subsample(tokens)
            expect = sliced_subsample(tokens, layout)
            assert out.dtype == expect.dtype and out.shape == expect.shape
            assert out.tobytes() == expect.tobytes()
            assert out.shape[0] == layout.shrink().n_tokens


class TestModelGeometry:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_bias_indices_match_bruteforce(self, variant):
        geo = geometry(make_config(variant))
        for s, stage in enumerate(geo.stages):
            coords = loop_coords(stage.layout)
            assert np.array_equal(stage.bias_index, loop_index(coords, coords)), f"stage {s}"
            (hz, wz), (hx, wx) = stage.layout.template_hw, stage.layout.search_hw
            assert stage.table_shape == (hz + hx, wz + wx)
        for s, shrink in enumerate(geo.shrinks):
            assert shrink.layout == geo.stages[s].layout
            assert shrink.layout.shrink() == geo.stages[s + 1].layout
            q = loop_coords(shrink.layout, step=2)
            k = loop_coords(shrink.layout)
            assert np.array_equal(shrink.bias_index, loop_index(q, k)), f"shrink {s}"
            assert shrink.table_shape == geo.stages[s].table_shape


class TestModelConfigChecks:
    @pytest.mark.parametrize("key_dim", [0, -1])
    def test_key_dim_below_one_rejected(self, key_dim):
        with pytest.raises(ShapeError, match="key_dim"):
            make_config("toy", key_dim=key_dim)
