import numpy as np
import pytest

from hitrack import posenc
from hitrack.config import TokenLayout
from hitrack.errors import ShapeError


LAYOUT = TokenLayout((2, 2), (4, 4))


def coords_2x2_4x4():
    return posenc.dual_coords(LAYOUT)


class TestAssignDualCoords:
    def test_diagonal_search_offset(self):
        cm = coords_2x2_4x4()
        first_search = LAYOUT.n_template
        assert tuple(cm[first_search]) == (2, 2)

    def test_template_anchored_at_origin(self):
        cm = coords_2x2_4x4()
        # template token (1, 1) is index 3 in row-major order
        assert tuple(cm[3]) == (1, 1)

    def test_diagonal_all_coords_distinct(self):
        cm = coords_2x2_4x4()
        pairs = set(map(tuple, cm.tolist()))
        assert len(pairs) == 20

    def test_diagonal_axis_sets_disjoint(self):
        cm = coords_2x2_4x4()
        nz = LAYOUT.n_template
        assert not (set(cm[:nz, 0]) & set(cm[nz:, 0]))
        assert not (set(cm[:nz, 1]) & set(cm[nz:, 1]))

    def test_nonpositive_extents(self):
        with pytest.raises(ShapeError):
            posenc.dual_coords(TokenLayout((0, 2), (4, 4)))


class TestBiasIndex:
    def test_direct_offsets(self):
        cm = np.array([[0, 0], [2, 3]])
        idx = posenc.bias_index(cm, cm)
        assert tuple(idx[0, 1]) == (2, 3)
        assert tuple(idx[1, 0]) == (2, 3)

    def test_diagonal_entries_zero(self):
        cm = coords_2x2_4x4()
        idx = posenc.bias_index(cm, cm)
        assert not idx[np.arange(20), np.arange(20)].any()

    def test_symmetry(self):
        cm = coords_2x2_4x4()
        idx = posenc.bias_index(cm, cm)
        assert np.array_equal(idx, idx.transpose(1, 0, 2))

    def test_minimal_table_extents(self):
        cm = posenc.dual_coords(TokenLayout((2, 4), (6, 4)))
        idx = posenc.bias_index(cm, cm)
        rows, cols = posenc.table_shape(cm)
        assert idx[..., 0].max() == rows - 1
        assert idx[..., 1].max() == cols - 1

    def test_diagonal_table_extents(self):
        cm = coords_2x2_4x4()
        assert posenc.table_shape(cm) == (6, 6)  # (Hz+Hx) x (Wz+Wx)


class TestGatherBias:
    def test_zero_table(self):
        cm = coords_2x2_4x4()
        idx = posenc.bias_index(cm, cm)
        out = posenc.gather_bias(np.zeros((3, *posenc.table_shape(cm)), np.float32), idx)
        assert out.shape == (3, 20, 20)
        assert not out.any()

    def test_single_entry_lookup(self):
        cm = coords_2x2_4x4()
        idx = posenc.bias_index(cm, cm)
        table = np.zeros((1, *posenc.table_shape(cm)), np.float32)
        table[0, 1, 0] = 5.0
        out = posenc.gather_bias(table, idx)
        for i in range(20):
            for j in range(20):
                expect = 5.0 if (idx[i, j, 0], idx[i, j, 1]) == (1, 0) else 0.0
                assert out[0, i, j] == expect

    def test_matches_bruteforce_double_loop(self):
        rng = np.random.default_rng(21)
        cm = coords_2x2_4x4()
        idx = posenc.bias_index(cm, cm)
        table = rng.standard_normal((4,) + posenc.table_shape(cm))
        out = posenc.gather_bias(table, idx)
        n = LAYOUT.n_tokens
        expect = np.empty((4, n, n))
        for h in range(4):
            for i in range(n):
                for j in range(n):
                    dr = abs(cm[i, 0] - cm[j, 0])
                    dc = abs(cm[i, 1] - cm[j, 1])
                    expect[h, i, j] = table[h, dr, dc]
        assert np.array_equal(out, expect)

    def test_gathered_matrix_symmetric(self):
        rng = np.random.default_rng(22)
        cm = coords_2x2_4x4()
        table = rng.standard_normal((2,) + posenc.table_shape(cm))
        out = posenc.gather_bias(table, posenc.bias_index(cm, cm))
        assert np.array_equal(out, out.transpose(0, 2, 1))

    def test_out_of_range_index(self):
        cm = coords_2x2_4x4()
        idx = posenc.bias_index(cm, cm)
        small = np.zeros((1, 3, 3))
        with pytest.raises(ShapeError):
            posenc.gather_bias(small, idx)


class TestSubsampleCoords:
    def test_even_index_coords_survive(self):
        cm = coords_2x2_4x4()
        sub = LAYOUT.subsample(cm)
        out = LAYOUT.shrink()
        assert out.template_hw == (1, 1) and out.search_hw == (2, 2)
        assert sub.shape == (out.n_tokens, 2)
        # template keeps (0, 0); search keeps rows/cols {2, 4}
        assert tuple(sub[0]) == (0, 0)
        assert set(sub[1:, 0].tolist()) == {2, 4}
        assert set(sub[1:, 1].tolist()) == {2, 4}

    def test_q_index_against_full_coords(self):
        cm = coords_2x2_4x4()
        sub = LAYOUT.subsample(cm)
        idx = posenc.bias_index(sub, cm)
        assert idx.shape == (5, 20, 2)
        rows, cols = posenc.table_shape(cm)
        assert idx[..., 0].max() <= rows - 1
        assert idx[..., 1].max() <= cols - 1

    def test_odd_extents_rejected(self):
        layout = TokenLayout((3, 2), (4, 4))
        cm = posenc.dual_coords(layout)
        with pytest.raises(ShapeError):
            layout.subsample(cm)
