import numpy as np
import pytest

from hitrack import posenc
from hitrack.errors import ShapeError


def coords_2x2_4x4():
    return posenc.assign_dual_coords((2, 2), (4, 4))


class TestAssignDualCoords:
    def test_diagonal_search_offset(self):
        cm = coords_2x2_4x4()
        first_search = cm.n_template
        assert (cm.rows[first_search], cm.cols[first_search]) == (2, 2)

    def test_template_anchored_at_origin(self):
        cm = coords_2x2_4x4()
        # template token (1, 1) is index 3 in row-major order
        assert (cm.rows[3], cm.cols[3]) == (1, 1)

    def test_diagonal_all_coords_distinct(self):
        cm = coords_2x2_4x4()
        pairs = set(zip(cm.rows.tolist(), cm.cols.tolist()))
        assert len(pairs) == 20

    def test_diagonal_axis_sets_disjoint(self):
        cm = coords_2x2_4x4()
        nz = cm.n_template
        assert not (set(cm.rows[:nz]) & set(cm.rows[nz:]))
        assert not (set(cm.cols[:nz]) & set(cm.cols[nz:]))

    def test_nonpositive_extents(self):
        with pytest.raises(ShapeError):
            posenc.assign_dual_coords((0, 2), (4, 4))


class TestBiasIndex:
    def test_direct_offsets(self):
        cm = posenc.CoordMap(np.array([0, 2]), np.array([0, 3]), (1, 1), (1, 1))
        idx = posenc.build_bias_index(cm)
        assert tuple(idx[0, 1]) == (2, 3)
        assert tuple(idx[1, 0]) == (2, 3)

    def test_diagonal_entries_zero(self):
        idx = posenc.build_bias_index(coords_2x2_4x4())
        assert not idx[np.arange(20), np.arange(20)].any()

    def test_symmetry(self):
        idx = posenc.build_bias_index(coords_2x2_4x4())
        assert np.array_equal(idx, idx.transpose(1, 0, 2))

    def test_minimal_table_extents(self):
        cm = posenc.assign_dual_coords((2, 4), (6, 4))
        idx = posenc.build_bias_index(cm)
        rows, cols = posenc.table_shape(cm)
        assert idx[..., 0].max() == rows - 1
        assert idx[..., 1].max() == cols - 1

    def test_diagonal_table_extents(self):
        cm = coords_2x2_4x4()
        assert posenc.table_shape(cm) == (6, 6)  # (Hz+Hx) x (Wz+Wx)


class TestGatherBias:
    def test_zero_table(self):
        cm = coords_2x2_4x4()
        idx = posenc.build_bias_index(cm)
        out = posenc.gather_bias(np.zeros((3, *posenc.table_shape(cm)), np.float32), idx)
        assert out.shape == (3, 20, 20)
        assert not out.any()

    def test_single_entry_lookup(self):
        cm = coords_2x2_4x4()
        idx = posenc.build_bias_index(cm)
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
        idx = posenc.build_bias_index(cm)
        table = rng.standard_normal((4,) + posenc.table_shape(cm))
        out = posenc.gather_bias(table, idx)
        n = cm.n_tokens
        expect = np.empty((4, n, n))
        for h in range(4):
            for i in range(n):
                for j in range(n):
                    dr = abs(cm.rows[i] - cm.rows[j])
                    dc = abs(cm.cols[i] - cm.cols[j])
                    expect[h, i, j] = table[h, dr, dc]
        assert np.array_equal(out, expect)

    def test_gathered_matrix_symmetric(self):
        rng = np.random.default_rng(22)
        cm = coords_2x2_4x4()
        table = rng.standard_normal((2,) + posenc.table_shape(cm))
        out = posenc.gather_bias(table, posenc.build_bias_index(cm))
        assert np.array_equal(out, out.transpose(0, 2, 1))

    def test_out_of_range_index(self):
        cm = coords_2x2_4x4()
        idx = posenc.build_bias_index(cm)
        small = np.zeros((1, 3, 3))
        with pytest.raises(ShapeError):
            posenc.gather_bias(small, idx)


class TestSubsampleCoords:
    def test_even_index_coords_survive(self):
        cm = coords_2x2_4x4()
        sub = posenc.subsample_coords(cm)
        assert sub.template_hw == (1, 1) and sub.search_hw == (2, 2)
        # template keeps (0, 0); search keeps rows/cols {2, 4}
        assert (sub.rows[0], sub.cols[0]) == (0, 0)
        assert set(sub.rows[1:].tolist()) == {2, 4}
        assert set(sub.cols[1:].tolist()) == {2, 4}

    def test_q_index_against_full_coords(self):
        cm = coords_2x2_4x4()
        sub = posenc.subsample_coords(cm)
        idx = posenc.build_bias_index(sub, cm)
        assert idx.shape == (5, 20, 2)
        rows, cols = posenc.table_shape(cm)
        assert idx[..., 0].max() <= rows - 1
        assert idx[..., 1].max() <= cols - 1

    def test_odd_extents_rejected(self):
        cm = posenc.assign_dual_coords((3, 2), (4, 4))
        with pytest.raises(ShapeError):
            posenc.subsample_coords(cm)
