import dataclasses
import sys
import threading

import numpy as np
import pytest

from hitrack import flop_account, forward, gen_synthetic, make_tracker, tensor, track_sequence
from hitrack.errors import ShapeError
from hitrack.routing import ROUTE2


def naive_matmul(a, b):
    """Triple-loop oracle with left-to-right accumulation over k."""
    m, k = a.shape
    n = b.shape[1]
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for kk in range(k):
                acc += a[i, kk] * b[kk, j]
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 5))
        assert np.array_equal(tensor.matmul(np.eye(3), a), a)
        assert np.array_equal(tensor.matmul(a, np.eye(5)), a)

    def test_scalar_case(self):
        out = tensor.matmul(np.array([[2.0]]), np.array([[3.0]]))
        assert out.shape == (1, 1) and out[0, 0] == 6.0

    def test_matches_naive_oracle_bit_exactly_float64(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 5))
        b = rng.standard_normal((5, 3))
        assert np.array_equal(tensor.matmul(a, b), naive_matmul(a, b))

    def test_matches_naive_oracle_various_sizes(self):
        rng = np.random.default_rng(2)
        for m, k, n in [(1, 1, 1), (7, 13, 2), (12, 8, 12)]:
            a = rng.standard_normal((m, k))
            b = rng.standard_normal((k, n))
            assert np.array_equal(tensor.matmul(a, b), naive_matmul(a, b))

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            tensor.matmul(np.zeros((2, 3)), np.zeros((4, 2)))

    def test_float32_deterministic(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((20, 30)).astype(np.float32)
        b = rng.standard_normal((30, 10)).astype(np.float32)
        assert np.array_equal(tensor.matmul(a, b), tensor.matmul(a, b))

    def test_all_finite(self):
        rng = np.random.default_rng(4)
        out = tensor.matmul(rng.standard_normal((6, 6)), rng.standard_normal((6, 6)))
        assert np.isfinite(out).all()


class TestStackedMatmul:
    def test_float64_stack_matches_per_slice_oracle_bit_exactly(self):
        rng = np.random.default_rng(16)
        a = rng.standard_normal((2, 3, 4, 5))
        b = rng.standard_normal((2, 3, 5, 6))
        out = tensor.matmul(a, b)
        assert out.shape == (2, 3, 4, 6)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(out[i, j], naive_matmul(a[i, j], b[i, j]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_2d_operand_broadcasts_against_stack(self, dtype):
        rng = np.random.default_rng(17)
        a2 = rng.standard_normal((4, 5)).astype(dtype)
        stack = rng.standard_normal((3, 5, 5)).astype(dtype)
        left = tensor.matmul(a2, stack)
        right = tensor.matmul(stack, a2.T)
        assert left.shape == (3, 4, 5) and right.shape == (3, 5, 4)
        for i in range(3):
            assert np.array_equal(left[i], tensor.matmul(a2, stack[i]))
            assert np.array_equal(right[i], tensor.matmul(stack[i], a2.T))

    def test_one_call_records_batch_m_k_n(self):
        with tensor.count_macs() as counter:
            tensor.matmul(np.zeros((6, 3, 4), np.float32), np.zeros((6, 4, 5), np.float32))
            tensor.matmul(np.zeros((3, 4)), np.zeros((2, 6, 4, 5)))
        assert counter.total == 6 * 3 * 4 * 5 + 2 * 6 * 3 * 4 * 5

    def test_1d_operand_rejected(self):
        with pytest.raises(ShapeError):
            tensor.matmul(np.zeros(3), np.zeros((3, 2)))
        with pytest.raises(ShapeError):
            tensor.matmul(np.zeros((2, 3)), np.zeros(3))

    def test_stack_inner_extent_mismatch(self):
        with pytest.raises(ShapeError):
            tensor.matmul(np.zeros((2, 3, 4)), np.zeros((2, 5, 3)))


class TestSoftmaxRows:
    def test_equal_logits_uniform(self):
        out = tensor.softmax_rows(np.full((3, 5), 2.5))
        assert np.allclose(out, 0.2, atol=1e-12)

    def test_known_values(self):
        out = tensor.softmax_rows(np.array([[0.0, np.log(3.0)]]))
        assert np.allclose(out, [[0.25, 0.75]], atol=1e-12)

    def test_single_element_row(self):
        assert np.array_equal(tensor.softmax_rows(np.array([[7.0]])), [[1.0]])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((40, 17)) * 30.0
        out = tensor.softmax_rows(x)
        assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-6

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((10, 8))
        shifted = tensor.softmax_rows(x + 13.7)
        assert np.abs(shifted - tensor.softmax_rows(x)).max() < 1e-6

    def test_huge_logits_stay_finite(self):
        out = tensor.softmax_rows(np.array([[1e4, -1e4, 0.0]]))
        assert np.isfinite(out).all()


class TestHardswish:
    def test_fixed_points(self):
        assert tensor.hardswish(0.0) == 0.0
        assert tensor.hardswish(-3.0) == 0.0
        assert np.isclose(tensor.hardswish(1.0), 2.0 / 3.0)

    def test_identity_above_three(self):
        x = np.array([3.0, 4.5, 100.0])
        assert np.array_equal(tensor.hardswish(x), x)

    def test_zero_below_minus_three(self):
        x = np.array([-3.0, -8.0, -1e6])
        assert np.array_equal(tensor.hardswish(x), np.zeros(3))

    def test_gradient_matches_finite_differences(self):
        xs = np.linspace(-5, 5, 41)
        xs = xs[np.abs(np.abs(xs) - 3.0) > 1e-3]
        eps = 1e-6
        num = (tensor.hardswish(xs + eps) - tensor.hardswish(xs - eps)) / (2 * eps)
        assert np.abs(num - tensor.hardswish_grad(xs)).max() < 1e-8


# The plain expressions the in-place kernels replaced, kept as their oracles:
# the kernels must give the same bytes, dtype included.
def reference_softmax_rows(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def reference_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_hardswish(x):
    return x * np.clip(x + 3.0, 0.0, 6.0) / 6.0


def reference_linear(x, w, b):
    return tensor.matmul(x, w) + b


def reference_affine(x, scale, shift):
    return x * scale + shift


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


DTYPES = [np.float32, np.float64]


class TestInPlaceKernelOracles:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_softmax_rows(self, dtype):
        rng = np.random.default_rng(40)
        for shape in [(1, 1), (3, 17), (2, 5, 64), (1, 256)]:
            x = (rng.standard_normal(shape) * 20).astype(dtype)
            want = reference_softmax_rows(x)
            assert_same_bytes(tensor.softmax_rows(x), want)
            alias = x.copy()
            assert tensor.softmax_rows(alias, out=alias) is alias
            assert_same_bytes(alias, want)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_hardswish(self, dtype):
        rng = np.random.default_rng(41)
        special = [np.nan, np.inf, -np.inf, 0.0, -0.0, -3.0, 3.0, -2.9999, 1e-40, -1e-40]
        x = np.concatenate([rng.standard_normal(300) * 5, special]).astype(dtype).reshape(31, 10)
        with np.errstate(invalid="ignore"):  # -inf * 0 is NaN in both
            want = reference_hardswish(x)
            got = tensor.hardswish(x)
            alias = x.copy()
            assert tensor.hardswish(alias, out=alias) is alias
        assert_same_bytes(got, want)
        assert_same_bytes(alias, want)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_sigmoid(self, dtype):
        rng = np.random.default_rng(47)
        special = [np.inf, -np.inf, 0.0, -0.0, 1e-40, -1e-40, 100.0, -100.0, 1000.0, -1000.0]
        x = np.concatenate([rng.standard_normal(290) * 20, special]).astype(dtype).reshape(30, 10)
        assert_same_bytes(tensor.sigmoid(x), reference_sigmoid(x))
        assert np.isnan(tensor.sigmoid(np.full(3, np.nan, dtype))).all()  # NaN's sign bit may differ

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_linear(self, dtype):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((37, 24)).astype(dtype)
        w = rng.standard_normal((24, 40)).astype(dtype)
        b = rng.standard_normal(40).astype(dtype)
        assert_same_bytes(tensor.linear(x, w, b), reference_linear(x, w, b))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_affine_tokens(self, dtype):
        rng = np.random.default_rng(43)
        x = (rng.standard_normal((50, 32)) * 100).astype(dtype)
        scale, shift = (rng.standard_normal(32).astype(dtype) for _ in range(2))
        assert_same_bytes(tensor.affine(x, scale, shift), reference_affine(x, scale, shift))

    @pytest.mark.parametrize("dtypes", [(np.float32, np.float64), (np.float64, np.float32)])
    def test_mixed_dtypes_promote_as_the_plain_expression(self, dtypes):
        rng = np.random.default_rng(44)
        lo, hi = dtypes
        x = rng.standard_normal((9, 8)).astype(lo)
        w = rng.standard_normal((8, 6)).astype(lo)
        b = rng.standard_normal(6).astype(hi)
        assert_same_bytes(tensor.linear(x, w, b), reference_linear(x, w, b))
        scale, shift = rng.standard_normal(8).astype(lo), rng.standard_normal(8).astype(hi)
        assert_same_bytes(tensor.affine(x, scale, shift), reference_affine(x, scale, shift))

    def test_integer_input_promotes_as_the_plain_expression(self):
        x = np.arange(-6, 6).reshape(3, 4)
        want = reference_hardswish(x)
        assert_same_bytes(tensor.hardswish(x), want)
        out = np.empty(x.shape, dtype=want.dtype)
        assert tensor.hardswish(x, out=out) is out
        assert_same_bytes(out, want)

    def test_inputs_are_not_written(self):
        rng = np.random.default_rng(45)
        x = rng.standard_normal((6, 8)).astype(np.float32)
        w = rng.standard_normal((8, 8)).astype(np.float32)
        vec = rng.standard_normal(8).astype(np.float32)
        args = (x, w, vec)
        before = [a.copy() for a in args]
        tensor.softmax_rows(x)
        tensor.hardswish(x)
        tensor.linear(x, w, vec)
        tensor.affine(x, vec, vec)
        tensor.affine(x.reshape(2, 3, 8), vec, vec)
        for a, b in zip(args, before):
            assert_same_bytes(a, b)

    @pytest.mark.parametrize("kernel", [tensor.softmax_rows, tensor.hardswish])
    def test_out_of_another_dtype_or_shape_rejected(self, kernel):
        x = np.ones((3, 4), dtype=np.float32)
        for out in (np.empty((3, 4), np.float64), np.empty((2, 3, 4), np.float32)):
            with pytest.raises(ShapeError):
                kernel(x, out=out)


class TestAddInto:
    def test_sums_into_the_buffer_when_dtype_kept(self):
        rng = np.random.default_rng(46)
        buf = rng.standard_normal((5, 4)).astype(np.float32)
        other = rng.standard_normal(4).astype(np.float32)
        want = other + buf
        assert tensor.add_into(buf, other) is buf
        assert_same_bytes(buf, want)

    def test_promotes_without_writing(self):
        buf = np.ones((2, 3), dtype=np.float32)
        out = tensor.add_into(buf, np.full(3, 0.1))
        assert out.dtype == np.float64 and out is not buf
        assert_same_bytes(buf, np.ones((2, 3), dtype=np.float32))


def reference_conv_transpose2d(x, kernel, stride, padding):
    """The earlier formulation: one [Cin, kh*kw*Cout] product over a transposed kernel copy."""
    kh, kw, cin, cout = kernel.shape
    h, w, _ = x.shape
    k2d = kernel.transpose(2, 0, 1, 3).reshape(cin, kh * kw * cout)
    taps = tensor.matmul(x.reshape(h * w, cin), k2d).reshape(h, w, kh, kw, cout)
    full_h = stride * (h - 1) + kh
    full_w = stride * (w - 1) + kw
    out = np.zeros((full_h, full_w, cout), dtype=taps.dtype)
    for di in range(kh):
        for dj in range(kw):
            out[di:di + stride * h:stride, dj:dj + stride * w:stride] += taps[:, :, di, dj]
    if padding:
        out = out[padding:full_h - padding, padding:full_w - padding]
    return out


class TestConvTransposeOracle:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k,padding", [(2, 0), (4, 1)])
    def test_matches_kernel_copy_formulation(self, dtype, k, padding):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((4, 4, 24)).astype(dtype)
        kernel = rng.standard_normal((k, k, 24, 16)).astype(dtype)
        with tensor.count_macs() as counter:
            out = tensor.conv_transpose2d(x, kernel)
        with tensor.count_macs() as ref_counter:
            expect = reference_conv_transpose2d(x, kernel, 2, padding)
        assert out.dtype == expect.dtype == dtype
        assert np.array_equal(out, expect)
        assert counter.counts == ref_counter.counts


class TestConvTranspose2x:
    def test_zero_kernel_zero_output(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 4, 2))
        out = tensor.conv_transpose2d(x, np.zeros((2, 2, 2, 5)))
        assert out.shape == (6, 8, 5)
        assert not out.any()

    def test_single_pixel_expansion(self):
        v = 2.5
        out = tensor.conv_transpose2d(np.full((1, 1, 1), v), np.ones((2, 2, 1, 1)))
        assert np.array_equal(out, np.full((2, 2, 1), v))

    def test_output_doubles_spatially(self):
        rng = np.random.default_rng(8)
        out = tensor.conv_transpose2d(rng.standard_normal((4, 4, 3)), rng.standard_normal((2, 2, 3, 6)))
        assert out.shape == (8, 8, 6)

    def test_linearity_exact_on_dyadic_values(self):
        rng = np.random.default_rng(9)
        x = rng.integers(-8, 8, size=(3, 3, 2)).astype(np.float64) * 0.25
        k = rng.integers(-4, 4, size=(2, 2, 2, 3)).astype(np.float64) * 0.5
        assert np.array_equal(tensor.conv_transpose2d(2.0 * x, k),
                              2.0 * tensor.conv_transpose2d(x, k))

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            tensor.conv_transpose2d(np.zeros((2, 2, 3)), np.zeros((2, 2, 4, 1)))

    def test_scatter_oracle(self):
        # out[2i+di, 2j+dj, co] accumulates x[i, j, ci] * k[di, dj, ci, co]
        rng = np.random.default_rng(10)
        x = rng.standard_normal((3, 2, 2))
        k = rng.standard_normal((2, 2, 2, 3))
        expect = np.zeros((6, 4, 3))
        for i in range(3):
            for j in range(2):
                for di in range(2):
                    for dj in range(2):
                        for ci in range(2):
                            expect[2 * i + di, 2 * j + dj] += x[i, j, ci] * k[di, dj, ci]
        assert np.allclose(tensor.conv_transpose2d(x, k), expect, atol=1e-12)


class TestConvTransposeK4:
    def test_doubles_with_padding_one(self):
        rng = np.random.default_rng(11)
        out = tensor.conv_transpose2d(rng.standard_normal((4, 4, 3)), rng.standard_normal((4, 4, 3, 2)))
        assert out.shape == (8, 8, 2)

    def test_overlap_scatter_oracle(self):
        rng = np.random.default_rng(12)
        h, w, cin, cout = 3, 3, 2, 2
        x = rng.standard_normal((h, w, cin))
        k = rng.standard_normal((4, 4, cin, cout))
        full = np.zeros((2 * (h - 1) + 4, 2 * (w - 1) + 4, cout))
        for i in range(h):
            for j in range(w):
                for di in range(4):
                    for dj in range(4):
                        full[2 * i + di, 2 * j + dj] += x[i, j] @ k[di, dj]
        expect = full[1:-1, 1:-1]
        assert np.allclose(tensor.conv_transpose2d(x, k), expect, atol=1e-12)


class TestAffine:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(6, 5, 1), (6, 5, 3), (7, 9, 4), (4, 3, 16), (11, 16)])
    def test_row_form_matches_broadcast_bit_exactly(self, shape, dtype):
        # [H, W, C] maps take the tiled [H, W*C] row form; [T, C] tokens broadcast
        rng = np.random.default_rng(sum(shape))
        x = (rng.standard_normal(shape) * 100).astype(dtype)
        scale = rng.standard_normal(shape[-1]).astype(dtype)
        shift = rng.standard_normal(shape[-1]).astype(dtype)
        out = tensor.affine(x, scale, shift)
        assert out.dtype == dtype and out.shape == x.shape
        assert np.array_equal(out, x * scale + shift)

    @pytest.mark.parametrize("dtypes", [(np.float32, np.float32, np.float64),
                                        (np.float32, np.float64, np.float32)])
    def test_mixed_dtypes_promote_like_broadcast(self, dtypes):
        rng = np.random.default_rng(17)
        x, scale, shift = (rng.standard_normal(shape).astype(dt)
                           for shape, dt in zip([(5, 4, 3), (3,), (3,)], dtypes))
        out = tensor.affine(x, scale, shift)
        expect = x * scale + shift
        assert out.dtype == expect.dtype == np.float64
        assert np.array_equal(out, expect)

    def test_non_contiguous_map(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((8, 6, 3)).astype(np.float32)[::2, ::-1]
        scale = rng.standard_normal(3).astype(np.float32)
        shift = rng.standard_normal(3).astype(np.float32)
        assert np.array_equal(tensor.affine(x, scale, shift), x * scale + shift)


class TestConv2d:
    def test_same_padding_shape(self):
        rng = np.random.default_rng(13)
        out = tensor.conv2d(rng.standard_normal((5, 7, 3)), rng.standard_normal((3, 3, 3, 4)))
        assert out.shape == (5, 7, 4)

    def test_stride2_shape(self):
        rng = np.random.default_rng(14)
        out = tensor.conv2d(rng.standard_normal((8, 8, 2)), rng.standard_normal((3, 3, 2, 5)), 2)
        assert out.shape == (4, 4, 5)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            tensor.conv2d(np.zeros((4, 4, 3)), np.zeros((3, 3, 2, 1)))

    def test_matches_naive_convolution(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((5, 5, 2))
        k = rng.standard_normal((3, 3, 2, 3))
        padded = np.zeros((7, 7, 2))
        padded[1:6, 1:6] = x
        expect = np.zeros((5, 5, 3))
        for i in range(5):
            for j in range(5):
                window = padded[i:i + 3, j:j + 3]
                for co in range(3):
                    expect[i, j, co] = (window * k[:, :, :, co]).sum()
        assert np.allclose(tensor.conv2d(x, k), expect, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_same_padding_follows_from_kernel(self, k, stride):
        # pads k // 2 on every side: H x W kept at stride 1, halved at stride 2
        rng = np.random.default_rng(100 + k)
        h, w, cin, cout = 6, 8, 2, 3
        x = rng.standard_normal((h, w, cin))
        kernel = rng.standard_normal((k, k, cin, cout))
        p = k // 2
        padded = np.zeros((h + 2 * p, w + 2 * p, cin))
        padded[p:p + h, p:p + w] = x
        expect = np.zeros((h // stride, w // stride, cout))
        for i in range(h // stride):
            for j in range(w // stride):
                window = padded[stride * i:stride * i + k, stride * j:stride * j + k]
                for co in range(cout):
                    expect[i, j, co] = (window * kernel[:, :, :, co]).sum()
        out = tensor.conv2d(x, kernel, stride)
        assert out.shape == (h // stride, w // stride, cout)
        assert np.allclose(out, expect, atol=1e-12)


class TestConv2dMany:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_matches_one_conv2d_per_kernel(self, dtype):
        rng = np.random.default_rng(47)
        x = rng.standard_normal((6, 7, 5)).astype(dtype)
        kernels = [rng.standard_normal((3, 3, 5, cout)).astype(dtype) for cout in (4, 1)]
        with tensor.count_macs() as counter:
            outs = tensor.conv2d_many(x, kernels)
        with tensor.count_macs() as ref_counter:
            expect = [tensor.conv2d(x, k) for k in kernels]
        for got, want in zip(outs, expect):
            assert_same_bytes(got, want)
        assert counter.counts == ref_counter.counts

    def test_kernels_of_different_extent_rejected(self):
        with pytest.raises(ShapeError):
            tensor.conv2d_many(np.zeros((4, 4, 2)), [np.zeros((3, 3, 2, 1)), np.zeros((1, 1, 2, 1))])


class TestMacCounting:
    def test_matmul_records_mkn(self):
        with tensor.count_macs() as counter:
            tensor.matmul(np.zeros((3, 4)), np.zeros((4, 5)))
        assert counter.total == 3 * 4 * 5

    def test_scopes_attribute_counts(self):
        with tensor.count_macs() as counter:
            with tensor.mac_scope("a"):
                tensor.matmul(np.zeros((2, 2)), np.zeros((2, 2)))
            with tensor.mac_scope("b"):
                tensor.matmul(np.zeros((1, 3)), np.zeros((3, 1)))
        assert counter.get("a") == 8
        assert counter.get("b") == 3
        assert counter.total == 11

    def test_no_counter_no_effect(self):
        out = tensor.matmul(np.ones((2, 2)), np.ones((2, 2)))
        assert np.array_equal(out, np.full((2, 2), 2.0))

    def test_elementwise_ops_are_free(self):
        with tensor.count_macs() as counter:
            tensor.hardswish(np.ones(100))
            tensor.softmax_rows(np.ones((10, 10)))
        assert counter.total == 0

    def test_nested_counters_both_receive_work(self):
        with tensor.count_macs() as outer:
            tensor.matmul(np.zeros((1, 2)), np.zeros((2, 1)))
            with tensor.mac_scope("a"), tensor.count_macs() as inner:
                tensor.matmul(np.zeros((2, 2)), np.zeros((2, 2)))
        assert inner.counts == {"a": 8}
        assert outer.counts == {"unscoped": 2, "a": 8}

    def test_scope_label_restored_after_inner_raise(self):
        with tensor.count_macs() as counter:
            with tensor.mac_scope("outer"):
                with pytest.raises(ShapeError):
                    with tensor.mac_scope("inner"):
                        tensor.matmul(np.zeros((1, 2)), np.zeros((2, 1)))
                        tensor.matmul(np.zeros((1, 2)), np.zeros((3, 1)))
                tensor.matmul(np.zeros((1, 3)), np.zeros((3, 1)))
            tensor.matmul(np.zeros((1, 4)), np.zeros((4, 1)))
        assert counter.counts == {"inner": 2, "outer": 3, "unscoped": 4}


def run_threads(target, n):
    threads = [threading.Thread(target=target, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)


class TestMacCountingThreads:
    def test_worker_thread_work_is_invisible_to_main_counter(self):
        with tensor.count_macs() as counter:
            run_threads(lambda i: tensor.matmul(np.zeros((3, 4)), np.zeros((4, 5))), 1)
        assert counter.total == 0

    def test_concurrent_forwards_each_read_the_solo_count(self, toy_params, toy_pair):
        reps, n_threads = 3, 3
        with tensor.count_macs() as solo:
            forward(*toy_pair, toy_params, route=ROUTE2)
        readings = [None] * n_threads
        start = threading.Barrier(n_threads, timeout=60)

        def work(i):
            start.wait()
            with tensor.count_macs() as counter:
                for _ in range(reps):
                    forward(*toy_pair, toy_params, route=ROUTE2)
            readings[i] = counter.counts

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_threads(work, n_threads)
        finally:
            sys.setswitchinterval(interval)
        expect = {label: reps * n for label, n in solo.counts.items()}
        assert readings == [expect] * n_threads

    def test_two_routes_in_two_threads_each_count_their_closed_form(self, toy_params):
        # route1 and full trackers step one sequence at once; each counter
        # holds its own route's closed form, the template embed once at init
        cfg = toy_params.config
        seq = gen_synthetic(seed=31, difficulty=1, length=6)
        frames, box = list(seq.frames), tuple(float(v) for v in seq.boxes[0])
        report = flop_account(cfg)
        modules = {k: c.macs for k, c in report.modules.items()}
        square = dataclasses.replace(cfg, search_size=cfg.template_size)
        template = flop_account(square).modules["embed"].macs // 2
        search = {"embed": modules["embed"] - template, "stage1": modules["stage1"]}
        per_step = {"route1": {**search, "head1": report.extras["head1"].macs},
                    "full": {**modules, **search}}
        steps = len(frames) - 1
        expect = {kind: {label: steps * n + (template if label == "embed" else 0)
                         for label, n in counts.items()}
                  for kind, counts in per_step.items()}
        kinds = list(per_step)
        readings = [None] * len(kinds)
        start = threading.Barrier(len(kinds), timeout=60)

        def work(i):
            tracker = make_tracker(kinds[i], toy_params)
            start.wait()
            with tensor.count_macs() as counter:
                track_sequence(frames, box, tracker)
            readings[i] = counter.counts

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_threads(work, len(kinds))
        finally:
            sys.setswitchinterval(interval)
        assert readings == [expect[kind] for kind in kinds]
