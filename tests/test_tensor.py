import sys
import threading

import numpy as np
import pytest

from hitrack import full_forward, tensor
from hitrack.errors import ShapeError


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


class TestConvTranspose2x:
    def test_zero_kernel_zero_output(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 4, 2))
        out = tensor.conv_transpose2d(x, np.zeros((2, 2, 2, 5)), stride=2, padding=0)
        assert out.shape == (6, 8, 5)
        assert not out.any()

    def test_single_pixel_expansion(self):
        v = 2.5
        out = tensor.conv_transpose2d(np.full((1, 1, 1), v), np.ones((2, 2, 1, 1)), stride=2, padding=0)
        assert np.array_equal(out, np.full((2, 2, 1), v))

    def test_output_doubles_spatially(self):
        rng = np.random.default_rng(8)
        out = tensor.conv_transpose2d(rng.standard_normal((4, 4, 3)), rng.standard_normal((2, 2, 3, 6)),
                                      stride=2, padding=0)
        assert out.shape == (8, 8, 6)

    def test_linearity_exact_on_dyadic_values(self):
        rng = np.random.default_rng(9)
        x = rng.integers(-8, 8, size=(3, 3, 2)).astype(np.float64) * 0.25
        k = rng.integers(-4, 4, size=(2, 2, 2, 3)).astype(np.float64) * 0.5
        assert np.array_equal(tensor.conv_transpose2d(2.0 * x, k, stride=2, padding=0),
                              2.0 * tensor.conv_transpose2d(x, k, stride=2, padding=0))

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            tensor.conv_transpose2d(np.zeros((2, 2, 3)), np.zeros((2, 2, 4, 1)), stride=2, padding=0)

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
        assert np.allclose(tensor.conv_transpose2d(x, k, stride=2, padding=0), expect, atol=1e-12)


class TestConvTransposeK4:
    def test_doubles_with_padding_one(self):
        rng = np.random.default_rng(11)
        out = tensor.conv_transpose2d(rng.standard_normal((4, 4, 3)), rng.standard_normal((4, 4, 3, 2)),
                                      stride=2, padding=1)
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
        assert np.allclose(tensor.conv_transpose2d(x, k, 2, 1), expect, atol=1e-12)


class TestConv2d:
    def test_same_padding_shape(self):
        rng = np.random.default_rng(13)
        out = tensor.conv2d(rng.standard_normal((5, 7, 3)), rng.standard_normal((3, 3, 3, 4)), 1, 1)
        assert out.shape == (5, 7, 4)

    def test_stride2_shape(self):
        rng = np.random.default_rng(14)
        out = tensor.conv2d(rng.standard_normal((8, 8, 2)), rng.standard_normal((3, 3, 2, 5)), 2, 1)
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
        assert np.allclose(tensor.conv2d(x, k, 1, 1), expect, atol=1e-12)


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
            full_forward(*toy_pair, toy_params)
        readings = [None] * n_threads
        start = threading.Barrier(n_threads, timeout=60)

        def work(i):
            start.wait()
            with tensor.count_macs() as counter:
                for _ in range(reps):
                    full_forward(*toy_pair, toy_params)
            readings[i] = counter.counts

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_threads(work, n_threads)
        finally:
            sys.setswitchinterval(interval)
        expect = {label: reps * n for label, n in solo.counts.items()}
        assert readings == [expect] * n_threads
