"""Dense-array kernels used by every layer of the tracker.

All kernels are functions of row-major NumPy arrays. ``matmul`` takes
``[..., m, k] @ [..., k, n]`` stacks whose leading axes broadcast (a 2-D
operand pairs with every matrix of a stack), so all heads of an attention
layer are one call. Two accumulation strategies are used:

* float64 operands: explicit left-to-right accumulation over the contracted
  axis, bit-identical to a naive triple loop. This is the mode used by the
  oracle tests and the gradient checks.
* float32 operands: BLAS matmul, which is deterministic within a process but
  does not promise a particular summation order.

Each kernel allocates its output once and finishes its elementwise steps in
place on it; it writes into no argument except an explicit ``out=`` buffer,
which may alias the input (the NumPy idiom). ``add_into`` finishes a sum in
its first operand, a fresh array the caller owns. Every element sees the same IEEE
operations in the same order as the plain expression in each docstring, so
results are bit-identical to it. An in-place step runs only when it keeps the
dtype; otherwise the kernel promotes as the plain expression does.

Multiply-accumulate counts (``out.size * k`` per matmul) are recorded into
every ``MacCounter`` opened by ``count_macs`` in the current context, under
the label of the innermost ``mac_scope`` (``"unscoped"`` outside any).
Counters and labels are context-local (``contextvars``): a counter sees only
the work of its own thread or context, and a new thread starts with no
counter. Only matrix-product work counts (convolutions are lowered to
matmul); elementwise ops, softmax and bias additions are free, matching the
closed-form accounting in :mod:`hitrack.evalbench`.
"""
from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from .errors import ShapeError


class MacCounter:
    """Accumulates multiply-accumulate counts per scope label."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}

    def add(self, label: str, n: int) -> None:
        self.counts[label] = self.counts.get(label, 0) + n

    def get(self, label: str) -> int:
        return self.counts.get(label, 0)

    @property
    def total(self) -> int:
        return sum(self.counts.values())


# The active counters (outermost first) and the current scope label.
_macs: ContextVar[tuple[tuple[MacCounter, ...], str]] = ContextVar(
    "hitrack_macs", default=((), "unscoped"))


@contextmanager
def count_macs(counter: MacCounter | None = None):
    """Collect MAC counts from every kernel executed inside the block."""
    counter = counter if counter is not None else MacCounter()
    counters, label = _macs.get()
    token = _macs.set((counters + (counter,), label))
    try:
        yield counter
    finally:
        _macs.reset(token)


@contextmanager
def mac_scope(label: str):
    """Attribute MACs recorded inside the block to ``label``."""
    counters, _ = _macs.get()
    token = _macs.set((counters, label))
    try:
        yield
    finally:
        _macs.reset(token)


def _record_macs(n: int) -> None:
    counters, label = _macs.get()
    for counter in counters:
        counter.add(label, n)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked matrix product, broadcast over leading axes, in a deterministic summation order."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul expects operands of at least 2-D, got {a.shape} x {b.shape}")
    k = a.shape[-1]
    if k != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} x {b.shape}")
    if a.dtype == np.float64 or b.dtype == np.float64:
        # Left-to-right accumulation over k: bit-exact vs. a naive triple loop.
        out = np.zeros(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1]))
        for i in range(k):
            out += a[..., i, None] * b[..., i, None, :]
    else:
        out = a @ b
    _record_macs(out.size * k)
    return out


def _check_out(out: np.ndarray, shape, dtype) -> None:
    if out.shape != shape or out.dtype != dtype:
        raise ShapeError(f"out is {out.dtype}{out.shape}, the result is {np.dtype(dtype)}{shape}")


def softmax_rows(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row softmax along the last axis, stabilised by max subtraction:
    ``e / e.sum(-1)`` with ``e = exp(x - x.max(-1))``, in one buffer."""
    x = np.asarray(x)
    if out is not None:
        _check_out(out, x.shape, x.dtype if x.dtype.kind == "f" else np.float64)
    e = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    if e.dtype.kind == "f":
        np.exp(e, out=e)
    else:
        e = np.exp(e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def hardswish(x, out: np.ndarray | None = None):
    """``x * clip(x + 3, 0, 6) / 6``, elementwise, on one temporary."""
    x = np.asarray(x)
    t = np.asarray(x + 3.0)
    if out is not None:
        _check_out(out, t.shape, t.dtype)
    np.clip(t, 0.0, 6.0, out=t)
    out = np.multiply(x, t, out=t if out is None else out)
    out /= 6.0
    return out


def hardswish_grad(x):
    """Derivative of hardswish: 0 below -3, 1 above +3, (2x+3)/6 between."""
    x = np.asarray(x)
    g = (2.0 * x + 3.0) / 6.0
    return np.where(x <= -3.0, 0.0, np.where(x >= 3.0, 1.0, g))


def sigmoid(x):
    x = np.asarray(x)
    out = np.empty_like(x, dtype=x.dtype if x.dtype.kind == "f" else np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def add_into(buf: np.ndarray, other) -> np.ndarray:
    """``buf + other``, written into ``buf`` when the sum keeps its dtype.

    ``buf`` must be a fresh array the caller owns, and ``other`` must
    broadcast to its shape. IEEE addition is commutative, so the result has
    the bits of ``other + buf`` as well.
    """
    if np.result_type(buf, other) == buf.dtype:
        buf += other
        return buf
    return buf + other


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """x @ w + b for token matrices [T, in] and weights [in, out]."""
    out = matmul(x, w)
    if b is not None:
        out = add_into(out, b)
    return out


def affine(x: np.ndarray, scale: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Per-channel scale and shift over the last axis (fused-norm form):
    ``x * scale + shift``.

    An [H, W, C] map runs on its [H, W*C] row view with the scale and shift
    tiled W times. Each element sees the same product and sum as under the
    broadcast, so the result is bit-identical, but NumPy no longer loops over
    a short last axis. The shift is added in place on the product, so the
    map needs one full-size buffer, not two.
    """
    if x.ndim == 3 and np.shape(scale) == np.shape(shift) == (x.shape[2],):
        h, w, c = x.shape
        # Tiled W times; repeating a [1, C] row costs a third of an np.tile call.
        scale = np.repeat(np.asarray(scale)[None], w, axis=0).reshape(w * c)
        shift = np.repeat(np.asarray(shift)[None], w, axis=0).reshape(w * c)
        return add_into(x.reshape(h, w * c) * scale, shift).reshape(h, w, c)
    return add_into(x * scale, shift)


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int):
    h, w, c = x.shape
    if padding:
        padded = np.zeros((h + 2 * padding, w + 2 * padding, c), dtype=x.dtype)
        padded[padding:padding + h, padding:padding + w] = x
    else:
        padded = np.ascontiguousarray(x)
    ph, pw = padded.shape[:2]
    oh = (ph - kh) // stride + 1
    ow = (pw - kw) // stride + 1
    s0, s1, s2 = padded.strides
    # The window view is built directly on the buffer: as_strided costs about
    # 5 us a call, a quarter of a small map's whole im2col. It is only read.
    windows = np.ndarray((oh, ow, kh, kw, c), padded.dtype, padded, 0,
                         (s0 * stride, s1 * stride, s0, s1, s2))
    return windows.reshape(oh * ow, kh * kw * c), oh, ow


def _kernel_extent(x: np.ndarray, kernel: np.ndarray) -> tuple[int, int]:
    if x.ndim != 3 or kernel.ndim != 4:
        raise ShapeError(f"conv2d expects HWC input and khkwCinCout kernel, got {x.shape}, {kernel.shape}")
    if x.shape[2] != kernel.shape[2]:
        raise ShapeError(f"conv2d channel mismatch: input has {x.shape[2]}, kernel expects {kernel.shape[2]}")
    return kernel.shape[:2]


def conv2d_many(x: np.ndarray, kernels, stride: int = 1, padding: int = 0) -> list[np.ndarray]:
    """2-D convolutions of one [H, W, Cin] map with each of several
    [kh, kw, Cin, Cout] kernels of one extent, on one shared im2col."""
    x = np.asarray(x)
    kernels = [np.asarray(k) for k in kernels]
    extents = {_kernel_extent(x, k) for k in kernels}
    if len(extents) != 1:
        raise ShapeError(f"conv2d_many needs kernels of one extent, got {sorted(extents)}")
    kh, kw = extents.pop()
    cols, oh, ow = _im2col(x, kh, kw, stride, padding)
    return [matmul(cols, k.reshape(-1, k.shape[3])).reshape(oh, ow, k.shape[3]) for k in kernels]


def conv2d(x: np.ndarray, kernel: np.ndarray, stride: int = 1, padding: int = 0) -> np.ndarray:
    """2-D convolution of an [H, W, Cin] map with a [kh, kw, Cin, Cout] kernel."""
    return conv2d_many(x, (kernel,), stride, padding)[0]


def conv_transpose2d(x: np.ndarray, kernel: np.ndarray, stride: int = 2, padding: int = 0) -> np.ndarray:
    """Transposed 2-D convolution (stride-2 upsampling in this codebase).

    Output spatial extents are ``stride * H + kh - stride - 2 * padding``; with
    kernel 2 / padding 0 or kernel 4 / padding 1 that is exactly ``2 * H``.
    """
    x = np.asarray(x)
    kernel = np.asarray(kernel)
    if x.ndim != 3 or kernel.ndim != 4:
        raise ShapeError(f"conv_transpose2d expects HWC input and khkwCinCout kernel, got {x.shape}, {kernel.shape}")
    kh, kw, cin, cout = kernel.shape
    h, w, c = x.shape
    if c != cin:
        raise ShapeError(f"conv_transpose2d channel mismatch: input has {c}, kernel expects {cin}")
    taps = matmul(x.reshape(h * w, cin), kernel.reshape(kh * kw, cin, cout)).reshape(kh, kw, h, w, cout)
    full_h = stride * (h - 1) + kh
    full_w = stride * (w - 1) + kw
    out = np.zeros((full_h, full_w, cout), dtype=taps.dtype)
    for di in range(kh):
        for dj in range(kw):
            out[di:di + stride * h:stride, dj:dj + stride * w:stride] += taps[di, dj]
    if padding:
        out = out[padding:full_h - padding, padding:full_w - padding]
    return out

