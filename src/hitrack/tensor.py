"""Dense-array kernels used by every layer of the tracker.

All kernels are pure functions on row-major NumPy arrays. Two accumulation
strategies are used for matrix products:

* float64 operands: explicit left-to-right accumulation over the contracted
  axis, bit-identical to a naive triple loop. This is the mode used by the
  oracle tests and the gradient checks.
* float32 operands: BLAS matmul, which is deterministic within a process but
  does not promise a particular summation order.

Multiply-accumulate counts are recorded into every ``MacCounter`` opened by
``count_macs`` in the current context, under the label of the innermost
``mac_scope`` (``"unscoped"`` outside any). Counters and labels are
context-local (``contextvars``): a counter sees only the work of its own
thread or context, and a new thread starts with no counter. Only
matrix-product work counts (convolutions are lowered to matmul); elementwise
ops, softmax and bias additions are free, matching the closed-form accounting
in :mod:`hitrack.evalbench`.
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
    """Matrix product of 2-D arrays with a deterministic summation order."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} x {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} x {b.shape}")
    m, k = a.shape
    n = b.shape[1]
    _record_macs(m * k * n)
    if a.dtype == np.float64 or b.dtype == np.float64:
        # Left-to-right accumulation over k: bit-exact vs. a naive triple loop.
        out = np.zeros((m, n), dtype=np.float64)
        for i in range(k):
            out += a[:, i, None] * b[i, :]
        return out
    return a @ b


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row softmax along the last axis, stabilised by max subtraction."""
    x = np.asarray(x)
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def hardswish(x):
    """x * clamp(x + 3, 0, 6) / 6, elementwise."""
    x = np.asarray(x)
    return x * np.clip(x + 3.0, 0.0, 6.0) / 6.0


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


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """x @ w + b for token matrices [T, in] and weights [in, out]."""
    out = matmul(x, w)
    if b is not None:
        out = out + b
    return out


def affine(x: np.ndarray, scale: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Per-channel scale and shift over the last axis (fused-norm form)."""
    return x * scale + shift


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int):
    h, w, c = x.shape
    if padding:
        padded = np.zeros((h + 2 * padding, w + 2 * padding, c), dtype=x.dtype)
        padded[padding:padding + h, padding:padding + w] = x
    else:
        padded = x
    ph, pw = padded.shape[:2]
    oh = (ph - kh) // stride + 1
    ow = (pw - kw) // stride + 1
    s0, s1, s2 = padded.strides
    windows = np.lib.stride_tricks.as_strided(
        padded,
        shape=(oh, ow, kh, kw, c),
        strides=(s0 * stride, s1 * stride, s0, s1, s2),
        writeable=False,
    )
    return windows.reshape(oh * ow, kh * kw * c), oh, ow


def conv2d(x: np.ndarray, kernel: np.ndarray, stride: int = 1, padding: int = 0) -> np.ndarray:
    """2-D convolution of an [H, W, Cin] map with a [kh, kw, Cin, Cout] kernel."""
    x = np.asarray(x)
    kernel = np.asarray(kernel)
    if x.ndim != 3 or kernel.ndim != 4:
        raise ShapeError(f"conv2d expects HWC input and khkwCinCout kernel, got {x.shape}, {kernel.shape}")
    kh, kw, cin, cout = kernel.shape
    if x.shape[2] != cin:
        raise ShapeError(f"conv2d channel mismatch: input has {x.shape[2]}, kernel expects {cin}")
    cols, oh, ow = _im2col(x, kh, kw, stride, padding)
    out = matmul(cols, kernel.reshape(kh * kw * cin, cout))
    return out.reshape(oh, ow, cout)


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
    k2d = kernel.transpose(2, 0, 1, 3).reshape(cin, kh * kw * cout)
    taps = matmul(x.reshape(h * w, cin), k2d).reshape(h, w, kh, kw, cout)
    full_h = stride * (h - 1) + kh
    full_w = stride * (w - 1) + kw
    out = np.zeros((full_h, full_w, cout), dtype=taps.dtype)
    for di in range(kh):
        for dj in range(kw):
            out[di:di + stride * h:stride, dj:dj + stride * w:stride] += taps[:, :, di, dj]
    if padding:
        out = out[padding:full_h - padding, padding:full_w - padding]
    return out

