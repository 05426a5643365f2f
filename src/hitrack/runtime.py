"""Inference protocol: crops, coordinate mapping, tracking loop, synthetic data.

Crops follow the area-based context rule: a square window of side
``factor * sqrt(w * h)`` centered on the box (factor 2 for the template,
factor 4 for the search region), bilinearly resampled with half-pixel centers
to the configured input size. The resample is separable: each distinct tap
row and tap column is gathered once, a horizontal lerp runs once per tap row
and a vertical lerp finishes each output row, so the work is bounded by the
output size however large the box is. Taps outside the frame read the
per-channel frame mean, and samples falling entirely outside the frame are
filled with it exactly; the mean is computed only when some tap leaves the
frame. Non-finite boxes, and non-finite pixels among the values a crop reads,
raise ``NumericError``. Crops stay in the frame's 0-255 pixel units; the
network's patch embed normalises them (see :mod:`hitrack.backbone`).

``track_sequence`` implements the per-frame protocol: the template is taken
once from the first frame, every later frame is cropped around the previous
output box, and the raw head output is mapped back to frame pixels with no
post-processing. Per-frame forward time is recorded by the tracker itself so
benchmarks can exclude crop and resize work.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, NumericError, ShapeError


@dataclass(frozen=True)
class CropMapping:
    """Invertible affine between crop-normalized and frame-pixel coordinates."""

    center: tuple[float, float]
    side: float
    out_size: int

    @property
    def origin(self) -> tuple[float, float]:
        return (self.center[0] - self.side / 2.0, self.center[1] - self.side / 2.0)


def _tap_index(first):
    """Distinct taps ``first`` and ``first + 1`` along one axis, sorted.

    Returns the taps and, for each of the ``2 * len(first)`` samples (all
    ``first`` taps, then all ``first + 1`` taps), its index into them.
    """
    return np.unique(np.concatenate((first, first + 1)), return_inverse=True)


def _frame_mean(frame: np.ndarray, dtype) -> np.ndarray:
    """Per-channel mean of an HxWx3 frame in ``dtype``, bit-equal to
    ``frame.astype(dtype).reshape(-1, 3).mean(axis=0)``.

    ``einsum`` sums the [H*W, 3] view about 5x faster than ``mean`` on a
    480x640 frame. NumPy documents the summation order of neither; a test
    holds the two to the same bytes. The division is ``mean``'s own: by an
    intp count, cast back to ``dtype``.
    """
    flat = frame.astype(dtype, copy=False).reshape(-1, 3)
    total = np.einsum("ij->j", flat)
    return np.true_divide(total, np.intp(len(flat)), out=total, casting="unsafe")


def crop_resize(frame: np.ndarray, box_xywh, factor: float, out_size: int):
    """Square context crop around a box, resized to ``out_size``.

    Returns the patch (float32/float64 HxWx3, matching the frame dtype) and
    the CropMapping needed to take predictions back to frame pixels.
    """
    frame = np.asarray(frame)
    if frame.ndim != 3 or frame.shape[2] != 3:
        raise ShapeError(f"frames are HxWx3, got {frame.shape}")
    if frame.size == 0:
        raise ShapeError(f"cannot crop an empty {frame.shape[0]}x{frame.shape[1]} frame")
    x, y, w, h = (float(v) for v in box_xywh)
    if not np.isfinite((x, y, w, h)).all():
        raise NumericError(f"cannot crop around a non-finite box {box_xywh}")
    if w <= 0.0 or h <= 0.0:
        raise DataError(f"cannot crop around a zero-area box {box_xywh}")
    side = factor * np.sqrt(w * h)
    cx = x + w / 2.0
    cy = y + h / 2.0
    mapping = CropMapping((cx, cy), float(side), int(out_size))
    x0, y0 = mapping.origin

    fh, fw = frame.shape[:2]
    dtype = frame.dtype if frame.dtype.kind == "f" else np.float32

    # Sample coordinates in pixel-index space (pixel (r, c) centered at (c+.5, r+.5)).
    us = x0 + (np.arange(out_size) + 0.5) * side / out_size - 0.5
    vs = y0 + (np.arange(out_size) + 0.5) * side / out_size - 0.5
    c0 = np.floor(us).astype(np.int64)
    r0 = np.floor(vs).astype(np.int64)
    fu = (us - c0).astype(dtype)
    fv = (vs - r0).astype(dtype)

    # Gather every distinct tap row x tap column once; taps off the frame read the mean.
    rows, ri = _tap_index(r0)
    cols, ci = _tap_index(c0)
    # A flat-index take on the [H*W, 3] pixel view gathers the block 2-3x
    # faster than the 2-D fancy index, which stays for frames with no such view.
    rr = np.clip(rows, 0, fh - 1)
    cc = np.clip(cols, 0, fw - 1)
    if frame.flags.c_contiguous:
        block = frame.reshape(fh * fw, 3).take(rr[:, None] * fw + cc, axis=0)
    else:
        block = frame[rr[:, None], cc]
    block = block.astype(dtype, copy=False)
    row_in = (rows >= 0) & (rows < fh)
    col_in = (cols >= 0) & (cols < fw)
    fill = not (row_in.all() and col_in.all())
    if fill:
        mean = _frame_mean(frame, dtype)
        block[~row_in] = mean
        block[:, ~col_in] = mean
    if not np.isfinite(block).all():
        raise NumericError("non-finite pixel values in the crop window")

    # Horizontal lerp once per tap row, then vertical lerp. Rows are laid out
    # as (column, channel) so each product runs along a contiguous row. Both
    # lerps run in place: the same products and sum as (1 - w) * a + w * b,
    # with no temporary per operand.
    n = out_size
    wu = np.repeat(fu, 3)
    wv = fv[:, None]
    lerp_u = np.take(block, ci[:n], axis=1).reshape(len(rows), 3 * n)
    right = np.take(block, ci[n:], axis=1).reshape(len(rows), 3 * n)
    lerp_u *= 1 - wu
    right *= wu
    lerp_u += right
    patch = np.take(lerp_u, ri[:n], axis=0)
    bottom = np.take(lerp_u, ri[n:], axis=0)
    patch *= 1 - wv
    bottom *= wv
    patch += bottom
    patch = patch.reshape(n, n, 3)
    if fill:  # exact mean fill where no tap touches the frame
        patch[~(row_in[ri[:n]] | row_in[ri[n:]])] = mean
        patch[:, ~(col_in[ci[:n]] | col_in[ci[n:]])] = mean
    return patch, mapping


def map_box_to_frame(corners_norm, mapping: CropMapping):
    """Normalized crop corners -> frame-pixel (x, y, w, h)."""
    x1, y1, x2, y2 = (float(v) for v in corners_norm)
    ox, oy = mapping.origin
    s = mapping.side
    return (ox + x1 * s, oy + y1 * s, (x2 - x1) * s, (y2 - y1) * s)


def map_box_to_crop(box_xywh, mapping: CropMapping):
    """Frame-pixel (x, y, w, h) -> normalized crop corners."""
    x, y, w, h = (float(v) for v in box_xywh)
    ox, oy = mapping.origin
    s = mapping.side
    return ((x - ox) / s, (y - oy) / s, (x + w - ox) / s, (y + h - oy) / s)


@dataclass
class TrackResult:
    boxes: list[tuple[float, float, float, float]]
    decisions: list
    forward_seconds: list[float]


def track_sequence(frames, init_box, tracker) -> TrackResult:
    """Run a tracker over a sequence; box 1 is the init box by protocol."""
    frames = list(frames)
    if not frames:
        raise DataError("empty sequence")
    x, y, w, h = (float(v) for v in init_box)
    if not np.isfinite((x, y, w, h)).all():
        raise NumericError(f"init box {init_box} is not finite")
    if w <= 0 or h <= 0:
        raise DataError(f"init box {init_box} has no area")
    tracker.init(frames[0], (x, y, w, h))
    boxes = [(x, y, w, h)]
    decisions = []
    times = []
    for idx, frame in enumerate(frames[1:], start=1):
        try:
            box, decision, dt = tracker.step(frame, idx, boxes[-1])
        except NumericError:
            raise
        except Exception as exc:
            raise DataError(f"tracker failed at frame {idx + 1}: {exc}") from exc
        boxes.append(tuple(float(v) for v in box))
        decisions.append(decision)
        times.append(dt)
    return TrackResult(boxes, decisions, times)


@dataclass
class SyntheticSequence:
    """Seeded toy footage: textured background, one walking target, distractors."""

    frames: np.ndarray          # [T, H, W, 3] float32 in [0, 255]
    boxes: np.ndarray           # [T, 4] (x, y, w, h) frame pixels
    seed: int
    n_distractors: int
    clutter: float
    motion: float

    def __len__(self) -> int:
        return self.frames.shape[0]


def _smooth_noise(rng, h, w, cell=8):
    coarse = rng.uniform(-1.0, 1.0, size=(h // cell + 2, w // cell + 2, 3))
    ys = np.linspace(0, coarse.shape[0] - 1.001, h)
    xs = np.linspace(0, coarse.shape[1] - 1.001, w)
    y0 = ys.astype(int)
    x0 = xs.astype(int)
    fy = (ys - y0)[:, None, None]
    fx = (xs - x0)[None, :, None]
    a = coarse[y0][:, x0]
    b = coarse[y0][:, x0 + 1]
    c = coarse[y0 + 1][:, x0]
    d = coarse[y0 + 1][:, x0 + 1]
    return (1 - fy) * ((1 - fx) * a + fx * b) + fy * ((1 - fx) * c + fx * d)


def _draw_rect(frame, cx, cy, w, h, color, rng, jitter):
    fh, fw = frame.shape[:2]
    x1 = int(round(cx - w / 2.0))
    y1 = int(round(cy - h / 2.0))
    x1 = min(max(x1, 0), fw - int(w))
    y1 = min(max(y1, 0), fh - int(h))
    x2 = x1 + int(w)
    y2 = y1 + int(h)
    patch = color + jitter * rng.standard_normal((y2 - y1, x2 - x1, 3))
    frame[y1:y2, x1:x2] = np.clip(patch, 0.0, 255.0)
    return (float(x1), float(y1), float(x2 - x1), float(y2 - y1))


MIN_SYNTH_SIDE = 32


def gen_synthetic(seed: int, difficulty: int, length: int, hw=(120, 160),
                  blur: bool = False) -> SyntheticSequence:
    """Deterministic synthetic sequence; difficulty scales the three knobs:

    distractor count = difficulty, background clutter = 0.15 + 0.1*difficulty,
    motion amplitude = 2 + 2*difficulty pixels per frame.

    Both frame sides must be at least ``MIN_SYNTH_SIDE`` pixels: the target
    is at least 10 pixels on a side and distractors up to 1.2x larger, so
    smaller frames cannot always hold them.
    """
    if length < 1:
        raise DataError(f"length must be >= 1, got {length}")
    if difficulty < 0:
        raise DataError(f"difficulty must be >= 0, got {difficulty}")
    h, w = int(hw[0]), int(hw[1])
    if min(h, w) < MIN_SYNTH_SIDE:
        raise DataError(f"synthetic frames need sides of at least {MIN_SYNTH_SIDE} pixels, got {h}x{w}")
    rng = np.random.default_rng(seed)
    n_distractors = int(difficulty)
    clutter = 0.15 + 0.1 * difficulty
    motion = 2.0 + 2.0 * difficulty

    base = rng.uniform(60.0, 140.0, size=3)
    texture = _smooth_noise(rng, h, w) * 80.0 * clutter
    background = np.clip(base + texture, 0.0, 255.0).astype(np.float32)

    target_color = np.clip(base + rng.choice([-1.0, 1.0]) * rng.uniform(60.0, 90.0, size=3), 0.0, 255.0)
    tw = float(rng.integers(max(10, w // 8), max(12, w // 5)))
    th = float(rng.integers(max(10, h // 8), max(12, h // 5)))

    def init_walker(margin_w, margin_h):
        cx = rng.uniform(margin_w, w - margin_w)
        cy = rng.uniform(margin_h, h - margin_h)
        vel = rng.uniform(-1.0, 1.0, size=2)
        return [cx, cy, vel[0], vel[1]]

    target = init_walker(tw, th)
    distractors = []
    for _ in range(n_distractors):
        dw = tw * rng.uniform(0.8, 1.2)
        dh = th * rng.uniform(0.8, 1.2)
        dcolor = np.clip(target_color + rng.uniform(-15, 15, size=3), 0.0, 255.0)
        distractors.append((init_walker(dw, dh), dw, dh, dcolor))

    def advance(state, bw, bh):
        state[2] = 0.85 * state[2] + motion * 0.4 * rng.standard_normal()
        state[3] = 0.85 * state[3] + motion * 0.4 * rng.standard_normal()
        state[0] = float(np.clip(state[0] + state[2], bw / 2 + 1, w - bw / 2 - 1))
        state[1] = float(np.clip(state[1] + state[3], bh / 2 + 1, h - bh / 2 - 1))

    frames = np.empty((length, h, w, 3), dtype=np.float32)
    boxes = np.empty((length, 4), dtype=np.float64)
    for t in range(length):
        frame = background.copy()
        for state, dw, dh, dcolor in distractors:
            _draw_rect(frame, state[0], state[1], dw, dh, dcolor, rng, 6.0)
            advance(state, dw, dh)
        boxes[t] = _draw_rect(frame, target[0], target[1], tw, th, target_color, rng, 4.0)
        advance(target, tw, th)
        if blur:
            padded = np.pad(frame, ((1, 1), (1, 1), (0, 0)), mode="edge")
            acc = np.zeros_like(frame)
            for dy in range(3):
                for dx in range(3):
                    acc += padded[dy:dy + h, dx:dx + w]
            frame = acc / 9.0
        frames[t] = frame
    return SyntheticSequence(frames, boxes, seed, n_distractors, clutter, motion)


# Sequence and box-file input/output. Frames are stored as binary PPM (P6),
# a lossless raster format, named so lexicographic order is frame order.

def write_ppm(path, frame: np.ndarray) -> None:
    arr = np.clip(np.asarray(frame), 0.0, 255.0).astype(np.uint8)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ShapeError(f"PPM frames are HxWx3, got {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(f"P6\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(b"P6"):
        raise DataError(f"{path}: not a binary PPM (P6) file")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if blob[pos:pos + 1] == b"#":
            while pos < len(blob) and blob[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        token = blob[start:pos]
        if not token:
            raise DataError(f"{path}: PPM header ends before width, height and maxval")
        if not token.isdigit():
            raise DataError(f"{path}: PPM header field {token.decode('latin-1')!r} is not an integer")
        fields.append(int(token))
    pos += 1  # single whitespace after maxval
    width, height, maxval = fields
    if maxval != 255:
        raise DataError(f"{path}: unsupported maxval {maxval}")
    if width == 0 or height == 0:
        raise DataError(f"{path}: empty {width}x{height} image")
    need = width * height * 3
    data = blob[pos:pos + need]
    if len(data) != need:
        raise DataError(f"{path}: truncated pixel data")
    return np.frombuffer(data, dtype=np.uint8).reshape(height, width, 3).astype(np.float32)


def write_sequence(directory, seq: SyntheticSequence) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i in range(len(seq)):
        write_ppm(directory / f"{i + 1:06d}.ppm", seq.frames[i])
    write_boxes(directory / "groundtruth.txt", seq.boxes)


def load_frames(directory) -> list[np.ndarray]:
    directory = Path(directory)
    paths = sorted(p for p in directory.iterdir() if p.suffix.lower() == ".ppm")
    if not paths:
        raise DataError(f"{directory}: no .ppm frames found")
    return [read_ppm(p) for p in paths]


def write_boxes(path, boxes) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for box in boxes:
            x, y, w, h = (float(v) for v in box)
            fh.write(f"{x:.4f},{y:.4f},{w:.4f},{h:.4f}\n")


def read_boxes(path):
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.replace(";", ",").split(",")
            if len(parts) != 4:
                raise DataError(f"{path}:{lineno}: expected 'x,y,w,h', got {line!r}")
            try:
                box = tuple(float(p) for p in parts)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            if not np.isfinite(box).all():
                raise NumericError(f"{path}:{lineno}: non-finite box {line!r}")
            out.append(box)
    if not out:
        raise DataError(f"{path}: no boxes")
    return out
