import tracemalloc

import numpy as np
import pytest

from hitrack import runtime
from hitrack.errors import DataError, NumericError, ShapeError
from hitrack.runtime import (CropMapping, crop_resize, gen_synthetic, load_frames,
                             map_box_to_crop, map_box_to_frame, read_boxes, read_ppm,
                             track_sequence, write_ppm, write_sequence)


def checker_frame(h=96, w=128, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 255, (h, w, 3)).astype(np.float32)


class TestCropResize:
    @pytest.mark.parametrize("shape", [(0, 0, 3), (0, 8, 3), (8, 0, 3)])
    def test_empty_frame_rejected(self, shape):
        with pytest.raises(ShapeError, match="empty"):
            crop_resize(np.zeros(shape, np.float32), (1.0, 1.0, 2.0, 2.0), 4.0, 32)

    def test_search_and_template_sizes(self):
        frame = checker_frame()
        box = (40.0, 30.0, 24.0, 18.0)
        search, ms = crop_resize(frame, box, 4.0, 256)
        template, mt = crop_resize(frame, box, 2.0, 128)
        assert search.shape == (256, 256, 3)
        assert template.shape == (128, 128, 3)
        assert np.isclose(ms.side, 4.0 * np.sqrt(24.0 * 18.0))
        assert np.isclose(mt.side, 2.0 * np.sqrt(24.0 * 18.0))

    def test_mapping_round_trips_corners(self):
        frame = checker_frame()
        box = (40.0, 30.0, 16.0, 16.0)  # side = 4*16 = 64, integer
        _, mapping = crop_resize(frame, box, 4.0, 128)
        corners = map_box_to_crop(box, mapping)
        back = map_box_to_frame(corners, mapping)
        assert max(abs(a - b) for a, b in zip(back, box)) < 0.5

    def test_interior_crop_matches_direct_sampling(self):
        # integer-aligned crop of an interior box reproduces frame pixels
        frame = checker_frame()
        box = (48.0, 32.0, 16.0, 16.0)
        patch, mapping = crop_resize(frame, box, 2.0, 32)
        x0, y0 = mapping.origin
        assert x0 == 40.0 and y0 == 24.0 and mapping.side == 32.0
        assert np.allclose(patch, frame[24:56, 40:72], atol=1e-4)

    def test_corner_box_padded_with_exact_channel_mean(self):
        frame = checker_frame()
        mean = frame.reshape(-1, 3).mean(axis=0)
        patch, mapping = crop_resize(frame, (0.0, 0.0, 10.0, 10.0), 4.0, 64)
        # top-left output pixel samples far outside the frame
        assert np.array_equal(patch[0, 0], mean)
        assert np.array_equal(patch[0, :8], np.tile(mean, (8, 1)))

    def test_zero_area_box_rejected(self):
        with pytest.raises(DataError):
            crop_resize(checker_frame(), (5.0, 5.0, 0.0, 3.0), 4.0, 64)

    def test_deterministic_bytes(self):
        frame = checker_frame()
        box = (31.7, 22.1, 17.3, 9.9)
        a, _ = crop_resize(frame, box, 4.0, 96)
        b, _ = crop_resize(frame, box, 4.0, 96)
        assert np.array_equal(a, b)


def reference_crop(frame, box_xywh, factor, out_size):
    """The four-gather bilinear crop, kept as the oracle for ``crop_resize``."""
    frame = np.asarray(frame)
    x, y, w, h = (float(v) for v in box_xywh)
    side = factor * np.sqrt(w * h)
    cx = x + w / 2.0
    cy = y + h / 2.0
    mapping = CropMapping((cx, cy), float(side))
    x0, y0 = mapping.origin

    fh, fw = frame.shape[:2]
    dtype = frame.dtype if frame.dtype.kind == "f" else np.float32
    img = frame.astype(dtype, copy=False)
    mean = img.reshape(-1, 3).mean(axis=0)

    # Sample coordinates in pixel-index space (pixel (r, c) centered at (c+.5, r+.5)).
    us = x0 + (np.arange(out_size) + 0.5) * side / out_size - 0.5
    vs = y0 + (np.arange(out_size) + 0.5) * side / out_size - 0.5
    c0 = np.floor(us).astype(np.int64)
    r0 = np.floor(vs).astype(np.int64)
    fu = (us - c0).astype(dtype)
    fv = (vs - r0).astype(dtype)

    def gather(rows, cols):
        rr = rows[:, None]
        cc = cols[None, :]
        valid = (rr >= 0) & (rr < fh) & (cc >= 0) & (cc < fw)
        vals = img[np.clip(rr, 0, fh - 1), np.clip(cc, 0, fw - 1)]
        vals = np.where(valid[:, :, None], vals, mean)
        return vals, valid

    p00, v00 = gather(r0, c0)
    p01, v01 = gather(r0, c0 + 1)
    p10, v10 = gather(r0 + 1, c0)
    p11, v11 = gather(r0 + 1, c0 + 1)
    wu = fu[None, :, None]
    wv = fv[:, None, None]
    patch = (1 - wv) * ((1 - wu) * p00 + wu * p01) + wv * ((1 - wu) * p10 + wu * p11)
    outside = ~(v00 | v01 | v10 | v11)
    patch[outside] = mean  # exact mean fill where no tap touches the frame
    return patch, mapping


BOX_KINDS = ("inside", "left", "right", "top", "bottom", "outside", "huge", "subpixel")


def random_box(rng, kind, factor, fh, fw):
    """A box whose ``factor`` crop lands where ``kind`` says, relative to the frame."""
    if kind == "huge":  # crop side at least 100x the larger frame extent
        w = h = 100.0 * max(fh, fw) * rng.uniform(1.0, 2.0) / factor
        cx, cy = rng.uniform(0, fw), rng.uniform(0, fh)
        return (cx - w / 2, cy - h / 2, w, h)
    if kind == "subpixel":
        w, h = rng.uniform(0.01, 0.5, 2)
        cx, cy = rng.uniform(-1.0, fw + 1.0), rng.uniform(-1.0, fh + 1.0)
        return (cx - w / 2, cy - h / 2, w, h)
    w, h = rng.uniform(1.0, min(fh, fw) / (2 * factor), 2)
    half = factor * np.sqrt(w * h) / 2
    cx, cy = rng.uniform(half + 1, fw - half - 1), rng.uniform(half + 1, fh - half - 1)
    if kind == "left":
        cx = rng.uniform(-half / 2, half / 2)
    elif kind == "right":
        cx = fw + rng.uniform(-half / 2, half / 2)
    elif kind == "top":
        cy = rng.uniform(-half / 2, half / 2)
    elif kind == "bottom":
        cy = fh + rng.uniform(-half / 2, half / 2)
    elif kind == "outside":
        cx = -half - rng.uniform(2.0, 50.0)
        cy = rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 2 * fh)
    return (cx - w / 2, cy - h / 2, w, h)


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


class TestCropMatchesReference:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint8])
    @pytest.mark.parametrize("out_size", [16, 64, 128, 256])
    def test_byte_identical_to_four_gather_reference(self, dtype, out_size):
        rng = np.random.default_rng(out_size * 10 + np.dtype(dtype).itemsize)
        for seed in range(2):
            fh, fw = rng.integers(24, 72, 2)
            frame = rng.uniform(0, 255, (fh, fw, 3)).astype(dtype)
            for factor in (2.0, 4.0):
                for kind in BOX_KINDS:
                    box = random_box(rng, kind, factor, fh, fw)
                    got, mapping = crop_resize(frame, box, factor, out_size)
                    want, expect = reference_crop(frame, box, factor, out_size)
                    assert mapping == expect
                    assert_same_bytes(got, want)

    def test_non_contiguous_frame(self):
        frame = checker_frame(h=80, w=120)[::2, ::3]
        for box in ((10.0, 5.0, 6.0, 4.0), (-3.0, 20.0, 9.0, 9.0)):
            assert_same_bytes(crop_resize(frame, box, 4.0, 64)[0],
                              reference_crop(frame, box, 4.0, 64)[0])

    @pytest.mark.parametrize("out_size", [16, 64])
    def test_huge_box_gathers_at_most_2out_squared_taps(self, monkeypatch, out_size):
        frame = checker_frame(h=600, w=800).astype(np.float64)
        counts = []
        tap_index = runtime._tap_index

        def counting(first):
            taps, inverse = tap_index(first)
            counts.append(len(taps))
            return taps, inverse

        monkeypatch.setattr(runtime, "_tap_index", counting)
        for box in ((-40000.0, -40000.0, 80000.0, 80000.0), (-100.0, -100.0, 1000.0, 800.0)):
            counts.clear()
            tracemalloc.start()
            try:
                patch, _ = crop_resize(frame, box, 4.0, out_size)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            n_rows, n_cols = counts
            assert n_rows * n_cols <= (2 * out_size) ** 2
            # the gathered block, not the frame, bounds what a crop allocates
            assert peak < 8 * (2 * out_size) ** 2 * 3 * frame.itemsize < frame.nbytes
            assert_same_bytes(patch, reference_crop(frame, box, 4.0, out_size)[0])


class TestFrameMean:
    """``_frame_mean`` sums with einsum, whose order NumPy does not document:
    it must give the bytes of the ``mean`` it replaced."""

    @staticmethod
    def frames():
        rng = np.random.default_rng(12)
        for hw in ((480, 640), (120, 160), (37, 53), (1, 1)):
            yield rng.uniform(0, 255, hw + (3,))
            yield rng.normal(128.0, 60.0, hw + (3,))
        yield from gen_synthetic(seed=14, difficulty=2, length=2, hw=(480, 640)).frames
        yield from gen_synthetic(seed=15, difficulty=3, length=2).frames
        yield rng.integers(0, 256, (96, 128, 3), dtype=np.uint8)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_equal_reshape_mean(self, dtype):
        for frame in self.frames():
            got = runtime._frame_mean(frame, dtype)
            want = frame.astype(dtype, copy=False).reshape(-1, 3).mean(axis=0)
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()


class TestCropReadsOnlyWhatItNeeds:
    def test_in_frame_crop_reads_neither_outside_pixels_nor_mean(self):
        frame = checker_frame()
        box = (50.3, 40.7, 6.2, 5.1)
        clean, mapping = crop_resize(frame, box, 4.0, 64)
        x0, y0 = mapping.origin
        c_lo = int(np.floor(x0 + 0.5 * mapping.side / 64 - 0.5))
        r_lo = int(np.floor(y0 + 0.5 * mapping.side / 64 - 0.5))
        c_hi = int(np.floor(x0 + 63.5 * mapping.side / 64 - 0.5)) + 1
        r_hi = int(np.floor(y0 + 63.5 * mapping.side / 64 - 0.5)) + 1
        assert 0 <= r_lo < r_hi < frame.shape[0] and 0 <= c_lo < c_hi < frame.shape[1]
        poisoned = np.full_like(frame, np.nan)
        poisoned[r_lo:r_hi + 1, c_lo:c_hi + 1] = frame[r_lo:r_hi + 1, c_lo:c_hi + 1]
        patch, _ = crop_resize(poisoned, box, 4.0, 64)
        assert_same_bytes(patch, clean)

    def test_straddling_crop_reads_the_mean(self):
        frame = checker_frame()
        frame[-1, -1, 0] = np.nan  # far from the crop, but inside the mean
        with pytest.raises(NumericError):
            crop_resize(frame, (0.0, 0.0, 10.0, 10.0), 4.0, 64)


class TestCropRejectsNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("pos", range(4))
    def test_non_finite_box_entry(self, bad, pos):
        box = [40.0, 30.0, 16.0, 12.0]
        box[pos] = bad
        with pytest.raises(NumericError):
            crop_resize(checker_frame(), box, 4.0, 64)

    def test_non_finite_tap(self):
        frame = checker_frame()
        frame[40, 50, 1] = np.inf
        with pytest.raises(NumericError):
            crop_resize(frame, (44.0, 34.0, 12.0, 12.0), 2.0, 32)

    @pytest.mark.parametrize("box", [(0.0, 0.0, 1e200, 1e200),   # side overflows to inf
                                     (1e300, 0.0, 10.0, 10.0),   # taps past int64
                                     (0.0, 0.0, 1e-300, 1e-300)])  # side underflows to 0
    def test_window_out_of_range(self, box):
        with pytest.raises(NumericError, match="out of range"):
            crop_resize(checker_frame(), box, 4.0, 64)


class TestMapBoxToFrame:
    def test_identity_mapping(self):
        m = CropMapping((32.0, 32.0), 64.0)
        assert map_box_to_frame((0.0, 0.0, 1.0, 1.0), m) == (0.0, 0.0, 64.0, 64.0)

    def test_center_box(self):
        m = CropMapping((50.0, 40.0), 20.0)
        x, y, w, h = map_box_to_frame((0.25, 0.25, 0.75, 0.75), m)
        assert np.isclose(x + w / 2, 50.0) and np.isclose(y + h / 2, 40.0)

    def test_random_round_trip(self):
        rng = np.random.default_rng(1)
        m = CropMapping((37.3, 91.2), 55.5)
        for _ in range(50):
            c = np.sort(rng.uniform(0, 1, 2))
            d = np.sort(rng.uniform(0, 1, 2))
            corners = (c[0], d[0], c[1], d[1])
            back = map_box_to_crop(map_box_to_frame(corners, m), m)
            assert max(abs(a - b) for a, b in zip(back, corners)) < 1e-6


class CenterOracle:
    """Predicts a centered box of the gt size, in crop coordinates."""

    def __init__(self, size):
        self.size = size

    def init(self, frame, box):
        self.box = box

    def step(self, frame, idx, prev_box):
        w, h = self.box[2], self.box[3]
        side = 4.0 * np.sqrt(w * h)
        half_w = w / side / 2.0
        half_h = h / side / 2.0
        corners = (0.5 - half_w, 0.5 - half_h, 0.5 + half_w, 0.5 + half_h)
        patch, mapping = crop_resize(frame, prev_box, 4.0, self.size)
        return map_box_to_frame(corners, mapping), None, 0.0


class TestTrackSequence:
    def test_protocol_counts(self):
        seq = gen_synthetic(seed=3, difficulty=0, length=8)
        result = track_sequence(list(seq.frames), tuple(seq.boxes[0]), CenterOracle(64))
        assert len(result.boxes) == 8
        assert result.boxes[0] == tuple(seq.boxes[0])
        assert len(result.decisions) == 7
        assert len(result.forward_seconds) == 7

    def test_static_target_constant_output(self):
        frame = checker_frame()
        frames = [frame] * 5
        box = (40.0, 30.0, 16.0, 16.0)
        result = track_sequence(frames, box, CenterOracle(64))
        for b in result.boxes[1:]:
            assert np.allclose(b, result.boxes[1], atol=1e-9)
            assert np.allclose(b, box, atol=1e-6)

    def test_gt_feed_differs_from_protocol(self, toy_params):
        # guards against ground-truth leakage: feeding gt crops every frame
        # must change results on a drifting sequence
        from hitrack.routing import make_tracker
        seq = gen_synthetic(seed=4, difficulty=2, length=10)
        frames, gt = list(seq.frames), [tuple(b) for b in seq.boxes]
        protocol = track_sequence(frames, gt[0], make_tracker("route1", toy_params))
        leak = make_tracker("route1", toy_params)
        leak.init(frames[0], gt[0])
        leaked = [gt[0]]
        for i in range(1, 10):
            box, _, _ = leak.step(frames[i], i, gt[i - 1])
            leaked.append(box)
        assert any(not np.allclose(a, b, atol=1e-9) for a, b in zip(protocol.boxes, leaked))

    def test_empty_sequence_rejected(self):
        with pytest.raises(DataError):
            track_sequence([], (0, 0, 1, 1), CenterOracle(64))

    def test_bad_init_box_rejected(self):
        with pytest.raises(DataError):
            track_sequence([checker_frame()], (0, 0, 0, 1), CenterOracle(64))

    def test_non_finite_init_box_rejected(self):
        with pytest.raises(NumericError):
            track_sequence([checker_frame()], (0.0, np.nan, 4.0, 4.0), CenterOracle(64))

    @staticmethod
    def failing_at_frame_2(exc):
        class Failing(CenterOracle):
            def step(self, frame, idx, prev_box):
                raise exc
        return Failing(64)

    def test_defect_in_step_propagates_unchanged(self):
        exc = ValueError("defect")
        with pytest.raises(ValueError) as info:
            track_sequence([checker_frame()] * 3, (40.0, 30.0, 16.0, 16.0),
                           self.failing_at_frame_2(exc))
        assert info.value is exc

    def test_package_error_in_step_names_frame(self):
        with pytest.raises(ShapeError, match="frame 2: bad extent"):
            track_sequence([checker_frame()] * 3, (40.0, 30.0, 16.0, 16.0),
                           self.failing_at_frame_2(ShapeError("bad extent")))

    def test_numeric_error_in_step_propagates(self):
        bad = checker_frame()
        bad[:] = np.nan
        with pytest.raises(NumericError, match="^tracker failed at frame 2: non-finite pixel"):
            track_sequence([checker_frame(), bad], (40.0, 30.0, 16.0, 16.0), CenterOracle(64))


class TestGenSynthetic:
    def test_same_seed_bit_identical(self):
        a = gen_synthetic(seed=9, difficulty=2, length=6)
        b = gen_synthetic(seed=9, difficulty=2, length=6)
        assert np.array_equal(a.frames, b.frames)
        assert np.array_equal(a.boxes, b.boxes)

    def test_difficulty_zero_no_distractors(self):
        # with no distractor only the target moves, so the pixels outside
        # every target box are the same background in each frame
        for difficulty, static in ((0, True), (1, False)):
            seq = gen_synthetic(seed=10, difficulty=difficulty, length=4)
            outside = np.ones(seq.frames.shape[1:3], dtype=bool)
            for x, y, w, h in seq.boxes.astype(int):
                outside[y:y + h, x:x + w] = False
            assert np.array_equal(seq.frames[0][outside], seq.frames[-1][outside]) == static

    def test_boxes_always_inside_frame(self):
        for difficulty in (0, 3):
            seq = gen_synthetic(seed=11, difficulty=difficulty, length=30)
            h, w = seq.frames.shape[1:3]
            assert (seq.boxes[:, 0] >= 0).all() and (seq.boxes[:, 1] >= 0).all()
            assert (seq.boxes[:, 0] + seq.boxes[:, 2] <= w).all()
            assert (seq.boxes[:, 1] + seq.boxes[:, 3] <= h).all()

    def test_bad_length_rejected(self):
        with pytest.raises(DataError):
            gen_synthetic(seed=0, difficulty=0, length=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(DataError, match="seed must be >= 0"):
            gen_synthetic(seed=-1, difficulty=0, length=5)

    @pytest.mark.parametrize("hw", [(32, 32), (32, 1000), (1000, 32)])
    def test_minimum_side_fits_every_difficulty(self, hw):
        for seed in range(10):
            for difficulty in range(4):
                seq = gen_synthetic(seed=seed, difficulty=difficulty, length=20, hw=hw)
                assert (seq.boxes[:, 0] + seq.boxes[:, 2] <= hw[1]).all()
                assert (seq.boxes[:, 1] + seq.boxes[:, 3] <= hw[0]).all()


def reference_smooth_noise(rng, h, w, cell=8):
    """The whole-frame background noise ``gen_synthetic`` was first written with."""
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


def reference_draw_rect(frame, cx, cy, w, h, color, rng, jitter):
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


def reference_gen_synthetic(seed, difficulty, length, hw):
    """``gen_synthetic`` as first written: whole-frame temporaries, each frame
    drawn on a copy of the background and copied into the sequence."""
    h, w = hw
    rng = np.random.default_rng(seed)
    clutter = 0.15 + 0.1 * difficulty
    motion = 2.0 + 2.0 * difficulty
    base = rng.uniform(60.0, 140.0, size=3)
    texture = reference_smooth_noise(rng, h, w) * 80.0 * clutter
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
    for _ in range(difficulty):
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
            reference_draw_rect(frame, state[0], state[1], dw, dh, dcolor, rng, 6.0)
            advance(state, dw, dh)
        boxes[t] = reference_draw_rect(frame, target[0], target[1], tw, th, target_color, rng, 4.0)
        advance(target, tw, th)
        frames[t] = frame
    return frames, boxes


class TestGenSyntheticMatchesReference:
    """The generator draws in place and builds its background in row blocks:
    it must give the bytes of the whole-frame generator it replaced."""

    @staticmethod
    def assert_matches(seed, difficulty, length, hw):
        seq = gen_synthetic(seed, difficulty, length, hw=hw)
        frames, boxes = reference_gen_synthetic(seed, difficulty, length, hw)
        assert_same_bytes(seq.frames, frames)
        assert_same_bytes(seq.boxes, boxes)

    # 480 and 120 rows fill whole and partial last blocks; 33 and 37 leave
    # one and five rows in the last block
    @pytest.mark.parametrize("hw", [(480, 640), (120, 160), (33, 47), (37, 1000)])
    def test_same_bytes(self, hw):
        for seed, difficulty in ((0, 0), (3, 1), (17, 2), (500_001, 3)):
            self.assert_matches(seed, difficulty, 1, hw)
        self.assert_matches(5, 3, 25, hw)

    @pytest.mark.parametrize("rows", [1, 3, 7, 1000])
    def test_block_size_does_not_change_bytes(self, monkeypatch, rows):
        monkeypatch.setattr(runtime, "_NOISE_ROWS", rows)
        for hw in ((120, 160), (37, 1000)):
            self.assert_matches(9, 2, 2, hw)

    def test_scratch_is_bounded(self):
        tracemalloc.start()
        try:
            seq = gen_synthetic(1, 3, 25, hw=(480, 640))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the frames plus one float32 background and a few blocks of rows
        assert peak - seq.frames.nbytes < 8 * 2**20


class TestSequenceIo:
    def test_ppm_round_trip(self, tmp_path):
        frame = checker_frame(h=17, w=23)
        path = tmp_path / "f.ppm"
        write_ppm(path, frame)
        again = read_ppm(path)
        assert np.array_equal(again, np.clip(frame, 0, 255).astype(np.uint8).astype(np.float32))

    def test_sequence_round_trip_lexicographic(self, tmp_path):
        seq = gen_synthetic(seed=13, difficulty=1, length=12)
        write_sequence(tmp_path / "seq", seq)
        frames = load_frames(tmp_path / "seq")
        assert len(frames) == 12
        expect = np.clip(seq.frames[11], 0, 255).astype(np.uint8).astype(np.float32)
        assert np.array_equal(frames[11], expect)
        gt = read_boxes(tmp_path / "seq" / "groundtruth.txt")
        assert len(gt) == 12

    def test_boxes_file_errors(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1,2,3\n")
        with pytest.raises(DataError, match=":1:"):
            read_boxes(path)
        path.write_text("")
        with pytest.raises(DataError):
            read_boxes(path)

    def test_ppm_rejects_other_formats(self, tmp_path):
        path = tmp_path / "f.ppm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
        with pytest.raises(DataError):
            read_ppm(path)

    def test_ppm_non_integer_header_field(self, tmp_path):
        path = tmp_path / "f.ppm"
        path.write_bytes(b"P6\nabc 2\n255\n")
        with pytest.raises(DataError, match="f.ppm.*'abc'"):
            read_ppm(path)

    def test_ppm_truncated_header(self, tmp_path):
        path = tmp_path / "f.ppm"
        path.write_bytes(b"P6\n4")
        with pytest.raises(DataError, match="f.ppm.*header ends"):
            read_ppm(path)

    @pytest.mark.parametrize("size", [b"0 0", b"0 4", b"4 0"])
    def test_ppm_empty_image_rejected(self, tmp_path, size):
        path = tmp_path / "f.ppm"
        path.write_bytes(b"P6\n" + size + b"\n255\n")
        with pytest.raises(DataError, match="f.ppm.*empty"):
            read_ppm(path)

    def test_missing_frames_dir(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(DataError):
            load_frames(tmp_path / "empty")
