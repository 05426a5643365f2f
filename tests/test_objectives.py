import numpy as np
import pytest

from hitrack import routing, runtime
from hitrack.backbone import embed_template, stage1_forward
from hitrack.errors import DataError, NumericError, ShapeError
from hitrack.objectives import (fit_router, giou, giou_with_grad, grad_check, hit_loss,
                                l1_with_grad, label_router_samples, label_router_targets,
                                mse_with_grad)

from conftest import make_separable_dataset


def random_box(rng, lo=0.0, hi=1.0):
    x = np.sort(rng.uniform(lo, hi, 2))
    y = np.sort(rng.uniform(lo, hi, 2))
    return np.array([x[0], y[0], x[1], y[1]])


class TestGiou:
    def test_identical_boxes(self):
        value, grad = giou_with_grad((0.1, 0.2, 0.5, 0.6), (0.1, 0.2, 0.5, 0.6))
        assert value == 1.0
        assert hit_loss((0.1, 0.2, 0.5, 0.6), (0.1, 0.2, 0.5, 0.6)) == 0.0

    def test_corner_touching_boxes(self):
        # I=0, U=2, C=4 -> 0 - (4-2)/4 = -0.5
        assert giou((0, 0, 1, 1), (1, 1, 2, 2)) == -0.5

    def test_nested_quarter(self):
        # I=1, U=4, C=4 -> 1/4 - 0 = 0.25
        assert giou((0, 0, 1, 1), (0, 0, 2, 2)) == 0.25

    def test_value_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = random_box(rng), random_box(rng)
            assert giou(a, b) == giou(b, a)

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            v = giou(random_box(rng), random_box(rng))
            assert -1.0 < v <= 1.0

    def test_both_degenerate(self):
        value, grad = giou_with_grad((0.5, 0.5, 0.5, 0.5), (0.2, 0.2, 0.2, 0.2))
        assert value == -1.0
        assert not grad.any()

    def test_one_degenerate_still_has_gradient(self):
        value, grad = giou_with_grad((0.5, 0.5, 0.5, 0.5), (0.1, 0.1, 0.4, 0.4))
        assert -1.0 < value <= 0.0
        assert grad.any()


class TestLosses:
    def test_hit_loss_weights_2_and_5(self):
        pred = (0.1, 0.1, 0.5, 0.5)
        gt = (0.2, 0.2, 0.6, 0.6)
        g = giou(pred, gt)
        l1 = abs(np.asarray(pred) - np.asarray(gt)).sum()
        assert hit_loss(pred, gt) == 2.0 * (1.0 - g) + 5.0 * l1

    def test_hit_loss_offset_case(self):
        # +0.1 in every coordinate: L1 term is exactly 5 * 0.4
        gt = (0.2, 0.2, 0.6, 0.6)
        pred = tuple(c + 0.1 for c in gt)
        g = giou(pred, gt)
        assert np.isclose(hit_loss(pred, gt), 2.0 * (1.0 - g) + 5.0 * 0.4, atol=1e-12)

    def test_losses_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            pred, gt = random_box(rng), random_box(rng)
            assert hit_loss(pred, gt) >= 0.0

    def test_map_size_mismatch(self):
        with pytest.raises(ShapeError):
            mse_with_grad(np.zeros((2, 2)), np.zeros((3, 3)))


class TestLabelRouterTargets:
    def test_gt_covering_crop_all_positive(self):
        targets, positive = label_router_targets((4, 4), (0, 0, 1, 1), (0, 0, 1, 1))
        assert positive.all()
        assert np.array_equal(targets, np.ones((4, 4)))

    def test_zero_area_gt_all_negative(self):
        targets, positive = label_router_targets((4, 4), (0.5, 0.5, 0.5, 0.5), (0, 0, 1, 1))
        assert not positive.any()
        assert not targets.any()

    def test_left_half_gets_route1_iou(self):
        gt = (0.0, 0.0, 0.5, 1.0)
        targets, positive = label_router_targets((4, 4), gt, gt)
        # cell-center oracle: centers (c+0.5)/4 in [0, 0.5] -> columns 0 and 1
        expect = np.zeros((4, 4), dtype=bool)
        expect[:, :2] = True
        assert np.array_equal(positive, expect)
        assert np.array_equal(targets, expect.astype(float))  # IoU(gt, gt) = 1

    def test_positive_value_is_route1_iou(self):
        gt = (0.0, 0.0, 0.5, 1.0)
        pred = (0.0, 0.0, 0.25, 1.0)  # IoU = 0.5
        targets, positive = label_router_targets((4, 4), gt, pred)
        assert np.allclose(targets[positive], 0.5)
        assert not targets[~positive].any()


def reference_labels(sequences, params, noisy_seeds=None):
    """The labelling loop written out: a fresh template embed per frame, the
    crop factors as literals, and Head1 or a noisy oracle as the fast route."""
    cfg = params.config
    feats, targs = [], []
    for si, seq in enumerate(sequences):
        gt = [tuple(b) for b in seq.boxes]
        if noisy_seeds is not None:
            noisy = routing.oracle_base_tracker(gt, 0.15, seed=noisy_seeds[si])
            noisy.init(seq.frames[0], gt[0])
        tpl, _ = runtime.crop_resize(seq.frames[0], gt[0], 2.0, cfg.template_size)
        for t in range(1, len(seq), 4):
            patch, mapping = runtime.crop_resize(seq.frames[t], gt[t - 1], 4.0, cfg.search_size)
            state = stage1_forward(embed_template(tpl, params), patch, params)
            if noisy_seeds is None:
                pred_crop = routing.route_head(state, params, routing.ROUTE1).corners
            else:
                pred = noisy.predict(t, seq.frames[t], gt[t - 1])
                pred_crop = runtime.map_box_to_crop(pred, mapping)
            targets, _ = label_router_targets(
                state.s_max.shape[:2], runtime.map_box_to_crop(gt[t], mapping), pred_crop)
            feats.append(state.s_max.reshape(-1, state.s_max.shape[2]))
            targs.append(targets.reshape(-1))
    return np.concatenate(feats), np.concatenate(targs)


class TestLabelRouterSamples:
    @pytest.fixture(scope="class")
    def suite(self):
        return [runtime.gen_synthetic(seed=300 + i, difficulty=d, length=10)
                for i, d in enumerate([0, 3])]

    @pytest.mark.parametrize("fast", ["head1"])
    def test_bytes_equal_reference_loop(self, toy_params, suite, fast):
        feats, targs = label_router_samples(suite, toy_params)
        ref_feats, ref_targs = reference_labels(suite, toy_params)
        assert feats.dtype == ref_feats.dtype and targs.dtype == ref_targs.dtype
        assert feats.tobytes() == ref_feats.tobytes()
        assert targs.tobytes() == ref_targs.tobytes()


class TestGradChecks:
    def test_quadratic_is_exact(self):
        # central differences have zero truncation error on a quadratic; only
        # roundoff remains, so a well-scaled point stays below 1e-9
        def quad(x):
            return float((x * x).sum()), 2.0 * x
        err = grad_check(quad, np.array([0.3, -1.2, 2.5, 0.7]), eps=1e-5)
        assert err < 1e-9

    def test_giou_gradient_on_random_boxes(self):
        rng = np.random.default_rng(4)
        checked = 0
        worst = 0.0
        while checked < 200:
            a, b = random_box(rng), random_box(rng)
            gaps = [abs(a[i] - b[j]) for i in range(4) for j in range(4)]
            if min(a[2] - a[0], a[3] - a[1], b[2] - b[0], b[3] - b[1]) < 1e-3 or min(gaps) < 1e-3:
                continue
            checked += 1
            worst = max(worst, grad_check(lambda x: giou_with_grad(x, b), a, eps=1e-6))
        assert worst <= 1e-4

    def test_l1_gradient_away_from_kinks(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(100):
            a, b = random_box(rng), random_box(rng)
            if np.abs(a - b).min() < 1e-3:
                continue
            worst = max(worst, grad_check(lambda x: l1_with_grad(x, b), a, eps=1e-7))
        assert worst <= 1e-6

    def test_mse_gradient(self):
        rng = np.random.default_rng(6)
        target = rng.uniform(0, 1, 16)
        err = grad_check(lambda x: mse_with_grad(x, target), rng.uniform(0, 1, 16), eps=1e-6)
        assert err < 1e-8


class TestFitRouter:
    def test_lr_zero_leaves_weights_unchanged(self):
        x, y = make_separable_dataset(seed=1, n=64, dim=8)
        w0, _ = fit_router(x, y, lr=0.0, epochs=0, seed=9, hidden=(6, 4))
        w5, _ = fit_router(x, y, lr=0.0, epochs=5, seed=9, hidden=(6, 4))
        for key in ("w1", "b1", "w2", "b2", "w3", "b3"):
            assert np.array_equal(getattr(w0, key), getattr(w5, key))

    def test_zero_epochs_is_the_seeded_draw(self):
        x, y = make_separable_dataset(seed=1, n=64, dim=8)
        w, losses = fit_router(x, y, lr=1e-2, epochs=0, seed=9, hidden=(6, 4))
        rng = np.random.default_rng(9)
        for key, shape in (("w1", (8, 6)), ("w2", (6, 4)), ("w3", (4, 1))):
            bound = 1.0 / np.sqrt(shape[0])
            want = rng.uniform(-bound, bound, size=shape)
            got = getattr(w, key)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), key
        for key, size in (("b1", 6), ("b2", 4), ("b3", 1)):
            assert getattr(w, key).tobytes() == np.zeros(size).tobytes(), key
        assert len(losses) == 1

    def test_separable_dispatch_accuracy(self):
        x, y = make_separable_dataset(seed=2)
        w, losses = fit_router(x, y, lr=1e-2, epochs=200, seed=0)
        scores = routing.router_apply(np.asarray(x, np.float64), w)
        accuracy = ((scores > 0.5) == (y > 0.5)).mean()
        assert accuracy >= 0.95

    def test_loss_decreases_recorded_run(self):
        x, y = make_separable_dataset(seed=3)
        _, losses = fit_router(x, y, lr=1e-2, epochs=200, seed=0)
        assert losses[-1] < losses[0]
        assert len(losses) == 201

    def test_non_finite_loss_aborts_with_epoch(self):
        x, y = make_separable_dataset(seed=4, n=64, dim=8)
        x[3, 2] = np.nan
        with pytest.raises(NumericError, match="epoch 0"):
            fit_router(x, y, lr=1e-2, epochs=50, seed=0, hidden=(6, 4))

    @pytest.mark.parametrize("lr", [-1.0, float("nan"), float("inf")])
    def test_bad_lr_rejected(self, lr):
        x, y = make_separable_dataset(seed=1, n=16, dim=4)
        with pytest.raises(DataError, match="lr must be a finite number >= 0"):
            fit_router(x, y, lr=lr, epochs=1, seed=0, hidden=(3, 2))

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            fit_router(np.zeros((0, 4)), np.zeros(0), 0.1, 1, 0)
