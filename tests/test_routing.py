from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import hitrack
from hitrack import routing, runtime
from hitrack.backbone import embed_template, stage1_forward
from hitrack.boxes import iou_xywh
from hitrack.errors import DataError, NumericError, ShapeError
from hitrack.evalbench import flop_account
from hitrack.routing import (ROUTE1, ROUTE2, Tracker, file_base_tracker, forward, make_tracker,
                             oracle_base_tracker, route_decision, route_head, router_score)
from hitrack.tensor import count_macs
from hitrack.weights import RouterWeights, init_weights, named_arrays


def logit(p):
    return np.log(p / (1.0 - p))


def make_identity_router():
    """One input channel passed through to the sigmoid: score = sigmoid(x).

    A +100 shift keeps the hidden activations in hardswish's exact-identity
    region (x >= 3); the last bias removes it again.
    """
    w1 = np.zeros((1, 2)); w1[0, 0] = 1.0
    w2 = np.zeros((2, 2)); w2[0, 0] = 1.0
    w3 = np.zeros((2, 1)); w3[0, 0] = 1.0
    b1 = np.array([100.0, 0.0])
    b3 = np.array([-100.0])
    return RouterWeights(w1, b1, w2, np.zeros(2), w3, b3)


def scores_to_features(scores):
    """Feature map whose router scores equal ``scores`` under the identity router.

    hardswish is identity for values >= 3, so route logits through +-shifts.
    """
    arr = np.asarray(scores, dtype=np.float64)
    return logit(arr)[..., None]


class TestRouterScore:
    def test_mean_of_scores_above_threshold(self):
        # scores {0.9, 0.7, 0.5, 0.3} with tau 0.6 pools to mean{0.9, 0.7}
        w = make_identity_router()
        feats = scores_to_features([[0.9, 0.7], [0.5, 0.3]])
        smap, f, fallback = router_score(feats, w, 0.6)
        assert smap.shape == (2, 2)
        assert np.allclose(np.sort(smap.reshape(-1)), [0.3, 0.5, 0.7, 0.9], atol=1e-9)
        assert np.isclose(f, 0.8, atol=1e-9)
        assert not fallback

    def test_all_equal_scores(self):
        w = make_identity_router()
        smap, f, fallback = router_score(scores_to_features([[0.95, 0.95], [0.95, 0.95]]), w, 0.6)
        assert np.isclose(f, 0.95, atol=1e-9) and not fallback

    def test_fallback_mean_of_all(self):
        w = make_identity_router()
        smap, f, fallback = router_score(scores_to_features([[0.2, 0.4], [0.3, 0.1]]), w, 0.6)
        assert fallback
        assert np.isclose(f, 0.25, atol=1e-9)

    def test_scores_strictly_inside_unit_interval(self, toy_params):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((8, 8, 32)).astype(np.float32) * 50
        smap, f, _ = router_score(feats, toy_params.router, toy_params.config.tau_fg)
        assert ((smap > 0) & (smap < 1)).all()
        assert 0.0 < f < 1.0

    def test_base_config_emits_256_scores(self):
        rng = np.random.default_rng(1)
        base = hitrack.make_config("base")
        router = init_weights(hitrack.make_config("toy"), 0).router  # wrong dims on purpose
        with pytest.raises(ShapeError):
            router_score(rng.standard_normal((16, 16, base.channels[0])), router, base.tau_fg)
        router = init_weights(base, 0).router
        smap, _, _ = router_score(rng.standard_normal((16, 16, base.channels[0])).astype(np.float32),
                                  router, base.tau_fg)
        assert smap.size == 256

    def test_route_decision_tie_goes_full(self):
        w = make_identity_router()
        feats = scores_to_features([[0.7, 0.7], [0.7, 0.7]])
        _, f, _ = router_score(feats, w, 0.6)
        d = route_decision(feats, w, 0.6, threshold=f)
        assert d.route == routing.ROUTE2
        assert d.f == f


class TestDispatch:
    def test_t0_bit_identical_to_route1(self, toy_params, toy_pair):
        pred, decision = forward(*toy_pair, toy_params, threshold=0.0)
        alone, _ = forward(*toy_pair, toy_params, route=ROUTE1)
        assert decision.route == routing.ROUTE1
        assert pred.corners == alone.corners
        assert np.array_equal(pred.tl_heatmap, alone.tl_heatmap)
        assert np.array_equal(pred.br_heatmap, alone.br_heatmap)

    def test_t1_bit_identical_to_full(self, toy_params, toy_pair):
        pred, decision = forward(*toy_pair, toy_params, threshold=1.0)
        alone, _ = forward(*toy_pair, toy_params, route=ROUTE2)
        assert decision.route == routing.ROUTE2
        assert pred.corners == alone.corners
        assert np.array_equal(pred.tl_heatmap, alone.tl_heatmap)

    def test_route1_when_f_above_threshold(self, toy_params, toy_pair):
        state = stage1_forward(embed_template(toy_pair[0], toy_params), toy_pair[1], toy_params)
        d = route_decision(state.s_max, toy_params.router, toy_params.config.tau_fg, 0.5)
        t = d.f - 0.05
        pred, decision = forward(*toy_pair, toy_params, threshold=t)
        assert decision.route == routing.ROUTE1
        assert pred.corners == route_head(state, toy_params, ROUTE1).corners

    def test_threshold_out_of_range(self, toy_params, toy_pair):
        with pytest.raises(DataError):
            forward(*toy_pair, toy_params, threshold=1.5)

    @pytest.mark.parametrize("route", [None, ROUTE1, ROUTE2])
    @pytest.mark.parametrize("t", [-0.1, 1.5, float("nan")])
    def test_threshold_rejected_on_every_route(self, toy_params, toy_pair, route, t):
        with pytest.raises(DataError, match="threshold"):
            forward(*toy_pair, toy_params, route=route, threshold=t)
        with pytest.raises(DataError, match="threshold"):
            Tracker(toy_params, t, route=route)

    def test_route_decision_rejects_nan_threshold(self):
        feats = scores_to_features([[0.7, 0.2], [0.1, 0.9]])
        with pytest.raises(DataError, match="threshold"):
            route_decision(feats, make_identity_router(), 0.6, float("nan"))

    def test_unknown_route_rejected(self, toy_params, toy_pair):
        with pytest.raises(DataError, match="route"):
            forward(*toy_pair, toy_params, route="route3")

    def test_monotone_route1_usage_on_fixed_scores(self):
        # dispatch on a fixed score sequence: route1 fraction never increases in T
        w = make_identity_router()
        rng = np.random.default_rng(2)
        fs = []
        for _ in range(40):
            feats = scores_to_features(rng.uniform(0.05, 0.95, size=(3, 3)))
            fs.append(router_score(feats, w, 0.6)[1])
        fractions = []
        for t in np.linspace(0, 1, 11):
            fractions.append(np.mean([f > t for f in fs]))
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))


def nan_router_params(params):
    return replace(params, router=replace(params.router, b3=np.array([np.nan], np.float32)))


class TestNonFiniteRouterScore:
    def test_route_decision_raises(self, toy_params, toy_pair):
        state = stage1_forward(embed_template(toy_pair[0], toy_params), toy_pair[1], toy_params)
        with pytest.raises(NumericError):
            route_decision(state.s_max, nan_router_params(toy_params).router,
                           toy_params.config.tau_fg, 0.0)

    def test_track_sequence_raises(self, toy_params):
        seq = runtime.gen_synthetic(seed=37, difficulty=0, length=4)
        frames, gt = list(seq.frames), [tuple(b) for b in seq.boxes]
        tracker = make_tracker("dyhit", nan_router_params(toy_params), 0.0)
        with pytest.raises(NumericError):
            runtime.track_sequence(frames, gt[0], tracker)


class TestOracleBaseTracker:
    GT = [(10.0, 12.0, 30.0, 20.0)] * 60

    def test_zero_noise_perfect(self):
        base = oracle_base_tracker(self.GT, 0.0, seed=1)
        base.init(None, self.GT[0])
        assert all(iou_xywh(base.predict(i, None, None), self.GT[i]) == 1.0 for i in range(60))

    def test_same_seed_identical(self):
        a = oracle_base_tracker(self.GT, 0.1, seed=3)
        b = oracle_base_tracker(self.GT, 0.1, seed=3)
        a.init(None, self.GT[0]); b.init(None, self.GT[0])
        for i in (0, 5, 59):
            assert a.predict(i, None, None) == b.predict(i, None, None)

    def test_prediction_independent_of_call_order(self):
        a = oracle_base_tracker(self.GT, 0.1, seed=4)
        b = oracle_base_tracker(self.GT, 0.1, seed=4)
        a.init(None, self.GT[0]); b.init(None, self.GT[0])
        first = a.predict(30, None, None)
        for i in range(30):
            b.predict(i, None, None)
        assert b.predict(30, None, None) == first

    def test_noise_005_mean_iou_in_recorded_band(self):
        # band [0.80, 0.88] recorded from a 10k-draw simulation of the jitter
        # model (mean 0.842, std 0.062)
        gt = [(20.0, 30.0, 40.0, 25.0)] * 200
        base = oracle_base_tracker(gt, 0.05, seed=5)
        base.init(None, gt[0])
        ious = [iou_xywh(base.predict(i, None, None), gt[i]) for i in range(200)]
        assert 0.80 <= np.mean(ious) <= 0.88

    def test_requires_init(self):
        base = oracle_base_tracker(self.GT, 0.0, seed=1)
        with pytest.raises(DataError, match="before init"):
            base.predict(0, None, None)

    def test_missing_box_names_frame(self):
        base = oracle_base_tracker(self.GT, 0.1, seed=1)
        base.init(None, self.GT[0])
        with pytest.raises(DataError, match="frame 61"):
            base.predict(60, None, None)

    @staticmethod
    def per_call_box(gt, noise, seed, i):
        """Frame i's box drawn on demand, from a fresh generator per call."""
        x, y, w, h = gt[i]
        if noise == 0.0:
            return (x, y, w, h)
        n = np.random.default_rng((seed, i)).standard_normal(4)
        cx = x + w / 2.0 + noise * w * n[0]
        cy = y + h / 2.0 + noise * h * n[1]
        nw = max(w * (1.0 + noise * n[2]), 1e-6)
        nh = max(h * (1.0 + noise * n[3]), 1e-6)
        return (cx - nw / 2.0, cy - nh / 2.0, nw, nh)

    @pytest.mark.parametrize("noise", [0.0, 0.05, 0.15])
    def test_replayed_boxes_equal_per_call_draws(self, noise):
        gt = [tuple(float(v) for v in b) for b in runtime.gen_synthetic(3, 1, 40).boxes]
        base = oracle_base_tracker(gt, noise, seed=21)
        base.init(None, gt[0])
        for i in reversed(range(len(gt))):
            got = np.array(base.predict(i, None, None))
            want = np.array(self.per_call_box(gt, noise, 21, i))
            assert got.dtype == want.dtype == np.float64
            assert got.tobytes() == want.tobytes()


class TestFileBaseTracker:
    def test_gt_file_behaves_like_zero_noise_oracle(self, tmp_path):
        gt = [(1.0, 2.0, 3.0, 4.0), (5.0, 6.0, 7.0, 8.0)]
        path = tmp_path / "boxes.txt"
        runtime.write_boxes(path, gt)
        base = file_base_tracker(path)
        base.init(None, gt[0])
        assert base.predict(0, None, None) == gt[0]
        assert base.predict(1, None, None) == gt[1]

    def test_missing_line_names_frame(self, tmp_path):
        path = tmp_path / "boxes.txt"
        runtime.write_boxes(path, [(1.0, 2.0, 3.0, 4.0)])
        base = file_base_tracker(path)
        base.init(None, None)
        with pytest.raises(DataError, match="frame 2"):
            base.predict(1, None, None)

    def test_round_trip_with_writer_lossless(self, tmp_path):
        rng = np.random.default_rng(6)
        boxes = [tuple(np.round(rng.uniform(0, 100, 4), 4)) for _ in range(20)]
        path = tmp_path / "boxes.txt"
        runtime.write_boxes(path, boxes)
        again = tmp_path / "again.txt"
        runtime.write_boxes(again, runtime.read_boxes(path))
        assert path.read_text() == again.read_text()

    def test_parse_error_with_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1,2,3,4\n5,6,7\n")
        with pytest.raises(DataError, match=":2:"):
            file_base_tracker(path)


class TestDyTracker:
    def make_suite(self):
        seq = runtime.gen_synthetic(seed=31, difficulty=1, length=25)
        return list(seq.frames), [tuple(b) for b in seq.boxes]

    def test_dispatch_exactness_per_frame(self, toy_params):
        frames, gt = self.make_suite()
        noisy = oracle_base_tracker(gt, 0.15, seed=7)
        base = oracle_base_tracker(gt, 0.02, seed=8)
        # threshold at the median F so both branches fire
        probe = Tracker(toy_params, 0.5, answerers={ROUTE1: oracle_base_tracker(gt, 0.15, seed=7),
                                                    ROUTE2: oracle_base_tracker(gt, 0.02, seed=8)})
        result = runtime.track_sequence(frames, gt[0], probe)
        t = float(np.median([d.f for d in result.decisions]))
        tracker = Tracker(toy_params, t, answerers={ROUTE1: noisy, ROUTE2: base})
        result = runtime.track_sequence(frames, gt[0], tracker)
        routes = [d.route for d in result.decisions]
        assert routing.ROUTE1 in routes and routing.ROUTE2 in routes
        for idx, (box, d) in enumerate(zip(result.boxes[1:], result.decisions), start=1):
            expect = (noisy if d.route == routing.ROUTE1 else base).predict(idx, None, None)
            assert box == expect

    def test_answerer_dispatch_on_tiny(self, tiny_params):
        frames, gt = self.make_suite()
        chosen = {ROUTE1: oracle_base_tracker(gt, 0.15, seed=7),
                  ROUTE2: oracle_base_tracker(gt, 0.02, seed=8)}
        # threshold at the median F so both answerers fire
        probe = runtime.track_sequence(frames, gt[0], Tracker(tiny_params, 0.5, answerers=chosen))
        t = float(np.median([d.f for d in probe.decisions]))
        result = runtime.track_sequence(frames, gt[0], Tracker(tiny_params, t, answerers=chosen))
        routes = [d.route for d in result.decisions]
        assert ROUTE1 in routes and ROUTE2 in routes
        for idx, (box, d) in enumerate(zip(result.boxes[1:], result.decisions), start=1):
            assert box == chosen[d.route].predict(idx, None, None)
        for key in ("route3", None):
            with pytest.raises(DataError, match="unknown route"):
                Tracker(tiny_params, t, answerers={key: chosen[ROUTE2]})

    def test_route_log_matches_offline_recomputation(self, toy_params):
        frames, gt = self.make_suite()
        tracker = make_tracker("dyhit", toy_params, 0.45)
        result = runtime.track_sequence(frames, gt[0], tracker)
        for d in result.decisions:
            scores = d.score_map.reshape(-1)
            above = scores > toy_params.config.tau_fg
            f = scores[above].mean() if above.any() else scores.mean()
            assert f == d.f
            assert d.route == (routing.ROUTE1 if f > d.threshold else routing.ROUTE2)
            assert d.fallback == (not above.any())

    def test_zero_noise_base_gives_iou_one_on_hard_frames(self, toy_params):
        frames, gt = self.make_suite()
        base = oracle_base_tracker(gt, 0.0, seed=9)
        tracker = make_tracker("dytracker", toy_params, 1.0, base=base)  # every frame is "hard"
        result = runtime.track_sequence(frames, gt[0], tracker)
        assert all(d.route == routing.ROUTE2 for d in result.decisions)
        assert all(iou_xywh(p, g) == 1.0 for p, g in zip(result.boxes, gt))

    def test_base_tracker_failure_names_frame(self, toy_params):
        frames, gt = self.make_suite()
        short = oracle_base_tracker(gt[:3], 0.0, seed=1)
        tracker = make_tracker("dytracker", toy_params, 1.0, base=short)  # always route2
        with pytest.raises(DataError, match="frame"):
            runtime.track_sequence(frames, gt[0], tracker)

    def test_non_finite_base_box_names_frame(self, toy_params):
        frames, gt = self.make_suite()
        for bad in (float("nan"), float("inf")):
            base = oracle_base_tracker(gt[:-1] + [(bad,) * 4], 0.0, seed=1)
            tracker = make_tracker("dytracker", toy_params, 1.0, base=base)  # always route2
            message = f"^tracker failed at frame {len(frames)}: non-finite box"
            with pytest.raises(NumericError, match=message):
                runtime.track_sequence(frames, gt[0], tracker)

    def test_functional_step_matches_tracker_object(self, toy_params):
        # the tracker caches the template embed; this reference loop does not
        frames, gt = self.make_suite()
        base = oracle_base_tracker(gt, 0.02, seed=12)
        tracker = make_tracker("dytracker", toy_params, 0.5, base=base)
        result = runtime.track_sequence(frames, gt[0], tracker)
        base2 = oracle_base_tracker(gt, 0.02, seed=12)
        base2.init(frames[0], gt[0])
        tpl, _ = runtime.crop_resize(frames[0], gt[0], routing.TEMPLATE_FACTOR,
                                     toy_params.config.template_size)
        prev = gt[0]
        for idx in range(1, len(frames)):
            patch, mapping = runtime.crop_resize(frames[idx], routing.crop_reference(prev),
                                                 routing.SEARCH_FACTOR,
                                                 toy_params.config.search_size)
            state = stage1_forward(embed_template(tpl, toy_params), patch, toy_params)
            decision = route_decision(state.s_max, toy_params.router, toy_params.config.tau_fg, 0.5)
            if decision.route == ROUTE1:
                pred = route_head(state, toy_params, ROUTE1)
                box = runtime.map_box_to_frame(pred.corners, mapping)
            else:
                box = base2.predict(idx, frames[idx], prev)
            assert decision.route == result.decisions[idx - 1].route
            assert decision.f == result.decisions[idx - 1].f
            assert tuple(box) == result.boxes[idx]
            prev = box


def every_n(params, n):
    return replace(params, config=replace(params.config, classify_every_n=n))


class TestClassifyEveryN:
    def test_router_runs_halved(self, toy_params):
        seq = runtime.gen_synthetic(seed=33, difficulty=0, length=21)
        frames, gt = list(seq.frames), [tuple(b) for b in seq.boxes]
        router_macs = flop_account(toy_params.config).extras["router"].macs
        with count_macs() as every:
            runtime.track_sequence(frames, gt[0], make_tracker("dyhit", every_n(toy_params, 1), 0.5))
        with count_macs() as sparse:
            result = runtime.track_sequence(frames, gt[0],
                                            make_tracker("dyhit", every_n(toy_params, 2), 0.5))
        assert every.get("router") == 20 * router_macs
        assert sparse.get("router") == 10 * router_macs
        assert sum(d.reused for d in result.decisions) == 10

    def test_must_be_positive(self):
        with pytest.raises(DataError):
            hitrack.make_config("toy", classify_every_n=0)

    def test_reused_decisions_keep_route_invariant(self, toy_params):
        seq = runtime.gen_synthetic(seed=34, difficulty=2, length=15)
        tracker = make_tracker("dyhit", every_n(toy_params, 3), 0.5)
        result = runtime.track_sequence(list(seq.frames), tuple(seq.boxes[0]), tracker)
        for d in result.decisions:
            assert d.route == (routing.ROUTE1 if d.f > d.threshold else routing.ROUTE2)


class TestTauFgValidation:
    @pytest.mark.parametrize("tau_fg", [np.nan, -0.1, 1.5, np.inf])
    def test_outside_unit_interval_rejected(self, tau_fg):
        with pytest.raises(DataError, match="tau_fg"):
            hitrack.make_config("toy", tau_fg=tau_fg)

    @pytest.mark.parametrize("tau_fg", [0.0, 1.0])
    def test_endpoints_accepted(self, tau_fg):
        assert hitrack.make_config("toy", tau_fg=tau_fg).tau_fg == tau_fg


class TestTrackerGlue:
    def test_route1_and_full_trackers_produce_boxes(self, toy_params):
        seq = runtime.gen_synthetic(seed=35, difficulty=0, length=6)
        frames, gt = list(seq.frames), [tuple(b) for b in seq.boxes]
        for kind in ("route1", "full"):
            result = runtime.track_sequence(frames, gt[0], make_tracker(kind, toy_params))
            assert len(result.boxes) == 6
            assert all(len(b) == 4 for b in result.boxes)

    def test_make_tracker_kinds(self, toy_params):
        assert make_tracker("route1", toy_params).route == ROUTE1
        assert make_tracker("full", toy_params).route == ROUTE2
        dyhit = make_tracker("dyhit", toy_params, 0.5)
        assert dyhit.route is None and not dyhit.answerers
        with pytest.raises(DataError):
            Tracker(toy_params, route="route3")
        with pytest.raises(DataError):
            routing.make_tracker("dytracker", toy_params)
        with pytest.raises(DataError):
            routing.make_tracker("nope", toy_params)

    @pytest.mark.parametrize("kind", ["route1", "full", "dyhit", "dytracker"])
    @pytest.mark.parametrize("threshold", [5.0, -0.1, float("nan")])
    def test_threshold_rejected_at_construction(self, toy_params, kind, threshold):
        with pytest.raises(DataError):
            make_tracker(kind, toy_params, threshold, base=oracle_base_tracker([(0, 0, 1, 1)], 0.0, 0))


class TestCrossedCorners:
    """A head box whose corners cross is reported as it is, with negative
    extents; only the next frame's crop floors it, through ``crop_reference``."""

    def test_reported_as_is_and_scored_zero(self, toy_params, monkeypatch, tmp_path):
        crossed = SimpleNamespace(corners=(0.6, 0.6, 0.4, 0.4))
        monkeypatch.setattr(routing, "route_head", lambda state, params, route: crossed)
        seq = runtime.gen_synthetic(seed=41, difficulty=0, length=3)
        gt = [tuple(b) for b in seq.boxes]
        tracker = make_tracker("route1", toy_params)
        tracker.init(seq.frames[0], gt[0])
        boxes = [gt[0]]
        for idx in (1, 2):  # frame 2 crops around frame 1's crossed box
            box, _, _ = tracker.step(seq.frames[idx], idx, boxes[-1])
            assert box[2] < 0 and box[3] < 0
            boxes.append(box)
        path = tmp_path / "boxes.txt"
        runtime.write_boxes(path, boxes)
        read = runtime.read_boxes(path)
        for got, want in zip(read, boxes):
            assert got == pytest.approx(want, abs=5e-5)
        assert read[1][2] < 0 and read[1][3] < 0
        assert list(hitrack.evaluate_trace(read, gt).ious[1:]) == [0.0, 0.0]


class TestStepWritesNoInput:
    """Kernels finish in place on buffers they allocate; a step must leave
    the weights, the frame and the per-sequence template state untouched."""

    @pytest.mark.parametrize("variant", ["toy", "tiny"])
    @pytest.mark.parametrize("kind,threshold,route", [
        ("route1", 0.5, ROUTE1), ("full", 0.5, ROUTE2), ("dyhit", 0.0, ROUTE1),
        ("dyhit", 1.0, ROUTE2), ("dytracker", 0.0, ROUTE1), ("dytracker", 1.0, ROUTE2)])
    def test_step_leaves_inputs_unchanged(self, request, variant, kind, threshold, route):
        params = request.getfixturevalue(f"{variant}_params")
        seq = runtime.gen_synthetic(seed=37, difficulty=1, length=3)
        gt = [tuple(b) for b in seq.boxes]
        tracker = make_tracker(kind, params, threshold, base=oracle_base_tracker(gt, 0.02, seed=3))
        tracker.init(seq.frames[0], gt[0])

        def watched(frame):
            arrays = [a for _, a in named_arrays(params)]
            return arrays + [frame, tracker.template_grid]

        prev = gt[0]
        for idx in (1, 2):
            frame = seq.frames[idx]
            before = [a.tobytes() for a in watched(frame)]
            prev, decision, _ = tracker.step(frame, idx, prev)
            assert (tracker.route if decision is None else decision.route) == route
            assert [a.tobytes() for a in watched(frame)] == before


class TestMacContract:
    """Every step's MACs per label equal ``flop_account`` for the route taken."""

    @staticmethod
    def expected(cfg):
        report = flop_account(cfg)
        modules = {k: c.macs for k, c in report.modules.items()}
        extras = {k: c.macs for k, c in report.extras.items()}
        # flop_account sums the template and search embeds; the template's is
        # half of a square (template-sized) input's
        square = replace(cfg, search_size=cfg.template_size)
        template = flop_account(square).modules["embed"].macs // 2
        trunk = {"embed": modules["embed"] - template, "stage1": modules["stage1"]}
        full = dict(modules, embed=trunk["embed"])
        fast = {**trunk, "head1": extras["head1"]}
        router = {"router": extras["router"]}
        return {"embed": template}, {
            "route1": {ROUTE1: fast},
            "full": {ROUTE2: full},
            "dyhit": {ROUTE1: {**fast, **router}, ROUTE2: {**full, **router}},
            "dytracker": {ROUTE1: {**fast, **router}, ROUTE2: {**trunk, **router}},
        }

    @pytest.mark.parametrize("kind", ["route1", "full", "dyhit", "dytracker"])
    def test_step_macs_match_closed_form(self, toy_params, kind):
        seq = runtime.gen_synthetic(seed=36, difficulty=1, length=8)
        frames, gt = list(seq.frames), [tuple(b) for b in seq.boxes]
        probe = runtime.track_sequence(frames, gt[0], make_tracker("dyhit", toy_params, 0.5))
        threshold = float(np.median([d.f for d in probe.decisions]))  # both routes fire
        init_macs, per_kind = self.expected(toy_params.config)
        tracker = make_tracker(kind, toy_params, threshold,
                               base=oracle_base_tracker(gt, 0.02, seed=3))
        with count_macs() as counter:
            tracker.init(frames[0], gt[0])
        assert counter.counts == init_macs
        routes = set()
        prev = gt[0]
        for idx in range(1, len(frames)):
            with count_macs() as counter:
                prev, decision, _ = tracker.step(frames[idx], idx, prev)
            assert (decision is None) == (kind in ("route1", "full"))
            route = tracker.route if decision is None else decision.route
            routes.add(route)
            assert {k: v for k, v in counter.counts.items() if v} == per_kind[kind][route]
        assert routes == set(per_kind[kind])
