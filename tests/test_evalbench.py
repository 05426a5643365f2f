
import sys

import numpy as np
import pytest

import hitrack
from hitrack import tensor
from hitrack.boxes import iou_xywh
from hitrack.errors import DataError
from hitrack.evalbench import (SUCCESS_THRESHOLDS, evaluate_trace, flop_account,
                               latency_bench, sweep_csv, threshold_sweep)
from hitrack.routing import ROUTE2, make_tracker
from hitrack.runtime import gen_synthetic
from hitrack.weights import init_weights

from conftest import count_params, total_params_with_extras


def naive_metrics(pred, gt):
    """Independent re-implementation of the OPE aggregates."""
    ious, errors = [], []
    for p, g in zip(pred, gt):
        px1, py1, px2, py2 = p[0], p[1], p[0] + p[2], p[1] + p[3]
        gx1, gy1, gx2, gy2 = g[0], g[1], g[0] + g[2], g[1] + g[3]
        iw = min(px2, gx2) - max(px1, gx1)
        ih = min(py2, gy2) - max(py1, gy1)
        inter = max(iw, 0.0) * max(ih, 0.0)
        pa = max(p[2], 0.0) * max(p[3], 0.0)
        ga = max(g[2], 0.0) * max(g[3], 0.0)
        union = pa + ga - inter
        ious.append(inter / union if union > 0 else 0.0)
        dx = (p[0] + p[2] / 2) - (g[0] + g[2] / 2)
        dy = (p[1] + p[3] / 2) - (g[1] + g[3] / 2)
        errors.append((dx * dx + dy * dy) ** 0.5)
    ious = np.asarray(ious)
    errors = np.asarray(errors)
    auc = np.mean([np.mean(ious >= t) for t in np.linspace(0, 1, 51)])
    return dict(
        auc=float(auc),
        precision=float(np.mean(errors <= 20.0)),
        ao=float(ious.mean()),
        sr50=float(np.mean(ious > 0.5)),
        sr75=float(np.mean(ious > 0.75)),
    )


class TestIou:
    def test_identical(self):
        assert iou_xywh((2, 3, 4, 5), (2, 3, 4, 5)) == 1.0

    def test_disjoint(self):
        assert iou_xywh((0, 0, 1, 1), (5, 5, 1, 1)) == 0.0

    def test_one_seventh(self):
        # corner boxes (0,0,2,2) vs (1,1,3,3): I=1, U=7
        assert np.isclose(iou_xywh((0, 0, 2, 2), (1, 1, 2, 2)), 1.0 / 7.0)

    def test_degenerate_zero(self):
        assert iou_xywh((0, 0, 0, 2), (0, 0, 2, 2)) == 0.0


class TestEvaluateTrace:
    def test_perfect_trace(self):
        boxes = [(float(i), float(i), 10.0, 8.0) for i in range(20)]
        m = evaluate_trace(boxes, boxes)
        assert m.auc == 1.0 and m.precision == 1.0 and m.ao == 1.0
        assert m.sr50 == 1.0 and m.sr75 == 1.0

    def test_single_frame_iou_06(self):
        m = evaluate_trace([(0.0, 0.0, 6.0, 10.0)], [(0.0, 0.0, 10.0, 10.0)])
        assert np.isclose(m.ious[0], 0.6)
        assert m.sr50 == 1.0 and m.sr75 == 0.0

    def test_matches_naive_oracle_on_random_traces(self):
        rng = np.random.default_rng(0)
        pred = rng.uniform(0, 50, (200, 4))
        gt = rng.uniform(0, 50, (200, 4))
        m = evaluate_trace(pred, gt)
        ref = naive_metrics(pred, gt)
        for key, value in ref.items():
            assert abs(getattr(m, key) - value) < 1e-9

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            evaluate_trace([(0, 0, 1, 1)], [(0, 0, 1, 1), (0, 0, 1, 1)])

    def test_auc_uses_51_thresholds(self):
        assert len(SUCCESS_THRESHOLDS) == 51
        assert SUCCESS_THRESHOLDS[1] == 0.02


class TestFlopAccount:
    def test_single_linear_layer_product_rule(self):
        # 10 tokens, 4 -> 8 channels: 320 MACs
        with tensor.count_macs() as counter:
            tensor.linear(np.zeros((10, 4), dtype=np.float32), np.zeros((4, 8), dtype=np.float32),
                          np.zeros(8, dtype=np.float32))
        assert counter.total == 10 * 4 * 8 == 320

    def test_base_total_within_quarter_of_4_34g(self):
        report = flop_account(hitrack.make_config("base"))
        assert abs(report.total_macs - 4.34e9) / 4.34e9 <= 0.25

    def test_base_bridge_fraction_in_band(self):
        report = flop_account(hitrack.make_config("base"))
        assert 0.05 <= report.fractions["bridge"] <= 0.10

    def test_base_router_fraction_below_one_percent(self):
        report = flop_account(hitrack.make_config("base"))
        assert report.extra_fraction("router") < 0.01

    def test_fractions_sum_to_one(self):
        report = flop_account(hitrack.make_config("toy"))
        assert abs(sum(report.fractions.values()) - 1.0) < 1e-9

    def test_instrumented_equals_analytic_toy(self, toy_params, toy_pair):
        report = flop_account(toy_params.config)
        with tensor.count_macs() as counter:
            hitrack.forward(*toy_pair, toy_params, route=ROUTE2)
        for name, cost in report.modules.items():
            assert counter.get(name) == cost.macs, name
        assert counter.total == report.total_macs

    def test_instrumented_extras_route1(self, toy_params, toy_pair):
        report = flop_account(toy_params.config)
        with tensor.count_macs() as counter:
            hitrack.forward(*toy_pair, toy_params, threshold=0.0)
        assert counter.get("router") == report.extras["router"].macs
        assert counter.get("head1") == report.extras["head1"].macs
        for skipped in ("sa1", "stage2", "sa2", "stage3", "bridge", "head2"):
            assert counter.get(skipped) == 0

    def test_params_analytic_equals_instantiated(self, toy_cfg, toy_params):
        report = flop_account(toy_cfg)
        assert total_params_with_extras(report) == count_params(toy_params)

    def test_small_instrumented_equality(self):
        cfg = hitrack.make_config("small")
        params = init_weights(cfg, seed=1)
        rng = np.random.default_rng(2)
        tpl = rng.uniform(0, 255, (128, 128, 3)).astype(np.float32)
        srch = rng.uniform(0, 255, (256, 256, 3)).astype(np.float32)
        report = flop_account(cfg)
        with tensor.count_macs() as counter:
            hitrack.forward(tpl, srch, params, route=ROUTE2)
        assert counter.total == report.total_macs
        assert total_params_with_extras(report) == count_params(params)


class TestScopeLabels:
    """Every label a tracker opens is one the cost model prices.

    Tracing tools map known labels to spans and sum only those, so a scope
    under a new label must be registered in ``flop_account`` first.
    """

    def test_every_opened_label_is_costed(self, toy_params, monkeypatch):
        opened = set()
        real = tensor.mac_scope

        def recording_scope(label):
            opened.add(label)
            return real(label)

        # modules import mac_scope by name, so replace it in each of them
        for name, module in list(sys.modules.items()):
            if module is not None and (name == "hitrack" or name.startswith("hitrack.")):
                for attr, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, attr, recording_scope)
        report = flop_account(toy_params.config)
        costed = set(report.modules) | set(report.extras)
        seq = gen_synthetic(seed=23, difficulty=2, length=6)
        gt = [tuple(float(v) for v in b) for b in seq.boxes]
        seen = set()
        for kind in ("full", "route1", "dyhit", "dytracker"):
            opened.clear()
            base = hitrack.oracle_base_tracker(gt, 0.05, seed=23) if kind == "dytracker" else None
            hitrack.track_sequence(list(seq.frames), gt[0],
                                   make_tracker(kind, toy_params, base=base))
            assert opened and opened <= costed, (kind, opened - costed)
            seen |= opened
        assert seen == costed


class TestLatencyBench:
    def test_stats_and_fps_consistency(self, toy_params):
        seq = gen_synthetic(seed=20, difficulty=0, length=6)
        stats = latency_bench(make_tracker("route1", toy_params), list(seq.frames),
                              tuple(seq.boxes[0]), warmup=1, reps=2)
        assert stats.mean_ms > 0
        assert np.isclose(stats.fps, 1000.0 / stats.mean_ms, rtol=1e-9)
        assert stats.p95_ms >= stats.median_ms > 0

    def test_warmup_excluded_from_counts(self, toy_params):
        seq = gen_synthetic(seed=21, difficulty=0, length=5)
        stats = latency_bench(make_tracker("full", toy_params), list(seq.frames),
                              tuple(seq.boxes[0]), warmup=2, reps=3)
        # 3 timed reps x 4 tracked frames
        assert stats.per_route["static"][1] == 12

    def test_reps_validated(self, toy_params):
        with pytest.raises(DataError):
            latency_bench(make_tracker("route1", toy_params), [], (0, 0, 1, 1), warmup=0, reps=0)

    @pytest.mark.parametrize("warmup,reps", [(-1, 1), (-2, 3)])
    def test_negative_warmup_rejected(self, toy_params, warmup, reps):
        seq = gen_synthetic(seed=21, difficulty=0, length=3)
        with pytest.raises(DataError, match="warmup"):
            latency_bench(make_tracker("full", toy_params), list(seq.frames),
                          tuple(seq.boxes[0]), warmup=warmup, reps=reps)

    def test_no_stepped_frame_rejected(self, toy_params):
        seq = gen_synthetic(seed=21, difficulty=0, length=1)
        with pytest.raises(DataError, match="no frame"):
            latency_bench(make_tracker("full", toy_params), list(seq.frames),
                          tuple(seq.boxes[0]), warmup=0, reps=1)

    def test_route1_median_below_full_median(self, toy_params):
        seq = gen_synthetic(seed=22, difficulty=0, length=10)
        frames, box = list(seq.frames), tuple(seq.boxes[0])
        fast = latency_bench(make_tracker("route1", toy_params), frames, box, warmup=1, reps=2)
        full = latency_bench(make_tracker("full", toy_params), frames, box, warmup=1, reps=2)
        assert fast.median_ms < full.median_ms


@pytest.fixture(scope="module")
def suite():
    return [gen_synthetic(seed=40 + i, difficulty=d, length=12)
            for i, d in enumerate([0, 3])]


class TestThresholdSweep:
    def test_endpoints_reproduce_pure_routes(self, toy_params, suite):
        rows = threshold_sweep([0.0, 1.0], suite, toy_params)
        assert rows[0].route1_fraction == 1.0
        assert rows[1].route1_fraction == 0.0
        # endpoint metrics equal dedicated pure-route trackers
        from hitrack.runtime import track_sequence
        ious = []
        for seq in suite:
            gt = [tuple(b) for b in seq.boxes]
            res = track_sequence(list(seq.frames), gt[0], make_tracker("route1", toy_params))
            ious.extend(iou_xywh(p, g) for p, g in zip(res.boxes, gt))
        assert np.isclose(rows[0].metric, np.mean(ious), atol=1e-12)

    def test_route1_fraction_non_increasing(self, toy_params, suite):
        rows = threshold_sweep([0.0, 0.3, 0.45, 0.6, 1.0], suite, toy_params)
        fractions = [r.route1_fraction for r in rows]
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))

    def test_deterministic_apart_from_timing(self, toy_params, suite):
        # identical seeds give identical CSV bytes once the fps column is blanked
        csv_a = sweep_csv(threshold_sweep([0.0, 0.5], suite, toy_params))
        csv_b = sweep_csv(threshold_sweep([0.0, 0.5], suite, toy_params))

        def blank_fps(csv):
            lines = csv.splitlines()
            out = [lines[0]]
            for line in lines[1:]:
                cols = line.split(",")
                cols[2] = "-"
                out.append(",".join(cols))
            return "\n".join(out)

        assert blank_fps(csv_a) == blank_fps(csv_b)

    def test_csv_format(self, toy_params, suite):
        rows = threshold_sweep([0.0, 1.0], suite[:1], toy_params)
        csv = sweep_csv(rows)
        lines = csv.splitlines()
        assert lines[0] == "T,metric,fps,route1_fraction"
        assert len(lines) == 3
        assert csv.endswith("\n")
        first = lines[1].split(",")
        assert first[0] == "0" and len(first) == 4

    def test_empty_grid_rejected(self, toy_params):
        with pytest.raises(DataError):
            threshold_sweep([], [], toy_params)

    def test_no_stepped_frame_rejected(self, toy_params):
        single = [gen_synthetic(seed=40 + i, difficulty=0, length=1) for i in range(2)]
        with pytest.raises(DataError, match="no sequence"):
            threshold_sweep([0.0, 1.0], single, toy_params)
