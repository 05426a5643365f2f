"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Everything uses the toy variant unless a criterion is about the
base-like configuration, whose checks are closed-form, or about numerics that
only show on the larger variants. The ``_tiny`` tests repeat the cheap toy
criteria (1, 3, 6, 11, 12) on the tiny variant.
"""
import numpy as np
import pytest

import hitrack
from hitrack import evalbench, fusion, objectives, posenc, routing, runtime, tensor
from hitrack.backbone import embed_template, stage1_forward
from hitrack.boxes import iou_xywh
from hitrack.errors import DataError
from hitrack.evalbench import flop_account, threshold_sweep
from hitrack.routing import ROUTE1, ROUTE2, Tracker, forward
from hitrack.weights import init_weights, load_weights, named_arrays, save_weights

from conftest import count_params, make_separable_dataset, total_params_with_extras


def ok(n, message):
    print(f"PASS  criterion {n:>2}: {message}")


def random_pair(rng, cfg):
    tpl = rng.uniform(0, 255, (cfg.template_size, cfg.template_size, 3)).astype(np.float32)
    srch = rng.uniform(0, 255, (cfg.search_size, cfg.search_size, 3)).astype(np.float32)
    return tpl, srch


def test_c01_dispatch_endpoints(toy_cfg, toy_params):
    rng = np.random.default_rng(101)
    for i in range(100):
        tpl, srch = random_pair(rng, toy_cfg)
        fast, d0 = forward(tpl, srch, toy_params, threshold=0.0)
        alone, _ = forward(tpl, srch, toy_params, route=ROUTE1)
        assert d0.route == routing.ROUTE1
        assert fast.corners == alone.corners
        assert np.array_equal(fast.tl_heatmap, alone.tl_heatmap)
        assert np.array_equal(fast.br_heatmap, alone.br_heatmap)
        full, d1 = forward(tpl, srch, toy_params, threshold=1.0)
        plain, _ = forward(tpl, srch, toy_params, route=ROUTE2)
        assert d1.route == routing.ROUTE2
        assert full.corners == plain.corners
        assert np.array_equal(full.tl_heatmap, plain.tl_heatmap)
        assert np.array_equal(full.br_heatmap, plain.br_heatmap)
    ok(1, "100 random pairs: T=0 bit-identical to Route1, T=1 bit-identical to the full forward")


def test_c01_dispatch_endpoints_tiny(tiny_cfg, tiny_params):
    rng = np.random.default_rng(101)
    for _ in range(10):
        tpl, srch = random_pair(rng, tiny_cfg)
        for threshold, route in ((0.0, ROUTE1), (1.0, ROUTE2)):
            gated, decision = forward(tpl, srch, tiny_params, threshold=threshold)
            alone, _ = forward(tpl, srch, tiny_params, route=route)
            assert decision.route == route
            assert gated.corners == alone.corners
            assert np.array_equal(gated.tl_heatmap, alone.tl_heatmap)
            assert np.array_equal(gated.br_heatmap, alone.br_heatmap)
    ok(1, "tiny: 10 random pairs: T=0 bit-identical to Route1, T=1 bit-identical to the full forward")


def test_c02_position_encoding():
    for variant in ("base", "small", "tiny", "toy"):
        cfg = hitrack.make_config(variant)
        layout = cfg.layout(0)
        coords = posenc.dual_coords(layout)
        pairs = set(map(tuple, coords.tolist()))
        assert len(pairs) == layout.n_tokens, f"{variant}: coordinate collision"
    coords = posenc.dual_coords(hitrack.TokenLayout((2, 2), (4, 4)))
    index = posenc.bias_index(coords, coords)
    rng = np.random.default_rng(102)
    table = rng.standard_normal((3,) + posenc.table_shape(coords))
    gathered = posenc.gather_bias(table, index)
    n = len(coords)
    for h in range(3):
        for i in range(n):
            for j in range(n):
                dr = abs(int(coords[i, 0]) - int(coords[j, 0]))
                dc = abs(int(coords[i, 1]) - int(coords[j, 1]))
                assert gathered[h, i, j] == table[h, dr, dc]
    ok(2, "diagonal coordinates collide on no variant; gather equals the brute-force pair oracle bit-exactly")


def test_c03_shrink_attention(toy_cfg):
    from hitrack.attention import AffineParams, SaWeights, shrink_attention
    from hitrack.config import TokenLayout, geometry

    # token count reduced exactly 4x through the real model geometry
    geo = geometry(toy_cfg)
    assert geo.stages[1].layout.n_tokens * 4 == geo.shrinks[0].layout.n_tokens
    assert geo.stages[2].layout.n_tokens * 4 == geo.shrinks[1].layout.n_tokens

    layout = TokenLayout((4, 4), (8, 8))
    rng = np.random.default_rng(103)
    w = SaWeights(
        affine=AffineParams(np.ones(6), np.zeros(6)),
        wq=rng.standard_normal((6, 6)), wk=rng.standard_normal((6, 6)),
        wv=rng.standard_normal((6, 24)), wo=rng.standard_normal((24, 10)),
        bias_table=np.zeros((2, 1, 1)),
    )
    out = shrink_attention(rng.standard_normal((80, 6)), layout, w, np.zeros((2, 20, 80)))
    assert out.shape == (20, 10)

    # even-index oracle on marker values
    markers = np.arange(80, dtype=np.float64).reshape(80, 1)
    kept = layout.subsample(markers)[:, 0].astype(int)
    tpl_expect = np.arange(16).reshape(4, 4)[::2, ::2].reshape(-1)
    srch_expect = (np.arange(64).reshape(8, 8)[::2, ::2] + 16).reshape(-1)
    assert np.array_equal(kept, np.concatenate([tpl_expect, srch_expect]))

    # no cross-region Q contamination
    zeroed = markers.copy()
    zeroed[16:] = 0.0
    assert np.array_equal(layout.subsample(markers)[:4], layout.subsample(zeroed)[:4])
    ok(3, "token count /4 exactly; subsampled Q positions match the even-index oracle; regions never mix")


def test_c03_shrink_attention_tiny(tiny_cfg, tiny_params):
    from hitrack.attention import _attend, shrink_attention
    from hitrack.config import geometry
    from hitrack.tensor import affine

    # even-index oracle on tiny's stage-1 layout: an 8x8 template and 16x16 search grid
    geo = geometry(tiny_cfg)
    layout = geo.shrinks[0].layout
    markers = np.arange(layout.n_tokens, dtype=np.float64).reshape(-1, 1)
    kept = layout.subsample(markers)[:, 0].astype(int)
    tpl_expect = np.arange(64).reshape(8, 8)[::2, ::2].reshape(-1)
    srch_expect = (np.arange(256).reshape(16, 16)[::2, ::2] + 64).reshape(-1)
    assert np.array_equal(kept, np.concatenate([tpl_expect, srch_expect]))

    # both Shrink Attention layers on the seeded weights and real bias indices
    tokens = np.random.default_rng(103).standard_normal((layout.n_tokens, 128)).astype(np.float32)
    counts = [len(tokens)]
    for s, width in ((0, 256), (1, 384)):
        w, sg = tiny_params.shrinks[s], geo.shrinks[s]
        bias = posenc.gather_bias(w.bias_table, sg.bias_index)
        out = shrink_attention(tokens, sg.layout, w, bias)
        assert out.shape == (sg.layout.n_tokens // 4, width)
        if s == 0:  # the queries are the oracle's rows of the normalised tokens
            x = affine(tokens, w.affine.scale, w.affine.shift)
            assert np.array_equal(out, _attend(x[kept], x, w, bias))
        tokens = out
        counts.append(len(tokens))
    assert counts == [320, 80, 20]
    ok(3, "tiny: tokens 320 -> 80 -> 20 at widths 256 and 384; queries match the even-index oracle")


def test_c04_bridge_identity():
    rng = np.random.default_rng(104)
    from hitrack.weights import BridgeWeights
    s_max = rng.standard_normal((8, 8, 4))
    s_mid = rng.standard_normal((4, 4, 6))
    s_min = rng.standard_normal((2, 2, 8))
    w = BridgeWeights(np.zeros((4, 4, 8, 6)), np.zeros((4, 4, 6, 4)))
    out = hitrack.bridge(s_max, s_mid, s_min, w)
    assert np.array_equal(out, s_max)
    ok(4, "zero upsampler kernels leave O_s == S_max bit-exactly")


def test_c05_gradient_checks():
    rng = np.random.default_rng(105)
    checked = 0
    worst_giou = 0.0
    worst_l1 = 0.0
    while checked < 1000:
        a = np.array(sorted(rng.uniform(0, 1, 2)) + sorted(rng.uniform(0, 1, 2)))[[0, 2, 1, 3]]
        b = np.array(sorted(rng.uniform(0, 1, 2)) + sorted(rng.uniform(0, 1, 2)))[[0, 2, 1, 3]]
        extents = (a[2] - a[0], a[3] - a[1], b[2] - b[0], b[3] - b[1])
        gaps = np.abs(a[:, None] - b[None, :]).min()
        if min(extents) < 1e-3 or gaps < 1e-3:
            continue
        checked += 1
        worst_giou = max(worst_giou, objectives.grad_check(
            lambda x: objectives.giou_with_grad(x, b), a, eps=1e-6))
        worst_l1 = max(worst_l1, objectives.grad_check(
            lambda x: objectives.l1_with_grad(x, b), a, eps=1e-7))
    target = rng.uniform(0, 1, 64)
    worst_mse = objectives.grad_check(
        lambda x: objectives.mse_with_grad(x, target), rng.uniform(0, 1, 64), eps=1e-6)
    assert worst_giou <= 1e-4, worst_giou
    assert worst_l1 <= 1e-4, worst_l1
    assert worst_mse <= 1e-4, worst_mse
    ok(5, f"1000 boxes: max rel err giou {worst_giou:.2e}, l1 {worst_l1:.2e}, mse {worst_mse:.2e}")


def test_c06_cost_accounting(toy_cfg, toy_params, toy_pair):
    base = flop_account(hitrack.make_config("base"))
    total = base.total_macs
    assert abs(total - 4.34e9) / 4.34e9 <= 0.25
    static_params = base.total_params
    full_params = total_params_with_extras(base)
    assert abs(static_params - 42.14e6) / 42.14e6 <= 0.25
    assert abs(full_params - 42.14e6) / 42.14e6 <= 0.25
    assert 0.05 <= base.fractions["bridge"] <= 0.10
    assert base.extra_fraction("router") < 0.01
    # accountant equals instrumented execution exactly, per module
    report = flop_account(toy_cfg)
    with tensor.count_macs() as counter:
        forward(*toy_pair, toy_params, route=ROUTE2)
    for name, cost in report.modules.items():
        assert counter.get(name) == cost.macs, name
    assert counter.total == report.total_macs
    assert total_params_with_extras(report) == count_params(toy_params)
    ok(6, f"base {total / 1e9:.2f} GMACs, {static_params / 1e6:.1f} M params, bridge "
          f"{base.fractions['bridge']:.1%}, router {base.extra_fraction('router'):.2%}; "
          "accountant == instrumented counters exactly")


def test_c06_cost_accounting_tiny(tiny_cfg, tiny_params):
    report = flop_account(tiny_cfg)
    modules = {k: c.macs for k, c in report.modules.items()}
    extras = {k: c.macs for k, c in report.extras.items()}
    fast = {"embed": modules["embed"], "stage1": modules["stage1"], "head1": extras["head1"]}
    pair = random_pair(np.random.default_rng(106), tiny_cfg)
    for route, want in ((ROUTE1, fast), (ROUTE2, modules)):
        with tensor.count_macs() as counter:
            forward(*pair, tiny_params, route=route)
        assert counter.counts == want, route
    with tensor.count_macs() as counter:
        forward(*pair, tiny_params, threshold=0.0)
    assert counter.counts == {**fast, "router": extras["router"]}
    ok(6, "tiny: per-label MACs equal the accountant on Route1, the full route and the router")


def test_c07_router_fitting():
    features, targets = make_separable_dataset(seed=107)
    fitted, losses = objectives.fit_router(features, targets, lr=1e-2, epochs=200, seed=0)
    scores = routing.router_apply(np.asarray(features, np.float64), fitted)
    accuracy = float(((scores > 0.5) == (targets > 0.5)).mean())
    assert accuracy >= 0.95
    assert losses[-1] < losses[0]
    ok(7, f"dispatch accuracy {accuracy:.1%}, loss {losses[0]:.4f} -> {losses[-1]:.4f}")


@pytest.fixture(scope="module")
def synthetic_suite():
    return [runtime.gen_synthetic(seed=200 + i, difficulty=d, length=100)
            for i, d in enumerate([0, 1, 2, 3, 0])]


def check_sweep(params, suite, warm_length):
    """Route1 fraction over T = 0..1 and the T=0/T=1 fps ratio, asserted
    non-increasing and at least 1.3."""
    warm = [runtime.gen_synthetic(seed=199, difficulty=0, length=warm_length)]
    threshold_sweep([0.0, 1.0], warm, params)  # warm both dispatch paths
    rows = threshold_sweep([0.0, 0.25, 0.5, 0.75, 1.0], suite, params)
    fractions = [r.route1_fraction for r in rows]
    assert all(a >= b for a, b in zip(fractions, fractions[1:])), fractions
    timing = threshold_sweep([0.0, 1.0], suite, params)
    ratio = timing[0].fps / timing[1].fps
    assert ratio >= 1.3, f"fps ratio {ratio:.2f}"
    return fractions, ratio


def test_c08_sweep_monotonicity_and_speedup(toy_params, synthetic_suite):
    assert sum(len(s) for s in synthetic_suite) == 500
    fractions, ratio = check_sweep(toy_params, synthetic_suite, warm_length=8)
    ok(8, f"route1 fraction non-increasing {fractions}; fps T=0/T=1 ratio {ratio:.2f} >= 1.3")


def test_c08_sweep_monotonicity_and_speedup_tiny(tiny_params):
    suite = [runtime.gen_synthetic(seed=200 + i, difficulty=d, length=5)
             for i, d in enumerate([0, 1, 2, 3])]
    fractions, ratio = check_sweep(tiny_params, suite, warm_length=3)
    ok(8, f"tiny: route1 fraction non-increasing {fractions}; "
          f"fps T=0/T=1 ratio {ratio:.2f} >= 1.3")


def check_dytracker_gating(cfg, suite):
    """Fit the router on the suite, gate at the median F; (DyTracker mean IoU,
    Route1-only mean IoU, route1 share)."""
    params = init_weights(cfg, seed=7)

    from test_objectives import reference_labels

    # fit the router on real stage-1 features labeled from the noisy fast route
    feats, targs = reference_labels(suite, params, [1000 + si for si in range(len(suite))])
    fitted, losses = objectives.fit_router(
        feats, targs,
        lr=1e-2, epochs=150, seed=0, hidden=cfg.router_hidden)
    assert losses[-1] < losses[0]
    params.router = fitted

    # threshold at the median pooled score so both branches genuinely fire
    fs = []
    for seq in suite:
        gt = [tuple(b) for b in seq.boxes]
        tpl, _ = runtime.crop_resize(seq.frames[0], gt[0], 2.0, cfg.template_size)
        for t in range(1, len(seq), 10):
            patch, _ = runtime.crop_resize(seq.frames[t], gt[t - 1], 4.0, cfg.search_size)
            state = stage1_forward(embed_template(tpl, params), patch, params)
            fs.append(routing.router_score(state.s_max, fitted, cfg.tau_fg)[1])
    threshold = float(np.median(fs))

    dyt_ious, r1_ious = [], []
    routes = []
    for si, seq in enumerate(suite):
        gt = [tuple(b) for b in seq.boxes]
        noisy = routing.oracle_base_tracker(gt, 0.15, seed=1000 + si)
        base = routing.oracle_base_tracker(gt, 0.02, seed=2000 + si)
        tracker = Tracker(params, threshold, answerers={ROUTE1: noisy, ROUTE2: base})
        result = runtime.track_sequence(list(seq.frames), gt[0], tracker)
        routes.extend(d.route for d in result.decisions)
        dyt_ious.extend(iou_xywh(p, g) for p, g in zip(result.boxes, gt))
        # per-frame outputs equal the chosen branch exactly
        for idx, (box, d) in enumerate(zip(result.boxes[1:], result.decisions), start=1):
            branch = noisy if d.route == routing.ROUTE1 else base
            assert box == branch.predict(idx, seq.frames[idx], None)
        # the same noisy fast route running alone
        alone = routing.oracle_base_tracker(gt, 0.15, seed=1000 + si)
        alone.init(seq.frames[0], gt[0])
        r1_ious.append(iou_xywh(gt[0], gt[0]))
        r1_ious.extend(iou_xywh(alone.predict(t, seq.frames[t], None), gt[t])
                       for t in range(1, len(seq)))
    dyt_mean = float(np.mean(dyt_ious))
    r1_mean = float(np.mean(r1_ious))
    share = routes.count(routing.ROUTE1) / len(routes)
    assert dyt_mean >= r1_mean
    return dyt_mean, r1_mean, share


def test_c09_dytracker_gating(toy_cfg, synthetic_suite):
    dyt_mean, r1_mean, share = check_dytracker_gating(toy_cfg, synthetic_suite)
    ok(9, f"DyTracker mean IoU {dyt_mean:.3f} >= Route1-only {r1_mean:.3f} "
          f"(route1 share {share:.0%}); outputs equal the chosen branch exactly")


def test_c09_dytracker_gating_tiny(tiny_cfg):
    suite = [runtime.gen_synthetic(seed=200 + i, difficulty=d, length=12)
             for i, d in enumerate([0, 1, 2, 3])]
    dyt_mean, r1_mean, share = check_dytracker_gating(tiny_cfg, suite)
    ok(9, f"tiny: DyTracker mean IoU {dyt_mean:.3f} >= Route1-only {r1_mean:.3f} "
          f"(route1 share {share:.0%}); outputs equal the chosen branch exactly")


def test_c10_metrics_oracle():
    from test_evalbench import naive_metrics

    rng = np.random.default_rng(110)
    for trace in range(50):
        n = int(rng.integers(5, 60))
        pred = rng.uniform(0, 60, (n, 4))
        gt = rng.uniform(0, 60, (n, 4))
        m = evalbench.evaluate_trace(pred, gt)
        ref = naive_metrics(pred, gt)
        for key, value in ref.items():
            assert abs(getattr(m, key) - value) < 1e-9, (trace, key)
    ok(10, "evaluate_trace matches the independent naive implementation to 1e-9 on 50 traces")


def test_c11_worst_case_overhead(toy_cfg, toy_params, toy_pair):
    with tensor.count_macs() as plain:
        forward(*toy_pair, toy_params, route=ROUTE2)
    with tensor.count_macs() as gated:
        forward(*toy_pair, toy_params, threshold=1.0)
    router_macs = flop_account(toy_cfg).extras["router"].macs
    assert gated.total - plain.total == router_macs
    assert gated.get("router") == router_macs
    ok(11, f"T=1 dispatch costs exactly the full forward plus the router's {router_macs:,} MACs")


def test_c11_worst_case_overhead_tiny(tiny_cfg, tiny_params):
    pair = random_pair(np.random.default_rng(111), tiny_cfg)
    with tensor.count_macs() as plain:
        forward(*pair, tiny_params, route=ROUTE2)
    with tensor.count_macs() as gated:
        forward(*pair, tiny_params, threshold=1.0)
    router_macs = flop_account(tiny_cfg).extras["router"].macs
    assert gated.total - plain.total == router_macs
    assert gated.get("router") == router_macs
    ok(11, f"tiny: T=1 dispatch costs exactly the full forward plus the router's {router_macs:,} MACs")


def test_c12_serialization(toy_cfg, tmp_path):
    params = init_weights(toy_cfg, seed=12)
    path = tmp_path / "weights.hitw"
    save_weights(path, params)
    again = load_weights(path, toy_cfg)
    for (na, ta), (nb, tb) in zip(named_arrays(params), named_arrays(again)):
        assert na == nb and np.array_equal(ta, tb)
    blob = bytearray(path.read_bytes())
    blob[-40] ^= 0xA5
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError):
        load_weights(path, toy_cfg)
    ok(12, "archive round-trips bit-exactly; corrupted payload checksum rejected")


def test_c12_serialization_tiny(tiny_cfg, tiny_params, tmp_path):
    path = tmp_path / "weights.hitw"
    save_weights(path, tiny_params)
    again = load_weights(path, tiny_cfg)
    for (na, ta), (nb, tb) in zip(named_arrays(tiny_params), named_arrays(again)):
        assert na == nb and np.array_equal(ta, tb)
    blob = bytearray(path.read_bytes())
    blob[-40] ^= 0xA5
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="checksum"):
        load_weights(path, tiny_cfg)
    ok(12, "tiny: archive round-trips bit-exactly; corrupted payload checksum rejected")


@pytest.mark.parametrize("variant", ["tiny", "base"])
def test_c13_head_numerics(variant, monkeypatch):
    # On a tracker-protocol crop pair, both heads' re-weighted features and
    # corner-branch activations hold no float32 subnormals, and the
    # position softmax that re-weights the features is not collapsed.
    cfg = hitrack.make_config(variant)
    params = init_weights(cfg, seed=7)
    seq = runtime.gen_synthetic(seed=0, difficulty=0, length=2)
    tpl, _ = runtime.crop_resize(seq.frames[0], seq.boxes[0], routing.TEMPLATE_FACTOR,
                                 cfg.template_size)
    srch, _ = runtime.crop_resize(seq.frames[1], seq.boxes[0], routing.SEARCH_FACTOR,
                                  cfg.search_size)
    state = stage1_forward(embed_template(tpl, params), srch, params)
    activations, softmaxes = [], []

    # The spies keep copies: the head adds biases, runs hardswish and
    # normalises its logits in place on the buffers they would capture.
    def conv_spy(x, kernel, *args, **kwargs):
        out = tensor.conv2d(x, kernel, *args, **kwargs)
        activations.extend((x.copy(), out.copy()))
        return out

    def conv_many_spy(x, kernels, *args, **kwargs):
        outs = tensor.conv2d_many(x, kernels, *args, **kwargs)
        activations.append(x.copy())
        activations.extend(out.copy() for out in outs)
        return outs

    def softmax_spy(x, *args, **kwargs):
        out = tensor.softmax_rows(x, *args, **kwargs)
        softmaxes.append(out.copy())
        return out

    monkeypatch.setattr(fusion, "conv2d", conv_spy)
    monkeypatch.setattr(fusion, "conv2d_many", conv_many_spy)
    monkeypatch.setattr(fusion, "softmax_rows", softmax_spy)
    smallest_normal = np.finfo(np.float32).tiny
    peaks = {}
    for route in (routing.ROUTE1, routing.ROUTE2):
        activations.clear()
        softmaxes.clear()
        routing.route_head(state, params, route)
        assert all(a.dtype == np.float32 for a in activations)
        subnormal = sum(int(((a != 0) & (np.abs(a) < smallest_normal)).sum()) for a in activations)
        assert subnormal == 0, f"{route}: {subnormal} subnormal values"
        peaks[route] = float(softmaxes[0].max())  # the re-weighting softmax runs first
        assert peaks[route] < 0.5, f"{route}: position softmax peaks at {peaks[route]:.3f}"
    ok(13, f"{variant}: no float32 subnormals in either head; position softmax peaks "
           f"{peaks[routing.ROUTE1]:.4f} (Head1), {peaks[routing.ROUTE2]:.4f} (Head2)")
