import numpy as np
import pytest

import hitrack
from hitrack import cli, objectives, runtime, weights
from hitrack.cli import main
from hitrack.errors import DataError

from conftest import make_separable_dataset


@pytest.fixture(scope="module")
def seq_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    out = root / "seq"
    assert main(["gen-synth", "--out", str(out), "--seed", "3", "--difficulty", "1",
                 "--length", "10"]) == 0
    return out


class TestGenSynth:
    def test_writes_frames_and_gt(self, seq_dir):
        frames = sorted(seq_dir.glob("*.ppm"))
        assert len(frames) == 10
        assert (seq_dir / "groundtruth.txt").exists()
        assert frames[0].name == "000001.ppm"

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["gen-synth", "--out", str(out), "--seed", "11",
                         "--difficulty", "2", "--length", "4"]) == 0
        for fa, fb in zip(sorted(a.glob("*.ppm")), sorted(b.glob("*.ppm"))):
            assert fa.read_bytes() == fb.read_bytes()


class TestTrackEvalFlow:
    def test_track_then_eval(self, seq_dir, tmp_path, capsys):
        out = tmp_path / "boxes.txt"
        dec = tmp_path / "decisions.csv"
        code = main(["track", "--variant", "toy", "--seed", "7", "--frames", str(seq_dir),
                     "--tracker", "dyhit", "--threshold", "0.45",
                     "--out", str(out), "--decisions-out", str(dec)])
        assert code == 0
        boxes = runtime.read_boxes(out)
        assert len(boxes) == 10
        lines = dec.read_text().splitlines()
        assert lines[0] == "frame,route,F,fallback,reused"
        assert len(lines) == 10  # header + 9 decisions
        assert main(["eval", "--pred", str(out), "--gt", str(seq_dir / "groundtruth.txt")]) == 0
        printed = capsys.readouterr().out
        assert "AO:" in printed and "AUC:" in printed

    def test_init_box_overrides_first_gt_box(self, seq_dir, tmp_path):
        gt = runtime.read_boxes(seq_dir / "groundtruth.txt")
        out_a, out_b = tmp_path / "a.txt", tmp_path / "b.txt"
        base = ["track", "--variant", "toy", "--seed", "7", "--frames", str(seq_dir),
                "--tracker", "full"]
        assert main(base + ["--out", str(out_a)]) == 0
        box = ",".join(repr(v) for v in gt[0])
        assert main(base + ["--init-box", box, "--out", str(out_b)]) == 0
        assert out_a.read_text() == out_b.read_text()
        shifted = ",".join(repr(v + 1.0) for v in gt[0])
        assert main(base + ["--init-box", shifted, "--out", str(out_b)]) == 0
        assert runtime.read_boxes(out_b)[0] == tuple(v + 1.0 for v in gt[0])

    def test_track_synth_shortcut(self, tmp_path):
        out = tmp_path / "boxes.txt"
        assert main(["track", "--variant", "toy", "--synth", "5:0:6",
                     "--tracker", "route1", "--out", str(out)]) == 0
        assert len(runtime.read_boxes(out)) == 6

    def test_dytracker_needs_base_results(self, seq_dir, tmp_path):
        out = tmp_path / "boxes.txt"
        code = main(["track", "--variant", "toy", "--frames", str(seq_dir),
                     "--tracker", "dytracker", "--out", str(out)])
        assert code == cli.DATA_ERROR

    def test_dytracker_with_base_file(self, seq_dir, tmp_path):
        gt = runtime.read_boxes(seq_dir / "groundtruth.txt")
        base = tmp_path / "base.txt"
        runtime.write_boxes(base, gt)
        out = tmp_path / "boxes.txt"
        assert main(["track", "--variant", "toy", "--frames", str(seq_dir),
                     "--tracker", "dytracker", "--threshold", "1.0",
                     "--base-results", str(base), "--out", str(out)]) == 0
        # T=1 means every frame is re-predicted by the base file (= gt)
        pred = runtime.read_boxes(out)
        assert pred[1:] == gt[1:]

    def test_dytracker_classify_every_n(self, seq_dir, tmp_path):
        gt = runtime.read_boxes(seq_dir / "groundtruth.txt")
        base = tmp_path / "base.txt"
        runtime.write_boxes(base, gt)
        dec = tmp_path / "decisions.csv"
        args = ["track", "--variant", "toy", "--frames", str(seq_dir), "--tracker", "dytracker",
                "--threshold", "0", "--base-results", str(base),
                "--out", str(tmp_path / "boxes.txt"), "--decisions-out", str(dec)]
        assert main(args + ["--classify-every-n", "2"]) == 0
        rows = [line.split(",") for line in dec.read_text().splitlines()[1:]]
        assert [(int(r[0]), r[4]) for r in rows] == [(f, str(f % 2)) for f in range(2, 11)]
        assert main(args + ["--classify-every-n", "0"]) == cli.DATA_ERROR

    def test_non_finite_base_box_exits_numeric(self, seq_dir, tmp_path):
        gt = runtime.read_boxes(seq_dir / "groundtruth.txt")
        base = tmp_path / "base.txt"
        base.write_text("".join(f"{x},{y},{w},{h}\n" for x, y, w, h in gt[:-1])
                        + "nan,nan,nan,nan\n")
        out = tmp_path / "boxes.txt"
        assert main(["track", "--variant", "toy", "--frames", str(seq_dir),
                     "--tracker", "dytracker", "--threshold", "1.0",
                     "--base-results", str(base), "--out", str(out)]) == cli.NUMERIC_ERROR
        assert not out.exists()


def write_pair(tmp_path, seed=0):
    """Random toy-sized template and search PPMs."""
    rng = np.random.default_rng(seed)
    paths = []
    for name, side in (("t.ppm", 64), ("s.ppm", 128)):
        paths.append(tmp_path / name)
        runtime.write_ppm(paths[-1], rng.uniform(0, 255, (side, side, 3)))
    return ["--template", str(paths[0]), "--search", str(paths[1])]


class TestInfer:
    def test_infer_on_crops(self, seq_dir, tmp_path, capsys):
        frames = runtime.load_frames(seq_dir)
        gt = runtime.read_boxes(seq_dir / "groundtruth.txt")
        tpl, _ = runtime.crop_resize(frames[0], gt[0], 2.0, 64)
        srch, _ = runtime.crop_resize(frames[1], gt[0], 4.0, 128)
        tpath, spath = tmp_path / "t.ppm", tmp_path / "s.ppm"
        runtime.write_ppm(tpath, tpl)
        runtime.write_ppm(spath, srch)
        assert main(["infer", "--variant", "toy", "--seed", "7", "--template", str(tpath),
                     "--search", str(spath), "--threshold", "0.5"]) == 0
        printed = capsys.readouterr().out
        assert "corners_norm:" in printed and "route:" in printed

    def test_non_finite_head_output_is_4(self, seq_dir, tmp_path, capsys):
        from hitrack.weights import init_weights, save_weights
        frames = runtime.load_frames(seq_dir)
        gt = runtime.read_boxes(seq_dir / "groundtruth.txt")
        tpl, _ = runtime.crop_resize(frames[0], gt[0], 2.0, 64)
        srch, _ = runtime.crop_resize(frames[1], gt[0], 4.0, 128)
        tpath, spath = tmp_path / "t.ppm", tmp_path / "s.ppm"
        runtime.write_ppm(tpath, tpl)
        runtime.write_ppm(spath, srch)
        params = init_weights(hitrack.make_config("toy"), seed=7)
        params.head2.tl[-1].bias[:] = np.nan
        path = tmp_path / "nan.hitw"
        save_weights(path, params)
        code = main(["infer", "--variant", "toy", "--weights", str(path), "--template", str(tpath),
                     "--search", str(spath), "--route", "full"])
        assert code == cli.NUMERIC_ERROR
        assert "corners_norm" not in capsys.readouterr().out

    def test_route_override(self, seq_dir, tmp_path, capsys):
        frames = runtime.load_frames(seq_dir)
        gt = runtime.read_boxes(seq_dir / "groundtruth.txt")
        tpl, _ = runtime.crop_resize(frames[0], gt[0], 2.0, 64)
        srch, _ = runtime.crop_resize(frames[1], gt[0], 4.0, 128)
        tpath, spath = tmp_path / "t.ppm", tmp_path / "s.ppm"
        runtime.write_ppm(tpath, tpl)
        runtime.write_ppm(spath, srch)
        assert main(["infer", "--variant", "toy", "--template", str(tpath),
                     "--search", str(spath), "--route", "route1"]) == 0
        assert "route:" not in capsys.readouterr().out

    @pytest.mark.parametrize("route", ["auto", "route1", "full"])
    @pytest.mark.parametrize("threshold", ["5", "-0.1", "nan"])
    def test_threshold_out_of_range_is_3_on_every_route(self, tmp_path, capsys, route, threshold):
        code = main(["infer", "--variant", "toy", *write_pair(tmp_path), "--route", route,
                     "--threshold", threshold])
        assert code == cli.DATA_ERROR
        captured = capsys.readouterr()
        assert "threshold" in captured.err
        assert "corners_norm" not in captured.out


class TestSweepBenchFlops:
    def test_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--variant", "toy", "--seed", "7", "--synth", "5:0:6,6:3:6",
                     "--grid", "0,1", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "T,metric,fps,route1_fraction"
        assert len(lines) == 3

    def test_bench(self, capsys):
        assert main(["bench", "--variant", "toy", "--seed", "7", "--synth", "5:0:5",
                     "--tracker", "route1", "--warmup", "1", "--reps", "1"]) == 0
        printed = capsys.readouterr().out
        assert "fps:" in printed

    def test_flops_table(self, capsys):
        assert main(["flops", "--variant", "base"]) == 0
        printed = capsys.readouterr().out
        assert "bridge" in printed and "router*" in printed and "total" in printed


class TestFitRouterCommand:
    def test_fit_and_save(self, tmp_path, capsys):
        x, y = make_separable_dataset(seed=8, n=128, dim=32)
        data = tmp_path / "set.rtds"
        objectives.write_router_dataset(data, x, y)
        out = tmp_path / "router.hitw"
        assert main(["fit-router", "--dataset", str(data), "--lr", "0.01",
                     "--epochs", "50", "--seed", "0", "--out", str(out)]) == 0
        assert out.exists()
        printed = capsys.readouterr().out
        assert "loss:" in printed

    @pytest.mark.parametrize("variant", ["toy", "tiny", "base"])
    def test_fitted_router_loads_for_its_variant(self, tmp_path, variant):
        # the hidden sizes come from the variant whose C1 is the feature width
        cfg = hitrack.make_config(variant)
        x, y = make_separable_dataset(seed=10, n=64, dim=cfg.channels[0])
        data = tmp_path / "set.rtds"
        objectives.write_router_dataset(data, x, y)
        out = tmp_path / "router.hitw"
        assert main(["fit-router", "--dataset", str(data), "--epochs", "3", "--out", str(out)]) == 0
        router = weights.load_router(out, cfg)
        assert (router.w1.shape, router.w2.shape) == ((cfg.channels[0], cfg.router_hidden[0]),
                                                      cfg.router_hidden)

    def test_feature_width_of_no_variant_is_3(self, tmp_path, capsys):
        x, y = make_separable_dataset(seed=11, n=32, dim=16)
        data = tmp_path / "set.rtds"
        objectives.write_router_dataset(data, x, y)
        out = tmp_path / "router.hitw"
        assert main(["fit-router", "--dataset", str(data), "--epochs", "3",
                     "--out", str(out)]) == cli.DATA_ERROR
        assert "16-channel" in capsys.readouterr().err
        assert not out.exists()


class TestConfigFile:
    def test_config_file_applies(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("variant = toy\n# comment line\ntau_fg = 0.7\n")
        assert main(["flops", "--config", str(cfg)]) == 0
        assert "toy" in capsys.readouterr().out

    def test_seed_key_reaches_weights(self, tmp_path, capsys):
        pair = write_pair(tmp_path)

        def infer(*model_args):
            assert main(["infer", *model_args, *pair]) == 0
            return capsys.readouterr().out

        cfg = tmp_path / "run.cfg"
        cfg.write_text("variant = toy\nseed = 7\n")
        from_file = infer("--config", str(cfg))
        assert from_file == infer("--variant", "toy", "--seed", "7")
        seed0 = infer("--variant", "toy", "--seed", "0")
        assert from_file != seed0
        assert infer("--config", str(cfg), "--seed", "0") == seed0  # the flag wins

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense = 1\n")
        assert main(["flops", "--config", str(cfg)]) == cli.DATA_ERROR

    def test_non_finite_tau_fg_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("variant = toy\ntau_fg = nan\n")
        assert main(["flops", "--config", str(cfg)]) == cli.DATA_ERROR

    @pytest.mark.parametrize("line", ["arrangement = vertical", "pe_mode = absolute",
                                      "bridge_kernel = 2", "mlp_ratio = 2"])
    def test_ablation_switch_keys_are_unknown(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"variant = toy\n{line}\n")
        assert main(["flops", "--config", str(cfg)]) == cli.DATA_ERROR
        assert repr(line.split(" ")[0]) in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("variant toy\n")
        with pytest.raises(DataError, match=":1:"):
            cli.read_config_file(cfg)


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["track", "--tracker", "warp-drive", "--out", "x"])
        assert exc.value.code == cli.USAGE_ERROR

    @staticmethod
    def usage_code(argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert "usage:" in capsys.readouterr().err
        return exc.value.code

    @pytest.mark.parametrize("spec", ["5:0", "5:a:4", "5:0:4:1", ""])
    def test_malformed_synth_is_2(self, tmp_path, capsys, spec):
        for command in (["track", "--out", str(tmp_path / "o.txt")], ["bench"]):
            argv = command + ["--variant", "toy", "--synth", spec]
            assert self.usage_code(argv, capsys) == cli.USAGE_ERROR
        argv = ["sweep", "--variant", "toy", "--synth", f"5:0:6,{spec}"]
        assert self.usage_code(argv, capsys) == cli.USAGE_ERROR

    @pytest.mark.parametrize("size", ["12y", "12x", "x16", "12x16x3"])
    def test_malformed_size_is_2(self, tmp_path, capsys, size):
        argv = ["gen-synth", "--out", str(tmp_path / "seq"), "--size", size]
        assert self.usage_code(argv, capsys) == cli.USAGE_ERROR
        assert not (tmp_path / "seq").exists()

    @pytest.mark.parametrize("grid", ["0,x", "", "0,,1"])
    def test_malformed_grid_is_2(self, capsys, grid):
        argv = ["sweep", "--variant", "toy", "--synth", "5:0:6", "--grid", grid]
        assert self.usage_code(argv, capsys) == cli.USAGE_ERROR

    @pytest.mark.parametrize("box", ["1,2,a,4", "1,2,3", ""])
    def test_malformed_init_box_is_2(self, tmp_path, capsys, box):
        argv = ["track", "--variant", "toy", "--synth", "5:0:4", "--init-box", box,
                "--out", str(tmp_path / "o.txt")]
        assert self.usage_code(argv, capsys) == cli.USAGE_ERROR
        assert not (tmp_path / "o.txt").exists()

    def test_missing_sequence_source_is_2(self, tmp_path, capsys):
        argv = ["track", "--variant", "toy", "--out", str(tmp_path / "o.txt")]
        assert self.usage_code(argv, capsys) == cli.USAGE_ERROR

    def test_size_sets_frame_extent(self, tmp_path):
        assert main(["gen-synth", "--out", str(tmp_path / "seq"), "--size", "48x64",
                     "--length", "1"]) == 0
        assert runtime.load_frames(tmp_path / "seq")[0].shape == (48, 64, 3)

    @pytest.mark.parametrize("size", ["0x0", "8x8", "31x64", "64x31"])
    def test_synth_side_below_minimum_is_3(self, tmp_path, capsys, size):
        out = tmp_path / "seq"
        assert main(["gen-synth", "--out", str(out), "--size", size, "--length", "2"]) == cli.DATA_ERROR
        assert "at least 32" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("difficulty", range(4))
    def test_minimum_synth_side_runs(self, tmp_path, difficulty):
        out = tmp_path / "seq"
        assert main(["gen-synth", "--out", str(out), "--size", "32x32", "--seed", "5",
                     "--difficulty", str(difficulty), "--length", "20"]) == 0
        assert runtime.load_frames(out)[0].shape == (32, 32, 3)

    @pytest.mark.parametrize("line", ["nan,2,3,4", "1,2,inf,4", "1,-inf,3,4"])
    @pytest.mark.parametrize("side", ["pred", "gt"])
    def test_non_finite_eval_box_is_4(self, tmp_path, capsys, side, line):
        good = tmp_path / "good.txt"
        good.write_text("1,2,3,4\n1,2,3,4\n")
        bad = tmp_path / "bad.txt"
        bad.write_text(f"1,2,3,4\n{line}\n")
        files = {"pred": good, "gt": good, side: bad}
        assert main(["eval", "--pred", str(files["pred"]), "--gt", str(files["gt"])]) == cli.NUMERIC_ERROR
        captured = capsys.readouterr()
        assert "bad.txt:2" in captured.err
        assert "AO" not in captured.out

    @pytest.mark.parametrize("header", [b"P6\nabc 2\n255\n", b"P6\n4"])
    def test_malformed_ppm_header_is_3(self, tmp_path, capsys, header):
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(header)
        code = main(["infer", "--variant", "toy", "--template", str(bad), "--search", str(bad)])
        assert code == cli.DATA_ERROR
        assert "bad.ppm" in capsys.readouterr().err

    @pytest.mark.parametrize("timing", [["--synth", "1:0:1"],
                                        ["--synth", "5:0:4", "--warmup", "-1", "--reps", "1"],
                                        ["--synth", "5:0:4", "--warmup", "-2", "--reps", "3"]])
    def test_bench_without_timed_frames_is_3(self, capsys, timing):
        assert main(["bench", "--variant", "toy", *timing]) == cli.DATA_ERROR
        assert "fps" not in capsys.readouterr().out

    def test_sweep_without_stepped_frames_is_3(self, capsys):
        code = main(["sweep", "--variant", "toy", "--synth", "1:0:1", "--grid", "0,1"])
        assert code == cli.DATA_ERROR
        assert "inf" not in capsys.readouterr().out

    def test_missing_file_is_3(self, tmp_path):
        assert main(["eval", "--pred", str(tmp_path / "none.txt"),
                     "--gt", str(tmp_path / "none.txt")]) == cli.DATA_ERROR

    def test_corrupt_weights_is_3(self, seq_dir, tmp_path):
        bad = tmp_path / "bad.hitw"
        bad.write_bytes(b"HITWgarbage")
        assert main(["track", "--variant", "toy", "--weights", str(bad),
                     "--frames", str(seq_dir), "--out", str(tmp_path / "o.txt")]) == cli.DATA_ERROR

    def test_numeric_failure_is_4(self, tmp_path):
        x, y = make_separable_dataset(seed=9, n=32, dim=32)
        x[0, 0] = np.nan
        data = tmp_path / "nan.rtds"
        objectives.write_router_dataset(data, x, y)
        code = main(["fit-router", "--dataset", str(data), "--epochs", "5",
                     "--out", str(tmp_path / "r.hitw")])
        assert code == cli.NUMERIC_ERROR

    def test_non_finite_init_box_is_4(self, seq_dir, tmp_path):
        nan_dir = tmp_path / "seq"
        nan_dir.mkdir()
        for frame in seq_dir.glob("*.ppm"):
            (nan_dir / frame.name).write_bytes(frame.read_bytes())
        lines = (seq_dir / "groundtruth.txt").read_text().splitlines()
        lines[0] = "nan,10.0,12.0,12.0"
        (nan_dir / "groundtruth.txt").write_text("\n".join(lines) + "\n")
        code = main(["track", "--variant", "toy", "--frames", str(nan_dir),
                     "--tracker", "full", "--out", str(tmp_path / "o.txt")])
        assert code == cli.NUMERIC_ERROR

    @pytest.mark.parametrize("empty", ["000001.ppm", "000002.ppm"])
    def test_empty_ppm_frame_is_3(self, seq_dir, tmp_path, capsys, empty):
        frames = tmp_path / "seq"
        frames.mkdir()
        for name in ("000001.ppm", "000002.ppm"):
            (frames / name).write_bytes((seq_dir / name).read_bytes())
        (frames / empty).write_bytes(b"P6\n0 0\n255\n")
        gt = (seq_dir / "groundtruth.txt").read_text().splitlines()[:2]
        (frames / "groundtruth.txt").write_text("\n".join(gt) + "\n")
        code = main(["track", "--variant", "toy", "--frames", str(frames), "--tracker", "full",
                     "--out", str(tmp_path / "o.txt")])
        assert code == cli.DATA_ERROR
        assert f"{empty}: empty 0x0 image" in capsys.readouterr().err

    def test_threshold_out_of_range_is_3(self, seq_dir, tmp_path):
        code = main(["track", "--variant", "toy", "--frames", str(seq_dir), "--tracker", "full",
                     "--threshold", "5", "--out", str(tmp_path / "o.txt")])
        assert code == cli.DATA_ERROR

    @pytest.mark.parametrize("tau_fg", ["nan", "1.5"])
    def test_tau_fg_outside_unit_interval_is_3(self, tmp_path, tau_fg):
        code = main(["track", "--variant", "toy", "--synth", "5:0:6", "--tracker", "dyhit",
                     "--tau-fg", tau_fg, "--out", str(tmp_path / "o.txt")])
        assert code == cli.DATA_ERROR
        assert not (tmp_path / "o.txt").exists()

    def test_non_finite_router_score_is_4(self, seq_dir, tmp_path):
        from hitrack.weights import init_weights, save_weights
        params = init_weights(hitrack.make_config("toy"), seed=7)
        params.router.b3[:] = np.nan
        path = tmp_path / "nan.hitw"
        save_weights(path, params)
        code = main(["track", "--variant", "toy", "--weights", str(path), "--frames",
                     str(seq_dir), "--tracker", "dyhit", "--out", str(tmp_path / "o.txt")])
        assert code == cli.NUMERIC_ERROR

    def test_weights_round_trip_through_cli_model(self, seq_dir, tmp_path):
        from hitrack.weights import init_weights, save_weights
        cfg = hitrack.make_config("toy")
        path = tmp_path / "w.hitw"
        save_weights(path, init_weights(cfg, seed=7))
        out_a = tmp_path / "a.txt"
        out_b = tmp_path / "b.txt"
        assert main(["track", "--variant", "toy", "--weights", str(path), "--frames",
                     str(seq_dir), "--tracker", "full", "--out", str(out_a)]) == 0
        assert main(["track", "--variant", "toy", "--seed", "7", "--frames",
                     str(seq_dir), "--tracker", "full", "--out", str(out_b)]) == 0
        assert out_a.read_text() == out_b.read_text()
