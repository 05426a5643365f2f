import numpy as np
import pytest

import hitrack
from hitrack import cli, objectives, runtime
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
        x, y = make_separable_dataset(seed=8, n=128, dim=16)
        data = tmp_path / "set.rtds"
        objectives.write_router_dataset(data, x, y)
        out = tmp_path / "router.hitw"
        assert main(["fit-router", "--dataset", str(data), "--lr", "0.01",
                     "--epochs", "50", "--seed", "0", "--out", str(out)]) == 0
        assert out.exists()
        printed = capsys.readouterr().out
        assert "loss:" in printed


class TestConfigFile:
    def test_config_file_applies(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("variant = toy\n# comment line\ntau_fg = 0.7\n")
        assert main(["flops", "--config", str(cfg)]) == 0
        assert "toy" in capsys.readouterr().out

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense = 1\n")
        assert main(["flops", "--config", str(cfg)]) == cli.DATA_ERROR

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

    def test_missing_file_is_3(self, tmp_path):
        assert main(["eval", "--pred", str(tmp_path / "none.txt"),
                     "--gt", str(tmp_path / "none.txt")]) == cli.DATA_ERROR

    def test_corrupt_weights_is_3(self, seq_dir, tmp_path):
        bad = tmp_path / "bad.hitw"
        bad.write_bytes(b"HITWgarbage")
        assert main(["track", "--variant", "toy", "--weights", str(bad),
                     "--frames", str(seq_dir), "--out", str(tmp_path / "o.txt")]) == cli.DATA_ERROR

    def test_numeric_failure_is_4(self, tmp_path):
        x, y = make_separable_dataset(seed=9, n=32, dim=8)
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

    def test_threshold_out_of_range_is_3(self, seq_dir, tmp_path):
        code = main(["track", "--variant", "toy", "--frames", str(seq_dir), "--tracker", "full",
                     "--threshold", "5", "--out", str(tmp_path / "o.txt")])
        assert code == cli.DATA_ERROR

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
