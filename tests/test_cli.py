import numpy as np
import pytest

import hitrack
from hitrack import cli, evalbench, objectives, runtime, weights
from hitrack.cli import main
from hitrack.errors import DataError


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

    def test_bench_classify_every_n(self, monkeypatch):
        seen = []
        latency_bench = evalbench.latency_bench

        def spy(tracker, *args, **kwargs):
            seen.append(tracker.params.config.classify_every_n)
            return latency_bench(tracker, *args, **kwargs)

        monkeypatch.setattr(evalbench, "latency_bench", spy)
        argv = ["bench", "--variant", "toy", "--seed", "7", "--synth", "5:0:5", "--tracker", "dyhit",
                "--warmup", "0", "--reps", "1", "--classify-every-n"]
        assert main(argv + ["2"]) == 0
        assert seen == [2]
        assert main(argv + ["0"]) == cli.DATA_ERROR

    @staticmethod
    def flops_rows(capsys, dtype, itemsize):
        assert main(["flops", "--variant", "base", "--dtype", dtype]) == 0
        printed = capsys.readouterr().out
        assert "bridge" in printed and "router*" in printed and "total" in printed
        assert dtype in printed.splitlines()[0]
        rows = {line.split()[0]: line.split() for line in printed.splitlines()[2:-1]}
        # roofline columns: weight MiB at the dtype's itemsize, and MACs per weight byte
        report = hitrack.flop_account(hitrack.make_config("base"))
        costs = {**report.modules, **{k + "*": c for k, c in report.extras.items()}}
        for name, cost in costs.items():
            nbytes = cost.params * itemsize
            assert rows[name][-2:] == [f"{nbytes / 2**20:.1f}", f"{cost.macs / nbytes:.1f}"], name
        return rows

    def test_flops_table(self, capsys):
        rows = self.flops_rows(capsys, "float32", 4)
        assert rows["stage3"][-2:] == ["63.1", "5.0"]
        assert rows["bridge"][-2:] == ["36.0", "8.0"]
        assert rows["embed"][-1] == "189.9" and rows["stage1"][-1] == "93.7"
        assert rows["total"][-2:] == ["169.4", "24.3"]

    def test_flops_weight_bytes_follow_dtype(self, capsys):
        rows = self.flops_rows(capsys, "float64", 8)
        assert rows["stage3"][-2:] == ["126.2", "2.5"]


class TestFitRouterCommand:
    SYNTH = "1:0:9,2:3:9"

    def fit(self, out, variant="toy", *extra):
        return main(["fit-router", "--variant", variant, "--seed", "7", "--synth", self.SYNTH,
                     "--epochs", "3", *extra, "--out", str(out)])

    def test_weights_trunk_is_kept(self, tmp_path):
        cfg = hitrack.make_config("toy")
        trunk = tmp_path / "trunk.hitw"
        weights.save_weights(trunk, weights.init_weights(cfg, 3))
        out = tmp_path / "fitted.hitw"
        assert self.fit(out, "toy", "--weights", str(trunk)) == 0
        for (name, got), (_, want) in zip(weights.named_arrays(weights.load_weights(out, cfg)),
                                          weights.named_arrays(weights.init_weights(cfg, 3))):
            # the trunk comes from the archive and only the router is refitted
            assert np.array_equal(got, want) != name.startswith("router."), name

    def test_fit_and_save(self, tmp_path, capsys):
        out = tmp_path / "fitted.hitw"
        assert self.fit(out) == 0
        assert out.exists()
        printed = capsys.readouterr().out
        assert "labelled 256 samples (dim 32): 0 positive (0.00%)" in printed
        assert "loss:" in printed

    @pytest.mark.parametrize("variant", ["toy", "tiny", "base"])
    def test_fitted_router_loads_for_its_variant(self, tmp_path, variant):
        # the archive is the seeded trunk plus the router fitted on its labels
        cfg = hitrack.make_config(variant)
        out = tmp_path / "fitted.hitw"
        assert self.fit(out, variant) == 0
        loaded = weights.load_weights(out, cfg)
        seeded = weights.init_weights(cfg, 7)
        sequences = [runtime.gen_synthetic(*map(int, spec.split(":")))
                     for spec in self.SYNTH.split(",")]
        features, targets = objectives.label_router_samples(sequences, seeded)
        fitted, _ = objectives.fit_router(features, targets, 1e-2, 3, 7,
                                          hidden=cfg.router_hidden)
        for (name, got), (_, want) in zip(weights.named_arrays(loaded),
                                          weights.named_arrays(seeded)):
            if name.startswith("router."):
                want = getattr(fitted, name.split(".", 1)[1]).astype(cfg.np_dtype)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name

    def test_same_arguments_same_bytes(self, tmp_path):
        assert self.fit(tmp_path / "a.hitw") == 0
        assert self.fit(tmp_path / "b.hitw") == 0
        assert (tmp_path / "a.hitw").read_bytes() == (tmp_path / "b.hitw").read_bytes()

    def test_single_frame_sequences_are_3(self, tmp_path, capsys):
        code = main(["fit-router", "--variant", "toy", "--synth", "1:0:1",
                     "--out", str(tmp_path / "r.hitw")])
        assert code == cli.DATA_ERROR
        assert "no frame to label" in capsys.readouterr().err
        assert not (tmp_path / "r.hitw").exists()


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

    @staticmethod
    def observe(probe, tmp_path, capsys, *argv):
        """What a run shows of its options: the flops header, infer's output
        (its T: line and box) or track's decisions file."""
        if probe == "flops":
            assert main(["flops", *argv]) == 0
            return capsys.readouterr().out.splitlines()[0]
        if probe == "infer":
            assert main(["infer", "--variant", "toy", *write_pair(tmp_path), *argv]) == 0
            return capsys.readouterr().out
        decisions = tmp_path / "decisions.csv"
        assert main(["track", "--variant", "toy", "--synth", "5:0:6", "--tracker", "dyhit",
                     "--out", str(tmp_path / "o.txt"), "--decisions-out", str(decisions), *argv]) == 0
        return decisions.read_text()

    @pytest.mark.parametrize("key, file_value, flag, flag_value, probe", [
        ("variant", "toy", "--variant", "tiny", "flops"),
        ("dtype", "float64", "--dtype", "float32", "flops"),
        ("threshold", "0.25", "--threshold", "0.75", "infer"),
        ("seed", "7", "--seed", "3", "infer"),
        ("tau_fg", "0.3", "--tau-fg", "0.5", "track"),
        ("classify_every_n", "2", "--classify-every-n", "3", "track"),
    ])
    def test_flag_beats_file_beats_default(self, tmp_path, capsys, key, file_value, flag,
                                           flag_value, probe):
        config = tmp_path / "run.cfg"
        config.write_text(f"{key} = {file_value}\n")

        def observe(*argv):
            return self.observe(probe, tmp_path, capsys, *argv)

        default = observe()
        from_file = observe("--config", str(config))
        from_flag = observe(flag, flag_value)
        assert from_file != default
        assert observe("--config", str(config), flag, flag_value) == from_flag != from_file

    def test_file_only_keys_reach_the_config(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("variant = toy\ntemplate_size = 128\nsearch_size = 192\nkey_dim = 16\n")
        assert main(["flops", "--config", str(config)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "variant: toy  (template 128, search 192, float32)"
        total = next(line.split() for line in lines if line.startswith("total"))
        cfg = hitrack.make_config("toy", template_size=128, search_size=192, key_dim=16)
        report = hitrack.flop_account(cfg)
        assert total[1:3] == [f"{report.total_macs:,}", f"{report.total_params:,}"]
        assert report.total_params != hitrack.flop_account(
            hitrack.make_config("toy", template_size=128, search_size=192)).total_params

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
    def usage_code(argv, capsys, message=""):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert "usage:" in err and message in err
        return exc.value.code

    @pytest.mark.parametrize("spec", ["5:0", "5:a:4", "5:0:4:1", ""])
    def test_malformed_synth_is_2(self, tmp_path, capsys, spec):
        for command in (["track", "--out", str(tmp_path / "o.txt")], ["bench"]):
            argv = command + ["--variant", "toy", "--synth", spec]
            assert self.usage_code(argv, capsys) == cli.USAGE_ERROR
        argv = ["sweep", "--variant", "toy", "--synth", f"5:0:6,{spec}"]
        assert self.usage_code(argv, capsys) == cli.USAGE_ERROR

    MODEL_COMMANDS = {
        "track": ["track", "--variant", "toy", "--synth=5:0:4", "--out", "{tmp}/o.txt"],
        "sweep": ["sweep", "--variant", "toy", "--synth=5:0:4", "--grid", "0,1"],
        "bench": ["bench", "--variant", "toy", "--synth=5:0:4"],
        "infer": ["infer", "--variant", "toy", "--template", "{tmp}/t.ppm", "--search", "{tmp}/s.ppm"],
        "fit-router": ["fit-router", "--variant", "toy", "--synth=5:0:4", "--epochs", "1",
                       "--out", "{tmp}/r.hitw"],
    }

    def model_argv(self, command, tmp_path):
        return [a.format(tmp=tmp_path) for a in self.MODEL_COMMANDS[command]]

    def test_negative_gen_synth_seed_is_2(self, tmp_path, capsys):
        argv = ["gen-synth", "--out", str(tmp_path / "seq"), "--seed", "-1"]
        assert self.usage_code(argv, capsys, "non-negative integer seed, got '-1'") == cli.USAGE_ERROR
        assert not (tmp_path / "seq").exists()

    @pytest.mark.parametrize("command", sorted(MODEL_COMMANDS))
    def test_negative_model_seed_is_2(self, tmp_path, capsys, command):
        argv = self.model_argv(command, tmp_path) + ["--seed", "-1"]
        assert self.usage_code(argv, capsys, "non-negative integer seed, got '-1'") == cli.USAGE_ERROR
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["track", "bench", "sweep", "fit-router"])
    def test_negative_synth_seed_is_2(self, tmp_path, capsys, command):
        argv = [a.replace("=5:0:4", "=-1:0:5") for a in self.model_argv(command, tmp_path)]
        assert self.usage_code(argv, capsys, "non-negative seed in '-1:0:5'") == cli.USAGE_ERROR
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", sorted(MODEL_COMMANDS))
    def test_negative_config_seed_is_3(self, tmp_path, capsys, command):
        config = tmp_path / "neg.cfg"
        config.write_text("seed = -1\n")
        assert main(self.model_argv(command, tmp_path) + ["--config", str(config)]) == cli.DATA_ERROR
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["neg.cfg"]

    def test_negative_config_seed_with_weights_is_3(self, tmp_path, capsys):
        # the trunk comes from the archive, so only fit-router's router seed reads -1
        trunk = tmp_path / "trunk.hitw"
        weights.save_weights(trunk, weights.init_weights(hitrack.make_config("toy"), 7))
        config = tmp_path / "neg.cfg"
        config.write_text("seed = -1\n")
        argv = self.model_argv("fit-router", tmp_path) + ["--weights", str(trunk), "--config", str(config)]
        assert main(argv) == cli.DATA_ERROR
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "r.hitw").exists()

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

    @pytest.mark.parametrize("entry", ["flops --config", "eval --pred", "eval --gt", "track --gt",
                                       "track --base-results"])
    def test_non_utf8_text_is_3(self, seq_dir, tmp_path, capsys, entry):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"1,2,3,4\n\xff\n")
        good = seq_dir / "groundtruth.txt"
        command, option = entry.split()
        argv = {
            "flops": ["flops"],
            "eval": ["eval", "--pred", str(good), "--gt", str(good)],
            "track": ["track", "--variant", "toy", "--frames", str(seq_dir), "--tracker", "dytracker",
                      "--base-results", str(good), "--out", str(tmp_path / "o.txt")],
        }[command] + [option, str(bad)]
        assert main(argv) == cli.DATA_ERROR
        captured = capsys.readouterr()
        assert "bad.txt: not UTF-8 text" in captured.err
        assert "AO" not in captured.out and not (tmp_path / "o.txt").exists()

    def test_negative_epochs_is_3(self, tmp_path, capsys):
        out = tmp_path / "r.hitw"
        code = main(["fit-router", "--variant", "toy", "--synth", "1:0:5", "--epochs", "-3",
                     "--out", str(out)])
        assert code == cli.DATA_ERROR
        assert "epochs must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_epochs_rejected_before_labelling(self, tmp_path, capsys, monkeypatch):
        def labelled(*args):
            raise AssertionError("labelled before the epochs check")

        monkeypatch.setattr(objectives, "label_router_samples", labelled)
        code = main(["fit-router", "--variant", "toy", "--synth", "1:0:5", "--epochs", "-3",
                     "--out", str(tmp_path / "r.hitw")])
        assert code == cli.DATA_ERROR
        assert "epochs must be >= 0, got -3" in capsys.readouterr().err

    def test_bad_lr_rejected_before_labelling(self, tmp_path, capsys, monkeypatch):
        def labelled(*args):
            raise AssertionError("labelled before the lr check")

        monkeypatch.setattr(objectives, "label_router_samples", labelled)
        out = tmp_path / "r.hitw"
        code = main(["fit-router", "--variant", "toy", "--synth", "1:0:5", "--lr=-1",
                     "--out", str(out)])
        assert code == cli.DATA_ERROR
        assert "lr must be a finite number >= 0, got -1.0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("corrupt", ["duplicate", "truncate"])
    def test_malformed_archive_through_track_is_3(self, seq_dir, tmp_path, capsys, corrupt):
        tensors = weights.named_arrays(weights.init_weights(hitrack.make_config("toy"), 7))
        path = tmp_path / "bad.hitw"
        if corrupt == "duplicate":
            weights.write_archive(path, tensors + [("router.b1", np.full_like(dict(tensors)["router.b1"], 9.0))])
        else:
            weights.write_archive(path, tensors)
            path.write_bytes(path.read_bytes()[:-100])
        out = tmp_path / "o.txt"
        assert main(["track", "--variant", "toy", "--weights", str(path), "--frames", str(seq_dir),
                     "--out", str(out)]) == cli.DATA_ERROR
        assert "bad.hitw" in capsys.readouterr().err
        assert not out.exists()

    def test_corrupt_weights_is_3(self, seq_dir, tmp_path):
        bad = tmp_path / "bad.hitw"
        bad.write_bytes(b"HITWgarbage")
        assert main(["track", "--variant", "toy", "--weights", str(bad),
                     "--frames", str(seq_dir), "--out", str(tmp_path / "o.txt")]) == cli.DATA_ERROR

    def test_numeric_failure_is_4(self, tmp_path, capsys):
        # a diverging step size
        code = main(["fit-router", "--variant", "toy", "--synth", "1:0:9", "--lr", "1e300",
                     "--epochs", "5", "--out", str(tmp_path / "r.hitw")])
        assert code == cli.NUMERIC_ERROR
        assert "diverged" in capsys.readouterr().err
        assert not (tmp_path / "r.hitw").exists()

    def test_overflowing_base_box_is_4(self, tmp_path, capsys):
        base = tmp_path / "base.txt"
        base.write_text("0,0,1e200,1e200\n" * 6)
        out = tmp_path / "o.txt"
        code = main(["track", "--variant", "toy", "--seed", "7", "--synth", "1:0:6",
                     "--tracker", "dytracker", "--threshold", "1", "--base-results", str(base),
                     "--out", str(out)])
        assert code == cli.NUMERIC_ERROR
        # frame 2 takes the base box; frame 3's crop around it overflows
        assert "tracker failed at frame 3: crop window" in capsys.readouterr().err
        assert not out.exists()

    def test_key_dim_below_one_is_3(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("variant = toy\nkey_dim = -1\n")
        assert main(["flops", "--config", str(config)]) == cli.DATA_ERROR
        assert "key_dim must be >= 1, got -1" in capsys.readouterr().err

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
