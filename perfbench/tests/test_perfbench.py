"""Tests of the benchmark itself: inputs, output format, checks and tracing.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""
import dataclasses
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import BENCH_DIR, ROOT
import bench
import tracing
from hitrack import init_weights, make_config, runtime, tensor
from workloads import WEIGHT_SEED, WORKLOADS, make_sequence

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# toy-full's tracker on small frames and short sequences, to keep tests fast.
SMALL = dataclasses.replace(WORKLOADS["toy-full"], frame_hw=(120, 160), length=6)


@pytest.fixture(scope="module")
def toy_params():
    return init_weights(make_config("toy"), WEIGHT_SEED)


def run_command(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_same_seed_gives_identical_inputs():
    wl = WORKLOADS["tiny-gate"]
    a, b = make_sequence(wl, 3, 1), make_sequence(wl, 3, 1)
    assert np.array_equal(a.frames, b.frames) and np.array_equal(a.boxes, b.boxes)
    assert not np.array_equal(a.frames, make_sequence(wl, 4, 1).frames)
    assert not np.array_equal(a.frames, make_sequence(wl, 3, 2).frames)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(trace, section):
    proc = run_command("--workload", "toy-full", "--seed", "5", "--seconds", "1",
                       "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    for m in SPEC[section]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
        assert any(line.startswith(f"metric {m['name']} ") and f" {m['unit']} (" in line
                   for line in lines), m["name"]


def test_nonfinite_box_raises_fail_rate(monkeypatch):
    real = runtime.map_box_to_frame
    calls = []

    def poisoned(corners, mapping):
        calls.append(1)
        box = real(corners, mapping)
        return (math.nan,) + box[1:] if len(calls) == 3 else box

    real_pass = bench.track_pass

    def poisoned_pass(*args, **kwargs):  # leave set-up alone, poison the timed pass
        monkeypatch.setattr(runtime, "map_box_to_frame", poisoned)
        return real_pass(*args, **kwargs)

    monkeypatch.setattr(bench, "track_pass", poisoned_pass)
    result = bench.run(SMALL, seed=0, seconds=0.2, trace=False)
    assert not result.correct
    assert result.failed >= 1
    assert any("non-finite box" in r for r in result.failures)
    fail_rate = next(line for line in result.report if line.startswith("fail_rate "))
    assert float(fail_rate.split()[1]) > 0.0


def test_traced_pass_checks_macs_and_self_times(toy_params):
    originals = (tensor.mac_scope, tensor.matmul, runtime.crop_resize)
    result = bench.run(SMALL, seed=1, seconds=0.5, trace=True)
    assert (tensor.mac_scope, tensor.matmul, runtime.crop_resize) == originals
    assert result.correct, result.failures
    m = result.metrics
    parts = sum(m[f"{n}.ms"].value
                for n in (*tracing.LABEL_SPANS.values(), *tracing.CROP_SPANS.values()))
    parts += m["routing.dispatch.ms"].value
    assert parts == pytest.approx(m["trace.frame_ms"].value, rel=1e-9)
    assert m["tensor.matmul.calls"].value > 0
    assert m["fusion.head1.ms"].value == 0.0 and m["fusion.head2.ms"].value > 0.0


def test_mac_check_rejects_a_wrong_count(toy_params, monkeypatch):
    real = bench.expected_macs

    def off_by_one(wl, cfg):
        expected = real(wl, cfg)
        expected["route2"] = dict(expected["route2"], head2=expected["route2"]["head2"] + 1)
        return expected

    monkeypatch.setattr(bench, "expected_macs", off_by_one)
    traced = bench.track_pass(SMALL, toy_params, 0, n_sequences=1, tracer=tracing.Tracer())
    assert traced.failed == SMALL.length - 1
    assert all("closed form" in r for r in traced.failures)


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    own = tracer.self_times()
    outer, a, b = tracer.spans
    assert own[0] == pytest.approx(outer.duration - a.duration - b.duration)
    assert own[1:] == [a.duration, b.duration]


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = run_command("--workload", "toy-full", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
