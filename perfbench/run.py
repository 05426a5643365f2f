"""hitrack end-to-end tracking benchmark.

Runs one workload in this process and prints a readable report followed by
one JSON line with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``. Run it from the repository root:

    python3 perfbench/run.py --workload toy-full --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
MAX_REPORTED_FAILURES = 5
# One BLAS thread: a GEMM split over two threads waits for the slower one,
# so on a shared 2-core machine its time follows whatever else holds a core.
BLAS_THREADS = 1


def pin_blas_threads() -> int:
    """Pin BLAS to BLAS_THREADS threads (at most nproc); must precede numpy."""
    n = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def environment(threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": threads,
            "numpy": np.__version__, "blas": blas, "python": platform.python_version()}


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if not (SRC / "hitrack" / "__init__.py").is_file():
        print(f"error: no hitrack sources under {SRC}", file=sys.stderr)
        return 2
    threads = pin_blas_threads()
    sys.path[:0] = [str(SRC), str(HERE)]
    import hitrack

    if Path(hitrack.__file__).resolve().parent != (SRC / "hitrack").resolve():
        print(f"error: imported hitrack from {hitrack.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from bench import run
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    result = run(wl, args.seed, args.seconds, bool(args.trace), OUT_DIR)

    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(environment(threads)))
    for line in result.report:
        print(line)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    failures = list(result.failures)
    metrics = {}
    for entry in listed:
        m = result.metrics[entry["name"]]
        print(f"metric {entry['name']} {m.value:.6g} {entry['unit']} ({m.samples})")
        if not math.isfinite(m.value):
            failures.append(f"metric {entry['name']} is {m.value}")
        metrics[entry["name"]] = {"value": m.value if math.isfinite(m.value) else None,
                                  "unit": entry["unit"]}
    for reason in failures[:MAX_REPORTED_FAILURES]:
        print(f"FAILED {reason}")
    if len(failures) > MAX_REPORTED_FAILURES:
        print(f"FAILED ... and {len(failures) - MAX_REPORTED_FAILURES} more")
    print(json.dumps({"correct": result.correct and not failures,
                      "attempted": result.attempted, "failed": result.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
