"""The benchmark's workloads and their seeded, lazily generated inputs.

Every workload is a closed loop: one tracker, one process, each frame cropped
around the box the tracker returned for the previous frame. Inputs come from
``hitrack.gen_synthetic``; a sequence is generated just before it is tracked
and dropped after, so peak memory measures the program, not the suite.
"""
from __future__ import annotations

from dataclasses import dataclass

from hitrack import gen_synthetic, make_tracker, oracle_base_tracker

# The weights are part of the program under test, not of its inputs: the
# seeded router's F values (and so tiny-gate's route mix) depend on them.
WEIGHT_SEED = 7
BASE_NOISE = 0.05
MAX_SEQUENCES = 100_000


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str
    kind: str                   # make_tracker kind
    threshold: float
    frame_hw: tuple[int, int]
    length: int                 # frames per sequence, init frame included


WORKLOADS = {
    w.name: w for w in (
        # Overhead-bound: large frames make crop most of a frame, short
        # sequences make the per-sequence template path visible in fps.
        Workload("toy-full", "toy", "full", 0.5, (480, 640), 25),
        # Fast route behind the training-free gate: crop, embed, stage 1,
        # router and Head1; hard frames go to the base tracker.
        Workload("tiny-gate", "tiny", "dytracker", 0.5, (120, 160), 10),
        # T = 1 keeps every frame on the full route with the router still
        # running: the GEMM-bound worst case (acceptance c11).
        Workload("base-deep", "base", "dyhit", 1.0, (120, 160), 40),
    )
}


def sequence_seed(seed: int, index: int) -> int:
    if not 0 <= index < MAX_SEQUENCES:
        raise ValueError(f"sequence index {index} outside [0, {MAX_SEQUENCES})")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed * MAX_SEQUENCES + index


def make_sequence(workload: Workload, seed: int, index: int):
    """Sequence ``index`` of the workload's suite; difficulty cycles 0-3."""
    return gen_synthetic(sequence_seed(seed, index), index % 4, workload.length,
                         hw=workload.frame_hw)


def make_workload_tracker(workload: Workload, params, seq, seed: int, index: int):
    base = None
    if workload.kind == "dytracker":
        gt = [tuple(float(v) for v in b) for b in seq.boxes]
        base = oracle_base_tracker(gt, BASE_NOISE, sequence_seed(seed, index))
    return make_tracker(workload.kind, params, workload.threshold, base=base)
