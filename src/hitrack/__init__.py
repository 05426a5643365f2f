"""Hierarchical-transformer visual tracker with dynamic early-exit routing.

A from-scratch NumPy inference engine for a LeViT-style one-stream tracker:
dual-image position encoding, Shrink Attention downsampling, an additive
feature bridge with a corner prediction head, a three-linear-layer scene
router for early exit, and a training-free gate for external base trackers.
Ships with OPE metrics, closed-form cost accounting and a CLI harness.
"""

from .config import ModelConfig, TokenLayout, make_config
from .backbone import stage1_forward
from .fusion import BoxPrediction, bridge, corner_head, soft_argmax
from .routing import (
    RouteDecision,
    Tracker,
    file_base_tracker,
    forward,
    make_tracker,
    oracle_base_tracker,
    router_score,
)
from .objectives import fit_router, giou, giou_with_grad, grad_check, hit_loss
from .runtime import crop_resize, gen_synthetic, map_box_to_frame, track_sequence
from .evalbench import CostReport, evaluate_trace, flop_account, latency_bench, threshold_sweep
from .weights import init_weights, load_weights, save_weights

__version__ = "0.1.0"

__all__ = [
    "BoxPrediction", "CostReport", "ModelConfig", "RouteDecision", "TokenLayout",
    "Tracker", "bridge", "corner_head", "crop_resize", "evaluate_trace",
    "file_base_tracker", "fit_router", "flop_account", "forward", "gen_synthetic",
    "giou", "giou_with_grad", "grad_check", "hit_loss", "init_weights",
    "latency_bench", "load_weights", "make_config", "make_tracker",
    "map_box_to_frame", "oracle_base_tracker", "router_score", "save_weights",
    "soft_argmax", "stage1_forward", "threshold_sweep", "track_sequence",
]
