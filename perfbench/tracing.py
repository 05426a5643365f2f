"""Spans recorded from outside the program, by replacing names in its modules.

The program marks its layers with ``tensor.mac_scope(label)``; the same label
keys the closed-form MAC accounting in ``evalbench.flop_account``. Timing a
span per label therefore puts measured time and counted work side by side
with no mapping in between. Crops (``runtime.crop_resize``) get spans of
their own, and ``tensor.matmul`` is counted (calls and time) without opening
spans, so that a label's self time still includes its matrix products.

Modules such as ``backbone``, ``fusion`` and ``routing`` import these
functions by name, so a wrapper must replace the name in every module that
looks it up, not only in the module that defines it. ``instrument`` does
that for every ``hitrack`` module and restores the originals on exit.

Spans are kept in memory; self time is a span's duration minus the
durations of its direct children.
"""
from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

# mac_scope label -> span name (package module that owns the layer + label).
LABEL_SPANS = {
    "embed": "backbone.embed",
    "stage1": "backbone.stage1",
    "sa1": "attention.sa1",
    "stage2": "backbone.stage2",
    "sa2": "attention.sa2",
    "stage3": "backbone.stage3",
    "bridge": "fusion.bridge",
    "head1": "fusion.head1",
    "head2": "fusion.head2",
    "router": "routing.router",
}
CROP_SPANS = {"template": "runtime.crop_template", "search": "runtime.crop_search"}
ROOT_SPANS = ("routing.init", "routing.step")


class Span:
    __slots__ = ("name", "start", "end", "parent", "frame")

    def __init__(self, name, start, parent, frame):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.frame = frame

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class SpanTotal:
    calls: int = 0
    self_s: float = 0.0
    busy_s: float = 0.0


class Tracer:
    """In-memory span recorder plus matmul counters."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.frame = None           # (sequence, frame) key stamped on new spans
        self.matmul_calls = 0
        self.matmul_seconds = 0.0

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), parent, self.frame))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def self_times(self) -> list[float]:
        """Per-span self time, aligned with ``self.spans``."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def totals(self) -> dict[str, SpanTotal]:
        """Calls, self time and busy time summed per span name."""
        out: dict[str, SpanTotal] = {}
        for span, own in zip(self.spans, self.self_times()):
            t = out.setdefault(span.name, SpanTotal())
            t.calls += 1
            t.self_s += own
            t.busy_s += span.duration
        return out


def _replace_everywhere(original, replacement, undo: list) -> None:
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "hitrack" or mod_name.startswith("hitrack.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))


@contextmanager
def instrument(tracer: Tracer, template_factor: float):
    """Install span wrappers for mac_scope, crop_resize and matmul."""
    from hitrack import runtime, tensor

    orig_scope = tensor.mac_scope
    orig_crop = runtime.crop_resize
    orig_matmul = tensor.matmul

    @contextmanager
    def mac_scope(label):
        with orig_scope(label):
            with tracer.span(LABEL_SPANS.get(label, "tensor." + label)):
                yield

    def crop_resize(frame, box_xywh, factor, out_size):
        kind = "template" if factor == template_factor else "search"
        with tracer.span(CROP_SPANS[kind]):
            return orig_crop(frame, box_xywh, factor, out_size)

    def matmul(a, b):
        t0 = perf_counter()
        out = orig_matmul(a, b)
        tracer.matmul_seconds += perf_counter() - t0
        tracer.matmul_calls += 1
        return out

    undo: list = []
    try:
        _replace_everywhere(orig_scope, mac_scope, undo)
        _replace_everywhere(orig_crop, crop_resize, undo)
        _replace_everywhere(orig_matmul, matmul, undo)
        yield tracer
    finally:
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)
