"""Spans and counters recorded around calls into the mismatch modules.

The package is instrumented from outside: every public function a layer
module defines is replaced, in every mismatch namespace that holds it, by
a wrapper that records a span (name, start, end, parent). `record_op` is
wrapped so that each backward function it records gets a span of its own
when the tape is replayed. Spans stay in memory until `summary()` turns
them into inclusive and self time per name; nothing is written while the
traced code runs.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import os
import time
from collections import defaultdict

LAYERS = ("autodiff", "nets", "training", "data", "metrics", "cli")


def _conv2d_counts(counts, args, kwargs):
    """Forward MACs and im2col buffer bytes, computed from the shapes."""
    x, w = args[0], args[1]
    padding = args[3] if len(args) > 3 else kwargs["padding"]
    dilation = args[4] if len(args) > 4 else kwargs.get("dilation", 1)
    n, c, h, wd = x.shape
    o, _, k, _ = w.shape
    eff = dilation * (k - 1) + 1
    pix = (h + 2 * padding - eff + 1) * (wd + 2 * padding - eff + 1)
    counts["autodiff.conv2d.macs"] += n * o * c * k * k * pix
    counts["autodiff.conv2d.im2col_bytes"] += (n * c * k * k * pix
                                               * x.data.itemsize)


def _read_tensor_counts(counts, args, kwargs):
    path = args[0] if args else kwargs["path"]
    counts["data.read_tensor.bytes"] += os.path.getsize(path)


# Per-call counters derived from a wrapped function's arguments.
ARG_COUNTERS = {
    "autodiff.conv2d": _conv2d_counts,
    "data.read_tensor": _read_tensor_counts,
}


class Tracer:
    """Patch the mismatch modules while active; restore them on exit.

    Use as a context manager. Spans are tuples (name, start, end,
    parent index); the parent is the innermost span open at call time,
    -1 for a top-level call.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        on_call = ARG_COUNTERS.get(name)

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(counts, args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)

        return traced

    def _wrap_record_op(self, record_op):
        wrap, counts = self.wrap, self.counts

        def traced_record_op(op, inputs, out_data, backward_fn):
            out = record_op(op, inputs, out_data, wrap(f"bwd.{op}", backward_fn))
            if out.tape is not None:
                counts["autodiff.tape_nodes"] += 1
            return out

        return traced_record_op

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        package = importlib.import_module("mismatch")
        modules = {layer: importlib.import_module(f"mismatch.{layer}")
                   for layer in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                if attr == "record_op":
                    wrapper = self._wrap_record_op(fn)
                else:
                    wrapper = self.wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, name, wrapper)
        stream = modules["data"].SliceStream
        self._patch(stream, "next_batch",
                    self.wrap("data.next_batch", stream.next_batch))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, which never overlap because calls nest.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for (name, t0, t1, _), inner in zip(self.spans, child):
            s = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["incl_s"] += t1 - t0
            s["self_s"] += t1 - t0 - inner
        return out


class GcWatch:
    """Collector activity from `gc.callbacks`: gen-2 passes, pause time
    and objects collected, over all generations."""

    def __init__(self):
        self.gen2_collections = 0
        self.collected = 0
        self.pause_s = 0.0
        self._t0 = 0.0

    def _callback(self, phase, info):
        if phase == "start":
            self._t0 = time.perf_counter()
            return
        self.pause_s += time.perf_counter() - self._t0
        self.collected += info["collected"]
        if info["generation"] == 2:
            self.gen2_collections += 1

    def totals(self) -> dict[str, float]:
        return {"gen2_collections": self.gen2_collections,
                "pause_ms": self.pause_s * 1000.0,
                "collected": self.collected}

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)
        return False
