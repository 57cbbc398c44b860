"""Traced mode: spans around the package's public functions.

Spans are recorded from outside the package by rebinding module attributes.
A function imported with ``from .x import y`` is bound under several module
names (``svdlora.train.forward`` is ``svdlora.model.forward``), so every
``svdlora`` module attribute that *is* the original function is rebound, and
``stop`` restores them all.

Each span is (name, start, end, parent index). Spans stay in memory and are
written as JSON lines when the run ends. Counters (samples, SVD cells, bytes,
ranks) are accumulated at the same boundaries.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

# (module, attribute, span name) for functions whose span needs no arguments.
SPANS = (
    ("svdlora.model", "backward", "model.backward"),
    ("svdlora.train", "gradients", "train.gradients"),
    ("svdlora.train", "train_adapter", "train.train_adapter"),
    ("svdlora.train", "evaluate", "train.evaluate"),
    ("svdlora.merge", "merge_sets", "merge.merge_sets"),
    ("svdlora.merge", "baseline_task_arithmetic", "merge.baseline_task_arithmetic"),
    ("svdlora.merge", "baseline_pre_merge_sets", "merge.baseline_pre_merge_sets"),
    ("svdlora.adapter", "canonicalize", "adapter.canonicalize"),
    ("svdlora.storage", "save_merge_report", "storage.save_merge_report"),
    ("svdlora.data", "generate_task", "data.generate_task"),
    ("svdlora.bench", "run_bench", "bench.run_bench"),
    ("svdlora.bench", "run_merge_experiment", "bench.run_merge_experiment"),
    ("svdlora.bench", "run_finetune_experiment", "bench.run_finetune_experiment"),
)
# Functions whose span name or counters depend on the call; each has a
# Tracer._wrap_<attribute> method.
DYNAMIC = (
    ("svdlora.model", "forward"),
    ("svdlora.linalg", "svd"),
    ("svdlora.merge", "merge_target"),
    ("svdlora.storage", "load_adapter_set"),
    ("svdlora.storage", "save_adapter_set"),
    ("svdlora.cli", "main"),
)
SPAN_NAMES = tuple(name for _, _, name in SPANS) + (
    "model.forward_train", "model.forward_eval", "linalg.svd",
    "merge.merge_target", "storage.load_adapter_set",
    "storage.save_adapter_set", "cli.merge", "cli.inspect", "cli.eval",
)
COUNTERS = (
    ("model.forward_eval.samples", "samples"),
    ("linalg.svd.cells", "count"),
    ("linalg.svd.max_dim", "count"),
    ("merge.input_rank_sum", "count"),
    ("merge.kept_rank_sum", "count"),
    ("storage.load_adapter_set.bytes", "bytes"),
    ("storage.save_adapter_set.bytes", "bytes"),
)
DERIVED = (
    ("train.step_overhead_us", "us"),
    ("bench.other.s", "s"),
    ("trace.spans", "count"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_pct", "%"),
)


def metric_units() -> dict[str, str]:
    """Unit of every per-layer metric, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units.update({f"{name}.calls": "count", f"{name}.s": "s",
                      f"{name}.self_s": "s"})
    units.update(COUNTERS)
    units.update(DERIVED)
    return units


class Tracer:
    """Records spans between ``start`` and ``stop``."""

    def __init__(self):
        self.spans: list = []
        self.open: list[tuple[int, str]] = []  # (span index, name)
        self.counters: dict[str, float] = defaultdict(float)
        self._bound: list[tuple[object, str, object]] = []

    def _call(self, name: str, fn, args, kwargs=None):
        parent = self.open[-1][0] if self.open else -1
        index = len(self.spans)
        self.spans.append(None)
        self.open.append((index, name))
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            self.spans[index] = (name, start, time.perf_counter(), parent)
            self.open.pop()

    def _rebind(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "svdlora" and not modname.startswith("svdlora."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._bound.append((module, attr, original))
                    setattr(module, attr, replacement)

    def start(self) -> None:
        for modname, attr, name in SPANS:
            fn = getattr(sys.modules[modname], attr)
            self._rebind(fn, self._wrap_plain(name, fn))
        for modname, attr in DYNAMIC:
            fn = getattr(sys.modules[modname], attr)
            self._rebind(fn, getattr(self, f"_wrap_{attr}")(fn))

    def stop(self) -> None:
        for module, attr, original in reversed(self._bound):
            setattr(module, attr, original)
        self._bound.clear()

    # -- wrappers -----------------------------------------------------------

    def _wrap_plain(self, name: str, fn):
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return traced

    def _wrap_forward(self, fn):
        def forward(model, adapters, x, *args, **kwargs):
            if kwargs.get("want_cache"):
                name = "model.forward_train"
            else:
                name = "model.forward_eval"
                self.counters["model.forward_eval.samples"] += x.shape[0]
            return self._call(name, fn, (model, adapters, x) + args, kwargs)
        return forward

    def _wrap_svd(self, fn):
        def svd(m):
            # linalg.svd calls itself once on the transpose of a wide matrix;
            # only the outermost call is a span.
            if self.open and self.open[-1][1] == "linalg.svd":
                return fn(m)
            rows, cols = m.shape
            self.counters["linalg.svd.cells"] += rows * cols
            self.counters["linalg.svd.max_dim"] = max(
                self.counters["linalg.svd.max_dim"], rows, cols)
            return self._call("linalg.svd", fn, (m,))
        return svd

    def _wrap_merge_target(self, fn):
        def merge_target(adapters, cfg):
            merged, record = self._call("merge.merge_target", fn, (adapters, cfg))
            self.counters["merge.input_rank_sum"] += sum(record.input_ranks)
            self.counters["merge.kept_rank_sum"] += record.kept_rank
            return merged, record
        return merge_target

    def _wrap_load_adapter_set(self, fn):
        def load_adapter_set(path):
            out = self._call("storage.load_adapter_set", fn, (path,))
            self.counters["storage.load_adapter_set.bytes"] += os.path.getsize(path)
            return out
        return load_adapter_set

    def _wrap_save_adapter_set(self, fn):
        def save_adapter_set(s, path):
            out = self._call("storage.save_adapter_set", fn, (s, path))
            self.counters["storage.save_adapter_set.bytes"] += os.path.getsize(path)
            return out
        return save_adapter_set

    def _wrap_main(self, fn):
        def main(argv):
            return self._call(f"cli.{argv[0]}", fn, (argv,))
        return main

    # -- results ------------------------------------------------------------

    def summary(self, rounds: int) -> dict[str, float]:
        """Calls, total and self time per span name and the counters, each
        per traced round, plus the derived figures."""
        child: dict[int, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for name in SPAN_NAMES:
            out.update({f"{name}.calls": 0.0, f"{name}.s": 0.0,
                        f"{name}.self_s": 0.0})
        for index, (name, start, end, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child[index]
        out.update({name: self.counters[name] for name, _ in COUNTERS})
        out = {k: (v if k == "linalg.svd.max_dim" else v / rounds)
               for k, v in out.items()}
        steps = out["train.gradients.calls"]
        out["train.step_overhead_us"] = (
            1e6 * out["train.train_adapter.self_s"] / steps if steps else 0.0)
        out["bench.other.s"] = out["bench.run_bench.self_s"]
        out["trace.spans"] = len(self.spans) / rounds
        return out

    def write(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent}) + "\n")
