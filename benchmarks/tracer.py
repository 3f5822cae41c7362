"""In-memory span tracing installed around the program's public functions.

Only the traced run (``--trace 1``) calls :func:`install`; the untraced run
never imports the wrappers, so end-to-end figures carry no tracing cost.
A span records (name, start, end, parent, step); spans are kept in memory
and written out once, when the benchmark ends.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# layer -> {function name: span name}; span names start with the layer
TARGETS = {
    "structures": {"parse_cif": "structures.parse_cif"},
    "datasets": {"load_manifest": "datasets.load_manifest"},
    "graphs": {"neighbor_list": "graphs.neighbor_list",
               "gaussian_expand": "graphs.gaussian_expand",
               "build_graph": "graphs.build_graph"},
    "augment": {"make_views": "augment.make_views"},
    "model": {"build_batch": "model.build_batch", "encode": "model.encode",
              "project": "model.heads", "head_forward": "model.heads"},
    "losses": {"compute_loss": "losses.compute_loss"},
    "autodiff": {"backward": "autodiff.backward",
                 **{op: f"autodiff.op.{op}" for op in (
                     "matmul", "gather_rows", "concat", "segment_sum",
                     "segment_mean", "sigmoid", "softplus", "add", "mul")}},
    "train": {"adam_step": "train.adam_step", "pretrain": "train.pretrain",
              "finetune": "train.finetune",
              "load_graph_dataset": "train.load_graph_dataset"},
    "checkpoint": {"save_checkpoint": "checkpoint.save",
                   "load_checkpoint": "checkpoint.load"},
    "cli": {"cmd_evaluate": "cli.evaluate"},
}
LAYERS = tuple(TARGETS) + ("bench",)
OPS = tuple(name.rsplit(".", 1)[1] for name in TARGETS["autodiff"].values()
            if name.startswith("autodiff.op."))


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or -1, step id or -1]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._steps = 0

    def _open(self, name: str, new_step: bool) -> int:
        parent = self._stack[-1] if self._stack else -1
        if new_step:
            self._steps += 1
            step = self._steps
        else:
            step = self.spans[parent][4] if parent >= 0 else -1
        self.spans.append([name, time.perf_counter(), None, parent, step])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, new_step: bool = False):
        index = self._open(name, new_step)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self._open(name, False)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------

    def per_call_ms(self, name: str) -> list[float]:
        return [1e3 * (s[2] - s[1]) for s in self.spans if s[0] == name]

    def per_step_ms(self, step_name: str, name: str) -> list[float]:
        """Time in spans called `name`, summed within each step whose root
        span is `step_name`; steps without such spans count as 0."""
        totals = {s[4]: 0.0 for s in self.spans if s[0] == step_name}
        for s in self.spans:
            if s[0] == name and s[4] in totals:
                totals[s[4]] += 1e3 * (s[2] - s[1])
        return list(totals.values())

    def self_time_by_layer(self) -> dict[str, float]:
        """Seconds per layer not covered by a child span, counting only spans
        under a benchmark root span (a timed call or user pass)."""
        child = [0.0] * len(self.spans)
        root = list(range(len(self.spans)))
        for i, s in enumerate(self.spans):
            if s[3] >= 0:  # a parent opens, so is listed, before its children
                child[s[3]] += s[2] - s[1]
                root[i] = root[s[3]]
        out: dict[str, float] = defaultdict(float)
        for s, c, r in zip(self.spans, child, root):
            if self.spans[r][0].startswith("bench."):
                out[s[0].split(".", 1)[0]] += (s[2] - s[1]) - c
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, step in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "step": step}) + "\n")


def install(tracer: Tracer) -> None:
    """Replace every binding of each target function, in every loaded
    crystalpretrain module, with a traced wrapper."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "crystalpretrain" or n.startswith("crystalpretrain.")]
    for layer, functions in TARGETS.items():
        owner = sys.modules[f"crystalpretrain.{layer}"]
        for attr, span_name in functions.items():
            original = getattr(owner, attr)
            wrapped = tracer.wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)


def median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")
