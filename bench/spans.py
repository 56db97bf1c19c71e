"""In-memory spans around calls into roadgrade, and self-time arithmetic.

The pipeline reaches every layer it calls through a module or class
attribute (``graphs.GraphSet.build``, ``model.shared_gcn_layer``,
``Tensor.backward`` ...), so replacing those attributes with timing wrappers
traces the real program without editing it.  ``install`` swaps the wrappers
in and ``Tracer.restore`` puts back the exact objects they replaced.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import Counter, defaultdict


class Tracer:
    """Records (name, start, end, parent) spans and named counts in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span; the span's parent is the open span."""
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._open.append(index)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._open.pop()
            self.spans[index] = (name, start, end, parent)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper.

        ``after(tracer, result, arguments)`` runs outside the span once the
        call returns, with the call's arguments bound to their parameter
        names, to record counts derived from the call.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) \
            else None
        fn = raw.__func__ if kind else raw
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer.call(name, fn, *args, **kwargs)
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(tracer, result, bound.arguments)
            return result

        self._saved.append((owner, attr, raw))
        setattr(owner, attr, kind(traced) if kind else traced)

    def restore(self) -> None:
        """Put back every replaced attribute, most recent first."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def self_times(spans) -> dict[str, float]:
    """Summed self time per span name.

    A span's self time is its duration minus the part of its interval that
    its direct children cover; overlapping children are counted once.
    """
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[name] += (end - start) - covered
    return dict(totals)


def call_counts(spans) -> Counter:
    return Counter(name for name, _, _, _ in spans)


def total_times(spans) -> dict[str, float]:
    """Summed duration per span name, children included."""
    totals: dict[str, float] = defaultdict(float)
    for name, start, end, _ in spans:
        totals[name] += end - start
    return dict(totals)


def count_tape_nodes(loss) -> int:
    """Autodiff nodes reachable from ``loss`` that take part in backward."""
    seen = {id(loss)}
    todo = [loss]
    while todo:
        node = todo.pop()
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    return len(seen)


def install(tracer: Tracer, roadgrade) -> None:
    """Wrap the layer boundaries of the pipeline, as the CLI reaches them."""
    data, explain, graphs, grading = (roadgrade.data, roadgrade.explain,
                                      roadgrade.graphs, roadgrade.grading)
    metrics, model, pipeline = (roadgrade.metrics, roadgrade.model,
                                roadgrade.pipeline)
    tensor, optim = roadgrade.tensor, roadgrade.optim

    def dtw_cells(tr, result, a):
        # anchors x 2 channels x road pairs x pattern_hours^2 DP cells
        start, stop = a["window"]
        hours, n = a["pattern_hours"], a["history"].n
        anchors = max(0, stop - (start + hours - 1))
        tr.counts["graphs.dtw_cells"] += \
            anchors * 2 * (n * (n - 1) // 2) * hours ** 2

    def som_updates(tr, result, a):
        # som_train makes passes 1 .. max_iter - 1 over every sample
        tr.counts["grading.som_point_updates"] += \
            max(0, a["max_iter"] - 1) * len(a["samples"])

    def tape_nodes(tr, result, a):
        key = "tensor.tape_nodes_per_sample"
        if result.requires_grad and key not in tr.counts:
            tr.counts[key] = count_tape_nodes(result)

    def checkpoint_bytes(tr, result, a):
        tr.counts["model.checkpoint_bytes"] = os.path.getsize(a["path"])

    def epochs(tr, result, a):
        tr.counts["model.train.epochs"] += len(result)

    targets = [
        (pipeline, "load_inputs", "pipeline.load_inputs", None),
        (graphs, "read_network_csv", "graphs.read_network_csv", None),
        (graphs, "write_adjacency_csv", "graphs.write_adjacency_csv", None),
        (graphs.GraphSet, "build", "graphs.GraphSet.build", None),
        (graphs, "build_topological", "graphs.build_topological", None),
        (graphs, "build_weighted_topological",
         "graphs.build_weighted_topological", None),
        (graphs, "build_pattern_graph", "graphs.build_pattern_graph",
         dtw_cells),
        (graphs, "build_attribute_graph", "graphs.build_attribute_graph",
         None),
        (graphs, "normalize_adjacency", "graphs.normalize_adjacency", None),
        (graphs, "global_morans_i", "graphs.morans_i", None),
        (graphs, "local_morans_i", "graphs.morans_i", None),
        (grading, "label_series", "grading.label_series", None),
        (grading, "som_train", "grading.som_train", som_updates),
        (grading, "som_assign", "grading.som_assign", None),
        (grading, "ordinalize", "grading.ordinalize", None),
        (data, "read_measurements_csv", "data.read_measurements_csv", None),
        (data, "read_grades_csv", "data.read_grades_csv", None),
        (data, "write_grades_csv", "data.write_grades_csv", None),
        (data, "minmax_normalize", "data.minmax_normalize", None),
        (data, "enumerate_samples", "data.enumerate_samples", None),
        (model, "init_state", "model.init_state", None),
        (model, "train", "model.train", epochs),
        (model, "predict_many", "model.predict_many", None),
        (model, "predict", "model.predict", None),
        (model, "forward", "model.forward", None),
        (model, "build_combinations", "model.build_combinations", None),
        (model, "shared_gcn_layer", "model.shared_gcn_layer", None),
        (model, "channel_fuse", "model.channel_fuse", None),
        (model, "temporal_attention", "model.temporal_attention", None),
        (model, "highdim_attention", "model.highdim_attention", None),
        (model, "fc_head", "model.fc_head", None),
        (model, "nll_loss", "model.nll_loss", tape_nodes),
        (model, "save_checkpoint", "model.save_checkpoint",
         checkpoint_bytes),
        (model, "load_checkpoint", "model.load_checkpoint", None),
        (model, "adam_step", "optim.adam_step", None),
        (optim.ParamSet, "copy_values", "optim.ParamSet.copy_values", None),
        (tensor.Tensor, "backward", "tensor.Tensor.backward", None),
        (metrics, "accuracy", "metrics", None),
        (metrics, "quadratic_weighted_kappa", "metrics", None),
        (metrics, "grade_mae_series", "metrics", None),
        (explain, "read_attention_record", "explain.read_attention_record",
         None),
        (explain, "write_attention_record", "explain.write_attention_record",
         None),
        (explain, "build_report", "explain.build_report", None),
        (explain, "write_report_json", "explain.write_report", None),
        (explain, "write_report_csv", "explain.write_report", None),
    ]
    for owner, attr, name, after in targets:
        if hasattr(owner, attr):  # a layer a later version removed reads 0
            tracer.wrap(owner, attr, name, after)
