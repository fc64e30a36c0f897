"""Span tracing around the calls each sumlife module makes into the next layer.

Nothing inside the program changes: while a :class:`Tracer` is installed, the
names a caller looks up (for example ``sumlife.cli.load_snapshot`` or
``Network.train_step``) are replaced by wrappers that record a span (name,
layer, start, end, parent) and a few counters derived from arguments, return
values and array shapes.  Spans stay in memory; the worker writes them out
when the run ends.  A layer's self time is its spans' duration minus the time
their child spans cover.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np

import sumlife.cli as cli
import sumlife.lifelong as lifelong
import sumlife.nets.network as network
import sumlife.reporting as reporting
from sumlife.features import ClassVocabulary, PredicateVocabulary
from sumlife.nets import Network

LAYERS = ("ingest", "summarize", "measures", "features", "sampling", "nets",
          "lifelong", "reporting", "cli")

# span index fields
NAME, LAYER, START, END, PARENT, ATTRS = range(6)


def _mlp_flops(params, n: int) -> int:
    d, h = params.w0.shape
    c = params.w_out.shape[1]
    # forward x@w0, hd@w_out; backward x.T@da, hd.T@dlogits, dlogits@w_out.T
    return 4 * n * d * h + 6 * n * h * c


def _gcn_flops(params, n: int) -> int:
    flops = 0
    for w in params.layers:
        d_in, d_out = w.shape
        # h@w, x.T@m, m@w.T and the two n x n products a@(.) and a.T@dp
        flops += 6 * n * d_in * d_out + 4 * n * n * d_out
    jk, c = params.w_cls.shape
    return flops + 6 * n * jk * c


def _step_attrs(args, kwargs, result):
    net, batch = args[0], args[1]
    n = batch.num_vertices
    flops = _mlp_flops(net.params, n) if net.arch == "mlp" else _gcn_flops(net.params, n)
    return {"flops": flops}


def _sample_attrs(args, kwargs, result):
    return {
        "vertices": result.num_vertices,
        "edges": result.num_edges,
        "accepted": len(result.target_idx),
        "drawn": kwargs.get("max_targets") or kwargs.get("cap", 1000),
    }


def _load_attrs(lines_of):
    def attrs(args, kwargs, result):
        return {"lines": lines_of.get(str(args[0]), 0), "skipped": result.skipped_lines}
    return attrs


def _evaluate_attrs(args, kwargs, result):
    task = args[1]
    which = kwargs.get("which", args[3] if len(args) > 3 else 2)
    return {"rows": int(np.count_nonzero(task.split == which))}


def _instrument_points(lines_of: dict[str, int]):
    """(owner, attribute, span name, layer, counter function) per wrapped name."""
    c = cli
    return [
        (c, "load_snapshot", "ingest.load", "ingest", _load_attrs(lines_of)),
        (c, "filter_high_degree", "ingest.cap", "ingest",
         lambda a, k, r: {"removed": a[0].num_vertices - r.num_vertices}),
        (c, "summarize", "summarize.summarize", "summarize",
         lambda a, k, r: {"pairs": len(r[0].secondary), "eqcs": r[0].num_primary}),
        (c, "vertex_hashes", "summarize.vertex_hashes", "summarize", None),
        (lifelong, "vertex_hashes", "summarize.vertex_hashes", "summarize", None),
        (c, "unary_stats", "measures.unary_stats", "measures", None),
        (c, "diff_report", "measures.diff_report", "measures", None),
        (c, "meta_track", "measures.meta_track", "measures", None),
        (lifelong, "split_vertices", "features.split", "features", None),
        (lifelong, "encode_features", "features.encode", "features", None),
        (lifelong, "extend_vocabularies", "features.vocab", "features", None),
        (lifelong, "sample_batch", "sampling.sample", "sampling", _sample_attrs),
        (Network, "train_step", "nets.train_step", "nets", _step_attrs),
        (network, "mlp_forward", "nets.forward", "nets", None),
        (network, "gcn_forward", "nets.forward", "nets", None),
        (network, "mlp_backward", "nets.backward", "nets", None),
        (network, "gcn_backward", "nets.backward", "nets", None),
        (network, "adam_step", "nets.adam", "nets", None),
        (network, "batch_adjacency", "nets.adjacency", "nets",
         lambda a, k, r: {"bytes": int(r.nbytes)}),
        (Network, "batch_logits", "nets.logits", "nets", None),
        (Network, "feature_logits", "nets.logits", "nets", None),
        (Network, "create", "nets.create", "nets", None),
        (Network, "grow", "nets.grow", "nets", None),
        (Network, "clone", "nets.clone", "nets", None),
        (c, "save_checkpoint", "nets.checkpoint", "nets", None),
        (c, "load_checkpoint", "nets.checkpoint", "nets", None),
        (c, "prepare_tasks", "lifelong.prepare", "lifelong",
         lambda a, k, r: {"pred_width": r.pred_vocab.width, "class_width": r.class_vocab.width}),
        (c, "run_sequence", "lifelong.run_sequence", "lifelong", None),
        (c, "evaluate_network", "lifelong.evaluate", "lifelong", _evaluate_attrs),
        (lifelong, "evaluate_network", "lifelong.evaluate", "lifelong", _evaluate_attrs),
        (c, "write_json", "reporting.write", "reporting", None),
        (c, "write_matrix_csv", "reporting.write", "reporting", None),
        (c, "write_histogram_csv", "reporting.write", "reporting", None),
        (c, "svg_heatmap", "reporting.write", "reporting", None),
        (c, "write_eqc_tsv", "reporting.tsv", "reporting", None),
        (c, "write_summary_tsv", "reporting.tsv", "reporting", None),
        (PredicateVocabulary, "serialize", "reporting.write", "reporting", None),
        (ClassVocabulary, "serialize", "reporting.write", "reporting", None),
        (reporting.Manifest, "write", "reporting.write", "reporting", None),
        (reporting.Manifest, "record_output", "reporting.digest", "reporting", None),
        (reporting, "_code_digest", "reporting.digest", "reporting", None),
    ]


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self, lines_of: dict[str, int]):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._points = _instrument_points(lines_of)
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, layer: str, fn, attrs=None):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            rec = [name, layer, time.perf_counter(), 0.0, parent, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                rec[ATTRS] = attrs(args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        for owner, attr, name, layer, attrs in self._points:
            raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.span(name, layer, raw.__func__, attrs)))
            else:
                setattr(owner, attr, self.span(name, layer, raw, attrs))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def mark(self) -> int:
        return len(self.spans)


def _sum(spans, name, field=None):
    if field is None:
        return sum(s[END] - s[START] for s in spans if s[NAME] == name)
    return sum(s[ATTRS][field] for s in spans if s[NAME] == name and s[ATTRS])


def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def pass_metrics(spans: list[list], base: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass; parents index the full span list."""
    own = spans[base:]
    child_time: dict[int, float] = defaultdict(float)
    for s in own:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    self_time = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(own, start=base):
        self_time[s[LAYER]] += (s[END] - s[START]) - child_time[i]

    steps = [(s[END] - s[START]) * 1e3 for s in own if s[NAME] == "nets.train_step"]
    samples = [s[ATTRS] for s in own if s[NAME] == "sampling.sample"]
    drawn = sum(a["drawn"] for a in samples)
    load_s = _sum(own, "ingest.load")
    prepares = [s[ATTRS] for s in own if s[NAME] == "lifelong.prepare"]
    task_s = []
    for seq in (s for s in own if s[NAME] == "lifelong.run_sequence"):
        starts = sorted(s[START] for s in own
                        if s[NAME] in ("nets.create", "nets.grow") and seq[START] <= s[START] <= seq[END])
        task_s += [b - a for a, b in zip(starts, starts[1:] + [seq[END]])]

    m = {
        "ingest.load_s": load_s,
        "ingest.lines_per_s": _sum(own, "ingest.load", "lines") / load_s if load_s else 0.0,
        "ingest.skipped": _sum(own, "ingest.load", "skipped"),
        "ingest.cap_s": _sum(own, "ingest.cap"),
        "ingest.cap_removed_vertices": _sum(own, "ingest.cap", "removed"),
        "summarize.summarize_s": _sum(own, "summarize.summarize"),
        "summarize.vertex_hashes_s": _sum(own, "summarize.vertex_hashes"),
        "summarize.calls": sum(1 for s in own if s[LAYER] == "summarize"),
        "summarize.pairs_hashed": _sum(own, "summarize.summarize", "pairs"),
        "summarize.eqcs": _sum(own, "summarize.summarize", "eqcs"),
        "summarize.tsv_s": _sum(own, "reporting.tsv"),
        "measures.s": sum(s[END] - s[START] for s in own if s[LAYER] == "measures"),
        "measures.calls": sum(1 for s in own if s[LAYER] == "measures"),
        "features.split_s": _sum(own, "features.split"),
        "features.encode_s": _sum(own, "features.encode"),
        "features.vocab_s": _sum(own, "features.vocab"),
        "features.pred_width": max((a["pred_width"] for a in prepares), default=0),
        "features.class_width": max((a["class_width"] for a in prepares), default=0),
        "sampling.s": _sum(own, "sampling.sample"),
        "sampling.batches": len(samples),
        "sampling.batch_vertices_mean": (sum(a["vertices"] for a in samples) / len(samples)
                                         if samples else 0.0),
        "sampling.batch_edges_mean": (sum(a["edges"] for a in samples) / len(samples)
                                      if samples else 0.0),
        "sampling.accept_ratio": sum(a["accepted"] for a in samples) / drawn if drawn else 0.0,
        "nets.train_step_s": _sum(own, "nets.train_step"),
        "nets.forward_s": _sum(own, "nets.forward"),
        "nets.backward_s": _sum(own, "nets.backward"),
        "nets.adam_s": _sum(own, "nets.adam"),
        "nets.step_ms_p50": _quantile(steps, 50),
        "nets.step_ms_p90": _quantile(steps, 90),
        "nets.logits_s": _sum(own, "nets.logits"),
        "nets.grow_s": _sum(own, "nets.grow"),
        "nets.clone_s": _sum(own, "nets.clone"),
        "nets.checkpoint_s": _sum(own, "nets.checkpoint"),
        "nets.step_flops": _sum(own, "nets.train_step", "flops"),
        "nets.adjacency_bytes": _sum(own, "nets.adjacency", "bytes"),
        "lifelong.prepare_s": _sum(own, "lifelong.prepare"),
        "lifelong.run_sequence_s": _sum(own, "lifelong.run_sequence"),
        "lifelong.evaluate_s": _sum(own, "lifelong.evaluate"),
        "lifelong.evals": sum(1 for s in own if s[NAME] == "lifelong.evaluate"),
        "lifelong.eval_vertices": _sum(own, "lifelong.evaluate", "rows"),
        "lifelong.task_s_p50": statistics.median(task_s) if task_s else 0.0,
        "reporting.s": sum(s[END] - s[START] for s in own if s[LAYER] == "reporting"),
        "trace.spans": len(own),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]
    return m
