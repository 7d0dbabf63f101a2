"""Spans around calls into autcob's layers, recorded from the benchmark's
side of the boundary.

``Tracer.install`` wraps each target function under every name through
which callers reach it: module-level functions are replaced in every
``autcob`` module that binds them (``kron`` lives in both
``autcob.semiring`` and ``autcob.evaluate``), methods and classmethods are
replaced once on their class (so ``layer @ mat`` reaches the wrapped
``Mat.__matmul__``).  A span is (name, start, end, parent, operation id);
spans stay in memory and are written out when the run ends.  Self time is
a span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _entries(mat) -> int:
    return mat.rows * mat.cols


# (span name, module, attribute path, size of the result or None).
# The layers are the modules of src/autcob; oracle is never timed.  Spans
# that no metric reads (to_json, discrete, ...) still take their self time
# out of the caller's, so the layer shares land where the work happens.
TARGETS = (
    ("semiring.kron", "autcob.semiring", "kron", _entries),
    ("semiring.matmul", "autcob.semiring", "Mat.__matmul__", None),
    ("semiring.transpose", "autcob.semiring", "Mat.transpose", None),
    ("automaton.letter_matrix", "autcob.automaton", "Nfa.letter_matrix", None),
    ("automaton.word_matrix", "autcob.automaton", "Nfa.word_matrix", None),
    ("automaton.interval_eval", "autcob.automaton", "Nfa.interval_eval", None),
    ("automaton.trace_eval", "autcob.automaton", "Nfa.trace_eval", None),
    ("automaton.circular_through_subset", "autcob.automaton",
     "Nfa.circular_through_subset", None),
    ("automaton.trim", "autcob.automaton", "Nfa.trim", None),
    ("automaton.from_json", "autcob.automaton", "Nfa.from_json", None),
    ("automaton.to_json", "autcob.automaton", "Nfa.to_json", None),
    ("topology.Endo.then", "autcob.topology", "Endo.then", None),
    ("topology.TAutomaton.interval_eval", "autcob.topology",
     "TAutomaton.interval_eval", None),
    ("topology.TAutomaton.trace_eval", "autcob.topology", "TAutomaton.trace_eval", None),
    ("topology.discrete", "autcob.topology", "discrete", None),
    ("topology.from_json", "autcob.topology", "TAutomaton.from_json", None),
    ("diagrams.parse_diagram", "autcob.diagrams", "parse_diagram", None),
    ("diagrams.typecheck", "autcob.diagrams", "Diagram.typecheck", None),
    ("evaluate.eval_nfa", "autcob.evaluate", "eval_nfa", None),
    ("evaluate.eval_tautomaton", "autcob.evaluate", "eval_tautomaton", None),
    ("evaluate.eval_interval", "autcob.evaluate", "eval_interval", None),
    ("covers.cyclic_cover", "autcob.covers", "cyclic_cover", None),
    ("covers.is_covering", "autcob.covers", "is_covering", None),
    ("covers.is_weak_covering", "autcob.covers", "is_weak_covering", None),
    ("covers.from_vertex_map", "autcob.covers", "GraphMap.from_vertex_map", None),
    ("cli.main", "autcob.cli", "main", None),
)

# Span record fields.
NAME, START, END, PARENT, OP, CHILD, SIZE = range(7)

LOAD = "load"  # operation id of the spans recorded while loading inputs


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.enabled = False
        self._root = self.wrap("bench.op", lambda fn, *args: fn(*args))

    def wrap(self, name, fn, size=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, tracer.op, 0.0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = end = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += end - rec[START]
            if size is not None:
                rec[SIZE] = size(result)
            return result

        return traced

    def install(self):
        """Wrap every target; the autcob modules must already be imported."""
        modules = [m for k, m in sys.modules.items()
                   if k == "autcob" or k.startswith("autcob.")]
        for name, module, path, size in TARGETS:
            owner = sys.modules[module]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, size)))
                else:
                    setattr(cls, attr, self.wrap(name, raw, size))
                continue
            fn = getattr(owner, path)
            traced = self.wrap(name, fn, size)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, traced)

    def run_op(self, op_id, fn, *args):
        """Run one operation under a root span named ``bench.op``."""
        self.op = op_id
        return self._root(fn, *args)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec[:OP + 1]))
                fh.write("\n")


def self_time(rec) -> float:
    return rec[END] - rec[START] - rec[CHILD]


# The per-layer metrics a traced run reports, with their units.
PER_LAYER = (
    ("semiring.kron.self_ms", "ms"),
    ("semiring.kron.entries", "count"),
    ("evaluate.max_layer_entries", "count"),
    ("semiring.matmul.self_ms", "ms"),
    ("semiring.matmul.calls", "count"),
    ("semiring.transpose.self_ms", "ms"),
    ("evaluate.eval_nfa.self_ms", "ms"),
    ("evaluate.eval_tautomaton.self_ms", "ms"),
    ("automaton.letter_matrix.calls", "count"),
    ("automaton.letter_matrix.self_ms", "ms"),
    ("automaton.word_matrix.self_ms", "ms"),
    ("automaton.trace_eval.self_ms", "ms"),
    ("automaton.interval_eval.self_ms", "ms"),
    ("automaton.circular_through_subset.self_ms", "ms"),
    ("topology.Endo.then.calls", "count"),
    ("topology.Endo.then.self_ms", "ms"),
    ("topology.TAutomaton.interval_eval.self_ms", "ms"),
    ("automaton.trim.self_ms", "ms"),
    ("covers.cyclic_cover.self_ms", "ms"),
    ("covers.is_covering.self_ms", "ms"),
    ("covers.is_weak_covering.self_ms", "ms"),
    ("covers.from_vertex_map.self_ms", "ms"),
    ("diagrams.parse_diagram.self_ms", "ms"),
    ("diagrams.typecheck.self_ms", "ms"),
    ("automaton.from_json.self_ms", "ms"),
    ("topology.from_json.self_ms", "ms"),
    ("cli.main.self_ms", "ms"),
)


def per_layer(spans, n_ops, n_loaded) -> dict:
    """Every PER_LAYER metric, per operation: (operation-phase total) / n_ops
    + (load-phase total) / n_loaded, so that each operation carries the
    loading of its own inputs once.  ``evaluate.max_layer_entries`` is the
    mean over operations of the largest matrix kron returned in each."""
    totals = {}  # span name -> phase -> [self ms, calls, result entries]
    largest = {}
    for rec in spans:
        phase = LOAD if rec[OP] == LOAD else "op"
        acc = totals.setdefault(rec[NAME], {LOAD: [0.0, 0, 0], "op": [0.0, 0, 0]})[phase]
        acc[0] += self_time(rec) * 1000
        acc[1] += 1
        acc[2] += rec[SIZE]
        if rec[NAME] == "semiring.kron" and phase == "op":
            largest[rec[OP]] = max(largest.get(rec[OP], 0), rec[SIZE])

    def per_op(span, field):
        t = totals.get(span)
        return t["op"][field] / n_ops + t[LOAD][field] / n_loaded if t else 0

    fields = {"self_ms": 0, "calls": 1, "entries": 2}
    out = {}
    for metric, _unit in PER_LAYER:
        if metric == "evaluate.max_layer_entries":
            out[metric] = sum(largest.values()) / n_ops
        else:
            span, field = metric.rsplit(".", 1)
            out[metric] = per_op(span, fields[field])
    return out


def layer_shares(spans) -> dict:
    """Share of the operations' self time per layer (module), including the
    benchmark's own code as ``bench``."""
    per_layer = {}
    for rec in spans:
        if rec[OP] == LOAD:
            continue
        layer = rec[NAME].split(".")[0]
        per_layer[layer] = per_layer.get(layer, 0.0) + self_time(rec)
    total = sum(per_layer.values()) or 1.0
    return {k: v / total for k, v in sorted(per_layer.items(), key=lambda kv: -kv[1])}
