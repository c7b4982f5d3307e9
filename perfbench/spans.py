"""Turn the span files written by `shim.py` into per-layer metrics.

A span is (name, start, end, parent, request id, counts); `parent` is the
index of the enclosing span in the same file, or -1.  Names are
`<layer>.<function>`, the layer being the normord module.  A span's self
time is its duration minus the part of that interval its child spans
cover.
"""

from __future__ import annotations

import json
from collections import defaultdict

# Functions whose self time and call count are reported by name.
NAMED = (
    "backend.stirling_row_update",
    "backend.nf_mul",
    "backend.normal_order_word",
    "backend.graph_step",
    "stirling.gen_stirling",
    "cache.compute_triangle",
    "cache.render_triangle",
    "cache.parse_triangle",
    "cache.load_triangle",
    "closedform.hyp_sum_adaptive",
    "hyperreal.gamma_fraction",
    "hyperreal.exp_decimal",
    "hyperreal.pi_decimal",
    "graphs.enumerate_graphs",
    "weyl.normal_order_rewrite",
    "parser.parse_expr",
    "cli.main",
)

LAYERS = ("backend", "parser", "weyl", "stirling", "graphs", "laguerre",
          "closedform", "hyperreal", "suite", "cache", "serialize", "cli")

# Counters the shim attaches to spans (see shim.COUNTERS).
COUNTS = (
    "backend.stirling_row_update.entries",
    "backend.nf_mul.terms_out",
    "backend.normal_order_word.terms_out",
    "backend.graph_step.states_out",
    "cache.hits",
    "cache.misses",
    "cache.corrupt",
    "cache.write_fail",
    "cache.bytes_written",
    "cache.bytes_read",
)


def self_times(spans) -> list:
    """Self time of every span, given spans as (name, start, end, parent, ...)."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            lo = max(spans[c][1], reach)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(max(0.0, (end - start) - covered))
    return out


def empty_metrics() -> dict:
    metrics = {}
    for name in NAMED:
        metrics[f"{name}.self_s"] = 0.0
        metrics[f"{name}.calls"] = 0
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = 0.0
    for name in COUNTS:
        metrics[name] = 0
    return metrics


def add_spans(metrics: dict, spans) -> None:
    """Accumulate one request's spans into per-layer metrics."""
    for span, own in zip(spans, self_times(spans)):
        name, counts = span[0], span[5]
        metrics[f"{name.split('.', 1)[0]}.self_s"] += own
        if name in NAMED:
            metrics[f"{name}.self_s"] += own
            metrics[f"{name}.calls"] += 1
        for key, value in (counts or {}).items():
            metrics[key] += value


def load(path) -> dict:
    """A span file as the shim wrote it, each span's name index resolved."""
    with open(path) as fh:
        data = json.load(fh)
    names = data["names"]
    data["spans"] = [(names[s[0]], *s[1:]) for s in data["spans"]]
    return data
