"""Traced CLI entry: run one normord request with every layer in spans.

    python3 shim.py SPANS_OUT REQUEST_ID CLI_ARG...

Imports `normord.cli`, wraps the public functions of each normord module
(the four kernels for `backend`) in spans, rebinds every module-level
reference to them, calls `normord.cli.main(CLI_ARG...)` and exits with
its code.  Spans stay in memory and are written to SPANS_OUT as JSON on
exit.  Nothing under src/ is modified; only this process is patched.
"""

from __future__ import annotations

import functools
import json
import sys
import types
from time import perf_counter

from spans import LAYERS  # this file's directory is sys.path[0]

KERNELS = ("normal_order_word", "nf_mul", "stirling_row_update", "graph_step")


def _load_counts(args, result):
    _, hit, warning = result
    counts = {"cache.hits": 1} if hit else {"cache.misses": 1}
    if warning and "corrupt" in warning:
        counts["cache.corrupt"] = 1
    if warning and "write failed" in warning:
        counts["cache.write_fail"] = 1
    return counts


# Span name -> function of (args, result) giving the counters to add.
COUNTERS = {
    "backend.stirling_row_update":
        lambda args, res: {"backend.stirling_row_update.entries": len(res[0])},
    "backend.nf_mul": lambda args, res: {"backend.nf_mul.terms_out": len(res)},
    "backend.normal_order_word":
        lambda args, res: {"backend.normal_order_word.terms_out": len(res)},
    "backend.graph_step":
        lambda args, res: {"backend.graph_step.states_out": len(res)},
    # the text handed to the cache file write (a failed write shows in
    # cache.write_fail)
    "cache.render_triangle": lambda args, res: {"cache.bytes_written": len(res)},
    "cache.parse_triangle": lambda args, res: {"cache.bytes_read": len(args[0])},
    "cache.load_triangle": _load_counts,
}


class Tracer:
    def __init__(self, rid: str):
        self.rid = rid
        self.spans: list = []
        self.stack: list = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = (name, start, perf_counter(), parent, None)
                stack.pop()
                raise
            end = perf_counter()
            stack.pop()
            spans[sid] = (name, start, end, parent,
                          count(args, result) if count else None)
            return result

        return traced

    def dump(self, path: str, import_s: float) -> None:
        names: dict = {}
        rows = []
        for name, start, end, parent, counts in self.spans:
            rows.append([names.setdefault(name, len(names)), start, end,
                         parent, self.rid, counts])
        with open(path, "w") as fh:
            json.dump({"rid": self.rid, "import_s": import_s,
                       "fields": ["name", "start", "end", "parent", "rid",
                                  "counts"],
                       "names": list(names), "spans": rows}, fh)


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions and rebind every reference."""
    wrapped = {}
    for layer in LAYERS:
        module = sys.modules[f"normord.{layer}"]
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                continue
            if layer == "backend" and attr not in KERNELS:
                continue
            if layer != "backend" and obj.__module__ != module.__name__:
                continue
            wrapped[obj] = tracer.wrap(f"{layer}.{attr}", obj)
    for name, module in list(sys.modules.items()):
        if name != "normord" and not name.startswith("normord."):
            continue
        for attr, obj in list(vars(module).items()):
            if attr.startswith("__"):
                continue
            if isinstance(obj, types.FunctionType) and obj in wrapped:
                setattr(module, attr, wrapped[obj])
            elif isinstance(obj, dict):  # dispatch tables such as cli._DISPATCH
                for key, value in list(obj.items()):
                    if isinstance(value, types.FunctionType) and value in wrapped:
                        obj[key] = wrapped[value]


def main(argv) -> int:
    spans_out, rid, *cli_args = argv
    t0 = perf_counter()
    import normord.cli
    import_s = perf_counter() - t0
    tracer = Tracer(rid)
    install(tracer)
    try:
        return normord.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_out, import_s)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
