"""Compare two result files written by `run.py --out`.

For each workload and end-to-end metric, print both sides' medians and
quartiles and a verdict:

- better: B's median beats A's by more than A's own quartile spread and
  B wins at least nine tenths of the runs paired by seed (ties count for
  neither); or, when the spread is too wide to judge, every B run beats
  every A run.
- worse: B's median is worse than A's by more than the metric's bound.
- unchanged: neither, with both spreads within the bound.
- unresolved: a side's quartile spread, as a share of its median, is
  wider than the metric's bound (or a side has fewer than two runs).

Two files whose request lists, run lengths or backends differ are not
compared.
"""

from __future__ import annotations

import json
import statistics
import sys


def load(path) -> list:
    """The untraced runs of a result file (JSON lines)."""
    with open(path) as fh:
        runs = [json.loads(line) for line in fh if line.strip()]
    return [r for r in runs if not r["trace"]]


def quartiles(values) -> tuple:
    """(median, first quartile, third quartile)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def verdict(a: dict, b: dict, bound: float, lower_is_better: bool) -> str:
    """a, b: seed -> value for one workload and metric."""
    if len(a) < 2 or len(b) < 2:
        return "unresolved"
    sign = -1.0 if lower_is_better else 1.0

    def beats(x, y):
        return sign * (x - y) > 0

    med_a, q1a, q3a = quartiles(list(a.values()))
    med_b, q1b, q3b = quartiles(list(b.values()))
    gain = sign * (med_b - med_a) / med_a
    wide = max((q3a - q1a) / med_a, (q3b - q1b) / med_b) > bound
    if all(beats(y, x) for y in b.values() for x in a.values()):
        return "better"
    if wide:
        return "unresolved"
    if gain < -bound:
        return "worse"
    seeds = a.keys() & b.keys()
    wins = sum(beats(b[s], a[s]) for s in seeds)
    if seeds and gain > (q3a - q1a) / med_a and wins >= 0.9 * len(seeds):
        return "better"
    return "unchanged"


def _inputs(runs) -> dict:
    return {(r["workload"], r["seed"]): (r["meta"]["request_digest"], r["seconds"])
            for r in runs}


def refusal(a_runs: list, b_runs: list) -> str | None:
    """Why the two sets may not be compared, or None."""
    backends = ({r["meta"]["backend"] for r in a_runs},
                {r["meta"]["backend"] for r in b_runs})
    if backends[0] != backends[1]:
        return f"backends differ: {sorted(backends[0])} vs {sorted(backends[1])}"
    a_in, b_in = _inputs(a_runs), _inputs(b_runs)
    if a_in != b_in:
        differ = sorted(k for k in a_in.keys() | b_in.keys()
                        if a_in.get(k) != b_in.get(k))
        return (f"request lists or run lengths differ for (workload, seed) "
                f"{differ[:5]}")
    return None


def compare(a_runs: list, b_runs: list, spec: dict) -> list:
    """Rows (workload, metric, unit, (med, q1, q3) of A, of B, verdict)."""
    rows = []
    for workload in sorted({r["workload"] for r in a_runs}):
        for m in spec["end_to_end"]:
            a, b = ({r["seed"]: r["metrics"][m["name"]]["value"]
                     for r in runs if r["workload"] == workload}
                    for runs in (a_runs, b_runs))
            if not a or not b:
                continue
            stats = [quartiles(list(v.values())) if len(v) > 1
                     else (*v.values(),) * 3 for v in (a, b)]
            rows.append((workload, m["name"], m["unit"], *stats,
                         verdict(a, b, m["bound"], m["better"] == "lower")))
    return rows


def main(path_a: str, path_b: str, spec: dict) -> int:
    a_runs, b_runs = load(path_a), load(path_b)
    why = refusal(a_runs, b_runs)
    if why:
        print(f"error: not comparable: {why}", file=sys.stderr)
        return 2
    print(f"{'workload':<9} {'metric':<12} {'A median [q1, q3]':>32}  "
          f"{'B median [q1, q3]':>32}  verdict")
    for workload, name, unit, sa, sb, word in compare(a_runs, b_runs, spec):
        cells = [f"{s[0]:.4g} [{s[1]:.4g}, {s[2]:.4g}] {unit}" for s in (sa, sb)]
        print(f"{workload:<9} {name:<12} {cells[0]:>32}  {cells[1]:>32}  {word}")
    return 0
