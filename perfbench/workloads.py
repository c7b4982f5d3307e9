"""Seeded request lists for the three workloads.

A request is a plain dict: `kind`, the CLI `argv` (without `--cache-dir`,
which the runner adds per pass), and whatever its output check needs.
The list is a pure function of (workload, seed); `digest` hashes it so two
result files can be told apart when their inputs differ.

Sizes are stratified rather than drawn freely: each slot of a list covers
a fixed band of input size, and the seed picks the input inside the band.
That keeps one pass's cost nearly the same for every seed, so a seed
changes which inputs are timed but not how much work a run measures.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("verify", "triangle", "order")

# triangle: (target width M*n, M, lowest r, highest r, format) per key;
# the seed picks r, n within 1% of the width, and the order.  Large keys
# print whole rows, small ones print row sums.  Each key keeps one format
# and at most two values of r: the cheap misses and the hits sit around
# the median latency, and a seeded choice among formats or r = 0..3 moved
# req_p50_s by 14% between seeds.  The widest key sets the workload's
# peak RSS, so it keeps r = 1 and the seed moves the peak only through n.
# The n = 400 scale target is not here: one cold miss of (1,1,400) takes
# 18-23 s (Python 3.11, 2-core x86 VM), a single sample as long as a whole
# run.
_TRIANGLE_FORMATS = {
    "poly-json": ["--poly"],
    "poly-table": ["--poly", "--format", "table"],
    "number-bfile": ["--format", "bfile"],
    "number-table": ["--format", "table"],
}
_TRIANGLE_SLOTS = ((100, 1, 0, 0, "number-bfile"), (100, 3, 3, 3, "number-table"),
                   (160, 1, 1, 2, "poly-table"), (180, 1, 1, 2, "poly-json"),
                   (200, 2, 1, 2, "poly-table"), (240, 1, 1, 1, "poly-json"))

# order: word lengths.  Each word is a run of shuffled blocks of four a
# and four ad, so every prefix stays within four letters of balanced; the
# rewriting cost of such a word depends on its length and hardly on the
# seed (a free random word of 180 letters varies by a factor of 1.5).
_WORD_LENGTHS = (80, 88, 96, 104, 120, 160, 200)
# (r, M, lowest power, highest power) for `order "a^r (ad a)^M" --power p`,
# each about as costly as the others (0.25-0.3 s cold on a 2-core x86 VM).
# Every list holds all five, so the seed moves only p: the median request
# falls among them, and a seeded choice of keys would move it.
_POWER_KEYS = ((1, 1, 120, 130), (1, 2, 63, 69), (2, 2, 60, 66),
               (2, 3, 41, 45), (3, 2, 60, 66))

# verify: (r, M, lowest n, highest n) for `verify graphs`.
_GRAPH_KEYS = ((1, 1, 24, 30), (1, 2, 14, 18), (2, 1, 18, 22), (2, 2, 12, 15))


def make_requests(workload: str, seed: int) -> list:
    if workload not in _MAKERS:
        raise ValueError(f"unknown workload {workload!r}")
    return _MAKERS[workload](random.Random(f"{workload}:{seed}"))


def digest(requests: list) -> str:
    text = json.dumps(requests, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _verify(rng: random.Random) -> list:
    reqs = [
        {"kind": "verify-all", "argv": ["verify", "all", "--precision", str(p)]}
        for p in (50, 50, 50, 50, 100, 100, 100)
    ]
    for r, M, lo, hi in rng.sample(_GRAPH_KEYS, 3):
        n = rng.randint(lo, hi)
        reqs.append({
            "kind": "verify-graphs", "r": r, "M": M, "n": n,
            "argv": ["verify", "graphs", "--r", str(r), "--M", str(M),
                     "--n", str(n)],
        })
    for _ in range(2):
        n = rng.randint(16, 22)
        reqs.append({"kind": "verify-stirling", "n": n,
                     "argv": ["verify", "stirling-expansion", "--n", str(n)]})
    rng.shuffle(reqs)
    return reqs


def _triangle(rng: random.Random) -> list:
    plan = []
    for width, M, r_lo, r_hi, fmt in _TRIANGLE_SLOTS:
        n = round(width * rng.uniform(0.99, 1.01) / M)
        plan.append(((rng.randint(r_lo, r_hi), M, n), fmt))
    rng.shuffle(plan)
    reqs = []
    for slot, ((r, M, n), fmt) in enumerate(plan):
        argv = ["seq", str(r), str(M), str(n), *_TRIANGLE_FORMATS[fmt]]
        for role in ("miss", "hit"):
            reqs.append({"kind": "seq", "role": role, "slot": slot,
                         "r": r, "M": M, "n": n, "fmt": fmt,
                         "argv": argv})
    return reqs


def _expectation_point(rng: random.Random) -> str:
    re_part = f"{rng.randint(1, 9)}/{rng.randint(2, 9)}"
    im_part = f"{rng.randint(-9, 9)}/{rng.randint(2, 9)}"
    return f"{re_part},{im_part}"


def _word(rng: random.Random, length: int) -> list:
    word = []
    while len(word) < length:
        block = [0, 0, 0, 0, 1, 1, 1, 1]
        rng.shuffle(block)
        word += block
    return word[:length]


def _order(rng: random.Random) -> list:
    reqs = []
    for length in _WORD_LENGTHS:
        word = _word(rng, length)
        expr = " ".join("ad" if s else "a" for s in word)
        reqs.append({"kind": "order-word", "word": word, "fmt": "json",
                     "argv": ["order", expr]})
    # two short words print as a table, one is evaluated at a point; the
    # lengths are fixed, as a seeded pick moved req_p50_s between seeds
    for req, fmt in zip(reqs[:3], ("expectation", "table", "table")):
        req["fmt"] = fmt
        if fmt == "table":
            req["argv"] += ["--format", "table"]
        else:
            req["z"] = _expectation_point(rng)
            req["argv"] += ["--expectation", req["z"]]
    for r, M, lo, hi in _POWER_KEYS:
        p = rng.randint(lo, hi)
        reqs.append({"kind": "order-power", "r": r, "M": M, "p": p, "fmt": "json",
                     "argv": ["order", f"a^{r} (ad a)^{M}", "--power", str(p)]})
    # a low power at a point: the expectation costs as much as the power
    r, M, lo, hi = rng.choice(_POWER_KEYS)
    p = lo // 4
    z = _expectation_point(rng)
    reqs.append({"kind": "order-power", "r": r, "M": M, "p": p,
                 "fmt": "expectation", "z": z,
                 "argv": ["order", f"a^{r} (ad a)^{M}", "--power", str(p),
                          "--expectation", z]})
    rng.shuffle(reqs)
    return reqs


_MAKERS = {"verify": _verify, "triangle": _triangle, "order": _order}

# Layer map: per-layer metrics that must read nonzero on exactly these
# workloads and zero on the others, per the benchmark's design.  A traced
# run reports any metric that departs from it.
LAYER_MAP = {
    "backend.stirling_row_update.self_s": {"triangle", "verify"},
    "stirling.gen_stirling.calls": {"triangle", "verify"},
    "cache.load_triangle.self_s": {"triangle"},
    "cache.misses": {"triangle"},
    "cache.hits": {"triangle"},
    "cache.parse_triangle.self_s": {"triangle"},
    "closedform.hyp_sum_adaptive.self_s": {"verify"},
    "hyperreal.gamma_fraction.calls": {"verify"},
    "laguerre.self_s": {"verify"},
    "graphs.enumerate_graphs.self_s": {"verify"},
    "backend.graph_step.self_s": {"verify"},
    "backend.nf_mul.self_s": {"order", "verify"},
    "backend.normal_order_word.self_s": {"order", "verify"},
    "parser.parse_expr.calls": {"order"},
    "serialize.bytes_out": {"triangle", "order", "verify"},
    "suite.reports": {"verify"},
}
