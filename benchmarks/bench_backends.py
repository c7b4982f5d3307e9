"""Timing comparison of the compiled kernels against the pure-Python ones.

Each workload calls one kernel function directly on both implementations
(whichever are importable right now) and reports best-of-N wall times.

    python3 benchmarks/bench_backends.py [--repeat N]
"""

import argparse
import time

from normord.backend import available_backends


def bench(fn, args, repeat):
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        dt = time.perf_counter() - t0
        if best is None or dt < best:
            best = dt
    return best


def make_workloads():
    """(name, kernel-function name, args builder) triples."""
    # the word for [a^2 (ad a)^3]^6: 30 letters, heavily inverted
    long_word = ((0, 0) + (1, 0) * 3) * 6

    d22 = {(0, 2): 4, (1, 3): 4, (2, 4): 1}  # a^2 (ad a)^2 normal-ordered

    def nf_pow(mod):
        acc = {(0, 0): 1}
        for _ in range(8):
            acc = mod.nf_mul(acc, d22)
        return acc

    def triangle(mod):
        row = [1]
        for n in range(1, 41):
            row, _ = mod.stirling_row_update(2, 2, n, row)

    def graphs(mod):
        blocks = [(0, 1, 2), (1, 2, 1), (2, 2, 1)]
        state = {(0, 0): 1}
        for _ in range(9):
            state = mod.graph_step(state, blocks)
        return state

    return [
        ("normal_order_word (30 letters)",
         lambda mod: mod.normal_order_word(long_word)),
        ("nf_mul chain (8 squarings)", nf_pow),
        ("stirling rows to n=40 (r=2, M=2)", triangle),
        ("graph_step x9 (3 blocks)", graphs),
    ]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=3)
    ns = ap.parse_args()

    backends = available_backends()
    names = sorted(backends)
    workloads = make_workloads()

    col = max(len(w[0]) for w in workloads) + 2
    header = "workload".ljust(col) + "".join(f"{n:>12}" for n in names)
    if len(names) > 1:
        header += f"{'speedup':>10}"
    print(header)
    print("-" * len(header))
    for label, call in workloads:
        times = {}
        for name in names:
            times[name] = bench(call, (backends[name],), ns.repeat)
        line = label.ljust(col) + "".join(f"{times[n]*1e3:>10.2f}ms" for n in names)
        if "python" in times and "cython" in times and times["cython"] > 0:
            line += f"{times['python'] / times['cython']:>9.2f}x"
        print(line)


if __name__ == "__main__":
    main()
