"""Compute kernels.

These are the inner loops of the whole package: word rewriting,
contraction products, falling-factorial rows, and graph attachment
steps.  This module is their reference implementation and must stay
dependency free.  Coefficients come in canonical (`series._canonical`:
an int when integral, a Fraction only when not), so integer inputs stay
in ints; the containers built from the results canonicalize them again.
Loop bookkeeping is exact integer arithmetic throughout.

One primitive carries the row kernel.  `ff_step(row, c)` multiplies a
polynomial in the number operator N = a†a, held as its coefficients on
the falling factorials N^(k) = N(N-1)...(N-k+1), by (N + c):
N^(k) (N + c) = N^(k+1) + (k + c) N^(k), so new[k] = old[k-1] +
(k + c) old[k].  On it is built `graded_step`: a normal form held as
one row per shift s = ann - dag, G(N) a^s for s >= 0 and a†^(-s) G(N)
for s < 0, right-multiplied by one letter.  A word's row is built left
to right, one step per letter, and its entries are the rook numbers of
the word's Ferrers board (Varvak, "Rook numbers and the normal ordering
problem", JCTA 112, 2005); a sum of words and any power of it are sums
of such runs.  One graded loop, `weyl._graded`, runs it for both the
triangle and `order`'s powers: row n of the generalized Stirling
triangle is the one row of D(r,M)^n = (a^r (a†a)^M)^n, row n-1 times
(N + n*r)^M.  The alternating sum that defines the triangle is not used
here: it is the independent oracle `stirling.alternating_sum_rows`,
which `verify stirling-expansion` checks every built row against.

The other three kernels are oracles, and none of them calls `ff_step`.
`normal_order_word` rewrites a a† = a† a + 1 until the word is ordered.
It is far slower on long words and is kept as the rewriting oracle the
graded kernel is tested against; `nf_mul` is the contraction product,
and `graph_step` attaches one block to the diagrams of the graph count.
"""

from __future__ import annotations

from itertools import count
from math import comb
from operator import add, mul

__all__ = [
    "ff_step",
    "normal_order_word",
    "graded_step",
    "nf_mul",
    "graph_step",
]

# `perfbench/run.py` records this in every run and `perfbench/compare.py`
# refuses to compare runs whose values differ, so the name and value stay.
BACKEND = "python"


def _inversions(w) -> int:
    inv = 0
    zeros = 0
    for s in w:
        if s == 0:
            zeros += 1
        else:
            inv += zeros
    return inv


def normal_order_word(word):
    """Normal-order a product word over {0: annihilator, 1: creator}.

    Rewrites the leftmost `a a†` pair via  a a† = a† a + 1  until no
    inversions remain, merging identical intermediate words.  Words are
    processed in decreasing inversion count so each distinct word is
    expanded exactly once (both rewrite children have strictly fewer
    inversions).  Returns {(dag, ann): coefficient} with positive integer
    coefficients.
    """
    w0 = tuple(word)
    inv0 = _inversions(w0)
    buckets: dict = {inv0: {w0: 1}}
    done: dict = {}
    level = inv0
    while level > 0:
        frontier = buckets.pop(level, None)
        if frontier:
            for w, c in frontier.items():
                zeros_before = 0
                pos = -1
                for i in range(len(w) - 1):
                    if w[i] == 0:
                        if w[i + 1] == 1:
                            pos = i
                            break
                        zeros_before += 1
                swapped = w[:pos] + (1, 0) + w[pos + 2:]
                dropped = w[:pos] + w[pos + 2:]
                ones_after = 0
                for i in range(pos + 2, len(w)):
                    if w[i] == 1:
                        ones_after += 1
                for nw, ninv in ((swapped, level - 1),
                                 (dropped, level - 1 - zeros_before - ones_after)):
                    b = buckets.get(ninv)
                    if b is None:
                        b = buckets[ninv] = {}
                    b[nw] = b.get(nw, 0) + c
        level -= 1
    for w, c in buckets.pop(0, {}).items():
        dag = sum(w)
        key = (dag, len(w) - dag)
        done[key] = done.get(key, 0) + c
    return {k: v for k, v in done.items() if v}


def nf_mul(a, b):
    """Product of two normal forms given as {(dag, ann): coeff} dicts.

    (a†)^p a^q (a†)^r a^s = sum_k k! C(q,k) C(r,k) (a†)^{p+r-k} a^{q+s-k}.
    The weight w_k = k! C(q,k) C(r,k) is kept as a running int product,
    w_(k+1) = w_k (q-k)(r-k) / (k+1), a division that is exact.
    """
    out: dict = {}
    for (p, q), ca in a.items():
        for (r, s), cb in b.items():
            c0 = ca * cb
            m = q if q < r else r
            w = 1
            for k in range(m + 1):
                c = c0 * w
                w = w * (q - k) * (r - k) // (k + 1)
                key = (p + r - k, q + s - k)
                v = out.get(key)
                v = c if v is None else v + c
                if v:
                    out[key] = v
                elif key in out:
                    del out[key]
    return out


def ff_step(row, c):
    """A row on falling factorials times (N + c); one entry longer.

    row[k] is the coefficient of N^(k), and row must not be empty.
    new[k] = old[k-1] + (k + c) old[k].
    """
    middle = [a + k * b for k, a, b in zip(range(c + 1, c + len(row)), row, row[1:])]
    return [c * row[0], *middle, row[-1]]


def graded_step(state, letter):
    """A graded normal form times one letter (0: a, 1: a†), as a new state.

    state is {s: row}, s = ann - dag, each row nonempty: G's coefficients
    on the falling factorials N^(k) of G(N) a^s (s >= 0) or a†^(-s) G(N).
    Shifts move by one, so rows never merge.  By a: G(N) a^s moves
    unchanged; a†^t G(N) becomes a†^(t-1) N G(N-1), the row shifted up.
    By a†: G(N) a^s becomes G(N) (N + s) a^(s-1), `ff_step(row, s)`, and
    a†^t G(N) becomes a†^(t+1) G(N+1), entries g_k + (k+1) g_(k+1).
    """
    if not letter:
        return {s + 1: row if s >= 0 else [0, *row] for s, row in state.items()}
    return {s - 1: ff_step(row, s) if s > 0 else
            [*map(add, row, map(mul, count(1), row[1:])), row[-1]]
            for s, row in state.items()}


def graph_step(state, blocks):
    """Attach one building block (a left factor) to every partial diagram.

    state: {(out_lines, in_lines): weight}.  blocks: [(r_out, s_in, alpha)].
    Joining j of the block's s_in input lines to the k available outputs
    multiplies the weight by alpha * C(s_in, j) * k*(k-1)*...*(k-j+1).
    """
    out: dict = {}
    for (k, l), w in state.items():
        for (r, s, alpha) in blocks:
            m = s if s < k else k
            ff = 1
            for j in range(m + 1):
                c = w * alpha * (comb(s, j) * ff)
                key = (k - j + r, l + s - j)
                v = out.get(key)
                v = c if v is None else v + c
                if v:
                    out[key] = v
                elif key in out:
                    del out[key]
                ff *= k - j
    return out
