"""Compute kernels.

These four functions are the inner loops of the whole package: word
rewriting, contraction products, generalized Stirling rows, and graph
attachment steps.  This module is their reference implementation and
must stay dependency free.  Coefficients are plain ints or Fractions
(callers decide); loop bookkeeping is exact integer arithmetic
throughout.

Stirling rows are built by the three-term normal-ordering recurrence,
O(M * width) small-by-big multiply-adds per row.  The alternating sum
that defines the triangle is not used here: it is the independent oracle
`stirling.alternating_sum_row`, which `verify stirling-expansion` checks
every built row against.
"""

from __future__ import annotations

from math import comb, factorial

__all__ = ["normal_order_word", "nf_mul", "stirling_row_update", "graph_step"]

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
    """
    out: dict = {}
    for (p, q), ca in a.items():
        for (r, s), cb in b.items():
            c0 = ca * cb
            m = q if q < r else r
            for k in range(m + 1):
                c = c0 * (factorial(k) * comb(q, k) * comb(r, k))
                key = (p + r - k, q + s - k)
                v = out.get(key)
                v = c if v is None else v + c
                if v:
                    out[key] = v
                elif key in out:
                    del out[key]
    return out


def stirling_row_update(r, M, n, prev):
    """Row n of the generalized Stirling triangle, from row n-1.

    prev is row n-1 ([1] for n = 1).  Row n holds the coefficients of
    prod_{i=1}^n (N + i*r)^M on the falling factorials N^(k), so it is
    row n-1 times (N + n*r), M times over, and
    N^(k) (N + c) = N^(k+1) + (k + c) N^(k) makes each factor the
    three-term step new[k] = old[k-1] + (k + c) old[k].  Returns
    (row, carry); the carry is the row itself.
    """
    c = n * r
    row = list(prev)
    for _ in range(M):
        middle = [a + k * b for k, a, b in zip(range(c + 1, c + len(row)), row, row[1:])]
        row = [c * row[0], *middle, row[-1]]
    return row, row


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
