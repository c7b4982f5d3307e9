# cython: language_level=3
# cython: boundscheck=False
# cython: wraparound=False
"""Compiled compute kernels: a behavior-identical mirror of _kernels_py.

Loop counters, word positions, and structural sizes are C integers;
coefficients and triangle entries stay Python objects so arbitrary
precision is preserved.  Any semantic change here must be made in the
pure-Python module first (it is the reference implementation).
"""

from math import comb, factorial


cdef Py_ssize_t _inversions(tuple w):
    cdef Py_ssize_t inv = 0, zeros = 0, i, n = len(w)
    for i in range(n):
        if w[i] == 0:
            zeros += 1
        else:
            inv += zeros
    return inv


def normal_order_word(word):
    """Normal-order a product word over {0: annihilator, 1: creator}."""
    cdef tuple w0 = tuple(word)
    cdef Py_ssize_t inv0 = _inversions(w0)
    cdef dict buckets = {inv0: {w0: 1}}
    cdef dict done = {}
    cdef dict frontier, b
    cdef tuple w, swapped, dropped, nw
    cdef Py_ssize_t level = inv0
    cdef Py_ssize_t zeros_before, pos, ones_after, i, n, ninv, dag
    while level > 0:
        frontier = buckets.pop(level, None)
        if frontier is not None:
            for w, c in frontier.items():
                n = len(w)
                zeros_before = 0
                pos = -1
                for i in range(n - 1):
                    if w[i] == 0:
                        if w[i + 1] == 1:
                            pos = i
                            break
                        zeros_before += 1
                swapped = w[:pos] + (1, 0) + w[pos + 2:]
                dropped = w[:pos] + w[pos + 2:]
                ones_after = 0
                for i in range(pos + 2, n):
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
        dag = 0
        n = len(w)
        for i in range(n):
            if w[i] == 1:
                dag += 1
        key = (dag, n - dag)
        done[key] = done.get(key, 0) + c
    return {k: v for k, v in done.items() if v}


def nf_mul(a, b):
    """Product of two normal forms given as {(dag, ann): coeff} dicts."""
    cdef dict out = {}
    cdef Py_ssize_t p, q, r, s, k, m
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
    """Row n of the generalized Stirling triangle, from row n-1."""
    cdef Py_ssize_t m, k, steps = M
    cdef list row = list(prev)
    c = n * r
    for m in range(steps):
        row.append(0)
        for k in range(len(row) - 1, 0, -1):
            row[k] = row[k - 1] + (k + c) * row[k]
        row[0] = c * row[0]
    return row, row


def graph_step(state, blocks):
    """Attach one building block (a left factor) to every partial diagram."""
    cdef dict out = {}
    cdef Py_ssize_t k, l, r, s, j, m
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
