"""Oracles and readers that only the tests use.

`normal_order_word_rightmost` checks the rewriter's confluence,
`explicit_graphs` materializes every labeled diagram that
`normord.graphs.enumerate_graphs` counts in aggregate, and
`normal_form_from_json` reads a normal form back from `order`'s JSON.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations, permutations
from typing import NamedTuple

from normord.weyl import NormalForm


def normal_form_from_json(text: str) -> NormalForm:
    """The normal form whose `serialize.normal_form_to_json` text is text."""
    return NormalForm({(t["dag"], t["ann"]): Fraction(t["coeff"])
                       for t in json.loads(text)["terms"]})


def normal_order_word_rightmost(word) -> NormalForm:
    """Rewriter variant that always attacks the rightmost inversion.

    Exists only to exercise the confluence property; the result must
    equal word_to_normal_form on every input.
    """
    pending = {tuple(word): 1}
    done: dict = {}
    while pending:
        w, c = pending.popitem()
        pos = -1
        for i in range(len(w) - 2, -1, -1):
            if w[i] == 0 and w[i + 1] == 1:
                pos = i
                break
        if pos < 0:
            dag = sum(w)
            key = (dag, len(w) - dag)
            done[key] = done.get(key, 0) + c
            continue
        for nw in (w[:pos] + (1, 0) + w[pos + 2:], w[:pos] + w[pos + 2:]):
            pending[nw] = pending.get(nw, 0) + c
    return NormalForm(done)


class ExplicitGraph(NamedTuple):
    """One fully labeled diagram: per-vertex (block index, in-slots, out-line ids)."""

    steps: tuple
    weight: int | Fraction
    free_out: tuple
    free_in: int


_EXPLICIT_LIMIT = 3


def explicit_graphs(nf: NormalForm, n: int) -> list:
    """Materialize every labeled diagram with n vertices (n <= 3 only).

    The building blocks are nf's terms as (out-lines, in-lines, weight),
    in `sorted_terms` order.  Each attachment choice (which in-slots of
    the new vertex, which free out-lines they land on, in order) becomes
    a distinct graph, so each graph carries only the product of block
    weights; the combinatorial factors of the aggregated count appear as
    the number of graphs.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n > _EXPLICIT_LIMIT:
        raise ValueError(
            f"explicit materialization is limited to {_EXPLICIT_LIMIT} vertices"
        )
    if not nf.terms:
        raise ValueError("cannot build blocks from the zero operator")
    blocks = nf.sorted_terms()
    out: list = []

    def expand(steps, weight, free_out, free_in, depth, next_id):
        if depth == n:
            out.append(ExplicitGraph(tuple(steps), weight, tuple(free_out), free_in))
            return
        for bi, (out_lines, s, block_weight) in enumerate(blocks):
            new_ids = tuple(next_id + i for i in range(out_lines))
            max_j = min(s, len(free_out))
            for j in range(max_j + 1):
                for slots in combinations(range(s), j):
                    for targets in permutations(free_out, j):
                        remaining = [x for x in free_out if x not in targets]
                        expand(
                            steps + [(bi, slots, targets)],
                            weight * block_weight,
                            remaining + list(new_ids),
                            free_in + (s - j),
                            depth + 1,
                            next_id + out_lines,
                        )

    expand([], 1, [], 0, 0, 0)
    return out


def explicit_table(nf: NormalForm, n: int) -> NormalForm:
    """Aggregate the explicit graphs by free line counts (cross-check path)."""
    agg: dict = {}
    for g in explicit_graphs(nf, n):
        key = (len(g.free_out), g.free_in)
        agg[key] = agg.get(key, 0) + g.weight
    return NormalForm(agg)
