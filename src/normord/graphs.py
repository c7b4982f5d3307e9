"""Combinatorial oracle: normal-ordering coefficients by graph counting.

A normally ordered operator's terms become one-vertex building blocks
(out-lines = creator power, in-lines = annihilator power, weight = the
coefficient).  Multiplying by one more factor corresponds to adding one
vertex and wiring some of its in-lines to previously free out-lines; the
number of distinct wirings of j in-lines to k free out-lines is
C(s,j) * k(k-1)...(k-j+1).  Aggregating partial diagrams by their free
line counts makes the count polynomial; an explicit mode materializes
every labeled diagram for very small vertex counts.  Weights follow the
coefficients of `weyl.NormalForm`: ints for integer blocks (the diagram
counts are integers), a Fraction only when a block weight is one.

This route never consults the commutator or the contraction formula, so
agreement with those two is a genuine three-way check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from typing import NamedTuple

from . import backend
from .series import _canonical
from .weyl import NormalForm

__all__ = [
    "BuildingBlock",
    "CoeffTable",
    "blocks_from",
    "enumerate_step",
    "enumerate_graphs",
    "explicit_graphs",
    "explicit_table",
]


class BuildingBlock(NamedTuple):
    out_lines: int
    in_lines: int
    weight: int | Fraction


class CoeffTable(NamedTuple):
    """Free-line-count table after n vertices; same shape as a NormalForm."""

    n: int
    table: tuple  # sorted tuple of ((out, in), weight)

    @classmethod
    def from_dict(cls, n: int, d: dict) -> "CoeffTable":
        items = tuple(
            sorted(((k, _canonical(v)) for k, v in d.items() if v),
                   key=lambda kv: (-kv[0][0], -kv[0][1]))
        )
        return cls(n, items)

    def as_dict(self) -> dict:
        return {k: v for k, v in self.table}

    @property
    def total_weight(self) -> int | Fraction:
        return _canonical(sum(v for _, v in self.table))

    def to_normal_form(self) -> NormalForm:
        return NormalForm(self.as_dict())


def blocks_from(nf: NormalForm) -> list:
    """One building block per term, ordered deterministically."""
    if not nf.terms:
        raise ValueError("cannot build blocks from the zero operator")
    return [
        BuildingBlock(k, l, c)
        for k, l, c in nf.sorted_terms()
    ]


def enumerate_step(states: dict, blocks) -> dict:
    """One vertex-adding step on the aggregated {(out, in): weight} states."""
    raw = [(b.out_lines, b.in_lines, b.weight) for b in blocks]
    return backend.graph_step(states, raw)


def enumerate_graphs(nf: NormalForm, n: int) -> CoeffTable:
    """n-step enumeration from the empty diagram; equals nf**n entrywise."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    blocks = blocks_from(nf)
    states = {(0, 0): 1}
    for _ in range(n):
        states = enumerate_step(states, blocks)
    return CoeffTable.from_dict(n, states)


class ExplicitGraph(NamedTuple):
    """One fully labeled diagram: per-vertex (block index, in-slots, out-line ids)."""

    steps: tuple
    weight: int | Fraction
    free_out: tuple
    free_in: int


_EXPLICIT_LIMIT = 3


def explicit_graphs(nf: NormalForm, n: int) -> list:
    """Materialize every labeled diagram with n vertices (n <= 3 only).

    Each attachment choice (which in-slots of the new vertex, which free
    out-lines they land on, in order) becomes a distinct graph, so each
    graph carries only the product of block weights; the combinatorial
    factors of the aggregated count appear as the number of graphs.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n > _EXPLICIT_LIMIT:
        raise ValueError(
            f"explicit materialization is limited to {_EXPLICIT_LIMIT} vertices"
        )
    blocks = blocks_from(nf)
    out: list = []

    def expand(steps, weight, free_out, free_in, depth, next_id):
        if depth == n:
            out.append(ExplicitGraph(tuple(steps), weight, tuple(free_out), free_in))
            return
        for bi, b in enumerate(blocks):
            s = b.in_lines
            new_ids = tuple(next_id + i for i in range(b.out_lines))
            max_j = min(s, len(free_out))
            for j in range(max_j + 1):
                for slots in combinations(range(s), j):
                    for targets in permutations(free_out, j):
                        remaining = [x for x in free_out if x not in targets]
                        expand(
                            steps + [(bi, slots, targets)],
                            weight * b.weight,
                            remaining + list(new_ids),
                            free_in + (s - j),
                            depth + 1,
                            next_id + b.out_lines,
                        )

    expand([], 1, [], 0, 0, 0)
    return out


def explicit_table(nf: NormalForm, n: int) -> CoeffTable:
    """Aggregate the explicit graphs by free line counts (cross-check path)."""
    agg: dict = {}
    for g in explicit_graphs(nf, n):
        key = (len(g.free_out), g.free_in)
        agg[key] = agg.get(key, 0) + g.weight
    return CoeffTable.from_dict(n, agg)
