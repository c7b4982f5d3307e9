"""Combinatorial oracle: normal-ordering coefficients by graph counting.

A normally ordered operator's terms become one-vertex building blocks
(out-lines = creator power, in-lines = annihilator power, weight = the
coefficient): the (k, l, c) triples of `NormalForm.sorted_terms`.
Multiplying by one more factor corresponds to adding one vertex and
wiring some of its in-lines to previously free out-lines; the number of
distinct wirings of j in-lines to k free out-lines is
C(s,j) * k(k-1)...(k-j+1).  Aggregating partial diagrams by their free
line counts makes the count polynomial, and the aggregated table is a
`NormalForm` keyed (free out-lines, free in-lines).  Weights follow its
coefficients: ints for integer blocks (the diagram counts are integers),
a Fraction only when a block weight is one.

This route never consults the commutator or the contraction formula, so
agreement with those two is a genuine three-way check.
"""

from __future__ import annotations

from . import backend
from .weyl import NormalForm

__all__ = ["enumerate_graphs"]


def enumerate_graphs(nf: NormalForm, n: int) -> NormalForm:
    """n-step enumeration from the empty diagram; equals nf**n entrywise."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if not nf.terms:
        raise ValueError("cannot build blocks from the zero operator")
    blocks = nf.sorted_terms()
    states = {(0, 0): 1}
    for _ in range(n):
        states = backend.graph_step(states, blocks)
    return NormalForm(states)
