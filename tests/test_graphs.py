"""Weighted-graph enumeration against the rewriting oracle."""

import pytest

from normord.graphs import enumerate_graphs
from normord.stirling import gen_bell_number
from normord.weyl import NormalForm, laguerre_derivative_nf
from oracles import explicit_graphs, explicit_table


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("M", [1, 2])
def test_enumeration_matches_oracle(r, M):
    d = laguerre_derivative_nf(r, M)
    power = NormalForm.one()
    for n in range(1, 5):
        power = power * d
        table = enumerate_graphs(d, n)
        assert table == power, (r, M, n)
        assert table.expectation_at_one() == gen_bell_number(r, M, n)


def test_frozen_totals():
    d11 = laguerre_derivative_nf(1, 1)
    assert [enumerate_graphs(d11, n).expectation_at_one() for n in (1, 2, 3, 4)] == [
        2, 7, 34, 209,
    ]
    d21 = laguerre_derivative_nf(2, 1)
    assert [enumerate_graphs(d21, n).expectation_at_one() for n in (1, 2, 3, 4)] == [
        3, 16, 121, 1179,
    ]


def test_pure_annihilator_has_no_attachments():
    a = NormalForm.annihilator()
    for n in range(1, 5):
        table = enumerate_graphs(a, n)
        assert table.terms == {(0, n): 1}


def test_blocks_from_normal_form():
    # the building blocks are the terms: one vertex is the operator itself
    d = laguerre_derivative_nf(1, 1)  # ad a^2 + a
    assert d.sorted_terms() == [(1, 2, 1), (0, 1, 1)]
    assert enumerate_graphs(d, 1) == d
    assert enumerate_graphs(d, 0) == NormalForm.one()
    with pytest.raises(ValueError, match="zero operator"):
        enumerate_graphs(NormalForm.zero(), 2)


def test_explicit_graphs_agree_with_counting():
    d = laguerre_derivative_nf(1, 1)
    for n in (1, 2, 3):
        graphs = explicit_graphs(d, n)
        table = enumerate_graphs(d, n)
        assert explicit_table(d, n) == table
        # every block weight is 1 here, so each labeled diagram counts
        # once and the number of diagrams is the total weight
        assert len(graphs) == table.expectation_at_one()


def test_explicit_graphs_limit():
    d = laguerre_derivative_nf(1, 1)
    with pytest.raises(ValueError):
        explicit_graphs(d, 4)
