"""JSON, table, and b-file renderings round-trip without loss."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from normord.serialize import (
    OEIS_ANNOTATIONS,
    iter_poly_rows_json,
    iter_poly_rows_table,
    normal_form_table,
    normal_form_to_dict,
    normal_form_to_json,
    poly_rows_to_dict,
    sequence_bfile,
    sequence_table,
    sequence_to_dict,
    sequence_to_json,
)
from normord.stirling import stirling_rows
from normord.weyl import NormalForm
from oracles import normal_form_from_json


def nf_sample():
    nf = NormalForm.monomial(1, 1)
    return nf * nf  # (a† a)^2 = a†a + a†² a²


def test_normal_form_round_trip():
    nf = nf_sample()
    back = normal_form_from_json(normal_form_to_json(nf))
    assert back == nf


def test_normal_form_round_trip_huge_coeff():
    nf = NormalForm.monomial(2, 3, coeff=Fraction(10**40, 7))
    back = normal_form_from_json(normal_form_to_json(nf))
    assert back == nf
    d = normal_form_to_dict(nf)
    assert d["terms"][0]["coeff"] == str(Fraction(10**40, 7))


_COEFFS = st.one_of(
    st.integers(-10**30, 10**30),
    st.fractions().filter(lambda q: q.denominator > 1),
)


@given(st.dictionaries(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                       _COEFFS, max_size=12))
@example({})
@example({(0, 0): 0})
@example({(3, 1): -2, (0, 2): Fraction(-5, 3), (0, 0): Fraction(1, 2)})
def test_normal_form_json_template_matches_json_dumps(terms):
    # the zero form, negative and Fraction coefficients all print the
    # bytes of the encoder the template replaces
    nf = NormalForm(terms)
    assert normal_form_to_json(nf) == json.dumps(normal_form_to_dict(nf), indent=2)


def test_normal_form_term_order():
    nf = nf_sample() + NormalForm.monomial(0, 2, coeff=5)
    d = normal_form_to_dict(nf)
    keys = [(t["dag"], t["ann"]) for t in d["terms"]]
    assert keys == sorted(keys, reverse=True)
    assert d["order"] == "dag desc, ann desc"


def test_normal_form_table_lines():
    text = normal_form_table(nf_sample())
    lines = text.splitlines()
    # one header plus one line per term, aligned columns
    assert len(lines) == 1 + len(nf_sample().terms)
    assert "dag" in lines[0] and "ann" in lines[0] and "coeff" in lines[0]


def test_sequence_round_trip():
    values = [1, 2, 7, 34, 209, 1546, 13327]
    text = sequence_to_json(1, 1, values)
    back = json.loads(text)
    assert [int(v) for v in back["values"]] == values
    assert back["r"] == 1 and back["M"] == 1


@given(st.integers(0, 4), st.integers(0, 4),
       st.lists(st.integers(-10**40, 10**40), max_size=12))
@example(1, 1, [])
@example(2, 1, [1, 3, 15])
def test_sequence_json_template_matches_json_dumps(r, M, values):
    # with and without an OEIS tag, and the empty sequence
    assert sequence_to_json(r, M, values) == json.dumps(
        sequence_to_dict(r, M, values), indent=2)


def test_sequence_json_large_ints_as_strings():
    values = [117428972441699060660584977]
    d = sequence_to_dict(3, 4, values)
    assert d["values"] == ["117428972441699060660584977"]
    back = json.loads(sequence_to_json(3, 4, values))
    assert [int(v) for v in back["values"]] == values


def test_bfile_format():
    values = [1, 2, 7, 34]
    text = sequence_bfile(values)
    assert text == "0 1\n1 2\n2 7\n3 34\n"
    assert text.endswith("\n")


def test_bfile_rejects_non_natural():
    with pytest.raises(ValueError):
        sequence_bfile([1, -2, 3])
    with pytest.raises(ValueError):
        sequence_bfile([Fraction(1, 2)])


def test_oeis_annotations():
    assert OEIS_ANNOTATIONS[(1, 1)] == "A002720"
    assert OEIS_ANNOTATIONS[(1, 2)] == "A069948"
    assert OEIS_ANNOTATIONS[(2, 1)] == "A121629"
    assert (3, 3) not in OEIS_ANNOTATIONS


def test_sequence_table_header():
    text = sequence_table(1, 1, [1, 2, 7])
    head = text.splitlines()[0]
    assert head.startswith("#")
    assert "A002720" in head
    text = sequence_table(2, 3, [1, 37])
    assert "(" not in text.splitlines()[0]


def _table_reference(r, M, rows):
    """The table as poly_rows_table wrote it from int rows."""
    lines = [f"# r={r} M={M} coefficient rows (x^0 .. x^(M*n))"]
    for n, row in enumerate(rows):
        lines.append(f"{n}: " + " ".join(str(int(c)) for c in row))
    return "\n".join(lines)


@pytest.mark.parametrize("r", [0, 1, 2, 3])
@pytest.mark.parametrize("M", [0, 1, 3])
@pytest.mark.parametrize("n_max", [0, 1, 7])
def test_poly_writers_match_json_dumps_and_table(r, M, n_max):
    rows = list(stirling_rows(r, M, n_max))
    want_json = json.dumps(poly_rows_to_dict(r, M, rows), indent=2)
    want_table = _table_reference(r, M, rows)
    # the writers take each row as its cache-file line
    lines = [" ".join(map(str, row)) for row in rows]
    assert "".join(iter_poly_rows_json(r, M, iter(lines))) == want_json
    assert "".join(iter_poly_rows_table(r, M, iter(lines))) == want_table
    # one piece for the head and the tail, one per row between
    assert len(list(iter_poly_rows_json(r, M, lines))) == n_max + 3
