"""JSON, table, and b-file renderings round-trip without loss."""

import json
from fractions import Fraction

import pytest

from normord.serialize import (
    OEIS_ANNOTATIONS,
    iter_poly_rows_json,
    iter_poly_rows_table,
    normal_form_from_json,
    normal_form_table,
    normal_form_to_dict,
    normal_form_to_json,
    poly_rows_to_dict,
    sequence_bfile,
    sequence_from_json,
    sequence_table,
    sequence_to_dict,
    sequence_to_json,
)
from normord.stirling import stirling_rows
from normord.weyl import NormalForm


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


def test_normal_form_term_order():
    nf = nf_sample() + NormalForm.monomial(0, 2, coeff=5)
    d = normal_form_to_dict(nf)
    keys = [(t["dag"], t["ann"]) for t in d["terms"]]
    assert keys == sorted(keys, reverse=True)
    assert d["order"] == "dag desc, ann desc"


def test_duplicate_terms_rejected():
    text = """{
      "terms": [
        {"dag": 1, "ann": 1, "coeff": "1"},
        {"dag": 1, "ann": 1, "coeff": "2"}
      ],
      "order": "dag desc, ann desc"
    }"""
    with pytest.raises(ValueError):
        normal_form_from_json(text)


def test_normal_form_table_lines():
    text = normal_form_table(nf_sample())
    lines = text.splitlines()
    # one header plus one line per term, aligned columns
    assert len(lines) == 1 + len(nf_sample().terms)
    assert "dag" in lines[0] and "ann" in lines[0] and "coeff" in lines[0]


def test_sequence_round_trip():
    values = [1, 2, 7, 34, 209, 1546, 13327]
    text = sequence_to_json(1, 1, values)
    back = sequence_from_json(text)
    assert back["values"] == values
    assert back["r"] == 1 and back["M"] == 1


def test_sequence_json_large_ints_as_strings():
    values = [117428972441699060660584977]
    d = sequence_to_dict(3, 4, values)
    assert d["values"] == ["117428972441699060660584977"]
    assert sequence_from_json(sequence_to_json(3, 4, values))["values"] == values


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
    tokens = [[str(c) for c in row] for row in rows]
    for given in (rows, tokens):
        assert "".join(iter_poly_rows_json(r, M, given)) == want_json
        assert "".join(iter_poly_rows_table(r, M, given)) == want_table
    # one piece for the head and the tail, one per row between
    assert len(list(iter_poly_rows_json(r, M, tokens))) == n_max + 3
