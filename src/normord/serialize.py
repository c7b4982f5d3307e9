"""Deterministic JSON / table / b-file rendering and the inverse parsers.

All integer payloads are emitted as decimal strings so arbitrarily large
values survive any JSON reader; term lists are sorted by (dag desc,
ann desc) so equal normal forms always serialize to identical bytes.
Polynomial rows take ints or their decimal tokens (as the triangle cache
returns them) and are written in pieces, one per row, by
`iter_poly_rows_json` and `iter_poly_rows_table`.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .weyl import NormalForm

__all__ = [
    "OEIS_ANNOTATIONS",
    "normal_form_to_dict",
    "normal_form_to_json",
    "normal_form_from_dict",
    "normal_form_from_json",
    "normal_form_table",
    "sequence_to_dict",
    "sequence_to_json",
    "sequence_from_json",
    "sequence_bfile",
    "sequence_table",
    "poly_rows_to_dict",
    "poly_rows_from_dict",
    "iter_poly_rows_json",
    "iter_poly_rows_table",
]

# Static catalogue associations for the weight-one expectation sequences;
# recorded as annotations only, nothing is ever fetched.
OEIS_ANNOTATIONS = {(1, 1): "A002720", (1, 2): "A069948", (2, 1): "A121629"}

_BFILE_LINE = re.compile(r"^\d+ \d+$")


def normal_form_to_dict(nf: NormalForm) -> dict:
    terms = [
        {"dag": dag, "ann": ann, "coeff": str(coeff)}
        for (dag, ann), coeff in sorted(nf.terms.items(), reverse=True)
    ]
    return {"terms": terms, "order": "dag desc, ann desc"}


def normal_form_to_json(nf: NormalForm, indent: int | None = 2) -> str:
    return json.dumps(normal_form_to_dict(nf), indent=indent)


def normal_form_from_dict(data: dict) -> NormalForm:
    terms = {}
    for entry in data["terms"]:
        key = (int(entry["dag"]), int(entry["ann"]))
        if key in terms:
            raise ValueError(f"duplicate term {key}")
        terms[key] = Fraction(entry["coeff"])
    return NormalForm(terms)


def normal_form_from_json(text: str) -> NormalForm:
    return normal_form_from_dict(json.loads(text))


def normal_form_table(nf: NormalForm) -> str:
    """Aligned three-column text rendering, same order as the JSON."""
    rows = [("dag", "ann", "coeff")]
    for (dag, ann), coeff in sorted(nf.terms.items(), reverse=True):
        rows.append((str(dag), str(ann), str(coeff)))
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    return "\n".join(
        "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        for row in rows
    )


def _metadata(r: int, M: int) -> dict:
    meta = {"r": r, "M": M, "offset": 0}
    tag = OEIS_ANNOTATIONS.get((r, M))
    if tag is not None:
        meta["oeis"] = tag
    return meta


def sequence_to_dict(r: int, M: int, values) -> dict:
    out = _metadata(r, M)
    out["kind"] = "number"
    out["values"] = [str(int(v)) for v in values]
    return out


def sequence_to_json(r: int, M: int, values, indent: int | None = 2) -> str:
    return json.dumps(sequence_to_dict(r, M, values), indent=indent)


def sequence_from_json(text: str) -> dict:
    data = json.loads(text)
    if data.get("kind") == "poly":
        return poly_rows_from_dict(data)
    data["values"] = [int(v) for v in data["values"]]
    return data


def sequence_bfile(values) -> str:
    """OEIS-style b-file body: `n value` per line, n starting at 0."""
    lines = []
    for n, v in enumerate(values):
        iv = int(v)
        # int() would silently truncate a fractional value
        if iv != v:
            raise ValueError(f"value at n={n} is not an integer")
        line = f"{n} {iv}"
        if not _BFILE_LINE.match(line):
            raise ValueError(f"value at n={n} is not a nonnegative integer")
        lines.append(line)
    return "\n".join(lines) + "\n"


def sequence_table(r: int, M: int, values) -> str:
    header = f"# r={r} M={M}"
    tag = OEIS_ANNOTATIONS.get((r, M))
    if tag is not None:
        header += f" ({tag})"
    width = max(len(str(len(values) - 1)), 1)
    body = "\n".join(f"{n:>{width}}  {int(v)}" for n, v in enumerate(values))
    return header + "\n" + body


def poly_rows_to_dict(r: int, M: int, rows) -> dict:
    """Polynomial rows: row n lists the x^k coefficients, k = 0..M*n."""
    out = _metadata(r, M)
    out["kind"] = "poly"
    out["rows"] = [[str(int(c)) for c in row] for row in rows]
    return out


def poly_rows_from_dict(data: dict) -> dict:
    data = dict(data)
    data["rows"] = [[int(c) for c in row] for row in data["rows"]]
    return data


def iter_poly_rows_json(r: int, M: int, rows):
    """The text of json.dumps(poly_rows_to_dict(r, M, rows), indent=2), in pieces.

    rows and each row are non-empty, as load_triangle returns them.
    Entries are ints or canonical decimal tokens, which need no escaping;
    each token is quoted as it is, so a token row is written with no
    conversion.  One piece per row keeps a large triangle's output from
    being held as one string.
    """
    head = _metadata(r, M)
    head["kind"] = "poly"
    # the metadata object, reopened after its last member for "rows"
    yield json.dumps(head, indent=2)[:-2] + ',\n  "rows": ['
    sep = "\n    "
    for row in rows:
        yield sep + '[\n      "' + '",\n      "'.join(map(str, row)) + '"\n    ]'
        sep = ",\n    "
    yield "\n  ]\n}"


def iter_poly_rows_table(r: int, M: int, rows):
    """The coefficient rows as text, in pieces: the header, then one per row.

    Row n reads "n: " and its entries, one space apart; pieces after the
    header begin with their newline, and the text ends without one.
    """
    yield f"# r={r} M={M} coefficient rows (x^0 .. x^(M*n))"
    for n, row in enumerate(rows):
        yield f"\n{n}: " + " ".join(map(str, row))
