"""Deterministic JSON / table / b-file rendering.

All integer payloads are emitted as decimal strings so arbitrarily large
values survive any JSON reader; term lists are sorted by (dag desc,
ann desc) so equal normal forms always serialize to identical bytes.
A normal form's JSON is built from one template per term, the text
json.dumps(..., indent=2) would write.  Polynomial rows reach
`iter_poly_rows_json` and `iter_poly_rows_table` as the triangle cache
hands them out, one line of space-separated decimals per row, and are
written in pieces, one per row, with no entry split out of its line.
Every JSON output here, `seq --number`'s included, is printed from
templates alone, so no command loads `json`, which costs about 2 ms of
a cold start (`verify`'s reports have their own writer,
`suite.reports_to_json`).
"""

from __future__ import annotations

import re

from .series import _pair_str
from .weyl import NormalForm

__all__ = [
    "OEIS_ANNOTATIONS",
    "normal_form_to_dict",
    "normal_form_to_json",
    "normal_form_table",
    "sequence_to_dict",
    "sequence_to_json",
    "sequence_bfile",
    "sequence_table",
    "poly_rows_to_dict",
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


def _coeff_texts(nf: NormalForm):
    """(dag, ann, coefficient text) per term, dag and ann descending: the
    text str() gives the canonical coefficient, printed from the ints."""
    text = str if nf.den == 1 else (lambda a: _pair_str((a, nf.den)))
    return ((dag, ann, text(a))
            for (dag, ann), a in sorted(nf.nums.items(), reverse=True))


def normal_form_to_json(nf: NormalForm) -> str:
    """json.dumps(normal_form_to_dict(nf), indent=2), one f-string per term.

    Coefficients are decimal ints and "n/d" text, which need no escaping.
    """
    if not nf.nums:
        return '{\n  "terms": [],\n  "order": "dag desc, ann desc"\n}'
    # one join of three parts: the terms' text is copied once more, not twice
    return "".join([
        '{\n  "terms": [',
        ",".join(f'\n    {{\n      "dag": {dag},\n      "ann": {ann},'
                 f'\n      "coeff": "{coeff}"\n    }}'
                 for dag, ann, coeff in _coeff_texts(nf)),
        '\n  ],\n  "order": "dag desc, ann desc"\n}'])


def normal_form_table(nf: NormalForm) -> str:
    """Aligned three-column text rendering, same order as the JSON."""
    rows = [("dag", "ann", "coeff")]
    for dag, ann, coeff in _coeff_texts(nf):
        rows.append((str(dag), str(ann), coeff))
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


def sequence_to_json(r: int, M: int, values) -> str:
    """json.dumps(sequence_to_dict(r, M, values), indent=2), from a template.

    The values are quoted decimals, which need no escaping.
    """
    tag = OEIS_ANNOTATIONS.get((r, M))
    oeis = "" if tag is None else f'\n  "oeis": "{tag}",'
    entries = [f'"{int(v)}"' for v in values]
    body = "[\n    " + ",\n    ".join(entries) + "\n  ]" if entries else "[]"
    # the metadata members in _metadata's order, then "kind" and "values"
    return (f'{{\n  "r": {r},\n  "M": {M},\n  "offset": 0,{oeis}'
            f'\n  "kind": "number",\n  "values": {body}\n}}')


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


def iter_poly_rows_json(r: int, M: int, lines):
    """json.dumps(poly_rows_to_dict(r, M, rows), indent=2), in pieces, from row lines.

    lines is read once, one row per piece, so it may be an iterator such
    as load_triangle's rows; it is non-empty.  A line is a row's entries
    in canonical decimal, one space apart, as the triangle cache holds
    it; decimals need no escaping, so each space becomes the text between
    two quoted entries and the line is never split.  One piece per row
    keeps a large triangle's output from being held as one string.
    """
    tag = OEIS_ANNOTATIONS.get((r, M))
    oeis = "" if tag is None else f'\n  "oeis": "{tag}",'
    # the metadata members in _metadata's order, then "kind" and "rows"
    yield f'{{\n  "r": {r},\n  "M": {M},\n  "offset": 0,{oeis}\n  "kind": "poly",\n  "rows": ['
    sep = "\n    "
    for line in lines:
        yield sep + '[\n      "' + line.replace(" ", '",\n      "') + '"\n    ]'
        sep = ",\n    "
    yield "\n  ]\n}"


def iter_poly_rows_table(r: int, M: int, lines):
    """The coefficient rows as text, in pieces: the header, then one per row.

    lines holds each row's entries one space apart, as load_triangle
    yields them.  Row n reads "n: " and its line; pieces after the
    header begin with their newline, and the text ends without one.
    """
    yield f"# r={r} M={M} coefficient rows (x^0 .. x^(M*n))"
    for n, line in enumerate(lines):
        yield f"\n{n}: " + line
