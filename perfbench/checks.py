"""Output checks, each against a path independent of the one being timed.

- verify: exit code 0, the expected report count, no `fail` status, and
  the Bell totals the reports quote equal the operator-power fold.
- seq: a hit prints the same bytes as its miss; every row n of a miss
  equals the coefficients of D(r,M)^n (or their sum) built by the
  `nf_mul` fold, which never touches the alternating-sum kernel that
  builds the triangle.
- order: the normal form (or its coherent expectation) equals the
  single-letter contraction fold `word_product_normal_form`, which never
  touches the rewriting kernel.

The parsers here read the CLI's text formats directly; they do not use
normord's own deserializers.
"""

from __future__ import annotations

import json
from fractions import Fraction

from normord.weyl import (
    NormalForm,
    laguerre_derivative_nf,
    laguerre_derivative_word,
    word_product_normal_form,
)

# Reports printed by `verify all` with the default grid.
VERIFY_ALL_REPORTS = 85
# `verify stirling-expansion` sweeps r and M over 1..3 each.
STIRLING_GRID = tuple((r, M) for r in (1, 2, 3) for M in (1, 2, 3))


class Oracle:
    """Reference values, memoised so each is built once per run."""

    def __init__(self):
        self._powers: dict = {}
        self._words: dict = {}

    def power(self, r: int, M: int, n: int) -> NormalForm:
        """D(r,M)^n by the nf_mul fold of the rewritten single factor."""
        powers = self._powers.setdefault((r, M), [NormalForm.one()])
        if len(powers) <= n:
            d = laguerre_derivative_nf(r, M)
            while len(powers) <= n:
                powers.append(powers[-1] * d)
        return powers[n]

    def row(self, r: int, M: int, n: int) -> list:
        """Triangle row n: coefficient of (ad)^k a^(k+rn), k = 0..M*n."""
        terms = self.power(r, M, n).terms
        return [int(terms.get((k, k + r * n), 0)) for k in range(M * n + 1)]

    def word(self, word) -> dict:
        key = tuple(word)
        if key not in self._words:
            self._words[key] = dict(word_product_normal_form(key).terms)
        return self._words[key]


def check(req: dict, code: int, out: bytes, oracle: Oracle) -> str | None:
    """None when the output is right, else a one-line reason."""
    if code != 0:
        return f"exit code {code}"
    try:
        return _CHECKERS[req["kind"]](req, out.decode(), oracle)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"


def _verify_reports(req, text, oracle):
    reports = json.loads(text)
    expected = {"verify-all": VERIFY_ALL_REPORTS, "verify-graphs": 1,
                "verify-stirling": len(STIRLING_GRID)}[req["kind"]]
    if len(reports) != expected:
        return f"{len(reports)} reports, expected {expected}"
    failed = [rep["identity"] for rep in reports if rep["status"] == "fail"]
    if failed:
        return f"failed identities: {', '.join(failed)}"
    if req["kind"] == "verify-graphs":
        params = {"r": req["r"], "M": req["M"], "n_max": req["n"]}
        if reports[0]["parameters"] != params:
            return f"report for {reports[0]['parameters']}, expected {params}"
        return _bell_values(reports[0], "totals", req["r"], req["M"],
                            req["n"], oracle)
    if req["kind"] == "verify-stirling":
        for rep in reports:
            p = rep["parameters"]
            if p["n_max"] != req["n"]:
                return f"report for n_max={p['n_max']}, expected {req['n']}"
            bad = _bell_values(rep, "bell_values", p["r"], p["M"], req["n"],
                               oracle)
            if bad:
                return bad
    return None


def _bell_values(report, field, r, M, n, oracle):
    got = [int(v) for v in report["details"][field]]
    want = [sum(oracle.row(r, M, k)) for k in range(1, n + 1)]
    if got != want:
        return f"{field} for r={r} M={M} differ from the power fold"
    return None


def parse_seq(fmt: str, text: str) -> list:
    """Per row n: its coefficient tokens (poly formats) or its value token."""
    if fmt == "poly-json":
        return json.loads(text)["rows"]
    lines = text.splitlines()
    if fmt in ("poly-table", "number-table"):
        lines = lines[1:]  # header
    rows = []
    for n, line in enumerate(lines):
        label, value = line.split(": ", 1) if fmt == "poly-table" else line.split()
        if int(label) != n:
            raise ValueError(f"row label {label} at row {n}")
        rows.append(value.split(" ") if fmt == "poly-table" else value)
    return rows


def _seq(req, text, oracle):
    r, M, n = req["r"], req["M"], req["n"]
    rows = parse_seq(req["fmt"], text)
    if len(rows) != n + 1:
        return f"{len(rows)} rows, expected {n + 1}"
    poly = req["fmt"].startswith("poly")
    if poly and any(len(row) != M * k + 1 for k, row in enumerate(rows)):
        return "a row has the wrong width"
    for k in range(n + 1):
        want = oracle.row(r, M, k)
        got = [int(c) for c in rows[k]] if poly else int(rows[k])
        if got != (want if poly else sum(want)):
            return f"row {k} differs from the power fold"
    return None


def parse_normal_form(fmt: str, text: str) -> dict:
    if fmt == "json":
        terms = json.loads(text)["terms"]
        return {(t["dag"], t["ann"]): Fraction(t["coeff"]) for t in terms}
    lines = text.splitlines()
    if lines[0].split() != ["dag", "ann", "coeff"]:
        raise ValueError("missing table header")
    out = {}
    for line in lines[1:]:
        dag, ann, coeff = line.split()
        out[(int(dag), int(ann))] = Fraction(coeff)
    return out


def parse_complex(text: str) -> tuple:
    """Inverse of the CLI's `RE`, `RE + IMi` and `RE - IMi` spellings."""
    parts = text.strip().split(" ")
    if len(parts) == 1:
        return Fraction(parts[0]), Fraction(0)
    re_part, sign, im_part = parts
    if sign not in "+-" or not im_part.endswith("i"):
        raise ValueError(f"not a complex value: {text!r}")
    im = Fraction(im_part[:-1])
    return Fraction(re_part), im if sign == "+" else -im


def coherent_expectation(terms: dict, z: str) -> tuple:
    """sum c * conj(z)^dag * z^ann for z given as `RE,IM`."""
    zr, zi = (Fraction(part) for part in z.split(","))
    total = (Fraction(0), Fraction(0))
    for (dag, ann), c in terms.items():
        a = _cpow(zr, -zi, dag)
        b = _cpow(zr, zi, ann)
        total = (total[0] + c * (a[0] * b[0] - a[1] * b[1]),
                 total[1] + c * (a[0] * b[1] + a[1] * b[0]))
    return total


def _cpow(re, im, n):
    out = (Fraction(1), Fraction(0))
    for _ in range(n):
        out = (out[0] * re - out[1] * im, out[0] * im + out[1] * re)
    return out


def _order(req, text, oracle):
    if req["kind"] == "order-word":
        word = req["word"]
    else:
        word = laguerre_derivative_word(req["r"], req["M"]) * req["p"]
    want = oracle.word(word)
    if req["fmt"] == "expectation":
        if parse_complex(text) != coherent_expectation(want, req["z"]):
            return "expectation differs from the contraction fold"
        return None
    if parse_normal_form(req["fmt"], text) != want:
        return "normal form differs from the contraction fold"
    return None


_CHECKERS = {
    "verify-all": _verify_reports,
    "verify-graphs": _verify_reports,
    "verify-stirling": _verify_reports,
    "seq": _seq,
    "order-word": _order,
    "order-power": _order,
}

