"""The one report type every identity check returns, and how checks compare.

`IdentityReport` is the record; `_finish` times and closes one from a
check's parameters, mode and first mismatch.  Every exact check compares
two independently built sides through the one exact scan written here:
`_nf_mismatch` finds the first differing entry of two tables (normal
forms, coefficient grids, triangle rows, series), keys from high to low,
tagged with the row it belongs to, and `_rows_mismatch` is its
row-by-row form.  A scaled row (an oracle power times a Taylor
coefficient, a double-dot series' lambda row) is itself a normal form,
so there is no second scan.  The scan decides by equality first: the
exact containers (`NormalForm`, `SeriesQ`) share one layout, int
numerators over one reduced denominator, so two equal ones compare
their ints and end it at once; only unequal tables are read out as
rationals and walked key by key, to name the first mismatch.  The one
numeric check, `hyp-generating-function`, decides on proven rational
enclosures (`normord.hyperreal`) and hands its first failing row to
`_finish` like any other.  The suite drivers and the closed-form checks
build their reports here, through `_finish`, and nowhere else.
"""

from __future__ import annotations

import time
from collections import namedtuple

__all__ = ["IdentityReport"]


class IdentityReport(namedtuple(
        "IdentityReport",
        "identity parameters mode status details elapsed precision tolerance")):
    """Outcome of one identity check over one parameter set.

    mode is "exact" (rational/integer comparison, no tolerance exists)
    or "numeric" (a proven bound judged against a tolerance; precision
    and tolerance are always recorded); status is "pass" or "fail".
    An immutable record; details default to a fresh empty dict.
    """

    __slots__ = ()

    def __new__(cls, identity: str, parameters: dict, mode: str, status: str,
                details: dict | None = None, elapsed: float = 0.0,
                precision: int | None = None, tolerance: str | None = None):
        if mode not in ("exact", "numeric"):
            raise ValueError(f"unknown mode {mode!r}")
        if status not in ("pass", "fail"):
            raise ValueError(f"unknown status {status!r}")
        if mode == "numeric" and (precision is None or tolerance is None):
            raise ValueError("numeric reports must record precision and tolerance")
        return super().__new__(cls, identity, parameters, mode, status,
                               {} if details is None else details, elapsed,
                               precision, tolerance)

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        out = {
            "identity": self.identity,
            "parameters": self.parameters,
            "mode": self.mode,
            "status": self.status,
            "details": _jsonable(self.details),
            "elapsed": round(self.elapsed, 6),
        }
        if self.precision is not None:
            out["precision"] = self.precision
        if self.tolerance is not None:
            out["tolerance"] = self.tolerance
        return out


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (int, str, float, bool)) or value is None:
        return value
    return str(value)


def _finish(identity, parameters, mode, t0, mismatch, details=None, *, paths,
            **numctx):
    """Close a check started at perf_counter() t0: it fails iff mismatch is set.

    details open with "paths", the names of the independent paths the
    check compared, and gain a trailing "first_mismatch" unless they
    already hold one; numctx carries the precision and tolerance of a
    numeric check.
    """
    details = {"paths": list(paths), **(details or {})}
    details.setdefault("first_mismatch", mismatch)
    return IdentityReport(
        identity,
        parameters,
        mode,
        "fail" if mismatch is not None else "pass",
        details,
        time.perf_counter() - t0,
        numctx.get("precision"),
        numctx.get("tolerance"),
    )


def _keyed(table) -> dict:
    """A table as a dict: as given, a normal form's terms, or a series' or
    list's entries by index."""
    if isinstance(table, dict):
        return table
    if hasattr(table, "terms"):
        return table.terms
    return dict(enumerate(getattr(table, "coeffs", table)))


def _nf_mismatch(lhs, rhs, at: dict, names=("dag", "ann")):
    """First differing entry of two tables, or None: the one exact scan.

    A table is a dict, a `NormalForm` (read by its `.terms`), a `SeriesQ`
    or a list, the last two keyed by index; a missing key reads 0.  Equal
    tables return at once: two containers are equal when their
    denominators and int numerators are.  Otherwise keys are scanned from
    the highest down, the order in which normal forms print.  The record
    leads with `at`, the row being compared (e.g. {"n": 3}, or {} for a
    table keyed by the row itself), then names the key's parts
    (normal-form terms are keyed (dag, ann); a triangle row or a
    coefficient list takes one name), then "left" and "right".
    """
    if lhs == rhs:
        return None
    lhs, rhs = _keyed(lhs), _keyed(rhs)
    for key in sorted(set(lhs) | set(rhs), reverse=True):
        lv = lhs.get(key, 0)
        rv = rhs.get(key, 0)
        if lv != rv:
            keys = key if isinstance(key, tuple) else (key,)
            return {**at, **dict(zip(names, keys)), "left": str(lv), "right": str(rv)}
    return None


def _rows_mismatch(lhs_rows, rhs_rows, tag: str, names=("dag", "ann"), start=0):
    """Compare two row lists row by row: (rows compared, first mismatch).

    Row i is tagged {tag: start + i}; the scan stops at the first row
    that differs.
    """
    checks = 0
    for n, (lhs, rhs) in enumerate(zip(lhs_rows, rhs_rows), start):
        checks += 1
        miss = _nf_mismatch(lhs, rhs, {tag: n}, names)
        if miss is not None:
            return checks, miss
    return checks, None
