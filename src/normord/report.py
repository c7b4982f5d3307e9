"""The one report type every identity check returns, and how checks compare.

`IdentityReport` is the record; `_finish` times and closes one from a
check's parameters, mode and first mismatch.  Every check compares two
independently built sides through one of two paths written here:
`_nf_mismatch` is the one exact scan, the first differing entry of two
keyed tables (normal-form terms, coefficient grids, triangle rows), keys
from high to low, tagged with the row it belongs to, and
`_rows_mismatch` is its row-by-row form; `DeviationTally` is the one
numeric comparison, which keeps the worst relative and absolute
deviation and the first pair outside tolerance.  The suite drivers and
the closed-form checks build their reports here, through `_finish`, and
nowhere else.
"""

from __future__ import annotations

import time
from collections import namedtuple

from .hyperreal import HighPrecReal
from .series import _canonical

__all__ = ["IdentityReport"]


class IdentityReport(namedtuple(
        "IdentityReport",
        "identity parameters mode status details elapsed precision tolerance")):
    """Outcome of one identity check over one parameter set.

    mode is "exact" (rational/integer comparison, no tolerance exists)
    or "numeric" (high-precision reals; precision and tolerance are
    always recorded); status is "pass" or "fail".
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


def _differences(lhs, rhs):
    """(key, left, right) for each key where two keyed tables differ.

    A table is a dict or anything holding one as `.terms` (a NormalForm);
    a missing key reads 0.  Keys are scanned from the highest down, the
    order in which normal forms print.
    """
    lhs = getattr(lhs, "terms", lhs)
    rhs = getattr(rhs, "terms", rhs)
    for key in sorted(set(lhs) | set(rhs), reverse=True):
        lv = lhs.get(key, 0)
        rv = rhs.get(key, 0)
        if lv != rv:
            yield key, lv, rv


def _where(at: dict, names, key) -> dict:
    keys = key if isinstance(key, tuple) else (key,)
    return {**at, **dict(zip(names, keys))}


def _nf_mismatch(lhs, rhs, at: dict, names=("dag", "ann")):
    """First differing entry of two keyed tables, or None: the one exact scan.

    The record leads with `at`, the row being compared (e.g. {"n": 3},
    or {} for a table keyed by the row itself), then names the key's
    parts (normal-form terms are keyed (dag, ann); a triangle row or a
    coefficient list {k: v} takes one name), then "left" and "right".
    """
    for key, lv, rv in _differences(lhs, rhs):
        return {**_where(at, names, key), "left": str(lv), "right": str(rv)}
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


class DeviationTally:
    """The one numeric comparison: worst deviations and the first disagreement.

    Each pair is judged by `HighPrecReal.agrees_with` at the tolerance;
    the tally keeps the worst relative and absolute deviation over all
    pairs and the record of the first pair that does not agree.  Rational
    pairs that are exactly equal deviate by nothing and are not converted;
    with no deviating pair both worsts read "0".
    """

    def __init__(self, precision: int, tolerance):
        self.precision = precision
        self.tolerance = _canonical(tolerance)
        self.first = None
        self._rel = None
        self._abs = None

    def add(self, left, right, at: dict) -> None:
        """Compare one pair; a first disagreement is recorded as {**at, left, right}."""
        cl, cr = left, right
        if not isinstance(left, HighPrecReal):
            if left == right:
                return
            cl = HighPrecReal(left, self.precision)
            cr = HighPrecReal(right, self.precision)
        rel = cl.rel_deviation(cr)
        dev = abs(cl - cr).value
        if self._rel is None or rel > self._rel:
            self._rel = rel
        if self._abs is None or dev > self._abs:
            self._abs = dev
        if self.first is None and not cl.agrees_with(cr, self.tolerance):
            self.first = {**at, "left": str(left), "right": str(right)}

    def compare(self, lhs, rhs, at: dict, names=("dag", "ann")) -> None:
        """Add every differing entry of two keyed tables (see `_nf_mismatch`)."""
        for key, lv, rv in _differences(lhs, rhs):
            self.add(lv, rv, _where(at, names, key))

    @property
    def max_rel_dev(self) -> str:
        return "0" if self._rel is None else str(self._rel)

    @property
    def max_abs_dev(self) -> str:
        return "0" if self._abs is None else str(self._abs)
