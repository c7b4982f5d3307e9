"""The one report type every identity check returns.

`IdentityReport` is the record; `_finish` times and closes one from a
check's parameters, mode and first mismatch; `_nf_mismatch` finds the
first differing entry of two normal forms, tagged with the row it
belongs to.  The suite drivers and the closed-form checks both build
their reports here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["IdentityReport"]


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one identity check over one parameter set.

    mode is "exact" (rational/integer comparison, no tolerance exists),
    "numeric" (high-precision reals; precision and tolerance are always
    recorded), or "informational" (probes that cannot fail the suite).
    """

    identity: str
    parameters: dict
    mode: str
    status: str
    details: dict = field(default_factory=dict)
    elapsed: float = 0.0
    precision: int | None = None
    tolerance: str | None = None

    def __post_init__(self):
        if self.mode not in ("exact", "numeric", "informational"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.status not in ("pass", "fail", "informational"):
            raise ValueError(f"unknown status {self.status!r}")
        if self.mode == "numeric" and (
            self.precision is None or self.tolerance is None
        ):
            raise ValueError("numeric reports must record precision and tolerance")

    @property
    def ok(self) -> bool:
        return self.status != "fail"

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


def _finish(identity, parameters, mode, t0, mismatch, details=None, **numctx):
    """Close a check started at perf_counter() t0: it fails iff mismatch is set.

    details gain a trailing "first_mismatch" unless they already hold one;
    numctx carries the precision and tolerance of a numeric check.
    """
    details = dict(details or {})
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


def _nf_mismatch(lhs, rhs, tag: str, row: int):
    """First differing (dag, ann) entry of two normal forms, or None.

    Entries are scanned from the highest (dag, ann) down, the order in
    which normal forms print; the returned dict leads with {tag: row},
    the row being compared (e.g. "n" or "lambda").
    """
    for key in sorted(set(lhs.terms) | set(rhs.terms), reverse=True):
        lv = lhs.terms.get(key, 0)
        rv = rhs.terms.get(key, 0)
        if lv != rv:
            return {tag: row, "dag": key[0], "ann": key[1],
                    "left": str(lv), "right": str(rv)}
    return None
