"""Arbitrary-precision decimal reals on top of the stdlib `decimal` module.

Provides what the numeric checks need: exact rationals rounded to a
working precision, exp at a rational argument, arithmetic, and
comparisons that always go through an explicit tolerance.  There is no
float anywhere.
"""

from __future__ import annotations

import decimal
from decimal import Decimal, localcontext
from fractions import Fraction

from .series import _canonical

__all__ = ["HighPrecReal"]

_GUARD = 15  # extra working digits inside every kernel


def _ctx(prec: int) -> decimal.Context:
    return decimal.Context(prec=prec)


def fraction_to_decimal(q: Fraction, prec: int) -> Decimal:
    with localcontext(_ctx(prec + _GUARD)):
        return +(Decimal(q.numerator) / Decimal(q.denominator))


def exp_decimal(x: Decimal, prec: int) -> Decimal:
    with localcontext(_ctx(prec + _GUARD)):
        r = x.exp()
    with localcontext(_ctx(prec)):
        return +r


class HighPrecReal:
    """Immutable decimal real with an attached working precision.

    Arithmetic carries the minimum precision of the operands; comparisons
    are tolerance-explicit (`agrees_with`), never exact equality on digits.
    """

    __slots__ = ("value", "prec")

    def __init__(self, value, prec: int = 50):
        if prec < 1:
            raise ValueError("precision must be positive")
        if isinstance(value, HighPrecReal):
            value = value.value
        if isinstance(value, (int, Fraction)):
            # an int is rounded exactly as the equal Fraction is
            value = fraction_to_decimal(value, prec)
        elif isinstance(value, str):
            value = Decimal(value)
        elif not isinstance(value, Decimal):
            raise TypeError(f"unsupported value type {type(value).__name__}")
        self.value: Decimal = value
        self.prec: int = prec

    @classmethod
    def exp_of(cls, q, prec: int = 50) -> "HighPrecReal":
        x = fraction_to_decimal(_canonical(q), prec)
        return cls(exp_decimal(x, prec), prec)

    def _binop(self, other, fn) -> "HighPrecReal":
        if not isinstance(other, HighPrecReal):
            other = HighPrecReal(other, self.prec)
        prec = min(self.prec, other.prec)
        with localcontext(_ctx(prec + _GUARD)):
            out = fn(self.value, other.value)
        return HighPrecReal(out, prec)

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    def __radd__(self, other):
        return HighPrecReal(other, self.prec) + self

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return HighPrecReal(other, self.prec) - self

    def __mul__(self, other):
        return self._binop(other, lambda a, b: a * b)

    def __rmul__(self, other):
        return HighPrecReal(other, self.prec) * self

    def __truediv__(self, other):
        return self._binop(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return HighPrecReal(other, self.prec) / self

    def __neg__(self):
        return HighPrecReal(-self.value, self.prec)

    def __abs__(self):
        return HighPrecReal(abs(self.value), self.prec)

    def exp(self) -> "HighPrecReal":
        return HighPrecReal(exp_decimal(self.value, self.prec), self.prec)

    def is_zero_within(self, tol) -> bool:
        return abs(self.value) <= fraction_to_decimal(_canonical(tol), self.prec)

    def agrees_with(self, other, rel_tol) -> bool:
        """Relative agreement within rel_tol (absolute when other is ~0)."""
        if not isinstance(other, HighPrecReal):
            other = HighPrecReal(other, self.prec)
        tol = fraction_to_decimal(_canonical(rel_tol), self.prec)
        with localcontext(_ctx(min(self.prec, other.prec) + _GUARD)):
            diff = abs(self.value - other.value)
            scale = max(abs(other.value), Decimal(1))
            return diff <= tol * scale

    def rel_deviation(self, other) -> Decimal:
        if not isinstance(other, HighPrecReal):
            other = HighPrecReal(other, self.prec)
        with localcontext(_ctx(min(self.prec, other.prec) + _GUARD)):
            diff = abs(self.value - other.value)
            scale = max(abs(other.value), Decimal(1))
            return +(diff / scale)

    def __repr__(self) -> str:
        return f"HighPrecReal({self.value}, prec={self.prec})"

    def __str__(self) -> str:
        return str(self.value)
