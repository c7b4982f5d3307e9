"""Arbitrary-precision decimal reals on top of the stdlib `decimal` module.

Provides the few transcendental values the closed-form checks need: pi,
the gamma function at rational arguments, square roots, and exp.  All
comparisons go through explicit tolerances; there is no float anywhere.

Gamma strategy: reduce to the fundamental strip s in [1,2) by Pochhammer
shifts (and the reflection formula for negative arguments), then evaluate
the lower incomplete gamma series

    gamma(s, R) = R^s e^{-R} sum_{n>=0} R^n / (s(s+1)...(s+n))

with R large enough that the discarded upper tail Gamma(s,R) ~ e^{-R} is
below the working precision.  All series terms are positive, so there is
no cancellation and the working precision only needs a fixed guard.
pi and the core gamma values are memoised per (argument, precision) in
bounded caches; Decimals are immutable, so sharing them is safe.
"""

from __future__ import annotations

import decimal
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

from .series import _canonical

__all__ = ["HighPrecReal", "pi_decimal", "gamma_fraction", "sqrt_decimal"]

_GUARD = 15  # extra working digits inside every kernel


def _ctx(prec: int) -> decimal.Context:
    return decimal.Context(prec=prec)


def fraction_to_decimal(q: Fraction, prec: int) -> Decimal:
    with localcontext(_ctx(prec + _GUARD)):
        return +(Decimal(q.numerator) / Decimal(q.denominator))


def pi_decimal(prec: int) -> Decimal:
    """pi to `prec` significant digits (the classic decimal recipe)."""
    # a plain function over the cached core, so span tracers that wrap
    # module functions still see every call
    return _pi_core(prec)


@lru_cache(maxsize=64)
def _pi_core(prec: int) -> Decimal:
    with localcontext(_ctx(prec + _GUARD)):
        three = Decimal(3)
        lasts, t, s, n, na, d, da = Decimal(0), three, Decimal(3), 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    with localcontext(_ctx(prec)):
        return +s


def sqrt_decimal(x: Decimal, prec: int) -> Decimal:
    with localcontext(_ctx(prec + _GUARD)):
        r = x.sqrt()
    with localcontext(_ctx(prec)):
        return +r


def exp_decimal(x: Decimal, prec: int) -> Decimal:
    with localcontext(_ctx(prec + _GUARD)):
        r = x.exp()
    with localcontext(_ctx(prec)):
        return +r


def _sin_pi_fraction(q: Fraction, prec: int) -> Decimal:
    """sin(pi*q) for rational q, by exact range reduction then Taylor."""
    # sin(pi q) has period 2 and sin(pi(1-q)) = sin(pi q): fold q into [0, 1/2]
    q = q - 2 * (q.numerator // (2 * q.denominator))  # q mod 2, in [0,2)
    sign = 1
    if q > 1:
        q = q - 1
        sign = -1
    if q > Fraction(1, 2):
        q = 1 - q
    if q == 0:
        return Decimal(0)
    with localcontext(_ctx(prec + _GUARD)):
        theta = pi_decimal(prec + _GUARD) * Decimal(q.numerator) / Decimal(q.denominator)
        term = theta
        total = theta
        t2 = theta * theta
        k = 1
        while True:
            term = -term * t2 / ((2 * k) * (2 * k + 1))
            new = total + term
            if new == total:
                break
            total = new
            k += 1
    with localcontext(_ctx(prec)):
        return +(sign * total)


@lru_cache(maxsize=256)
def _gamma_core(s: Fraction, prec: int) -> Decimal:
    """Gamma(s) for s in [1,2), via the lower incomplete gamma series."""
    assert 1 <= s < 2
    work = prec + 2 * _GUARD
    # tail Gamma(s,R) <= 2 R^{s-1} e^{-R}; R = ceil(ln(10)*(work+5)) kills it
    R = int(2.302585092994046 * (work + 5)) + 1
    with localcontext(_ctx(work)):
        sd = Decimal(s.numerator) / Decimal(s.denominator)
        Rd = Decimal(R)
        # sum_{n>=0} R^n / ((s)(s+1)...(s+n)); positive terms, no cancellation
        term = Decimal(1) / sd
        total = term
        n = 1
        while True:
            term = term * Rd / (sd + n)
            new = total + term
            if new == total:
                break
            total = new
            n += 1
        # R^s = exp(s ln R)
        rs = (sd * Rd.ln()).exp()
        out = rs * (-Rd).exp() * total
    with localcontext(_ctx(prec)):
        return +out


def gamma_fraction(q: Fraction, prec: int) -> Decimal:
    """Gamma at an exact rational argument, to `prec` significant digits."""
    q = Fraction(q)
    if q.denominator == 1:
        n = q.numerator
        if n <= 0:
            raise ValueError(f"gamma pole at non-positive integer {n}")
        out = 1
        for i in range(2, n):
            out *= i
        with localcontext(_ctx(prec)):
            return +Decimal(out)
    if q < 0:
        # reflection: Gamma(q) = pi / (sin(pi q) * Gamma(1-q))
        with localcontext(_ctx(prec + _GUARD)):
            s = _sin_pi_fraction(q, prec + _GUARD)
            g = gamma_fraction(1 - q, prec + _GUARD)
            out = pi_decimal(prec + _GUARD) / (s * g)
        with localcontext(_ctx(prec)):
            return +out
    # shift into [1,2): Gamma(q) = Gamma(s) * prod of the intermediate factors
    work = prec + _GUARD
    shifts: list[Fraction] = []
    s = q
    while s >= 2:
        s -= 1
        shifts.append(s)  # Gamma(s+1) = s*Gamma(s)
    divisors: list[Fraction] = []
    while s < 1:
        divisors.append(s)  # Gamma(s) = Gamma(s+1)/s
        s += 1
    core = _gamma_core(s, work)
    with localcontext(_ctx(work)):
        out = core
        for f in shifts:
            out *= Decimal(f.numerator) / Decimal(f.denominator)
        for f in divisors:
            out /= Decimal(f.numerator) / Decimal(f.denominator)
    with localcontext(_ctx(prec)):
        return +out


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
    def pi(cls, prec: int = 50) -> "HighPrecReal":
        return cls(pi_decimal(prec), prec)

    @classmethod
    def gamma(cls, q, prec: int = 50) -> "HighPrecReal":
        return cls(gamma_fraction(_canonical(q), prec), prec)

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

    def pow_int(self, n: int) -> "HighPrecReal":
        with localcontext(_ctx(self.prec + _GUARD)):
            out = self.value ** n
        return HighPrecReal(out, self.prec)

    def sqrt(self) -> "HighPrecReal":
        return HighPrecReal(sqrt_decimal(self.value, self.prec), self.prec)

    def exp(self) -> "HighPrecReal":
        return HighPrecReal(exp_decimal(self.value, self.prec), self.prec)

    def is_zero_within(self, tol) -> bool:
        return abs(self.value) <= fraction_to_decimal(Fraction(tol), self.prec)

    def agrees_with(self, other, rel_tol) -> bool:
        """Relative agreement within rel_tol (absolute when other is ~0)."""
        if not isinstance(other, HighPrecReal):
            other = HighPrecReal(other, self.prec)
        tol = fraction_to_decimal(Fraction(rel_tol), self.prec)
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
