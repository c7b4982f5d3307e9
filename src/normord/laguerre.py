"""Operational calculus for D_x(r,M) = (d/dx)^r (x d/dx)^M on exact series.

The monomial action is x^p -> p(p-1)...(p-r+1) * p^M * x^{p-r}.  On top of
that sit the columns Dx^m(s)/m! of exp(lambda D_x) s, the eigenfunction
series, the Sheffer-type closed form of exp(lambda D(r,1)) in normally
ordered form, and the exponential generating function of the r-row Bell
numbers.

`DotSeries` is the engine for double-dot expressions: a series in lambda
whose coefficients are words in which the creator and annihilator are
treated as commuting symbols.  Expanding a double-dot closed form with it
and reading off a lambda coefficient yields a NormalForm directly, which
is what lets the closed forms be compared against the rewriting oracle.
A `DotSeries` and a `NormalForm` share one layout, int numerators over
one reduced denominator, so `lambda_rows` reads every lambda power out in
one pass of ints, and builds no rational.
"""

from __future__ import annotations

from collections import namedtuple
from math import lcm

from .series import (
    SeriesQ,
    _pair,
    _ratios,
    _reduce,
    _to_one_den,
    factorial,
    falling_factorial,
    phyperq_series,
    series_binpow,
    series_exp,
)
from .weyl import NormalForm

__all__ = [
    "DxOperator",
    "apply_Dx",
    "exp_lambda_Dx_columns",
    "eigenfunction_series",
    "exp_D_r1_normal_form",
    "egf_bell_r1",
    "DotSeries",
]


class DxOperator(namedtuple("DxOperator", "r M")):
    """D_x(r, M) for r >= 1, M >= 0; an immutable (r, M) record."""

    __slots__ = ()

    def __new__(cls, r: int, M: int):
        if r < 1 or M < 0:
            raise ValueError("need r >= 1 and M >= 0")
        return super().__new__(cls, r, M)


def apply_Dx(op: DxOperator, s: SeriesQ) -> SeriesQ:
    """One application; the truncation order drops by r."""
    r, M = op.r, op.M
    return SeriesQ._from_ints(
        max(s.order - r, 0),
        [a * falling_factorial(p, r) * p**M for p, a in enumerate(s.nums[r:], r)],
        s.den)


def exp_lambda_Dx_columns(op: DxOperator, s: SeriesQ, m_max: int) -> list:
    """[Dx^m(s)/m! for m = 0..m_max], each at its own maximal x-order."""
    cols = [s]
    t = s
    for m in range(1, m_max + 1):
        t = apply_Dx(op, t)
        # t / m!, in ints: the denominator takes the m!
        cols.append(SeriesQ._from_ints(t.order, t.nums, t.den * factorial(m)))
    return cols


def eigenfunction_series(r: int, M: int, order: int) -> SeriesQ:
    """The eigenfunction of D_x(r,M) with eigenvalue 1 and E(0)=1.

    A 0F_{M+r-1} with lower parameters [1/r, ..., (r-1)/r] + [1]*M at
    argument x^r / r^{r+M}, written out as a series in x.
    """
    if r < 1 or M < 0:
        raise ValueError("need r >= 1 and M >= 0")
    if order < 1:
        raise ValueError("order must be >= 1")
    lower = [(j, r) for j in range(1, r)] + [1] * M  # j/r as int pairs
    m_max = (order + r - 1) // r
    f = phyperq_series([], lower, m_max)
    # x^(r m) carries f_m / denom^m, over the last denominator f.den denom^(m_max-1)
    denom = r ** (r + M)
    out = [0] * order
    for m, a in enumerate(f.nums):
        out[r * m] = a * denom ** (m_max - 1 - m)
    return SeriesQ._from_ints(order, out, f.den * denom ** (m_max - 1))


class DotSeries:
    """lambda-series with double-dot word coefficients.

    Stored as `nums`, {(n, dag, ann): nonzero int} standing for
    lambda^n :ad^dag a^ann:, over one reduced int denominator `den`, the
    layout of `series.SeriesQ` and `weyl.NormalForm`; `terms` reads the
    coefficients out once, canonical (`series._canonical`).  No power is
    negative.  Inside double dots the two symbols commute, so products
    just add exponents; `order` is exclusive in lambda.
    """

    __slots__ = ("order", "nums", "den", "_terms")

    def __init__(self, order: int, terms=None):
        if order < 0:
            raise ValueError("order must be >= 0")
        kept = {key: c for key, c in (terms or {}).items() if key[0] < order}
        nums, den = _to_one_den(kept.values())
        for key, a in zip(kept, nums):
            if a and min(key) < 0:
                raise ValueError(f"negative power in key {key}")
        self._set(order, dict(zip(kept, nums)), den)

    @classmethod
    def _from_ints(cls, order: int, nums: dict, den: int) -> "DotSeries":
        """nums / den, reduced, zero entries dropped; every key below order."""
        out = object.__new__(cls)
        out._set(order, nums, den)
        return out

    def _set(self, order: int, nums: dict, den: int) -> None:
        nums = {key: a for key, a in nums.items() if a}
        vals, reduced = _reduce(nums.values(), den)
        if reduced != den:
            nums, den = dict(zip(nums, vals)), reduced
        self.order = order
        self.nums = nums
        self.den = den
        self._terms = None

    @property
    def terms(self) -> dict:
        if self._terms is None:
            self._terms = dict(zip(self.nums, _ratios(self.nums.values(), self.den)))
        return self._terms

    @classmethod
    def one(cls, order: int) -> "DotSeries":
        return cls(order, {(0, 0, 0): 1})

    @classmethod
    def monomial(cls, order: int, n: int, dag: int, ann: int, coeff=1) -> "DotSeries":
        return cls(order, {(n, dag, ann): coeff})

    @classmethod
    def binpow(cls, order: int, coeff, a_power: int, alpha) -> "DotSeries":
        """(1 + coeff * lambda * a^a_power)^alpha, expanded binomially."""
        if a_power < 0:
            raise ValueError(f"negative power a^{a_power}")
        s = series_binpow(coeff, alpha, order)
        return cls._from_ints(
            order, {(k, 0, a_power * k): a for k, a in enumerate(s.nums)}, s.den)

    def __add__(self, other: "DotSeries") -> "DotSeries":
        n = min(self.order, other.order)
        den = lcm(self.den, other.den)
        f, g = den // self.den, den // other.den
        out = {k: a * f for k, a in self.nums.items() if k[0] < n}
        for k, a in other.nums.items():
            if k[0] < n:
                out[k] = out.get(k, 0) + a * g
        return DotSeries._from_ints(n, out, den)

    def __sub__(self, other: "DotSeries") -> "DotSeries":
        return self + other.scale(-1)

    def scale(self, c) -> "DotSeries":
        num, den = _pair(c)
        return DotSeries._from_ints(
            self.order, {k: a * num for k, a in self.nums.items()}, self.den * den)

    def __mul__(self, other: "DotSeries") -> "DotSeries":
        n = min(self.order, other.order)
        by_power = [[] for _ in range(n)]
        for (n2, k2, l2), b in other.nums.items():
            if n2 < n:
                by_power[n2].append((k2, l2, b))
        out: dict = {}
        get = out.get
        for (n1, k1, l1), a in self.nums.items():
            for m in range(n1, n):
                for k2, l2, b in by_power[m - n1]:
                    key = (m, k1 + k2, l1 + l2)
                    out[key] = get(key, 0) + a * b
        return DotSeries._from_ints(n, out, self.den * other.den)

    def min_lambda_order(self) -> int:
        return min((k[0] for k in self.nums), default=self.order)

    def exp(self) -> "DotSeries":
        """Power-sum exponential; needs every term to carry lambda^1 or higher."""
        m0 = self.min_lambda_order()
        if m0 < 1:
            raise ValueError("exp needs a series with no lambda^0 part")
        kmax = (self.order - 1) // m0
        return self.apply_function(series_exp(SeriesQ.x(kmax + 1)))

    def apply_function(self, taylor) -> "DotSeries":
        """sum_m taylor[m] * self^m, for self with min lambda order >= 1.

        taylor is a `SeriesQ`, read as its int numerators over its one
        denominator, or a sequence of rationals.  Powers past the
        truncation order or past `taylor` are never built; the kept terms
        are summed once, into one int dict over the lcm of their
        denominators times taylor's.
        """
        m0 = self.min_lambda_order()
        if m0 < 1:
            raise ValueError("function application needs lambda^1 or higher")
        nums, t_den = ((taylor.nums, taylor.den) if isinstance(taylor, SeriesQ)
                       else _to_one_den(taylor))
        kmax = min((self.order - 1) // m0, len(nums) - 1)
        parts = []
        power = DotSeries.one(self.order)
        for k in range(kmax + 1):
            if k:
                power = power * self
            if nums[k]:
                parts.append((power, nums[k]))
        den = lcm(*(p.den for p, _ in parts))
        out: dict = {}
        get = out.get
        for p, c in parts:
            f = den // p.den * c
            for key, a in p.nums.items():
                out[key] = get(key, 0) + a * f
        return DotSeries._from_ints(self.order, out, den * t_den)

    def lambda_rows(self) -> list:
        """NormalForms of the lambda^0 .. lambda^(order-1) coefficients.

        One pass over the numerators buckets them by lambda power; each
        bucket, its words read as normally ordered operators over the
        series' one denominator, is one row.
        """
        tables = [{} for _ in range(self.order)]
        for (m, k, l), a in self.nums.items():
            tables[m][(k, l)] = a
        return [NormalForm._from_ints(table, self.den) for table in tables]

    def __repr__(self) -> str:
        return f"DotSeries(order={self.order}, {len(self.terms)} terms)"


def exp_D_r1_normal_form(r: int, n_max: int) -> list:
    """NormalForms of n! * [lambda^n] exp(lambda D(r,1)) for n = 0..n_max.

    Expands the double-dot closed form g(lambda,a) * exp(ad*(T(lambda,a)-a))
    with T = a(1-lambda r a^r)^(-1/r), g = (1-lambda r a^r)^(-1); each
    lambda coefficient must equal the rewriting oracle's [D(r,1)]^n / n!.
    """
    if r < 1 or n_max < 0:
        raise ValueError("need r >= 1 and n_max >= 0")
    order = n_max + 1
    g = DotSeries.binpow(order, -r, r, -1)
    bt = series_binpow(-r, (-1, r), order)
    arg = DotSeries._from_ints(
        order, {(k, 1, r * k + 1): bt.nums[k] for k in range(1, order)}, bt.den)
    full = g * arg.exp()
    return [row.scale(factorial(n)) for n, row in enumerate(full.lambda_rows())]


def egf_bell_r1(r: int, order: int) -> SeriesQ:
    """(1-r*lambda)^(-1) exp((1-r*lambda)^(-1/r) - 1); n![lambda^n] = B_r^(1)(n)."""
    if r < 1:
        raise ValueError("need r >= 1")
    if order < 1:
        raise ValueError("order must be >= 1")
    pref = series_binpow(-r, -1, order)
    inner = series_binpow(-r, (-1, r), order) - SeriesQ.one(order)
    return pref * series_exp(inner)
