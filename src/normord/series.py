"""Exact polynomials and truncated formal power series over the rationals.

Everything here is dense and immutable: degrees and truncation orders stay
small (a few hundred at most), so dense storage wins on simplicity and is
fast enough.  Coefficients are canonical (`_canonical`): an int when
integral, a `fractions.Fraction` with denominator > 1 only when not, and
never a float.  This is the one coefficient rule of the package: the
normal forms in `normord.weyl`, the graph tables in `normord.graphs` and
the double-dot series in `normord.laguerre` all store what it returns.
A true rational division is written `Fraction(a, b)`, since two ints
would give a float.

`pfq_ratio` is the one place the pFq term ratio is written, and
`phyperq_series` the one loop over pFq terms (`phyperq_partial` sums its
coefficients).  `certified_sum` is the one place that truncates an
infinite series of positive terms with a proven tail bound.  Both run in
unreduced integers (see their docstrings).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial as _factorial
from typing import Callable, Iterable, NamedTuple, Sequence

__all__ = [
    "PolyQ",
    "SeriesQ",
    "factorial",
    "binomial",
    "falling_factorial",
    "laguerre_poly",
    "series_exp",
    "series_binpow",
    "phyperq_partial",
    "phyperq_series",
    "pfq_ratio",
    "pochhammer",
    "SumCertificate",
    "certified_sum",
]


@lru_cache(maxsize=1024)
def factorial(n: int) -> int:
    """n! with a bounded process-local memo."""
    if n < 0:
        raise ValueError("factorial of negative argument")
    return _factorial(n)


def binomial(n: int, k: int) -> int:
    return comb(n, k)


def falling_factorial(p, r: int):
    """p(p-1)...(p-r+1); empty product for r=0. Exact for int or Fraction p."""
    if r < 0:
        raise ValueError("falling factorial needs r >= 0")
    out = p ** 0  # 1 of the same type
    for i in range(r):
        out *= p - i
    return out


def _canonical(c):
    """c as an int when it is integral, else as a Fraction (denominator > 1)."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):  # bool and other int subclasses
        return int(c)
    raise TypeError(f"coefficient must be rational, got {type(c).__name__}")


def pochhammer(a, k: int):
    """Rising factorial (a)_k = a(a+1)...(a+k-1), as int products over a's denominator."""
    a = _canonical(a)
    num, den = a.numerator, a.denominator
    out = 1
    for i in range(k):
        out *= num + i * den
    return _canonical(Fraction(out, den**k))


class PolyQ:
    """Dense polynomial, canonical coefficients; trailing zeros stripped, zero = ()."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_canonical(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple = tuple(cs)

    @classmethod
    def zero(cls) -> "PolyQ":
        return cls()

    @classmethod
    def one(cls) -> "PolyQ":
        return cls((1,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyQ) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "PolyQ") -> "PolyQ":
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyQ(self.coeff(i) + other.coeff(i) for i in range(n))

    def __sub__(self, other: "PolyQ") -> "PolyQ":
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyQ(self.coeff(i) - other.coeff(i) for i in range(n))

    def __mul__(self, other: "PolyQ") -> "PolyQ":
        if not self.coeffs or not other.coeffs:
            return PolyQ()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return PolyQ(out)

    def scale(self, c) -> "PolyQ":
        c = _canonical(c)
        return PolyQ(a * c for a in self.coeffs)

    def eval(self, x):
        x = _canonical(x)
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return _canonical(out)

    def __repr__(self) -> str:
        return f"PolyQ({list(self.coeffs)!r})"


class SeriesQ:
    """Truncated power series: order N (exclusive) and coefficients c_0..c_{N-1}.

    Binary operations clamp to the minimum order of the operands; a
    coefficient beyond the order of a series does not exist and is never
    reported as zero.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Sequence = ()):
        if order < 0:
            raise ValueError("order must be >= 0")
        cs = [_canonical(c) for c in coeffs[:order]]
        cs.extend([0] * (order - len(cs)))
        self.order = order
        self.coeffs: tuple = tuple(cs)

    @classmethod
    def one(cls, order: int) -> "SeriesQ":
        return cls(order, [1])

    @classmethod
    def x(cls, order: int) -> "SeriesQ":
        return cls(order, [0, 1])

    def coeff(self, i: int):
        if not (0 <= i < self.order):
            raise IndexError(f"coefficient {i} beyond truncation order {self.order}")
        return self.coeffs[i]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SeriesQ)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __add__(self, other: "SeriesQ") -> "SeriesQ":
        n = min(self.order, other.order)
        return SeriesQ(n, [self.coeffs[i] + other.coeffs[i] for i in range(n)])

    def __sub__(self, other: "SeriesQ") -> "SeriesQ":
        n = min(self.order, other.order)
        return SeriesQ(n, [self.coeffs[i] - other.coeffs[i] for i in range(n)])

    def __mul__(self, other: "SeriesQ") -> "SeriesQ":
        n = min(self.order, other.order)
        out = [0] * n
        for i, a in enumerate(self.coeffs[:n]):
            if a:
                for j in range(n - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
        return SeriesQ(n, out)

    def scale(self, c) -> "SeriesQ":
        c = _canonical(c)
        return SeriesQ(self.order, [a * c for a in self.coeffs])

    def __repr__(self) -> str:
        return f"SeriesQ(order={self.order}, coeffs={list(self.coeffs)!r})"


def laguerre_poly(n: int) -> PolyQ:
    """Laguerre polynomial L_n(y) = sum_k C(n,k) (-y)^k / k!."""
    if n < 0:
        raise ValueError("Laguerre index must be >= 0")
    return PolyQ(
        Fraction((-1) ** k * binomial(n, k), factorial(k)) for k in range(n + 1)
    )


def series_exp(s: SeriesQ) -> SeriesQ:
    """exp of a series with zero constant term, via f' = s'·f."""
    if s.order > 0 and s.coeffs[0] != 0:
        raise ValueError("series_exp needs a zero constant term")
    n = s.order
    out = [0] * n
    if n == 0:
        return SeriesQ(0)
    out[0] = 1
    for m in range(1, n):
        acc = 0
        for j in range(1, m + 1):
            if s.coeffs[j]:
                acc += j * s.coeffs[j] * out[m - j]
        out[m] = Fraction(acc, m)
    return SeriesQ(n, out)


def series_binpow(c, alpha, order: int) -> SeriesQ:
    """(1 + c·t)^alpha as a series in t, generalized binomial coefficients."""
    if order < 1:
        raise ValueError("order must be >= 1")
    c = _canonical(c)
    alpha = _canonical(alpha)
    out = [0] * order
    coeff = 1
    ck = 1
    for k in range(order):
        out[k] = coeff * ck
        coeff = Fraction(coeff * (alpha - k), k + 1)
        ck *= c
    return SeriesQ(order, out)


def pfq_ratio(upper: Sequence, lower: Sequence, x):
    """The pFq term ratio t_{k+1}/t_k as two int-valued functions of k.

    t_{k+1}/t_k = x * prod(u+k) / ((k+1) * prod(l+k)) = ratio_num(k) /
    ratio_den(k), with every parameter denominator cleared:
    u + k = (u.num + k*u.den) / u.den.  ratio_den(k) is 0 exactly when a
    lower parameter l = -k is a pole.  This is the only place the ratio
    is written; `phyperq_series` and `certified_sum` run on it.
    """
    upper = [_canonical(u) for u in upper]
    lower = [_canonical(l) for l in lower]
    c = _canonical(x)
    for l in lower:
        c *= l.denominator
    for u in upper:
        c = Fraction(c, u.denominator)
    c_num, c_den = c.numerator, c.denominator
    ups = [(u.numerator, u.denominator) for u in upper]
    lows = [(l.numerator, l.denominator) for l in lower]

    def ratio_num(k):
        out = c_num
        for n, d in ups:
            out *= n + k * d
        return out

    def ratio_den(k):
        out = c_den * (k + 1)
        for n, d in lows:
            out *= n + k * d
        return out

    return ratio_num, ratio_den


def phyperq_series(upper: Sequence, lower: Sequence, order: int) -> SeriesQ:
    """pFq as a series in its argument: c_k = prod(u)_k / (prod(l)_k k!), k < order.

    The one pFq term loop.  It runs the `pfq_ratio` chain in unreduced
    ints (one gcd per coefficient) and stops at the first zero
    coefficient: a nonpositive-integer upper parameter ends the series
    there, and every later coefficient is 0.  A pole (l + k = 0 for a
    lower parameter l) reached before that raises ZeroDivisionError.
    """
    ratio_num, ratio_den = pfq_ratio(upper, lower, 1)
    out = []
    num = den = 1
    for k in range(order):
        out.append(Fraction(num, den))
        if k + 1 == order:
            break
        b = ratio_den(k)
        if b == 0:
            raise ZeroDivisionError(
                f"lower parameter {-k} hits a pole at term {k + 1}")
        num *= ratio_num(k)
        if num == 0:
            break
        den *= b
    return SeriesQ(order, out)


def phyperq_partial(upper: Sequence, lower: Sequence, x, terms: int):
    """Exact partial sum of pFq: sum_{k<terms} c_k x^k, c_k from `phyperq_series`.

    At x = 0 only c_0 survives, but the chain still takes its first step,
    so a lower parameter 0 raises as it does for any other x.
    """
    x = _canonical(x)
    series = phyperq_series(upper, lower, terms if x else min(terms, 2))
    return PolyQ(series.coeffs).eval(x)


class SumCertificate(NamedTuple):
    """Why a `certified_sum` total can be trusted.

    terms: how many terms were summed (t_0 .. t_{terms-1});
    ratio_cap: a bound on every term ratio t_{j+1}/t_j with j >= terms;
    tail_bound: 2 * t_terms, which bounds the discarded tail
    t_terms + t_{terms+1} + ... because ratio_cap <= 1/2.
    """

    terms: int
    ratio_cap: Fraction
    tail_bound: Fraction


def _unit_weight(k: int) -> tuple:
    return (1,)


def certified_sum(
    ratio_num: Callable[[int], int],
    ratio_den: Callable[[int], int],
    ratio_cap: Callable[[int], Fraction],
    cutoff: Fraction,
    max_terms: int = 200000,
    weights: Callable[[int], Sequence[int]] = _unit_weight,
) -> tuple[list[Fraction], SumCertificate]:
    """Sum rows of positive terms t_k = w(k) c_k with a proven tail bound.

    The chain c_0 = 1, c_{k+1} = c_k * ratio_num(k) / ratio_den(k) has
    int-valued ratio functions (ratio_num >= 0, ratio_den > 0), and row
    j's term k is weights(k)[j] * c_k with int weights >= 0.  The default
    is one row of 1s, whose term ratio is ratio_num/ratio_den.  The last row
    governs the stop: ratio_cap(k) must bound every ratio t_{j+1}/t_j of
    that row for j > k and must not increase with k.  After term k the
    sum stops once ratio_cap(k) <= 1/2 and 2 * t_{k+1} <= cutoff *
    max(S_k, 1), S_k being the last row's partial sum.  All later ratios
    are then at most 1/2, so the discarded tail t_{k+1} + t_{k+2} + ...
    is below 2 * t_{k+1}: within cutoff of S_k relative to it, or
    absolutely when S_k < 1.  This is the only place that argument is
    made.  Other rows need their own reason to share the stop.

    c_k is kept as num/den and each row's partial sum as sums[j]/den in
    unreduced ints (num <- num*a, sums[j] <- sums[j]*b + num*w[j],
    den <- den*b for a/b the ratio at k), every stopping test is an exact
    integer cross-multiplication, and the only gcds are those of the
    returned Fractions.  The cap is evaluated only until it first
    certifies <= 1/2 (it cannot rise again), and once more at the stop for
    the certificate.  Returns (one exact partial sum per row, certificate);
    raises RuntimeError if terms t_0 .. t_{max_terms} do not certify.
    """
    cut_num, cut_den = cutoff.numerator, cutoff.denominator
    num = den = 1
    sums = list(weights(0))
    capped = False
    for k in range(max_terms + 1):
        a = ratio_num(k)
        b = ratio_den(k)
        num *= a
        den_next = den * b
        w = weights(k + 1)
        nxt = num * w[-1]
        if not capped:
            capped = 2 * ratio_cap(k) <= 1
        if capped:
            scale = sums[-1] * b
            if scale < den_next:
                scale = den_next
            if 2 * nxt * cut_den <= cut_num * scale:
                return [Fraction(s, den) for s in sums], SumCertificate(
                    k + 1, ratio_cap(k), Fraction(2 * nxt, den_next)
                )
        sums = [s * b + num * wj for s, wj in zip(sums, w)]
        den = den_next
    raise RuntimeError("certified sum failed to reach its tail bound")
