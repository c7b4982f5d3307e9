"""Exact polynomials and truncated formal power series over the rationals.

Everything here is dense and immutable: degrees and truncation orders stay
small (a few hundred at most), so dense storage wins on simplicity and is
fast enough.  Coefficients are `fractions.Fraction` throughout; no floats
enter at any point.

`certified_sum` is the one place that truncates an infinite series of
positive terms with a proven tail bound; it runs in unreduced integers
(see its docstring).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial as _factorial
from typing import Callable, Iterable, Sequence

__all__ = [
    "PolyQ",
    "SeriesQ",
    "BiSeriesQ",
    "factorial",
    "binomial",
    "falling_factorial",
    "laguerre_poly",
    "series_exp",
    "series_binpow",
    "phyperq_partial",
    "phyperq_series",
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


def pochhammer(a: Fraction, k: int) -> Fraction:
    """Rising factorial (a)_k = a(a+1)...(a+k-1)."""
    out = Fraction(1)
    for i in range(k):
        out *= a + i
    return out


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class PolyQ:
    """Dense polynomial over Fraction; trailing zeros stripped, zero = ()."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [(_as_fraction(c)) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def zero(cls) -> "PolyQ":
        return cls()

    @classmethod
    def one(cls) -> "PolyQ":
        return cls((1,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

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
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return PolyQ(out)

    def scale(self, c) -> "PolyQ":
        c = _as_fraction(c)
        return PolyQ(a * c for a in self.coeffs)

    def eval(self, x) -> Fraction:
        x = _as_fraction(x)
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

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
        cs = [_as_fraction(c) for c in coeffs[:order]]
        cs.extend([Fraction(0)] * (order - len(cs)))
        self.order = order
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def zero(cls, order: int) -> "SeriesQ":
        return cls(order)

    @classmethod
    def one(cls, order: int) -> "SeriesQ":
        return cls(order, [1])

    @classmethod
    def x(cls, order: int) -> "SeriesQ":
        return cls(order, [0, 1])

    @classmethod
    def from_poly(cls, p: PolyQ, order: int) -> "SeriesQ":
        return cls(order, p.coeffs)

    def coeff(self, i: int) -> Fraction:
        if not (0 <= i < self.order):
            raise IndexError(f"coefficient {i} beyond truncation order {self.order}")
        return self.coeffs[i]

    def truncate(self, order: int) -> "SeriesQ":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return SeriesQ(order, self.coeffs[:order])

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
        out = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs[:n]):
            if a:
                for j in range(n - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
        return SeriesQ(n, out)

    def scale(self, c) -> "SeriesQ":
        c = _as_fraction(c)
        return SeriesQ(self.order, [a * c for a in self.coeffs])

    def __repr__(self) -> str:
        return f"SeriesQ(order={self.order}, coeffs={list(self.coeffs)!r})"


class BiSeriesQ:
    """Series in two variables, truncated independently: orders (nx, ny).

    Stored as a dense row-major matrix c[i][j] for x^i y^j.  The same
    minimum-order clamping discipline as SeriesQ, applied per variable.
    """

    __slots__ = ("nx", "ny", "coeffs")

    def __init__(self, nx: int, ny: int, coeffs=None):
        if nx < 0 or ny < 0:
            raise ValueError("orders must be >= 0")
        self.nx = nx
        self.ny = ny
        mat = [[Fraction(0)] * ny for _ in range(nx)]
        if coeffs is not None:
            for i in range(min(nx, len(coeffs))):
                row = coeffs[i]
                for j in range(min(ny, len(row))):
                    mat[i][j] = _as_fraction(row[j])
        self.coeffs = tuple(tuple(row) for row in mat)

    @classmethod
    def one(cls, nx: int, ny: int) -> "BiSeriesQ":
        return cls(nx, ny, [[1]])

    @classmethod
    def from_x_series(cls, s: SeriesQ, ny: int) -> "BiSeriesQ":
        return cls(s.order, ny, [[c] for c in s.coeffs])

    @classmethod
    def from_y_series(cls, s: SeriesQ, nx: int) -> "BiSeriesQ":
        return cls(nx, s.order, [list(s.coeffs)])

    def coeff(self, i: int, j: int) -> Fraction:
        if not (0 <= i < self.nx and 0 <= j < self.ny):
            raise IndexError(
                f"coefficient ({i},{j}) beyond truncation orders ({self.nx},{self.ny})"
            )
        return self.coeffs[i][j]

    def truncate(self, nx: int, ny: int) -> "BiSeriesQ":
        if nx > self.nx or ny > self.ny:
            raise ValueError("cannot extend a truncated series")
        return BiSeriesQ(nx, ny, self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BiSeriesQ)
            and (self.nx, self.ny) == (other.nx, other.ny)
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.nx, self.ny, self.coeffs))

    def __add__(self, other: "BiSeriesQ") -> "BiSeriesQ":
        nx, ny = min(self.nx, other.nx), min(self.ny, other.ny)
        return BiSeriesQ(
            nx, ny,
            [
                [self.coeffs[i][j] + other.coeffs[i][j] for j in range(ny)]
                for i in range(nx)
            ],
        )

    def __sub__(self, other: "BiSeriesQ") -> "BiSeriesQ":
        nx, ny = min(self.nx, other.nx), min(self.ny, other.ny)
        return BiSeriesQ(
            nx, ny,
            [
                [self.coeffs[i][j] - other.coeffs[i][j] for j in range(ny)]
                for i in range(nx)
            ],
        )

    def __mul__(self, other: "BiSeriesQ") -> "BiSeriesQ":
        nx, ny = min(self.nx, other.nx), min(self.ny, other.ny)
        out = [[Fraction(0)] * ny for _ in range(nx)]
        for i in range(nx):
            for j in range(ny):
                a = self.coeffs[i][j]
                if not a:
                    continue
                for p in range(nx - i):
                    for q in range(ny - j):
                        b = other.coeffs[p][q]
                        if b:
                            out[i + p][j + q] += a * b
        return BiSeriesQ(nx, ny, out)

    def scale(self, c) -> "BiSeriesQ":
        c = _as_fraction(c)
        return BiSeriesQ(
            self.nx, self.ny,
            [[a * c for a in row] for row in self.coeffs],
        )

    def min_total_order(self) -> int:
        """Smallest i+j with a nonzero coefficient (nx+ny if identically zero)."""
        best = self.nx + self.ny
        for i, row in enumerate(self.coeffs):
            for j, c in enumerate(row):
                if c and i + j < best:
                    best = i + j
        return best

    def exp(self) -> "BiSeriesQ":
        """exp of a series with zero constant term and no pure-constant part.

        Requires min_total_order() >= 1 so the power sum terminates within
        the truncation orders.
        """
        if self.nx > 0 and self.ny > 0 and self.coeffs[0][0] != 0:
            raise ValueError("exp needs a zero constant term")
        m = self.min_total_order()
        if m == 0:
            raise ValueError("exp needs a zero constant term")
        acc = BiSeriesQ.one(self.nx, self.ny)
        term = BiSeriesQ.one(self.nx, self.ny)
        # arg^k has total order >= k*m, so k caps at (nx-1 + ny-1)//m
        kmax = (self.nx - 1 + self.ny - 1) // m if (self.nx and self.ny) else 0
        for k in range(1, kmax + 1):
            term = (term * self).scale(Fraction(1, k))
            acc = acc + term
        return acc

    def __repr__(self) -> str:
        return f"BiSeriesQ(nx={self.nx}, ny={self.ny})"


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
    out = [Fraction(0)] * n
    if n == 0:
        return SeriesQ(0)
    out[0] = Fraction(1)
    for m in range(1, n):
        acc = Fraction(0)
        for j in range(1, m + 1):
            if s.coeffs[j]:
                acc += j * s.coeffs[j] * out[m - j]
        out[m] = acc / m
    return SeriesQ(n, out)


def series_binpow(c, alpha, order: int) -> SeriesQ:
    """(1 + c·t)^alpha as a series in t, generalized binomial coefficients."""
    if order < 1:
        raise ValueError("order must be >= 1")
    c = _as_fraction(c)
    alpha = _as_fraction(alpha)
    out = [Fraction(0)] * order
    coeff = Fraction(1)
    ck = Fraction(1)
    for k in range(order):
        out[k] = coeff * ck
        coeff = coeff * (alpha - k) / (k + 1)
        ck *= c
    return SeriesQ(order, out)


def phyperq_partial(
    upper: Sequence, lower: Sequence, x, terms: int
) -> Fraction:
    """Exact partial sum of pFq: sum_{k<terms} prod(upper)_k/prod(lower)_k x^k/k!."""
    upper = [_as_fraction(u) for u in upper]
    lower = [_as_fraction(l) for l in lower]
    x = _as_fraction(x)
    total = Fraction(0)
    term = Fraction(1)
    for k in range(terms):
        total += term
        # a zero term means a terminating upper parameter (or x = 0) cut
        # the series off; later pole checks would be spurious
        if k + 1 == terms or term == 0:
            break
        num = Fraction(1)
        for u in upper:
            num *= u + k
        den = Fraction(1)
        for l in lower:
            d = l + k
            if d == 0:
                raise ZeroDivisionError(
                    f"lower parameter {l} hits a pole at term {k + 1}"
                )
            den *= d
        term = term * num / den * x / (k + 1)
    return total


def phyperq_series(upper: Sequence, lower: Sequence, order: int) -> SeriesQ:
    """pFq as a series in its argument, to the given truncation order."""
    upper = [_as_fraction(u) for u in upper]
    lower = [_as_fraction(l) for l in lower]
    out = [Fraction(0)] * order
    term = Fraction(1)
    for k in range(order):
        out[k] = term
        if k + 1 == order:
            break
        den = Fraction(1)
        for l in lower:
            d = l + k
            if d == 0:
                raise ZeroDivisionError(
                    f"lower parameter {l} hits a pole at term {k + 1}"
                )
            den *= d
        num = Fraction(1)
        for u in upper:
            num *= u + k
        term = term * num / den / (k + 1)
    return SeriesQ(order, out)


@dataclass(frozen=True)
class SumCertificate:
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
