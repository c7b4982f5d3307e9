"""Generalized Stirling numbers, Bell polynomials, and their classical limits.

The central object is the triangle S_r^(M)(n,k), defined by the finite
alternating sum

    S_r^(M)(n,k) = (1/k!) sum_{j=0}^{k} C(k,j) (-1)^{k-j} [prod_{i=1}^n (j+ir)]^M

whose row sums (and x=1 Bell-polynomial values) are the integer sequences
this package reproduces.  The rows are *built* another way: row n is the
normal form of D(r,M)^n, i.e. row n-1 times (N + n*r)^M on the falling
factorials N^(k), which the kernel applies by the three-term recurrence
new[k] = old[k-1] + (k + n*r) old[k].  The defining sum stays here as
`alternating_sum_row`, an independent oracle whose k! division is
asserted, not assumed; `verify stirling-expansion` compares it, the
triangle, and the operator-power fold row by row.  The classical
second-kind triangle and Bell numbers are implemented independently
through the textbook recurrence and serve as a cross-check at r=0, M=1.
"""

from __future__ import annotations

import threading
from fractions import Fraction

from . import backend
from .hyperreal import HighPrecReal
from .series import PolyQ, certified_sum
from .weyl import NormalForm

__all__ = [
    "StirlingTriangle",
    "gen_stirling",
    "gen_stirling_rows",
    "alternating_sum_row",
    "gen_bell_poly",
    "gen_bell_number",
    "bell_sequence",
    "classical_stirling2",
    "classical_bell",
    "stirling1_signless",
    "product_poly",
    "dobinski_partial",
    "dobinski_adaptive",
    "b_pp",
]


class StirlingTriangle:
    """Rows 0..n of S_r^(M) for fixed r >= 0, M >= 0, grown on demand.

    Row n has width M*n + 1 and is built from row n-1 by the kernel's
    recurrence, so the previous row is all that is carried.  Extension
    is serialized by a lock; reads of already-built rows are safe without
    it (lists only ever grow, and a built row is never mutated).
    """

    __slots__ = ("r", "M", "rows", "_lock")

    def __init__(self, r: int, M: int):
        if r < 0 or M < 0:
            raise ValueError("r and M must be nonnegative")
        self.r = r
        self.M = M
        self.rows: list[list[int]] = [[1]]
        self._lock = threading.Lock()

    def extend_to(self, n_max: int) -> None:
        if n_max < len(self.rows):
            return
        with self._lock:
            while len(self.rows) <= n_max:
                row, _ = backend.stirling_row_update(
                    self.r, self.M, len(self.rows), self.rows[-1]
                )
                self.rows.append(row)

    def row(self, n: int) -> list[int]:
        if n < 0:
            raise ValueError("row index must be nonnegative")
        self.extend_to(n)
        return list(self.rows[n])

    def value(self, n: int, k: int) -> int:
        if n < 0:
            raise ValueError("row index must be nonnegative")
        if k < 0:
            raise ValueError(f"k={k} out of range")
        self.extend_to(n)
        row = self.rows[n]
        if k >= len(row):
            return 0  # the k-th difference of a lower-degree polynomial
        return row[k]


_TRIANGLES: dict = {}
_TRIANGLES_LOCK = threading.Lock()


def _triangle(r: int, M: int) -> StirlingTriangle:
    key = (r, M)
    tri = _TRIANGLES.get(key)
    if tri is None:
        with _TRIANGLES_LOCK:
            tri = _TRIANGLES.setdefault(key, StirlingTriangle(r, M))
    return tri


def gen_stirling(r: int, M: int, n: int, k: int) -> int:
    """S_r^(M)(n,k), exact; 0 for k beyond the row width M*n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _triangle(r, M).value(n, k)


def gen_stirling_rows(r: int, M: int, n_max: int) -> list[list[int]]:
    """Rows 0..n_max of S_r^(M), each a fresh list."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    tri = _triangle(r, M)
    tri.extend_to(n_max)
    return [list(row) for row in tri.rows[: n_max + 1]]


def alternating_sum_row(r: int, M: int, n: int, products: list[int]):
    """Row n of S_r^(M) by the defining alternating sum: the oracle path.

    products: P[j] = prod_{i=1}^{n-1} (j + i*r) for j = 0..M*(n-1); pass
    [1] for n = 1 (row 0 is the single entry 1).  Returns (row, new_products)
    where row[k] = (1/k!) sum_j C(k,j) (-1)^{k-j} P'[j]^M for k = 0..M*n and
    P'[j] = P[j]*(j + n*r) extended out to j = M*n.  The k! division must be
    exact; a remainder raises ArithmeticError.  O(width^2) big-integer
    terms per row, so it checks the triangle rather than builds it.
    """
    width = M * n + 1
    newp = []
    for j in range(width):
        if j < len(products):
            newp.append(products[j] * (j + n * r))
        else:
            p = 1
            for i in range(1, n + 1):
                p *= j + i * r
            newp.append(p)
    row = []
    fact_k = 1
    for k in range(width):
        if k:
            fact_k *= k
        total = 0
        sign = -1 if k & 1 else 1
        binom = 1
        for j in range(k + 1):
            total += sign * binom * newp[j] ** M
            sign = -sign
            binom = binom * (k - j) // (j + 1)
        q, rem = divmod(total, fact_k)
        if rem:
            raise ArithmeticError(
                f"non-integral generalized Stirling value at r={r} M={M} n={n} k={k}")
        row.append(q)
    return row, newp


def gen_bell_poly(r: int, M: int, n: int) -> PolyQ:
    """B_r^(M)(n,x) = sum_k S_r^(M)(n,k) x^k."""
    return PolyQ(_triangle(r, M).row(n))


def gen_bell_number(r: int, M: int, n: int) -> int:
    """B_r^(M)(n) = B_r^(M)(n,1), the row sum."""
    return sum(_triangle(r, M).row(n))


def bell_sequence(r: int, M: int, n_max: int) -> list[int]:
    tri = _triangle(r, M)
    tri.extend_to(n_max)
    return [sum(tri.rows[n]) for n in range(n_max + 1)]


_CLASSICAL_ROWS: list[list[int]] = [[1]]
_CLASSICAL_LOCK = threading.Lock()


def classical_stirling2(n: int, k: int) -> int:
    """Second-kind S(n,k) by the recurrence S(n,k) = k S(n-1,k) + S(n-1,k-1).

    Deliberately independent of gen_stirling so the r=0, M=1 reduction is
    a genuine cross-check.
    """
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    with _CLASSICAL_LOCK:
        while len(_CLASSICAL_ROWS) <= n:
            prev = _CLASSICAL_ROWS[-1]
            m = len(_CLASSICAL_ROWS)
            row = [0] * (m + 1)
            for j in range(m + 1):
                acc = 0
                if j <= m - 1:
                    acc += j * prev[j]
                if 1 <= j <= m:
                    acc += prev[j - 1]
                row[j] = acc
            _CLASSICAL_ROWS.append(row)
        row = _CLASSICAL_ROWS[n]
    return row[k] if k < len(row) else 0


def classical_bell(n: int) -> int:
    return sum(classical_stirling2(n, k) for k in range(n + 1))


def stirling1_signless(n: int, k: int) -> int:
    """Signless first-kind |sigma(n,k)|: |sigma(n+1,k)| = |sigma(n,k-1)| + n|sigma(n,k)|."""
    if n < 1 or k < 1 or k > n:
        raise ValueError(f"stirling1_signless({n},{k}) out of range")
    row = [1]  # row for n=1: |sigma(1,1)|
    for m in range(1, n):
        row = [
            (row[j - 1] if 1 <= j <= m else 0) + m * (row[j] if j < m else 0)
            for j in range(m + 1)
        ]
    return row[k - 1]


def product_poly(r: int) -> PolyQ:
    """prod_{p=1}^{r} (x+p); its x^{k-1} coefficient is |sigma(r+1,k)|."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    out = PolyQ.one()
    for p in range(1, r + 1):
        out = out * PolyQ((p, 1))
    return out


def _dobinski_term_factor(r: int, M: int, n: int, l: int) -> int:
    p = 1
    for i in range(1, n + 1):
        p *= l + i * r
    return p ** M


def dobinski_partial(r: int, M: int, n: int, x, L: int) -> Fraction:
    """sum_{l<L} [prod_{i=1}^n (l+ir)]^M x^l / l!, exactly (no e^{-x} factor)."""
    if L < 1:
        raise ValueError("L must be >= 1")
    x = Fraction(x)
    if x < 0:
        raise ValueError("x must be >= 0")
    total = Fraction(0)
    xpow = Fraction(1)
    fact = 1
    for l in range(L):
        if l:
            xpow *= x
            fact *= l
        total += Fraction(_dobinski_term_factor(r, M, n, l) * xpow.numerator,
                          fact * xpow.denominator)
    return total


def dobinski_adaptive(r: int, M: int, n: int, x, tol, prec: int = 50):
    """Adaptive exponentially weighted sum: e^{-x} * sum_l w_l x^l / l!,
    w_l = [prod_{i=1}^n (l+ir)]^M.

    The term ratio x/(l+1) * prod_i (1 + 1/(l+ir))^M falls with l for
    every l >= 0 (for r = 0, every l >= 1, after the zero term t_0), so
    the ratio at l+1 caps every later one and `certified_sum` stops once
    that cap is <= 1/2 and its tail bound is at most tol * max(partial
    sum, 1).  As e^{-x} <= 1, the reported value is then within
    tol * max(value, 1) of the full sum: the scale at which
    `HighPrecReal.agrees_with` compares.
    Returns (value: HighPrecReal, terms_used: int, exact_partial: Fraction).
    """
    if r < 0 or M < 0 or n < 0:
        raise ValueError("need r, M, n >= 0")
    x = Fraction(x)
    if x < 0:
        raise ValueError("x must be >= 0")
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    p, q = x.numerator, x.denominator

    def ratio_cap(l):
        return Fraction(p * _dobinski_term_factor(r, M, n, l + 2),
                        q * (l + 2) * _dobinski_term_factor(r, M, n, l + 1))

    (total,), cert = certified_sum(
        lambda l: p, lambda l: q * (l + 1), ratio_cap, tol, 100000,
        lambda l: (_dobinski_term_factor(r, M, n, l),),
    )
    return HighPrecReal.exp_of(-x, prec) * total, cert.terms, total


def b_pp(p: int, n: int) -> int:
    """z=1 expectation of [(ad)^p a^p]^n, an integer Bell-type number."""
    if p < 1 or n < 0:
        raise ValueError("need p >= 1 and n >= 0")
    nf = NormalForm.monomial(p, p) ** n
    val = nf.expectation_at_one()
    if val.denominator != 1:
        raise ArithmeticError(f"non-integer expectation {val} at p={p}, n={n}")
    return int(val)
