"""Generalized Stirling numbers, Bell polynomials, and their classical limits.

The central object is the triangle S_r^(M)(n,k), defined by the finite
alternating sum

    S_r^(M)(n,k) = (1/k!) sum_{j=0}^{k} C(k,j) (-1)^{k-j} [prod_{i=1}^n (j+ir)]^M

whose row sums (and x=1 Bell-polynomial values) are the integer sequences
this package reproduces.  The rows are *built* another way: row n is the
normal form of D(r,M)^n = (a^r (a†a)^M)^n, row n-1 times (N + n*r)^M
on the falling factorials N^(k), from the one graded loop
(`weyl._graded`) that builds `order`'s powers too.  Two generators
yield rows 0..n in order, each keeping only what its next row needs.
`stirling_rows` reads them from that loop and, once the last row is
drawn, holds its constant term to (n! r^n)^M; every reader of the
triangle takes one pass of it.  `alternating_sum_rows` is the defining
sum, an independent oracle whose k! division is asserted, not assumed;
`verify stirling-expansion` compares it, the triangle, and the
operator-power fold row by row.  The classical tables, `classical_rows`
(second kind) and `first_kind_rows` (signless first kind), are row
generators too; each check draws one once, and no table outlives a call.

The generalized Dobinski relation B_r^(M)(n,x) = e^{-x} sum_l x^l/l!
[prod_{i<=n} (l+ir)]^M is summed in one place, `dobinski_sums`, for rows
0..n at once with a `certified_sum` tail bound that holds for every row,
and `hyp-generating-function` checks its rows, times a proven enclosure
of e^{-x}, against the Bell polynomials.
"""

from __future__ import annotations

from math import factorial, prod

from .series import _pair, certified_sum
from .weyl import NormalForm, _graded, laguerre_derivative_word

__all__ = [
    "stirling_rows",
    "gen_stirling",
    "alternating_sum_rows",
    "gen_bell_number",
    "bell_sequence",
    "classical_rows",
    "classical_stirling2",
    "classical_bell",
    "first_kind_rows",
    "stirling1_signless",
    "dobinski_sums",
    "b_pp",
]


def stirling_rows(r: int, M: int, n_max: int):
    """Yield rows 0..n_max of S_r^(M); row n lists S(n, k) for k = 0..M*n.

    Row n is the one row, at shift r*n, of the power D(r,M)^n that
    `weyl._graded` builds a factor at a time, so only the current row is
    kept.  Once the last row has been drawn, its constant term is held to
    its closed form S(n, 0) = prod_{i<=n} (i*r)^M = (n! r^n)^M, and a
    kernel fault raises ArithmeticError: a caller that reads every row
    (`seq`) prints and caches nothing then.
    """
    if r < 0 or M < 0 or n_max < 0:
        raise ValueError("r, M and n_max must be nonnegative")
    for n, state in enumerate(_graded({laguerre_derivative_word(r, M): 1}, n_max)):
        row = state[r * n]
        yield row
    if row[0] != (factorial(n_max) * r**n_max) ** M:
        raise ArithmeticError(
            f"S(n={n_max}, k=0) at r={r} M={M} differs from (n! r^n)^M")


def _last(rows) -> list[int]:
    """The last row a row generator yields."""
    for row in rows:
        pass
    return row


def gen_stirling(r: int, M: int, n: int, k: int) -> int:
    """S_r^(M)(n,k), exact; 0 for k beyond the row width M*n."""
    if k < 0:
        raise ValueError(f"k={k} out of range")
    row = _last(stirling_rows(r, M, n))
    # past the width: the k-th difference of a lower-degree polynomial
    return row[k] if k < len(row) else 0


def alternating_sum_rows(r: int, M: int, n_max: int):
    """Yield rows 0..n_max of S_r^(M) by the defining sum: the oracle path.

    Row n is row[k] = (1/k!) sum_j C(k,j) (-1)^{k-j} P(j)^M for k = 0..M*n,
    P(j) = prod_{i=1}^n (j + i*r), taken as the k-th forward difference
    of P^M at 0 (one difference table, no binomials or powers in the
    loop).  P is carried from row to row; the triangle and its kernel are
    never read.  The k! division must be exact; a remainder raises
    ArithmeticError.  O(width^2) big-integer terms per row, so it checks
    the triangle rather than builds it.
    """
    products = [1]
    yield [1]
    for n in range(1, n_max + 1):
        products = [p * (j + n * r) for j, p in enumerate(products)]
        products += [prod(j + i * r for i in range(1, n + 1))
                     for j in range(len(products), M * n + 1)]
        diffs = [p**M for p in products]
        row, fact_k = [], 1
        for k in range(M * n + 1):
            fact_k *= k or 1
            q, rem = divmod(diffs[0], fact_k)
            if rem:
                raise ArithmeticError(
                    f"non-integral generalized Stirling value at r={r} M={M} n={n} k={k}")
            row.append(q)
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        yield row


def gen_bell_number(r: int, M: int, n: int) -> int:
    """B_r^(M)(n) = B_r^(M)(n,1), the row sum."""
    return sum(_last(stirling_rows(r, M, n)))


def bell_sequence(r: int, M: int, n_max: int) -> list[int]:
    """B_r^(M)(n) for n = 0..n_max: the sums of one pass of `stirling_rows`."""
    return list(map(sum, stirling_rows(r, M, n_max)))


def classical_rows(n_max: int):
    """Yield rows 0..n_max of S(m, k), k = 0..m, by S(m,k) = k S(m-1,k) + S(m-1,k-1):
    independent of `stirling_rows` and its kernel, so r=0, M=1 is a cross-check."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    row = [1]
    yield row
    for _ in range(n_max):
        row = [k * s + t for k, (s, t) in enumerate(zip(row + [0], [0] + row))]
        yield row


def classical_stirling2(n: int, k: int) -> int:
    """Second-kind S(n,k): row n of `classical_rows`; 0 for k > n."""
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    row = _last(classical_rows(n))
    return row[k] if k < len(row) else 0


def classical_bell(n: int) -> int:
    """The Bell number B(n): the sum of row n of one `classical_rows` pass."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sum(_last(classical_rows(n)))


def first_kind_rows(n_max: int):
    """Yield rows 0..n_max of |sigma(m, k)|, k = 0..m, by
    |sigma(m,k)| = |sigma(m-1,k-1)| + (m-1)|sigma(m-1,k)|."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    row = [1]
    yield row
    for m in range(n_max):
        row = [m * s + t for s, t in zip(row + [0], [0] + row)]
        yield row


def stirling1_signless(n: int, k: int) -> int:
    """Signless first-kind |sigma(n,k)| for 1 <= k <= n: row n of `first_kind_rows`."""
    if n < 1 or k < 1 or k > n:
        raise ValueError(f"stirling1_signless({n},{k}) out of range")
    return _last(first_kind_rows(n))[k]


def dobinski_sums(r: int, M: int, n_max: int, x, cutoff, max_terms: int):
    """The Dobinski l-sums sum_l x^l/l! W(n,l), W(n,l) = [prod_{i<=n} (l+ir)]^M,
    for n = 0..n_max, exactly and without the e^{-x} factor.

    e^{-x} times row n is B_r^(M)(n,x).  This is the one place the
    weights, the tail cap and the stop of the lower rows are written.
    For l >= 1, row n's term ratio t_{l+1}/t_l is x/(l+1) *
    prod_i (1 + 1/(l+ir))^M <= x/(l+1) * (1 + 1/(l+r))^(n_max*M), which
    falls with l; so ratio_cap(l) = x/(l+2) * (1 + 1/(l+1+r))^(n_max*M)
    bounds every ratio past l, for r = 0 too (where t_0 may be 0).  The
    lower rows stop with the top one: W(n_max,l)/W(n,l) =
    prod_{n<i<=n_max} (l+ir)^M is >= 1 and does not fall for l >= 1, so
    no lower row's tail exceeds the top row's, absolutely or relative to
    its partial sum.  So every row's full sum lies in [S_n, S_n + cutoff *
    max(S_n, 1)], S_n its partial sum: `hyp-generating-function` encloses
    it so, where the certificate's tail_bound holds for the top row only.
    Returns (one exact partial sum per row, an int pair, and the
    SumCertificate of the top row); raises RuntimeError if max_terms terms
    do not certify.  x and cutoff are rationals or int pairs (`series._pair`).
    """
    if r < 0 or M < 0 or n_max < 0:
        raise ValueError("need r, M, n_max >= 0")
    p, q = _pair(x)
    if p < 0:
        raise ValueError("x must be >= 0")
    if _pair(cutoff)[0] <= 0:
        raise ValueError("tolerance must be positive")
    power = n_max * M

    def weights(l):
        out = [1]
        prod = 1
        for i in range(1, n_max + 1):
            prod *= l + i * r
            out.append(prod**M)
        return out

    def ratio_cap(l):
        # x/(l+2) * (1 + 1/(l+1+r))^power, as one int pair
        return p * (l + 2 + r) ** power, q * (l + 2) * (l + 1 + r) ** power

    return certified_sum(lambda l: p, lambda l: q * (l + 1), ratio_cap,
                         cutoff, weights, max_terms)


def b_pp(p: int, n: int) -> int:
    """z=1 expectation of [(ad)^p a^p]^n, an integer Bell-type number."""
    if p < 1 or n < 0:
        raise ValueError("need p >= 1 and n >= 0")
    nf = NormalForm.monomial(p, p) ** n
    val = nf.expectation_at_one()
    if val.denominator != 1:
        raise ArithmeticError(f"non-integer expectation {val} at p={p}, n={n}")
    return int(val)
