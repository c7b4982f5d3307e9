"""Truncated formal power series over the rationals, exact polynomials among them.

An exact polynomial is a `SeriesQ` whose order is one past its degree
(`laguerre_poly`, `weyl.NormalForm.diagonal_polynomial`); there is no
separate polynomial type.  Everything here is dense and immutable:
degrees and truncation orders stay small (a few hundred at most), so
dense storage wins on simplicity and is fast enough.  Coefficients
read out canonical (`_canonical`): an int when integral, a
`fractions.Fraction` with denominator > 1 only when not, and never a
float.  This is the one coefficient rule of the package: the series
here, the normal forms in `normord.weyl` (the graph tables of
`normord.graphs` among them) and the double-dot series in
`normord.laguerre` all read out by it.  A true rational division is
written `Fraction(a, b)`, since two ints would give a float.

No module of the package imports `fractions` when it loads.  A Fraction
is built only where a rational is read out for a library caller:
`_ratio` reads one value out and `_ratios` a container's whole readout,
with one import (`coeffs`, `terms`, `pochhammer`,
`coherent_expectation`, a mismatch record).  A rational scalar that the
package only computes with or prints is an int (numerator, denominator)
pair, read by `_pair` from a rational or a pair, compared by integer
cross-multiplication and printed by `_pair_str` as str(Fraction) would
print it: `certified_sum`'s sums and certificate, the enclosures of
`normord.hyperreal`, the tolerances and pFq parameters of the checks,
the CLI's --tolerance and --expectation and the expectation it prints.
`_to_one_den` takes such pairs as well as rationals, so a parsed 1/2
enters `weyl.BosonExpr` as the pair (1, 2).  `_canonical` recognizes a
Fraction without importing anything, since one exists only once
`fractions` is loaded.  So no `normord` command loads `fractions`, nor
the `decimal` and `numbers` modules it pulls in.

The exact containers, `SeriesQ`, `weyl.BosonExpr`, `weyl.NormalForm`
and `laguerre.DotSeries`, share one layout: int numerators over one
reduced int denominator (FLINT's fmpq_poly layout), so their arithmetic
is int arithmetic plus one gcd pass per result, and equality compares
ints.
`_to_one_den` and `_reduce` are the two helpers that keep that layout,
and `_ratio` reads a coefficient out; `coeffs` and `terms` are built
from it once, on first read.

`pfq_ratio` is the one place the pFq term ratio is written, and
`_ratio_chain`, behind `phyperq_series` and `series_binpow` (a 1F0),
the chain of pFq terms that ratio drives (`phyperq_partial` sums its
coefficients).  A terminating pFq([-k] + upper; lower; 1) whose other
terms are ints is written out instead, as the int terminating sums
sum_j (-1)^j C(k, j) w_j of `_terminating_sums`, every k in one pass
(`closedform.stirling_hyp_check` reads it).
`certified_sum` is the one place that truncates an infinite series of
positive terms with a proven tail bound; `stirling.dobinski_sums` is its
caller.  Both loops run in unreduced integers (see their docstrings).
`factorial` is `math.factorial`, re-exported; nothing here keeps a memo.
"""

from __future__ import annotations

import sys
from itertools import islice
from math import comb, factorial, gcd, lcm, prod
from operator import add, mul
from typing import Callable, Iterable, NamedTuple, Sequence

__all__ = [
    "SeriesQ",
    "factorial",
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
    if isinstance(c, int):  # bool and other int subclasses
        return int(c)
    # looked up, not imported: a Fraction exists only once `fractions` is loaded
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(c, fractions.Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"coefficient must be rational, got {type(c).__name__}")


def _pair(p) -> tuple[int, int]:
    """A rational as an int (numerator, denominator) pair, denominator > 0.

    A rational goes through `_canonical`, so a float raises TypeError.  A
    pair passes as it is, reduced or not (the value is the same), so a
    caller can make its scalars as pairs and build no Fraction.
    """
    if type(p) is tuple:
        if len(p) == 2 and type(p[0]) is int and type(p[1]) is int and p[1] > 0:
            return p
        raise TypeError(f"rational pair must be two ints, denominator > 0, got {p!r}")
    p = _canonical(p)
    return p.numerator, p.denominator


def _pair_str(p) -> str:
    """A rational or pair as str(Fraction) prints it: reduced, "n" or "n/d"."""
    num, den = _pair(p)
    g = gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


def _to_one_den(values: Iterable) -> tuple[list, int]:
    """Rationals or int pairs as (int numerators, one int denominator), reduced.

    Each value goes through `_pair`; the denominator is the lcm of theirs,
    and one gcd pass divides out what a pair not reduced leaves over.
    """
    pairs = [_pair(c) for c in values]
    den = lcm(*[d for _, d in pairs])
    if den == 1:
        return [n for n, _ in pairs], 1
    return _reduce([n * (den // d) for n, d in pairs], den)


def _reduce(nums: Sequence[int], den: int) -> tuple[Sequence[int], int]:
    """nums/den with gcd(den, *nums) divided out, den made > 0; all zero gives den 1."""
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    if g == 1:
        return nums, den
    return [a // g for a in nums], den // g


def _ratio(a: int, den: int):
    """a/den read out by the `_canonical` rule."""
    return a if den == 1 else _ratios((a,), den)[0]


def _ratios(nums: Iterable[int], den: int) -> list:
    """Each a/den of nums read out by the `_canonical` rule, with one
    import of Fraction for them all."""
    if den == 1:
        return list(nums)
    from fractions import Fraction

    out = []
    for a in nums:
        q = Fraction(a, den)
        out.append(q.numerator if q.denominator == 1 else q)
    return out


def _rising(a, k: int) -> tuple[int, int]:
    """(a)_k = a(a+1)...(a+k-1) as an int pair: products over a's denominator^k."""
    num, den = _pair(a)
    out = 1
    for i in range(k):
        out *= num + i * den
    return out, den**k


def pochhammer(a, k: int):
    """Rising factorial (a)_k = a(a+1)...(a+k-1), read out from `_rising`."""
    return _ratio(*_rising(a, k))


class SeriesQ:
    """Truncated power series: order N (exclusive) and coefficients c_0..c_{N-1}.

    Stored as int numerators `nums` over one reduced int denominator `den`
    (den > 0, gcd(den, *nums) = 1), the layout of FLINT's fmpq_poly: a
    product is one int convolution and one gcd pass, a sum one lcm and an
    int add.  `coeffs` reads the canonical coefficients out, once.
    Binary operations clamp to the minimum order of the operands; a
    coefficient beyond the order of a series does not exist and is never
    reported as zero.
    """

    __slots__ = ("order", "nums", "den", "_coeffs")

    def __init__(self, order: int, coeffs: Iterable = ()):
        if order < 0:
            raise ValueError("order must be >= 0")
        nums, self.den = _to_one_den(islice(coeffs, order))
        nums.extend([0] * (order - len(nums)))
        self.order = order
        self.nums: tuple = tuple(nums)
        self._coeffs = None

    @classmethod
    def _from_ints(cls, order: int, nums: Sequence[int], den: int) -> "SeriesQ":
        """nums[:order] / den, reduced; len(nums) >= order and den != 0."""
        out = object.__new__(cls)
        out.order = order
        nums, out.den = _reduce(nums[:order], den)
        out.nums = tuple(nums)
        out._coeffs = None
        return out

    @property
    def coeffs(self) -> tuple:
        if self._coeffs is None:
            self._coeffs = tuple(_ratios(self.nums, self.den))
        return self._coeffs

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
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self) -> int:
        return hash((self.order, self.den, self.nums))

    def _add(self, other: "SeriesQ", sign: int) -> "SeriesQ":
        n = min(self.order, other.order)
        den = lcm(self.den, other.den)
        f, g = den // self.den, sign * (den // other.den)
        return SeriesQ._from_ints(
            n, [a * f + b * g for a, b in zip(self.nums[:n], other.nums)], den)

    def __add__(self, other: "SeriesQ") -> "SeriesQ":
        return self._add(other, 1)

    def __sub__(self, other: "SeriesQ") -> "SeriesQ":
        return self._add(other, -1)

    def __mul__(self, other: "SeriesQ") -> "SeriesQ":
        n = min(self.order, other.order)
        out = [0] * n
        b = other.nums
        for i, a in enumerate(self.nums[:n]):
            if a:
                out[i:] = map(add, out[i:], map(a.__mul__, b[:n - i]))
        return SeriesQ._from_ints(n, out, self.den * other.den)

    def scale(self, c) -> "SeriesQ":
        num, den = _pair(c)
        return SeriesQ._from_ints(self.order, [a * num for a in self.nums],
                                  self.den * den)

    def __repr__(self) -> str:
        return f"SeriesQ(order={self.order}, coeffs={list(self.coeffs)!r})"


def laguerre_poly(n: int) -> SeriesQ:
    """Laguerre polynomial L_n(y) = sum_k C(n,k) (-y)^k / k!: a `SeriesQ` of order n + 1."""
    if n < 0:
        raise ValueError("Laguerre index must be >= 0")
    top = factorial(n)  # over the one denominator n!
    return SeriesQ._from_ints(
        n + 1, [(-1) ** k * comb(n, k) * (top // factorial(k)) for k in range(n + 1)],
        top)


def series_exp(s: SeriesQ) -> SeriesQ:
    """exp of a series with zero constant term, via f' = s'·f, in ints.

    With s = a/d, f_m = N_m / (d^m m!) where N_0 = 1 and
    N_m = sum_j j a_j d^(j-1) N_(m-j) (m-1)!/(m-j)!, an int.
    """
    if s.order > 0 and s.nums[0] != 0:
        raise ValueError("series_exp needs a zero constant term")
    n, d = s.order, s.den
    if n == 0:
        return SeriesQ(0)
    weights = [0] + [j * s.nums[j] * d ** (j - 1) for j in range(1, n)]
    out = [1]
    for m in range(1, n):
        acc, fall = 0, 1  # fall = (m-1)!/(m-j)!
        for j in range(1, m + 1):
            if weights[j]:
                acc += weights[j] * out[m - j] * fall
            fall *= m - j
        out.append(acc)
    den = 1  # ends as the last denominator d^(n-1) (n-1)!
    for m in reversed(range(n)):
        out[m] *= den
        if m:
            den *= m * d
    return SeriesQ._from_ints(n, out, den)


def series_binpow(c, alpha, order: int) -> SeriesQ:
    """(1 + c·t)^alpha as a series in t, generalized binomial coefficients.

    c and alpha are rationals or int pairs (`_pair`).  The term ratio
    c (alpha - k)/(k + 1) is that of 1F0(-alpha;; -c t).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    (a_num, a_den), (c_num, c_den) = _pair(alpha), _pair(c)
    return _ratio_chain(*pfq_ratio([(-a_num, a_den)], [], (-c_num, c_den)), order)


def pfq_ratio(upper: Sequence, lower: Sequence, x):
    """The pFq term ratio t_{k+1}/t_k as two int-valued functions of k.

    t_{k+1}/t_k = x * prod(u+k) / ((k+1) * prod(l+k)) = ratio_num(k) /
    ratio_den(k), with every parameter denominator cleared:
    u + k = (u.num + k*u.den) / u.den.  Each parameter is a rational or
    its int (numerator, denominator) pair (`_pair`), x too, split before
    the functions are made; they read only those pairs.  ratio_den(k) is 0
    exactly when a lower parameter l = -k is a pole.  This is the only
    place the ratio is written; `phyperq_series` runs on it.
    """
    x_num, x_den = _pair(x)
    ups, lows = list(map(_pair, upper)), list(map(_pair, lower))
    c_num = x_num * prod(d for _, d in lows)
    c_den = x_den * prod(d for _, d in ups)
    g = gcd(c_num, c_den)
    c_num, c_den = c_num // g, c_den // g

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


def _ratio_chain(ratio_num, ratio_den, order: int) -> SeriesQ:
    """c_0 = 1, c_(k+1) = c_k ratio_num(k) / ratio_den(k), for k < order.

    The chain runs in unreduced ints and is scaled to its last
    denominator, so the series is built with one gcd pass.  It stops at
    the first zero coefficient (every later one is 0); a ratio_den of 0
    reached before that raises ZeroDivisionError.
    """
    nums, dens = [1], []
    for k in range(order - 1):
        b = ratio_den(k)
        if b == 0:
            raise ZeroDivisionError(
                f"lower parameter {-k} hits a pole at term {k + 1}")
        a = nums[-1] * ratio_num(k)
        if a == 0:
            break
        nums.append(a)
        dens.append(b)
    den = 1  # ends as the product of dens: the last denominator
    for k in reversed(range(len(nums))):
        nums[k] *= den
        if k:
            den *= dens[k - 1]
    nums.extend([0] * (order - len(nums)))
    return SeriesQ._from_ints(order, nums, den)


def phyperq_series(upper: Sequence, lower: Sequence, order: int) -> SeriesQ:
    """pFq as a series in its argument: c_k = prod(u)_k / (prod(l)_k k!), k < order.

    Each parameter is a rational or its int (numerator, denominator) pair.

    The one pFq term loop: the `pfq_ratio` chain in `_ratio_chain`.  A
    nonpositive-integer upper parameter ends the series (every later
    coefficient is 0); a pole (l + k = 0 for a lower parameter l) reached
    before that raises ZeroDivisionError.
    """
    return _ratio_chain(*pfq_ratio(upper, lower, 1), order)


def phyperq_partial(upper: Sequence, lower: Sequence, x, terms: int):
    """Exact partial sum of pFq: sum_{k<terms} c_k x^k, c_k from `phyperq_series`.

    At x = 0 only c_0 survives, but the chain still takes its first step,
    so a lower parameter 0 raises as it does for any other x.
    """
    x = _canonical(x)
    series = phyperq_series(upper, lower, terms if x else min(terms, 2))
    # Horner in ints with x = p/q: acc / (den q^(K-1)) for K coefficients
    p, q = x.numerator, x.denominator
    acc, q_pow = 0, 1
    for a in reversed(series.nums):
        acc = acc * p + a * q_pow
        q_pow *= q
    return _ratio(acc * q, series.den * q_pow)


def _terminating_sums(weights: Sequence[int]) -> list[int]:
    """sum_{j<=k} (-1)^j C(k, j) weights[j] for k < len(weights), in ints.

    This is a terminating pFq([-k] + upper; lower; 1) written out term by
    term, with weights[j] = prod(u)_j / prod(l)_j an int: (-k)_j / j! is
    (-1)^j C(k, j).  Pascal's row C(k, .) is built from the one before by
    addition, and each sum is one int dot product with the signed weights.
    """
    signed = [-w if j % 2 else w for j, w in enumerate(weights)]
    sums, row = [], []
    for _ in signed:
        row = [1, *map(add, row, row[1:]), 1] if row else [1]
        sums.append(sum(map(mul, row, signed)))
    return sums


class SumCertificate(NamedTuple):
    """Why a `certified_sum` total can be trusted.

    terms: how many terms were summed (t_0 .. t_{terms-1});
    ratio_cap: a bound on every term ratio t_{j+1}/t_j with j >= terms;
    tail_bound: 2 * t_terms, which bounds the discarded tail
    t_terms + t_{terms+1} + ... because ratio_cap <= 1/2.
    Both bounds are int (numerator, denominator) pairs, not reduced.
    """

    terms: int
    ratio_cap: tuple[int, int]
    tail_bound: tuple[int, int]


def certified_sum(
    ratio_num: Callable[[int], int],
    ratio_den: Callable[[int], int],
    ratio_cap: Callable[[int], tuple[int, int]],
    cutoff,
    weights: Callable[[int], Sequence[int]],
    max_terms: int = 200000,
) -> tuple[list[tuple[int, int]], SumCertificate]:
    """Sum rows of positive terms t_k = w(k) c_k with a proven tail bound.

    The chain c_0 = 1, c_{k+1} = c_k * ratio_num(k) / ratio_den(k) has
    int-valued ratio functions (ratio_num >= 0, ratio_den > 0), and row
    j's term k is weights(k)[j] * c_k with int weights >= 0.  The last
    row governs the stop: ratio_cap(k), an int pair, must bound every
    ratio t_{j+1}/t_j of that row for j > k and must not increase with k.
    After term k the sum stops once ratio_cap(k) <= 1/2 and 2 * t_{k+1}
    <= cutoff * max(S_k, 1), S_k being the last row's partial sum.  All
    later ratios are then at most 1/2, so the discarded tail t_{k+1} +
    t_{k+2} + ... is below 2 * t_{k+1}: within cutoff of S_k relative to
    it, or absolutely when S_k < 1.  This is the only place that argument
    is made.  Other rows need their own reason to share the stop.

    c_k is kept as num/den and each row's partial sum as sums[j]/den in
    unreduced ints (num <- num*a, sums[j] <- sums[j]*b + num*w[j],
    den <- den*b for a/b the ratio at k), and every stopping test is an
    exact integer cross-multiplication; nothing is reduced.  The cutoff
    is a rational or an int pair (`_pair`).  The cap is evaluated only
    until it first certifies <= 1/2 (it cannot rise again), and once more
    at the stop for the certificate.  Returns (one exact partial sum per
    row, as an int pair (sums[j], den), certificate); raises RuntimeError
    if terms t_0 .. t_{max_terms} do not certify.
    """
    cut_num, cut_den = _pair(cutoff)
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
            cap_num, cap_den = ratio_cap(k)
            capped = 2 * cap_num <= cap_den
        if capped:
            scale = sums[-1] * b
            if scale < den_next:
                scale = den_next
            if 2 * nxt * cut_den <= cut_num * scale:
                return [(s, den) for s in sums], SumCertificate(
                    k + 1, ratio_cap(k), (2 * nxt, den_next))
        sums = [s * b + num * wj for s, wj in zip(sums, w)]
        den = den_next
    raise RuntimeError("certified sum failed to reach its tail bound")
