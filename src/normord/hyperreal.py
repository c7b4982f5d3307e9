"""Proven rational enclosures, the numeric side of `hyp-generating-function`.

Every input of that check is rational, so it needs no decimal number
type: e^x is enclosed between two exact rationals by
`series.certified_sum` with weight 1, and a value known only to lie in
[lo, hi] is judged against an exact one by the largest relative
deviation any point of [lo, hi] could have.  That is a tolerance test
proven rather than rounded: ball arithmetic (Johansson's Arb, van der
Hoeven's "Ball arithmetic") with rational endpoints.  Each rational
here is an int (numerator, denominator) pair (`series._pair`), taken in
as a rational or a pair and never reduced, so no Fraction is built.
"""

from __future__ import annotations

from .series import _pair, certified_sum

__all__ = ["exp_bounds", "rel_dev_bound"]


def exp_bounds(x, cutoff, max_terms: int = 200000):
    """(lo, hi, SumCertificate): int pairs with lo <= e^x <= hi <= lo + cutoff*hi.

    The partial sum E of sum_k |x|^k/k! stops with a proven tail
    T <= cutoff * E (E >= 1), so e^|x| lies in [E, E + T] and e^-|x| in
    [1/(E + T), 1/E].  Raises RuntimeError if max_terms terms do not certify.
    """
    x_num, q = _pair(x)
    if _pair(cutoff)[0] <= 0:
        raise ValueError("cutoff must be positive")
    p = abs(x_num)
    # every term ratio past term k + 1 is |x|/(j + 1) <= |x|/(k + 2)
    ((e_num, e_den),), cert = certified_sum(lambda k: p, lambda k: q * (k + 1),
                                            lambda k: (p, q * (k + 2)), cutoff,
                                            lambda k: (1,), max_terms)
    t_num, t_den = cert.tail_bound
    hi = (e_num * t_den + t_num * e_den, e_den * t_den)  # E + T
    if x_num < 0:
        return (hi[1], hi[0]), (e_den, e_num), cert
    return (e_num, e_den), hi, cert


def rel_dev_bound(lo, hi, exact) -> tuple[int, int]:
    """The most |v - exact| / max(|exact|, 1) can be for any v in [lo, hi],
    as an int pair."""
    (l_num, l_den), (h_num, h_den), (e_num, e_den) = _pair(lo), _pair(hi), _pair(exact)
    # max(hi - exact, exact - lo) over h_den e_den l_den; its e_den cancels
    # the one of max(|exact|, 1) = max(|e_num|, e_den) / e_den
    return (max((h_num * e_den - e_num * h_den) * l_den,
                (e_num * l_den - l_num * e_den) * h_den),
            h_den * l_den * max(abs(e_num), e_den))
