"""Proven rational enclosures, the numeric side of `hyp-generating-function`.

Every input of that check is rational, so it needs no decimal number
type: e^x is enclosed between two exact rationals by
`series.certified_sum` with weight 1, and a value known only to lie in
[lo, hi] is judged against an exact one by the largest relative
deviation any point of [lo, hi] could have.  That is a tolerance test
proven rather than rounded: ball arithmetic (Johansson's Arb, van der
Hoeven's "Ball arithmetic") with rational endpoints.
"""

from fractions import Fraction

from .series import _canonical, certified_sum

__all__ = ["exp_bounds", "rel_dev_bound"]


def exp_bounds(x, cutoff, max_terms: int = 200000):
    """(lo, hi, SumCertificate): rationals with lo <= e^x <= hi <= lo + cutoff*hi.

    The partial sum E of sum_k |x|^k/k! stops with a proven tail
    T <= cutoff * E (E >= 1), so e^|x| lies in [E, E + T] and e^-|x| in
    [1/(E + T), 1/E].  Raises RuntimeError if max_terms terms do not certify.
    """
    x, cutoff = _canonical(x), _canonical(cutoff)
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    p, q = abs(x.numerator), x.denominator
    # every term ratio past term k + 1 is |x|/(j + 1) <= |x|/(k + 2)
    (total,), cert = certified_sum(lambda k: p, lambda k: q * (k + 1),
                                   lambda k: Fraction(p, q * (k + 2)), cutoff,
                                   lambda k: (1,), max_terms)
    if x < 0:
        return 1 / (total + cert.tail_bound), 1 / total, cert
    return total, total + cert.tail_bound, cert


def rel_dev_bound(lo, hi, exact) -> Fraction:
    """The most |v - exact| / max(|exact|, 1) can be for any v in [lo, hi]."""
    lo, hi, exact = _canonical(lo), _canonical(hi), _canonical(exact)
    return Fraction(max(hi - exact, exact - lo), max(abs(exact), 1))
