"""Proven rational enclosures: e^x at rationals and the relative-deviation bound."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normord.hyperreal import exp_bounds, rel_dev_bound

DIGITS = 300


def _check_enclosure(x: Fraction, cutoff: Fraction):
    lo, hi, cert = exp_bounds(x, cutoff)
    assert all(type(v) is int for v in (*lo, *hi)) and lo[1] > 0 and hi[1] > 0
    lo, hi = Fraction(*lo), Fraction(*hi)
    assert 0 <= hi - lo <= cutoff * hi
    assert cert.terms >= 1
    # every gap here is far wider than 10^-DIGITS, so rounding the endpoints
    # to DIGITS digits cannot turn a wrong order into a right one
    with mpmath.workdps(DIGITS):
        true = mpmath.exp(mpmath.mpf(x.numerator) / x.denominator)
        assert mpmath.mpf(lo.numerator) / lo.denominator <= true
        assert true <= mpmath.mpf(hi.numerator) / hi.denominator


@settings(max_examples=60, deadline=None)
@given(st.fractions(min_value=0, max_value=20, max_denominator=1000),
       st.integers(min_value=5, max_value=250))
def test_exp_enclosure_against_mpmath(x, digits):
    _check_enclosure(Fraction(x), Fraction(1, 10**digits))


@pytest.mark.parametrize("x", [Fraction(0), Fraction(1), Fraction(-3, 2),
                               Fraction(7, 5)])
def test_exp_against_mpmath(x):
    # a negative x is enclosed by the reciprocals of e^|x|'s bounds
    _check_enclosure(x, Fraction(1, 10**60))


def test_exp_enclosure_is_exact_at_zero():
    assert [Fraction(*b) for b in exp_bounds(0, Fraction(1, 10**30))[:2]] == [1, 1]
    with pytest.raises(ValueError):
        exp_bounds(1, 0)


def test_comparison_contract():
    # the most any point of [lo, hi] can deviate from the exact value,
    # relative to max(|exact|, 1): absolute below 1, relative above
    # (an int pair, read as the Fraction it stands for)
    def bound(lo, hi, exact):
        return Fraction(*rel_dev_bound(lo, hi, exact))

    third = Fraction(1, 3)
    assert bound(third, third + Fraction(1, 10**45), third) == Fraction(1, 10**45)
    assert bound(99, 101, 100) == Fraction(1, 100)
    assert bound(100, 100, 100) == 0
    # an interval that misses the exact value is judged by its far end
    assert bound(110, 120, 100) == Fraction(1, 5)
    assert bound(-3, -1, 0) == 3
    # the endpoints may be given as int pairs, reduced or not
    assert bound((-6, 2), (-2, 2), (0, 5)) == 3
