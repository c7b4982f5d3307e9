"""High-precision reals: exp at rationals and the comparison contract."""

from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest

from normord.hyperreal import HighPrecReal


def _against_mpmath(value: HighPrecReal, mp_thunk, digits: int):
    mpmath.mp.dps = digits + 10
    ref = Decimal(mpmath.nstr(mp_thunk(), digits + 5))
    got = value.value
    scale = max(abs(ref), Decimal(1))
    assert abs(got - ref) / scale < Decimal(10) ** -(digits - 2)


@pytest.mark.parametrize("x", [Fraction(0), Fraction(1), Fraction(-3, 2),
                               Fraction(7, 5)])
def test_exp_against_mpmath(x):
    e = HighPrecReal.exp_of(x, 50)
    _against_mpmath(
        e, lambda: mpmath.exp(mpmath.mpf(x.numerator) / x.denominator), 45
    )


def test_comparison_contract():
    a = HighPrecReal(Fraction(1, 3), 50)
    b = HighPrecReal(Fraction(1, 3), 50) + HighPrecReal(Fraction(1, 10**45), 50)
    assert a.agrees_with(b, Fraction(1, 10**30))
    assert not a.agrees_with(b, Fraction(1, 10**46))
    dev = a.rel_deviation(b)
    assert Decimal(0) < dev < Decimal("1e-40")
    tiny = HighPrecReal(Fraction(1, 10**35), 50)
    assert tiny.is_zero_within(Fraction(1, 10**30))
    assert not tiny.is_zero_within(Fraction(1, 10**40))


def test_constructor_accepts_strings_and_decimals():
    a = HighPrecReal("1.25", 40)
    b = HighPrecReal(Fraction(5, 4), 40)
    assert a.agrees_with(b, Fraction(1, 10**30))


def test_int_is_rounded_as_the_equal_fraction():
    # an exact rational value reads the same whatever its type
    big = 3**150 + 1
    a = HighPrecReal(big, 50)
    b = HighPrecReal(Fraction(big), 50)
    assert a.value == b.value
    assert len(a.value.as_tuple().digits) == 65
    assert a.rel_deviation(b) == 0
