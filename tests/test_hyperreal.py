"""High-precision reals: gamma at rationals, exp, pi, comparison contract."""

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


def test_gamma_half_is_sqrt_pi():
    g = HighPrecReal.gamma(Fraction(1, 2), 60)
    sp = HighPrecReal.pi(60).sqrt()
    assert g.agrees_with(sp, Fraction(1, 10**40))


def test_gamma_five_halves():
    g = HighPrecReal.gamma(Fraction(5, 2), 60)
    ref = HighPrecReal.pi(60).sqrt() * HighPrecReal(Fraction(3, 4), 60)
    assert g.agrees_with(ref, Fraction(1, 10**40))


def test_gamma_negative_half():
    g = HighPrecReal.gamma(Fraction(-1, 2), 60)
    ref = HighPrecReal.pi(60).sqrt() * HighPrecReal(-2, 60)
    assert g.agrees_with(ref, Fraction(1, 10**40))


def test_gamma_reflection_thirds():
    # gamma(1/3) gamma(2/3) = 2 pi / sqrt(3)
    prod = HighPrecReal.gamma(Fraction(1, 3), 60) * HighPrecReal.gamma(
        Fraction(2, 3), 60
    )
    ref = HighPrecReal.pi(60) * HighPrecReal(2, 60) / HighPrecReal(3, 60).sqrt()
    assert prod.agrees_with(ref, Fraction(1, 10**40))


def test_gamma_integer_is_factorial():
    assert HighPrecReal.gamma(Fraction(6), 50).agrees_with(
        HighPrecReal(120, 50), Fraction(1, 10**35)
    )


def test_gamma_pole_raises():
    with pytest.raises((ValueError, ZeroDivisionError)):
        HighPrecReal.gamma(Fraction(0), 50)
    with pytest.raises((ValueError, ZeroDivisionError)):
        HighPrecReal.gamma(Fraction(-3), 50)


@pytest.mark.parametrize(
    "q", [Fraction(1, 2), Fraction(1, 3), Fraction(5, 4), Fraction(7, 3),
          Fraction(-1, 2), Fraction(-5, 3), Fraction(13, 6)]
)
def test_gamma_against_mpmath(q):
    g = HighPrecReal.gamma(q, 50)
    _against_mpmath(
        g, lambda: mpmath.gamma(mpmath.mpf(q.numerator) / q.denominator), 45
    )


@pytest.mark.parametrize("x", [Fraction(0), Fraction(1), Fraction(-3, 2),
                               Fraction(7, 5)])
def test_exp_against_mpmath(x):
    e = HighPrecReal.exp_of(x, 50)
    _against_mpmath(
        e, lambda: mpmath.exp(mpmath.mpf(x.numerator) / x.denominator), 45
    )


def test_pi_against_mpmath():
    _against_mpmath(HighPrecReal.pi(60), lambda: +mpmath.pi, 55)


def test_sqrt_and_pow():
    two = HighPrecReal(2, 50)
    s = two.sqrt()
    assert (s * s).agrees_with(two, Fraction(1, 10**40))
    assert two.pow_int(10).agrees_with(HighPrecReal(1024, 50), Fraction(1, 10**40))
    inv = two.pow_int(-2)
    assert inv.agrees_with(HighPrecReal(Fraction(1, 4), 50), Fraction(1, 10**40))


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
