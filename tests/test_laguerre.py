"""Differential-operator calculus: eigenfunctions, Sheffer closed form,
EGF, the columns of exp(lambda D_x), and the double-dot series algebra."""

from fractions import Fraction

import pytest

from normord.laguerre import (
    DotSeries,
    DxOperator,
    apply_Dx,
    egf_bell_r1,
    eigenfunction_series,
    exp_D_r1_normal_form,
    exp_lambda_Dx_columns,
)
from normord.series import SeriesQ, factorial, laguerre_poly
from normord.stirling import gen_bell_number
from normord.weyl import NormalForm, laguerre_derivative_nf


def test_apply_dx_monomial():
    op = DxOperator(2, 1)
    s = SeriesQ(6, [0, 0, 0, 0, 0, 1])  # x^5
    out = apply_Dx(op, s)
    # (x d/dx) x^5 = 5 x^5, then d^2/dx^2: 5 * 5*4 x^3 = 100 x^3
    assert out.order == 4
    assert out.coeffs == (0, 0, 0, 100)


def test_columns_shrink_by_r():
    op = DxOperator(2, 0)
    s = SeriesQ(9, [Fraction(1)] * 9)
    cols = exp_lambda_Dx_columns(op, s, 3)
    assert [c.order for c in cols] == [9, 7, 5, 3]


@pytest.mark.parametrize("r,M", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3)])
def test_eigenfunction_property(r, M):
    order = 24
    e = eigenfunction_series(r, M, order)
    image = apply_Dx(DxOperator(r, M), e)
    assert image.coeffs == e.coeffs[: order - r]
    assert e.coeffs[0] == 1


def test_eigenfunction_r1_m1_values():
    # 0F1(;1; x): coefficient of x^k is 1/(k!)^2
    e = eigenfunction_series(1, 1, 6)
    assert e.coeffs == tuple(Fraction(1, factorial(k) ** 2) for k in range(6))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_sheffer_matches_oracle(r):
    rows = exp_D_r1_normal_form(r, 5)
    d = laguerre_derivative_nf(r, 1)
    power = NormalForm.one()
    for n in range(6):
        assert rows[n] == power, (r, n)
        power = power * d


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_egf_matches_bell_numbers(r):
    series = egf_bell_r1(r, 9)
    for n in range(9):
        assert factorial(n) * series.coeffs[n] == gen_bell_number(r, 1, n)


def test_dot_series_algebra():
    order = 6
    x = DotSeries.monomial(order, 1, 0, 1)  # lambda * a
    e = x.exp()
    assert e.lambda_coefficients()[3].terms == {(0, 3): Fraction(1, 6)}
    # binpow additivity in the exponent
    a = DotSeries.binpow(order, -1, 1, Fraction(-1, 2))
    b = DotSeries.binpow(order, -1, 1, Fraction(-3, 2))
    c = DotSeries.binpow(order, -1, 1, Fraction(-2))
    assert (a * b).lambda_coefficients() == c.lambda_coefficients()


def test_dot_series_exp_needs_positive_lambda_order():
    order = 4
    const = DotSeries.one(order)
    with pytest.raises(ValueError):
        const.exp()


def test_dot_series_lambda_coefficient_bounds():
    # one NormalForm per power below the truncation order, none past it
    s = DotSeries.one(3) + DotSeries.monomial(3, 2, 1, 4, Fraction(1, 2))
    coeffs = s.lambda_coefficients()
    assert len(coeffs) == 3
    assert [c.terms for c in coeffs] == [{(0, 0): 1}, {}, {(1, 4): Fraction(1, 2)}]
    with pytest.raises(IndexError):
        coeffs[3]


def test_laguerre_connection():
    # n-th lambda coefficient of exp(lambda D(1,1)) times n! is the
    # signed Laguerre row
    rows = exp_D_r1_normal_form(1, 4)
    for n in range(5):
        lag = laguerre_poly(n)
        expected = NormalForm(
            {
                (j, j + n): factorial(n) * lag.coeff(j) * (-1) ** j
                for j in range(n + 1)
            }
        )
        assert rows[n] == expected
