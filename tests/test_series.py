"""Exact series arithmetic: frozen values plus algebraic property tests."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normord.series import (
    SeriesQ,
    _terminating_sums,
    certified_sum,
    factorial,
    falling_factorial,
    laguerre_poly,
    phyperq_partial,
    phyperq_series,
    pochhammer,
    series_binpow,
    series_exp,
)

fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def test_factorial_binomial_falling():
    assert factorial(0) == 1
    assert factorial(6) == 720
    assert falling_factorial(7, 3) == 210
    assert falling_factorial(7, 3) // factorial(3) == 35  # C(7, 3)
    assert falling_factorial(2, 3) == 0
    assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)
    assert pochhammer(Fraction(3), 0) == 1


def test_laguerre_poly_frozen():
    # a polynomial is a SeriesQ one past its degree
    l2 = laguerre_poly(2)
    assert l2 == SeriesQ(3, [1, -2, Fraction(1, 2)])
    assert l2.coeffs == (1, -2, Fraction(1, 2))
    l3 = laguerre_poly(3)
    assert l3.order == 4
    assert l3.coeff(0) == 1  # L_n(0) = 1
    assert l3.coeff(3) == Fraction(-1, 6)


def test_series_exp_frozen():
    s = SeriesQ(5, [0, 1, 1, 0, 0])  # t + t^2
    e = series_exp(s)
    assert e.coeffs[0] == 1
    assert e.coeffs[1] == 1
    assert e.coeffs[2] == Fraction(3, 2)
    assert e.coeffs[3] == Fraction(7, 6)


def test_series_exp_needs_zero_constant():
    with pytest.raises(ValueError):
        series_exp(SeriesQ(3, [1, 0, 0]))


def test_series_binpow_frozen():
    # (1 - 2t)^(-1/2)
    s = series_binpow(-2, Fraction(-1, 2), 4)
    assert s.coeffs[0] == 1
    assert s.coeffs[1] == 1
    assert s.coeffs[2] == Fraction(3, 2)


def test_phyperq_partial_frozen():
    # upper (2)_k / lower (1)_k = k+1, squared, over k!: 1, 4, 9/2, ...
    val = phyperq_partial([2, 2], [1, 1], Fraction(1), 3)
    assert val == 1 + 4 + Fraction(9, 2)


def test_phyperq_partial_pole_guard():
    # a nonpositive-integer lower parameter is a pole once reached
    with pytest.raises(ZeroDivisionError):
        phyperq_partial([1], [-2], Fraction(1), 5)
    # but a terminating upper parameter stops the sum before the pole
    assert phyperq_partial([-1], [-2], Fraction(1), 5) == Fraction(3, 2)


def test_phyperq_series_matches_partial():
    s = phyperq_series([Fraction(3, 2)], [Fraction(1)], 6)
    for terms in range(1, 6):
        # partial sums at x=1 equal the series coefficients accumulated
        assert phyperq_partial([Fraction(3, 2)], [Fraction(1)], 1, terms) == sum(
            s.coeffs[:terms]
        )


def test_phyperq_series_stops_at_a_zero_term():
    # 1F1(-1; -2; x) ends at term 2, before the pole of (-2)_k at k = 3
    assert phyperq_series([-1], [-2], 5).coeffs == (1, Fraction(1, 2), 0, 0, 0)


def _plain_pfq_terms(upper, lower, x, count):
    """t_0 .. t_{count-1} of pFq(upper; lower; x) by the Fraction recurrence
    t_{k+1} = t_k x prod(u+k) / ((k+1) prod(l+k)), stopping at a zero term."""
    out = []
    term = Fraction(1)
    for k in range(count):
        out.append(term)
        if k + 1 == count:
            break
        if any(l + k == 0 for l in lower):
            raise ZeroDivisionError(f"pole at term {k + 1}")
        for u in upper:
            term *= u + k
        for l in lower:
            term /= l + k
        term = term * x / (k + 1)
        if term == 0:
            break
    return out + [Fraction(0)] * (count - len(out))


def _outcome(f, *args):
    try:
        return f(*args)
    except ZeroDivisionError:
        return ZeroDivisionError


# nonpositive integers make upper parameters terminate and lower ones poles
pfq_params = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.integers(min_value=-4, max_value=0).map(Fraction),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(pfq_params, max_size=3), st.lists(pfq_params, max_size=3),
       st.fractions(min_value=-3, max_value=3, max_denominator=5),
       st.integers(min_value=0, max_value=10))
def test_phyperq_equals_the_plain_recurrence(upper, lower, x, count):
    series = _outcome(lambda: phyperq_series(upper, lower, count).coeffs)
    plain = _outcome(lambda: tuple(_plain_pfq_terms(upper, lower, 1, count)))
    assert series == plain
    partial = _outcome(phyperq_partial, upper, lower, x, count)
    plain = _outcome(lambda: sum(_plain_pfq_terms(upper, lower, x, count),
                                 Fraction(0)))
    assert partial == plain


@settings(max_examples=100, deadline=None)
@given(st.lists(pfq_params, max_size=3), st.lists(pfq_params, max_size=3),
       st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=8))
def test_parameter_pairs_are_their_rationals(upper, lower, scale, count):
    # a parameter may come as an int (numerator, denominator) pair, in
    # lowest terms or not: the series is that of the rational
    def pairs(params):
        return [(p.numerator * scale, p.denominator * scale) for p in params]
    series = _outcome(lambda: phyperq_series(upper, lower, count + 1))
    assert _outcome(lambda: phyperq_series(pairs(upper), pairs(lower), count + 1)) \
        == series


@pytest.mark.parametrize("bad", [(0.5, 1), (1, 0), (1, -2), (1, 2, 3), (Fraction(1, 2), 1)])
def test_bad_parameter_pair_raises(bad):
    with pytest.raises(TypeError):
        phyperq_series([bad], [1], 3)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=12),
       st.data())
def test_terminating_sums_are_the_pfq_partial_sums(M, n, data):
    # stirling-hyp's int sums against the generic pFq chain: one row's
    # weights C(n+j, j)^M, to two past the row's width Mn
    k = data.draw(st.integers(min_value=0, max_value=M * n + 2))
    sums = _terminating_sums([comb(n + j, j) ** M for j in range(M * n + 3)])
    assert sums[k] == phyperq_partial([-k] + [n + 1] * M, [1] * M, 1, k + 1)


def test_terminating_sums_frozen():
    # sum_j (-1)^j C(k, j) w_j for w = 1, 3, 6: 1, 1 - 3, 1 - 6 + 6
    assert _terminating_sums([1, 3, 6]) == [1, -2, 1]
    assert _terminating_sums([]) == []


@settings(max_examples=60)
@given(st.lists(fractions, min_size=0, max_size=5),
       st.lists(fractions, min_size=0, max_size=5))
def test_series_exp_additivity(a_tail, b_tail):
    order = 7
    a = SeriesQ(order, [Fraction(0)] + a_tail + [Fraction(0)] * (order - 1 - len(a_tail)))
    b = SeriesQ(order, [Fraction(0)] + b_tail + [Fraction(0)] * (order - 1 - len(b_tail)))
    assert series_exp(a + b) == series_exp(a) * series_exp(b)


@settings(max_examples=60)
@given(fractions, fractions, st.integers(min_value=-3, max_value=3))
def test_series_binpow_additivity(alpha, beta, c):
    order = 6
    lhs = series_binpow(c, alpha, order) * series_binpow(c, beta, order)
    rhs = series_binpow(c, alpha + beta, order)
    assert lhs == rhs


@settings(max_examples=40)
@given(st.lists(st.fractions(min_value=Fraction(1, 4), max_value=4,
                             max_denominator=4), min_size=1, max_size=3),
       st.integers(min_value=1, max_value=8))
def test_phyperq_upper_equals_lower_collapses(params, terms):
    # identical upper and lower parameter lists leave the exponential series
    val = phyperq_partial(params, params, Fraction(1), terms)
    assert val == sum(Fraction(1, factorial(k)) for k in range(terms))


def test_results_reproducible():
    a = series_binpow(-3, Fraction(-1, 3), 9)
    b = series_binpow(-3, Fraction(-1, 3), 9)
    assert a == b and a.coeffs == b.coeffs
    x = phyperq_partial([Fraction(5, 2)], [1, 1], Fraction(2, 3), 20)
    y = phyperq_partial([Fraction(5, 2)], [1, 1], Fraction(2, 3), 20)
    assert x == y


def test_equal_series_hash_equal():
    # built from canonical coefficients, from ints, and as a product
    a = SeriesQ(4, [Fraction(1, 2), 1, Fraction(-3, 4)])
    b = SeriesQ._from_ints(4, [2, 4, -3, 0], 4)
    c = SeriesQ(4, [1, 2, Fraction(-3, 2)]) * SeriesQ(4, [Fraction(1, 2)])
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)
    assert len({a, b, c, SeriesQ(3, a.coeffs)}) == 2


def test_series_coeff_out_of_range():
    s = SeriesQ(3, [1, 2, 3])
    with pytest.raises(IndexError):
        s.coeff(3)


def test_certified_sum_rows_stop_with_the_last_row():
    # rows k^0, k^1, k^2 times 3^k/k!: e^3 * (1, 3, 12); the last row's
    # ratio 3(j+1)/j^2 falls with j, so its value at j = k+1 is the cap
    # the cap, the sums and the certificate's bounds are int pairs
    cutoff = Fraction(1, 10**30)
    cap = lambda k: Fraction(3 * (k + 2), (k + 1) ** 2)
    totals, cert = certified_sum(lambda k: 3, lambda k: k + 1,
                                 lambda k: (3 * (k + 2), (k + 1) ** 2), cutoff,
                                 weights=lambda k: (1, k, k * k))
    totals = [Fraction(*total) for total in totals]
    plain = [sum(Fraction(k**j * 3**k, factorial(k)) for k in range(cert.terms))
             for j in range(3)]
    assert totals == plain
    assert Fraction(*cert.ratio_cap) == cap(cert.terms - 1) <= Fraction(1, 2)
    nxt = Fraction(cert.terms**2 * 3**cert.terms, factorial(cert.terms))
    assert Fraction(*cert.tail_bound) == 2 * nxt <= cutoff * totals[-1]
    long = sum(Fraction(k * k * 3**k, factorial(k)) for k in range(cert.terms + 80))
    assert 0 < long - totals[-1] <= Fraction(*cert.tail_bound)
    # and it stops at the first term where the rule holds
    partial = Fraction(0)
    for k in range(cert.terms - 1):
        partial += Fraction(k * k * 3**k, factorial(k))
        nxt_k = Fraction((k + 1) ** 2 * 3 ** (k + 1), factorial(k + 1))
        assert 2 * cap(k) > 1 or 2 * nxt_k > cutoff * max(partial, 1)


def test_certified_sum_budget_is_loud():
    # the cap never reaches 1/2
    with pytest.raises(RuntimeError):
        certified_sum(lambda k: 1, lambda k: 1, lambda k: (1, 1),
                      Fraction(1, 10), weights=lambda k: (1,), max_terms=50)
    with pytest.raises(RuntimeError):
        certified_sum(lambda k: 50, lambda k: k + 1, lambda k: (50, k + 2),
                      Fraction(1, 10**30), weights=lambda k: (1,), max_terms=10)
