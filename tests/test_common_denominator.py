"""Series over one common denominator against pairwise-Fraction arithmetic.

`SeriesQ` and `DotSeries` keep int numerators over one reduced int
denominator.  The classes below are the pairwise-Fraction arithmetic they
replaced, kept here as an independent reference: every operation, and
every builder, must read out the same canonical coefficients as the
reference, an int when integral and a Fraction only when not.
"""

from fractions import Fraction
from itertools import count

from hypothesis import given, settings
from hypothesis import strategies as st

from normord.laguerre import DotSeries
from normord.series import SeriesQ, phyperq_series, series_binpow, series_exp


def canon(c):
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def is_canonical(c) -> bool:
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


class RefSeries:
    """Truncated series with canonical coefficients, multiplied pairwise."""

    def __init__(self, order, coeffs=()):
        cs = [canon(c) for c in list(coeffs)[:order]]
        self.order = order
        self.coeffs = tuple(cs + [0] * (order - len(cs)))

    def __add__(self, other):
        n = min(self.order, other.order)
        return RefSeries(n, [self.coeffs[i] + other.coeffs[i] for i in range(n)])

    def __sub__(self, other):
        n = min(self.order, other.order)
        return RefSeries(n, [self.coeffs[i] - other.coeffs[i] for i in range(n)])

    def __mul__(self, other):
        n = min(self.order, other.order)
        out = [0] * n
        for i, a in enumerate(self.coeffs[:n]):
            for j in range(n - i):
                out[i + j] += a * other.coeffs[j]
        return RefSeries(n, out)

    def scale(self, c):
        return RefSeries(self.order, [a * c for a in self.coeffs])


def ref_series_exp(s):
    out = [Fraction(1)] if s.order else []
    for m in range(1, s.order):
        out.append(sum((j * s.coeffs[j] * out[m - j] for j in range(1, m + 1)),
                       Fraction(0)) / m)
    return RefSeries(s.order, out)


def ref_series_binpow(c, alpha, order):
    out, coeff = [], Fraction(1)
    for k in range(order):
        out.append(coeff * Fraction(c) ** k)
        coeff = coeff * (alpha - k) / (k + 1)
    return RefSeries(order, out)


def ref_phyperq_series(upper, lower, order):
    out, term = [], Fraction(1)
    for k in range(order):
        out.append(term)
        if k + 1 == order:
            break
        if any(l + k == 0 for l in lower):
            raise ZeroDivisionError(k)
        for u in upper:
            term *= u + k
        for l in lower:
            term /= l + k
        term /= k + 1
        if term == 0:
            break
    return RefSeries(order, out)


class RefDot:
    """lambda-series {(n, dag, ann): canonical coefficient}, multiplied pairwise."""

    def __init__(self, order, terms=None):
        self.order = order
        self.terms = {}
        for key, c in (terms or {}).items():
            if key[0] < order and c:
                self.terms[key] = canon(c)

    def __add__(self, other):
        n = min(self.order, other.order)
        out = {k: v for k, v in self.terms.items() if k[0] < n}
        for k, v in other.terms.items():
            if k[0] < n:
                out[k] = out.get(k, 0) + v
        return RefDot(n, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return RefDot(self.order, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        n = min(self.order, other.order)
        out = {}
        for (n1, k1, l1), c1 in self.terms.items():
            for (n2, k2, l2), c2 in other.terms.items():
                if n1 + n2 < n:
                    key = (n1 + n2, k1 + k2, l1 + l2)
                    out[key] = out.get(key, 0) + c1 * c2
        return RefDot(n, out)

    def min_lambda_order(self):
        return min((k[0] for k in self.terms), default=self.order)

    def exp(self):
        acc = term = RefDot(self.order, {(0, 0, 0): 1})
        for k in range(1, (self.order - 1) // self.min_lambda_order() + 1):
            term = (term * self).scale(Fraction(1, k))
            acc = acc + term
        return acc

    def apply_function(self, taylor):
        acc = RefDot(self.order, {(0, 0, 0): taylor[0]} if taylor else {})
        term = RefDot(self.order, {(0, 0, 0): 1})
        for k in range(1, (self.order - 1) // self.min_lambda_order() + 1):
            term = term * self
            if k < len(taylor) and taylor[k]:
                acc = acc + term.scale(taylor[k])
        return acc


def assert_same_series(got, ref):
    assert got.order == ref.order
    assert got.coeffs == ref.coeffs
    assert all(is_canonical(c) for c in got.coeffs), got.coeffs
    # built from the reference coefficients it is the same value
    rebuilt = SeriesQ(ref.order, ref.coeffs)
    assert rebuilt == got and hash(rebuilt) == hash(got)
    assert (rebuilt.nums, rebuilt.den) == (got.nums, got.den)


def assert_same_dot(got, ref):
    assert got.order == ref.order
    assert got.terms == ref.terms
    assert all(is_canonical(c) for c in got.terms.values()), got.terms
    rebuilt = DotSeries(ref.order, ref.terms)
    assert (rebuilt.nums, rebuilt.den) == (got.nums, got.den)


values = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.just(0),
)
coeff_lists = st.lists(values, max_size=8)
orders = st.integers(min_value=0, max_value=8)


@settings(max_examples=200, deadline=None)
@given(orders, coeff_lists, orders, coeff_lists, values)
def test_series_arithmetic_equals_the_pairwise_reference(n, a, m, b, c):
    x, y = SeriesQ(n, a), SeriesQ(m, b)
    rx, ry = RefSeries(n, a), RefSeries(m, b)
    assert_same_series(x, rx)
    assert_same_series(x * y, rx * ry)
    assert_same_series(x + y, rx + ry)
    assert_same_series(x - y, rx - ry)
    assert_same_series(x.scale(c), rx.scale(canon(c)))
    assert_same_series(x - x, RefSeries(n))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=9), coeff_lists, values, values)
def test_series_builders_equal_the_pairwise_reference(order, tail, c, alpha):
    s = SeriesQ(order, [0] + tail)
    assert_same_series(series_exp(s), ref_series_exp(RefSeries(order, [0] + tail)))
    assert_same_series(series_binpow(c, alpha, order),
                       ref_series_binpow(canon(c), canon(alpha), order))


pfq_params = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.integers(min_value=-4, max_value=0).map(Fraction),
)


def _outcome(build):
    try:
        return build()
    except ZeroDivisionError:
        return None


@settings(max_examples=150, deadline=None)
@given(st.lists(pfq_params, max_size=3), st.lists(pfq_params, max_size=3), orders)
def test_phyperq_series_equals_the_pairwise_reference(upper, lower, order):
    got = _outcome(lambda: phyperq_series(upper, lower, order))
    ref = _outcome(lambda: ref_phyperq_series(upper, lower, order))
    assert (got is None) == (ref is None)
    if got is not None:
        assert_same_series(got, ref)


def test_integral_results_read_out_as_ints():
    half = SeriesQ(5, [Fraction(1, 2)] * 5)
    # e^x e^-x = 1, and 4 half^2 and half + half have integral coefficients
    one = series_exp(SeriesQ.x(6)) * series_exp(SeriesQ(6, [0, -1]))
    for s in (one, (half * half).scale(4), half + half, SeriesQ(3, [Fraction(6, 3)])):
        assert all(type(c) is int for c in s.coeffs), s
        assert s.den == 1
    assert one == SeriesQ.one(6) and hash(one) == hash(SeriesQ.one(6))
    zero = half - half
    assert zero.coeffs == (0,) * 5 and zero.den == 1 and zero == SeriesQ(5)
    assert SeriesQ(0).coeffs == () and SeriesQ(0) * SeriesQ(4) == SeriesQ(0)


def test_series_takes_any_iterable():
    assert SeriesQ(3, (i for i in range(3))).coeffs == (0, 1, 2)
    assert SeriesQ(5, iter([1, Fraction(1, 2)])).coeffs == (1, Fraction(1, 2), 0, 0, 0)
    # at most `order` items are consumed
    assert SeriesQ(4, count(1)).coeffs == (1, 2, 3, 4)
    assert SeriesQ(0, count()).coeffs == ()


keys = st.tuples(st.integers(min_value=0, max_value=5),
                 st.integers(min_value=0, max_value=3),
                 st.integers(min_value=0, max_value=3))
dot_terms = st.dictionaries(keys, values, max_size=6)
positive_terms = st.dictionaries(keys.filter(lambda k: k[0] >= 1), values,
                                 min_size=1, max_size=4)
dot_orders = st.integers(min_value=0, max_value=6)


@settings(max_examples=150, deadline=None)
@given(dot_orders, dot_terms, dot_orders, dot_terms, values)
def test_dot_series_arithmetic_equals_the_pairwise_reference(n, a, m, b, c):
    x, y = DotSeries(n, a), DotSeries(m, b)
    rx, ry = RefDot(n, a), RefDot(m, b)
    assert_same_dot(x, rx)
    assert_same_dot(x * y, rx * ry)
    assert_same_dot(x + y, rx + ry)
    assert_same_dot(x - y, rx - ry)
    assert_same_dot(x.scale(c), rx.scale(canon(c)))
    assert_same_dot(x - x, RefDot(n))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=6), positive_terms,
       st.lists(values, max_size=7))
def test_dot_series_exp_and_functions_equal_the_pairwise_reference(
        order, terms, taylor):
    x, rx = DotSeries(order, terms), RefDot(order, terms)
    assert_same_dot(x.exp(), rx.exp())
    assert_same_dot(x.apply_function(taylor),
                    rx.apply_function([canon(t) for t in taylor]))


def test_dot_series_integral_results_read_out_as_ints():
    t = DotSeries.monomial(6, 1, 1, 2, Fraction(1, 3))
    one = t.exp() * t.scale(-1).exp()
    assert one.terms == {(0, 0, 0): 1} and one.den == 1
    square = DotSeries.binpow(5, Fraction(1, 2), 1, 2).scale(4)
    assert square.terms == {(0, 0, 0): 4, (1, 0, 1): 4, (2, 0, 2): 1}
    assert all(type(c) is int for c in square.terms.values())
    assert (t - t).terms == {} and (t - t).den == 1
