"""Canonical coefficients: an int when integral, a Fraction only when not.

Every operation on `NormalForm` and `BosonExpr`, every route that
builds one, and both exact series containers (`SeriesQ`, `DotSeries`)
and their builders must hand back coefficients of that form, and never
a float.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normord.closedform import hyp_generating_function_check
from normord.graphs import enumerate_graphs
from normord.laguerre import (
    DotSeries,
    DxOperator,
    apply_Dx,
    eigenfunction_series,
    exp_D_r1_normal_form,
)
from normord.series import (
    SeriesQ,
    factorial,
    laguerre_poly,
    phyperq_series,
    pochhammer,
    series_binpow,
    series_exp,
)
from normord.hyperreal import exp_bounds, rel_dev_bound
from normord.report import IdentityReport
from normord.stirling import dobinski_sums, stirling_rows
from normord.suite import verify_exp_on_exponential, verify_exp_on_kummer
from normord.serialize import normal_form_to_json
from normord.weyl import (
    BosonExpr,
    NormalForm,
    laguerre_derivative_nf,
    laguerre_derivative_word,
    normal_order_power,
    normal_order_rewrite,
    normal_order_rook,
    word_product_normal_form,
    word_to_normal_form,
)
from oracles import (
    explicit_table,
    normal_form_from_json,
    normal_order_word_rightmost,
    poly_mul,
)


def canonical(c) -> bool:
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def all_canonical(x) -> bool:
    return all(canonical(c) for c in x.terms.values())


words = st.lists(st.integers(min_value=0, max_value=1), max_size=8).map(tuple)
# integral values drawn as Fractions too (Fraction(4, 2) and the like)
scalars = st.fractions(min_value=-4, max_value=4, max_denominator=4)
exprs = st.dictionaries(words, scalars, max_size=3).map(BosonExpr)


@settings(max_examples=150, deadline=None)
@given(exprs, exprs, scalars, st.integers(min_value=0, max_value=3))
def test_every_operation_returns_canonical_coefficients(x, y, c, p):
    assert all_canonical(x)
    for e in (x + y, x - y, x * y, x.scale(c), -x):
        assert all_canonical(e)
    f = normal_order_rook(x)
    g = normal_order_rewrite(y)
    for nf in (f, g, f + g, f - g, f * g, f.scale(c), c * f, f**p, f.dagger(),
               normal_form_from_json(normal_form_to_json(f))):
        assert all_canonical(nf)
        assert canonical(nf.expectation_at_one())
    assert all_canonical(normal_order_power(x, p))
    if f:
        assert all_canonical(enumerate_graphs(f, p))


@settings(max_examples=100, deadline=None)
@given(words)
def test_integer_words_give_int_coefficients(w):
    for nf in (normal_order_power(BosonExpr.from_word(w), 2),
               normal_order_rook(BosonExpr.from_word(w)),
               word_to_normal_form(w),
               normal_order_word_rightmost(w),
               word_product_normal_form(w)):
        assert nf.terms
        assert all(type(c) is int for c in nf.terms.values())


def test_powers_and_graph_counts_stay_int():
    d = laguerre_derivative_nf(2, 2)
    word = BosonExpr.from_word(laguerre_derivative_word(2, 2))
    for nf in (d**6, normal_order_power(word, 6), enumerate_graphs(d, 6),
               explicit_table(d, 2)):
        assert all(type(c) is int for c in nf.terms.values())
    assert type((d**6).expectation_at_one()) is int
    assert type(enumerate_graphs(d, 6).expectation_at_one()) is int
    assert all(type(c) is int for c in (d**3).coherent_expectation(2, 1))


def test_integral_fractions_collapse_to_int():
    half = NormalForm({(1, 0): Fraction(1, 2), (0, 0): Fraction(6, 3)})
    assert half.terms == {(1, 0): Fraction(1, 2), (0, 0): 2}
    assert type(half.terms[(0, 0)]) is int
    doubled = half.scale(2)
    assert doubled.terms == {(1, 0): 1, (0, 0): 4}
    assert all(type(c) is int for c in doubled.terms.values())
    assert type((half + half).terms[(1, 0)]) is int
    # equality and hashing do not depend on the type
    assert NormalForm({(0, 0): Fraction(3)}) == NormalForm({(0, 0): 3})
    assert hash(NormalForm({(0, 0): Fraction(3)})) == hash(NormalForm({(0, 0): 3}))
    assert half.coherent_expectation(2) == (3, 0)
    assert all(type(c) is int for c in half.coherent_expectation(2))


@pytest.mark.parametrize("bad", [0.5, 1.0, "1"])
def test_non_rational_coefficients_are_refused(bad):
    with pytest.raises(TypeError):
        NormalForm({(0, 0): bad})
    with pytest.raises(TypeError):
        BosonExpr({(): bad})
    with pytest.raises(TypeError):
        NormalForm.one().scale(bad)


def test_series_containers_hold_ints_and_refuse_floats():
    # a Bell row as a polynomial: a SeriesQ widened to its square's degree
    *_, row = stirling_rows(2, 2, 3)
    bell = SeriesQ(2 * len(row) - 1, row)
    assert list((bell * bell).coeffs) == poly_mul(row, row)
    ints = [bell * bell, SeriesQ(6, [Fraction(2), 1, 0]), SeriesQ.one(5) * SeriesQ.x(5),
            series_binpow(-2, -1, 8), phyperq_series([3], [], 8),
            apply_Dx(DxOperator(1, 1), SeriesQ(6, [1, 2, 3, 4, 5, 6])),
            # int numerators over a denominator that divides out
            series_exp(SeriesQ.x(6)) * series_exp(SeriesQ(6, [0, -1])),
            SeriesQ(4, [Fraction(1, 2)] * 4) + SeriesQ(4, [Fraction(3, 2)] * 4),
            eigenfunction_series(1, 1, 6).scale(factorial(5) ** 2)]
    for x in ints:
        assert all(type(c) is int for c in x.coeffs), x
    assert type(pochhammer(Fraction(3), 4)) is int
    assert type(pochhammer(Fraction(1, 2), 0)) is int
    # rational ones stay canonical: the integral entries are ints
    for x in (laguerre_poly(5), series_exp(SeriesQ.x(8)),
              series_binpow(-2, Fraction(-1, 2), 8), eigenfunction_series(2, 1, 9)):
        assert all(canonical(c) or c == 0 for c in x.coeffs), x
        assert type(x.coeffs[0]) is int
    ds = DotSeries(4, {(0, 0, 0): Fraction(3, 3), (1, 1, 2): 2})
    third = DotSeries.monomial(4, 1, 1, 2, Fraction(1, 3))
    for d in (ds, ds * ds, ds.scale(Fraction(2, 2)), ds + ds, ds - ds.scale(2),
              DotSeries.binpow(4, -1, 1, -1), third.exp() * third.scale(-1).exp(),
              DotSeries.binpow(4, Fraction(1, 2), 1, 2).scale(4)):
        assert all(type(c) is int for c in d.terms.values())
    for nf in exp_D_r1_normal_form(2, 4):
        assert all(type(c) is int for c in nf.terms.values())

    # a float is refused, not stored as its binary expansion
    for build in (lambda bad: SeriesQ(2, [bad]), lambda bad: SeriesQ.one(2).scale(bad),
                  lambda bad: DotSeries(2, {(0, 0, 0): bad}),
                  lambda bad: DotSeries.one(2).scale(bad),
                  lambda bad: pochhammer(bad, 2), lambda bad: series_binpow(bad, 1, 3),
                  lambda bad: phyperq_series([bad], [1], 3)):
        with pytest.raises(TypeError):
            build(0.1)


TOL = Fraction(1, 10**30)
NUMERIC_ENTRIES = {
    "dobinski_sums": lambda v: dobinski_sums(1, 1, 2, v, TOL, 1000),
    "dobinski_sums cutoff": lambda v: dobinski_sums(1, 1, 2, 1, v, 1000),
    "hyp-generating-function": lambda v: hyp_generating_function_check(1, 1, v, 3),
    "exp-exponential": lambda v: verify_exp_on_exponential(v, 6, 4),
    "exp-kummer": lambda v: verify_exp_on_kummer(v, 6, 4),
    "exp_bounds": lambda v: exp_bounds(v, TOL),
    "exp_bounds cutoff": lambda v: exp_bounds(1, v),
    "rel_dev_bound": lambda v: rel_dev_bound(v, 2, 1),
    "rel_dev_bound exact": lambda v: rel_dev_bound(0, 2, v),
}


# entry -> (call, a float it must refuse)
TOLERANCE_ENTRIES = {
    "hyp-generating-function": (
        lambda tol: hyp_generating_function_check(1, 1, 1, 3, tolerance=tol), 1e-30),
}


@pytest.mark.parametrize("entry", TOLERANCE_ENTRIES)
def test_tolerances_refuse_floats(entry):
    # a float tolerance would be judged by its binary expansion while the
    # report records its decimal spelling; the equal Fraction is taken
    call, bad = TOLERANCE_ENTRIES[entry]
    with pytest.raises(TypeError):
        call(bad)
    call(Fraction(bad))


def _timeless(out):
    """out with report timings dropped, for ==."""
    if isinstance(out, IdentityReport):
        return out._replace(elapsed=None)
    if isinstance(out, tuple):
        return tuple(map(_timeless, out))
    return out


@pytest.mark.parametrize("entry", NUMERIC_ENTRIES)
def test_numeric_entries_refuse_floats(entry):
    call = NUMERIC_ENTRIES[entry]
    with pytest.raises(TypeError):
        call(0.1)
    assert _timeless(call(1)) == _timeless(call(Fraction(1)))
