"""Normal ordering: oracle vs contraction products, confluence, daggers,
number-state action, coherent expectations, diagonal reduction."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normord.backend import nf_mul
from normord.series import PolyQ, falling_factorial
from normord.weyl import (
    NormalForm,
    laguerre_derivative_nf,
    laguerre_derivative_word,
    normal_order_rewrite,
    word_product_normal_form,
    word_to_normal_form,
)
from oracles import normal_order_word_rightmost

words = st.lists(st.integers(min_value=0, max_value=1), min_size=0,
                 max_size=10).map(tuple)


def test_elementary_orderings():
    # a ad = ad a + 1
    assert word_to_normal_form((0, 1)).terms == {(1, 1): 1, (0, 0): 1}
    # already normal: unchanged
    assert word_to_normal_form((1, 1, 0)).terms == {(2, 1): 1}
    # a ad a = ad a^2 + a  (the r=1, M=1 operator)
    assert laguerre_derivative_nf(1, 1).terms == {(1, 2): 1, (0, 1): 1}
    # a^2 ad a = ad a^3 + 2 a^2  (the r=2, M=1 operator)
    assert laguerre_derivative_nf(2, 1).terms == {(1, 3): 1, (0, 2): 2}


def test_500_random_words_oracle_vs_product():
    rng = random.Random(20260816)
    for _ in range(500):
        w = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 10)))
        assert word_to_normal_form(w) == word_product_normal_form(w), w


@settings(max_examples=150)
@given(words)
def test_rewrite_confluence(w):
    assert word_to_normal_form(w) == normal_order_word_rightmost(w)


@settings(max_examples=60)
@given(words, st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=3))
def test_power_additivity(w, m, n):
    f = word_to_normal_form(w)
    assert f ** (m + n) == (f**m) * (f**n)


@settings(max_examples=100)
@given(words)
def test_dagger_involution_and_word_consistency(w):
    f = word_to_normal_form(w)
    assert f.dagger().dagger() == f
    # the dagger of a word reverses it and swaps a with a-dagger
    assert word_to_normal_form(tuple(1 - s for s in reversed(w))) == f.dagger()


def test_word_helpers():
    assert laguerre_derivative_word(2, 3) == (0, 0, 1, 0, 1, 0, 1, 0)


@pytest.mark.parametrize("r,M", [(1, 0), (1, 1), (1, 2), (2, 1), (2, 2), (3, 1)])
def test_number_state_action(r, M):
    # [D(r,M)]^n x^p = prod_{i<n} (p-ir)^(r falling) (p-ir)^M  x^(p-rn)
    for n in range(4):
        nf = laguerre_derivative_nf(r, M) ** n
        for p in range(13):
            expected = Fraction(1)
            for i in range(n):
                q = p - i * r
                if q < 0:
                    expected = Fraction(0)
                    break
                expected *= falling_factorial(q, r) * q**M
            got = nf.apply_to_monomial(p)
            target = p - r * n
            if expected:
                assert got == {target: expected}
            else:
                assert got == {}


def test_apply_matches_word_iteration():
    from normord.weyl import apply_word_to_monomial

    w = laguerre_derivative_word(2, 2)
    nf = word_to_normal_form(w)
    for p in range(10):
        assert nf.apply_to_monomial(p) == {
            k: v for k, v in apply_word_to_monomial(w, p).items() if v
        }


@settings(max_examples=60)
@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=3))
def test_positive_expectation_of_diagonal_products(ks):
    # product of diagonal operators (ad^k a^k): all coefficients nonnegative,
    # so the z=1 expectation must be strictly positive
    f = NormalForm.one()
    for k in ks:
        f = f * NormalForm.monomial(k, k)
    assert all(c >= 0 for c in f.terms.values())
    assert f.expectation_at_one() > 0


def test_coherent_expectation_exact_complex():
    f = NormalForm.monomial(2, 1, Fraction(3))
    # <z| ad^2 a |z> = 3 conj(z)^2 z at z = 1/2 + 1/3 i
    zr, zi = Fraction(1, 2), Fraction(1, 3)
    conj_sq = (zr * zr - zi * zi, -2 * zr * zi)
    re = conj_sq[0] * zr - conj_sq[1] * zi
    im = conj_sq[0] * zi + conj_sq[1] * zr
    assert f.coherent_expectation(zr, zi) == (3 * re, 3 * im)
    # z = 1 collapses to the coefficient sum
    assert f.coherent_expectation(1) == (Fraction(3), Fraction(0))
    assert f.expectation_at_one() == 3


def test_diagonal_reduce_examples():
    assert NormalForm.monomial(1, 1).diagonal_polynomial() == PolyQ((0, 1))
    two = NormalForm.monomial(2, 2) + NormalForm.monomial(1, 1)
    assert two.diagonal_polynomial() == PolyQ((0, 0, 1))
    d = laguerre_derivative_nf(1, 1)
    comm = d * d.dagger() - d.dagger() * d
    assert comm.diagonal_polynomial() == PolyQ((1, 3, 3))
    with pytest.raises(ValueError):
        NormalForm.monomial(2, 1).diagonal_polynomial()


def test_normal_order_rewrite_handles_sums():
    from normord.parser import parse_expr

    e = parse_expr("a*ad + ad*a")
    nf = normal_order_rewrite(e)
    assert nf.terms == {(1, 1): 2, (0, 0): 1}


def test_sorted_terms_order():
    f = NormalForm({(0, 1): Fraction(1), (2, 0): Fraction(1), (2, 3): Fraction(1)})
    assert [(d, a) for d, a, _ in f.sorted_terms()] == [(2, 3), (2, 0), (0, 1)]


def _nf_mul_by_closed_weights(a, b):
    """nf_mul with each weight k! C(q,k) C(r,k) formed on its own."""
    out = {}
    for (p, q), ca in a.items():
        for (r, s), cb in b.items():
            for k in range(min(q, r) + 1):
                key = (p + r - k, q + s - k)
                out[key] = out.get(key, 0) + ca * cb * (factorial(k) * comb(q, k) * comb(r, k))
    return {k: v for k, v in out.items() if v}


_forms = st.dictionaries(
    st.tuples(st.integers(0, 7), st.integers(0, 7)),
    st.one_of(st.integers(-50, 50), st.fractions(max_denominator=12)),
    max_size=6)


@settings(max_examples=200, deadline=None)
@given(_forms, _forms)
def test_nf_mul_running_weight_matches_closed_weights(a, b):
    # Fraction and negative coefficients: the running weight is an int,
    # and the coefficient product is never floor-divided
    assert nf_mul(a, b) == _nf_mul_by_closed_weights(a, b)


def test_product_keeps_the_coefficient_rule():
    # an all-int product and one that carries a Fraction both read out
    # as the normal form built from the raw contraction product
    d = laguerre_derivative_nf(2, 1)
    half = NormalForm({(1, 0): Fraction(1, 2), (0, 2): Fraction(2, 3)})
    for a, b in ((d, d), (d, half), (half, half), (d, NormalForm.zero())):
        got = a * b
        assert got == NormalForm(nf_mul(a.terms, b.terms))
        assert all(c and (type(c) is int or c.denominator > 1)
                   for c in got.terms.values())
    whole = half * NormalForm({(0, 0): 6})
    assert whole.terms == {(1, 0): 3, (0, 2): 4}
    assert {*map(type, whole.terms.values())} == {int}
