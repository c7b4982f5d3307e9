"""Generalized Stirling/Bell numbers: frozen sequences, classical anchors,
the recurrence-built triangle against its defining alternating sum,
first-kind identities, and the Dobinski sums."""

from fractions import Fraction
from functools import reduce
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normord.cache import load_triangle, triangle_path
from normord.hyperreal import exp_bounds, rel_dev_bound
from normord.series import factorial
from normord.stirling import (
    alternating_sum_rows,
    b_pp,
    bell_sequence,
    classical_bell,
    classical_rows,
    classical_stirling2,
    dobinski_sums,
    first_kind_rows,
    gen_bell_number,
    gen_stirling,
    stirling1_signless,
    stirling_rows,
)
from normord.weyl import word_to_normal_form
from oracles import poly_mul

# self-consistent values (every internal oracle and the catalogued
# A002720 entry give 13327 at n = 6)
SEQUENCES = {
    (1, 1): [1, 2, 7, 34, 209, 1546, 13327],
    (1, 2): [1, 5, 87, 2971, 163121, 12962661],
    (1, 3): [1, 15, 1657, 513559, 326922081, 363303011071],
    (2, 2): [1, 10, 339, 23395, 2682076, 457112571, 107943795145],
    (2, 3): [1, 37, 9415, 7063615, 11360980081, 33040809105661,
             156151310977544887],
    (3, 3): [1, 77, 39839, 62310039, 214107236041, 1358185668416501,
             14247249149298651007],
    (3, 4): [1, 372, 1905633, 43249617004, 2805942285116705,
             411223445534704016116, 117428972441699060660584977],
}


def test_frozen_bell_sequences():
    for (r, M), ref in SEQUENCES.items():
        assert bell_sequence(r, M, len(ref) - 1) == ref


def test_classical_anchors():
    assert classical_stirling2(4, 2) == 7
    assert classical_stirling2(5, 3) == 25
    assert [classical_bell(n) for n in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]
    # r = 0 regresses to the classical second-kind numbers
    for n in range(7):
        for k in range(n + 1):
            assert gen_stirling(0, 1, n, k) == classical_stirling2(n, k)


def test_r1_m1_closed_form():
    for n in range(9):
        for k in range(n + 2):
            assert gen_stirling(1, 1, n, k) == (
                factorial(n) // factorial(k) * comb(n, k) if k <= n else 0
            )


def test_row_edges():
    for r in (1, 2, 3):
        for M in (1, 2, 3):
            for n in (1, 2, 3, 4):
                assert gen_stirling(r, M, n, 0) == (factorial(n) * r**n) ** M
                assert gen_stirling(r, M, n, M * n) == 1
                assert gen_stirling(r, M, n, M * n + 1) == 0
                assert gen_stirling(r, M, n, M * n + 7) == 0


def test_recurrence_rows_match_alternating_sum():
    # M = 0 makes every row [1]; r = 0 drops the i*r shifts
    for r in range(5):
        for M in range(5):
            rows = list(stirling_rows(r, M, 25))
            assert rows == list(alternating_sum_rows(r, M, 25)), (r, M)
            if M == 0:
                assert rows == [[1]] * 26


def test_recurrence_r0_m1_is_classical_stirling2():
    for n, row in enumerate(stirling_rows(0, 1, 30)):
        assert row == [classical_stirling2(n, k) for k in range(n + 1)]


def _defining_sum(r, M, n):
    """Row n by (1/k!) sum_j C(k,j) (-1)^(k-j) P(j)^M, P(j) = prod_i (j + i*r)."""
    P = [prod(j + i * r for i in range(1, n + 1)) for j in range(M * n + 1)]
    return [Fraction(sum(comb(k, j) * (-1) ** (k - j) * P[j] ** M
                         for j in range(k + 1)), factorial(k))
            for k in range(M * n + 1)]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=10))
def test_alternating_sum_rows_are_the_defining_sum(r, M, n_max):
    rows = list(alternating_sum_rows(r, M, n_max))
    assert rows == [_defining_sum(r, M, n) for n in range(n_max + 1)]


def test_alternating_sum_rejects_a_non_integral_row():
    # r = 1/2 makes P(0) = 1/2 at n = 1, so the k = 0 division leaves a remainder
    with pytest.raises(ArithmeticError, match="non-integral .* n=1 k=0"):
        list(alternating_sum_rows(Fraction(1, 2), 1, 3))


def test_triangle_object_matches_function():
    rows = list(stirling_rows(2, 2, 5))
    assert len(rows) == 6
    for n in range(6):
        assert rows[n] == [gen_stirling(2, 2, n, k) for k in range(2 * n + 1)]


def test_compute_triangle_matches_gen_stirling():
    for r, M, n_max in ((0, 1, 12), (1, 1, 15), (2, 3, 8), (3, 0, 4)):
        rows = list(stirling_rows(r, M, n_max))
        assert len(rows) == n_max + 1
        for n, row in enumerate(rows):
            assert row == [gen_stirling(r, M, n, k) for k in range(M * n + 1)]


def test_render_triangle_pinned(tmp_path):
    # rendered by the alternating-sum build before rows came from the
    # recurrence; the cache format must not change with the builder
    list(load_triangle(2, 2, 3, tmp_path)[0])
    assert triangle_path(tmp_path, 2, 2, 3).read_bytes() == (
        b"normord-triangle-cache 2\nr 2\nM 2\nrows 4\n1\n4 5 1\n"
        b"64 161 95 18 1\n2304 8721 8559 3234 537 39 1\ncrc32 aa4eca7a\n"
    )


def _bell_row(r, M, n):
    """Row n of the triangle: the coefficients S_r^(M)(n, k), k = 0..M*n."""
    *_, row = stirling_rows(r, M, n)
    return list(row)


def _bell_poly(r, M, n, x):
    """B_r^(M)(n, x) = sum_k S_r^(M)(n, k) x^k, by Horner's rule over row n."""
    out = 0
    for c in reversed(_bell_row(r, M, n)):
        out = out * x + c
    return out


def _rising_product(r):
    """prod_{p=1}^{r} (x + p); its x^(k-1) coefficient is |sigma(r+1, k)|."""
    return reduce(poly_mul, ([p, 1] for p in range(1, r + 1)), [1])


def test_gen_bell_poly_structure():
    # row n=2 of S_2^(1): k = 0..2
    assert _bell_row(2, 1, 2) == [gen_stirling(2, 1, 2, k) for k in range(3)]
    assert gen_bell_number(2, 1, 2) == _bell_poly(2, 1, 2, 1)


def test_first_kind_signless():
    assert [stirling1_signless(4, k) for k in range(1, 5)] == [6, 11, 6, 1]
    assert _rising_product(3) == [6, 11, 6, 1]
    # the product's coefficients are the signless first-kind numbers
    for r in range(1, 9):
        assert _rising_product(r) == [stirling1_signless(r + 1, k) for k in range(1, r + 2)]


def test_first_kind_row_sums_and_range():
    assert sum(stirling1_signless(60, k) for k in range(1, 61)) == factorial(60)
    for r in (1, 5, 20):
        assert _rising_product(r) == [stirling1_signless(r + 1, k) for k in range(1, r + 2)]
    for n, k in ((0, 0), (3, 0), (3, 4), (-1, 1)):
        with pytest.raises(ValueError, match="out of range"):
            stirling1_signless(n, k)


def test_classical_tables_are_row_generators():
    # rows 0..n in order, row m holding k = 0..m; a drawn table is the
    # caller's own, so changing it changes no later draw
    second, first = list(classical_rows(30)), list(first_kind_rows(30))
    assert [len(row) for row in second] == [len(row) for row in first] == list(range(1, 32))
    assert list(map(sum, second)) == [classical_bell(n) for n in range(31)]
    assert list(map(sum, first)) == [factorial(n) for n in range(31)]
    assert second[30] == [classical_stirling2(30, k) for k in range(31)]
    assert first[30][1:] == [stirling1_signless(30, k) for k in range(1, 31)]
    second[4][2] += 1
    first[3][2] += 1
    assert classical_stirling2(4, 2) == 7 and stirling1_signless(3, 2) == 3
    assert list(classical_rows(4))[4] == [0, 1, 7, 6, 1]
    assert list(first_kind_rows(3))[3] == [0, 2, 3, 1]


def test_classical_tables_refuse_a_negative_index():
    for call in (lambda: classical_bell(-1), lambda: classical_stirling2(-1, 0),
                 lambda: classical_stirling2(2, -1), lambda: next(classical_rows(-1)),
                 lambda: next(first_kind_rows(-1))):
        with pytest.raises(ValueError, match="nonnegative"):
            call()


def test_rising_product_three_ways():
    # oracle a^r ad^r reduced to a diagonal polynomial, the product
    # (n+1)...(n+r), and the signless first-kind sum, for r <= 8
    for r in range(1, 9):
        word = (0,) * r + (1,) * r
        reduced = word_to_normal_form(word).diagonal_polynomial()
        assert list(reduced.coeffs) == _rising_product(r)
        assert list(reduced.coeffs) == [stirling1_signless(r + 1, k)
                                        for k in range(1, r + 2)]


def test_bell_diagonal_powers():
    for M in range(1, 4):
        for n in range(1, 5):
            assert gen_bell_number(1, M, n) == b_pp(n, M + 1)


def test_b_pp_frozen():
    assert b_pp(1, 2) == 2
    assert b_pp(2, 2) == 7
    assert b_pp(3, 2) == 34
    with pytest.raises(ValueError):
        b_pp(0, 2)


TOL = Fraction(1, 10**30)
# the sums and e^-x are enclosed to a quarter of TOL, so that the proven
# bound on the relative deviation, about twice the cutoff, is within TOL
CUTOFF = TOL / 4


def _deviation(total, x, exact):
    """Proven bound on |e^-x L - exact| / max(exact, 1) for the l-sum L whose
    `dobinski_sums` partial sum is total: L lies in [total, total + CUTOFF *
    max(total, 1)] and e^-x in its `exp_bounds` enclosure.  The sums, the
    enclosure and the bound are int pairs, read here as Fractions."""
    total = Fraction(*total)
    lo, hi = (Fraction(*b) for b in exp_bounds(-x, CUTOFF)[:2])
    return Fraction(*rel_dev_bound(lo * total, hi * (total + CUTOFF * max(total, 1)),
                                   exact))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=6),
       st.fractions(min_value=0, max_value=3, max_denominator=6))
def test_dobinski_sums_rows_are_bell_polynomials(r, M, n_max, x):
    sums, cert = dobinski_sums(r, M, n_max, x, CUTOFF, 100000)
    assert len(sums) == n_max + 1
    for n, total in enumerate(sums):
        ref = _bell_poly(r, M, n, x)
        assert _deviation(total, x, ref) <= TOL, (r, M, n, x)
        if x == 0:
            assert Fraction(*total) == (factorial(n) * r**n) ** M
        if (r, M) == (0, 1):  # Touchard polynomials, from the classical triangle
            touchard = sum(classical_stirling2(n, k) * x**k for k in range(n + 1))
            assert _deviation(total, x, touchard) <= TOL
    assert Fraction(*cert.ratio_cap) <= Fraction(1, 2)
    assert Fraction(*cert.tail_bound) <= CUTOFF * max(Fraction(*sums[-1]), 1)


def test_dobinski_sums_hit_bell_values():
    # r = 0 gives the classical Bell numbers and a zero first term; every
    # row of every call is enclosed, the lower rows by the top row's stop
    cases = {**SEQUENCES, (0, 1): [classical_bell(n) for n in range(8)]}
    for (r, M), ref in cases.items():
        for n in range(len(ref)):
            sums, cert = dobinski_sums(r, M, n, 1, CUTOFF, 100000)
            assert cert.terms >= 1
            for j, total in enumerate(sums):
                assert _deviation(total, 1, ref[j]) <= TOL, (r, M, n, j)


def test_dobinski_sums_polynomial_argument():
    for x in (Fraction(1, 2), Fraction(2)):
        sums, _ = dobinski_sums(2, 2, 3, x, CUTOFF, 100000)
        for n, total in enumerate(sums):
            assert _deviation(total, x, _bell_poly(2, 2, n, x)) <= TOL


def test_dobinski_rejects_bad_input():
    with pytest.raises(ValueError):
        dobinski_sums(1, 1, 2, -1, TOL, 1000)
    with pytest.raises(ValueError):
        dobinski_sums(1, 1, 2, 1, 0, 1000)
    with pytest.raises(ValueError):
        dobinski_sums(-1, 1, 2, 1, TOL, 1000)
    with pytest.raises(RuntimeError):
        dobinski_sums(1, 1, 2, 1, TOL, 3)


def test_oeis_anchor_a002720():
    # catalogued matching numbers: the (r,M) = (1,1) values are
    # n! * LaguerreL[n, -1] rounded exactly; first eight entries
    ref = [1, 2, 7, 34, 209, 1546, 13327, 130922]
    assert bell_sequence(1, 1, 7) == ref
