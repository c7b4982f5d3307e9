"""Hypergeometric closed forms, worked expansions, and probe plumbing."""

from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normord import closedform
from normord.closedform import (
    CLOSED_FORM_KINDS,
    EXAMPLE_IDS,
    bessel_parity_check,
    conjecture_probe,
    example_normal_forms,
    hyp_closed_form_check,
    hyp_generating_function_check,
    hyp_sum_adaptive,
)
from normord.series import SeriesQ, certified_sum, pfq_ratio, phyperq_series
from normord.stirling import gen_bell_poly
from normord.suite import run_identity
from normord.weyl import NormalForm


def test_hyp_sum_adaptive_exponential():
    # upper = lower cancels to e^x
    val = hyp_sum_adaptive([Fraction(2)], [Fraction(2)], Fraction(1), prec=40)
    e_partial = sum(Fraction(1, _fact(k)) for k in range(60))
    assert abs(val - e_partial) < Fraction(1, 10**40)


def _fact(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def test_hyp_sum_adaptive_guards():
    with pytest.raises(ValueError):
        hyp_sum_adaptive([1, 2], [1], Fraction(1))  # p > q
    with pytest.raises(ValueError):
        hyp_sum_adaptive([-1], [1], Fraction(1))  # nonpositive parameter
    with pytest.raises(ValueError):
        hyp_sum_adaptive([1], [1], Fraction(-1))  # negative argument


def test_hyp_sum_adaptive_budget_exhaustion_is_loud():
    with pytest.raises(RuntimeError):
        hyp_sum_adaptive([1], [1], Fraction(50), max_terms=10)


def _fraction_loop_hyp_sum(upper, lower, x, prec, max_terms=200000):
    """The Fraction loop hyp_sum_adaptive ran before `certified_sum`."""
    upper = [Fraction(u) for u in upper]
    lower = [Fraction(l) for l in lower]
    x = Fraction(x)
    if x == 0:
        return Fraction(1)
    cutoff = Fraction(1, 10 ** (prec + 10))
    total = Fraction(0)
    term = Fraction(1)
    k = 0
    while True:
        total += term
        num = Fraction(1)
        for u in upper:
            num *= u + k
        den = Fraction(k + 1)
        for l in lower:
            den *= l + k
        nxt = term * num / den * x
        ratio_cap = x / (k + 2)
        for u, l in zip(upper, lower):
            ratio_cap *= max(Fraction(1), (u + k + 1) / (l + k + 1))
        for l in lower[len(upper):]:
            ratio_cap /= l + k + 1
        if ratio_cap <= Fraction(1, 2) and 2 * nxt <= cutoff * total:
            return total
        term = nxt
        k += 1
        assert k <= max_terms


def _plain_partial_sum(upper, lower, x, terms):
    total = Fraction(0)
    term = Fraction(1)
    for k in range(terms):
        total += term
        for u in upper:
            term *= u + k
        for l in lower:
            term /= l + k
        term *= x / (k + 1)
    return total


def _mpf(q):
    return mpmath.mpf(q.numerator) / q.denominator


params = st.fractions(min_value=Fraction(1, 8), max_value=4, max_denominator=8)


@st.composite
def pfq_cases(draw):
    q = draw(st.integers(min_value=0, max_value=3))
    p = draw(st.integers(min_value=0, max_value=q))
    upper = draw(st.lists(params, min_size=p, max_size=p))
    lower = draw(st.lists(params, min_size=q, max_size=q))
    x = draw(st.fractions(min_value=0, max_value=4, max_denominator=10))
    return upper, lower, x


@settings(max_examples=60, deadline=None)
@given(pfq_cases())
def test_certified_hyp_sum_matches_plain_sum_and_mpmath(case):
    upper, lower, x = case
    prec = 20
    value = hyp_sum_adaptive(upper, lower, x, prec)
    (total,), cert = certified_sum(*pfq_ratio(upper, lower, x),
                                   closedform._pfq_cap(upper, lower, x),
                                   Fraction(1, 10 ** (prec + 10)))
    assert value == total
    assert value == _plain_partial_sum(upper, lower, x, cert.terms)
    assert value == _fraction_loop_hyp_sum(upper, lower, x, prec)
    assert cert.ratio_cap <= Fraction(1, 2)
    assert cert.tail_bound <= Fraction(1, 10 ** (prec + 10)) * value
    # the full sum lies in [value, value + tail_bound]
    with mpmath.workdps(prec + 20):
        full = mpmath.hyper([_mpf(u) for u in upper], [_mpf(l) for l in lower],
                            _mpf(x))
        slack = full * mpmath.mpf(10) ** -(prec + 15)
        assert _mpf(value) - slack <= full <= _mpf(value + cert.tail_bound) + slack


def test_suite_hyp_sums_equal_the_fraction_loop(monkeypatch):
    # every pFq the suite's five conjecture probes evaluate
    calls = []

    def recording(upper, lower, x, prec=closedform.DEFAULT_PRECISION, max_terms=200000):
        out = hyp_sum_adaptive(upper, lower, x, prec, max_terms)
        calls.append((upper, lower, x, prec, out))
        return out

    monkeypatch.setattr(closedform, "hyp_sum_adaptive", recording)
    assert len(run_identity("conjecture", precision=60)) == 5
    assert len(calls) > 20
    for upper, lower, x, prec, out in calls:
        assert out == _fraction_loop_hyp_sum(upper, lower, x, prec)


def test_kummer_taylor():
    # 1F1(b;1;x) coefficients (b)_k / (k!)^2 at b = 3
    taylor = phyperq_series([Fraction(3)], [Fraction(1)], 4).coeffs
    assert taylor == (1, 3, 3, Fraction(5, 3))


@pytest.mark.parametrize("kind,M", [("stirling-hyp", 1), ("stirling-hyp", 3),
                                    ("bell-hyp-r1", 2), ("bell-hyp-r2", 1),
                                    ("bell-hyp-r3", 1)])
def test_exact_closed_forms(kind, M):
    rep = hyp_closed_form_check(kind, closedform.CLOSED_FORMS[kind][0], M, 4)
    assert rep.status == "pass"
    assert rep.mode == "exact"
    assert rep.tolerance is None


def _paper_gamma_form(r, M, n, x):
    """e^-x times the paper's Dobinski closed form for r = 2 or 3, in mpmath."""
    g, pi, hyp = mpmath.gamma, mpmath.pi, mpmath.hyper
    third, half = mpmath.mpf(1) / 3, mpmath.mpf(1) / 2
    fact = mpmath.factorial(n)
    if r == 2:
        z = x * x / 4
        fa = hyp([n + 1] * M, [1] * M + [half], z)
        fb = hyp([n + 1 + half] * M, [1 + half] * (M + 1), z)
        sum_ = (fact**M * fa * pi ** (M * half)
                + 2**M * g(n + 1 + half) ** M * x * fb)
        return 2 ** (M * n) * mpmath.exp(-x) * sum_ / pi ** (M * half)
    z = x**3 / 27
    f1 = hyp([n + 1] * M, [1] * M + [third, 2 * third], z)
    f2 = hyp([n + 1 + third] * M, [1 + third] * (M + 1) + [2 * third], z)
    f3 = hyp([n + 1 + 2 * third] * M, [1 + 2 * third] * (M + 1) + [1 + third], z)
    g23 = g(2 * third)
    t1 = 2 ** (M + 1) * 3 ** (M * n) * (pi * fact * g23) ** M * f1
    t2 = (2 * 3 ** (M * n + M) * mpmath.sqrt(3) ** M
          * (g23**2 * g(n + 1 + third)) ** M * x * f2)
    t3 = 3 ** (M * (n + 1)) * (pi * g(n + 1 + 2 * third)) ** M * x**2 * f3
    return mpmath.exp(-x) * (t1 + t2 + t3) / (2 ** (M + 1) * (pi * g23) ** M)


@pytest.mark.parametrize("r", [2, 3])
def test_paper_gamma_form_is_the_bell_polynomial(r):
    # the paper's r = 2, 3 right sides, gamma prefactors and all, that the
    # exact check reduces to rational pFq series
    with mpmath.workdps(60):
        for M in (1, 2):
            for n in range(4):
                bell = gen_bell_poly(r, M, n)
                for x in (Fraction(1, 2), Fraction(2)):
                    got = _paper_gamma_form(r, M, n, _mpf(x))
                    want = _mpf(bell.eval(x))
                    assert abs(got - want) <= mpmath.mpf(10) ** -40 * abs(want)


def test_closed_form_kind_and_r_must_agree():
    with pytest.raises(ValueError):
        hyp_closed_form_check("bell-hyp-r2", 1, 1, 3)
    with pytest.raises(ValueError):
        hyp_closed_form_check("nonsense", 1, 1, 3)


def test_generating_function_check_passes():
    rep = hyp_generating_function_check(1, 1, Fraction(1), 5)
    assert rep.status == "pass"
    assert rep.mode == "numeric"
    assert rep.details["first_mismatch"] is None


def test_generating_function_records_its_certificate():
    rep = hyp_generating_function_check(1, 1, Fraction(1), 6)
    details = rep.details
    assert details["outer_terms"] == 51
    assert Decimal(details["ratio_cap"]) <= Decimal("0.5")
    # the cutoff 10^-60 relative to the top row's sum e * B(6, 1) < 3 * 130922
    assert 0 < Decimal(details["tail_bound"]) <= Decimal("1e-60") * 3 * 130922


def test_generating_function_budget_report():
    rep = hyp_generating_function_check(1, 1, Fraction(1), 5, max_terms=3)
    assert rep.status == "fail"
    assert "tail bound" in rep.details["first_mismatch"]["reason"]


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_examples_pass(example_id):
    rep = example_normal_forms(example_id, 5)
    assert rep.status == "pass", rep
    assert rep.details["first_mismatch"] is None


def test_example_unknown_id():
    with pytest.raises(ValueError):
        example_normal_forms("not-an-example", 4)


def test_example_mismatch_reporting_shape():
    # shrink the truncation to still-consistent orders; reports carry the
    # identity id and parameter block in every case
    rep = example_normal_forms("bessel-j0", 3)
    assert rep.identity == "bessel-j0"
    assert rep.status == "pass"
    assert rep.parameters == {"r": 1, "M": 1, "lambda_order": 3}


def test_example_failure_reports_first_mismatch(monkeypatch):
    real = closedform._oracle_powers

    def planted(r, M, n_max):
        powers = real(r, M, n_max)
        terms = dict(powers[2].terms)
        terms[(2, 4)] += 1
        terms[(0, 2)] += 1
        powers[2] = NormalForm(terms)
        return powers

    monkeypatch.setattr(closedform, "_oracle_powers", planted)
    rep = example_normal_forms("laguerre-ogf", 4)
    assert rep.status == "fail"
    # entries are scanned from the highest (dag, ann) down; the row leads
    first = rep.details["first_mismatch"]
    assert list(first) == ["lambda", "dag", "ann", "left", "right"]
    assert first == {"lambda": 2, "dag": 2, "ann": 4, "left": "1", "right": "1/2"}


def test_kummer_b3half_judges_every_differing_entry(monkeypatch):
    # a fault within tolerance on the highest entry must not hide a gross
    # one on the lowest entry of the same lambda power
    real = closedform._kummer_sides

    def planted(b, lambda_order):
        lhs, rhs, arg = real(b, lambda_order)
        terms = dict(lhs[2].terms)
        keys = sorted(terms)
        terms[keys[-1]] += Fraction(1, 10**40)
        terms[keys[0]] += 1
        lhs[2] = NormalForm(terms)
        return lhs, rhs, arg

    monkeypatch.setattr(closedform, "_kummer_sides", planted)
    rep = example_normal_forms("kummer-b3half", 4)
    assert rep.status == "fail"
    first = rep.details["first_mismatch"]
    assert (first["lambda"], first["dag"], first["ann"]) == (2, 0, 2)
    assert Decimal(rep.details["max_rel_dev"]) > Decimal("0.5")
    # the planted +1 is the largest absolute deviation, reported as such
    assert Decimal(rep.details["max_abs_dev"]) == 1


# eigen-operator's right side is the alternating sum, hyp-compact's is
# e^-y times the mFm series: a fault planted in one fails that example only


def test_alternating_sum_fault_fails_eigen_operator_only(monkeypatch):
    real = closedform.alternating_sum_rows

    def off_by_one(r, M, n_max):
        for n, row in enumerate(real(r, M, n_max)):
            if n == 3:
                row[1] += 1
            yield row

    monkeypatch.setattr(closedform, "alternating_sum_rows", off_by_one)
    rep = example_normal_forms("eigen-operator", 5, M=2)
    assert rep.status == "fail"
    first = rep.details["first_mismatch"]
    assert (first["lambda"], first["dag"], first["ann"]) == (3, 1, 4)
    assert example_normal_forms("hyp-compact", 5, M=2).status == "pass"


def test_pfq_series_fault_fails_hyp_compact_only(monkeypatch):
    real = closedform.phyperq_series

    def planted(upper, lower, order):
        coeffs = list(real(upper, lower, order).coeffs)
        if upper == [4, 4]:  # row n = 3 at M = 2
            coeffs[2] += 1
        return SeriesQ(order, coeffs)

    monkeypatch.setattr(closedform, "phyperq_series", planted)
    rep = example_normal_forms("hyp-compact", 5, M=2)
    assert rep.status == "fail"
    assert rep.details["first_mismatch"]["lambda"] == 3
    assert example_normal_forms("eigen-operator", 5, M=2).status == "pass"


def test_inexact_alternating_sum_is_a_failing_report(monkeypatch):
    real = closedform.alternating_sum_rows

    def inexact(r, M, n_max):
        for n, row in enumerate(real(r, M, n_max)):
            if n == 2:
                raise ArithmeticError("non-integral generalized Stirling value")
            yield row

    monkeypatch.setattr(closedform, "alternating_sum_rows", inexact)
    rep = example_normal_forms("eigen-operator", 4, M=1)
    assert rep.status == "fail"
    assert rep.details["first_mismatch"] == {
        "lambda": 2, "where": "alternating sum",
        "error": "non-integral generalized Stirling value"}


def test_bessel_parity():
    rep = bessel_parity_check(8)
    assert rep.status == "pass"


def test_conjecture_probe_shape():
    rep = conjecture_probe(2, 1, 2, (Fraction(1, 2), 1, 2, 3))
    assert rep.status == "informational"
    assert rep.identity == "conjecture-probe"
    assert len(rep.details["fitted_coefficients"]) == 2
    assert rep.details["residuals"]
    # residuals are tiny for the shapes the fit actually takes
    assert Decimal(rep.details["max_rel_residual"]) < Decimal("1e-40")


def test_conjecture_probe_needs_enough_samples():
    with pytest.raises(ValueError):
        conjecture_probe(3, 1, 1, (1, 2))


def test_all_kinds_listed():
    assert set(CLOSED_FORM_KINDS) == {
        "stirling-hyp", "bell-hyp-r1", "bell-hyp-r2", "bell-hyp-r3",
    }
    assert len(EXAMPLE_IDS) == 8
