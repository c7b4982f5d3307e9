"""Hypergeometric closed forms, worked expansions, and probe plumbing."""

from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normord import closedform, hyperreal
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
from normord.series import certified_sum, pfq_ratio, phyperq_series
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
    # every pFq the numeric closed forms and the probe evaluate
    calls = []

    def recording(upper, lower, x, prec=closedform.DEFAULT_PRECISION, max_terms=200000):
        out = hyp_sum_adaptive(upper, lower, x, prec, max_terms)
        calls.append((upper, lower, x, prec, out))
        return out

    monkeypatch.setattr(closedform, "hyp_sum_adaptive", recording)
    assert hyp_closed_form_check("bell-hyp-r2", None, 2, 2).status == "pass"
    assert hyp_closed_form_check("bell-hyp-r3", None, 1, 1).status == "pass"
    conjecture_probe(2, 1, 2, precision=60)
    assert len(calls) > 20
    for upper, lower, x, prec, out in calls:
        assert out == _fraction_loop_hyp_sum(upper, lower, x, prec)


def test_gamma_core_memo_is_bounded():
    core = hyperreal._gamma_core
    core.cache_clear()
    cold = hyperreal.gamma_fraction(Fraction(7, 3), 40)
    assert core.cache_info().misses == 1
    warm = hyperreal.gamma_fraction(Fraction(7, 3), 40)
    assert core.cache_info().hits == 1
    assert warm == cold and str(warm) == str(cold)
    maxsize = core.cache_info().maxsize
    for i in range(maxsize + 4):
        core(1 + Fraction(i, maxsize + 4), 5)
    assert core.cache_info().currsize == maxsize


def test_kummer_taylor():
    # 1F1(b;1;x) coefficients (b)_k / (k!)^2 at b = 3
    taylor = phyperq_series([Fraction(3)], [Fraction(1)], 4).coeffs
    assert taylor == (1, 3, 3, Fraction(5, 3))


@pytest.mark.parametrize("kind,M", [("stirling-hyp", 1), ("stirling-hyp", 3),
                                    ("bell-hyp-r1", 2)])
def test_exact_closed_forms(kind, M):
    rep = hyp_closed_form_check(kind, {"stirling-hyp": 1, "bell-hyp-r1": 1}[kind],
                                M, 4)
    assert rep.status == "pass"
    assert rep.mode == "exact"
    assert rep.tolerance is None


@pytest.mark.parametrize("kind,r,M,n", [("bell-hyp-r2", 2, 1, 3),
                                        ("bell-hyp-r3", 3, 1, 2)])
def test_numeric_closed_forms(kind, r, M, n):
    rep = hyp_closed_form_check(kind, r, M, n)
    assert rep.status == "pass"
    assert rep.mode == "numeric"
    assert rep.precision == 50
    assert rep.tolerance is not None
    assert Decimal(rep.details["max_rel_dev"]) < Decimal("1e-30")


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
