"""Hypergeometric closed forms and worked expansions."""

from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest

from normord import closedform
from normord.closedform import (
    bell_hyp_check,
    bessel_parity_check,
    conjecture_check,
    hyp_generating_function_check,
    stirling_hyp_check,
)
from normord.laguerre import DotSeries
from normord.series import SeriesQ, phyperq_series
from normord.stirling import stirling_rows
from normord.suite import EXAMPLE_IDS, IDENTITIES, SUITE_IDS, run_identity
from normord.weyl import NormalForm


def _mpf(q):
    return mpmath.mpf(q.numerator) / q.denominator


def test_kummer_taylor():
    # 1F1(b;1;x) coefficients (b)_k / (k!)^2 at b = 3
    taylor = phyperq_series([Fraction(3)], [Fraction(1)], 4).coeffs
    assert taylor == (1, 3, 3, Fraction(5, 3))


@pytest.mark.parametrize("kind,M", [("stirling-hyp", 1), ("stirling-hyp", 3),
                                    ("bell-hyp-r1", 2), ("bell-hyp-r2", 1),
                                    ("bell-hyp-r3", 1)])
def test_exact_closed_forms(kind, M):
    (rep,) = run_identity(kind, M=M, n=4)
    assert rep.identity == kind
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
                *_, row = stirling_rows(r, M, n)
                for x in (Fraction(1, 2), Fraction(2)):
                    bell = Fraction(0)  # B(n, x) by Horner's rule over row n
                    for c in reversed(row):
                        bell = bell * x + c
                    got = _paper_gamma_form(r, M, n, _mpf(x))
                    want = _mpf(bell)
                    assert abs(got - want) <= mpmath.mpf(10) ** -40 * abs(want)


def test_stirling_hyp_names_a_planted_triangle_entry(monkeypatch):
    real = closedform.stirling_rows

    def planted(r, M, n_max):
        for n, row in enumerate(real(r, M, n_max)):
            if n == 3:
                row = [*row]
                row[2] += 1
            yield row

    monkeypatch.setattr(closedform, "stirling_rows", planted)
    rep = stirling_hyp_check(2, 4)
    assert rep.status == "fail"
    first = rep.details["first_mismatch"]
    assert list(first) == ["n", "k", "left", "right"]
    assert first == {"n": 3, "k": 2, "left": "1242", "right": "1243"}
    assert rep.details["checks"] == 35


def test_stirling_hyp_names_a_planted_closed_form_term(monkeypatch):
    # one more in the terminating sum of row n = 3, k = 4 at M = 2 moves
    # the closed entry by 3!^2 / 4! = 3/2
    real = closedform._terminating_sums

    def planted(weights):
        sums = real(weights)
        if len(weights) == 9:  # width 2n + 3 at n = 3
            sums[4] += 1
        return sums

    monkeypatch.setattr(closedform, "_terminating_sums", planted)
    rep = stirling_hyp_check(2, 4)
    assert rep.status == "fail"
    first = rep.details["first_mismatch"]
    assert list(first) == ["n", "k", "left", "right"]
    assert first == {"n": 3, "k": 4, "left": "489/2", "right": "243"}


def test_conjecture_probe_shape():
    # the five default reports: exact, at r = 4, 5, 6, past the paper's r <= 3
    reps = run_identity("conjecture")
    assert len(reps) == 5
    for rep in reps:
        assert (rep.identity, rep.mode, rep.status) == ("conjecture", "exact", "pass")
        assert rep.parameters.keys() == {"r", "M", "n_max"}
        assert rep.parameters["r"] >= 4
        assert rep.details["paths"] == ["e^x Bell polynomial", "pFq closed form"]


def test_conjecture_fails_on_a_perturbed_coefficient(monkeypatch):
    real = closedform.phyperq_series

    def planted(upper, lower, order):
        coeffs = list(real(upper, lower, order).coeffs)
        if upper == [(17, 4)] and len(coeffs) > 1:  # 17/4 at r = 4, n = 3, j = 1
            coeffs[1] += 1
        return SeriesQ(order, coeffs)

    monkeypatch.setattr(closedform, "phyperq_series", planted)
    rep = conjecture_check(4, 1, 3)
    assert rep.status == "fail"
    first = rep.details["first_mismatch"]
    assert (first["n"], first["power"]) == (3, 5)  # x^(j + 4k) at j = k = 1
    assert list(first) == ["n", "power", "left", "right"]
    assert first == {"n": 3, "power": 5, "left": "663/40", "right": "24141/1280"}
    assert rep.details["checks"] == 30


def test_bell_hyp_r2_names_a_planted_triangle_entry(monkeypatch):
    real = closedform.stirling_rows

    def planted(r, M, n_max):
        for n, row in enumerate(real(r, M, n_max)):
            if n == 2:
                row = [*row]
                row[1] += 1
            yield row

    monkeypatch.setattr(closedform, "stirling_rows", planted)
    rep = bell_hyp_check(2, 1, 3)
    assert rep.status == "fail"
    first = rep.details["first_mismatch"]
    assert list(first) == ["n", "power", "left", "right"]
    assert first == {"n": 2, "power": 7, "left": "53/2520", "right": "11/560"}
    assert rep.details["checks"] == 30


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
    # e^1 summed to the same cutoff: 1/0! .. 1/47!, tail bound 2/48! < 10^-60
    assert details["exp_terms"] == 48
    assert 0 < Decimal(details["rel_dev_bound"]) <= Decimal("1.1e-60")


def test_generating_function_budget_report():
    rep = hyp_generating_function_check(1, 1, Fraction(1), 5, max_terms=3)
    assert rep.status == "fail"
    assert "tail bound" in rep.details["first_mismatch"]["reason"]


def _plant_in_bell_row(monkeypatch, n_bad, rel_error):
    """Scale row n_bad of the triangle, so B(n_bad, x), by 1 + rel_error."""
    real = closedform.stirling_rows

    def planted(r, M, n_max):
        for n, row in enumerate(real(r, M, n_max)):
            yield [c * (1 + rel_error) for c in row] if n == n_bad else row

    monkeypatch.setattr(closedform, "stirling_rows", planted)


def test_generating_function_fails_a_planted_relative_error(monkeypatch):
    # 10^-25 is far above the default tolerance 10^-30 and the proven bound
    _plant_in_bell_row(monkeypatch, 4, Fraction(1, 10**25))
    rep = hyp_generating_function_check(1, 2, Fraction(1), 6)
    assert rep.status == "fail"
    assert rep.details["first_mismatch"]["n"] == 4
    assert Decimal(rep.details["first_mismatch"]["rel_dev_bound"]) >= Decimal("1e-25")
    assert rep.details["rel_dev_bound"] == rep.details["first_mismatch"]["rel_dev_bound"]


def test_generating_function_passes_an_error_below_tolerance(monkeypatch):
    # 10^-45 at precision 50: the cutoff 10^-60 leaves it inside 10^-30
    _plant_in_bell_row(monkeypatch, 4, Fraction(1, 10**45))
    rep = hyp_generating_function_check(1, 2, Fraction(1), 6, precision=50)
    assert rep.status == "pass"
    assert Decimal("1e-45") <= Decimal(rep.details["rel_dev_bound"]) < Decimal("1e-44")


@pytest.mark.parametrize("precision, tolerance", [(30, Fraction(1, 10**20)),
                                                  (1000, Fraction(1, 10**990))])
def test_generating_function_decides_at_the_cli_floor(precision, tolerance):
    # the tightest tolerance the CLI takes, 10^-(precision-10), still leaves
    # 20 digits between it and the proven bound, about 10^-(precision+10)
    reps = run_identity("hyp-generating-function", lambda_order=12,
                        precision=precision, tolerance=tolerance)
    assert len(reps) == 3
    for rep in reps:
        assert rep.status == "pass", rep.parameters
        assert (rep.precision, rep.tolerance) == (precision, str(tolerance))
        assert Fraction(Decimal(rep.details["rel_dev_bound"])) <= tolerance
        assert Decimal(rep.details["rel_dev_bound"]) < Decimal(10) ** -(precision + 9)


def test_generating_function_fails_a_tolerance_below_its_bound():
    # a library call may ask for less than the cutoff proves: it fails and
    # the report records the bound it did prove
    rep = hyp_generating_function_check(1, 1, Fraction(1), 6, precision=50,
                                        tolerance=Fraction(1, 10**70))
    assert rep.status == "fail"
    assert rep.details["first_mismatch"]["n"] == 0
    assert Decimal(rep.details["rel_dev_bound"]) > Decimal("1e-70")


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_examples_pass(example_id):
    # p = n = 2 for laguerre-shifted and M = 2 for the two family-wide ids
    (rep,) = run_identity(example_id, M=2, n=2, lambda_order=5)
    assert rep.status == "pass", rep
    assert rep.details["first_mismatch"] is None


def test_example_mismatch_reporting_shape():
    # shrink the truncation to still-consistent orders; reports carry the
    # identity id and parameter block in every case
    (rep,) = run_identity("bessel-j0", lambda_order=3)
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
    (rep,) = run_identity("laguerre-ogf", lambda_order=4)
    assert rep.status == "fail"
    # entries are scanned from the highest (dag, ann) down; the row leads
    first = rep.details["first_mismatch"]
    assert list(first) == ["lambda", "dag", "ann", "left", "right"]
    assert first == {"lambda": 2, "dag": 2, "ann": 4, "left": "1", "right": "1/2"}


def test_kummer_b3half_judges_every_differing_entry(monkeypatch):
    # the check is exact: a 10^-40 fault on the highest entry fails it as
    # surely as a gross one on the lowest entry of the same lambda power
    real = closedform._kummer_sides
    tiny, gross = (-1, Fraction(1, 10**40)), (0, 1)

    def planting(*plants):
        def planted(b, lambda_order):
            lhs, rhs, arg = real(b, lambda_order)
            terms = dict(lhs[2].terms)
            keys = sorted(terms)
            for index, delta in plants:
                terms[keys[index]] += delta
            lhs[2] = NormalForm(terms)
            return lhs, rhs, arg
        return planted

    # plants -> (dag, ann) and size of the first mismatch; keys scan high to low
    for plants, (dag, ann, delta) in (((tiny,), (2, 4, tiny[1])),
                                      ((gross,), (0, 2, 1)),
                                      ((tiny, gross), (2, 4, tiny[1]))):
        monkeypatch.setattr(closedform, "_kummer_sides", planting(*plants))
        (rep,) = run_identity("kummer-b3half", lambda_order=4)
        assert (rep.mode, rep.status) == ("exact", "fail")
        first = rep.details["first_mismatch"]
        assert (first["lambda"], first["dag"], first["ann"]) == (2, dag, ann)
        assert Fraction(first["left"]) - Fraction(first["right"]) == delta


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
    (rep,) = run_identity("eigen-operator", M=2, lambda_order=5)
    assert rep.status == "fail"
    first = rep.details["first_mismatch"]
    assert (first["lambda"], first["dag"], first["ann"]) == (3, 1, 4)
    assert [rep.status for rep in run_identity("hyp-compact", M=2, lambda_order=5)] \
        == ["pass"]


def test_pfq_series_fault_fails_hyp_compact_only(monkeypatch):
    real = closedform.phyperq_series

    def planted(upper, lower, order):
        coeffs = list(real(upper, lower, order).coeffs)
        if upper == [4, 4]:  # row n = 3 at M = 2
            coeffs[2] += 1
        return SeriesQ(order, coeffs)

    monkeypatch.setattr(closedform, "phyperq_series", planted)
    (rep,) = run_identity("hyp-compact", M=2, lambda_order=5)
    assert rep.status == "fail"
    assert rep.details["first_mismatch"]["lambda"] == 3
    assert [rep.status for rep in run_identity("eigen-operator", M=2, lambda_order=5)] \
        == ["pass"]


# The lambda rows are compared as normal forms over one denominator; a
# planted term's record names its entries, "left" and "right", as rationals


@pytest.mark.parametrize("p, want", [
    (1, {"lambda": 3, "dag": 1, "ann": 4, "left": "9", "right": "64/7"}),
    (2, {"lambda": 4, "dag": 2, "ann": 6, "left": "18", "right": "127/7"}),
    (3, {"lambda": 5, "dag": 3, "ann": 8, "left": "50/3", "right": "703/42"}),
])
def test_laguerre_shifted_names_a_planted_dot_series_term(monkeypatch, p, want):
    # (1 - t a)^-1 with its t^2 a^2 term 8/7 instead of 1
    real = closedform._resolvent

    def planted(order):
        inv, arg = real(order)
        return inv + DotSeries.monomial(order, 2, 0, 2, Fraction(1, 7)), arg

    monkeypatch.setattr(closedform, "_resolvent", planted)
    (rep,) = run_identity("laguerre-shifted", n=p, lambda_order=6)
    assert rep.status == "fail"
    assert rep.details["first_mismatch"] == want
    assert rep.details["checks"] == want["lambda"] + 1


def test_eigen_operator_names_a_planted_alternating_term(monkeypatch):
    # both sides carry 1/4!^3 at lambda^4, and the entries are named with it
    real = closedform.alternating_sum_rows

    def planted(r, M, n_max):
        for n, row in enumerate(real(r, M, n_max)):
            if n == 4:
                row[2] += 1
            yield row

    monkeypatch.setattr(closedform, "alternating_sum_rows", planted)
    (rep,) = run_identity("eigen-operator", M=2, lambda_order=5)
    assert rep.status == "fail"
    assert rep.details["first_mismatch"] == {
        "lambda": 4, "dag": 2, "ann": 6, "left": "11/3", "right": "50689/13824"}
    assert rep.details["checks"] == 5


def test_inexact_alternating_sum_is_a_failing_report(monkeypatch):
    real = closedform.alternating_sum_rows

    def inexact(r, M, n_max):
        for n, row in enumerate(real(r, M, n_max)):
            if n == 2:
                raise ArithmeticError("non-integral generalized Stirling value")
            yield row

    monkeypatch.setattr(closedform, "alternating_sum_rows", inexact)
    (rep,) = run_identity("eigen-operator", M=1, lambda_order=4)
    assert rep.status == "fail"
    assert rep.details["first_mismatch"] == {
        "lambda": 2, "where": "alternating sum",
        "error": "non-integral generalized Stirling value"}


def test_bessel_parity():
    rep = bessel_parity_check(8)
    assert rep.status == "pass"


def test_all_kinds_listed():
    # the four closed forms run in the suite, the eight worked examples
    # only through `examples`
    assert {"stirling-hyp", "bell-hyp-r1", "bell-hyp-r2", "bell-hyp-r3"} \
        <= set(SUITE_IDS)
    assert len(EXAMPLE_IDS) == 8
    assert IDENTITIES["examples"].parts == EXAMPLE_IDS
    assert not set(EXAMPLE_IDS) & set(SUITE_IDS)


@pytest.mark.parametrize("build,message", [
    (lambda: stirling_hyp_check(0, 3), "need M >= 1 and n_max >= 0"),
    (lambda: stirling_hyp_check(1, -1), "need M >= 1 and n_max >= 0"),
    (lambda: bell_hyp_check(2, 0, 3), "need M >= 1 and n_max >= 0"),
    (lambda: bell_hyp_check(0, 1, 3), "need r >= 1"),
])
def test_closed_form_checks_refuse_bad_sizes(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
