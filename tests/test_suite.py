"""The verification-suite plumbing: report contract, determinism, dispatch."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import normord
from normord import closedform, suite
from normord.report import _nf_mismatch, _rows_mismatch
from normord.series import SeriesQ
from normord.suite import (
    EXAMPLE_IDS,
    SUITE_IDS,
    IdentityReport,
    reports_to_json,
    run_identity,
    run_suite,
    suite_passed,
    verify_commutator,
    verify_exp_on_kummer,
    verify_exp_on_monomial,
    verify_stirling_expansion,
)
from normord.weyl import NormalForm, laguerre_derivative_nf


def test_full_suite_green():
    reports = run_suite()
    assert reports
    assert suite_passed(reports)
    bad = [r for r in reports if r.status == "fail"]
    assert bad == []


def test_suite_deterministic_and_sorted():
    a = run_suite()
    b = run_suite()

    def strip(rep):
        d = rep.to_json_dict()
        d.pop("elapsed")
        return d

    assert [strip(r) for r in a] == [strip(r) for r in b]
    keys = [(r.identity, json.dumps(r.parameters, sort_keys=True, default=str))
            for r in a]
    assert keys == sorted(keys)


@pytest.mark.parametrize("golden, run", [
    pytest.param("verify_all_precision50.json", lambda: run_suite(precision=50),
                 id="all-precision50"),
    pytest.param("verify_all_precision100.json", lambda: run_suite(precision=100),
                 id="all-precision100"),
    # the worked examples alone; verify all runs them too (14 of its 85 reports)
    pytest.param("verify_examples.json", lambda: run_identity("examples"),
                 id="examples"),
])
def test_suite_matches_the_golden_report(golden, run):
    # the reports as JSON, elapsed removed, byte for byte
    golden = Path(__file__).parent / "data" / golden
    reports = [rep.to_json_dict() for rep in run()]
    for rep in reports:
        rep.pop("elapsed")
    assert json.dumps(reports, indent=2) + "\n" == golden.read_text()


def test_stirling_expansion_compares_three_paths(monkeypatch):
    rep = verify_stirling_expansion(2, 3, 6)
    assert rep.status == "pass"
    assert rep.details["paths"] == ["power fold", "triangle", "alternating sum"]

    # the alternating sum is a path of its own (read through
    # closedform._alternating_rows): a fault in it alone fails
    real = closedform.alternating_sum_rows

    def off_by_one(r, M, n_max):
        for n, row in enumerate(real(r, M, n_max)):
            if n == 4:
                row[2] += 1
            yield row

    monkeypatch.setattr(closedform, "alternating_sum_rows", off_by_one)
    rep = verify_stirling_expansion(2, 3, 6)
    assert rep.status == "fail"
    assert rep.details["first_mismatch"]["where"] == "triangle vs alternating sum"
    assert (rep.details["first_mismatch"]["n"], rep.details["first_mismatch"]["k"]) == (4, 2)

    def inexact(r, M, n_max):
        raise ArithmeticError("non-integral generalized Stirling value")

    monkeypatch.setattr(closedform, "alternating_sum_rows", inexact)
    rep = verify_stirling_expansion(1, 1, 3)
    assert rep.status == "fail"
    assert rep.details["first_mismatch"]["where"] == "alternating sum"


def test_every_compared_report_names_its_paths():
    for rep in run_suite():
        paths = rep.details["paths"]
        assert len(paths) >= 2 and len(set(paths)) == len(paths), rep.identity


def test_exact_mode_never_carries_tolerance():
    for rep in run_suite():
        if rep.mode == "exact":
            assert rep.precision is None
            assert rep.tolerance is None
        elif rep.mode == "numeric":
            assert rep.precision is not None
            assert rep.tolerance is not None


def test_report_contract_enforced():
    with pytest.raises(ValueError):
        IdentityReport("x", {}, "numeric", "pass", {}, 0.0)
    with pytest.raises(ValueError):
        IdentityReport("x", {}, "exact", "maybe", {}, 0.0)
    with pytest.raises(ValueError):
        IdentityReport("x", {}, "quantum", "pass", {}, 0.0)
    rep = IdentityReport("x", {"r": 1}, "exact", "pass", {}, 0.0)
    assert rep.ok
    assert rep.to_json_dict()["identity"] == "x"


def test_suite_passed_logic():
    ok = IdentityReport("x", {}, "exact", "pass", {}, 0.0)
    bad = IdentityReport("z", {}, "exact", "fail", {}, 0.0)
    assert suite_passed([ok, ok])
    assert not suite_passed([ok, bad])


def test_json_export_parses():
    reports = run_identity("commutator", r=1, M=1)
    parsed = json.loads(reports_to_json(reports))
    assert parsed[0]["identity"] == "commutator"
    assert parsed[0]["status"] == "pass"
    assert parsed[0]["details"]["polynomial"] == ["1", "3", "3"]


def test_unknown_identity_raises():
    with pytest.raises(ValueError):
        run_identity("not-an-identity")


@pytest.mark.parametrize("identity,sizes", [
    ("graphs", {"n": -1}),
    ("exp-kummer", {"lambda_order": -1}),
])
def test_negative_sizes_raise(identity, sizes):
    with pytest.raises(ValueError):
        run_identity(identity, **sizes)


def test_drivers_reject_negative_sizes():
    with pytest.raises(ValueError, match="lambda_order"):
        verify_exp_on_kummer(1, lambda_order=-1)
    with pytest.raises(ValueError, match="n_max"):
        verify_stirling_expansion(1, 1, -3)
    with pytest.raises(ValueError, match="x_order"):
        suite.verify_exp_on_exponential(1, x_order=-2)
    with pytest.raises(ValueError, match="truncation order"):
        suite.verify_exp_on_exponential(1, x_order=4, lambda_order=5)
    with pytest.raises(ValueError, match="order"):
        suite.verify_eigenfunction(1, 1, order=-1)


def test_exp_kummer_rejects_columns_without_x_powers():
    # column m keeps x_order - m powers: past x_order it checks nothing
    with pytest.raises(ValueError, match="truncation order"):
        verify_exp_on_kummer(1, x_order=4, lambda_order=5)
    with pytest.raises(ValueError, match="truncation order"):
        run_identity("exp-kummer", lambda_order=17)
    assert verify_exp_on_kummer(2, x_order=4, lambda_order=4).status == "pass"


def test_graphs_report_steps_once_per_row(monkeypatch):
    calls = []
    step = normord.backend.graph_step

    def counted(states, blocks):
        calls.append(len(states))
        return step(states, blocks)

    monkeypatch.setattr(normord.backend, "graph_step", counted)
    rep = suite.verify_graph_enumeration(1, 1, 12)
    assert rep.status == "pass"
    assert len(calls) == 12
    assert rep.details["totals"][:4] == [2, 7, 34, 209]
    assert rep.details["paths"] == ["power fold", "graph count"]


def test_alias_dispatch():
    reps = run_identity("shef", r=2, n=4)
    assert len(reps) == 1
    assert reps[0].identity == "sheffer"
    assert reps[0].parameters == {"r": 2, "n_max": 4}
    assert reps[0].status == "pass"


def test_example_id_dispatch():
    reps = run_identity("bessel-j0", lambda_order=5)
    assert len(reps) == 1
    assert reps[0].identity == "bessel-j0"
    assert reps[0].status == "pass"


# For every id run_identity accepts and six override shapes, the
# (identity, parameters) of each report it returns, recorded before the
# identity table replaced the per-id dispatch branches.
_DISPATCH_GRID = json.loads(
    (Path(__file__).parent / "data" / "dispatch_grid.json").read_text())


def test_dispatch_grid_covers_every_id():
    assert {entry["id"] for entry in _DISPATCH_GRID} == {
        *SUITE_IDS, *EXAMPLE_IDS, "shef"}


@pytest.mark.parametrize("identity", sorted({e["id"] for e in _DISPATCH_GRID}))
def test_dispatch_grid_is_pinned(identity):
    for entry in _DISPATCH_GRID:
        if entry["id"] == identity:
            reps = run_identity(identity, **entry["overrides"])
            got = [[rep.identity, rep.parameters] for rep in reps]
            assert got == entry["reports"], entry["overrides"]


def test_every_listed_id_dispatches():
    for identity in SUITE_IDS:
        reps = run_identity(identity) if identity not in (
            "commutator", "stirling-expansion", "examples", "graphs",
            "conjecture", "hyp-generating-function", "exp-kummer",
        ) else run_identity(identity, r=1, M=1, n=2)
        assert reps, identity
        assert all(r.status != "fail" for r in reps), identity


def test_commutator_covers_m_zero():
    rep = verify_commutator(1, 0)
    assert rep.status == "pass"
    assert rep.details["polynomial"] == ["1"]
    rep = verify_commutator(4, 3)
    assert rep.status == "pass"


def test_commutator_names_a_planted_first_kind_number(monkeypatch):
    # |sigma(3, 2)| = 3 raised to 4: the rising product (n+1)(n+2) of the
    # reference side gains 1·n, so (n+2)^2 · n lifts its n^3 term 8 -> 9
    real = suite.stirling1_signless
    monkeypatch.setattr(suite, "stirling1_signless",
                        lambda n, k: real(n, k) + ((n, k) == (3, 2)))
    rep = verify_commutator(2, 1)
    assert rep.status == "fail"
    assert rep.details["first_mismatch"] == {"power": 3, "left": "8", "right": "9"}
    assert rep.details["polynomial"] == ["8", "20", "18", "8"]


def test_commutator_finds_an_oracle_term_past_the_reference(monkeypatch):
    # the reference stops at n^(2M+r-1); a term above it differs in order
    real = NormalForm.diagonal_polynomial
    monkeypatch.setattr(NormalForm, "diagonal_polynomial",
                        lambda nf: SeriesQ(real(nf).order + 1, [*real(nf).coeffs, 1]))
    rep = verify_commutator(1, 1)
    assert rep.details["first_mismatch"] == {"power": 3, "left": "1", "right": "0"}


def test_kummer_exact_mode_for_half_integer(monkeypatch):
    # both sides are rational at b = 3/2: compared exactly, no tolerance
    rep = verify_exp_on_kummer(Fraction(3, 2), x_order=10, lambda_order=4)
    assert rep.mode == "exact"
    assert rep.status == "pass"
    assert rep.precision is None and rep.tolerance is None
    # so an error far below any numeric tolerance fails it
    real = suite.pochhammer
    monkeypatch.setattr(suite, "pochhammer", lambda b, k: real(b, k) + (
        Fraction(1, 10**60) if k == 7 else 0))
    rep = verify_exp_on_kummer(Fraction(3, 2), x_order=10, lambda_order=4)
    assert rep.status == "fail"
    first = rep.details["first_mismatch"]
    assert first["lambda_power"] + first["x_power"] == 7


def test_exp_on_monomial_grid():
    rep = verify_exp_on_monomial(6)
    assert rep.status == "pass"
    assert rep.parameters == {"n_max": 6}


# The exact scan decides by equality first and walks the keys only to
# name the first mismatch: each record below is the one the key walk
# gives on the same tables written as dicts.


def test_scan_of_equal_tables_finds_nothing():
    nf = laguerre_derivative_nf(2, 1)
    assert _nf_mismatch(nf, NormalForm(dict(nf.terms)), {"n": 1}) is None
    assert _nf_mismatch(nf, dict(nf.terms), {"n": 1}) is None
    assert _nf_mismatch({(1, 2): 3, (0, 1): 1}, {(0, 1): 1, (1, 2): 3}, {}) is None
    assert _rows_mismatch([{0: 1}, {0: 2, 1: Fraction(1, 2)}],
                          [{0: 1}, {1: Fraction(1, 2), 0: 2}], "n", ("k",)) == (2, None)


def test_scan_reads_a_missing_key_as_zero():
    assert _nf_mismatch({1: 0, 2: 3}, {2: 3}, {"n": 1}, ("k",)) is None
    assert _nf_mismatch(NormalForm({(1, 1): 2}), {(1, 1): 2, (0, 0): 0}, {}) is None
    assert _rows_mismatch([{0: 1}, {0: 2, 1: Fraction(1, 2)}],
                          [{0: 1}, {0: 2, 1: 1}], "n", ("k",)) \
        == (2, {"n": 1, "k": 1, "left": "1/2", "right": "1"})


def _as_dicts(rows):
    return [row.terms if isinstance(row, NormalForm)
            else dict(enumerate(getattr(row, "coeffs", row))) for row in rows]


def _scaled(terms, c):
    return NormalForm(terms).scale(c)


@pytest.mark.parametrize("lhs, rhs, want", [
    # the same numerators over another denominator: a mismatch
    ([SeriesQ._from_ints(3, [1, 2, 0], 1)], [SeriesQ._from_ints(3, [1, 2, 0], 3)],
     (1, {"n": 0, "k": 1, "left": "2", "right": "2/3"})),
    # the same coefficients to another order, the tail zero: no mismatch
    ([SeriesQ(2, [1]), SeriesQ(3, [1, 2])], [SeriesQ(2, [1]), SeriesQ(5, [1, 2])],
     (2, None)),
    ([SeriesQ(3, [1, Fraction(1, 2), 5])], [SeriesQ(3, [1, Fraction(1, 3), 5])],
     (1, {"n": 0, "k": 1, "left": "1/2", "right": "1/3"})),
    # list rows; a missing entry reads 0
    ([[1, 2], [1, 3, 3]], [[1, 2], [1, 3, 3, 0]], (2, None)),
    ([[1, 2], [1, 4, 3]], [[1, 2], [1, 3, 3]],
     (2, {"n": 1, "k": 1, "left": "4", "right": "3"})),
    ([[1, 2], [1, 3, 3]], [[1, 2], [1, 3]],
     (2, {"n": 1, "k": 2, "left": "3", "right": "0"})),
    # normal-form rows, keyed (dag, ann).  6/4 and 3/2 over other
    # denominators, and a scaled row: equal
    ([NormalForm._from_ints({(1, 2): 6}, 4), _scaled({(0, 0): 5}, Fraction(7, 35))],
     [NormalForm._from_ints({(1, 2): 3}, 2), NormalForm.one()], (2, None)),
    # a zero scale is the zero row, whatever it scaled
    ([_scaled({(1, 2): 6}, 0)], [NormalForm._from_ints({}, 3)], (1, None)),
    ([_scaled({(1, 2): 6}, 0)], [NormalForm._from_ints({(1, 2): 1}, 3)],
     (1, {"n": 0, "dag": 1, "ann": 2, "left": "0", "right": "1/3"})),
    # named as rationals, keys high to low, a missing key read as 0
    ([_scaled({(2, 4): 3, (0, 2): 1}, Fraction(-1, 6))],
     [NormalForm._from_ints({(2, 4): -1, (1, 3): 1}, 2)],
     (1, {"n": 0, "dag": 1, "ann": 3, "left": "0", "right": "1/2"})),
    # a rational coefficient against ints over a denominator
    ([NormalForm({(0, 1): Fraction(1, 3)})], [NormalForm._from_ints({(0, 1): 2}, 6)],
     (1, None)),
    # a zero entry reads as a missing one, and the scan goes on past it
    ([NormalForm({(1, 2): 0}), NormalForm.one()],
     [NormalForm(), NormalForm.monomial(0, 0, 2)],
     (2, {"n": 1, "dag": 0, "ann": 0, "left": "1", "right": "2"})),
])
def test_scan_takes_series_and_list_rows(lhs, rhs, want):
    names = ("dag", "ann") if isinstance(lhs[0], NormalForm) else ("k",)
    assert _rows_mismatch(_as_dicts(lhs), _as_dicts(rhs), "n", names) == want
    assert _rows_mismatch(lhs, rhs, "n", names) == want


def test_exp_exponential_names_a_planted_column_entry(monkeypatch):
    real = suite.exp_lambda_Dx_columns

    def planted(op, s, m_max):
        cols = real(op, s, m_max)
        coeffs = list(cols[3].coeffs)
        coeffs[4] += Fraction(1, 10**40)
        cols[3] = SeriesQ(cols[3].order, coeffs)
        return cols

    monkeypatch.setattr(suite, "exp_lambda_Dx_columns", planted)
    rep = suite.verify_exp_on_exponential(Fraction(1, 3))
    first = rep.details["first_mismatch"]
    assert list(first) == ["lambda_power", "x_power", "left", "right"]
    assert first == {
        "lambda_power": 3, "x_power": 4,
        "left": "-43749999999999999999999999999999999993439"
                "/65610000000000000000000000000000000000000000",
        "right": "-35/52488"}


def test_stirling_expansion_names_a_fraction_in_the_power_fold(monkeypatch):
    # D^2 (D + 1/2): the fold's product carries a Fraction coefficient
    real = suite._oracle_powers

    def planted(r, M, n_max):
        powers = real(r, M, n_max)
        powers[3] = powers[2] * (laguerre_derivative_nf(r, M)
                                 + NormalForm.monomial(0, 0, Fraction(1, 2)))
        return powers

    monkeypatch.setattr(suite, "_oracle_powers", planted)
    rep = verify_stirling_expansion(1, 1, 4)
    assert rep.status == "fail"
    first = rep.details["first_mismatch"]
    assert list(first) == ["n", "dag", "ann", "left", "right"]
    assert first == {"n": 3, "dag": 2, "ann": 4, "left": "1/2", "right": "0"}
    assert rep.details["bell_values"] == [2, 7, 37, 209]


@pytest.mark.parametrize("M", [0, 1, 2, 3])
def test_commutator_at_r_zero(M):
    # D = (ad a)^M is self-adjoint: the commutator is 0, and the
    # reference's falling factorial of length 0 is the empty product 1
    rep = verify_commutator(0, M)
    assert rep.status == "pass"
    assert rep.details["polynomial"] == []
