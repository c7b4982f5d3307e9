"""Release gate: nine pinned quantitative checks, one test per criterion.

Each test prints a single `criterion N: PASS/FAIL` line (visible with -rA
or in the failure report) and then asserts it.  Reference values are pinned
from the release contract.  The contract's list for (r,M) = (1,1) read
13227 at n=6; that was a transcription slip, corrected here to 13327.  The
evidence: the closed form B_{1,1}(n) = sum_k k! C(n,k)^2 gives 13327, and so
do the catalogue row A002720 and the Dobiński reduction that criterion 1 runs
on every pinned entry before it compares with the library.
"""

import random
import time
from fractions import Fraction
from math import comb, factorial

from normord.cache import load_triangle, render_triangle, triangle_path
from normord.closedform import hyp_closed_form_check, hyp_generating_function_check
from normord.graphs import enumerate_graphs
from normord.hyperreal import exp_bounds, rel_dev_bound
from normord.laguerre import exp_D_r1_normal_form
from normord.serialize import (
    normal_form_from_json,
    normal_form_to_json,
    sequence_from_json,
    sequence_to_json,
)
from normord.series import PolyQ
from normord.stirling import (
    b_pp,
    bell_sequence,
    classical_bell,
    dobinski_sums,
    gen_bell_number,
    gen_stirling,
    product_poly,
    stirling1_signless,
    stirling_rows,
)
from normord.suite import (
    verify_bell_diagonal_powers,
    verify_bell_first_kind,
    verify_commutator,
    verify_egf,
    verify_eigenfunction,
    verify_exp_on_exponential,
    verify_exp_on_monomial,
)
from normord.weyl import (
    NormalForm,
    diagonal_reduce,
    laguerre_derivative_nf,
    laguerre_derivative_word,
    normal_order_word_rightmost,
    word_to_normal_form,
)

# The seven pinned sequences, copied digit-for-digit from the reference
# list, with one correction: the (1,1) entry at n=6 read 13227 there and
# is 13327 here.  The closed form sum_k k! C(6,k)^2 = 13327, the catalogue
# row A002720 and the Dobiński reduction (`_dobinski_reduction`) all give
# 13327, and so do the five library paths in `_corroborate_1_1_6`.
PINNED_SEQUENCES = {
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

A002720_ROW = [1, 2, 7, 34, 209, 1546, 13327, 130922]

TOL = Fraction(1, 10**30)


def finish(num, ok, elapsed, budget=None, detail=""):
    status = "PASS" if ok and (budget is None or elapsed < budget) else "FAIL"
    line = f"criterion {num}: {status} ({elapsed:.2f}s"
    line += f", budget {budget:g}s)" if budget is not None else ")"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line
    if budget is not None:
        assert elapsed < budget, line


def _bell_numbers(count):
    """Classical Bell numbers Bell(0), ..., Bell(count-1), by the Bell triangle."""
    bells, row = [1], [1]
    for _ in range(count - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
        bells.append(row[0])
    return bells


def _dobinski_reduction(r, M, n):
    """B_{r,M}(n) = e^{-1} sum_k prod_{j=1..n} (k + j*r)^M / k!, exactly.

    Expands P(k) = prod_{j=1..n} (k + j*r)^M in powers of k and replaces each
    k^p by Bell(p), since sum_k k^p / k! = e * Bell(p).  Integers only and no
    normord code, so it checks the pinned data independently of the library.
    """
    coeffs = [1]                                  # P(k) = sum_p coeffs[p] k^p
    for j in range(1, n + 1):
        for _ in range(M):                        # multiply by (k + j*r)
            coeffs = [(coeffs[p - 1] if p else 0)
                      + (j * r * coeffs[p] if p < len(coeffs) else 0)
                      for p in range(len(coeffs) + 1)]
    return sum(c * b for c, b in zip(coeffs, _bell_numbers(len(coeffs))))


def _dobinski_deviation(r, M, n, exact):
    """Proven bound on |e^-1 sum_l W(n,l)/l! - exact| / max(exact, 1).

    Both factors are enclosed to cutoff TOL/4, so the bound, about twice
    the cutoff, falls within TOL: the l-sum lies in [S, S + cutoff *
    max(S, 1)] (the `dobinski_sums` stop) and e^-1 in the `exp_bounds`
    enclosure; no value is rounded.
    """
    cutoff = TOL / 4
    total = dobinski_sums(r, M, n, 1, cutoff, 100000)[0][-1]
    lo, hi, _ = exp_bounds(-1, cutoff)
    return rel_dev_bound(lo * total, hi * (total + cutoff * max(total, 1)), exact)


def _corroborate_1_1_6(computed):
    """Library witnesses for B at (r,M)=(1,1), n=6, where the pin is 13327."""
    nf = laguerre_derivative_nf(1, 1)
    rewrite = int((nf ** 6).expectation_at_one())
    graph = int(enumerate_graphs(nf, 6).total_weight)
    first_kind = sum(
        stirling1_signless(7, p) * classical_bell(p - 1) for p in range(1, 8)
    )
    diag = b_pp(6, 2)
    closed = sum(factorial(k) * comb(6, k) ** 2 for k in range(7))
    dob_note = (
        f"Dobinski sum proven within 1e-30 of {closed}"
        if _dobinski_deviation(1, 1, 6, closed) <= TOL
        else f"Dobinski sum NOT proven within 1e-30 of {closed}"
    )
    return (
        f"witnesses at (1,1), n=6 against bell_sequence's {computed}: "
        f"closed form sum_k k! C(6,k)^2 = {closed}, operator-rewrite "
        f"expectation {rewrite}, graph enumeration {graph}, first-kind Bell "
        f"transform {first_kind}, diagonal-power identity {diag}, {dob_note}; "
        f"catalogue row A002720 = {','.join(str(v) for v in A002720_ROW)}"
    )


def test_criterion_1_sequence_reproduction():
    t0 = time.perf_counter()
    slips = []
    for (r, M), pinned in sorted(PINNED_SEQUENCES.items()):
        for n, want in enumerate(pinned):
            independent = _dobinski_reduction(r, M, n)
            if want != independent:
                slips.append(f"(r={r},M={M}) n={n}: pinned {want}, "
                             f"independent Dobiński sum {independent}")
    if slips:
        finish(1, False, time.perf_counter() - t0, 5.0,
               "pinned entry disagrees with the independent Dobiński sum: "
               + "; ".join(slips))
    mismatches = []
    for (r, M), pinned in sorted(PINNED_SEQUENCES.items()):
        computed = bell_sequence(r, M, len(pinned) - 1)
        for n, (got, want) in enumerate(zip(computed, pinned)):
            if got != want:
                mismatches.append((r, M, n, got, want))
    elapsed = time.perf_counter() - t0
    if not mismatches:
        finish(1, True, elapsed, 5.0,
               "all seven pinned sequences match the independent Dobiński "
               "sum and are reproduced, zero tolerance")
        return
    parts = []
    for r, M, n, got, want in mismatches:
        part = (f"(r={r},M={M}) n={n}: computed {got} but the pinned "
                f"reference list says {want}")
        if (r, M, n) == (1, 1, 6):
            part += "; " + _corroborate_1_1_6(got)
        parts.append(part)
    finish(1, False, elapsed, 5.0, "; ".join(parts))


def test_criterion_2_triple_oracle_agreement():
    t0 = time.perf_counter()
    bad = []
    for r in (1, 2, 3):
        for M in (1, 2, 3):
            word = laguerre_derivative_word(r, M)
            nf = laguerre_derivative_nf(r, M)
            for n in range(6):
                rewritten = word_to_normal_form(word * n)
                closed = NormalForm({
                    (k, k + r * n): Fraction(gen_stirling(r, M, n, k))
                    for k in range(M * n + 1)
                    if gen_stirling(r, M, n, k)
                })
                graphed = enumerate_graphs(nf, n).to_normal_form()
                if not (rewritten == closed == graphed):
                    bad.append((r, M, n))
    elapsed = time.perf_counter() - t0
    finish(2, not bad, elapsed, 60.0,
           f"rewrite vs closed row vs graph enumeration entrywise identical "
           f"on 54 operator powers" if not bad else f"mismatches at {bad}")


def test_criterion_3_graph_totals():
    t0 = time.perf_counter()
    ref_11 = [2, 7, 34, 209]
    ref_21 = [3, 16, 121, 1179]
    totals_11 = [int(enumerate_graphs(laguerre_derivative_nf(1, 1), n).total_weight)
                 for n in (1, 2, 3)]
    totals_21 = [int(enumerate_graphs(laguerre_derivative_nf(2, 1), n).total_weight)
                 for n in (1, 2, 3)]
    ok = totals_11 == ref_11[:3] and totals_21 == ref_21[:3]
    elapsed = time.perf_counter() - t0
    finish(3, ok, elapsed, None,
           f"diagram totals {totals_11} vs {ref_11}, {totals_21} vs {ref_21} "
           f"(n=1..3, exact)")


def test_criterion_4_commutator():
    t0 = time.perf_counter()
    failed = []
    poly_11 = None
    for r in (1, 2, 3, 4):
        for M in (0, 1, 2, 3):
            rep = verify_commutator(r, M)
            if rep.status != "pass":
                failed.append((r, M))
            if (r, M) == (1, 1):
                poly_11 = rep.to_json_dict()["details"]["polynomial"]
    ok = not failed and poly_11 == ["1", "3", "3"]
    elapsed = time.perf_counter() - t0
    finish(4, ok, elapsed, 5.0,
           f"r<=4, M<=3 all exact; (1,1) diagonal polynomial 1+3n+3n^2"
           if ok else f"failures {failed}, (1,1) polynomial {poly_11}")


def test_criterion_5_sheffer_and_egf():
    t0 = time.perf_counter()
    bad = []
    for r in (1, 2, 3):
        forms = exp_D_r1_normal_form(r, 5)
        d = laguerre_derivative_nf(r, 1)
        power = NormalForm.one()
        for n in range(6):
            if forms[n] != power:
                bad.append(("exp", r, n))
            power = power * d
    egf_values_r1 = None
    for r in (1, 2, 3, 4):
        rep = verify_egf(r, 8)
        if rep.status != "pass":
            bad.append(("egf", r))
        if r == 1:
            egf_values_r1 = [int(v) for v in rep.details["values"]]
    if egf_values_r1 is None or egf_values_r1[:8] != A002720_ROW:
        bad.append(("egf-anchor", egf_values_r1))
    elapsed = time.perf_counter() - t0
    finish(5, not bad, elapsed, 10.0,
           "exponential normal form r<=3 n<=5 exact; EGF r<=4 n<=8 exact, "
           "r=1 values match the catalogue row" if not bad else f"{bad}")


def test_criterion_6_bell_identities():
    t0 = time.perf_counter()
    bad = []
    for r in (1, 2, 3, 4):
        if verify_bell_first_kind(r, 8).status != "pass":
            bad.append(("first-kind", r))
    for M in (1, 2, 3):
        if verify_bell_diagonal_powers(M, 4).status != "pass":
            bad.append(("diagonal-powers", M))
    for r in range(1, 9):
        reduced = diagonal_reduce(word_to_normal_form((0,) * r + (1,) * r))
        prod = product_poly(r)
        if reduced != prod:
            bad.append(("rising-product", r))
        sig = [Fraction(stirling1_signless(r + 1, k)) for k in range(1, r + 2)]
        if list(prod.coeffs) != sig:
            bad.append(("first-kind-coeffs", r))
        rev = PolyQ((1,))
        for p in range(1, r + 1):
            rev = rev * PolyQ((1, p))
        if list(rev.coeffs) != list(reversed(list(prod.coeffs))):
            bad.append(("reversed-product", r))
    elapsed = time.perf_counter() - t0
    finish(6, not bad, elapsed, 10.0,
           "first-kind transform r<=4 n<=8, diagonal powers M<=3 n<=4, "
           "rising product three ways r<=8, all exact" if not bad else f"{bad}")


def test_criterion_7_operational_calculus():
    t0 = time.perf_counter()
    bad = []
    for b in (Fraction(1), Fraction(2), Fraction(1, 3)):
        rep = verify_exp_on_exponential(b, x_order=16, lambda_order=8)
        if rep.status != "pass" or rep.mode != "exact":
            bad.append(("exp-exponential", b))
    rep = verify_exp_on_monomial(6)
    if rep.status != "pass" or rep.mode != "exact":
        bad.append(("exp-monomial",))
    for r, M in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 3)):
        rep = verify_eigenfunction(r, M)
        if (rep.status != "pass" or rep.mode != "exact"
                or rep.parameters["order"] != 32 - r):
            bad.append(("eigenfunction", r, M))
    elapsed = time.perf_counter() - t0
    finish(7, not bad, elapsed, None,
           "bivariate exponential image exact at b in {1,2,1/3} (x:16, l:8); "
           "monomial image n<=6 exact; eigenfunction fixed for five (r,M) "
           "pairs to order 32-r" if not bad else f"{bad}")


def test_criterion_8_hypergeometric_closed_forms():
    t0 = time.perf_counter()
    bad = []
    for kind in ("stirling-hyp", "bell-hyp-r1", "bell-hyp-r2", "bell-hyp-r3"):
        for M in (1, 2, 3):
            rep = hyp_closed_form_check(kind, M=M, n_max=5)
            if (rep.status != "pass" or rep.mode != "exact"
                    or rep.tolerance is not None):
                bad.append((kind, M))
    for r, M in ((1, 1), (1, 2), (2, 2)):
        rep = hyp_generating_function_check(r, M, 1, 6,
                                            precision=50, tolerance=TOL)
        if rep.status != "pass":
            bad.append(("generating-function", r, M))
    elapsed = time.perf_counter() - t0
    finish(8, not bad, elapsed, 60.0,
           "row/polynomial closed forms for r = 1, 2, 3 exact M<=3 n<=5; "
           "generating function matched through l^6" if not bad else f"{bad}")


def test_criterion_9_property_suites(tmp_path):
    t0 = time.perf_counter()
    bad = []

    rng = random.Random(424243)
    for case in range(500):
        word = tuple(rng.randrange(2) for _ in range(rng.randrange(13)))
        oracle = word_to_normal_form(word)
        rightmost = normal_order_word_rightmost(word)
        product = NormalForm.one()
        for letter in word:
            product = product * (NormalForm.monomial(1, 0) if letter
                                 else NormalForm.monomial(0, 1))
        if not (oracle == rightmost == product):
            bad.append(("word", case, word))

    for (r, M), pinned in sorted(PINNED_SEQUENCES.items()):
        for n in range(len(pinned)):
            exact = gen_bell_number(r, M, n)
            if _dobinski_deviation(r, M, n, exact) > TOL:
                bad.append(("dobinski", r, M, n))

    nf = laguerre_derivative_nf(2, 3) ** 2
    if normal_form_from_json(normal_form_to_json(nf)) != nf:
        bad.append(("json-normal-form",))
    seq = bell_sequence(3, 4, 6)
    if sequence_from_json(sequence_to_json(3, 4, seq))["values"] != seq:
        bad.append(("json-sequence",))

    rows_cold, hit_cold, warn_cold = load_triangle(2, 2, 6, tmp_path)
    rows_cold = list(rows_cold)
    blob = triangle_path(tmp_path, 2, 2, 6).read_bytes()
    rows_warm, hit_warm, warn_warm = load_triangle(2, 2, 6, tmp_path)
    rows_warm = list(rows_warm)
    if (hit_cold or not hit_warm or warn_cold or warn_warm
            or rows_cold != rows_warm
            or blob != triangle_path(tmp_path, 2, 2, 6).read_bytes()
            or blob.decode() != render_triangle(2, 2, list(stirling_rows(2, 2, 6)))):
        bad.append(("cache-bytes",))

    elapsed = time.perf_counter() - t0
    finish(9, not bad, elapsed, None,
           "500 random words on three orderers; adaptive sums within 1e-30 "
           "on the full pinned grid; JSON round-trips; cache hit "
           "byte-identical to recomputation" if not bad else f"{bad}")
