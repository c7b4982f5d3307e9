"""Named verification drivers binding each operational identity to oracles.

Every check returns an IdentityReport (see `normord.report`): the
drivers here, and the closed-form checks of `normord.closedform`, which
`run_identity` calls directly.  Exact-mode checks compare rationals or
integer tables with no tolerance at all; numeric-mode checks always
record the working precision and tolerance they used; the conjecture
probe is informational and records only its precision.  `run_suite`
walks a fixed default grid, `run_identity` dispatches a single named
check with optional parameter overrides (the CLI entry).
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

from .closedform import (
    CLOSED_FORM_KINDS,
    DEFAULT_PRECISION,
    DEFAULT_TOLERANCE,
    EXAMPLE_IDS,
    bessel_parity_check,
    conjecture_probe,
    example_normal_forms,
    hyp_closed_form_check,
    hyp_generating_function_check,
)
from .graphs import CoeffTable, blocks_from, enumerate_step
from .laguerre import (
    DxOperator,
    apply_Dx,
    egf_bell_r1,
    eigenfunction_series,
    exp_D_r1_normal_form,
    exp_lambda_Dx_columns,
)
from .report import IdentityReport, _finish, _nf_mismatch
from .series import (
    PolyQ,
    SeriesQ,
    binomial,
    factorial,
    laguerre_poly,
    phyperq_series,
    pochhammer,
)
from .stirling import (
    alternating_sum_row,
    b_pp,
    classical_bell,
    gen_bell_number,
    gen_stirling,
    stirling1_signless,
)
from .weyl import NormalForm, diagonal_reduce, laguerre_derivative_nf

__all__ = [
    "IdentityReport",
    "verify_commutator",
    "verify_stirling_expansion",
    "verify_bell_first_kind",
    "verify_bell_diagonal_powers",
    "verify_laguerre_normal_form",
    "verify_exp_on_exponential",
    "verify_exp_on_kummer",
    "verify_exp_on_monomial",
    "verify_sheffer",
    "verify_egf",
    "verify_eigenfunction",
    "verify_hyp_closed_form",
    "verify_hyp_generating_function",
    "verify_graph_enumeration",
    "conjecture_probe",
    "run_identity",
    "run_suite",
    "suite_passed",
    "reports_to_json",
    "SUITE_IDS",
]


def _poly_from_signless_rising(r: int) -> PolyQ:
    """prod_{p=1..r}(n+p) written out of first-kind signless numbers."""
    return PolyQ(stirling1_signless(r + 1, k) for k in range(1, r + 2))


def _poly_from_signed_falling(r: int) -> PolyQ:
    """n(n-1)...(n-r+1) as the signed first-kind sum; zero constant term."""
    coeffs = [Fraction(0)] * (r + 1)
    for k in range(1, r + 1):
        coeffs[k] = Fraction((-1) ** (r - k) * stirling1_signless(r, k))
    return PolyQ(coeffs)


def _nonnegative(**sizes) -> None:
    """Raise ValueError naming the first negative order or size."""
    for name, value in sizes.items():
        if value < 0:
            raise ValueError(f"{name} must be >= 0")


def _columns_fit(x_order: int, lambda_order: int) -> None:
    """Raise ValueError on a negative size or a lambda_order past x_order."""
    _nonnegative(x_order=x_order, lambda_order=lambda_order)
    if lambda_order > x_order:  # column m keeps x_order - m powers
        raise ValueError(
            f"insufficient truncation order: need x-order >= {lambda_order}")


def verify_commutator(r: int, M: int) -> IdentityReport:
    """[D, D-dagger] reduced to a polynomial in the number operator.

    The operator side is normal-ordered from scratch and diagonal-reduced;
    the reference polynomial (n+r)^2M * prod(n+p) - n^2M * n-falling-r is
    assembled purely from signless first-kind numbers.  At (r, M) = (1, 1)
    this is the 3n^2 + 3n + 1 difference of consecutive odd cubes.
    """
    _nonnegative(r=r, M=M)
    t0 = time.perf_counter()
    params = {"r": r, "M": M}
    d = laguerre_derivative_nf(r, M)
    dd = d.dagger()
    oracle = diagonal_reduce(d * dd - dd * d)
    x = PolyQ((0, 1))
    shifted = PolyQ((r, 1))
    left = PolyQ.one()
    right = PolyQ.one()
    for _ in range(2 * M):
        left = left * shifted
        right = right * x
    ref = left * _poly_from_signless_rising(r) - right * _poly_from_signed_falling(r)
    mismatch = None
    if oracle != ref:
        mismatch = {
            "oracle": [str(c) for c in oracle.coeffs],
            "first_kind_form": [str(c) for c in ref.coeffs],
        }
    return _finish(
        "commutator",
        params,
        "exact",
        t0,
        mismatch,
        {"polynomial": [str(c) for c in oracle.coeffs]},
    )


def verify_stirling_expansion(r: int, M: int, n_max: int) -> IdentityReport:
    """[D(r,M)]^n normal-ordered from scratch against the triangle row.

    Three paths per row n: the operator-power fold, the triangle (built
    by the kernel recurrence), and the defining alternating sum with its
    exact k! division.  Coefficient of (ad)^k a^(k+rn) in the fold must
    be S_r^(M)(n, k), the alternating sum must give the same row, and the
    weight-one expectation of each power must be the Bell number.
    """
    _nonnegative(r=r, M=M, n_max=n_max)
    t0 = time.perf_counter()
    params = {"r": r, "M": M, "n_max": n_max}
    d = laguerre_derivative_nf(r, M)
    power = NormalForm.one()
    products = [1]
    bells = []
    mismatch = None
    for n in range(1, n_max + 1):
        power = power * d
        row = [gen_stirling(r, M, n, k) for k in range(M * n + 1)]
        ref = NormalForm(
            {(k, k + r * n): v for k, v in enumerate(row) if v}
        )
        mismatch = _nf_mismatch(power, ref, "n", n)
        if mismatch is not None:
            break
        try:
            oracle, products = alternating_sum_row(r, M, n, products)
        except ArithmeticError as exc:
            mismatch = {"n": n, "where": "alternating sum", "error": str(exc)}
            break
        if oracle != row:
            k = next(k for k, (a, b) in enumerate(zip(row, oracle)) if a != b)
            mismatch = {
                "n": n,
                "k": k,
                "left": str(row[k]),
                "right": str(oracle[k]),
                "where": "triangle vs alternating sum",
            }
            break
        bell = power.expectation_at_one()
        if bell != gen_bell_number(r, M, n):
            mismatch = {
                "n": n,
                "left": str(bell),
                "right": str(gen_bell_number(r, M, n)),
                "where": "weight-one expectation",
            }
            break
        bells.append(int(bell))
    return _finish(
        "stirling-expansion",
        params,
        "exact",
        t0,
        mismatch,
        {"bell_values": bells,
         "paths": ["power fold", "triangle", "alternating sum"]},
    )


def verify_bell_first_kind(r: int, n_max: int) -> IdentityReport:
    """B_r(n) as a signless-first-kind transform of the classical Bells."""
    _nonnegative(r=r, n_max=n_max)
    t0 = time.perf_counter()
    params = {"r": r, "n_max": n_max}
    mismatch = None
    values = []
    for n in range(n_max + 1):
        lhs = gen_bell_number(r, 1, n)
        rhs = sum(
            stirling1_signless(n + 1, p) * r ** (n - p + 1) * classical_bell(p - 1)
            for p in range(1, n + 2)
        )
        if lhs != rhs:
            mismatch = {"n": n, "left": str(lhs), "right": str(rhs)}
            break
        values.append(int(lhs))
    return _finish(
        "bell-first-kind", params, "exact", t0, mismatch, {"values": values}
    )


def verify_bell_diagonal_powers(M: int, n_max: int) -> IdentityReport:
    """B_1^(M)(n) equals the weight-one expectation of ((ad)^n a^n)^(M+1)."""
    _nonnegative(M=M, n_max=n_max)
    t0 = time.perf_counter()
    params = {"M": M, "n_max": n_max}
    mismatch = None
    values = []
    for n in range(1, n_max + 1):
        lhs = gen_bell_number(1, M, n)
        rhs = b_pp(n, M + 1)
        if lhs != rhs:
            mismatch = {"n": n, "left": str(lhs), "right": str(rhs)}
            break
        values.append(int(lhs))
    return _finish(
        "bell-diagonal-powers", params, "exact", t0, mismatch, {"values": values}
    )


def verify_laguerre_normal_form(n_max: int) -> IdentityReport:
    """[D(1,1)]^n = n! sum_j L_n-coefficients (ad)^j a^(j+n), sign-adjusted."""
    _nonnegative(n_max=n_max)
    t0 = time.perf_counter()
    params = {"n_max": n_max}
    d = laguerre_derivative_nf(1, 1)
    power = NormalForm.one()
    mismatch = None
    for n in range(1, n_max + 1):
        power = power * d
        lag = laguerre_poly(n)
        ref = NormalForm(
            {
                (j, j + n): factorial(n) * lag.coeff(j) * (-1) ** j
                for j in range(n + 1)
            }
        )
        mismatch = _nf_mismatch(power, ref, "n", n)
        if mismatch is not None:
            break
    return _finish("laguerre-normal-form", params, "exact", t0, mismatch)


def verify_exp_on_exponential(
    b, x_order: int = 16, lambda_order: int = 8
) -> IdentityReport:
    """exp(t D_x) e^(-b x) against the closed bivariate coefficient grid.

    The columns Dx^m(s)/m!, m = 0..lambda_order, are checked at every x
    power each column retains (a staircase, not a rectangle) against
    (-b)^i/i! * (-1)^m C(i+m, m) b^m.
    """
    _columns_fit(x_order, lambda_order)
    t0 = time.perf_counter()
    b = Fraction(b)
    params = {"b": str(b), "x_order": x_order, "lambda_order": lambda_order}
    s = SeriesQ(x_order, [(-b) ** i / factorial(i) for i in range(x_order)])
    cols = exp_lambda_Dx_columns(DxOperator(1, 1), s, lambda_order)
    mismatch = None
    for m, col in enumerate(cols):
        for i in range(col.order):
            ref = (
                (-b) ** i
                / factorial(i)
                * Fraction((-1) ** m * binomial(i + m, m))
                * b**m
            )
            if col.coeffs[i] != ref:
                mismatch = {"x_power": i, "lambda_power": m,
                            "left": str(col.coeffs[i]), "right": str(ref)}
                break
        if mismatch is not None:
            break
    return _finish("exp-exponential", params, "exact", t0, mismatch)


def verify_exp_on_kummer(
    b,
    x_order: int = 16,
    lambda_order: int = 8,
    precision: int = DEFAULT_PRECISION,
    tolerance=DEFAULT_TOLERANCE,
) -> IdentityReport:
    """exp(t D_x) 1F1(b;1;x) = (1-t)^(-b) 1F1(b;1;x/(1-t)) coefficientwise.

    Expanded right side: x^i t^m carries (b)_i/(i!)^2 * (b+i)_m / m!.
    Integer b is checked exactly; fractional b runs in numeric mode per
    the rational-inputs-exact / otherwise-tracked-precision contract,
    although the underlying arithmetic here is still rational.  As in
    `verify_exp_on_exponential`, lambda_order may not pass x_order.
    """
    _columns_fit(x_order, lambda_order)
    t0 = time.perf_counter()
    b = Fraction(b)
    params = {"b": str(b), "x_order": x_order, "lambda_order": lambda_order}
    exact = b.denominator == 1
    s = phyperq_series([b], [Fraction(1)], x_order)
    cols = exp_lambda_Dx_columns(DxOperator(1, 1), s, lambda_order)
    mismatch = None
    worst = Fraction(0)
    for m, col in enumerate(cols):
        for i in range(col.order):
            ref = (
                pochhammer(b, i)
                / factorial(i) ** 2
                * pochhammer(b + i, m)
                / factorial(m)
            )
            got = col.coeffs[i]
            if exact:
                if got != ref:
                    mismatch = {"x_power": i, "lambda_power": m,
                                "left": str(got), "right": str(ref)}
                    break
            else:
                dev = abs(got - ref)
                scale = max(abs(ref), Fraction(1))
                if dev / scale > worst:
                    worst = dev / scale
                if dev / scale > tolerance:
                    mismatch = {"x_power": i, "lambda_power": m,
                                "left": str(got), "right": str(ref)}
                    break
        if mismatch is not None:
            break
    if exact:
        return _finish("exp-kummer", params, "exact", t0, mismatch)
    return _finish(
        "exp-kummer",
        params,
        "numeric",
        t0,
        mismatch,
        {"max_rel_dev": str(worst)},
        precision=precision,
        tolerance=str(tolerance),
    )


def verify_exp_on_monomial(n_max: int = 6) -> IdentityReport:
    """exp(y D_x) x^n = n! y^n L_n(-x/y), an exact bivariate polynomial.

    Per y power the left side carries (n falling m)^2 / m! on x^(n-m);
    the right side expands the Laguerre polynomial at -x/y and scales by
    n! y^n, landing on the same (x, y) grid.
    """
    _nonnegative(n_max=n_max)
    t0 = time.perf_counter()
    params = {"n_max": n_max}
    op = DxOperator(1, 1)
    mismatch = None
    for n in range(n_max + 1):
        mono = SeriesQ(n + 1, [Fraction(0)] * n + [Fraction(1)])
        lhs = {}
        for m, col in enumerate(exp_lambda_Dx_columns(op, mono, n)):
            for i in range(col.order):
                if col.coeffs[i]:
                    lhs[(i, m)] = col.coeffs[i]
        lag = laguerre_poly(n)
        rhs = {}
        for k in range(n + 1):
            c = factorial(n) * lag.coeff(k) * (-1) ** k
            if c:
                rhs[(k, n - k)] = c
        if lhs != rhs:
            for key in sorted(set(lhs) | set(rhs)):
                if lhs.get(key, Fraction(0)) != rhs.get(key, Fraction(0)):
                    mismatch = {
                        "n": n,
                        "x_power": key[0],
                        "y_power": key[1],
                        "left": str(lhs.get(key, Fraction(0))),
                        "right": str(rhs.get(key, Fraction(0))),
                    }
                    break
            break
    return _finish("exp-monomial", params, "exact", t0, mismatch)


def verify_sheffer(r: int, n_max: int) -> IdentityReport:
    """Substitution-kernel closed form of exp(t D(r,1)) against the rewriter.

    The double-dot expansion g(t,a) exp(ad (T - a)) is unpacked one t power
    at a time; n! times the t^n coefficient must be the normal form of
    [D(r,1)]^n produced by the contraction oracle.
    """
    _nonnegative(r=r, n_max=n_max)
    t0 = time.perf_counter()
    params = {"r": r, "n_max": n_max}
    rows = exp_D_r1_normal_form(r, n_max)
    d = laguerre_derivative_nf(r, 1)
    power = NormalForm.one()
    mismatch = None
    for n in range(n_max + 1):
        mismatch = _nf_mismatch(rows[n], power, "n", n)
        if mismatch is not None:
            break
        power = power * d
    return _finish("sheffer", params, "exact", t0, mismatch)


def verify_egf(r: int, n_max: int) -> IdentityReport:
    """(1-rt)^(-1) exp((1-rt)^(-1/r) - 1) as the Bell-number EGF."""
    _nonnegative(r=r, n_max=n_max)
    t0 = time.perf_counter()
    params = {"r": r, "n_max": n_max}
    series = egf_bell_r1(r, n_max + 1)
    mismatch = None
    values = []
    for n in range(n_max + 1):
        lhs = factorial(n) * series.coeffs[n]
        rhs = gen_bell_number(r, 1, n)
        if lhs != rhs:
            mismatch = {"n": n, "left": str(lhs), "right": str(rhs)}
            break
        values.append(int(lhs))
    return _finish("egf", params, "exact", t0, mismatch, {"values": values})


def verify_eigenfunction(r: int, M: int, order: int | None = None) -> IdentityReport:
    """D_x(r,M) fixes its 0F_(M+r-1) eigenfunction through the truncation."""
    t0 = time.perf_counter()
    if order is None:
        order = 32 - r
    _nonnegative(r=r, M=M, order=order)
    params = {"r": r, "M": M, "order": order}
    e = eigenfunction_series(r, M, order)
    image = apply_Dx(DxOperator(r, M), e)
    mismatch = None
    for i in range(image.order):
        if image.coeffs[i] != e.coeffs[i]:
            mismatch = {"x_power": i, "left": str(image.coeffs[i]),
                        "right": str(e.coeffs[i])}
            break
    return _finish("eigenfunction", params, "exact", t0, mismatch)


def verify_hyp_closed_form(
    kind: str,
    M: int = 1,
    n_max: int | None = None,
    x_samples=None,
    precision: int = DEFAULT_PRECISION,
    tolerance=DEFAULT_TOLERANCE,
) -> IdentityReport:
    """Hypergeometric closed form of one kind, at the kind's own r."""
    return hyp_closed_form_check(
        kind, None, M, n_max, x_samples, precision, tolerance
    )


verify_hyp_generating_function = hyp_generating_function_check


def verify_graph_enumeration(r: int, M: int, n_max: int) -> IdentityReport:
    """Weighted-graph expansion of [D(r,M)]^n against the rewriting oracle.

    Every multiplicity table must reproduce the oracle normal form entry
    by entry, and the total weights are recorded (they are the Bell
    numbers, restating the weight-one expectation).  The diagram states
    after n vertices are carried to n + 1 by one more vertex-adding step,
    so row n costs one step, not n (`enumerate_graphs(d, n)` starts over
    from the empty diagram and gives the same table).
    """
    _nonnegative(r=r, M=M, n_max=n_max)
    t0 = time.perf_counter()
    params = {"r": r, "M": M, "n_max": n_max}
    d = laguerre_derivative_nf(r, M)
    blocks = blocks_from(d)
    states = {(0, 0): 1}
    power = NormalForm.one()
    totals = []
    mismatch = None
    for n in range(1, n_max + 1):
        power = power * d
        states = enumerate_step(states, blocks)
        table = CoeffTable.from_dict(n, states)
        mismatch = _nf_mismatch(table.to_normal_form(), power, "n", n)
        if mismatch is not None:
            break
        totals.append(int(table.total_weight))
    return _finish("graphs", params, "exact", t0, mismatch,
                   {"totals": totals, "paths": ["power fold", "graph count"]})


# ---------------------------------------------------------------------------
# dispatch

SUITE_IDS = (
    "commutator",
    "stirling-expansion",
    "bell-first-kind",
    "bell-diagonal-powers",
    "laguerre-normal-form",
    "exp-exponential",
    "exp-kummer",
    "exp-monomial",
    "sheffer",
    "egf",
    "eigenfunction",
    "examples",
    "bessel-parity",
    "stirling-hyp",
    "bell-hyp-r1",
    "bell-hyp-r2",
    "bell-hyp-r3",
    "hyp-generating-function",
    "graphs",
    "conjecture",
)

_ALIASES = {"shef": "sheffer"}


def _pick(value, default_list):
    return default_list if value is None else (value,)


def _size(value, default):
    return default if value is None else value


def run_identity(
    identity: str,
    r: int | None = None,
    M: int | None = None,
    n: int | None = None,
    lambda_order: int | None = None,
    precision: int = DEFAULT_PRECISION,
    tolerance=DEFAULT_TOLERANCE,
) -> list[IdentityReport]:
    """Run one named identity (or one worked example) with overrides.

    Unspecified parameters fall back to the identity's default grid, so
    e.g. the bare commutator id sweeps r in 1..3 and M in 0..3 while
    passing r=2 pins the sweep to that single r.  Sizes are taken as
    given (0 included); a negative n or lambda_order raises ValueError.
    """
    if n is not None and n < 0:
        raise ValueError("n must be >= 0")
    if lambda_order is not None and lambda_order < 0:
        raise ValueError("lambda_order must be >= 0")
    identity = _ALIASES.get(identity, identity)
    reports: list[IdentityReport] = []
    if identity == "commutator":
        for rr in _pick(r, (1, 2, 3)):
            for mm in _pick(M, (0, 1, 2, 3)):
                reports.append(verify_commutator(rr, mm))
    elif identity == "stirling-expansion":
        for rr in _pick(r, (1, 2, 3)):
            for mm in _pick(M, (1, 2, 3)):
                reports.append(verify_stirling_expansion(rr, mm, _size(n, 5)))
    elif identity == "bell-first-kind":
        for rr in _pick(r, (1, 2, 3, 4)):
            reports.append(verify_bell_first_kind(rr, _size(n, 8)))
    elif identity == "bell-diagonal-powers":
        for mm in _pick(M, (1, 2, 3)):
            reports.append(verify_bell_diagonal_powers(mm, _size(n, 4)))
    elif identity == "laguerre-normal-form":
        reports.append(verify_laguerre_normal_form(_size(n, 6)))
    elif identity == "exp-exponential":
        for b in (1, 2, Fraction(1, 3)):
            reports.append(verify_exp_on_exponential(
                b, lambda_order=_size(lambda_order, 8)))
    elif identity == "exp-kummer":
        for b in (1, 2, 3, Fraction(3, 2)):
            reports.append(
                verify_exp_on_kummer(
                    b,
                    lambda_order=_size(lambda_order, 8),
                    precision=precision,
                    tolerance=tolerance,
                )
            )
    elif identity == "exp-monomial":
        reports.append(verify_exp_on_monomial(_size(n, 6)))
    elif identity == "sheffer":
        for rr in _pick(r, (1, 2, 3)):
            reports.append(verify_sheffer(rr, _size(n, 5)))
    elif identity == "egf":
        for rr in _pick(r, (1, 2, 3, 4)):
            reports.append(verify_egf(rr, _size(n, 8)))
    elif identity == "eigenfunction":
        pairs = ((1, 1), (1, 2), (2, 1), (2, 2), (3, 3))
        if r is not None or M is not None:
            pairs = tuple(
                (rr, mm) for rr in _pick(r, (1, 2, 3)) for mm in _pick(M, (1, 2, 3))
            )
        for rr, mm in pairs:
            reports.append(verify_eigenfunction(rr, mm))
    elif identity == "examples":
        for ex in EXAMPLE_IDS:
            reports.extend(
                run_identity(
                    ex,
                    r=r,
                    M=M,
                    n=n,
                    lambda_order=lambda_order,
                    precision=precision,
                    tolerance=tolerance,
                )
            )
    elif identity in EXAMPLE_IDS:
        if identity == "laguerre-shifted":
            for p in _pick(n, (1, 2, 3)):
                reports.append(example_normal_forms(
                    identity, _size(lambda_order, 6), p=p))
        elif identity in ("eigen-operator", "hyp-compact"):
            for mm in _pick(M, (1, 2, 3)):
                reports.append(example_normal_forms(
                    identity, _size(lambda_order, 5), M=mm))
        else:
            reports.append(
                example_normal_forms(identity, _size(lambda_order, 6),
                                     precision=precision, tolerance=tolerance)
            )
    elif identity == "bessel-parity":
        reports.append(bessel_parity_check(_size(lambda_order, 8)))
    elif identity in CLOSED_FORM_KINDS:
        default_M = {"stirling-hyp": (1, 2, 3), "bell-hyp-r1": (1, 2, 3),
                     "bell-hyp-r2": (1, 2), "bell-hyp-r3": (1,)}[identity]
        for mm in _pick(M, default_M):
            reports.append(
                hyp_closed_form_check(identity, None, mm, n, precision=precision,
                                      tolerance=tolerance)
            )
    elif identity == "hyp-generating-function":
        grid = ((1, 1), (1, 2), (2, 2))
        if r is not None or M is not None:
            grid = tuple(
                (rr, mm) for rr in _pick(r, (1, 2)) for mm in _pick(M, (1, 2))
            )
        for rr, mm in grid:
            reports.append(
                hyp_generating_function_check(
                    rr, mm, 1, _size(lambda_order, 6), precision=precision,
                    tolerance=tolerance
                )
            )
    elif identity == "graphs":
        for rr in _pick(r, (1, 2)):
            for mm in _pick(M, (1, 2)):
                reports.append(verify_graph_enumeration(rr, mm, _size(n, 4)))
    elif identity == "conjecture":
        probes = ((1, 1, 3), (2, 1, 2), (2, 2, 2), (3, 1, 1), (4, 1, 1))
        if r is not None:
            probes = tuple((r, mm, _size(n, 1)) for mm in _pick(M, (1,)))
        for rr, mm, nn in probes:
            reports.append(conjecture_probe(rr, mm, nn, precision=precision))
    else:
        raise ValueError(f"unknown identity {identity!r}")
    return reports


def run_suite(
    include_probes: bool = True,
    precision: int = DEFAULT_PRECISION,
    tolerance=DEFAULT_TOLERANCE,
) -> list[IdentityReport]:
    """Default verification sweep; deterministic report order."""
    reports: list[IdentityReport] = []
    ids = list(SUITE_IDS)
    if not include_probes:
        ids.remove("conjecture")
    for identity in ids:
        reports.extend(
            run_identity(identity, precision=precision, tolerance=tolerance)
        )
    reports.sort(
        key=lambda rep: (
            rep.identity,
            json.dumps(rep.parameters, sort_keys=True, default=str),
        )
    )
    return reports


def suite_passed(reports) -> bool:
    return all(rep.status != "fail" for rep in reports)


def reports_to_json(reports) -> str:
    return json.dumps([rep.to_json_dict() for rep in reports], indent=2)
