"""Hypergeometric closed forms and assembled normally ordered identities.

Every check here cross-checks two independently computed objects:
one side comes from the exact combinatorial machinery (operator rewrite
oracle, Stirling rows, Bell polynomials), the other from a closed form
assembled out of hypergeometric series, Bessel/Laguerre/Kummer pieces,
or double-dot series. The comparison itself lives in `normord.report`:
integer/rational cases go through its exact scan, row by row; cases
with half- or third-integer gamma prefactors go through HighPrecReal
and its `DeviationTally`, which reports the worst relative and absolute
deviation. Operator powers come from `_oracle_powers`, the one fold of
D(r,M)^0..n that the suite drivers use too. The Bell generating
function's outer l-sum is `stirling.dobinski_sums`, and pFq values are
summed by `hyp_sum_adaptive`: the two users of `series.certified_sum`.
Sample points, pFq parameters and tolerances go through
`series._canonical`, so a float raises TypeError. The worked examples
read one implementation of each formula: left sides are
`_scaled_powers` (Taylor coefficients times oracle powers);
`eigen-operator`'s rows are `stirling.alternating_sum_row` and
`hyp-compact`'s are e^-y times `series.phyperq_series`; the dot series
share `_resolvent` ((1-t·a)^-1 and t·a†a²(1-t·a)^-1) and `_bessel_dot`;
`_laguerre_rows` also serves `suite.verify_laguerre_normal_form`. Each
public check times itself and returns an IdentityReport whose
parameters include the orders it ran to (n_max or lambda_order) and
whose details name the paths it compared;
the conjecture probe's report is informational and records only its
precision. `hyp_closed_form_check` finds a kind's family and default
n_max in `CLOSED_FORMS`, and `example_normal_forms` finds an example's
builder in `EXAMPLES`; which of them `verify` runs, and over what grid,
is `normord.suite.IDENTITIES`.
"""

import time
from decimal import ROUND_CEILING, Context, Decimal, localcontext
from fractions import Fraction
from functools import partial

from .hyperreal import HighPrecReal
from .laguerre import DotSeries
from .report import DeviationTally, IdentityReport, _finish, _rows_mismatch
from .series import (
    SeriesQ,
    _canonical,
    certified_sum,
    factorial,
    laguerre_poly,
    phyperq_partial,
    phyperq_series,
    pfq_ratio,
    series_exp,
)
from .stirling import (
    alternating_sum_row,
    dobinski_sums,
    gen_bell_number,
    gen_bell_poly,
    gen_stirling_rows,
)
from .weyl import NormalForm, laguerre_derivative_nf

DEFAULT_PRECISION = 50
DEFAULT_TOLERANCE = Fraction(1, 10**30)

# kind -> (r of its operator family, default highest row n_max)
CLOSED_FORMS = {
    "stirling-hyp": (1, 5),
    "bell-hyp-r1": (1, 5),
    "bell-hyp-r2": (2, 3),
    "bell-hyp-r3": (3, 2),
}
CLOSED_FORM_KINDS = tuple(CLOSED_FORMS)


def _pfq_cap(upper, lower, x):
    """certified_sum's ratio cap for pFq(upper; lower; x) with positive parameters."""

    def ratio_cap(k):
        # Each paired (u+j)/(l+j) factor moves monotonically toward 1 as
        # j grows, unpaired 1/(l+j) and x/(j+1) shrink, so every ratio at
        # j > k is at most this, and it does not increase with k.
        cap = Fraction(x, k + 2)
        for u, l in zip(upper, lower):
            cap *= max(1, Fraction(u + k + 1, l + k + 1))
        for l in lower[len(upper):]:
            cap /= l + k + 1
        return cap

    return ratio_cap


def hyp_sum_adaptive(
    upper, lower, x, prec: int = DEFAULT_PRECISION, max_terms: int = 200000
) -> Fraction:
    """Exact partial sum of pFq with positive parameters, x >= 0, p <= q.

    Truncated by `certified_sum` so the discarded tail is provably below
    10^-(prec+10) relative to the returned total (all terms are positive
    and the first is 1).  Exhausting max_terms before the bound certifies
    raises RuntimeError; precision is never silently degraded.  The terms
    come from `series.pfq_ratio`; the ratio cap needs the positive
    parameters checked here.
    """
    upper = [_canonical(u) for u in upper]
    lower = [_canonical(l) for l in lower]
    x = _canonical(x)
    if len(upper) > len(lower):
        raise ValueError("adaptive evaluation needs p <= q")
    if x < 0 or any(u <= 0 for u in upper) or any(l <= 0 for l in lower):
        raise ValueError("adaptive evaluation needs positive parameters and x >= 0")
    (total,), _ = certified_sum(*pfq_ratio(upper, lower, x),
                                _pfq_cap(upper, lower, x),
                                Fraction(1, 10 ** (prec + 10)), max_terms)
    return total


def _bound_str(q: Fraction) -> str:
    """q as a 6-digit decimal rounded up, so that a bound stays a bound."""
    with localcontext(Context(prec=6, rounding=ROUND_CEILING)):
        return str(Decimal(q.numerator) / Decimal(q.denominator))


def _half_power(base: HighPrecReal, m: int) -> HighPrecReal:
    """base^(m/2) for integer m >= 0."""
    out = base.pow_int(m // 2)
    if m % 2:
        out = out * base.sqrt()
    return out


def _bessel_half_taylor(kind: int, n_terms: int) -> list:
    # Coefficients of I_kind(y/2) as a series in y; only every other
    # power appears.
    out = []
    for k in range(n_terms):
        if kind == 0 and k % 2 == 0:
            m = k // 2
            out.append(Fraction(1, 4**k * factorial(m) ** 2))
        elif kind == 1 and k % 2 == 1:
            m = (k - 1) // 2
            out.append(Fraction(1, 4**k * factorial(m) * factorial(m + 1)))
        else:
            out.append(0)
    return out


def _oracle_powers(r: int, M: int, n_max: int) -> list:
    """NormalForms of the n-th operator power for n = 0..n_max."""
    d = laguerre_derivative_nf(r, M)
    out = [NormalForm.one()]
    for _ in range(n_max):
        out.append(out[-1] * d)
    return out


def _scaled_powers(M: int, taylor) -> list:
    """taylor[n] times the oracle power D(1,M)^n, for n < len(taylor)."""
    powers = _oracle_powers(1, M, len(taylor) - 1)
    return [p.scale(c) for p, c in zip(powers, taylor)]


def _laguerre_rows(n_max: int) -> list:
    """Rows {(j, j+n): (-1)^j L_n[j]}, n = 0..n_max: D(1,1)^n / n! in normal order."""
    return [{(j, j + n): lag.coeff(j) * (-1) ** j for j in range(n + 1)}
            for n, lag in enumerate(map(laguerre_poly, range(n_max + 1)))]


# ---------------------------------------------------------------------------
# Stirling / Bell closed forms


def _check_stirling_hyp(M: int, n_max: int, t0: float) -> IdentityReport:
    # two k past each row's width, where the triangle holds 0
    closed = [
        {k: Fraction((-1) ** k * factorial(n) ** M, factorial(k))
         * phyperq_partial([-k] + [n + 1] * M, [1] * M, 1, k + 1)
         for k in range(M * n + 3)}
        for n in range(n_max + 1)
    ]
    rows = [dict(enumerate(row)) for row in gen_stirling_rows(1, M, n_max)]
    _, first = _rows_mismatch(closed, rows, "n", ("k",))
    return _finish("stirling-hyp", {"r": 1, "M": M, "n_max": n_max}, "exact", t0,
                   first, {"first_mismatch": first,
                           "checks": sum(len(row) for row in closed)},
                   paths=("pFq closed form", "triangle"))


def _check_bell_hyp_r1(M: int, n_max: int, t0: float) -> IdentityReport:
    # e^x * B(n,x) has the same series coefficients as the bare mFm,
    # so the comparison stays rational.
    lhs, rhs = [], []
    for n in range(n_max + 1):
        order = M * n + 6
        bell = gen_bell_poly(1, M, n)
        scaled = series_exp(SeriesQ.x(order)) * SeriesQ.from_poly(bell, order)
        closed = phyperq_series([n + 1] * M, [1] * M, order).scale(factorial(n) ** M)
        lhs.append(dict(enumerate(scaled.coeffs)))
        rhs.append(dict(enumerate(closed.coeffs)))
    _, first = _rows_mismatch(lhs, rhs, "n", ("power",))
    return _finish("bell-hyp-r1", {"r": 1, "M": M, "n_max": n_max}, "exact", t0,
                   first, {"first_mismatch": first,
                           "checks": sum(len(row) for row in lhs)},
                   paths=("e^x Bell polynomial", "mFm series"))


def _bell_r2_closed_value(M: int, n: int, x: int | Fraction, prec: int) -> HighPrecReal:
    arg = Fraction(x * x, 4)
    fa = hyp_sum_adaptive([n + 1] * M, [1] * M + [Fraction(1, 2)], arg, prec)
    fb = hyp_sum_adaptive(
        [Fraction(2 * n + 3, 2)] * M, [Fraction(3, 2)] * (M + 1), arg, prec
    )
    pi = HighPrecReal.pi(prec)
    pi_m_half = _half_power(pi, M)
    g = HighPrecReal.gamma(Fraction(2 * n + 3, 2), prec)
    term1 = HighPrecReal(factorial(n) ** M, prec) * fa * pi_m_half
    term2 = (
        HighPrecReal(2**M, prec)
        * g.pow_int(M)
        * HighPrecReal(x, prec)
        * HighPrecReal(fb, prec)
    )
    scale = HighPrecReal(2 ** (M * n), prec) * HighPrecReal.exp_of(-x, prec)
    return scale * (term1 + term2) / pi_m_half


def _bell_r3_closed_value(M: int, n: int, x: int | Fraction, prec: int) -> HighPrecReal:
    arg = Fraction(x**3, 27)
    f1 = hyp_sum_adaptive(
        [n + 1] * M, [1] * M + [Fraction(1, 3), Fraction(2, 3)], arg, prec
    )
    f2 = hyp_sum_adaptive(
        [n + Fraction(4, 3)] * M,
        [Fraction(4, 3)] * (M + 1) + [Fraction(2, 3)],
        arg,
        prec,
    )
    f3 = hyp_sum_adaptive(
        [n + Fraction(5, 3)] * M,
        [Fraction(5, 3)] * (M + 1) + [Fraction(4, 3)],
        arg,
        prec,
    )
    pi = HighPrecReal.pi(prec)
    g23 = HighPrecReal.gamma(Fraction(2, 3), prec)
    xr = HighPrecReal(x, prec)
    t1 = (
        HighPrecReal(2 ** (M + 1) * 3 ** (M * n), prec)
        * (pi * HighPrecReal(factorial(n), prec) * g23).pow_int(M)
        * HighPrecReal(f1, prec)
    )
    t2 = (
        HighPrecReal(2, prec)
        * HighPrecReal(3 ** (M * n + M), prec)
        * _half_power(HighPrecReal(3, prec), M)
        * (g23.pow_int(2) * HighPrecReal.gamma(n + Fraction(4, 3), prec)).pow_int(M)
        * xr
        * HighPrecReal(f2, prec)
    )
    t3 = (
        HighPrecReal(3 ** (M * (n + 1)), prec)
        * (pi * HighPrecReal.gamma(n + Fraction(5, 3), prec)).pow_int(M)
        * xr.pow_int(2)
        * HighPrecReal(f3, prec)
    )
    denom = HighPrecReal(2 ** (M + 1), prec) * (pi * g23).pow_int(M)
    return HighPrecReal.exp_of(-x, prec) * (t1 + t2 + t3) / denom


def _check_bell_hyp_numeric(
    r: int, M: int, n_max: int, x_samples, prec, tol, t0: float
) -> IdentityReport:
    closed = _bell_r2_closed_value if r == 2 else _bell_r3_closed_value
    xs = [_canonical(x) for x in x_samples]
    tally = DeviationTally(prec, tol)
    for n in range(n_max + 1):
        bell = gen_bell_poly(r, M, n)
        for x in xs:
            tally.add(closed(M, n, x, prec), HighPrecReal(bell.eval(x), prec),
                      {"n": n, "x": str(x)})
    params = {"r": r, "M": M, "x_samples": [str(x) for x in xs], "n_max": n_max}
    details = {"first_mismatch": tally.first, "checks": (n_max + 1) * len(xs),
               "max_rel_dev": tally.max_rel_dev, "max_abs_dev": tally.max_abs_dev}
    return _finish(f"bell-hyp-r{r}", params, "numeric", t0, tally.first, details,
                   paths=("pFq closed form", "Bell polynomial"),
                   precision=prec, tolerance=str(tol))


def hyp_closed_form_check(
    kind: str,
    r: int | None = None,
    M: int = 1,
    n_max: int | None = None,
    x_samples=None,
    precision: int = DEFAULT_PRECISION,
    tolerance=DEFAULT_TOLERANCE,
) -> IdentityReport:
    """Check one hypergeometric closed form against the exact machinery.

    kind selects the identity (a key of CLOSED_FORMS); r, when given,
    must match the kind's operator family (1 for stirling-hyp and
    bell-hyp-r1, 2 for bell-hyp-r2, 3 for bell-hyp-r3). n_max is the
    highest row checked, by default the kind's own. x_samples matter
    only for the numeric kinds.
    """
    t0 = time.perf_counter()
    if kind not in CLOSED_FORMS:
        raise ValueError(f"unknown closed-form kind {kind!r}")
    family_r, default_n_max = CLOSED_FORMS[kind]
    if r is not None and r != family_r:
        raise ValueError(f"kind {kind} is the r={family_r} closed form, got r={r}")
    if n_max is None:
        n_max = default_n_max
    if M < 1 or n_max < 0:
        raise ValueError("need M >= 1 and n_max >= 0")
    if kind == "stirling-hyp":
        return _check_stirling_hyp(M, n_max, t0)
    if kind == "bell-hyp-r1":
        return _check_bell_hyp_r1(M, n_max, t0)
    if x_samples is None:
        x_samples = (Fraction(1, 2), 1, 2)
    return _check_bell_hyp_numeric(family_r, M, n_max, x_samples, precision,
                                   tolerance, t0)


# ---------------------------------------------------------------------------
# Generating function of the Bell numbers via an l-indexed family of mFm


def hyp_generating_function_check(
    r: int,
    M: int,
    x=1,
    lambda_order: int = 6,
    precision: int = DEFAULT_PRECISION,
    tolerance=DEFAULT_TOLERANCE,
    max_terms: int = 200000,
) -> IdentityReport:
    """exp(-x) sum_l x^l/l! mFm([l/r+1 x M],[1 x M], r^M t) against the
    Bell column t^n -> B(n,x)/(n!)^(M+1), coefficientwise through
    t^lambda_order.

    The common 1/(n!)^(M+1) is cancelled before comparing. Row n's
    coefficient is the outer sum over l of x^l/l! * W(n,l), W(n,l) =
    prod_{i<=n} (l+ir)^M, summed by `stirling.dobinski_sums`; if
    the tail cannot be certified within the term budget the report says
    so instead of passing. Passing reports record the certificate:
    outer_terms, ratio_cap and tail_bound (both rounded up; the bound is
    on the top row's l-sum, before the e^-x factor).
    """
    t0 = time.perf_counter()
    if r < 1 or M < 0 or lambda_order < 0:
        raise ValueError("need r >= 1, M >= 0, lambda_order >= 0")
    x, tolerance = _canonical(x), _canonical(tolerance)
    params = {"r": r, "M": M, "x": str(x), "lambda_order": lambda_order}
    numctx = {"precision": precision, "tolerance": str(tolerance)}
    paths = ("certified l-sum", "Bell polynomial")
    try:
        totals, cert = dobinski_sums(r, M, lambda_order, x,
                                     Fraction(1, 10 ** (precision + 10)), max_terms)
    except RuntimeError:
        first = {"reason": "tail bound not certified within term budget"}
        return _finish("hyp-generating-function", params, "numeric", t0, first,
                       {"first_mismatch": first, "outer_terms": max_terms + 1},
                       paths=paths, **numctx)
    emx = HighPrecReal.exp_of(-x, precision)
    tally = DeviationTally(precision, tolerance)
    for n, total in enumerate(totals):
        tally.add(emx * HighPrecReal(total, precision),
                  HighPrecReal(gen_bell_poly(r, M, n).eval(x), precision), {"n": n})
    details = {"first_mismatch": tally.first, "outer_terms": cert.terms,
               "ratio_cap": _bound_str(cert.ratio_cap),
               "tail_bound": _bound_str(cert.tail_bound),
               "max_rel_dev": tally.max_rel_dev, "max_abs_dev": tally.max_abs_dev}
    return _finish("hyp-generating-function", params, "numeric", t0, tally.first,
                   details, paths=paths, **numctx)


# ---------------------------------------------------------------------------
# Normally ordered expansions of functions of the first-order operator


def _dot_nf_list(ds: DotSeries, n_max: int) -> list:
    return [ds.lambda_coefficient(n) for n in range(n_max + 1)]


def _resolvent(order: int):
    """(1-t·a)^-1 and the argument t·a†a²(1-t·a)^-1, as dot series."""
    inv = DotSeries.binpow(order, -1, 1, -1)
    return inv, DotSeries.monomial(order, 1, 1, 2) * inv


def _bessel_dot(order: int, s: int, sigma: int) -> DotSeries:
    """:exp(s·t·a) sum_m sigma^m/(m!)^2 (t·a†a²)^m:; I0 is (1, 1), J0 (-1, -1)."""
    taylor = [Fraction(sigma**m, factorial(m) ** 2) for m in range(order)]
    return (DotSeries.monomial(order, 1, 0, 1, s).exp()
            * DotSeries.monomial(order, 1, 1, 2).apply_function(taylor))


def _kummer_sides(b: Fraction, lambda_order: int):
    """Left oracle list and generic dot-form right side for 1F1([b],[1], t*D)."""
    order = lambda_order + 1
    taylor = phyperq_series([b], [1], order).coeffs
    _, arg = _resolvent(order)
    rhs = DotSeries.binpow(order, -1, 1, -b) * arg.apply_function(taylor)
    return _scaled_powers(1, taylor), rhs, arg


def _example_laguerre_ogf(lambda_order: int, t0: float, **_) -> IdentityReport:
    order = lambda_order + 1
    lhs = _scaled_powers(1, [Fraction(1, factorial(n)) for n in range(order)])
    inv, arg = _resolvent(order)
    rhs = _dot_nf_list(inv * arg.exp(), lambda_order)
    checks, first = _rows_mismatch(lhs, rhs, "lambda")
    notes = []
    if first is None:
        # Same coefficients again via the Laguerre polynomial form.
        more, first = _rows_mismatch(lhs, _laguerre_rows(lambda_order), "lambda")
        checks += more
        if first is None:
            notes.append("Laguerre-polynomial rows agree with both sides")
    return _finish("laguerre-ogf", {"r": 1, "M": 1, "lambda_order": lambda_order},
                   "exact", t0, first,
                   {"first_mismatch": first, "checks": checks, "notes": notes},
                   paths=("power fold", "dot series", "Laguerre polynomial"))


def _example_kummer_b3(lambda_order: int, t0: float, **_) -> IdentityReport:
    order = lambda_order + 1
    lhs, rhs_generic, arg = _kummer_sides(3, lambda_order)
    inv_cubed = DotSeries.binpow(order, -1, 1, -3)
    l2 = (
        DotSeries.one(order)
        + arg.scale(2)
        + (arg * arg).scale(Fraction(1, 2))
    )
    rhs = _dot_nf_list(inv_cubed * l2 * arg.exp(), lambda_order)
    checks, first = _rows_mismatch(lhs, rhs, "lambda")
    notes = []
    if first is None:
        more, first = _rows_mismatch(lhs, _dot_nf_list(rhs_generic, lambda_order),
                                     "lambda")
        checks += more
        if first is None:
            notes.append("generic Kummer dot form agrees as well")
    return _finish("kummer-b3",
                   {"r": 1, "M": 1, "b": "3", "lambda_order": lambda_order},
                   "exact", t0, first,
                   {"first_mismatch": first, "checks": checks, "notes": notes},
                   paths=("power fold", "b=3 dot form", "generic Kummer dot form"))


def _example_kummer_b3half(lambda_order: int, t0: float, precision: int,
                           tolerance, **_) -> IdentityReport:
    b = Fraction(3, 2)
    order = lambda_order + 1
    lhs, rhs_generic, arg = _kummer_sides(b, lambda_order)
    half_arg = arg.scale(Fraction(1, 2))
    i0 = arg.apply_function(_bessel_half_taylor(0, order))
    i1 = arg.apply_function(_bessel_half_taylor(1, order))
    bracket = (DotSeries.one(order) + arg) * i0 + arg * i1
    rhs = DotSeries.binpow(order, -1, 1, -b) * half_arg.exp() * bracket
    # every entry that differs exactly must agree within tolerance
    tally = DeviationTally(precision, tolerance)
    for n in range(order):
        for cand in (rhs_generic.lambda_coefficient(n), rhs.lambda_coefficient(n)):
            tally.compare(lhs[n], cand, {"lambda": n})
    details = {
        "first_mismatch": tally.first,
        "checks": 2 * order,
        "max_abs_dev": tally.max_abs_dev,
        "max_rel_dev": tally.max_rel_dev,
        "notes": [
            "Bessel assembly uses the prefactor (1-ta)^(-3/2) and the factor"
            " u multiplying I1, both required for the bracket to reduce the"
            " generic Kummer form"
        ],
    }
    return _finish("kummer-b3half",
                   {"r": 1, "M": 1, "b": "3/2", "lambda_order": lambda_order},
                   "numeric", t0, tally.first, details,
                   paths=("power fold", "generic Kummer dot form", "Bessel dot form"),
                   precision=precision, tolerance=str(tolerance))


def _example_laguerre_shifted(lambda_order: int, t0: float, p: int,
                              **_) -> IdentityReport:
    if p < 1:
        raise ValueError("p must be >= 1")
    order = lambda_order + 1
    lhs = _scaled_powers(1, [Fraction(1, factorial(m - p) * factorial(p)) if m >= p
                             else 0 for m in range(order)])
    inv, arg = _resolvent(order)
    w = DotSeries.monomial(order, 0, 1, 1) * inv
    lag = laguerre_poly(p)
    lp = DotSeries(order)
    for j in reversed(range(p + 1)):  # L_p(-w) by Horner's rule
        lp = lp * w + DotSeries.monomial(order, 0, 0, 0, lag.coeff(j) * (-1) ** j)
    pref = DotSeries.binpow(order, -1, 1, -(p + 1))
    shift = DotSeries.monomial(order, p, 0, p)
    rhs = _dot_nf_list(pref * arg.exp() * lp * shift, lambda_order)
    checks, first = _rows_mismatch(lhs, rhs, "lambda")
    return _finish("laguerre-shifted",
                   {"r": 1, "M": 1, "p": p, "lambda_order": lambda_order},
                   "exact", t0, first, {"first_mismatch": first, "checks": checks},
                   paths=("power fold", "dot series"))


def _example_bessel(example_id: str, lambda_order: int, t0: float,
                    **_) -> IdentityReport:
    order = lambda_order + 1
    sign = 1 if example_id == "bessel-i0" else -1
    lhs = _scaled_powers(1, [Fraction(sign**n, factorial(n) ** 2)
                             for n in range(order)])
    rhs = _dot_nf_list(_bessel_dot(order, sign, sign), lambda_order)
    checks, first = _rows_mismatch(lhs, rhs, "lambda")
    notes = []
    if example_id == "bessel-j0" and first is None and lambda_order >= 1:
        # Same series with the inner sign dropped: that variant must break
        # at t^1, which pins the corrected inner argument as the real form.
        # At lambda_order 0 the two agree by construction: nothing to test.
        wrong = _bessel_dot(order, -1, 1)
        _, wrong_first = _rows_mismatch(lhs, _dot_nf_list(wrong, lambda_order),
                                        "lambda")
        if wrong_first is None:
            first = {"lambda": None, "note": "sign-dropped variant unexpectedly agreed"}
        else:
            notes.append(
                "inner argument needs the global sign flip; the variant without"
                f" it first differs at lambda^{wrong_first['lambda']}"
            )
    return _finish(example_id, {"r": 1, "M": 1, "lambda_order": lambda_order},
                   "exact", t0, first,
                   {"first_mismatch": first, "checks": checks, "notes": notes},
                   paths=("power fold", "dot series"))


def bessel_parity_check(lambda_order: int) -> IdentityReport:
    """The two Bessel expansions are global t -> -t images of each other."""
    t0 = time.perf_counter()
    order = lambda_order + 1
    i0 = _bessel_dot(order, 1, 1)
    checks, first = _rows_mismatch(
        _dot_nf_list(_bessel_dot(order, -1, -1), lambda_order),
        [i0.lambda_coefficient(n).scale((-1) ** n) for n in range(order)],
        "lambda",
    )
    return _finish("bessel-parity", {"r": 1, "M": 1, "lambda_order": lambda_order},
                   "exact", t0, first, {"first_mismatch": first, "checks": checks},
                   paths=("J0 dot series", "I0 dot series at -t"))


def _example_eigen_operator(lambda_order: int, t0: float, M: int,
                            **_) -> IdentityReport:
    scales = [Fraction(1, factorial(n) ** (M + 1)) for n in range(lambda_order + 1)]
    lhs = _scaled_powers(M, scales)
    # The alternating sum gives row n of S_1^(M), the coefficients of
    # (ad)^k a^(k+n) in D(1,M)^n; row 0 is [1].
    rows, products, error = [[1]], [1], None
    for n in range(1, lambda_order + 1):
        try:
            row, products = alternating_sum_row(1, M, n, products)
        except ArithmeticError as exc:
            error = {"lambda": n, "where": "alternating sum", "error": str(exc)}
            break
        rows.append(row)
    rhs = [{(k, k + n): c * scales[n] for k, c in enumerate(row)}
           for n, row in enumerate(rows)]
    checks, first = _rows_mismatch(lhs, rhs, "lambda")
    if first is None:
        first = error
    bell_ok = all(p.expectation_at_one() == gen_bell_number(1, M, n) * scales[n]
                  for n, p in enumerate(lhs))
    notes = ["weight-one expectations match the Bell numbers"] if bell_ok else []
    if not bell_ok and first is None:
        first = {"lambda": None, "note": "Bell cross-check failed"}
    return _finish("eigen-operator", {"r": 1, "M": M, "lambda_order": lambda_order},
                   "exact", t0, first,
                   {"first_mismatch": first, "checks": checks, "notes": notes},
                   paths=("power fold", "alternating sum", "triangle row sum"))


def _example_hyp_compact(lambda_order: int, t0: float, M: int, **_) -> IdentityReport:
    rhs = []
    for n in range(lambda_order + 1):
        # (n!)^M : e^{-y} mFm([n+1 x M],[1 x M], y) a^n : with y = ad a
        order = M * n + 4
        row = (series_exp(SeriesQ(order, [0, -1]))
               * phyperq_series([n + 1] * M, [1] * M, order)).scale(factorial(n) ** M)
        rhs.append({(k, k + n): c for k, c in enumerate(row.coeffs)})
    checks, first = _rows_mismatch(_oracle_powers(1, M, lambda_order), rhs, "lambda")
    return _finish("hyp-compact", {"r": 1, "M": M, "lambda_order": lambda_order},
                   "exact", t0, first, {"first_mismatch": first, "checks": checks},
                   paths=("power fold", "mFm weights"))


# example id -> builder(lambda_order, t0, **options): each builder takes
# the options of example_normal_forms it names and ignores the rest
EXAMPLES = {
    "laguerre-ogf": _example_laguerre_ogf,
    "kummer-b3": _example_kummer_b3,
    "kummer-b3half": _example_kummer_b3half,
    "laguerre-shifted": _example_laguerre_shifted,
    "bessel-i0": partial(_example_bessel, "bessel-i0"),
    "bessel-j0": partial(_example_bessel, "bessel-j0"),
    "eigen-operator": _example_eigen_operator,
    "hyp-compact": _example_hyp_compact,
}
EXAMPLE_IDS = tuple(EXAMPLES)


def example_normal_forms(
    example_id: str,
    lambda_order: int,
    p: int = 2,
    M: int = 2,
    precision: int = DEFAULT_PRECISION,
    tolerance=DEFAULT_TOLERANCE,
) -> IdentityReport:
    """Verify one assembled normally ordered expansion per lambda power.

    The left side is always Taylor coefficients applied to oracle powers
    of the operator; the right side is an independently assembled
    double-dot series. p feeds laguerre-shifted, M the two family-wide
    identities.
    """
    t0 = time.perf_counter()
    if lambda_order < 0:
        raise ValueError("lambda_order must be >= 0")
    if example_id not in EXAMPLES:
        raise ValueError(f"unknown example id {example_id!r}")
    return EXAMPLES[example_id](lambda_order, t0, p=p, M=M, precision=precision,
                                tolerance=tolerance)


# ---------------------------------------------------------------------------
# Conjectured r-term structure for general r


def _conjecture_lower_params(r: int, M: int, t: int) -> list:
    if t == 0:
        return [1] * M + [Fraction(j, r) for j in range(1, r)]
    out = [1 + Fraction(t, r)] * (M + 1)
    out += [1 + Fraction(t - j, r) for j in range(1, r) if j != t]
    return out


def _solve_linear(matrix, rhs, prec):
    # Gaussian elimination with partial pivoting over HighPrecReal;
    # dimensions here are at most 4x4.
    m = [row[:] for row in matrix]
    b = rhs[:]
    size = len(b)
    for col in range(size):
        pivot = max(range(col, size), key=lambda i: abs(m[i][col]).value)
        if abs(m[pivot][col]).value == 0:
            raise ArithmeticError("singular fit system")
        m[col], m[pivot] = m[pivot], m[col]
        b[col], b[pivot] = b[pivot], b[col]
        for i in range(col + 1, size):
            f = m[i][col] / m[col][col]
            for j in range(col, size):
                m[i][j] = m[i][j] - f * m[col][j]
            b[i] = b[i] - f * b[col]
    out = [HighPrecReal(0, prec)] * size
    for i in reversed(range(size)):
        acc = b[i]
        for j in range(i + 1, size):
            acc = acc - m[i][j] * out[j]
        out[i] = acc / m[i][i]
    return out


def conjecture_probe(
    r: int,
    M: int,
    n: int,
    x_samples=(Fraction(1, 2), 1, 2, 3, 4),
    precision: int = DEFAULT_PRECISION,
) -> IdentityReport:
    """Fit exp(x)*B(n,x) against the conjectured r-term hypergeometric
    combination sum_t c_t x^t pFq(..., x^r/r^r) and report the residuals
    at the sample points beyond the fit. Informational only: the report
    records its precision and no tolerance, since nothing is compared.
    """
    t0 = time.perf_counter()
    if r < 1 or r > 4:
        raise ValueError("probe covers r <= 4")
    xs = [_canonical(x) for x in x_samples]
    if len(xs) <= r:
        raise ValueError(f"need more than {r} sample points to report residuals")
    if any(x <= 0 for x in xs):
        raise ValueError("sample points must be positive")
    bell = gen_bell_poly(r, M, n)
    upper = lambda t: [n + 1 + Fraction(t, r)] * M

    def basis_value(t, x):
        f = hyp_sum_adaptive(
            upper(t), _conjecture_lower_params(r, M, t), Fraction(x**r, r**r), precision
        )
        return HighPrecReal(x**t * f, precision)

    def target(x):
        return HighPrecReal.exp_of(x, precision) * HighPrecReal(bell.eval(x), precision)

    fit_xs, rest_xs = xs[:r], xs[r:]
    matrix = [[basis_value(t, x) for t in range(r)] for x in fit_xs]
    rhs = [target(x) for x in fit_xs]
    coeffs = _solve_linear(matrix, rhs, precision)
    worst = None
    residuals = []
    for x in rest_xs:
        pred = HighPrecReal(0, precision)
        for t in range(r):
            pred = pred + coeffs[t] * basis_value(t, x)
        rel = pred.rel_deviation(target(x))
        residuals.append({"x": str(x), "rel_residual": str(rel)})
        if worst is None or rel > worst:
            worst = rel
    return IdentityReport(
        "conjecture-probe",
        {"r": r, "M": M, "n": n, "x_samples": [str(x) for x in xs]},
        "informational",
        "informational",
        {
            "fitted_coefficients": [str(c) for c in coeffs],
            "residuals": residuals,
            "max_rel_residual": str(worst),
        },
        time.perf_counter() - t0,
        precision,
    )
