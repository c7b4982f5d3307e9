"""Hypergeometric closed forms and assembled normally ordered identities.

Every check here cross-checks two independently computed objects:
one side comes from the exact combinatorial machinery (operator rewrite
oracle, Stirling rows, Bell polynomials), the other from a closed form
assembled out of hypergeometric series, Bessel/Laguerre/Kummer pieces,
or double-dot series. Every side that is rational is compared in
`normord.report`'s exact scan, row by row, `kummer-b3half` included.
The one numeric check is the Bell generating function: its e^-x and its
l-sums are enclosed between exact rationals (`normord.hyperreal`), and
it passes on a proven bound on the relative deviation, never on a
rounded value. `stirling_hyp_check` compares the rows of S with their
terminating pFq sums, taken in ints by `series._terminating_sums`: the
weights C(n+j, j)^M once per row, and the row over one denominator.
The Bell closed forms for r = 1, 2, 3 are one
exact check, `bell_hyp_check`: the √π, Γ(1/3) and Γ(2/3) prefactors of
the paper's form cancel, leaving r rational pFq series in x^r/r^r.
`conjecture_check` runs the same check at any r >= 1, where the
generalized Dobinski relation gives the same r-term form.
Operator powers come from `_oracle_powers`, the one fold of
D(r,M)^0..n that the suite drivers use too. The Bell generating
function's outer l-sum is `stirling.dobinski_sums`; it and
`hyperreal.exp_bounds` are the users of `series.certified_sum`.
Sample points, pFq parameters and tolerances go through
`series._canonical`, so a float raises TypeError; the Bell closed forms
hand their pFq parameters over as int (numerator, denominator) pairs
(`series._pair`), so no row builds a Fraction. The worked examples
read one implementation of each formula: left sides are oracle powers
scaled by Taylor coefficients (`_scaled_powers` for D(1,1), the two
Kummer examples' through `_kummer_sides`);
`eigen-operator`'s rows are `stirling.alternating_sum_rows` and
`hyp-compact`'s are e^-y times `series.phyperq_series`; the dot series
share `_resolvent` ((1-t·a)^-1 and t·a†a²(1-t·a)^-1) and `_bessel_dot`,
and are read out by `DotSeries.lambda_rows`.  Every lambda row is a
`NormalForm`, int numerators over one reduced denominator, whether it
is a scaled oracle power, a dot series' row or a row built from a
Laguerre polynomial or mFm series; `report._rows_mismatch` decides each
by comparing those ints and builds a rational only to name a mismatch.
`_laguerre_rows` also serves `suite.verify_laguerre_normal_form`. Each
check, the private example builders included, takes only the options it
reads, times itself and returns an IdentityReport whose parameters
include the orders it ran to (n_max or lambda_order) and whose details
name the paths it compared.  `normord.suite.IDENTITIES` calls each of
them directly, with its grid and default size; `run_identity` is the one
entry that refuses an unknown id or a negative order.
"""

import time
from decimal import ROUND_CEILING, Context, Decimal, localcontext
from fractions import Fraction
from math import comb, lcm

from .hyperreal import exp_bounds, rel_dev_bound
from .laguerre import DotSeries
from .report import IdentityReport, _finish, _rows_mismatch
from .series import (
    SeriesQ,
    _canonical,
    _terminating_sums,
    factorial,
    laguerre_poly,
    phyperq_series,
    series_exp,
)
from .stirling import (
    alternating_sum_rows,
    bell_sequence,
    dobinski_sums,
    stirling_rows,
)
from .weyl import NormalForm, laguerre_derivative_nf

DEFAULT_PRECISION = 50
DEFAULT_TOLERANCE = Fraction(1, 10**30)


def _bound_str(q: Fraction) -> str:
    """q as a 6-digit decimal rounded up, so that a bound stays a bound."""
    with localcontext(Context(prec=6, rounding=ROUND_CEILING)):
        return str(Decimal(q.numerator) / Decimal(q.denominator))


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


def _scaled_powers(taylor) -> list:
    """taylor[n] times the oracle power D(1,1)^n, for n < len(taylor)."""
    powers = _oracle_powers(1, 1, len(taylor) - 1)
    return [p.scale(c) for p, c in zip(powers, taylor)]


def _laguerre_rows(n_max: int) -> list:
    """NormalForms sum_j (-1)^j L_n[j] (ad)^j a^(j+n), n = 0..n_max: D(1,1)^n / n!
    in normal order, each over the denominator of L_n."""
    return [NormalForm._from_ints(
                {(j, j + n): -a if j % 2 else a for j, a in enumerate(lag.nums)},
                lag.den)
            for n, lag in enumerate(map(laguerre_poly, range(n_max + 1)))]


# ---------------------------------------------------------------------------
# Stirling / Bell closed forms


def stirling_hyp_check(M: int, n_max: int) -> IdentityReport:
    """Rows 0..n_max of S_1^(M) against their terminating pFq sums, exactly."""
    t0 = time.perf_counter()
    if M < 1 or n_max < 0:
        raise ValueError("need M >= 1 and n_max >= 0")
    # two k past each row's width, where the triangle holds 0.  Entry k is
    # (-1)^k n!^M / k! times pFq([-k, (n+1) x M]; [1 x M]; 1), whose terms
    # are (-1)^j C(k, j) C(n+j, j)^M: one int sum per k over the row's
    # weights C(n+j, j)^M, and the row over the one denominator (Mn+2)!
    closed = []
    for n in range(n_max + 1):
        width = M * n + 3
        sums = _terminating_sums([comb(n + j, j) ** M for j in range(width)])
        den, lead = factorial(width - 1), factorial(n) ** M
        closed.append(SeriesQ._from_ints(width, [
            (-1) ** k * lead * t * (den // factorial(k)) for k, t in enumerate(sums)],
            den))
    rows = [SeriesQ(M * n + 3, row)
            for n, row in enumerate(stirling_rows(1, M, n_max))]
    _, first = _rows_mismatch(closed, rows, "n", ("k",))
    return _finish("stirling-hyp", {"r": 1, "M": M, "n_max": n_max}, "exact", t0,
                   first, {"first_mismatch": first,
                           "checks": sum(row.order for row in closed)},
                   paths=("pFq closed form", "triangle"))


def _check_bell_hyp(r: int, M: int, n_max: int, t0: float,
                    identity: str) -> IdentityReport:
    # Dobinski: [x^l] e^x B(n,x) = prod_{i<=n} (l+ir)^M / l!.  Split l = rk + j:
    # the k-sum for each j is x^j r^(Mn) ((a)_n)^M / j! times
    # pFq([a+n] x M; [a] x M + [(j+1+i)/r, i < r, save the one equal to 1];
    # x^r/r^r), a = j/r + 1, so the comparison stays rational.  At r = 1
    # this is n!^M mFm([n+1] x M; [1] x M; x).
    # r^(Mn) ((a)_n)^M = (prod_{1<=i<=n} (ri + j))^M is an int, so the
    # closed side is built over one denominator: the lcm of the j!-scaled
    # pFq denominators times r^(rk) for the largest k.
    # The lower parameters do not depend on n, nor does e^x (a product
    # is truncated to its shorter factor).  Every pFq parameter goes in as
    # an int pair (numerator, r), not reduced: the lower ones made once per
    # check, the upper one a + n = (j + r(n+1))/r once per row.
    lowers = [[(j + r, r)] * M + [(i, r) for i in range(j + 1, j + r + 1) if i != r]
              for j in range(r)]
    exp_x = series_exp(SeriesQ.x(M * n_max + 6))
    bases = [1] * r  # prod_{1<=i<=n} (ri + j), carried from row to row
    top = r ** r  # the argument x^r/r^r: each k step divides by r^r
    lhs, rhs = [], []
    for n, row in enumerate(stirling_rows(r, M, n_max)):
        order = M * n + 6
        # row holds M*n + 1 ints: five zeros pad it to the order
        scaled = exp_x * SeriesQ._from_ints(order, [*row, 0, 0, 0, 0, 0], 1)
        if n:
            bases = [b * (r * n + j) for j, b in enumerate(bases)]
        parts = []
        for j, lower in enumerate(lowers):
            series = phyperq_series([(j + r * (n + 1), r)] * M, lower,
                                    (order - j + r - 1) // r)
            parts.append((bases[j] ** M, factorial(j) * series.den, series.nums))
        den = lcm(*(d for _, d, _ in parts)) * top ** (len(parts[0][2]) - 1)
        closed = [0] * order
        for j, (lead, d, nums) in enumerate(parts):
            f = lead * (den // d)
            for k, c in enumerate(nums):
                closed[j + r * k] = c * f
                f //= top
        lhs.append(scaled)
        rhs.append(SeriesQ._from_ints(order, closed, den))
    _, first = _rows_mismatch(lhs, rhs, "n", ("power",))
    return _finish(identity, {"r": r, "M": M, "n_max": n_max},
                   "exact", t0, first, {"first_mismatch": first,
                           "checks": sum(row.order for row in lhs)},
                   paths=("e^x Bell polynomial",
                          "mFm series" if r == 1 else "pFq closed form"))


def bell_hyp_check(r: int, M: int, n_max: int) -> IdentityReport:
    """The paper's Bell closed form (r = 1, 2, 3, M >= 1) as bell-hyp-r{r}: e^x B(n,x)
    against r pFq series in x^r/r^r, exactly through x^(Mn+5), n <= n_max."""
    t0 = time.perf_counter()
    if r < 1:
        raise ValueError("need r >= 1")
    if M < 1 or n_max < 0:
        raise ValueError("need M >= 1 and n_max >= 0")
    return _check_bell_hyp(r, M, n_max, t0, f"bell-hyp-r{r}")


def conjecture_check(r: int, M: int, n_max: int) -> IdentityReport:
    """The Bell closed form of `bell_hyp_check` at any r >= 1 and M >= 0.

    The paper writes e^x B(n,x) as r pFq series in x^r/r^r for r = 1, 2, 3;
    splitting the Dobinski sum's l = rk + j gives the same r-term form at
    every r.  The check is `_check_bell_hyp`'s, reported as "conjecture".
    """
    t0 = time.perf_counter()
    if r < 1 or M < 0 or n_max < 0:
        raise ValueError("need r >= 1, M >= 0 and n_max >= 0")
    return _check_bell_hyp(r, M, n_max, t0, "conjecture")


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
    prod_{i<=n} (l+ir)^M, summed by `stirling.dobinski_sums` to the
    cutoff 10^-(precision+10); e^-x is enclosed to the same cutoff by
    `hyperreal.exp_bounds`.  Row n passes iff the proven bound on
    |e^-x L - B(n,x)| / max(B(n,x), 1) over both enclosures is at most
    tolerance (`hyperreal.rel_dev_bound`); no rounded value is compared.
    If a tail cannot be certified within the term budget the report says
    so instead of passing. Reports record the certificate: outer_terms,
    ratio_cap and tail_bound (rounded up; the bound is on the top row's
    l-sum, before the e^-x factor), exp_terms, the terms of the e^x sum,
    and rel_dev_bound, the largest row's proven bound, rounded up.
    """
    t0 = time.perf_counter()
    if r < 1 or M < 0 or lambda_order < 0 or precision < 1:
        raise ValueError("need r >= 1, M >= 0, lambda_order >= 0, precision >= 1")
    x, tolerance = _canonical(x), _canonical(tolerance)
    params = {"r": r, "M": M, "x": str(x), "lambda_order": lambda_order}
    numctx = {"precision": precision, "tolerance": str(tolerance)}
    paths = ("certified l-sum", "Bell polynomial")
    cutoff = Fraction(1, 10 ** (precision + 10))
    try:
        totals, cert = dobinski_sums(r, M, lambda_order, x, cutoff, max_terms)
        emx_lo, emx_hi, exp_cert = exp_bounds(-x, cutoff, max_terms)
    except RuntimeError:
        first = {"reason": "tail bound not certified within term budget"}
        return _finish("hyp-generating-function", params, "numeric", t0, first,
                       {"first_mismatch": first, "outer_terms": max_terms + 1},
                       paths=paths, **numctx)
    worst, first = 0, None
    for n, (total, row) in enumerate(zip(totals, stirling_rows(r, M, lambda_order))):
        bell = 0  # B(n, x) by Horner's rule over the int row
        for c in reversed(row):
            bell = bell * x + c
        # row n's full l-sum lies in [total, total + cutoff * max(total, 1)]
        dev = rel_dev_bound(emx_lo * total,
                            emx_hi * (total + cutoff * max(total, 1)), bell)
        worst = max(worst, dev)
        if first is None and dev > tolerance:
            first = {"n": n, "rel_dev_bound": _bound_str(dev)}
    details = {"first_mismatch": first, "outer_terms": cert.terms,
               "ratio_cap": _bound_str(cert.ratio_cap),
               "tail_bound": _bound_str(cert.tail_bound),
               "exp_terms": exp_cert.terms, "rel_dev_bound": _bound_str(worst)}
    return _finish("hyp-generating-function", params, "numeric", t0, first,
                   details, paths=paths, **numctx)


# ---------------------------------------------------------------------------
# Normally ordered expansions of functions of the first-order operator


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
    """Left oracle list (normal forms) and generic dot-form right side for
    1F1([b],[1], t*D)."""
    order = lambda_order + 1
    taylor = phyperq_series([b], [1], order).coeffs
    _, arg = _resolvent(order)
    rhs = DotSeries.binpow(order, -1, 1, -b) * arg.apply_function(taylor)
    return _scaled_powers(taylor), rhs, arg


def _example_laguerre_ogf(lambda_order: int) -> IdentityReport:
    t0 = time.perf_counter()
    order = lambda_order + 1
    lhs = _scaled_powers([Fraction(1, factorial(n)) for n in range(order)])
    inv, arg = _resolvent(order)
    rhs = (inv * arg.exp()).lambda_rows()
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


def _example_kummer_b3(lambda_order: int) -> IdentityReport:
    t0 = time.perf_counter()
    order = lambda_order + 1
    lhs, rhs_generic, arg = _kummer_sides(3, lambda_order)
    inv_cubed = DotSeries.binpow(order, -1, 1, -3)
    l2 = (
        DotSeries.one(order)
        + arg.scale(2)
        + (arg * arg).scale(Fraction(1, 2))
    )
    rhs = (inv_cubed * l2 * arg.exp()).lambda_rows()
    checks, first = _rows_mismatch(lhs, rhs, "lambda")
    notes = []
    if first is None:
        more, first = _rows_mismatch(lhs, rhs_generic.lambda_rows(), "lambda")
        checks += more
        if first is None:
            notes.append("generic Kummer dot form agrees as well")
    return _finish("kummer-b3",
                   {"r": 1, "M": 1, "b": "3", "lambda_order": lambda_order},
                   "exact", t0, first,
                   {"first_mismatch": first, "checks": checks, "notes": notes},
                   paths=("power fold", "b=3 dot form", "generic Kummer dot form"))


def _example_kummer_b3half(lambda_order: int) -> IdentityReport:
    t0 = time.perf_counter()
    b = Fraction(3, 2)
    order = lambda_order + 1
    lhs, rhs_generic, arg = _kummer_sides(b, lambda_order)
    half_arg = arg.scale(Fraction(1, 2))
    i0 = arg.apply_function(_bessel_half_taylor(0, order))
    i1 = arg.apply_function(_bessel_half_taylor(1, order))
    bracket = (DotSeries.one(order) + arg) * i0 + arg * i1
    rhs = DotSeries.binpow(order, -1, 1, -b) * half_arg.exp() * bracket
    checks, first = _rows_mismatch(lhs, rhs_generic.lambda_rows(), "lambda")
    if first is None:
        more, first = _rows_mismatch(lhs, rhs.lambda_rows(), "lambda")
        checks += more
    details = {
        "first_mismatch": first,
        "checks": checks,
        "notes": [
            "Bessel assembly uses the prefactor (1-ta)^(-3/2) and the factor"
            " u multiplying I1, both required for the bracket to reduce the"
            " generic Kummer form"
        ],
    }
    return _finish("kummer-b3half",
                   {"r": 1, "M": 1, "b": "3/2", "lambda_order": lambda_order},
                   "exact", t0, first, details,
                   paths=("power fold", "generic Kummer dot form", "Bessel dot form"))


def _example_laguerre_shifted(n: int, lambda_order: int) -> IdentityReport:
    t0 = time.perf_counter()
    p = n  # the shift, read from the one size override, `verify --n`
    if p < 1:
        raise ValueError("p must be >= 1")
    order = lambda_order + 1
    lhs = _scaled_powers([Fraction(1, factorial(m - p) * factorial(p)) if m >= p
                          else 0 for m in range(order)])
    inv, arg = _resolvent(order)
    w = DotSeries.monomial(order, 0, 1, 1) * inv
    lag = laguerre_poly(p)
    lp = DotSeries(order)
    for j in reversed(range(p + 1)):  # L_p(-w) by Horner's rule
        lp = lp * w + DotSeries.monomial(order, 0, 0, 0, lag.coeff(j) * (-1) ** j)
    pref = DotSeries.binpow(order, -1, 1, -(p + 1))
    shift = DotSeries.monomial(order, p, 0, p)
    rhs = (pref * arg.exp() * lp * shift).lambda_rows()
    checks, first = _rows_mismatch(lhs, rhs, "lambda")
    return _finish("laguerre-shifted",
                   {"r": 1, "M": 1, "p": p, "lambda_order": lambda_order},
                   "exact", t0, first, {"first_mismatch": first, "checks": checks},
                   paths=("power fold", "dot series"))


def _example_bessel(example_id: str, lambda_order: int) -> IdentityReport:
    t0 = time.perf_counter()
    order = lambda_order + 1
    sign = 1 if example_id == "bessel-i0" else -1
    lhs = _scaled_powers([Fraction(sign**n, factorial(n) ** 2) for n in range(order)])
    rhs = _bessel_dot(order, sign, sign).lambda_rows()
    checks, first = _rows_mismatch(lhs, rhs, "lambda")
    notes = []
    if example_id == "bessel-j0" and first is None and lambda_order >= 1:
        # Same series with the inner sign dropped: that variant must break
        # at t^1, which pins the corrected inner argument as the real form.
        # At lambda_order 0 the two agree by construction: nothing to test.
        wrong = _bessel_dot(order, -1, 1)
        _, wrong_first = _rows_mismatch(lhs, wrong.lambda_rows(), "lambda")
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
    i0 = _bessel_dot(order, 1, 1).lambda_rows()
    checks, first = _rows_mismatch(
        _bessel_dot(order, -1, -1).lambda_rows(),
        [row.scale((-1) ** n) for n, row in enumerate(i0)],
        "lambda",
    )
    return _finish("bessel-parity", {"r": 1, "M": 1, "lambda_order": lambda_order},
                   "exact", t0, first, {"first_mismatch": first, "checks": checks},
                   paths=("J0 dot series", "I0 dot series at -t"))


def _alternating_rows(r: int, M: int, n_max: int, tag: str):
    """Rows 0..n_max of `alternating_sum_rows` and None; when a row's k!
    division leaves a remainder, the rows before it and the failure record
    {tag: that row's n, "where": "alternating sum", "error": ...}."""
    rows = []
    try:
        for row in alternating_sum_rows(r, M, n_max):
            rows.append(row)
    except ArithmeticError as exc:
        return rows, {tag: len(rows), "where": "alternating sum", "error": str(exc)}
    return rows, None


def _example_eigen_operator(M: int, lambda_order: int) -> IdentityReport:
    t0 = time.perf_counter()
    scales = [Fraction(1, factorial(n) ** (M + 1)) for n in range(lambda_order + 1)]
    powers = _oracle_powers(1, M, lambda_order)
    lhs = [p.scale(c) for p, c in zip(powers, scales)]
    # The alternating sum gives row n of S_1^(M), the coefficients of
    # (ad)^k a^(k+n) in D(1,M)^n.
    rows, error = _alternating_rows(1, M, lambda_order, "lambda")
    rhs = [NormalForm._from_ints({(k, k + n): c for k, c in enumerate(row) if c},
                                 scales[n].denominator)
           for n, row in enumerate(rows)]
    checks, first = _rows_mismatch(lhs, rhs, "lambda")
    if first is None:
        first = error
    bells = bell_sequence(1, M, lambda_order)
    bell_ok = all(p.expectation_at_one() == b for p, b in zip(powers, bells))
    notes = ["weight-one expectations match the Bell numbers"] if bell_ok else []
    if not bell_ok and first is None:
        first = {"lambda": None, "note": "Bell cross-check failed"}
    return _finish("eigen-operator", {"r": 1, "M": M, "lambda_order": lambda_order},
                   "exact", t0, first,
                   {"first_mismatch": first, "checks": checks, "notes": notes},
                   paths=("power fold", "alternating sum", "triangle row sum"))


def _example_hyp_compact(M: int, lambda_order: int) -> IdentityReport:
    t0 = time.perf_counter()
    # to the top row's order: a product truncates to its shorter factor
    exp_minus_y = series_exp(SeriesQ(M * lambda_order + 4, [0, -1]))
    rhs = []
    for n in range(lambda_order + 1):
        # (n!)^M : e^{-y} mFm([n+1 x M],[1 x M], y) a^n : with y = ad a
        order = M * n + 4
        row = exp_minus_y * phyperq_series([n + 1] * M, [1] * M, order)
        lead = factorial(n) ** M
        rhs.append(NormalForm._from_ints(
            {(k, k + n): lead * a for k, a in enumerate(row.nums) if a}, row.den))
    checks, first = _rows_mismatch(_oracle_powers(1, M, lambda_order), rhs, "lambda")
    return _finish("hyp-compact", {"r": 1, "M": M, "lambda_order": lambda_order},
                   "exact", t0, first, {"first_mismatch": first, "checks": checks},
                   paths=("power fold", "mFm weights"))
