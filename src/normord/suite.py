"""Named verification drivers binding each operational identity to oracles.

Every check returns an IdentityReport (see `normord.report`): the
drivers here, and the closed-form checks and worked-example builders of
`normord.closedform`, which `IDENTITIES` names directly.  Each driver
builds its two (or three) sides independently and hands them to
`normord.report`'s one exact scan, with no tolerance at all: every side
here is rational, at fractional parameters too.  The one numeric check,
`hyp-generating-function`, decides on a proven bound and records the
precision and tolerance it used.  Every report names its paths in
`details.paths`.  Operator powers D(r,M)^0..n come
from one fold, `closedform._oracle_powers`.  `IDENTITIES` is the one
table of what `verify` runs: for every id it holds the driver, the
default grid, the overrides it reads and the default size; `examples`
runs the `EXAMPLE_IDS` entries in turn.
`run_identity` runs one id over its grid with optional overrides (the
CLI entry), `run_suite` runs every suite id at its defaults, and the
CLI help lists the table.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from fractions import Fraction
from functools import partial
from itertools import product
from math import comb
from typing import NamedTuple

from . import backend
from .closedform import (
    DEFAULT_PRECISION,
    DEFAULT_TOLERANCE,
    _example_bessel,
    _example_eigen_operator,
    _example_hyp_compact,
    _example_kummer_b3,
    _example_kummer_b3half,
    _example_laguerre_ogf,
    _example_laguerre_shifted,
    _laguerre_rows,
    _oracle_powers,
    bell_hyp_check,
    bessel_parity_check,
    conjecture_check,
    hyp_generating_function_check,
    stirling_hyp_check,
)
from .laguerre import (
    DxOperator,
    apply_Dx,
    egf_bell_r1,
    eigenfunction_series,
    exp_D_r1_normal_form,
    exp_lambda_Dx_columns,
)
from .report import IdentityReport, _finish, _nf_mismatch, _rows_mismatch
from .series import (
    PolyQ,
    SeriesQ,
    _canonical,
    _to_one_den,
    factorial,
    laguerre_poly,
    phyperq_series,
    pochhammer,
)
from .stirling import (
    alternating_sum_rows,
    b_pp,
    bell_sequence,
    classical_bell,
    stirling1_signless,
    stirling_rows,
)
from .weyl import NormalForm, laguerre_derivative_nf

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
    "verify_graph_enumeration",
    "run_identity",
    "run_suite",
    "suite_passed",
    "reports_to_json",
    "SUITE_IDS",
    "EXAMPLE_IDS",
]


def _poly_from_signless_rising(r: int) -> PolyQ:
    """prod_{p=1..r}(n+p) written out of first-kind signless numbers."""
    return PolyQ(stirling1_signless(r + 1, k) for k in range(1, r + 2))


def _poly_from_signed_falling(r: int) -> PolyQ:
    """n(n-1)...(n-r+1) as the signed first-kind sum; the empty product 1 at r = 0."""
    if r == 0:
        return PolyQ.one()
    coeffs = [0] * (r + 1)
    for k in range(1, r + 1):
        coeffs[k] = (-1) ** (r - k) * stirling1_signless(r, k)
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
    oracle = (d * dd - dd * d).diagonal_polynomial()
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
        paths=("rewritten commutator", "first-kind polynomial"),
    )


def _alternating_mismatch(r: int, M: int, rows) -> dict | None:
    """First entry where triangle rows 1, 2, ... differ from the alternating sum."""
    alternating = []
    try:
        for oracle in alternating_sum_rows(r, M, len(rows)):
            alternating.append(oracle)
    except ArithmeticError as exc:
        return {"n": len(alternating), "where": "alternating sum", "error": str(exc)}
    _, mismatch = _rows_mismatch(rows, alternating[1:], "n", ("k",), start=1)
    if mismatch is not None:
        mismatch["where"] = "triangle vs alternating sum"
    return mismatch


def verify_stirling_expansion(r: int, M: int, n_max: int) -> IdentityReport:
    """[D(r,M)]^n normal-ordered from scratch against the triangle row.

    Three paths per row n: the operator-power fold, the triangle (built
    by the kernel recurrence), and the defining alternating sum with its
    exact k! division.  Coefficient of (ad)^k a^(k+rn) in the fold must
    be S_r^(M)(n, k), the alternating sum must give the same row, and the
    weight-one expectation of each power must be the Bell number.  The
    powers come from `closedform._oracle_powers` and the rows from one
    pass of `stirling_rows`; each path is compared in full before the next.
    """
    _nonnegative(r=r, M=M, n_max=n_max)
    t0 = time.perf_counter()
    params = {"r": r, "M": M, "n_max": n_max}
    powers = _oracle_powers(r, M, n_max)[1:]
    rows = list(stirling_rows(r, M, n_max))[1:]
    triangle = [{(k, k + r * n): v for k, v in enumerate(row)}
                for n, row in enumerate(rows, 1)]
    _, mismatch = _rows_mismatch(powers, triangle, "n", start=1)
    if mismatch is None:
        mismatch = _alternating_mismatch(r, M, rows)
    bells = [int(p.expectation_at_one()) for p in powers]
    if mismatch is None:
        mismatch = _nf_mismatch(dict(enumerate(bells, 1)),
                                dict(enumerate(map(sum, rows), 1)), {}, ("n",))
        if mismatch is not None:
            mismatch["where"] = "weight-one expectation"
    return _finish(
        "stirling-expansion",
        params,
        "exact",
        t0,
        mismatch,
        {"bell_values": bells},
        paths=("power fold", "triangle", "alternating sum"),
    )


def verify_bell_first_kind(r: int, n_max: int) -> IdentityReport:
    """B_r(n) as a signless-first-kind transform of the classical Bells."""
    _nonnegative(r=r, n_max=n_max)
    t0 = time.perf_counter()
    params = {"r": r, "n_max": n_max}
    values = bell_sequence(r, 1, n_max)
    bells = [classical_bell(p) for p in range(n_max + 1)]
    transform = [
        sum(stirling1_signless(n + 1, p) * r ** (n - p + 1) * bells[p - 1]
            for p in range(1, n + 2))
        for n in range(n_max + 1)
    ]
    mismatch = _nf_mismatch(dict(enumerate(values)), dict(enumerate(transform)),
                            {}, ("n",))
    return _finish(
        "bell-first-kind", params, "exact", t0, mismatch, {"values": values},
        paths=("triangle row sum", "first-kind transform"))


def verify_bell_diagonal_powers(M: int, n_max: int) -> IdentityReport:
    """B_1^(M)(n) equals the weight-one expectation of ((ad)^n a^n)^(M+1)."""
    _nonnegative(M=M, n_max=n_max)
    t0 = time.perf_counter()
    params = {"M": M, "n_max": n_max}
    values = bell_sequence(1, M, n_max)[1:]
    mismatch = _nf_mismatch(dict(enumerate(values, 1)),
                            {n: b_pp(n, M + 1) for n in range(1, n_max + 1)},
                            {}, ("n",))
    return _finish(
        "bell-diagonal-powers", params, "exact", t0, mismatch, {"values": values},
        paths=("triangle row sum", "diagonal power expectation"))


def verify_laguerre_normal_form(n_max: int) -> IdentityReport:
    """[D(1,1)]^n = n! sum_j L_n-coefficients (ad)^j a^(j+n), sign-adjusted."""
    _nonnegative(n_max=n_max)
    t0 = time.perf_counter()
    params = {"n_max": n_max}
    refs = [{key: factorial(n) * c for key, c in row.items()}
            for n, row in enumerate(_laguerre_rows(n_max))]
    _, mismatch = _rows_mismatch(_oracle_powers(1, 1, n_max), refs, "n")
    return _finish("laguerre-normal-form", params, "exact", t0, mismatch,
                   paths=("power fold", "Laguerre polynomial"))


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
    b = _canonical(b)
    params = {"b": str(b), "x_order": x_order, "lambda_order": lambda_order}
    s = SeriesQ(x_order, [Fraction((-b) ** i, factorial(i)) for i in range(x_order)])
    cols = exp_lambda_Dx_columns(DxOperator(1, 1), s, lambda_order)
    # (-b)^i/i! (-1)^m C(i+m, m) b^m = (-b)^(i+m) C(i+m, m) / i!, over the
    # column's one denominator bd^(top+m) top!, top its last x power
    bn, bd = b.numerator, b.denominator
    refs = []
    for m, col in enumerate(cols):
        top = max(col.order - 1, 0)
        refs.append(SeriesQ._from_ints(col.order, [
            (-bn) ** (i + m) * comb(i + m, m) * bd ** (top - i)
            * (factorial(top) // factorial(i)) for i in range(col.order)],
            bd ** (top + m) * factorial(top)))
    _, mismatch = _rows_mismatch(cols, refs, "lambda_power", ("x_power",))
    return _finish("exp-exponential", params, "exact", t0, mismatch,
                   paths=("Dx columns", "closed grid"))


def verify_exp_on_kummer(b, x_order: int = 16, lambda_order: int = 8) -> IdentityReport:
    """exp(t D_x) 1F1(b;1;x) = (1-t)^(-b) 1F1(b;1;x/(1-t)) coefficientwise.

    Expanded right side: x^i t^m carries (b)_i/(i!)^2 * (b+i)_m / m!,
    read as (b)_(i+m) / ((i!)^2 m!).  Both sides are rational at any
    rational b, so every entry is compared exactly, b = 3/2 included.
    As in `verify_exp_on_exponential`, lambda_order may not pass x_order.
    """
    _columns_fit(x_order, lambda_order)
    t0 = time.perf_counter()
    b = _canonical(b)
    params = {"b": str(b), "x_order": x_order, "lambda_order": lambda_order}
    s = phyperq_series([b], [1], x_order)
    cols = exp_lambda_Dx_columns(DxOperator(1, 1), s, lambda_order)
    # (b)_k over one denominator: column m is rising[i+m] / (den (i!)^2 m!),
    # over the column's one denominator den (top!)^2 m!, top its last x power
    rising, den = _to_one_den(pochhammer(b, k) for k in range(x_order))
    refs = []
    for m, col in enumerate(cols):
        top = max(col.order - 1, 0)
        scale = factorial(top)
        refs.append(SeriesQ._from_ints(col.order, [
            rising[i + m] * (scale // factorial(i)) ** 2 for i in range(col.order)],
            den * scale**2 * factorial(m)))
    _, mismatch = _rows_mismatch(cols, refs, "lambda_power", ("x_power",))
    return _finish("exp-kummer", params, "exact", t0, mismatch,
                   paths=("Dx columns", "Kummer expansion"))


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
    lhs, rhs = [], []
    for n in range(n_max + 1):
        mono = SeriesQ(n + 1, [0] * n + [1])
        lhs.append({(i, m): c
                    for m, col in enumerate(exp_lambda_Dx_columns(op, mono, n))
                    for i, c in enumerate(col.coeffs)})
        lag = laguerre_poly(n)
        rhs.append({(k, n - k): factorial(n) * lag.coeff(k) * (-1) ** k
                    for k in range(n + 1)})
    _, mismatch = _rows_mismatch(lhs, rhs, "n", ("x_power", "y_power"))
    return _finish("exp-monomial", params, "exact", t0, mismatch,
                   paths=("Dx columns", "Laguerre polynomial"))


def verify_sheffer(r: int, n_max: int) -> IdentityReport:
    """Substitution-kernel closed form of exp(t D(r,1)) against the rewriter.

    The double-dot expansion g(t,a) exp(ad (T - a)) is unpacked one t power
    at a time; n! times the t^n coefficient must be the normal form of
    [D(r,1)]^n produced by the contraction oracle.
    """
    _nonnegative(r=r, n_max=n_max)
    t0 = time.perf_counter()
    params = {"r": r, "n_max": n_max}
    _, mismatch = _rows_mismatch(exp_D_r1_normal_form(r, n_max),
                                 _oracle_powers(r, 1, n_max), "n")
    return _finish("sheffer", params, "exact", t0, mismatch,
                   paths=("substitution kernel", "power fold"))


def verify_egf(r: int, n_max: int) -> IdentityReport:
    """(1-rt)^(-1) exp((1-rt)^(-1/r) - 1) as the Bell-number EGF."""
    _nonnegative(r=r, n_max=n_max)
    t0 = time.perf_counter()
    params = {"r": r, "n_max": n_max}
    series = egf_bell_r1(r, n_max + 1)
    egf = [factorial(n) * c for n, c in enumerate(series.coeffs)]
    mismatch = _nf_mismatch(egf, bell_sequence(r, 1, n_max), {}, ("n",))
    values = [int(v) for v in egf]
    return _finish("egf", params, "exact", t0, mismatch, {"values": values},
                   paths=("EGF series", "triangle row sum"))


def verify_eigenfunction(r: int, M: int, order: int | None = None) -> IdentityReport:
    """D_x(r,M) fixes its 0F_(M+r-1) eigenfunction through the truncation."""
    t0 = time.perf_counter()
    if order is None:
        order = 32 - r
    _nonnegative(r=r, M=M, order=order)
    params = {"r": r, "M": M, "order": order}
    e = eigenfunction_series(r, M, order)
    image = apply_Dx(DxOperator(r, M), e)
    mismatch = _nf_mismatch(image, SeriesQ._from_ints(image.order, e.nums, e.den),
                            {}, ("x_power",))
    return _finish("eigenfunction", params, "exact", t0, mismatch,
                   paths=("Dx image", "eigenfunction series"))


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
    blocks = laguerre_derivative_nf(r, M).sorted_terms()
    states = {(0, 0): 1}
    tables = []
    for _ in range(n_max):
        states = backend.graph_step(states, blocks)
        tables.append(NormalForm(states))
    _, mismatch = _rows_mismatch(tables, _oracle_powers(r, M, n_max)[1:], "n", start=1)
    totals = [t.expectation_at_one() for t in tables]
    return _finish("graphs", params, "exact", t0, mismatch,
                   {"totals": totals}, paths=("power fold", "graph count"))


# ---------------------------------------------------------------------------
# the identity table

# every override run_identity takes, in the order help text lists them
OVERRIDES = ("r", "M", "n", "lambda_order", "precision", "tolerance")


class Check(NamedTuple):
    """How `run_identity` runs one id: a driver over a default grid.

    The grid is the product of `axes`, each (name, default values), where
    an override of that name pins its axis to the one value given; while
    neither r nor M is given, `points` (value tuples over the axes) stand
    in for the product.  The driver is called once per
    point with the point's values, the size and the numeric settings
    (`numeric`, names from OVERRIDES) as keywords.  `size` is (override,
    default): an n is passed as n_max, a lambda_order as itself.  An
    entry with `parts` runs each of those ids with the same overrides;
    `run_suite` walks only the entries marked `in_suite`.
    """

    driver: Callable | None = None
    axes: tuple = ()
    size: tuple | None = None
    numeric: tuple = ()
    points: tuple | None = None
    parts: tuple = ()
    in_suite: bool = True


_R3 = ("r", (1, 2, 3))
_M3 = ("M", (1, 2, 3))
_R4 = ("r", (1, 2, 3, 4))
_SHEFFER = Check(verify_sheffer, (_R3,), ("n", 5))
_LAMBDA6 = ("lambda_order", 6)

# the worked examples, which `examples` runs in this order
EXAMPLE_IDS = ("laguerre-ogf", "kummer-b3", "kummer-b3half", "laguerre-shifted",
               "bessel-i0", "bessel-j0", "eigen-operator", "hyp-compact")

IDENTITIES = {
    "commutator": Check(verify_commutator, (_R3, ("M", (0, 1, 2, 3)))),
    "stirling-expansion": Check(verify_stirling_expansion, (_R3, _M3), ("n", 5)),
    "bell-first-kind": Check(verify_bell_first_kind, (_R4,), ("n", 8)),
    "bell-diagonal-powers": Check(verify_bell_diagonal_powers, (_M3,), ("n", 4)),
    "laguerre-normal-form": Check(verify_laguerre_normal_form, size=("n", 6)),
    "exp-exponential": Check(verify_exp_on_exponential,
                             (("b", (1, 2, Fraction(1, 3))),), ("lambda_order", 8)),
    "exp-kummer": Check(verify_exp_on_kummer, (("b", (1, 2, 3, Fraction(3, 2))),),
                        ("lambda_order", 8)),
    "exp-monomial": Check(verify_exp_on_monomial, size=("n", 6)),
    "sheffer": _SHEFFER,
    "egf": Check(verify_egf, (_R4,), ("n", 8)),
    "eigenfunction": Check(verify_eigenfunction, (_R3, _M3),
                           points=((1, 1), (1, 2), (2, 1), (2, 2), (3, 3))),
    "examples": Check(parts=EXAMPLE_IDS),
    "bessel-parity": Check(bessel_parity_check, size=("lambda_order", 8)),
    "stirling-hyp": Check(stirling_hyp_check, (_M3,), ("n", 5)),
    "bell-hyp-r1": Check(partial(bell_hyp_check, 1), (_M3,), ("n", 5)),
    "bell-hyp-r2": Check(partial(bell_hyp_check, 2), (("M", (1, 2)),), ("n", 3)),
    "bell-hyp-r3": Check(partial(bell_hyp_check, 3), (("M", (1,)),), ("n", 2)),
    "hyp-generating-function": Check(
        hyp_generating_function_check, (("r", (1, 2)), ("M", (1, 2))),
        ("lambda_order", 6), ("precision", "tolerance"),
        points=((1, 1), (1, 2), (2, 2))),
    "graphs": Check(verify_graph_enumeration, (("r", (1, 2)), ("M", (1, 2))), ("n", 4)),
    "conjecture": Check(conjecture_check, (("r", (4, 5, 6)), ("M", (1, 2))),
                        ("n", 3), points=((4, 1), (4, 2), (5, 1), (5, 2), (6, 1))),
    "laguerre-ogf": Check(_example_laguerre_ogf, size=_LAMBDA6, in_suite=False),
    "kummer-b3": Check(_example_kummer_b3, size=_LAMBDA6, in_suite=False),
    "kummer-b3half": Check(_example_kummer_b3half, size=_LAMBDA6, in_suite=False),
    # its shift p is read from n
    "laguerre-shifted": Check(_example_laguerre_shifted, (("n", (1, 2, 3)),),
                              _LAMBDA6, in_suite=False),
    "bessel-i0": Check(partial(_example_bessel, "bessel-i0"), size=_LAMBDA6,
                       in_suite=False),
    "bessel-j0": Check(partial(_example_bessel, "bessel-j0"), size=_LAMBDA6,
                       in_suite=False),
    "eigen-operator": Check(_example_eigen_operator, (_M3,), ("lambda_order", 5),
                            in_suite=False),
    "hyp-compact": Check(_example_hyp_compact, (_M3,), ("lambda_order", 5),
                         in_suite=False),
    "shef": _SHEFFER._replace(in_suite=False),  # alias
}
SUITE_IDS = tuple(name for name, check in IDENTITIES.items() if check.in_suite)


def overrides_read(identity: str) -> tuple:
    """The `run_identity` overrides that change what `identity` runs."""
    check = IDENTITIES[identity]
    names = {name for name, _ in check.axes} | set(check.numeric)
    names.update(*map(overrides_read, check.parts))
    if check.size:
        names.add(check.size[0])
    return tuple(name for name in OVERRIDES if name in names)


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

    Unspecified parameters fall back to the id's default grid in
    `IDENTITIES`, so e.g. the bare commutator id sweeps r in 1..3 and M in
    0..3 while passing r=2 pins the sweep to that single r; an override
    the id does not read is ignored here (the `verify` command rejects an
    --r, --M or --n that `overrides_read` does not list).  Sizes are
    taken as given (0 included); a negative n or lambda_order raises
    ValueError.
    """
    if n is not None and n < 0:
        raise ValueError("n must be >= 0")
    if lambda_order is not None and lambda_order < 0:
        raise ValueError("lambda_order must be >= 0")
    if identity not in IDENTITIES:
        raise ValueError(f"unknown identity {identity!r}")
    check = IDENTITIES[identity]
    if check.parts:
        return [rep for part in check.parts
                for rep in run_identity(part, r, M, n, lambda_order, precision,
                                        tolerance)]
    given = {name: value for name, value in
             (("r", r), ("M", M), ("n", n), ("lambda_order", lambda_order))
             if value is not None}
    settings = {"precision": precision, "tolerance": tolerance}
    kwargs = {name: settings[name] for name in check.numeric}
    if check.size:
        name, default = check.size
        kwargs["n_max" if name == "n" else name] = given.get(name, default)
    grid = check.points
    if grid is None or given.keys() & {"r", "M"}:
        grid = product(*((given[name],) if name in given else values
                         for name, values in check.axes))
    names = [name for name, _ in check.axes]
    return [check.driver(**dict(zip(names, point)), **kwargs) for point in grid]


def run_suite(
    precision: int = DEFAULT_PRECISION,
    tolerance=DEFAULT_TOLERANCE,
) -> list[IdentityReport]:
    """Default verification sweep; deterministic report order."""
    import json

    reports = [rep for identity in SUITE_IDS
               for rep in run_identity(identity, precision=precision,
                                       tolerance=tolerance)]
    reports.sort(
        key=lambda rep: (
            rep.identity,
            json.dumps(rep.parameters, sort_keys=True, default=str),
        )
    )
    return reports


def suite_passed(reports) -> bool:
    return all(rep.ok for rep in reports)


def reports_to_json(reports) -> str:
    import json

    return json.dumps([rep.to_json_dict() for rep in reports], indent=2)
