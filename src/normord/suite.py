"""Named verification drivers binding each operational identity to oracles.

Every check returns an IdentityReport (see `normord.report`): the
drivers here, and the closed-form checks and worked-example builders of
`normord.closedform`, which `IDENTITIES` names directly.  Each driver
builds its two (or three) sides independently and hands them to
`normord.report`'s one exact scan, with no tolerance at all: every side
here is rational, at fractional parameters too.  The one numeric check,
`hyp-generating-function`, decides on a proven bound and records the
precision and tolerance it used.  Every report names its paths in
`details.paths`.  Operator powers D(r,M)^0..n come from one fold per
sweep, `closedform._oracle_powers`: a run of several ids (`run_suite`,
or `run_identity` on `examples`) opens the sweep's table and closes it
when it returns (see `closedform._sweep`).  The table holds those folds
alone: `commutator` and `graphs` read D(r,M) as a fold's first power,
and every reader of the triangle draws `stirling_rows` itself.
`IDENTITIES` is the one table of what `verify` runs: for every id it
holds the driver, the default grid, the overrides it reads and the
default size; `examples` runs the `EXAMPLE_IDS` entries in turn.
`run_identity` runs one id over its grid with optional overrides (the
CLI entry) and times each check (one called directly reports elapsed
0.0), `run_suite` runs every suite id at its defaults, sorted by id and
then by parameters, and the CLI help lists the table.
`reports_to_json` prints the reports with this module's own writer, the
bytes json.dumps(..., indent=2) gives, so `verify` never loads `json`.
"""

from __future__ import annotations

import re
import time
from collections.abc import Callable
from functools import partial
from itertools import islice, product
from math import comb, isinf, lcm
from typing import NamedTuple

from . import backend
from .closedform import (
    DEFAULT_PRECISION,
    _alternating_rows,
    _example_bessel,
    _example_eigen_operator,
    _example_hyp_compact,
    _example_kummer_b3,
    _example_kummer_b3half,
    _example_laguerre_ogf,
    _example_laguerre_shifted,
    _laguerre_rows,
    _oracle_powers,
    _sweep,
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
from .parser import check_letters
from .report import IdentityReport, _finish, _nf_mismatch, _rows_mismatch
from .series import (
    SeriesQ,
    _pair,
    _pair_str,
    _rising,
    factorial,
    laguerre_poly,
    phyperq_series,
    series_exp,
)
from .stirling import (
    b_pp,
    bell_sequence,
    classical_rows,
    first_kind_rows,
    stirling_rows,
)
from .weyl import NormalForm

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


def _nonnegative(**sizes) -> None:
    """Raise ValueError naming the first negative order or size."""
    for name, value in sizes.items():
        if value < 0:
            raise ValueError(f"{name} must be >= 0")


def _columns_fit(x_order: int, lambda_order: int) -> None:
    """Raise ValueError on a negative size or a lambda_order past x_order."""
    _nonnegative(x_order=x_order, lambda_order=lambda_order)
    if lambda_order > x_order:  # column m keeps x_order - m powers
        raise ValueError(f"insufficient truncation order: lambda_order "
                         f"{lambda_order} is past x_order {x_order}")


def verify_commutator(r: int, M: int) -> IdentityReport:
    """[D, D-dagger] reduced to a polynomial in the number operator.

    The operator side is normal-ordered from scratch and diagonal-reduced;
    the reference polynomial (n+r)^2M * prod(n+p) - n^2M * n-falling-r is
    assembled purely from signless first-kind numbers (rows r and r + 1
    of one `first_kind_rows` pass), with (n+r)^2M written by the
    binomial theorem.  The reference is a `SeriesQ` of
    order 2M + r: the two monic n^(2M+r) terms cancel, so it truncates
    nothing, and an oracle term at a higher power differs in order and
    is still found by `_nf_mismatch`'s scan.  At (r, M) = (1, 1)
    this is the 3n^2 + 3n + 1 difference of consecutive odd cubes.
    """
    _nonnegative(r=r, M=M)
    d = _oracle_powers(r, M, 1)[1]
    dd = d.dagger()
    oracle = (d * dd - dd * d).diagonal_polynomial()
    order = 2 * M + r
    shifted = SeriesQ(order, [comb(2 * M, j) * r ** (2 * M - j)
                              for j in range(2 * M + 1)])
    *_, low, high = first_kind_rows(r + 1)
    rising = SeriesQ(order, high[1:])
    # n(n-1)...(n-r+1) as the signed first-kind sum, times n^2M
    falling = [0] * (2 * M) + [(-1) ** (r - k) * c for k, c in enumerate(low)]
    ref = shifted * rising - SeriesQ(order, falling)
    mismatch = _nf_mismatch(oracle, ref, {}, ("power",))
    return _finish("commutator", {"r": r, "M": M}, mismatch,
                   {"polynomial": [str(c) for c in oracle.coeffs]},
                   paths=("rewritten commutator", "first-kind polynomial"))


def _alternating_mismatch(r: int, M: int, rows) -> dict | None:
    """First entry where triangle rows 1, 2, ... differ from the alternating sum."""
    alternating, error = _alternating_rows(r, M, len(rows), "n")
    if error is not None:
        return error
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
    powers = _oracle_powers(r, M, n_max)[1:]
    rows = list(stirling_rows(r, M, n_max))[1:]
    triangle = [NormalForm._from_ints(
                    {(k, k + r * n): v for k, v in enumerate(row) if v}, 1)
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
    return _finish("stirling-expansion", {"r": r, "M": M, "n_max": n_max}, mismatch,
                   {"bell_values": bells},
                   paths=("power fold", "triangle", "alternating sum"))


def verify_bell_first_kind(r: int, n_max: int) -> IdentityReport:
    """B_r(n) as a signless-first-kind transform of the classical Bells."""
    _nonnegative(r=r, n_max=n_max)
    values = bell_sequence(r, 1, n_max)
    bells = list(map(sum, classical_rows(n_max)))
    # row n + 1 of the first-kind triangle weighs B(p - 1) for p = 1..n + 1
    transform = [
        sum(c * r ** (n - p + 1) * bells[p - 1] for p, c in enumerate(row[1:], 1))
        for n, row in enumerate(islice(first_kind_rows(n_max + 1), 1, None))
    ]
    mismatch = _nf_mismatch(dict(enumerate(values)), dict(enumerate(transform)),
                            {}, ("n",))
    return _finish("bell-first-kind", {"r": r, "n_max": n_max}, mismatch,
                   {"values": values}, paths=("triangle row sum", "first-kind transform"))


def verify_bell_diagonal_powers(M: int, n_max: int) -> IdentityReport:
    """B_1^(M)(n) equals the weight-one expectation of ((ad)^n a^n)^(M+1)."""
    _nonnegative(M=M, n_max=n_max)
    values = bell_sequence(1, M, n_max)[1:]
    mismatch = _nf_mismatch(dict(enumerate(values, 1)),
                            {n: b_pp(n, M + 1) for n in range(1, n_max + 1)},
                            {}, ("n",))
    return _finish("bell-diagonal-powers", {"M": M, "n_max": n_max}, mismatch,
                   {"values": values},
                   paths=("triangle row sum", "diagonal power expectation"))


def verify_laguerre_normal_form(n_max: int) -> IdentityReport:
    """[D(1,1)]^n = n! sum_j L_n-coefficients (ad)^j a^(j+n), sign-adjusted."""
    _nonnegative(n_max=n_max)
    refs = [row.scale(factorial(n)) for n, row in enumerate(_laguerre_rows(n_max))]
    _, mismatch = _rows_mismatch(_oracle_powers(1, 1, n_max), refs, "n")
    return _finish("laguerre-normal-form", {"n_max": n_max}, mismatch,
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
    bn, bd = _pair(b)
    s = series_exp(SeriesQ._from_ints(x_order, [0, -bn] + [0] * x_order, bd))
    cols = exp_lambda_Dx_columns(DxOperator(1, 1), s, lambda_order)
    # (-b)^i/i! (-1)^m C(i+m, m) b^m = (-b)^(i+m) C(i+m, m) / i!, over the
    # column's one denominator bd^(top+m) top!, top its last x power
    refs = []
    for m, col in enumerate(cols):
        top = max(col.order - 1, 0)
        refs.append(SeriesQ._from_ints(col.order, [
            (-bn) ** (i + m) * comb(i + m, m) * bd ** (top - i)
            * (factorial(top) // factorial(i)) for i in range(col.order)],
            bd ** (top + m) * factorial(top)))
    _, mismatch = _rows_mismatch(cols, refs, "lambda_power", ("x_power",))
    return _finish("exp-exponential",
                   {"b": _pair_str(b), "x_order": x_order, "lambda_order": lambda_order},
                   mismatch, paths=("Dx columns", "closed grid"))


def verify_exp_on_kummer(b, x_order: int = 16, lambda_order: int = 8) -> IdentityReport:
    """exp(t D_x) 1F1(b;1;x) = (1-t)^(-b) 1F1(b;1;x/(1-t)) coefficientwise.

    Expanded right side: x^i t^m carries (b)_i/(i!)^2 * (b+i)_m / m!,
    read as (b)_(i+m) / ((i!)^2 m!).  Both sides are rational at any
    rational b, so every entry is compared exactly, b = 3/2 included.
    As in `verify_exp_on_exponential`, lambda_order may not pass x_order.
    b is a rational or an int pair.
    """
    _columns_fit(x_order, lambda_order)
    s = phyperq_series([b], [1], x_order)
    cols = exp_lambda_Dx_columns(DxOperator(1, 1), s, lambda_order)
    # (b)_k over one denominator: column m is rising[i+m] / (den (i!)^2 m!),
    # over the column's one denominator den (top!)^2 m!, top its last x power
    pairs = [_rising(b, k) for k in range(x_order)]
    den = lcm(*(d for _, d in pairs))
    rising = [a * (den // d) for a, d in pairs]
    refs = []
    for m, col in enumerate(cols):
        top = max(col.order - 1, 0)
        scale = factorial(top)
        refs.append(SeriesQ._from_ints(col.order, [
            rising[i + m] * (scale // factorial(i)) ** 2 for i in range(col.order)],
            den * scale**2 * factorial(m)))
    _, mismatch = _rows_mismatch(cols, refs, "lambda_power", ("x_power",))
    return _finish("exp-kummer",
                   {"b": _pair_str(b), "x_order": x_order, "lambda_order": lambda_order},
                   mismatch, paths=("Dx columns", "Kummer expansion"))


def verify_exp_on_monomial(n_max: int = 6) -> IdentityReport:
    """exp(y D_x) x^n = n! y^n L_n(-x/y), an exact bivariate polynomial.

    Per y power the left side carries (n falling m)^2 / m! on x^(n-m);
    the right side expands the Laguerre polynomial at -x/y and scales by
    n! y^n, landing on the same (x, y) grid.  Each grid is an int table
    over one denominator, keyed (x_power, y_power): a `NormalForm`'s layout.
    """
    _nonnegative(n_max=n_max)
    op = DxOperator(1, 1)
    lhs, rhs = [], []
    for n in range(n_max + 1):
        cols = exp_lambda_Dx_columns(op, SeriesQ._from_ints(n + 1, [0] * n + [1], 1), n)
        den = lcm(*(col.den for col in cols))
        lhs.append(NormalForm._from_ints({(i, m): a * (den // col.den)
                                          for m, col in enumerate(cols)
                                          for i, a in enumerate(col.nums) if a}, den))
        lag = laguerre_poly(n)
        rhs.append(NormalForm._from_ints({(k, n - k): factorial(n) * a * (-1) ** k
                                          for k, a in enumerate(lag.nums) if a},
                                         lag.den))
    _, mismatch = _rows_mismatch(lhs, rhs, "n", ("x_power", "y_power"))
    return _finish("exp-monomial", {"n_max": n_max}, mismatch,
                   paths=("Dx columns", "Laguerre polynomial"))


def verify_sheffer(r: int, n_max: int) -> IdentityReport:
    """Substitution-kernel closed form of exp(t D(r,1)) against the rewriter.

    The double-dot expansion g(t,a) exp(ad (T - a)) is unpacked one t power
    at a time; n! times the t^n coefficient must be the normal form of
    [D(r,1)]^n produced by the contraction oracle.
    """
    _nonnegative(r=r, n_max=n_max)
    _, mismatch = _rows_mismatch(exp_D_r1_normal_form(r, n_max),
                                 _oracle_powers(r, 1, n_max), "n")
    return _finish("sheffer", {"r": r, "n_max": n_max}, mismatch,
                   paths=("substitution kernel", "power fold"))


def verify_egf(r: int, n_max: int) -> IdentityReport:
    """(1-rt)^(-1) exp((1-rt)^(-1/r) - 1) as the Bell-number EGF."""
    _nonnegative(r=r, n_max=n_max)
    series = egf_bell_r1(r, n_max + 1)
    egf = SeriesQ._from_ints(n_max + 1, [factorial(n) * a for n, a in
                                         enumerate(series.nums)], series.den)
    mismatch = _nf_mismatch(egf, SeriesQ(n_max + 1, bell_sequence(r, 1, n_max)),
                            {}, ("n",))
    values = [int(v) for v in egf.coeffs]
    return _finish("egf", {"r": r, "n_max": n_max}, mismatch, {"values": values},
                   paths=("EGF series", "triangle row sum"))


def verify_eigenfunction(r: int, M: int, order: int | None = None) -> IdentityReport:
    """D_x(r,M) fixes its 0F_(M+r-1) eigenfunction through the truncation.

    order defaults to 32 - r.  The image keeps order - r powers, so an
    order of r or less, which would compare nothing, raises ValueError.
    """
    _nonnegative(r=r, M=M)
    if order is None:
        order = 32 - r
    if order <= r:
        raise ValueError(f"eigenfunction at r = {r}, order {order} compares nothing: "
                         "the image keeps order - r x powers (the default order "
                         "32 - r needs r <= 15)")
    e = eigenfunction_series(r, M, order)
    image = apply_Dx(DxOperator(r, M), e)
    mismatch = _nf_mismatch(image, SeriesQ._from_ints(image.order, e.nums, e.den),
                            {}, ("x_power",))
    return _finish("eigenfunction", {"r": r, "M": M, "order": order}, mismatch,
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
    blocks = _oracle_powers(r, M, 1)[1].sorted_terms()
    states = {(0, 0): 1}
    tables = []
    for _ in range(n_max):
        states = backend.graph_step(states, blocks)
        tables.append(NormalForm(states))
    _, mismatch = _rows_mismatch(tables, _oracle_powers(r, M, n_max)[1:], "n", start=1)
    totals = [t.expectation_at_one() for t in tables]
    return _finish("graphs", {"r": r, "M": M, "n_max": n_max}, mismatch,
                   {"totals": totals}, paths=("power fold", "graph count"))


# ---------------------------------------------------------------------------
# the identity table

# every override run_identity takes, in the order help text lists them
OVERRIDES = ("r", "M", "n", "lambda_order", "precision", "tolerance")


class Check(NamedTuple):
    """How `run_identity` runs one id: a driver over a default grid.

    The grid is the product of `axes`, each (name, default values), where
    an override of that name pins its axis to the one value given; a
    rational value is an int (numerator, denominator) pair (the b axes of
    `exp-exponential` and `exp-kummer`).  While
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
                             (("b", (1, 2, (1, 3))),), ("lambda_order", 8)),
    "exp-kummer": Check(verify_exp_on_kummer, (("b", (1, 2, 3, (3, 2))),),
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
    tolerance=None,
) -> list[IdentityReport]:
    """Run one named identity (or one worked example) with overrides.

    Unspecified parameters fall back to the id's default grid in
    `IDENTITIES`, so e.g. the bare commutator id sweeps r in 1..3 and M in
    0..3 while passing r=2 pins the sweep to that single r; an override
    the id does not read is ignored here (the `verify` command rejects an
    --r, --M, --n or --lambda-order that `overrides_read` does not list).  Sizes are
    taken as given (0 included); a negative n or lambda_order raises
    ValueError.  An r and M whose D(r,M) = a^r (ad a)^M would pass
    `parser.MAX_LETTERS` letters raise LimitError before anything is
    built, an r or M not given counted as 0.  A tolerance of None is
    `closedform.default_tolerance()`.  A report's elapsed is the time of
    the driver call that built it, argument checks included.
    """
    check_letters((r or 0) + 2 * (M or 0), f"D({r or 0},{M or 0})")
    if n is not None and n < 0:
        raise ValueError("n must be >= 0")
    if lambda_order is not None and lambda_order < 0:
        raise ValueError("lambda_order must be >= 0")
    if identity not in IDENTITIES:
        raise ValueError(f"unknown identity {identity!r}")
    check = IDENTITIES[identity]
    if check.parts:
        with _sweep():
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
    if identity == "laguerre-shifted" and n is None:
        # its default shifts stop at the lambda order, past which a shift
        # compares nothing and raises; at lambda order 0 the first one does
        grid = [point for point in grid if point[0] <= max(kwargs["lambda_order"], 1)]
    names = [name for name, _ in check.axes]
    # no sweep table for one id: its grid points share almost nothing
    # (only laguerre-shifted's three read one fold, D(1,1)^0..6), and
    # keeping each point's fold to the end raised the peak RSS of
    # `verify stirling-expansion --n 21` (nine folds) from 14.9 to 15.6 MB
    reports = []
    for point in grid:
        t0 = time.perf_counter()
        rep = check.driver(**dict(zip(names, point)), **kwargs)
        reports.append(rep._replace(elapsed=time.perf_counter() - t0))
    return reports


def run_suite(
    precision: int = DEFAULT_PRECISION,
    tolerance=None,
) -> list[IdentityReport]:
    """Default verification sweep; deterministic report order.

    Reports sort by identity, then by their parameters' (name, value)
    pairs in name order; each id's names and value types are fixed, so
    its pairs compare.
    """
    with _sweep():
        reports = [rep for identity in SUITE_IDS
                   for rep in run_identity(identity, precision=precision,
                                           tolerance=tolerance)]
    reports.sort(key=lambda rep: (rep.identity, sorted(rep.parameters.items())))
    return reports


def suite_passed(reports) -> bool:
    return all(rep.ok for rep in reports)


def reports_to_json(reports) -> str:
    """json.dumps([rep.to_json_dict() for rep in reports], indent=2), exactly."""
    return _json_text([rep.to_json_dict() for rep in reports])


# ---------------------------------------------------------------------------
# the JSON writer: json.dumps's text, byte for byte, with no json import

# what json.dumps (ensure_ascii) escapes: '"', backslash, and every
# character outside printable ASCII.  A pattern string, which `re`
# compiles on first use, and only text that is not plain ASCII reaches
# it; the class written out as ranges up to U+10FFFF took 4.5 ms to
# compile, this negated one 0.1 ms.
_UNSAFE = r'["\\]|[^ -~]'
_SHORT = {"\\": "\\\\", '"': '\\"', "\b": "\\b", "\f": "\\f", "\n": "\\n",
          "\r": "\\r", "\t": "\\t"}


def _escape(match) -> str:
    """One character as JSON escapes it: a short form, else \\uXXXX, an
    astral character as its surrogate pair."""
    char = match.group()
    short = _SHORT.get(char)
    if short is not None:
        return short
    code = ord(char)
    if code < 0x10000:
        return f"\\u{code:04x}"
    code -= 0x10000
    return f"\\u{0xd800 | code >> 10:04x}\\u{0xdc00 | code & 0x3ff:04x}"


def _quote(text: str) -> str:
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return '"' + text + '"'
    return '"' + re.sub(_UNSAFE, _escape, text) + '"'


def _scalar(value) -> str | None:
    """The JSON text of a str, None, bool, int or float; None for any other value."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    return None


def _key(key) -> str:
    """A dict key as JSON writes it: always a string."""
    text = _scalar(key)
    if text is None:
        raise TypeError("keys must be str, int, float, bool or None, "
                        f"not {type(key).__name__}")
    return text if isinstance(key, str) else '"' + text + '"'


def _json_text(value) -> str:
    """json.dumps(value, indent=2), exactly: the same bytes, and a TypeError
    wherever json.dumps raises one.

    Lists and tuples, dicts in their own order, and the scalars of
    `_scalar`; each nesting level indents two spaces more.
    """
    keys = {}  # the text of each str key met so far, with its ": "

    def text(value, pad):
        scalar = _scalar(value)
        if scalar is not None:
            return scalar
        inner = pad + "  "
        if isinstance(value, (list, tuple)):
            if not value:
                return "[]"
            return ("[\n" + inner + (",\n" + inner).join([text(v, inner) for v in value])
                    + "\n" + pad + "]")
        if not isinstance(value, dict):
            raise TypeError(f"Object of type {type(value).__name__} "
                            "is not JSON serializable")
        if not value:
            return "{}"
        parts = []
        for key, item in value.items():
            if type(key) is str:
                head = keys.get(key)
                if head is None:
                    head = keys[key] = _quote(key) + ": "
            else:
                head = _key(key) + ": "
            parts.append(head + text(item, inner))
        return "{\n" + inner + (",\n" + inner).join(parts) + "\n" + pad + "}"

    return text(value, "")
