"""Command-line front end.

Four subcommands: `order` normal-orders an expression or a power of it
(`weyl.normal_order_power`, the graded-row kernel for every word and
power; `--expectation` is read and the printed size bounded by
`parser.check_order` before it runs), `seq` exports Bell numbers or
polynomial coefficient rows (`--poly` reads the disk cache file one
line, that is one row, at a time and prints each line whole, never split
into entries: JSON turns each space into the text between two quoted
entries; the Bell numbers are the sums of one pass of
`stirling.stirling_rows`, with no cache), `verify` runs identity checks,
`cache` manages the disk cache.
Global flags may appear before or after the subcommand.  Exit codes:
0 ok, 1 verification failure, 2 usage or parse error, or an input past
a size limit (`parser.LimitError`), 141 (128 + SIGPIPE) when the reader
closes stdout before the output is written (`normord ... | head`).

`run` is the process entry (`python -m normord.cli` and the installed
`normord` script): it calls `main` and then `gc.freeze()`, so the
collection at interpreter exit skips the some 13k objects alive after
the imports, 5-7 ms of every cold request.  Finalization still runs:
the standard streams are flushed, atexit handlers run and the exit code
is kept.  `main` never freezes, so a library or test caller keeps
ordinary collection.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from collections import namedtuple
from contextlib import closing
from fractions import Fraction
from pathlib import Path

from .cache import cache_clear, default_cache_dir, load_triangle
from .closedform import DEFAULT_PRECISION, DEFAULT_TOLERANCE
from .parser import LimitError, check_order, check_triangle, parse_expr
from .serialize import (
    iter_poly_rows_json,
    iter_poly_rows_table,
    normal_form_table,
    normal_form_to_json,
    sequence_bfile,
    sequence_table,
    sequence_to_json,
)
from .stirling import bell_sequence
from .suite import (
    IDENTITIES,
    SUITE_IDS,
    overrides_read,
    reports_to_json,
    run_identity,
    run_suite,
    suite_passed,
)
from .weyl import normal_order_power

__all__ = ["Config", "main", "run", "build_parser"]

# Bounds on the number flags, checked before the numbers are built:
# Config builds 10**(precision - 10), and Fraction("1e<exp>") 10**exp.
# At MAX_PRECISION, `verify all` takes about 1.4 s on a 2-core x86 VM.
MAX_PRECISION = 10_000
MAX_EXPONENT = MAX_PRECISION


class Config(namedtuple("Config", "lambda_order precision tolerance cache_dir fmt")):
    """The global options, checked; lambda_order None leaves each identity at
    its own order, and cache_dir defaults to `default_cache_dir()`."""

    __slots__ = ()

    def __new__(cls, lambda_order: int | None = None,
                precision: int = DEFAULT_PRECISION,
                tolerance: Fraction = DEFAULT_TOLERANCE,
                cache_dir: Path | None = None, fmt: str = "json"):
        if fmt not in ("json", "table", "bfile"):
            raise ValueError(f"unknown output format {fmt!r}")
        if lambda_order is not None and lambda_order < 0:
            raise ValueError("lambda order must be >= 0")
        if precision < 30:
            raise ValueError("precision must be at least 30 digits")
        if precision > MAX_PRECISION:
            raise ValueError(f"precision must be at most {MAX_PRECISION} digits")
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        floor = Fraction(1, 10 ** (precision - 10))
        if tolerance < floor:
            raise ValueError(
                "tolerance tighter than the precision supports "
                "(need tolerance >= 10^-(precision-10))"
            )
        if cache_dir is None:
            cache_dir = default_cache_dir()
        return super().__new__(cls, lambda_order, precision, tolerance,
                               cache_dir, fmt)


def _parse_fraction(text: str) -> Fraction:
    """Fraction(text), its decimal exponent refused past MAX_EXPONENT first.

    Raises ValueError, a zero denominator included.
    """
    _, e, exponent = text.lower().partition("e")
    digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if e and (len(digits) > len(str(MAX_EXPONENT))
              or digits.isdecimal() and int(digits) > MAX_EXPONENT):
        raise ValueError(f"decimal exponent past {MAX_EXPONENT} in {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _parse_expectation(text: str):
    parts = text.split(",")
    if len(parts) > 2:
        raise ValueError("expectation takes RE or RE,IM")
    re_part = _parse_fraction(parts[0])
    im_part = _parse_fraction(parts[1]) if len(parts) == 2 else Fraction(0)
    return re_part, im_part


def _format_complex(re_part: Fraction, im_part: Fraction) -> str:
    if im_part == 0:
        return str(re_part)
    sign = "+" if im_part >= 0 else "-"
    return f"{re_part} {sign} {abs(im_part)}i"


def _add_global_flags(p: argparse.ArgumentParser):
    g = p.add_argument_group("global options")
    g.add_argument("--format", choices=("json", "table", "bfile"),
                   default=argparse.SUPPRESS,
                   help="output format (default json)")
    g.add_argument("--lambda-order", dest="lambda_order", type=int,
                   default=argparse.SUPPRESS,
                   help="highest retained power of the expansion parameter")
    g.add_argument("--precision", type=int, default=argparse.SUPPRESS,
                   help="working decimal digits for numeric checks (>= 30)")
    g.add_argument("--tolerance", default=argparse.SUPPRESS,
                   help="numeric tolerance, rational or decimal string")
    g.add_argument("--cache-dir", dest="cache_dir", default=argparse.SUPPRESS,
                   help="cache directory (default $NORMORD_CACHE_DIR)")


def _flags(names) -> str:
    return " ".join("--" + name.replace("_", "-") for name in names)


def _identity_list() -> str:
    """Every identity id and the options that change what it runs."""
    lines = ["identities, each with the options it reads (an --r, --M, --n or",
             "--lambda-order that an identity does not read is an error):"]
    for identity in IDENTITIES:
        lines.append(f"  {identity:<24} {_flags(overrides_read(identity))}")
    lines.append(f"  {'all':<24} the suite: {SUITE_IDS[0]} through {SUITE_IDS[-1]}")
    return "\n".join(lines)


def _override_error(ns: argparse.Namespace) -> str | None:
    """Why `verify`'s --r/--M/--n/--lambda-order do not fit its id, or None.

    `all` reads none of them; an unknown id is left to `run_identity`.
    """
    if ns.identity != "all" and ns.identity not in IDENTITIES:
        return None
    read = () if ns.identity == "all" else overrides_read(ns.identity)
    for name in ("r", "M", "n", "lambda_order"):
        if getattr(ns, name, None) is not None and name not in read:
            return (f"{ns.identity} does not read {_flags([name])}; it reads "
                    f"{_flags(read) or 'none of --r, --M, --n, --lambda-order'}")
    if ns.n is not None and ns.n < 1 and "laguerre-shifted" in (
            ns.identity, *IDENTITIES[ns.identity].parts):
        return (f"{ns.identity} needs --n >= 1 (laguerre-shifted takes it "
                "as its p)")
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normord",
        description="Exact normal ordering of boson operator expressions, "
        "the attached number triangles, and their verification suite.",
    )
    _add_global_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    p_order = sub.add_parser("order", help="normal-order an operator expression")
    p_order.add_argument("expr", help="expression over a, ad, rationals, + - * ^ ()")
    p_order.add_argument("--power", type=int, default=1,
                         help="raise the expression to this power first")
    p_order.add_argument("--expectation", metavar="Z",
                         help="print the coherent expectation at z = RE[,IM]")
    _add_global_flags(p_order)

    p_seq = sub.add_parser("seq", help="export Bell numbers or polynomial rows")
    p_seq.add_argument("r", type=int)
    p_seq.add_argument("M", type=int)
    p_seq.add_argument("n_max", type=int)
    kind = p_seq.add_mutually_exclusive_group()
    kind.add_argument("--number", action="store_true", default=True,
                      help="weight-one values (default)")
    kind.add_argument("--poly", action="store_true", default=False,
                      help="coefficient rows instead of values")
    _add_global_flags(p_seq)

    p_verify = sub.add_parser(
        "verify", help="run identity checks", epilog=_identity_list(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p_verify.add_argument("identity", help='an identity id (listed below) or "all"')
    p_verify.add_argument("--r", type=int, default=None)
    p_verify.add_argument("--M", type=int, default=None)
    p_verify.add_argument("--n", type=int, default=None)
    _add_global_flags(p_verify)

    p_cache = sub.add_parser("cache", help="manage the triangle cache")
    p_cache.add_argument("action", choices=("clear",))
    _add_global_flags(p_cache)

    return parser


def _config_from_namespace(ns: argparse.Namespace) -> Config:
    kwargs = {}
    if hasattr(ns, "lambda_order"):
        kwargs["lambda_order"] = ns.lambda_order
    if hasattr(ns, "precision"):
        kwargs["precision"] = ns.precision
    if hasattr(ns, "tolerance"):
        kwargs["tolerance"] = _parse_fraction(ns.tolerance)
    if hasattr(ns, "cache_dir"):
        kwargs["cache_dir"] = Path(ns.cache_dir)
    if hasattr(ns, "format"):
        kwargs["fmt"] = ns.format
    return Config(**kwargs)


def cmd_order(cfg: Config, ns: argparse.Namespace) -> int:
    if ns.power < 1:
        print("error: --power must be >= 1", file=sys.stderr)
        return 2
    try:
        z = None if ns.expectation is None else _parse_expectation(ns.expectation)
        expr = parse_expr(ns.expr)
        check_order(expr, ns.power, z)
    except ValueError as exc:  # ParseError, LimitError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = normal_order_power(expr, ns.power)
    if z is not None:
        print(_format_complex(*result.coherent_expectation(*z)))
    elif cfg.fmt == "json":
        print(normal_form_to_json(result))
    else:
        print(normal_form_table(result))
    return 0


def cmd_seq(cfg: Config, ns: argparse.Namespace) -> int:
    if ns.r < 0 or ns.M < 0 or ns.n_max < 0:
        print("error: r, M, n_max must be nonnegative", file=sys.stderr)
        return 2
    try:
        check_triangle(ns.r, ns.M, ns.n_max)
    except LimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if ns.poly:
        rows, _, warning = load_triangle(ns.r, ns.M, ns.n_max, cfg.cache_dir)
        if warning:
            print(f"warning: {warning}", file=sys.stderr)
        pieces = iter_poly_rows_json if cfg.fmt == "json" else iter_poly_rows_table
        with closing(rows):  # releases the cache file if the write stops early
            sys.stdout.writelines(pieces(ns.r, ns.M, rows))
        sys.stdout.write("\n")
        return 0
    values = bell_sequence(ns.r, ns.M, ns.n_max)
    if cfg.fmt == "json":
        print(sequence_to_json(ns.r, ns.M, values))
    elif cfg.fmt == "table":
        print(sequence_table(ns.r, ns.M, values))
    else:
        sys.stdout.write(sequence_bfile(values))
    return 0


def cmd_verify(cfg: Config, ns: argparse.Namespace) -> int:
    problem = _override_error(ns)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    try:
        if ns.identity == "all":
            reports = run_suite(precision=cfg.precision, tolerance=cfg.tolerance)
        else:
            reports = run_identity(
                ns.identity,
                r=ns.r,
                M=ns.M,
                n=ns.n,
                lambda_order=cfg.lambda_order,
                precision=cfg.precision,
                tolerance=cfg.tolerance,
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if cfg.fmt == "json":
        print(reports_to_json(reports))
    else:
        for rep in reports:
            params = " ".join(f"{k}={v}" for k, v in rep.parameters.items())
            print(f"{rep.status:<13} {rep.identity} {params}")
    return 0 if suite_passed(reports) else 1


def cmd_cache(cfg: Config, ns: argparse.Namespace) -> int:
    removed = cache_clear(cfg.cache_dir)
    print(f"removed {removed} cache file(s)")
    return 0


_DISPATCH = {"order": cmd_order, "seq": cmd_seq, "verify": cmd_verify,
             "cache": cmd_cache}


def main(argv=None) -> int:
    # The interpreter refuses to print ints past 4300 digits, a guard for
    # parsing untrusted decimals; normord's exact results pass it routinely.
    # (Python before 3.10.7 has no such limit and no setter.)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        cfg = _config_from_namespace(ns)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # b-file holds one integer sequence: `seq --number` (`cache` prints none)
    if cfg.fmt == "bfile" and ns.command != "cache" and (
            ns.command != "seq" or ns.poly):
        print("error: b-file output applies to `seq --number` only",
              file=sys.stderr)
        return 2
    try:
        code = _DISPATCH[ns.command](cfg, ns)
        sys.stdout.flush()
    except BrokenPipeError:
        # Not a verification failure: the reader stopped reading.  Send
        # what is still buffered to devnull, so the interpreter's flush
        # at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


def run(argv=None) -> int:
    """`main`, then freeze every tracked object so that exit skips them."""
    code = main(argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
